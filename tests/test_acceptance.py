"""Acceptance gate: nine end-to-end criteria, one summary line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test prints exactly one PASS/FAIL line with the measured
figures before asserting.  Criteria 1-5, 6(a) and 9 run the checks of
:mod:`fibweave.checks`, the same functions ``fibweave verify`` runs, and
add their runtime budgets here.
"""
from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from fibweave import checks, distill, words
from fibweave.chain import Chain
from fibweave.model import TAU_F


def _line(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _figures(res):
    """Every figure of a check result, each bounded one with its bound."""
    bounds = res["bounds"]
    return ", ".join(
        (f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}")
        + (f" (<{bounds[k]:.1e})" if k in bounds else "")
        for k, v in res.items()
        if k not in ("passed", "bounds")
    )


def _criterion(n, check, budget=None):
    """Run one check and print its criterion line; a budget bounds its wall
    time."""
    t0 = time.monotonic()
    res = check()
    dt = time.monotonic() - t0
    in_time = budget is None or dt < budget
    limit = "" if budget is None else f" (<{budget:g}s)"
    assert _line(n, res["passed"] and in_time, f"{_figures(res)}, {dt:.2f}s{limit}")


def test_criterion_1_product_laws():
    _criterion(1, checks.lemma1, budget=1.0)


def test_criterion_2_exact_error_laws():
    _criterion(2, checks.error_laws, budget=10.0)


def test_criterion_3_length_and_permutation():
    _criterion(3, checks.counts, budget=1.0)


def test_criterion_4_machine_closure_and_semantics():
    _criterion(4, checks.closure, budget=30.0)


def test_criterion_5_chain_oracle():
    _criterion(5, checks.chain_oracle)


def test_criterion_6_end_to_end_distillation():
    t0 = time.monotonic()
    # (a) the order-1 addition gadget and the two protocol routes
    res = checks.distillation()

    # (b) the generator realisation moves charge across the cut whenever
    # either pair is nontrivial
    gw = words.generator_word(1)
    b_vals = {}
    for pc in ((1, 0), (0, 1), (1, 1), (0, 0)):
        stg = Chain.init_pairs(pc)
        for s, a in reversed(gw):
            for _ in range(abs(a)):
                stg = stg.braid_adjacent(s, a > 0)
        b_vals[pc] = stg.cut_distribution(2)[1]
    b_ok = (
        abs(b_vals[(1, 0)] - 1) <= 1e-9
        and abs(b_vals[(0, 1)] - 1) <= 1e-9
        and abs(b_vals[(1, 1)] - (1 - TAU_F**-10)) <= 1e-9
        and b_vals[(0, 0)] <= 1e-12
    )

    # (c) full enumeration over two pairs per side agrees with the exact
    # aggregation, on the independently expanded route
    probs = {}
    for left in ((0, 1), (1, 0), (1, 1)):
        for right in ((0, 1), (1, 0), (1, 1)):
            probs[(left, right)] = distill.run_end_to_end(left, right, 2)[
                "probability"
            ]
    c_gap = 0.0
    for p in (0.3, 0.7):
        agg = 0.0
        for left in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for right in ((0, 0), (0, 1), (1, 0), (1, 1)):
                wgt = 1.0
                for c in left + right:
                    wgt *= p if c else 1 - p
                if any(left) and any(right):
                    agg += wgt * probs[(left, right)]
        c_gap = max(c_gap, abs(agg - distill.exact_success("one-mobile", 2, p, j=2)))
    c_ok = c_gap <= 1e-9

    dt = time.monotonic() - t0
    ok = res["passed"] and b_ok and c_ok and dt < 120.0
    assert _line(
        6,
        ok,
        f"{_figures(res)}, one-sided "
        f"generator runs {b_vals[(1, 0)]:.9f}/{b_vals[(0, 1)]:.9f} (=1±1e-9), "
        f"enumeration gap {c_gap:.2e} (<=1e-9), {dt:.1f}s (<120s)",
    )


def test_criterion_7_protocol_probabilities():
    t0 = time.monotonic()
    trials = 100000
    worst_sigma = 0.0
    bound_ok = True
    seed = 1000
    for p in (0.3, 0.5, 0.9):
        pf = Fraction(str(p))
        for n in (2, 4, 8):
            for scheme, exact in (
                ("one-mobile", distill.one_mobile_floor(n, pf)),
                ("hierarchical", distill.hierarchical_success(n, pf, 0)),
            ):
                seed += 1
                mc = distill.monte_carlo(scheme, n, p, trials, seed)
                q = float(exact)
                se = max(np.sqrt(q * (1 - q) / trials), 1e-12)
                worst_sigma = max(worst_sigma, abs(mc["estimate"] - q) / se)
            m = n * p
            bound_ok &= float(distill.one_mobile_floor(n, pf)) >= 1 - 2 / np.exp(m)
    # one merge with a substantial failure rate exercises the eps term
    exact = float(distill.hierarchical_success(2, Fraction(1, 2), Fraction(1, 5)))
    mc = distill.monte_carlo("hierarchical", 2, 0.5, trials, 99, eps=0.2)
    se = np.sqrt(exact * (1 - exact) / trials)
    worst_sigma = max(worst_sigma, abs(mc["estimate"] - exact) / se)
    dt = time.monotonic() - t0
    ok = worst_sigma <= 3.0 and bound_ok and dt < 30.0
    assert _line(
        7,
        ok,
        f"18 scheme/size/rate combinations plus a lossy merge, worst "
        f"deviation {worst_sigma:.2f} standard errors (<=3), exponential "
        f"floor bound holds, {dt:.1f}s (<30s)",
    )


def test_criterion_8_cost_scaling():
    t0 = time.monotonic()
    ratio_ok = True
    ratios = []
    for j in (1, 2):
        totals = [distill.braid_cost(n, j)["total_dominant"] for n in (2, 4, 8, 16)]
        rs = [totals[i + 1] / totals[i] for i in range(3)]
        ratios.append(rs)
        ratio_ok &= all(3.5 <= r <= 4.5 for r in rs)
    sweep_ok = all(
        distill.braid_cost(2, j)["word_length"] == 3 * 5**j - 2 for j in range(4)
    )
    dt = time.monotonic() - t0
    ok = ratio_ok and sweep_ok
    assert _line(
        8,
        ok,
        f"doubling ratios {ratios[0]} within [3.5, 4.5], per-gadget lengths "
        f"exact through order 3, {dt:.2f}s",
    )


def test_criterion_9_order_fits():
    """The odd-order family's entry law for k = 1-5 and the converge_pi3 and
    amplify laws, in doubles and at 256 bits."""
    _criterion(9, checks.conjectures, budget=2.0)
