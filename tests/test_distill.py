"""End-to-end protocol runs against frozen oracle values, closed forms,
Monte Carlo, and cost accounting."""
from __future__ import annotations

import json
import math
import threading
import time
import tracemalloc
from dataclasses import asdict
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from fibweave import distill
from fibweave.chain import STANDARD_GAUGE, Chain, gauge_of
from fibweave.checks import _gap, _random_state
from fibweave.distill import DistillReport, PlanningError
from fibweave.model import F_NP, R_NP, TAU_F, fuse
from fibweave.weave import gadget_exchanges

# joint success probabilities for one nontrivial pair per side, frozen from
# the simulator itself after cross-validation of its two routes
JOINT_N1 = {
    0: 0.065778087482124,
    1: 0.999781690122910,
    2: 0.999994039138843,
}


@lru_cache(maxsize=None)
def assignment_runs(n, j):
    """Oracle: the composite-route probability of every pair-charge
    assignment with a nontrivial pair on both sides, (2^n - 1)^2 runs."""
    sides = [
        tuple((a >> i) & 1 for i in range(n)) for a in range(1, 1 << n)
    ]
    return {
        (left, right): distill.run_end_to_end(left, right, j, route="composite")[
            "probability"
        ]
        for left in sides
        for right in sides
    }


def enumerated_success(n, p, j):
    total = 0.0
    for (left, right), prob in assignment_runs(n, j).items():
        weight = 1.0
        for c in left + right:
            weight *= p if c else 1 - p
        total += weight * prob
    return total


REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"
ROUTES = ("physical", "composite")


def reference_shapes(max_j=1):
    """(left, right, j, frozen entry) for every key of the benchmark's
    frozen table at j <= max_j."""
    with open(REFERENCE) as f:
        entries = json.load(f)["entries"]
    for key, entry in entries.items():
        left, right, j = key.split("/")
        if int(j[1:]) <= max_j:
            yield tuple(map(int, left)), tuple(map(int, right)), int(j[1:]), entry


def shape_runs(gauge=STANDARD_GAUGE):
    """run_end_to_end of every reference shape at j <= 1 on both routes."""
    return {
        (left, right, j, route): distill.run_end_to_end(left, right, j, route=route, gauge=gauge)
        for left, right, j, _entry in reference_shapes()
        for route in ROUTES
    }


@lru_cache(maxsize=None)
def standard_runs():
    return shape_runs()


def spy_runs(monkeypatch):
    """Record the positional arguments of every run_end_to_end call."""
    calls = []
    run = distill.run_end_to_end
    monkeypatch.setattr(distill, "run_end_to_end", lambda *a, **k: calls.append(a) or run(*a, **k))
    return calls


def no_run(*args, **kwargs):
    raise AssertionError("a protocol run started")


def hexed(value):
    """Floats by their bits, through dicts, lists, tuples and reports."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, DistillReport):
        value = asdict(value)
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def one_mobile_queries(p):
    """The three one-mobile queries at n = 2, j = 1, sampling included."""
    return [
        distill.exact_success("one-mobile", 2, p, j=1),
        distill.monte_carlo("one-mobile", 2, p, 3000, 5, j=1),
        distill.simulate_report("one-mobile", 2, p, trials=3000, seed=5, j=1),
    ]


def test_plan_schedule_layout():
    plan = distill.plan_one_mobile(2, 2, 1)
    ops = [(s["op"], s.get("pair")) for s in plan["schedule"]]
    assert ops == [
        ("transit-left", 4),
        ("transit-left", 3),
        ("transit-left", 2),
        ("add", 1),
        ("transit-right", 2),
        ("add", 2),
        ("integrate", 2),
        ("transit-right", 3),
        ("add", 3),
        ("transit-right", 4),
        ("add", 4),
        ("integrate", 4),
        ("cross-integrate", None),
        ("inverse-add", None),
    ]
    assert plan["add_exchanges"] == 28
    assert plan["jN"] == 2


def test_plan_rounds_integration_order_up():
    assert distill.plan_one_mobile(1, 1, 1)["jN"] == 2
    assert distill.plan_one_mobile(1, 1, 3)["jN"] == 4
    assert distill.plan_one_mobile(1, 1, 2)["jN"] == 2


def test_plan_rejections():
    with pytest.raises(PlanningError):
        distill.plan_one_mobile(5, 5, 1)   # 22 anyons
    with pytest.raises(PlanningError):
        distill.plan_one_mobile(0, 1, 1)
    with pytest.raises(ValueError, match=r"order j must lie in \[0, 8\]"):
        distill.plan_one_mobile(1, 1, -1)
    with pytest.raises(PlanningError):
        distill.plan_one_mobile(1, 1, 1, jN=1)  # odd integration order


def test_init_state_vacuum_pairs():
    st = distill.init_protocol_state([1])
    amps = {p: a for (_c, p), a in st.amps.items()}
    assert amps[(0, 1, 0, 1, 0)] == pytest.approx(1 / TAU_F, abs=1e-14)
    assert amps[(0, 1, 1, 1, 0)] == pytest.approx(1 / np.sqrt(TAU_F), abs=1e-14)
    assert st.norm() == pytest.approx(1.0, abs=1e-14)
    st0 = distill.init_protocol_state([0])
    assert len(st0.amps) == 1
    assert st0.norm() == pytest.approx(1.0)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_joint_probability_one_pair_per_side(j):
    r = distill.run_end_to_end([1], [1], j)
    assert r["probability"] == pytest.approx(JOINT_N1[j], abs=1e-11)
    assert r["norm"] == pytest.approx(1.0, abs=1e-11)
    assert r["route"] == "physical"


def test_routes_agree_without_sharing_machinery():
    for side, j in (([1], 0), ([1], 1), ([1, 1, 1], 1)):
        a = distill.run_end_to_end(side, side, j)
        b = distill.run_end_to_end(side, side, j, route="composite")
        assert abs(a["probability"] - b["probability"]) < 1e-11
        assert a["exchanges"] > b["exchanges"]


def test_reference_table_shapes():
    # every frozen shape at j <= 1, multi-pair readouts included
    runs = standard_runs()
    for left, right, j, entry in reference_shapes():
        for route in ROUTES:
            run = runs[left, right, j, route]
            assert abs(run["probability"] - entry[route]) <= 1e-12, (left, right, j, route)
            assert run["exchanges"] == entry[f"{route}_exchanges"]


def test_reported_probabilities_lie_in_unit_interval():
    # every frozen shape at j <= 2 on both routes and at j = 3 on the
    # composite route, where the norm drifts from 1 by up to 1e-13: each
    # figure is a share of the mass of the state it is summed from
    for left, right, j, _entry in reference_shapes(max_j=3):
        for route in ROUTES if j <= 2 else ("composite",):
            run = distill.run_end_to_end(left, right, j, route=route)
            for figure in ("probability", "marginal_left"):
                assert 0 <= run[figure] <= 1, (left, right, j, route, figure)


# no shrink phase: each example reruns all 144 shapes, so shrinking phi on a
# failure would take minutes and name no better counterexample
@settings(
    max_examples=5, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate]
)
@given(phi=st.floats(0, 2 * np.pi))
def test_vertex_gauge_change_moves_no_probability(phi):
    """F -> D F D^-1 with D = diag(1, e^{i phi}) and R kept is a gauge
    change: no probability or marginal may move, and neither may the class
    runs that exact_success("one-mobile", 2, p, j=1) weights by p, so that
    sum keeps its 1e-12 bound too."""
    d, d_inv = np.diag([1, np.exp(1j * phi)]), np.diag([1, np.exp(-1j * phi)])
    gauge = gauge_of(d @ F_NP @ d_inv, R_NP)
    want, got = standard_runs(), shape_runs(gauge)
    for key, run in got.items():
        for figure in ("probability", "marginal_left"):
            assert abs(run[figure] - want[key][figure]) <= 1e-12, (key, figure)
    for kl in (1, 2):
        for kr in (1, 2):
            run = distill.run_end_to_end((1,) * kl, (1,) * kr, 1, route="composite", gauge=gauge)
            assert abs(run["probability"] - distill._class_run(kl, kr, 1)[0]) <= 1e-12, (kl, kr)


@pytest.mark.parametrize("j", [0, 1, 2])
@pytest.mark.parametrize("name", ["add", "integrate", "inverse"])
@pytest.mark.parametrize("r1, r2", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_window_block_matches_exchange_by_exchange(j, name, r1, r2):
    program, window = distill.plan_one_mobile(1, 1, j)["gadgets"][name]
    assert window.exchanges == tuple(gadget_exchanges(program, 1, 1, 1))
    # objects: two anyons that leave l0 free, the window (two composites
    # with roots r1, r2 and the star), one more anyon that leaves l3 free
    roots = (1, 1, r1, r2, 1, 1)
    descriptors = (1, 1, (r1, (1, 1)), (r2, (0, 0)), 1, 1)
    random = _random_state(np.random.default_rng(7), roots)
    state = Chain({(descriptors, p): a for (_, p), a in random.amps.items()})
    fused = state.apply_window(3, window)
    by_exchange = state.apply_exchanges([(pos + 2, ccw) for pos, ccw in window.exchanges])
    assert _gap(fused, by_exchange) < 1e-12
    assert {ch for ch, _ in fused.amps} == {descriptors}
    outer = {(p[2], p[5]) for _, p in state.amps}
    assert outer == {
        (l0, l3)
        for l0 in (0, 1)
        for a in fuse(l0, r1)
        for b in fuse(a, r2)
        for l3 in fuse(b, 1)
    }


def test_exchange_counts_by_route():
    assert distill.run_end_to_end([1], [1], 1)["exchanges"] == 244
    assert (
        distill.run_end_to_end([1], [1], 1, route="composite")["exchanges"] == 152
    )


def test_marginal_hits_entry_law_floor():
    r0 = distill.run_end_to_end([1], [1], 0)
    assert r0["marginal_left"] == pytest.approx(1 - TAU_F**-4, abs=1e-12)
    r1 = distill.run_end_to_end([1], [1], 1)
    assert r1["marginal_left"] == pytest.approx(1 - TAU_F**-20, abs=1e-12)


def test_trivial_side_never_succeeds():
    for left, right in (([1], [0]), ([0], [1]), ([0], [0])):
        assert distill.run_end_to_end(left, right, 1)["probability"] == 0.0


def test_empty_slots_are_transparent():
    full = distill.run_end_to_end([1, 0], [0, 1], 0, route="composite")
    small = distill.run_end_to_end([1], [1], 0, route="composite")
    assert full["probability"] == pytest.approx(small["probability"], abs=1e-11)


def test_two_pairs_per_side_frozen_values():
    rows = {
        ((1, 0), (0, 1)): 0.999994039138840,
        ((1, 1), (1, 0)): 0.999988078313382,
        ((1, 1), (1, 1)): 0.999982117523458,
    }
    for (left, right), expect in rows.items():
        r = distill.run_end_to_end(list(left), list(right), 2, route="composite")
        assert r["probability"] == pytest.approx(expect, abs=1e-11)


def test_input_validation():
    with pytest.raises(ValueError):
        distill.run_end_to_end([1], [1], 1, route="magic")
    with pytest.raises(ValueError):
        distill.run_end_to_end([2], [1], 1)
    with pytest.raises(ValueError, match="eps must lie in"):
        distill.hierarchical_success(4, 0.9, eps=2)
    with pytest.raises(ValueError, match="p must lie in"):
        distill.one_mobile_floor(2, 1.5)
    with pytest.raises(ValueError, match="n=0"):
        distill.exact_success("one-mobile", 0, 0.5)
    for n in (0, -4):  # too few pairs is a usage error, not a planning error
        with pytest.raises(ValueError, match=f"n={n}"):
            distill.braid_cost(n, 1)
    with pytest.raises(ValueError, match="seed"):
        distill.monte_carlo("one-mobile", 2, 0.5, 10, -1)
    with pytest.raises(ValueError, match="trials"):
        distill.monte_carlo("one-mobile", 2, 0.5, 0, 0)
    # the one-mobile scheme takes its gadget errors from j, never from eps
    for j in (None, 1):
        with pytest.raises(ValueError, match="eps applies to the hierarchical"):
            distill.exact_success("one-mobile", 2, 0.3, j=j, eps=0.1)
        with pytest.raises(ValueError, match="eps applies to the hierarchical"):
            distill.monte_carlo("one-mobile", 2, 0.3, 10, 0, j=j, eps=0.1)
        with pytest.raises(ValueError, match="eps applies to the hierarchical"):
            distill.simulate_report("one-mobile", 2, 0.3, j=j, eps=0.5)


@pytest.mark.parametrize("j", [-1, 9, 1000])
def test_hierarchical_order_out_of_range_is_value_error(j):
    # the hierarchical scheme takes its residual from j without building a
    # word, so the order is checked there too: no rational from a negative
    # order, no OverflowError from a huge one
    match = rf"order j must lie in \[0, 8\], got {j}"
    with pytest.raises(ValueError, match=match):
        distill.exact_success("hierarchical", 4, 0.3, j=j)
    with pytest.raises(ValueError, match=match):
        distill.monte_carlo("hierarchical", 4, 0.3, 100, 0, j=j)
    with pytest.raises(ValueError, match=match):
        distill.simulate_report("hierarchical", 4, 0.3, j=j)


def test_closed_form_floors_exact():
    assert distill.one_mobile_floor(2, Fraction(3, 10)) == Fraction(2601, 10000)
    assert distill.hierarchical_floor(4, Fraction(1, 2)) == Fraction(15, 16)
    assert distill.merge_success(Fraction(1, 2), Fraction(1, 5)) == Fraction(7, 10)
    assert distill.hierarchical_success(4, Fraction(1, 2)) == Fraction(15, 16)
    with pytest.raises(PlanningError):
        distill.hierarchical_success(3, Fraction(1, 2))


def test_float_eps_is_read_as_its_decimal():
    # eps = 0.1 is 1/10, as p = 0.3 is 3/10, not the binary double
    # 0.1000000000000000055...: the same report as Fraction(1, 10), without
    # 53-bit denominators through the 12-level merge tree
    decimal = distill.simulate_report("hierarchical", 4096, 0.3, eps=Fraction(1, 10))
    t0 = time.perf_counter()
    report = distill.simulate_report("hierarchical", 4096, 0.3, eps=0.1)
    assert time.perf_counter() - t0 < 0.02
    assert report == decimal
    # every query and closed form reads its rates the same way
    queries = [
        (lambda p: distill.exact_success("one-mobile", 16, p), 0.3, Fraction(3, 10)),
        (lambda e: distill.exact_success("hierarchical", 16, 0.3, eps=e), 0.1, Fraction(1, 10)),
        (lambda p: distill.exact_success("hierarchical", 16, p, j=1), 0.3, Fraction(3, 10)),
        (lambda e: distill.monte_carlo("hierarchical", 16, 0.3, 100, 7, eps=e), 0.1, Fraction(1, 10)),
        (lambda p: distill.monte_carlo("one-mobile", 2, p, 100, 7, j=1), 0.3, Fraction(3, 10)),
        (lambda p: distill.one_mobile_floor(16, p), 0.3, Fraction(3, 10)),
        (lambda e: distill.merge_success(0.3, e), 0.1, Fraction(1, 10)),
        (lambda p: distill.hierarchical_success(16, p, 0.1), 0.3, Fraction(3, 10)),
        (lambda p: distill.simulate_report("one-mobile", 16, p), 0.3, Fraction(3, 10)),
    ]
    for query, rate, exact in queries:
        assert query(rate) == query(exact)


def test_epsilon_prob():
    e = distill.epsilon_prob(1)
    assert e["amplitude_residual"] == pytest.approx(TAU_F**-10)
    assert e["probability"] == pytest.approx(TAU_F**-20)


def test_exact_success_aggregates_assignments(monkeypatch):
    v = distill.exact_success("one-mobile", 2, 0.3, j=1)
    assert v == pytest.approx(0.2600487378730658, abs=1e-12)
    # sits just below the perfect-gadget floor, also at three pairs per side
    assert v < float(distill.one_mobile_floor(2, Fraction(3, 10)))
    v3 = distill.exact_success("one-mobile", 3, 0.3, j=1)
    assert v < v3 < float(distill.one_mobile_floor(3, Fraction(3, 10)))
    with pytest.raises(ValueError):
        distill.exact_success("nope", 2, 0.3)
    # five pairs per side are over the 18-anyon limit: refused before any run
    monkeypatch.setattr(distill, "run_end_to_end", no_run)
    with pytest.raises(PlanningError, match="5 pairs left and 5 right need 22 anyons"):
        distill.exact_success("one-mobile", 5, 0.3, j=1)
    with pytest.raises(PlanningError, match="22 anyons"):
        distill.monte_carlo("one-mobile", 5, 0.3, 10, 0, j=1)


@pytest.mark.parametrize(
    "n, j, bound",
    [(n, j, 1e-14) for n in (1, 2, 3) for j in (0, 1, 2)]
    # 225 assignment runs against 16 class runs
    + [(4, 0, 1e-14)]
    # at j = 3, 1 - P is about 1e-13 in doubles, pure rounding (the exact
    # failure is near tau^-500): runs of different assignments in one
    # class round differently, so the bound is the rounding scale
    + [(1, 3, 2e-13), (2, 3, 2e-13)],
)
def test_exact_success_matches_enumeration(n, j, bound):
    for p in (0.05, 0.3, 0.7):
        assert abs(distill.exact_success("one-mobile", n, p, j=j)
                   - enumerated_success(n, p, j)) <= bound


@settings(max_examples=30, deadline=None)
@given(
    left=st.lists(st.integers(0, 1), min_size=1, max_size=3),
    right=st.lists(st.integers(0, 1), min_size=1, max_size=3),
    j=st.integers(0, 2),
)
def test_charge_zero_pairs_act_trivially(left, right, j):
    """A random assignment succeeds exactly as its count class does."""
    got = distill.run_end_to_end(left, right, j, route="composite")["probability"]
    kl, kr = sum(left), sum(right)
    if kl == 0 or kr == 0:
        assert got == 0.0
    else:
        want = distill.run_end_to_end((1,) * kl, (1,) * kr, j, route="composite")
        assert abs(got - want["probability"]) <= 1e-14


def test_exact_success_perfect_closed_forms():
    assert distill.exact_success("one-mobile", 4, Fraction(1, 2)) == Fraction(
        225, 256
    )
    assert distill.exact_success("hierarchical", 4, Fraction(1, 2)) == Fraction(
        15, 16
    )


def test_monte_carlo_deterministic():
    a = distill.monte_carlo("one-mobile", 4, 0.5, 100000, 7)
    b = distill.monte_carlo("one-mobile", 4, 0.5, 100000, 7)
    assert a == b
    assert a["successes"] == 87787
    assert a["estimate"] == pytest.approx(0.87787)
    exact = float(distill.one_mobile_floor(4, Fraction(1, 2)))
    assert abs(a["estimate"] - exact) < 3 * a["std_error"]


def test_monte_carlo_merge_failure_rate():
    exact = float(distill.hierarchical_success(2, Fraction(1, 2), Fraction(1, 5)))
    mc = distill.monte_carlo("hierarchical", 2, 0.5, 100000, 3, eps=0.2)
    se = np.sqrt(exact * (1 - exact) / mc["trials"])
    assert abs(mc["estimate"] - exact) < 3 * se


def test_monte_carlo_gadget_level():
    exact = distill.exact_success("one-mobile", 1, 0.5, j=1)
    mc = distill.monte_carlo("one-mobile", 1, 0.5, 20000, 11, j=1)
    se = np.sqrt(exact * (1 - exact) / mc["trials"])
    assert abs(mc["estimate"] - exact) < 4 * se
    # the count-class table gives each trial the probability of its own
    # assignment: the same count as a per-trial lookup of the enumeration
    # oracle on the same stream (at j = 0 the classes' probabilities differ
    # by up to a factor 2.6)
    n, p, trials, seed = 2, 0.3, 2000, 5
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    left = rng.random((trials, n)) < p
    right = rng.random((trials, n)) < p
    runs = assignment_runs(n, 0)
    per_trial = [
        runs.get(key, 0.0)
        for key in ((tuple(map(int, l)), tuple(map(int, r))) for l, r in zip(left, right))
    ]
    expected = int((rng.random(trials) < np.array(per_trial)).sum())
    assert distill.monte_carlo("one-mobile", n, p, trials, seed, j=0)["successes"] == expected


def test_monte_carlo_draws_from_exactly_the_class_table():
    # an asymmetric table, so that a transposed or rescaled lookup fails
    n, p, trials, seed = 3, 0.4, 20000, 9
    table = {(kl, kr): (kl + 3 * kr) / 13 for kl in range(1, n + 1) for kr in range(1, n + 1)}
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    left = (rng.random((trials, n)) < p).sum(axis=1)
    right = (rng.random((trials, n)) < p).sum(axis=1)
    u = rng.random(trials)
    expected = sum(u[t] < table.get((left[t], right[t]), 0.0) for t in range(trials))
    assert distill._sample("one-mobile", n, p, trials, seed, table)["successes"] == expected


def reference_sample(scheme, n, p, trials, seed, resolved):
    """The sampler as it drew whole trials x n float64 arrays: the oracle for
    the block-wise draws of distill._sample."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    p = float(p)
    if scheme == "hierarchical":
        eps = float(resolved)
        level = rng.random((trials, n)) < p
        while level.shape[1] > 1:
            a, b = level[:, 0::2], level[:, 1::2]
            both = a & b
            fail = rng.random(both.shape) < eps
            level = (a | b) & ~(both & fail)
        success = level[:, 0]
    else:
        left = rng.random((trials, n)) < p
        right = rng.random((trials, n)) < p
        if resolved is None:
            success = left.any(axis=1) & right.any(axis=1)
        else:
            table = np.zeros((n + 1, n + 1))
            for (kl, kr), prob in resolved.items():
                table[kl, kr] = prob
            success = rng.random(trials) < table[left.sum(axis=1), right.sum(axis=1)]
    k = int(success.sum())
    est = k / trials
    return {
        "successes": k,
        "trials": trials,
        "estimate": est,
        "std_error": math.sqrt(max(est * (1 - est), 1e-300) / trials),
    }


def oracle_queries():
    # a block holds 2^15 // n rows, of which 20001 is never a multiple here
    for trials in (1, 20001):
        for p in (0, 0.37, 1):
            for n in (1, 2, 3, 5, 8, 16, 33):
                yield "one-mobile", n, p, trials, None, None
            for n in range(1, 5):
                for j in (0, 1):
                    yield "one-mobile", n, p, trials, j, None
            for n in (2, 8, 16):
                for eps in (0, 0.1, 1):
                    yield "hierarchical", n, p, trials, None, eps
    # rows wider than a block
    yield "one-mobile", 40000, 0.3, 3, None, None
    yield "hierarchical", 2**16, 0.3, 3, None, 0.1


def test_block_draws_match_whole_array_draws():
    for seed, (scheme, n, p, trials, j, eps) in enumerate(oracle_queries()):
        resolved = distill._query(scheme, n, p, j, eps, trials, seed)
        got = distill._sample(scheme, n, p, trials, seed, resolved)
        assert got == reference_sample(scheme, n, p, trials, seed, resolved), (scheme, n, p, j, eps)


def test_monte_carlo_peak_memory():
    # numpy reports its buffers to tracemalloc; whole trials x n float64
    # draws peaked at 13.7 and 7.6 MiB
    for scheme, n, eps, mib in (("hierarchical", 16, 0.1, 6), ("one-mobile", 8, None, 4)):
        tracemalloc.start()
        try:
            distill.monte_carlo(scheme, n, 0.3, 100000, 7, eps=eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20, (scheme, peak)


def test_monte_carlo_in_threads_matches_serial():
    # the generator fills its draws without the GIL, so concurrent queries
    # must not share a draw buffer
    queries = [("one-mobile", 8, 0.3, 50000, seed) for seed in range(4)]
    queries += [("hierarchical", 16, 0.3, 20000, seed) for seed in range(4)]
    kw = [{} if q[0] == "one-mobile" else {"eps": 0.1} for q in queries]
    serial = [distill.monte_carlo(*q, **k) for q, k in zip(queries, kw)]
    got = [None] * len(queries)

    def run(i):
        got[i] = distill.monte_carlo(*queries[i], **kw[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(queries))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
        assert not t.is_alive()
    assert got == serial


def test_monte_carlo_rejects_bad_layout():
    with pytest.raises(PlanningError):
        distill.monte_carlo("hierarchical", 3, 0.5, 10, 0)
    with pytest.raises(ValueError):
        distill.monte_carlo("nope", 2, 0.5, 10, 0)


def test_gadget_word_lengths():
    assert [distill.gadget_word_length(j) for j in range(4)] == [1, 13, 73, 373]


def test_braid_cost_tables():
    c = distill.braid_cost(8, 1)
    assert c["word_length"] == 13
    assert [lv["exchanges"] for lv in c["levels"]] == [52, 104, 208]
    assert c["total_literal"] == 364
    assert c["total_literal"] == 13 * 8 * 7 // 2
    assert c["total_dominant"] == 13 * 16
    with pytest.raises(PlanningError):
        distill.braid_cost(6, 1)


def test_hierarchical_floor_bound():
    # n = m/p draws give success at least 1 - 2/e^m
    for n, p in ((4, Fraction(1, 2)), (8, Fraction(1, 2)), (8, Fraction(9, 10))):
        m = n * float(p)
        assert float(distill.one_mobile_floor(n, p)) >= 1 - 2 / np.exp(m)


def test_report_serialization():
    rep = distill.simulate_report("one-mobile", 2, 0.3, trials=500, seed=5, j=1)
    payload = json.loads(rep.to_json())
    assert payload["braid_counts"] == {"gadget": 28, "total": 344}
    assert payload["exact_probability"] == pytest.approx(0.2600487378730658)
    assert rep.to_json() == distill.simulate_report(
        "one-mobile", 2, 0.3, trials=500, seed=5, j=1
    ).to_json()
    # keys come out sorted for reproducible byte streams
    assert list(payload) == sorted(payload)


def test_report_samples_each_class_once(monkeypatch):
    # sampling reuses the class runs of the exact sum: n^2 runs from a cold
    # cache, not 2 n^2, and monte_carlo after it runs nothing more; the same
    # successes as monte_carlo on the same Philox stream
    n, p, trials, seed, j = 3, 0.4, 4000, 12, 1
    distill._class_run.cache_clear()
    calls = spy_runs(monkeypatch)
    rep = distill.simulate_report("one-mobile", n, p, trials=trials, seed=seed, j=j)
    assert len(calls) == n * n
    mc = distill.monte_carlo("one-mobile", n, p, trials, seed, j=j)
    assert len(calls) == n * n
    assert rep.sampled_probability == mc["estimate"] == mc["successes"] / trials
    assert rep.std_error == mc["std_error"]
    # bad sampling input fails before any run
    calls.clear()
    for bad in ({"trials": -1}, {"trials": 10, "seed": -1}, {"seed": -1}):
        with pytest.raises(ValueError):
            distill.simulate_report("one-mobile", n, p, j=j, **bad)
    assert calls == []


def test_class_runs_serve_every_p_and_query(monkeypatch):
    # one cold query fills the table; at a new p none of the three queries
    # runs the protocol, and each returns the bits of a cold call
    distill._class_run.cache_clear()
    distill.exact_success("one-mobile", 2, 0.3, j=1)
    with monkeypatch.context() as mp:
        mp.setattr(distill, "run_end_to_end", no_run)
        warm = one_mobile_queries(0.55)
    distill._class_run.cache_clear()
    assert hexed(one_mobile_queries(0.55)) == hexed(warm)


def test_class_runs_are_shared_across_n(monkeypatch):
    # n = 1 and n = 2 share the (1, 1) class: 3 new runs, not 4
    distill._class_run.cache_clear()
    calls = spy_runs(monkeypatch)
    distill.exact_success("one-mobile", 1, 0.3, j=0)
    assert calls == [((1,), (1,), 0)]
    distill.exact_success("one-mobile", 2, 0.3, j=0)
    assert calls[1:] == [((1,), (1, 1), 0), ((1, 1), (1,), 0), ((1, 1), (1, 1), 0)]
    info = distill._class_run.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
    # an entry holds only immutable figures
    entry = distill._class_run(1, 1, 0)
    assert type(entry) is tuple and all(type(x) in (float, int) for x in entry)


def test_returned_results_do_not_reach_the_class_table():
    # mutating what a query returns changes no later answer
    before = hexed(one_mobile_queries(0.3))
    _exact, mc, rep = one_mobile_queries(0.3)
    mc["estimate"] = mc["successes"] = -1
    rep.braid_counts["total"] = -1
    rep.exact_probability = 2.0
    distill._class_runs(2, 1)[1, 1] = 2.0
    assert hexed(one_mobile_queries(0.3)) == before
    assert distill.simulate_report("one-mobile", 2, 0.3, j=1).braid_counts == {
        "gadget": 28,
        "total": 344,
    }


def test_report_records_sampling_seed():
    # the stored seed reruns the report; None only when nothing was sampled
    rep = distill.simulate_report("one-mobile", 2, 0.3, trials=300, j=0)
    assert rep.seed == 0
    again = distill.simulate_report("one-mobile", 2, 0.3, trials=300, seed=rep.seed, j=0)
    assert again.to_json() == rep.to_json()
    assert distill.simulate_report("hierarchical", 4, 0.5, trials=300).seed == 0
    assert distill.simulate_report("one-mobile", 2, 0.3, j=0).seed is None
    assert distill.simulate_report("one-mobile", 2, 0.3, seed=7, j=0).seed is None


def test_report_perfect_gadgets():
    rep = distill.simulate_report("hierarchical", 4, 0.5)
    assert rep.exact_probability == pytest.approx(15 / 16)
    assert rep.braid_counts == {"gadget": 0, "total": 0}
    assert rep.sampled_probability is None
