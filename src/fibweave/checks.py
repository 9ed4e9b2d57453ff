"""The paper's central claims, one check each.

:data:`CHECKS` maps a check name to a function of no argument that returns
``passed``, the measured figures and their ``bounds``; high-precision
figures are taken at 256 bits.  ``fibweave verify`` and the acceptance
tests both call these functions, so they report the same figures against
the same bounds.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import chain, converge, distill, model, weave, words
from .numerics import DEFAULT_PRECISION_BITS as BITS, Mat2, exp_i_pi


def _rand_unitary_np(rng):
    """Haar-random 2x2 unitary in doubles."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def _rand_unitary_big(rng, bits=BITS):
    """Exactly unitary at full precision: one rotation angle, three phases,
    every entry built from exp_i_pi."""
    th, ph, ps, al = rng.uniform(-1, 1, size=4)
    e = exp_i_pi(th, bits)
    cos_t = (e + e.conjugate()) * 0.5
    sin_t = (e - e.conjugate()) * complex(0, -0.5)
    e_ph, e_ps, e_al = (exp_i_pi(x, bits) for x in (ph, ps, al))
    return Mat2(
        e_al * e_ph * cos_t,
        e_al * e_ps * sin_t,
        -e_al * e_ps.conjugate() * sin_t,
        e_al * e_ph.conjugate() * cos_t,
    )


def _random_state(rng, charges):
    """Normalised random state over every fusion path of the given charges."""
    paths = chain.paths_for(charges)
    v = rng.normal(size=len(paths)) + 1j * rng.normal(size=len(paths))
    v /= np.linalg.norm(v)
    return chain.Chain({(tuple(charges), p): v[i] for i, p in enumerate(paths)})


def _gap(a, b):
    """Largest amplitude difference between two chain states."""
    keys = set(a.amps) | set(b.amps)
    return max(abs(a.amps.get(k, 0) - b.amps.get(k, 0)) for k in keys)


def _verdict(figures, bounds, holds=True):
    """Result dict: passed when `holds` and every bounded figure lies
    strictly below its upper bound."""
    passed = holds and all(figures[k] < b for k, b in bounds.items())
    return {"passed": bool(passed), **figures, "bounds": bounds}


def constants():
    """Defining identities of the model constants at 256 bits."""
    res = model.make_constants(BITS).self_check()
    return _verdict(
        {"residuals": res, "worst_residual": max(res.values())},
        {"worst_residual": 1e-50},
    )


def _entry_laws(laws, samples, seed):
    """Entry laws |W_rc| = law(|U_rc|) on `samples` random unitaries in
    doubles, then as many at 256 bits; `laws` lists (product, r, c, law)."""
    rng = np.random.default_rng(seed)
    worst_np = 0.0
    for _ in range(samples):
        u = _rand_unitary_np(rng)
        for product, r, c, law in laws:
            worst_np = max(worst_np, abs(abs(product(u)[r, c]) - law(abs(u[r, c]))))
    worst_big = 0.0
    for _ in range(samples):
        u = _rand_unitary_big(rng)
        for product, r, c, law in laws:
            w = product(u).entry(r, c)
            worst_big = max(worst_big, float(abs(abs(w) - law(abs(u.entry(r, c))))))
    return _verdict(
        {"samples": samples, "double_residual": worst_np, "big_residual": worst_big},
        {"double_residual": 1e-12, "big_residual": 2.0**-200},
    )


def lemma1():
    """Both five-factor entry laws, |W10| = |U10|^5 (iconverge) and
    |W00| = |U00|^5 (xconverge), on 200 random unitaries."""
    fifth = lambda x: x**5
    laws = [(converge.iconverge, 1, 0, fifth), (converge.xconverge, 0, 0, fifth)]
    return _entry_laws(laws, 200, 101)


def _log2(x, prec):
    """floor(log2 |x|) of a real BigComplex, read from its mpf exponent, so
    no float conversion underflows it; an exact zero reads -prec."""
    _, man, exp, bc = x.re
    return exp + bc - 1 if man else -prec


#: (precision in bits, word orders evaluated at it) for :func:`error_laws`
ERROR_LAW_ORDERS = ((BITS, (0, 1, 2)), (1024, (3,)), (2048, (4,)))


def error_laws():
    """Entry magnitudes of the recursion words against exact tau powers:
    |M00| = tau^-(5^j) (seed S), |M00| = tau^-(2*5^j) (weave seed) and
    |N10|^2 = tau^-(5^j), each order at its precision in ERROR_LAW_ORDERS.
    worst_relative_error underflows to 0.0 below about 1e-308, so the worst
    log2 per order is reported as well and held to the same bound."""
    worst, log2s = 0.0, []
    for prec, orders in ERROR_LAW_ORDERS:
        consts = model.make_constants(prec)
        for j in orders:
            errs = []
            for seed, power in ((words.SEED_S, 5**j), (words.SEED_WEAVE, 2 * 5**j)):
                m = words.evaluate(words.m_word(j, seed), consts)
                target = 1 / consts.tau**power
                errs.append(abs(abs(m.a00) - target) / target)
            n = words.evaluate(words.n_word(j), consts)
            target = 1 / consts.tau ** 5**j
            errs.append(abs(abs(n.a10) * abs(n.a10) - target) / target)
            worst = max([worst] + [float(e) for e in errs])
            log2s.append(max(_log2(e, prec) for e in errs))
    return _verdict(
        {"precisions": [prec for prec, _ in ERROR_LAW_ORDERS], "worst_relative_error": worst,
         "worst_log2_relative_error": log2s},
        {"worst_relative_error": 1e-20},
        holds=max(log2s) < math.log2(1e-20),
    )


def counts():
    """Exchange counts 3*5^j - 2 of the order-j words in both alphabets, and
    the alternating strand permutation through order 8."""
    word_counts = [
        words.word_metrics(words.m_word(j, words.SEED_S))["elementary_braid_count"]
        for j in range(4)
    ]
    gen_counts = [words.generator_braid_count(words.generator_word(j)) for j in range(4)]
    expected = [3 * 5**j - 2 for j in range(4)]
    perm_ok = all(
        words.word_permutation(j) == ((0, 2, 1) if j % 2 == 0 else (2, 1, 0))
        for j in range(9)
    )
    figures = {
        "word_counts": word_counts,
        "generator_counts": gen_counts,
        "permutations_alternate": perm_ok,
    }
    return _verdict(figures, {}, word_counts == expected == gen_counts and perm_ok)


def _random_words(rng, count):
    """Alternating F / R^a words of random length with random starts."""
    cases = []
    for _ in range(count):
        length = int(rng.integers(1, 51))
        first_f = bool(rng.integers(0, 2))
        word = []
        for i in range(length):
            if (i % 2 == 0) == first_f:
                word.append(("F",))
            else:
                a = int(rng.integers(1, 4)) * (1 if rng.integers(0, 2) else -1)
                word.append(("R", a))
        cases.append((tuple(word), weave.STATES[int(rng.integers(0, 6))]))
    return cases


def closure():
    """The weave machine closes every M-word through order 3 from all six
    starts with at most one closing move, even-order N-words carry Pair,D to
    Nested,D, and the compiled moves multiply out to the word up to a
    tracked phase."""
    ok = True
    max_closing = 0
    for j in range(4):
        word = words.m_word(j, words.SEED_WEAVE)
        for s in weave.STATES:
            prog = weave.compile_weave(word, s)
            ok &= prog.end_state == s
            max_closing = max(max_closing, len(prog.closing))
    for j in (0, 2):
        prog = weave.compile_weave(words.n_word(j), ("Pair", "D"))
        ok &= prog.end_state == ("Nested", "D") and not prog.closing
    cases = [(words.m_word(j, words.SEED_WEAVE), ("Nested", "D")) for j in (0, 1, 2)]
    cases += [(words.n_word(j), ("Pair", "D")) for j in (0, 1, 2)]
    cases += _random_words(np.random.default_rng(77), 100)
    worst = 0.0
    for word, start in cases:
        m, pe, _ = weave.weave_semantics(word, start)
        gap = np.abs(np.exp(-1j * np.pi / 5 * pe) * m - words.evaluate(word)).max()
        worst = max(worst, float(gap))
    figures = {
        "max_closing_moves": max_closing,
        "semantics_words": len(cases),
        "semantics_gap": worst,
    }
    return _verdict(figures, {"semantics_gap": 1e-12}, ok and max_closing <= 1)


def chain_oracle():
    """Braid relations (Yang-Baxter, far commutation, inverse) on 12 random
    states, Fibonacci state-space dimensions through 16 anyons, and bitwise
    transparency of exchanges with vacuum charges."""
    rng = np.random.default_rng(55)
    samples = 12
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(4, 9))
        charges = [int(rng.integers(0, 2)) for _ in range(n)]
        st = _random_state(rng, charges)
        i = int(rng.integers(1, n - 1))
        a = st.braid_adjacent(i).braid_adjacent(i + 1).braid_adjacent(i)
        b = st.braid_adjacent(i + 1).braid_adjacent(i).braid_adjacent(i + 1)
        worst = max(worst, _gap(a, b))
        k = 1 if i >= 3 else n - 1
        if abs(k - i) >= 2:
            c = st.braid_adjacent(i).braid_adjacent(k)
            d = st.braid_adjacent(k).braid_adjacent(i)
            worst = max(worst, _gap(c, d))
        worst = max(worst, abs(st.braid_adjacent(i).braid_adjacent(i, False).overlap(st) - 1))
    dims = [len([p for p in chain.paths_for([1] * n) if p[-1] == 0]) for n in range(2, 17)]
    fib = [1, 1]
    while len(fib) < len(dims):
        fib.append(fib[-1] + fib[-2])
    st = chain.Chain.from_path((1, 0, 0, 1), (0, 1, 1, 1, 0), 0.6 + 0.8j)
    moved = st.braid_adjacent(3).braid_adjacent(2)
    back = moved.braid_adjacent(2, False).braid_adjacent(3, False)
    transparent = back.amps == st.amps and list(moved.amps.values()) == [0.6 + 0.8j]
    figures = {
        "samples": samples,
        "algebra_residual": float(worst),
        "vacuum_dims": dims,
        "transparency_exact": transparent,
    }
    return _verdict(figures, {"algebra_residual": 1e-12}, dims == fib and transparent)


def distillation():
    """The order-1 addition gadget lifts the cut probability of two
    nontrivial pairs to 1 - tau^-20; the physical and composite protocol
    routes agree, also under the vertex gauge F -> D F D^-1 with
    D = diag(1, e^i); epsilon_prob(j) is |M00|^2 of the order-j weave-seed
    word for j = 0 and 1; the perfect-gadget floor at n=2, p=1/2 is 9/16."""
    target = 1 - model.TAU_F**-20
    prog = weave.compile_weave(words.m_word(1, words.SEED_WEAVE), ("Pair", "D"))
    st = chain.Chain.init_pairs([1, 1]).apply_exchanges(weave.gadget_exchanges(prog, 2))
    p11 = st.cut_distribution(2)[1]
    routes = ("physical", "composite")
    r_phys, r_comp = (distill.run_end_to_end([1], [1], 1, route=r) for r in routes)
    route_gap = abs(r_phys["probability"] - r_comp["probability"])
    d = np.diag([1, np.exp(1j)])
    gauge = chain.gauge_of(d @ model.F_NP @ d.conj(), model.R_NP)
    gauged = [distill.run_end_to_end([1], [1], 1, route=r, gauge=gauge)["probability"]
              for r in routes]
    gauge_gap = max(abs(g - r["probability"]) for g, r in zip(gauged, (r_phys, r_comp)))
    marginal_gap = abs(r_phys["marginal_left"] - target)
    m00 = [abs(words.evaluate(words.m_word(j, words.SEED_WEAVE))[0, 0]) ** 2 for j in (0, 1)]
    epsilon_gap = max(abs(distill.epsilon_prob(j)["probability"] - m) / m for j, m in enumerate(m00))
    floor = distill.one_mobile_floor(2, Fraction(1, 2))
    figures = {
        "cut_probability": p11,
        "cut_shortfall": target - p11,
        "route_gap": route_gap,
        "gauge_gap": gauge_gap,
        "marginal_gap": marginal_gap,
        "epsilon_gap": epsilon_gap,
        "joint_probability": r_phys["probability"],
        "floor": floor,
    }
    bounds = {"cut_shortfall": 1e-12, "route_gap": 1e-11, "gauge_gap": 1e-12,
              "marginal_gap": 1e-12, "epsilon_gap": 1e-9}
    return _verdict(figures, bounds, floor == Fraction(9, 16))


def conjectures():
    """The odd-order family |W10| = |U10|^(2k+1) of general_sequence for
    k = 1-5, |W00| = |U00|^3 of converge_pi3 and |W00| = |4x^3 - 3x| with
    x = |U00| of amplify, on 50 random unitaries."""
    laws = [
        (lambda u, k=k: converge.general_sequence(u, k), 1, 0, lambda x, n=2 * k + 1: x**n)
        for k in range(1, 6)
    ]
    laws += [
        (converge.converge_pi3, 0, 0, lambda x: x**3),
        (converge.amplify, 0, 0, lambda x: abs(4 * x**3 - 3 * x)),
    ]
    return _entry_laws(laws, 50, 102)


CHECKS = {
    "constants": constants,
    "lemma1": lemma1,
    "error-laws": error_laws,
    "counts": counts,
    "closure": closure,
    "chain": chain_oracle,
    "distill": distillation,
    "conjectures": conjectures,
}
