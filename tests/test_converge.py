"""Entry-suppression product laws and their general-order recursion."""
from __future__ import annotations

import math
from fractions import Fraction
from operator import add

import numpy as np
import pytest

from fibweave import converge
from fibweave.checks import _rand_unitary_big, _rand_unitary_np
from fibweave.model import make_constants
from fibweave.numerics import Mat2, phase_diag


def test_fifth_power_laws_double():
    rng = np.random.default_rng(17)
    for _ in range(50):
        u = _rand_unitary_np(rng)
        w = converge.iconverge(u)
        assert abs(abs(w[1, 0]) - abs(u[1, 0]) ** 5) < 1e-13
        w = converge.xconverge(u)
        assert abs(abs(w[0, 0]) - abs(u[0, 0]) ** 5) < 1e-13


def test_products_are_unitary():
    rng = np.random.default_rng(8)
    u = _rand_unitary_np(rng)
    for w in (converge.iconverge(u), converge.xconverge(u), converge.amplify(u)):
        np.testing.assert_allclose(w.conj().T @ w, np.eye(2), atol=1e-12)


def test_cube_law_short_products():
    rng = np.random.default_rng(23)
    for _ in range(30):
        u = _rand_unitary_np(rng)
        w = converge.converge_pi3(u)
        assert abs(abs(w[0, 0]) - abs(u[0, 0]) ** 3) < 1e-13
        w = converge.general_sequence(u, 1)
        assert abs(abs(w[1, 0]) - abs(u[1, 0]) ** 3) < 1e-13


def test_amplify_chebyshev_law():
    rng = np.random.default_rng(4)
    for _ in range(30):
        u = _rand_unitary_np(rng)
        w = converge.amplify(u)
        x = min(1.0, abs(u[0, 0]))
        assert abs(abs(w[0, 0]) - abs(np.cos(3 * np.arccos(x)))) < 1e-12


def test_general_sequence_matches_five_factor_form():
    rng = np.random.default_rng(31)
    for _ in range(20):
        u = _rand_unitary_np(rng)
        np.testing.assert_array_equal(converge.general_sequence(u, 2), converge.iconverge(u))
    u = _rand_unitary_big(rng, 256)
    assert _parts(converge.general_sequence(u, 2)) == _parts(converge.iconverge(u))


def test_interleave_order_and_grouping():
    # w x1 wi x2 w x3 wi x4 w, multiplied strictly left to right
    assert converge.interleave("w", "v", "abcd", add) == "wavbwcvdw"
    assert converge.interleave("w", "v", "ab", lambda a, b: f"({a}{b})") == "((((wa)v)b)w)"
    assert converge.interleave("w", "v", "", add) == "w"


# ---------------------------------------------------------------------------
# Oracles: each product written out as a literal chain, and the general
# order as the two-sided P/Q recursion
#     P_0 = Q_0 = I,  P_{j+1} = d(c) U^s P_j,  Q_{j+1} = Q_j U^s d(c),
#     c = s w^{s(j+1)},  s = (-1)^j,  result Q_k U^{(-1)^k} P_k.
# ---------------------------------------------------------------------------

def _phase(u):
    if isinstance(u, Mat2):
        return lambda frac: phase_diag(0, Fraction(frac), u.precision_bits)
    return lambda frac: np.diag([1.0, np.exp(1j * math.pi * float(frac))])


def _adjoint(u):
    return u.dagger() if isinstance(u, Mat2) else u.conj().T


def _chains(u):
    phase, ud = _phase(u), _adjoint(u)
    dw, dm = phase(Fraction(1, 5)), phase(Fraction(3, 5))
    if isinstance(u, Mat2):
        z = phase_diag(1, 0, u.precision_bits)  # diag(-1, 1), exact
    else:
        z = -1 * phase(Fraction(-1))
    return {
        "iconverge": u @ dw @ ud @ dm @ u @ dm @ ud @ dw @ u,
        "xconverge": u @ phase(Fraction(-1, 5)) @ ud @ phase(Fraction(3, 5)) @ u
        @ phase(Fraction(7, 5)) @ ud @ phase(Fraction(1, 5)) @ u,
        "amplify": u @ z @ ud @ z @ u,
        "converge_pi3": u @ phase(Fraction(-1, 3)) @ ud @ phase(Fraction(1, 3)) @ u,
    }


def _two_sided(u, k):
    phase, ud = _phase(u), _adjoint(u)
    p = q = phase(0)
    for j in range(k):
        s = (-1) ** j
        ph = phase(Fraction(s * (j + 1), 2 * k + 1) + (0 if s == 1 else 1))
        uj = u if s == 1 else ud
        p = ph @ uj @ p
        q = q @ uj @ ph
    return q @ (u if (-1) ** k == 1 else ud) @ p


def _parts(m):
    return [(z.re, z.im) for z in (m.a00, m.a01, m.a10, m.a11)]


def test_products_equal_their_literal_chains():
    rng = np.random.default_rng(47)
    for u in [_rand_unitary_np(rng) for _ in range(20)] + [make_constants(256).F.to_numpy()]:
        for name, want in _chains(u).items():
            np.testing.assert_array_equal(getattr(converge, name)(u), want)
    for u in [_rand_unitary_big(rng, 256) for _ in range(3)] + [make_constants(256).F]:
        for name, want in _chains(u).items():
            assert _parts(getattr(converge, name)(u)) == _parts(want), name


def test_general_sequence_matches_two_sided_recursion():
    rng = np.random.default_rng(53)
    for k in range(1, 5):
        for _ in range(10):
            u = _rand_unitary_np(rng)
            np.testing.assert_allclose(
                converge.general_sequence(u, k), _two_sided(u, k), rtol=0, atol=1e-15
            )
        u = _rand_unitary_big(rng, 256)
        got, want = converge.general_sequence(u, k), _two_sided(u, k)
        gaps = [abs(got.entry(r, c) - want.entry(r, c)) for r in (0, 1) for c in (0, 1)]
        assert max(float(g) for g in gaps) < 2.0**-240


def test_general_sequence_rejects_bad_order():
    u = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        converge.general_sequence(u, 0)
    with pytest.raises(ValueError):
        converge.general_sequence(u, -1)


def test_non_unitary_rejected():
    with pytest.raises(ValueError):
        converge.iconverge(np.array([[1, 0], [0, 2]], dtype=complex))
    with pytest.raises(ValueError):
        converge.xconverge(np.ones((3, 3), dtype=complex))
    bad = Mat2.from_rows([[1, 0], [0, 2]], 128)
    with pytest.raises(ValueError):
        converge.amplify(bad)


def test_big_precision_law():
    u = _rand_unitary_big(np.random.default_rng(3), 192)
    assert u.is_unitary()
    w = converge.iconverge(u)
    assert abs(float(abs(abs(w.a10) - abs(u.a10) ** 5))) < 2.0 ** -150


def test_big_and_double_routes_agree():
    u = _rand_unitary_big(np.random.default_rng(4), 192)
    wb = converge.iconverge(u).to_numpy()
    wd = converge.iconverge(u.to_numpy())
    np.testing.assert_allclose(wb, wd, atol=1e-12)
