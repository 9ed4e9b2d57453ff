"""Entry-suppression product laws, their general-order recursion, and the
empirical order fits."""
from __future__ import annotations

import numpy as np
import pytest

from fibweave import converge
from fibweave.checks import _big_pow, _rand_unitary_big, _rand_unitary_np
from fibweave.numerics import Mat2


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
        np.testing.assert_allclose(
            converge.general_sequence(u, 2), converge.iconverge(u), atol=1e-13
        )


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
    assert abs(float(abs(abs(w.a10) - _big_pow(abs(u.a10), 5)))) < 2.0 ** -150


def test_big_and_double_routes_agree():
    u = _rand_unitary_big(np.random.default_rng(4), 192)
    wb = converge.iconverge(u).to_numpy()
    wd = converge.iconverge(u.to_numpy())
    np.testing.assert_allclose(wb, wd, atol=1e-12)


def test_order_estimate_slopes():
    r1 = converge.order_estimate(1)
    assert r1["target_order"] == 3
    assert abs(r1["offdiagonal"]["slope"] - 3) < 0.01
    r2 = converge.order_estimate(2)
    assert abs(r2["offdiagonal"]["slope"] - 5) < 0.01


def test_order_estimate_degenerate_fit_flagged():
    r = converge.order_estimate(1, thetas=(0.05, 0.05, 0.05))
    assert r["offdiagonal"] == {"slope": None, "degenerate": True}
    assert r["diagonal"]["degenerate"]
