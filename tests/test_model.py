"""The gauge constants and fusion rules against their defining identities."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from fibweave import words
from fibweave.model import (
    F_NP,
    R_NP,
    TAU_F,
    fuse,
    make_constants,
)
from fibweave.numerics import exp_i_pi


def test_fusion_table():
    assert fuse(0, 0) == (0,)
    assert fuse(0, 1) == (1,)
    assert fuse(1, 0) == (1,)
    assert fuse(1, 1) == (0, 1)
    with pytest.raises(ValueError):
        fuse(2, 0)
    with pytest.raises(ValueError):
        fuse(0, -1)


def test_double_precision_identities():
    np.testing.assert_allclose(F_NP @ F_NP, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(
        np.linalg.matrix_power(R_NP, 10), np.eye(2), atol=1e-14
    )
    np.testing.assert_allclose(F_NP, F_NP.T, atol=0)
    assert np.linalg.det(F_NP) == pytest.approx(-1)
    # the exchange in the other pairing: F R F
    s = F_NP @ R_NP @ F_NP
    assert s[0, 0] == pytest.approx(np.exp(4j * np.pi / 5) / TAU_F, abs=1e-14)
    assert abs(s[1, 0]) == pytest.approx(1 / np.sqrt(TAU_F), abs=1e-14)
    frfrf = F_NP @ R_NP @ F_NP @ R_NP @ F_NP
    assert frfrf[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_golden_ratio():
    assert TAU_F == pytest.approx((1 + np.sqrt(5)) / 2)
    assert TAU_F * TAU_F == pytest.approx(TAU_F + 1)


def test_self_check_residuals_tiny():
    res = make_constants(256).self_check()
    assert set(res) == {
        "f_squared_minus_identity",
        "r_tenth_minus_identity",
        "r_unitarity",
        "f_unitarity",
        "s_unitarity",
        "s00_value",
        "s10_magnitude",
        "frfrf_00_minus_one",
    }
    assert max(res.values()) < 1e-70


def test_self_check_at_minimum_precision():
    res = make_constants(53).self_check()
    assert max(res.values()) < 1e-12


def test_constants_recomputed_per_precision():
    lo = make_constants(64)
    hi = make_constants(512)
    assert lo.precision_bits == 64
    assert hi.precision_bits == 512
    gap = abs((lo.tau - hi.tau).to_complex())
    assert 0 < gap < 1e-15


def test_tau_satisfies_quadratic():
    c = make_constants(320)
    r = c.tau * c.tau - c.tau - 1
    assert abs(r.to_complex()) < 2.0 ** -300


def test_rejects_low_precision():
    with pytest.raises(ValueError):
        make_constants(52)


def test_omega_is_primitive_tenth_root():
    omega = exp_i_pi(Fraction(1, 5), 256)
    powers = [omega]
    for _ in range(9):
        powers.append(powers[-1] * omega)
    assert abs((powers[4] + 1).to_complex()) < 1e-70
    assert abs((powers[9] - 1).to_complex()) < 1e-70
    assert all(abs((p - 1).to_complex()) > 0.5 for p in powers[:9])


def test_constants_carry_the_requested_precision():
    # below the 256-bit default too: F, S and the words built from them
    for p in (128, 192, 320):
        c = make_constants(p)
        assert (c.tau.precision_bits, c.F.precision_bits, c.S.precision_bits) == (p, p, p)
    assert words.evaluate(words.m_word(2), make_constants(128)).precision_bits == 128
