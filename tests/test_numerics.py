"""Tests for the self-contained precision layer: scalars and 2x2
matrices."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibweave.numerics import (
    DEFAULT_PRECISION_BITS,
    MIN_PRECISION_BITS,
    BigComplex,
    Mat2,
    big_pi,
    big_sqrt,
    exp_i_pi,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64)


def test_construction_and_conversion():
    z = BigComplex.from_complex(1.5 - 2.25j)
    assert z.to_complex() == 1.5 - 2.25j
    assert complex(z) == 1.5 - 2.25j
    assert float(BigComplex.from_int(7)) == 7.0
    assert BigComplex.zero().to_complex() == 0j
    assert BigComplex.one().to_complex() == 1 + 0j


def test_minimum_precision_enforced():
    with pytest.raises(ValueError):
        BigComplex.from_int(1, precision_bits=MIN_PRECISION_BITS - 1)


def test_immutability():
    z = BigComplex.one()
    with pytest.raises(AttributeError):
        z.re = z.im
    m = Mat2.identity()
    with pytest.raises(AttributeError):
        m.a00 = z


@given(finite, finite, finite, finite)
@settings(max_examples=60, deadline=None)
def test_field_ops_match_python_complex(ar, ai, br, bi):
    a, b = complex(ar, ai), complex(br, bi)
    A = BigComplex.from_complex(a, 128)
    B = BigComplex.from_complex(b, 128)
    assert abs((A + B).to_complex() - (a + b)) <= 1e-9 * (1 + abs(a + b))
    assert abs((A - B).to_complex() - (a - b)) <= 1e-9 * (1 + abs(a - b))
    assert abs((A * B).to_complex() - (a * b)) <= 1e-9 * (1 + abs(a * b))
    if abs(b) > 1e-3:
        assert abs((A / B).to_complex() - (a / b)) <= 1e-9 * (1 + abs(a / b))


def test_mixed_precision_promotes():
    lo = BigComplex.from_int(3, 64)
    hi = BigComplex.from_int(5, 256)
    assert (lo * hi).precision_bits == 256
    assert (lo + hi).precision_bits == 256
    # scalar coercion keeps the BigComplex precision
    assert (2 * hi).precision_bits == 256
    assert ((1 + 2j) - hi).precision_bits == 256


def test_equal_values_hash_equal():
    assert len({BigComplex.one(), 1, 1.0, 1 + 0j}) == 1
    assert hash(BigComplex.from_complex(-3.25)) == hash(-3.25)
    assert hash(BigComplex.from_int(2**60 + 1)) == hash(2**60 + 1)
    z = BigComplex.from_complex(1.5 - 2j, 128)
    assert z == 1.5 - 2j and hash(z) == hash(1.5 - 2j)


def test_conjugate_and_abs():
    z = BigComplex.from_complex(3 - 4j)
    assert z.conjugate().to_complex() == 3 + 4j
    assert abs(abs(z).to_complex() - 5) < 1e-15
    assert (-z).to_complex() == -3 + 4j


def test_division_precision():
    # 1/3 at 256 bits should be far better than double
    third = BigComplex.one(256) / BigComplex.from_int(3, 256)
    r = third * 3 - 1
    assert abs(r.to_complex()) < 2.0 ** -250


def test_exp_i_pi_special_values():
    assert exp_i_pi(Fraction(0)) == 1
    i_unit = exp_i_pi(Fraction(1, 2), 256)
    assert abs(i_unit.to_complex() - 1j) < 1e-70
    minus_one = exp_i_pi(Fraction(1), 256)
    assert abs(minus_one.to_complex() + 1) < 1e-70
    # tenth root of unity to the tenth power
    w = exp_i_pi(Fraction(1, 5), 256)
    acc = BigComplex.one(256)
    for _ in range(10):
        acc = acc * w
    assert abs((acc - 1).to_complex()) < 1e-70


def test_big_pi_and_sqrt():
    assert abs(float(big_pi(256)) - math.pi) < 1e-15
    r = big_sqrt(5, 256)
    assert abs((r * r - 5).to_complex()) < 2.0 ** -250
    assert abs(float(big_sqrt(BigComplex.from_int(49, 256))) - 7) < 1e-60


def test_mat2_algebra():
    a = Mat2.from_rows([[1, 2j], [3, 4]], 128)
    b = Mat2.from_rows([[0, 1], [1, 0]], 128)
    ab = a @ b
    np.testing.assert_allclose(ab.to_numpy(), a.to_numpy() @ b.to_numpy(), atol=1e-15)
    assert abs(a.trace().to_complex() - 5) < 1e-15
    assert abs(a.det().to_complex() - (4 - 6j)) < 1e-15
    assert a.entry(0, 1).to_complex() == 2j
    np.testing.assert_allclose(a.dagger().to_numpy(), a.to_numpy().conj().T, atol=1e-15)
    np.testing.assert_allclose((a - a).to_numpy(), np.zeros((2, 2)), atol=0)


def test_mat2_product_with_zeros_is_bitwise_full_sum():
    # zero entries at a higher precision than the rest: the product keeps
    # the value and the precision of the full four-term sum
    u = Mat2(*(exp_i_pi(Fraction(k, 7), 256) for k in (1, 2, 3, 4)))
    zero = BigComplex.zero(512)
    for d in (
        Mat2(BigComplex.one(256), *[BigComplex.zero(256)] * 2, exp_i_pi(Fraction(3, 5), 256)),
        Mat2(zero, exp_i_pi(Fraction(1, 3), 256), exp_i_pi(Fraction(2, 3), 256), zero),
        Mat2(zero, zero, zero, zero),
    ):
        for a, b in ((u, d), (d, u), (d, d)):
            full = [
                a.entry(i, 0) * b.entry(0, k) + a.entry(i, 1) * b.entry(1, k)
                for i in (0, 1)
                for k in (0, 1)
            ]
            got = a @ b
            assert [(z.re, z.im, z.precision_bits) for z in full] == [
                (z.re, z.im, z.precision_bits) for z in (got.a00, got.a01, got.a10, got.a11)
            ]


def test_mat2_unitarity_check():
    # an exactly unitary rotation built from exp_i_pi
    c = exp_i_pi(Fraction(1, 7), 256)
    u = Mat2(
        c, BigComplex.zero(256), BigComplex.zero(256), c.conjugate()
    )
    assert u.is_unitary()
    bad = Mat2.from_rows([[1, 0], [0, 2]], 256)
    assert not bad.is_unitary()
    assert float(BigComplex(bad.unitarity_defect())) == pytest.approx(3.0)


def test_default_precision_value():
    assert DEFAULT_PRECISION_BITS == 256
