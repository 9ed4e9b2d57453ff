"""Arbitrary-precision complex scalars and 2x2 matrices.

Everything here is a plain immutable value: no global precision state is
consulted or mutated.  Scalars carry their own precision in bits; mixed
expressions run mpmath's complex kernels at the larger of the two operand
precisions.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import libmp
from mpmath.libmp import (
    fzero,
    fone,
    from_float,
    from_int,
    from_rational,
    mpc_abs,
    mpc_add,
    mpc_div,
    mpc_mul,
    mpc_sub,
    mpf_cmp,
    mpf_cos_sin_pi,
    mpf_hash,
    mpf_neg,
    mpf_shift,
    mpf_sqrt,
    to_float,
)

_RND = libmp.round_nearest

MIN_PRECISION_BITS = 53
DEFAULT_PRECISION_BITS = 256


def _operator(kernel, reflected=False):
    """A BigComplex binary operator: the mpc kernel at the larger operand
    precision, with the operands swapped for a reflected (__r*__) form."""

    def op(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = (other, self) if reflected else (self, other)
        p = max(a.precision_bits, b.precision_bits)
        return BigComplex(*kernel((a.re, a.im), (b.re, b.im), p, _RND), p)

    return op


class BigComplex:
    """Immutable complex number backed by raw mpf component tuples."""

    __slots__ = ("re", "im", "precision_bits")

    def __init__(self, re, im=fzero, precision_bits=DEFAULT_PRECISION_BITS):
        if precision_bits < MIN_PRECISION_BITS:
            raise ValueError(
                f"precision_bits must be >= {MIN_PRECISION_BITS}, got {precision_bits}"
            )
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "precision_bits", precision_bits)

    def __setattr__(self, name, value):
        raise AttributeError("BigComplex is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def from_complex(cls, z, precision_bits=DEFAULT_PRECISION_BITS):
        z = complex(z)
        return cls(from_float(z.real), from_float(z.imag), precision_bits)

    @classmethod
    def from_int(cls, n, precision_bits=DEFAULT_PRECISION_BITS):
        return cls(from_int(n), fzero, precision_bits)

    @classmethod
    def zero(cls, precision_bits=DEFAULT_PRECISION_BITS):
        return cls(fzero, fzero, precision_bits)

    @classmethod
    def one(cls, precision_bits=DEFAULT_PRECISION_BITS):
        return cls(fone, fzero, precision_bits)

    # -- conversion ---------------------------------------------------

    def to_complex(self):
        return complex(to_float(self.re), to_float(self.im))

    def __complex__(self):
        return self.to_complex()

    def __float__(self):
        return to_float(self.re)

    def is_zero(self):
        return self.re == fzero and self.im == fzero

    def mag(self):
        """|z| as a raw mpf tuple at this value's precision."""
        return mpc_abs((self.re, self.im), self.precision_bits, _RND)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, BigComplex):
            return other
        if isinstance(other, int):
            return BigComplex(from_int(other), fzero, self.precision_bits)
        if isinstance(other, float):
            return BigComplex(from_float(other), fzero, self.precision_bits)
        if isinstance(other, complex):
            return BigComplex.from_complex(other, self.precision_bits)
        return NotImplemented

    __add__ = __radd__ = _operator(mpc_add)
    __sub__, __rsub__ = _operator(mpc_sub), _operator(mpc_sub, reflected=True)
    __mul__ = __rmul__ = _operator(mpc_mul)
    __truediv__, __rtruediv__ = _operator(mpc_div), _operator(mpc_div, reflected=True)

    def __pow__(self, k):
        """z**k for an int k >= 0, as k products taken left to right."""
        out = BigComplex.one(self.precision_bits)
        for _ in range(k):
            out = out * self
        return out

    def __neg__(self):
        return BigComplex(mpf_neg(self.re), mpf_neg(self.im), self.precision_bits)

    def conjugate(self):
        return BigComplex(self.re, mpf_neg(self.im), self.precision_bits)

    def __abs__(self):
        return BigComplex(self.mag(), fzero, self.precision_bits)

    def __eq__(self, other):
        if isinstance(other, (int, float, complex, BigComplex)):
            other = self._coerce(other)
            return mpf_cmp(self.re, other.re) == 0 and mpf_cmp(self.im, other.im) == 0
        return NotImplemented

    def __hash__(self):
        # equal values hash equal, also across int, float and complex: a
        # real value hashes as its exact rational, as Python's numbers do
        if self.im == fzero:
            return mpf_hash(self.re)
        return hash(self.to_complex())

    def __repr__(self):
        return f"BigComplex({self.to_complex()!r} @ {self.precision_bits}b)"


def big_sqrt(x, precision_bits=DEFAULT_PRECISION_BITS):
    """Square root of a nonnegative real (int, float or real BigComplex)."""
    if isinstance(x, BigComplex):
        t, p = x.re, max(precision_bits, x.precision_bits)
    elif isinstance(x, int):
        t, p = from_int(x), precision_bits
    else:
        t, p = from_float(float(x)), precision_bits
    return BigComplex(mpf_sqrt(t, p, _RND), fzero, p)


def exp_i_pi(frac, precision_bits=DEFAULT_PRECISION_BITS):
    """e^{i pi * frac} for a rational (or float) multiple of pi; exact
    where frac is a multiple of 1/2."""
    frac = Fraction(frac).limit_denominator(10**12) if not isinstance(frac, Fraction) else frac
    x = from_rational(frac.numerator, frac.denominator, precision_bits + 20, _RND)
    return BigComplex(*mpf_cos_sin_pi(x, precision_bits, _RND), precision_bits)


@lru_cache(maxsize=256)
def phase_diag(f0, f1, precision_bits):
    """diag(e^{i pi f0}, e^{i pi f1}), built once per precision: Mat2 is
    immutable, so every caller can share it."""
    zero = BigComplex.zero(precision_bits)
    return Mat2(exp_i_pi(f0, precision_bits), zero, zero, exp_i_pi(f1, precision_bits))


def _dot(x, y, z, w):
    """x*y + z*w.  A product with an exact-zero factor is left out: it is
    an exact zero, and adding one rounds nothing, so the value and its
    precision come out bit for bit as from the full sum (diagonal phase
    matrices make half the terms of a product zero)."""
    if x.is_zero() or y.is_zero():
        x, y, z, w = z, w, x, y
    if z.is_zero() or w.is_zero():
        t = x * y
        return BigComplex(t.re, t.im, max(t.precision_bits, z.precision_bits, w.precision_bits))
    return x * y + z * w


class Mat2:
    """Immutable 2x2 matrix over BigComplex entries."""

    __slots__ = ("a00", "a01", "a10", "a11")

    def __init__(self, a00, a01, a10, a11):
        for name, v in (("a00", a00), ("a01", a01), ("a10", a10), ("a11", a11)):
            if not isinstance(v, BigComplex):
                raise TypeError(f"{name} must be BigComplex, got {type(v).__name__}")
            object.__setattr__(self, name, v)

    def __setattr__(self, name, value):
        raise AttributeError("Mat2 is immutable")

    @classmethod
    def from_rows(cls, rows, precision_bits=DEFAULT_PRECISION_BITS):
        (a, b), (c, d) = rows
        conv = lambda z: z if isinstance(z, BigComplex) else BigComplex.from_complex(z, precision_bits)
        return cls(conv(a), conv(b), conv(c), conv(d))

    @classmethod
    def identity(cls, precision_bits=DEFAULT_PRECISION_BITS):
        return phase_diag(0, 0, precision_bits)

    @property
    def precision_bits(self):
        return max(
            self.a00.precision_bits,
            self.a01.precision_bits,
            self.a10.precision_bits,
            self.a11.precision_bits,
        )

    def entry(self, i, j):
        return (self.a00, self.a01, self.a10, self.a11)[2 * i + j]

    def __matmul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            _dot(self.a00, other.a00, self.a01, other.a10),
            _dot(self.a00, other.a01, self.a01, other.a11),
            _dot(self.a10, other.a00, self.a11, other.a10),
            _dot(self.a10, other.a01, self.a11, other.a11),
        )

    def __sub__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a00 - other.a00,
            self.a01 - other.a01,
            self.a10 - other.a10,
            self.a11 - other.a11,
        )

    def dagger(self):
        return Mat2(
            self.a00.conjugate(),
            self.a10.conjugate(),
            self.a01.conjugate(),
            self.a11.conjugate(),
        )

    def to_numpy(self):
        return np.array(
            [
                [self.a00.to_complex(), self.a01.to_complex()],
                [self.a10.to_complex(), self.a11.to_complex()],
            ]
        )

    def unitarity_defect(self):
        """max-entry magnitude of U^dag U - I, as a raw mpf tuple."""
        r = self.dagger() @ self
        worst = fzero
        for i in range(2):
            for j in range(2):
                e = r.entry(i, j)
                if i == j:
                    e = e - 1
                m = e.mag()
                if mpf_cmp(m, worst) > 0:
                    worst = m
        return worst

    def is_unitary(self, tol_bits=20):
        """True when the unitarity defect is below 2^-(precision-tol_bits)."""
        thresh = mpf_shift(fone, -(self.precision_bits - tol_bits))
        return mpf_cmp(self.unitarity_defect(), thresh) < 0

    def __repr__(self):
        return f"Mat2({self.to_numpy().tolist()} @ {self.precision_bits}b)"

