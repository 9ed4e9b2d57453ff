"""Interleaved-phase products that drive matrix entries toward 0 or 1.

The convergent-search step is the interleaved product U x1 U* x2 U x3 U* x4 U
(:func:`interleave`); the word recursion of :mod:`fibweave.words` applies
the same step to a word.  Here the inserts are phases d(z) = diag(1, z): for
any single-qubit unitary U and z a tenth root of unity, the magnitude of a
chosen entry of the five-factor product equals the fifth power of the
corresponding entry of U, and three-factor variants give cubes.  Each product
is a list of phases; the general odd-order family takes the palindromic list
c_1..c_k c_k..c_1.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import matmul

import numpy as np

from .numerics import Mat2, phase_diag

UNITARITY_TOL = 1e-10


def interleave(w, wi, inserts, product=matmul):
    """w x1 wi x2 w x3 wi x4 w for inserts x1..x4 (any even count), with
    products taken left to right: each insert is followed by wi, w in turn."""
    out = w
    for i, x in enumerate(inserts):
        out = product(product(out, x), w if i % 2 else wi)
    return out


def _prepare(u, fracs):
    """Check that u is a 2x2 unitary and interleave u and its adjoint with
    the phases d(e^{i pi f}) for f in fracs, in the arithmetic of u."""
    if isinstance(u, Mat2):
        if not u.is_unitary():
            raise ValueError("matrix is not unitary at its carried precision")
        phases = [phase_diag(0, Fraction(f), u.precision_bits) for f in fracs]
        return interleave(u, u.dagger(), phases)
    u = np.asarray(u)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    if np.abs(u.conj().T @ u - np.eye(2)).max() > UNITARITY_TOL:
        raise ValueError("matrix is not unitary")
    phases = [np.diag([1.0, np.exp(1j * math.pi * float(f))]) for f in fracs]
    return interleave(u, u.conj().T, phases)


def iconverge(u):
    """Five-factor product whose |(1,0)| entry is |u10|^5.

    W = U d(w) U* d(-w^-2) U d(-w^-2) U* d(w) U  with w = e^{i pi/5},
    where U* is the conjugate transpose and -w^-2 = e^{i pi 3/5}.
    """
    return _prepare(u, (Fraction(1, 5), Fraction(3, 5), Fraction(3, 5), Fraction(1, 5)))


def xconverge(u):
    """Five-factor product whose |(0,0)| entry is |u00|^5.

    W = U d(w^-1) U* d(-w^-2) U d(-w^2) U* d(w) U  with w = e^{i pi/5}.
    """
    return _prepare(u, (Fraction(-1, 5), Fraction(3, 5), Fraction(7, 5), Fraction(1, 5)))


def amplify(u):
    """Three-factor product with |(0,0)| entry = |T_3(|u00|)| = |cos(3 arccos |u00|)|.

    W = U d(-1) U* d(-1) U: the two phases are diag(-1, 1) up to sign, and
    the two sign flips cancel exactly."""
    return _prepare(u, (-1, -1))


def converge_pi3(u):
    """Three-factor product whose |(0,0)| entry is |u00|^3.

    W = U d(w^-1) U* d(w) U  with w = e^{i pi/3}.
    """
    return _prepare(u, (Fraction(-1, 3), Fraction(1, 3)))


def general_sequence(u, k):
    """Odd-order interleaved product of 2k+1 U-factors with w = e^{i pi/(2k+1)}.

    The phases are the palindrome c_1..c_k c_k..c_1 with c_j = w^j for odd
    j and -w^-j for even j, so k = 2 is exactly :func:`iconverge`.  The
    entry-suppression law |W10| = |u10|^{2k+1} is proven for k <= 2; the
    ``conjectures`` check of :mod:`fibweave.checks` holds it for k = 1-5
    on random unitaries in doubles and at 256 bits.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # w^j = e^{i pi j/(2k+1)} and -w^-j = e^{i pi (1 - j/(2k+1))}
    half = [Fraction(j, 2 * k + 1) if j % 2 else 1 - Fraction(j, 2 * k + 1) for j in range(1, k + 1)]
    return _prepare(u, half + half[::-1])
