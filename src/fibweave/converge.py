"""Interleaved-phase products that drive matrix entries toward 0 or 1.

The workhorse identities: for any single-qubit unitary U and the five-factor
products below built from diag(1, z) phase insertions with z a tenth root of
unity, the magnitude of a chosen entry of the product equals the fifth power
of the corresponding entry of U.  Three-factor variants give cubes.  The
general odd-order family is built by a two-sided recursion.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .numerics import Mat2, phase_diag

UNITARITY_TOL = 1e-10


def _prepare(u):
    """Check that u is a 2x2 unitary and return its adjoint together with
    phase(frac) = diag(1, e^{i pi frac}) in the arithmetic of u."""
    if isinstance(u, Mat2):
        if not u.is_unitary():
            raise ValueError("matrix is not unitary at its carried precision")
        bits = u.precision_bits
        return u.dagger(), lambda frac: phase_diag(0, Fraction(frac), bits)
    u = np.asarray(u)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    if np.abs(u.conj().T @ u - np.eye(2)).max() > UNITARITY_TOL:
        raise ValueError("matrix is not unitary")
    return u.conj().T, lambda frac: np.diag([1.0, np.exp(1j * math.pi * float(frac))])


def iconverge(u):
    """Five-factor product whose |(1,0)| entry is |u10|^5.

    W = U d(w) U* d(-w^-2) U d(-w^-2) U* d(w) U  with w = e^{i pi/5},
    where d(z) = diag(1, z) and U* is the conjugate transpose.
    """
    ud, phase = _prepare(u)
    dw = phase(Fraction(1, 5))
    dm = phase(Fraction(3, 5))  # -w^-2 = e^{i pi 3/5}
    return u @ dw @ ud @ dm @ u @ dm @ ud @ dw @ u


def xconverge(u):
    """Five-factor product whose |(0,0)| entry is |u00|^5.

    W = U d(w^-1) U* d(-w^-2) U d(-w^2) U* d(w) U  with w = e^{i pi/5}.
    """
    ud, phase = _prepare(u)
    return (
        u
        @ phase(Fraction(-1, 5))
        @ ud
        @ phase(Fraction(3, 5))
        @ u
        @ phase(Fraction(7, 5))  # -w^2
        @ ud
        @ phase(Fraction(1, 5))
        @ u
    )


def amplify(u):
    """Three-factor product with |(0,0)| entry = |T_3(|u00|)| = |cos(3 arccos |u00|)|."""
    ud, phase = _prepare(u)
    z = -1 * phase(Fraction(-1))  # diag(-1, 1)
    return u @ z @ ud @ z @ u


def converge_pi3(u):
    """Three-factor product whose |(0,0)| entry is |u00|^3.

    W = U d(w^-1) U* d(w) U  with w = e^{i pi/3}.
    """
    ud, phase = _prepare(u)
    return u @ phase(Fraction(-1, 3)) @ ud @ phase(Fraction(1, 3)) @ u


def general_sequence(u, k):
    """Odd-order interleaved product of 2k+1 U-factors with w = e^{i pi/(2k+1)}.

    Built by the two-sided recursion

        P_0 = Q_0 = I
        P_{j+1} = d(s w^{s(j+1)}) U^s P_j,   Q_{j+1} = Q_j U^s d(s w^{s(j+1)})

    with s = (-1)^j, returning Q_k U^{(-1)^k} P_k.  For k = 2 this is
    exactly :func:`iconverge`.  The entry-suppression law |W10| = |u10|^{2k+1}
    is proven for k <= 2; for larger k it is conjectural and measured by
    :func:`order_estimate` rather than assumed.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ud, phase = _prepare(u)
    den = 2 * k + 1
    p = q = phase(0)
    for j in range(k):
        s = (-1) ** j
        # s * w^{s(j+1)} = e^{i pi (s(j+1)/den + (1-s)/2)}
        frac = Fraction(s * (j + 1), den) + (0 if s == 1 else 1)
        ph = phase(frac)
        uj = u if s == 1 else ud
        p = ph @ uj @ p
        q = q @ uj @ ph
    uk = u if (-1) ** k == 1 else ud
    return q @ uk @ p


def _reflection(theta):
    return np.array(
        [
            [np.cos(theta), np.sin(theta)],
            [np.sin(theta), -np.cos(theta)],
        ],
        dtype=complex,
    )


def order_estimate(k, thetas=None):
    """Fit the suppression order of :func:`general_sequence` empirically.

    Runs the order-k product over a family of reflections with small
    off-diagonal magnitude and fits log|W| against log|u| by least squares,
    separately for the (1,0) and (0,0) entries.  Returns a dict with both
    slopes; a fit over a numerically flat ordinate is reported as degenerate
    (slope None) instead of a garbage number.
    """
    if thetas is None:
        thetas = np.exp(np.linspace(np.log(0.01), np.log(0.1), 12))
    xs_off, ys_off, xs_di, ys_di = [], [], [], []
    for t in thetas:
        u = _reflection(t)
        w = general_sequence(u, k)
        xs_off.append(np.log(abs(u[1, 0])))
        ys_off.append(np.log(abs(w[1, 0])))
        xs_di.append(np.log(abs(u[0, 0])))
        ys_di.append(np.log(abs(w[0, 0])))

    def fit(xs, ys):
        ys = np.asarray(ys)
        if ys.std() < 1e-12 or not np.all(np.isfinite(ys)):
            return {"slope": None, "degenerate": True}
        coef = np.polyfit(xs, ys, 1)
        return {"slope": float(coef[0]), "degenerate": False}

    return {
        "k": k,
        "target_order": 2 * k + 1,
        "offdiagonal": fit(xs_off, ys_off),
        "diagonal": fit(xs_di, ys_di),
    }
