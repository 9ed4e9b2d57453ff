"""Charges, fusion rules and the standard gauge data for the Fibonacci model.

Charges are 0 (vacuum) and 1 (the single nontrivial particle), with
1 x 1 = 0 + 1.  The braiding and recoupling matrices are fixed in the
usual gauge:

    R = diag(e^{-4 pi i/5}, e^{3 pi i/5})
    F = [[1/tau, 1/sqrt(tau)], [1/sqrt(tau), -1/tau]],  tau = (1+sqrt(5))/2

All constants are computed at a requested precision.  R is the cached
phase matrix of :func:`fibweave.numerics.phase_diag`, which word
evaluation shares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import (
    DEFAULT_PRECISION_BITS,
    BigComplex,
    Mat2,
    big_sqrt,
    exp_i_pi,
    phase_diag,
)

TAU_F = (1.0 + math.sqrt(5.0)) / 2.0

R_NP = np.diag([np.exp(-4j * math.pi / 5), np.exp(3j * math.pi / 5)])
F_NP = np.array(
    [
        [1.0 / TAU_F, 1.0 / math.sqrt(TAU_F)],
        [1.0 / math.sqrt(TAU_F), -1.0 / TAU_F],
    ],
    dtype=complex,
)
S_NP = F_NP @ R_NP @ F_NP


def fuse(a, b):
    """Possible total charges of a x b, as a tuple."""
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError(f"charges must be 0 or 1, got {(a, b)}")
    if a == 0:
        return (b,)
    if b == 0:
        return (a,)
    return (0, 1)


@dataclass(frozen=True)
class FibConstants:
    """Gauge data for one precision.  Build with :func:`make_constants`."""

    precision_bits: int
    tau: BigComplex
    omega: BigComplex  # e^{i pi / 5}
    R: Mat2
    F: Mat2
    S: Mat2

    def self_check(self):
        """Residuals of the defining identities, reported as floats.

        Returns a dict; never raises.  Keys map residual names to
        magnitudes that should all be at the working-precision noise
        floor.
        """
        ident = Mat2.identity(self.precision_bits)
        rten = self.R
        for _ in range(9):
            rten = rten @ self.R
        f_sq = self.F @ self.F
        s00 = self.S.a00 - exp_i_pi(Fraction(4, 5), self.precision_bits) / self.tau
        s10 = abs(self.S.a10) - 1 / big_sqrt(self.tau)
        frf = self.F @ self.R @ self.F @ self.R @ self.F

        def defect(m):
            d = m - ident
            return max(abs(d.entry(i, j)).to_complex().real for i in range(2) for j in range(2))

        return {
            "f_squared_minus_identity": defect(f_sq),
            "r_tenth_minus_identity": defect(rten),
            "r_unitarity": float(abs(BigComplex(self.R.unitarity_defect()))),
            "f_unitarity": float(abs(BigComplex(self.F.unitarity_defect()))),
            "s_unitarity": float(abs(BigComplex(self.S.unitarity_defect()))),
            "s00_value": abs(s00).to_complex().real,
            "s10_magnitude": abs(s10).to_complex().real,
            "frfrf_00_minus_one": abs(frf.a00 - 1).to_complex().real,
        }


def make_constants(precision_bits=DEFAULT_PRECISION_BITS):
    p = precision_bits
    tau = (BigComplex.one(p) + big_sqrt(5, p)) / 2
    omega = exp_i_pi(Fraction(1, 5), p)
    r = phase_diag(Fraction(-4, 5), Fraction(3, 5), p)
    rt = 1 / big_sqrt(tau)
    f = Mat2(1 / tau, rt, rt, -(1 / tau))
    return FibConstants(
        precision_bits=p,
        tau=tau,
        omega=omega,
        R=r,
        F=f,
        S=f @ r @ f,
    )
