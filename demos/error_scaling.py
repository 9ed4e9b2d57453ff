"""Error scaling of the recursion: entry-power laws and exact entry laws.

First part: one step of the convergent sequence turns an off-diagonal
entry of size x into x**5 for any unitary, and the odd-order family of
2k+1 factors into x**(2k+1). Second part: the recursed words hit exact
golden-ratio powers, checked at 256-bit precision.
"""
import numpy as np

from fibweave import evaluate, general_sequence, iconverge, m_word, n_word
from fibweave.model import make_constants
from fibweave.numerics import big_sqrt
from fibweave.words import SEED_S

rng = np.random.default_rng(0)
z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
q, r = np.linalg.qr(z)
u = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
w = iconverge(u)
print("fifth-power law on a random unitary:")
print(f"  |u10|   = {abs(u[1, 0]):.12f}")
print(f"  |w10|   = {abs(w[1, 0]):.12e}")
print(f"  |u10|^5 = {abs(u[1, 0]) ** 5:.12e}")

print("\nodd-order family |W10| = |u10|^(2k+1) on the same unitary (residual):")
for k in range(1, 6):
    w = general_sequence(u, k)
    print(f"  k={k}: {abs(abs(w[1, 0]) - abs(u[1, 0]) ** (2 * k + 1)):.1e}")

consts = make_constants(256)
tau = consts.tau

print("\nentry laws at 256 bits (relative error):")
for j in range(3):
    m = evaluate(m_word(j, SEED_S), consts)
    t = 1 / tau ** 5**j
    rel_m = float(abs(abs(abs(m.a00) - t) / t))
    n = evaluate(n_word(j), consts)
    t = 1 / big_sqrt(tau ** 5**j)
    rel_n = float(abs(abs(abs(n.a10) - t) / t))
    print(f"  j={j}:  |M00| vs tau^-{5**j}: {rel_m:.1e}   "
          f"|N10| vs tau^-{5**j}/2: {rel_n:.1e}")

