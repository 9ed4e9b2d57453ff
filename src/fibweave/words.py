"""Gate words over the alphabet {F, R^a} and their recursive constructions.

A word is a list of tokens, each ('F',) or ('R', alpha) with a nonzero
integer exponent alpha.  Words multiply left to right: evaluate([t1, t2])
is matrix(t1) @ matrix(t2).

Two recursions matter here.  Writing W* for the reversed, R-inverted word:

    M-step:  W -> W R^-1 W* R^3 W R^-3 W* R^1 W     (entry-suppression)
    N-step:  W -> W R^1  W* R^3 W R^3  W* R^1 W     (off-diagonal growth)

Iterating the M-step j times from the three-token seed F R F drives
|<0|W|0>| to tau^(-5^j); from the five-token seed F R^-1 F R F to
tau^(-2*5^j).  Iterating the N-step from the single token F drives
|<1|W|0>| to tau^(-5^j/2).
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np

from .model import F_NP, R_NP
from .numerics import Mat2, phase_diag
from .numerics import exp_i_pi  # noqa: F401 -- unused, but benchmarks/spans.py patches this name

M_EXPONENTS = (-1, 3, -3, 1)
N_EXPONENTS = (1, 3, 3, 1)

SEED_S = (("F",), ("R", 1), ("F",))
SEED_WEAVE = (("F",), ("R", -1), ("F",), ("R", 1), ("F",))
SEED_N = (("F",),)

#: highest recursion order built; a word grows fivefold per order, to
#: between 0.8 and 2.3 million tokens at order 8
MAX_ORDER = 8


def dagger(word):
    """Reverse the word and invert every R exponent (F is an involution)."""
    return tuple(t if t[0] == "F" else ("R", -t[1]) for t in reversed(word))


def _recursion(seed, j, inserts, inverse, product):
    """j steps of W -> W x1 W* x2 W x3 W* x4 W from the seed, with W* the
    inverse of W, the four inserts x1..x4 and products taken left to right.

    Orders outside [0, MAX_ORDER] are refused: a word fivefold longer
    than order 8 would exhaust memory instead of failing."""
    if not 0 <= j <= MAX_ORDER:
        raise ValueError(f"order j must lie in [0, {MAX_ORDER}], got {j}")
    x1, x2, x3, x4 = inserts
    w = seed
    for _ in range(j):
        wi = inverse(w)
        w = reduce(product, (x1, wi, x2, w, x3, wi, x4, w), w)
    return w


def _r_tokens(exponents):
    return tuple((("R", e),) for e in exponents)


def m_word(j, seed=SEED_WEAVE):
    """j iterations of the M-step from the given seed."""
    return _recursion(tuple(seed), j, _r_tokens(M_EXPONENTS), dagger, add)


def n_word(j):
    """j iterations of the N-step from the single-token seed F."""
    return _recursion(SEED_N, j, _r_tokens(N_EXPONENTS), dagger, add)


def evaluate(word, constants=None):
    """Multiply the word out; numpy doubles by default, Mat2 with constants."""
    if constants is None:
        m = np.eye(2, dtype=complex)
        for t in word:
            m = m @ (F_NP if t[0] == "F" else np.linalg.matrix_power(R_NP, t[1]))
        return m
    bits = constants.precision_bits
    m = Mat2.identity(bits)
    for t in word:
        if t[0] == "F":
            m = m @ constants.F
        else:  # R^alpha = diag(e^{-4 pi i alpha/5}, e^{3 pi i alpha/5})
            m = m @ phase_diag(Fraction(-4 * t[1], 5), Fraction(3 * t[1], 5), bits)
    return m


def word_metrics(word):
    """Token and elementary-exchange counts.

    F tokens are passive relabelings and contribute nothing to
    elementary_braid_count; each R^alpha token contributes |alpha|.
    """
    return {
        "f_count": sum(1 for t in word if t[0] == "F"),
        "r_token_count": sum(1 for t in word if t[0] == "R"),
        "elementary_braid_count": sum(abs(t[1]) for t in word if t[0] == "R"),
    }


# ---------------------------------------------------------------------------
# Direct three-strand braid-generator form of the M-recursion.
#
# The seed word F R F equals the exchange of strands 2 and 3, so the whole
# M-recursion can be carried out in the generator alphabet directly: tokens
# are (strand, power) with strand 1 acting diagonally.
# ---------------------------------------------------------------------------

GENERATOR_SEED = ((2, 1),)


def generator_dagger(word):
    return tuple((s, -a) for s, a in reversed(word))


def generator_word(j, exponents=M_EXPONENTS):
    """M-recursion carried out on three-strand generator tokens."""
    inserts = tuple(((1, e),) for e in exponents)
    return _recursion(GENERATOR_SEED, j, inserts, generator_dagger, add)


def generator_braid_count(word):
    return sum(abs(a) for _, a in word)


# ---------------------------------------------------------------------------
# Strand permutations
# ---------------------------------------------------------------------------

def _perm_mul(p, q):
    """Composition p after q on three points."""
    return tuple(p[q[i]] for i in range(3))


def _perm_inv(p):
    out = [0, 0, 0]
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


SWAP_12 = (1, 0, 2)
SWAP_23 = (0, 2, 1)


def word_permutation(j):
    """Strand permutation of the order-j M-word, computed by the recursion.

    The base word exchanges strands 2 and 3; each recursion step conjugates
    through four (1 2) exchanges.
    """
    return _recursion(SWAP_23, j, (SWAP_12,) * 4, _perm_inv, _perm_mul)
