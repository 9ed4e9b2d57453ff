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
|<1|W|0>| to tau^(-5^j/2).  Both steps are the convergent-search product
of :func:`fibweave.converge.interleave` with R-power inserts, run on tokens,
generator tokens, strand permutations and matrices alike.  m_word and n_word
return a Word, which evaluate multiplies by its recursion: 8 matrix products
per order, not one per token.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add, matmul

import numpy as np

from .converge import interleave
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


def check_order(j):
    """Refuse a recursion order outside [0, MAX_ORDER]: a word fivefold
    longer than order 8 would exhaust memory instead of failing."""
    if not 0 <= j <= MAX_ORDER:
        raise ValueError(f"order j must lie in [0, {MAX_ORDER}], got {j}")


def _recursion(seed, j, inserts, inverse, product):
    """j steps of W -> W x1 W* x2 W x3 W* x4 W from the seed, with W* the
    inverse of W: the convergent-search step, :func:`converge.interleave`."""
    check_order(j)
    w = seed
    for _ in range(j):
        w = interleave(w, inverse(w), inserts, product)
    return w


class Word(tuple):
    """Tokens of a recursion word with recipe = (seed, exponents, j); it compares
    and hashes as its tokens, and slices, sums and dagger() give plain tuples."""

    def __new__(cls, seed, exponents, j):
        inserts = tuple((("R", e),) for e in exponents)
        word = super().__new__(cls, _recursion(seed, j, inserts, dagger, add))
        word.recipe = (seed, exponents, j)
        return word

    def __reduce__(self):  # copies and pickles rebuild the word from its recipe
        return Word, self.recipe


def m_word(j, seed=SEED_WEAVE):
    """j iterations of the M-step from the given seed."""
    return Word(tuple(seed), M_EXPONENTS, j)


def n_word(j):
    """j iterations of the N-step from the single-token seed F."""
    return Word(SEED_N, N_EXPONENTS, j)


def _r_matrix(alpha, constants):
    """R^alpha = diag(e^{-4 pi i alpha/5}, e^{3 pi i alpha/5})."""
    if constants is None:
        return np.linalg.matrix_power(R_NP, alpha)
    return phase_diag(Fraction(-4 * alpha, 5), Fraction(3 * alpha, 5), constants.precision_bits)


def _flat(word, constants):
    """The token-by-token product: plain words, and the recursion's oracle."""
    if constants is None:
        m, f = np.eye(2, dtype=complex), F_NP
    else:
        m, f = Mat2.identity(constants.precision_bits), constants.F
    for t in word:
        m = m @ (f if t[0] == "F" else _r_matrix(t[1], constants))
    return m


def evaluate(word, constants=None):
    """The word's matrix; numpy doubles by default, Mat2 with constants.
    A Word runs its recursion on matrices from the seed's product, with
    W* = W^dagger (W is unitary); any other word is multiplied token by token."""
    if not isinstance(word, Word):
        return _flat(word, constants)
    seed, exponents, j = word.recipe
    inserts = [_r_matrix(e, constants) for e in exponents]
    adjoint = (lambda m: m.conj().T) if constants is None else Mat2.dagger
    return _recursion(_flat(seed, constants), j, inserts, adjoint, matmul)


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
