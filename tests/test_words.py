"""Word recursions: exact entry laws, exchange counts, strand permutations."""
from __future__ import annotations

import numpy as np
import pytest

from fibweave import model, numerics, words
from fibweave.model import TAU_F, make_constants


def test_seeds():
    assert words.SEED_S == (("F",), ("R", 1), ("F",))
    assert words.SEED_WEAVE == (("F",), ("R", -1), ("F",), ("R", 1), ("F",))


def test_dagger_involution():
    w = words.m_word(1)
    assert words.dagger(words.dagger(w)) == w
    np.testing.assert_allclose(
        words.evaluate(words.dagger(w)),
        words.evaluate(w).conj().T,
        atol=1e-13,
    )


def test_words_strictly_alternate():
    # every recursion output alternates F and R tokens
    for j in range(4):
        for w in (
            words.m_word(j, words.SEED_S),
            words.m_word(j, words.SEED_WEAVE),
            words.n_word(j),
        ):
            assert all(w[i][0] != w[i + 1][0] for i in range(len(w) - 1))


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        words.m_word(-1)
    with pytest.raises(ValueError):
        words.n_word(-2)
    with pytest.raises(ValueError):
        words.generator_word(-1)


def test_order_above_limit_rejected():
    # order 9 would build millions of tokens before failing for memory
    assert words.MAX_ORDER == 8
    for build in (words.m_word, words.n_word, words.generator_word, words.word_permutation):
        with pytest.raises(ValueError, match=r"order j must lie in \[0, 8\], got 9"):
            build(9)
    assert words.word_permutation(8) == words.SWAP_23  # the limit itself is built


def test_elementary_braid_counts():
    s_counts = [
        words.word_metrics(words.m_word(j, words.SEED_S))["elementary_braid_count"]
        for j in range(4)
    ]
    assert s_counts == [1, 13, 73, 373]
    assert s_counts == [3 * 5**j - 2 for j in range(4)]
    w_counts = [
        words.word_metrics(words.m_word(j, words.SEED_WEAVE))["elementary_braid_count"]
        for j in range(4)
    ]
    assert w_counts == [2, 18, 98, 498]
    n_counts = [
        words.word_metrics(words.n_word(j))["elementary_braid_count"]
        for j in range(4)
    ]
    assert n_counts == [0, 8, 48, 248]


def test_f_counts():
    # the five-token seed keeps its F count divisible by three at every
    # order; the single-token seed never reaches a multiple of three
    for j in range(4):
        assert words.word_metrics(words.m_word(j, words.SEED_WEAVE))["f_count"] == 3 * 5**j
        assert words.word_metrics(words.n_word(j))["f_count"] == 5**j


def test_entry_laws_double_precision():
    for j in (0, 1, 2):
        m = words.evaluate(words.m_word(j, words.SEED_S))
        assert abs(abs(m[0, 0]) - TAU_F ** -(5**j)) < 1e-13
        m = words.evaluate(words.m_word(j, words.SEED_WEAVE))
        assert abs(abs(m[0, 0]) - TAU_F ** -(2 * 5**j)) < 1e-13
        n = words.evaluate(words.n_word(j))
        assert abs(abs(n[1, 0]) ** 2 - TAU_F ** -(5**j)) < 1e-13


def test_evaluate_big_matches_double():
    consts = make_constants(192)
    for w in (words.m_word(1, words.SEED_S), words.n_word(1)):
        big = words.evaluate(w, consts).to_numpy()
        np.testing.assert_allclose(big, words.evaluate(w), atol=1e-12)


def test_repeat_evaluation_reuses_phase_matrices(monkeypatch):
    # R powers are built once per precision: a second evaluation at the
    # same precision computes no phase and gives the same bits
    consts = make_constants(320)
    w = words.m_word(2)
    first = words.evaluate(w, consts)
    calls = []
    real = numerics.exp_i_pi

    def counting(*args):
        calls.append(args)
        return real(*args)

    for owner in (numerics, words, model):
        monkeypatch.setattr(owner, "exp_i_pi", counting)
    second = words.evaluate(w, consts)
    assert calls == []
    bits = lambda m: [(z.re, z.im, z.precision_bits) for z in (m.a00, m.a01, m.a10, m.a11)]
    assert bits(second) == bits(first)


def test_evaluated_words_unitary():
    w = words.evaluate(words.m_word(2, words.SEED_WEAVE))
    np.testing.assert_allclose(w.conj().T @ w, np.eye(2), atol=1e-12)


def test_generator_form_counts_match_word_form():
    for j in range(4):
        gw = words.generator_word(j)
        assert words.generator_braid_count(gw) == 3 * 5**j - 2
    assert words.generator_word(0) == ((2, 1),)


def test_generator_dagger_involution():
    gw = words.generator_word(2)
    assert words.generator_dagger(words.generator_dagger(gw)) == gw


def _perm_from_generators(j):
    p = (0, 1, 2)
    swaps = {1: (1, 0, 2), 2: (0, 2, 1)}
    for s, a in words.generator_word(j):
        if a % 2:
            sw = swaps[s]
            p = tuple(sw[p[i]] for i in range(3))
    return p


def test_word_permutation_alternates():
    for j in range(9):
        expect = (0, 2, 1) if j % 2 == 0 else (2, 1, 0)
        assert words.word_permutation(j) == expect


def test_word_permutation_matches_generator_expansion():
    # independent route: walk the generator word and compose transpositions
    for j in range(4):
        assert words.word_permutation(j) == _perm_from_generators(j)


def test_word_metrics_shape():
    m = words.word_metrics(words.SEED_WEAVE)
    assert m == {"f_count": 3, "r_token_count": 2, "elementary_braid_count": 2}
