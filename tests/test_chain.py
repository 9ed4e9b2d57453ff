"""Path-basis simulator: braid relations, transparency, merging."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from fibweave import weave, words
from fibweave.chain import STANDARD_GAUGE, Chain, WindowMap, is_admissible, paths_for, root
from fibweave.checks import _gap, _random_state
from fibweave.model import F_NP, R_NP, TAU_F, fuse


def _close(a, b, tol=1e-12):
    return _gap(a, b) < tol


def test_paths_for_small():
    assert paths_for([1]) == [(0, 1)]
    assert paths_for([1, 1]) == [(0, 1, 0), (0, 1, 1)]
    assert paths_for([0, 1]) == [(0, 0, 1)]
    with pytest.raises(ValueError):
        paths_for([2])


def test_vacuum_dimensions_are_fibonacci():
    dims = [
        len([p for p in paths_for([1] * n) if p[-1] == 0]) for n in range(2, 9)
    ]
    assert dims == [1, 1, 2, 3, 5, 8, 13]


def test_admissibility():
    assert is_admissible((1, 1), (0, 1, 0))
    assert not is_admissible((1, 1), (0, 1))        # wrong length
    assert not is_admissible((1, 1), (1, 1, 0))     # must start at vacuum
    assert not is_admissible((0, 1), (0, 1, 1))     # 0 cannot raise the label
    with pytest.raises(ValueError):
        Chain.from_path((1, 1), (0, 0, 0))
    with pytest.raises(ValueError):  # a path too short to be stored
        Chain({((1, 1), (0, 1)): 1.0})
    with pytest.raises(ValueError):  # a label that is not one bit
        Chain({((1, 1), (0, 2, 0)): 1.0})
    assert ((1, 1), (0, 2, 0)) not in Chain.init_pairs([1]).amps


def test_init_pairs_definite_path():
    st = Chain.init_pairs([1, 0, 1])
    assert st.amps == {((1, 1, 0, 0, 1, 1), (0, 1, 0, 0, 0, 1, 0)): 1.0 + 0j}
    assert st.objects() == 6
    assert st.norm() == pytest.approx(1.0)


def test_root_of_descriptors():
    assert root(1) == 1
    assert root((0, (1, 1))) == 0
    assert root((1, ((1, (1, 1)), 1))) == 1


def test_yang_baxter_and_far_commutation():
    rng = np.random.default_rng(42)
    for _ in range(8):
        n = int(rng.integers(4, 9))
        charges = [int(rng.integers(0, 2)) for _ in range(n)]
        st = _random_state(rng, charges)
        i = int(rng.integers(1, n - 1))
        a = st.braid_adjacent(i).braid_adjacent(i + 1).braid_adjacent(i)
        b = st.braid_adjacent(i + 1).braid_adjacent(i).braid_adjacent(i + 1)
        assert _close(a, b)
        if n >= 5:
            k = i + 2 if i + 3 <= n else i - 2
            if 1 <= k <= n - 1:
                a = st.braid_adjacent(i).braid_adjacent(k)
                b = st.braid_adjacent(k).braid_adjacent(i)
                assert _close(a, b)


def test_braid_inverse_and_unitarity():
    rng = np.random.default_rng(7)
    st = _random_state(rng, [1, 1, 1, 1, 1])
    for i in (1, 2, 3, 4):
        assert st.braid_adjacent(i).norm() == pytest.approx(1.0, abs=1e-12)
        rt = st.braid_adjacent(i, ccw=True).braid_adjacent(i, ccw=False)
        assert abs(rt.overlap(st) - 1) < 1e-12


def test_middle_exchange_is_recoupled_block():
    st = Chain.init_pairs([1, 1]).braid_adjacent(2)
    amps = {p: a for (_c, p), a in st.amps.items()}
    s = F_NP @ R_NP @ F_NP
    assert amps[(0, 1, 0, 1, 0)] == pytest.approx(s[0, 0], abs=1e-14)
    assert amps[(0, 1, 1, 1, 0)] == pytest.approx(s[1, 0], abs=1e-14)


def _reference_braid(amps, i, ccw):
    """The exchange kernel as first written: F R F from two matrix products
    on every call, numpy scalar phases, labels rebuilt through a list."""
    out = {}
    sb = F_NP @ (R_NP if ccw else np.conj(R_NP)) @ F_NP
    r00 = R_NP[0, 0] if ccw else np.conj(R_NP[0, 0])
    r11 = R_NP[1, 1] if ccw else np.conj(R_NP[1, 1])
    for (ch, p), a in amps.items():
        di, dj = ch[i - 1], ch[i]
        ci, cj = root(di), root(dj)
        nch = ch[:i - 1] + (dj, di) + ch[i + 1:]
        if ci == 0 or cj == 0:
            l = list(p)
            l[i] = p[i + 1] if ci == 0 else p[i - 1]
            k = (nch, tuple(l))
            out[k] = out.get(k, 0) + a
        else:
            amb = (p[i - 1], p[i + 1])
            if amb == (0, 0):
                k = (nch, p)
                out[k] = out.get(k, 0) + a * r00
            elif amb in ((0, 1), (1, 0)):
                k = (nch, p)
                out[k] = out.get(k, 0) + a * r11
            else:
                for mid in (0, 1):
                    l = list(p)
                    l[i] = mid
                    k = (nch, tuple(l))
                    out[k] = out.get(k, 0) + sb[mid, p[i]] * a
    return out


def _reference_merge(amps, i):
    """The merge kernel on a flat {(descriptors, path): amplitude} dict, as
    first written."""
    f = STANDARD_GAUGE.f
    out = {}
    for (ch, p), a in amps.items():
        da, db = ch[i - 1], ch[i]
        aa, bb = root(da), root(db)
        x, lpre, lpost = p[i], p[i - 1], p[i + 1]
        np_ = p[:i] + p[i + 1:]
        if aa == bb == lpre == lpost == 1:
            gw = [(g, f[g][x]) for g in (0, 1)]
        else:  # the composite charge is fixed by the fusion rules
            gw = [(g, 1.0) for g in fuse(aa, bb) if lpost in fuse(lpre, g)]
        for g, w in gw:
            k = (ch[:i - 1] + ((g, (da, db)),) + ch[i + 1:], np_)
            out[k] = out.get(k, 0) + w * a
    return out


def _reference_window(amps, i, window):
    """The window kernel on a flat dict, as first written."""
    out = {}
    for (ch, p), a in amps.items():
        roots = (root(ch[i - 1]), root(ch[i]), root(ch[i + 1]))
        rows = window.block(STANDARD_GAUGE, roots, p[i - 1], p[i + 2])[p[i], p[i + 1]]
        head, tail = p[:i], p[i + 2:]
        for x, y, c in rows:
            k = (ch, head + (x, y) + tail)
            out[k] = out.get(k, 0) + c * a
    return out


def _eighteen_anyons():
    """Nine charge-1 pairs (18 anyons, 19 path labels) spread over many
    paths by one layer of exchanges."""
    st = Chain.init_pairs([1] * 9)
    return st.apply_exchanges([(k, True) for k in range(2, 18, 2)] + [(k, False) for k in range(3, 18, 2)])


def _kernel_states():
    """Bare random states, a state mixing bare charges with nested
    composites, a state holding several descriptor tuples at once and the
    18-anyon state, each with numpy amplitudes and with Python complex
    amplitudes in a shuffled key order."""
    rng = np.random.default_rng(17)
    states = [
        _random_state(rng, [int(c) for c in rng.integers(0, 2, size=n)]) for n in range(2, 9)
    ]
    states.append(_random_state(rng, [1] * 8))
    mixed = _random_state(rng, [1, 0, 1, 1, 1, 0, 1, 1]).braid_adjacent(4).braid_adjacent(3)
    mixed = mixed.merge(3).merge(2).merge(5)  # nested composites of root 0 and 1
    states.append(mixed)
    states.append(Chain({
        **_random_state(rng, [1, 0, 1, 1, 1]).amps,
        **_random_state(rng, [1, 1, 1, 0, 1]).amps,
        **_random_state(rng, [1, 1, 0, 1, 1]).amps,
    }))
    states.append(_eighteen_anyons())
    assert len({ch for ch, _p in mixed.amps}) >= 2
    assert {root(d) for ch, _p in mixed.amps for d in ch if not isinstance(d, int)} == {0, 1}
    out = []
    for st in states:
        keys = list(st.amps)
        shuffled = [keys[k] for k in rng.permutation(len(keys))]  # groups interleaved
        out.append((st.objects(), dict(st.amps)))
        out.append((st.objects(), {k: complex(st.amps[k]) for k in shuffled}))
    return out


def test_braid_kernel_matches_reference_kernel():
    # exact equality of keys and amplitudes with the reference kernel
    for n, amps in _kernel_states():
        for i in range(1, n):
            for ccw in (True, False):
                got = Chain(amps).braid_adjacent(i, ccw).amps
                assert got == _reference_braid(amps, i, ccw)


def test_merge_and_window_kernels_match_reference_kernels():
    add = weave.compile_weave(words.m_word(1, words.SEED_WEAVE), ("Pair", "D"))
    windows = [WindowMap(weave.gadget_exchanges(add, 1)), WindowMap([(1, True), (2, False)] * 3)]
    for n, amps in _kernel_states():
        st = Chain(amps)
        for i in range(1, n):
            assert st.merge(i).amps == _reference_merge(amps, i)
        for i in range(1, n - 1):
            for window in windows:
                assert st.apply_window(i, window).amps == _reference_window(amps, i, window)


def _paths_by_group(amps):
    """{descriptors: [path, ...]} in the mapping's key order."""
    groups = {}
    for ch, p in amps:
        groups.setdefault(ch, []).append(p)
    return groups


def test_exchange_sequences_match_folded_reference_kernel():
    # a run of exchanges equals the reference kernel folded over it: equal
    # keys, exactly equal amplitudes and, within each descriptor group, the
    # same key order, on which the bit-identical sums downstream rest
    rng = np.random.default_rng(29)
    for n, amps in _kernel_states():
        for _ in range(3):
            seq = [(int(i), bool(c)) for i, c in zip(rng.integers(1, n, 12), rng.integers(0, 2, 12))]
            want = amps
            for i, ccw in seq:
                want = _reference_braid(want, i, ccw)
            got = Chain(amps).apply_exchanges(seq).amps
            assert got.keys() == want.keys()
            assert all(got[k] == a for k, a in want.items())
            assert _paths_by_group(got) == _paths_by_group(want)


def test_eighteen_anyon_state_round_trips():
    st = _eighteen_anyons()
    count = sum(1 for _ in st.amps.items())
    assert count > 100 and len({ch for ch, _p in st.amps}) == 1
    assert len(st.amps) == count
    assert all(len(p) == 19 for _ch, p in st.amps)
    assert Chain(st.amps).amps == st.amps
    assert dict(Chain(dict(st.amps)).amps) == dict(st.amps)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)


def test_sums_do_not_depend_on_key_order():
    # one state over three descriptor tuples, stored in two key orders:
    # the norm, masses and cut shares are exactly rounded sums, so they
    # agree to the last bit (plain left-to-right sums differ here)
    rng = np.random.default_rng(3)
    amps = {}
    for charges in ([1, 1, 1, 1, 1, 1], [1, 0, 1, 1, 1, 1], [1, 1, 1, 1, 0, 1]):
        amps.update(_random_state(rng, charges).amps)
    states = [Chain(amps), Chain(dict(reversed(list(amps.items()))))]
    figures = [
        [st.norm(), *st.split_mass(lambda ch, _p: ch[1] == 1)]
        + [x for k in range(7) for x in st.cut_distribution(k)]
        for st in states
    ]
    assert [float.hex(float(x)) for x in figures[0]] == [float.hex(float(x)) for x in figures[1]]


def test_trivial_charge_transparency_exact():
    # exchanges with a charge-0 object are pure relabelings: the values are
    # carried over bitwise, so a round trip reproduces the dict exactly
    rng = np.random.default_rng(2)
    st = _random_state(rng, [1, 0, 0, 1])
    moved = st.braid_adjacent(3, True).braid_adjacent(2, True)
    back = moved.braid_adjacent(2, False).braid_adjacent(3, False)
    assert back.amps == st.amps
    bykey = lambda z: (z.real, z.imag)
    assert sorted(moved.amps.values(), key=bykey) == sorted(
        st.amps.values(), key=bykey
    )


def test_vacuum_channel_pair_transparency():
    # a charge-1 pair prepared in its vacuum channel is transparent to a
    # transit: the relocated state comes out with amplitude +1, no residue
    # in the other channel
    amps = {}
    for x in (0, 1):
        amps[((1, 1, 1, 1), (0, 1, x, 1, 0))] = F_NP[x, 0]
    st = Chain(amps)
    moved = st.braid_adjacent(3, True).braid_adjacent(2, True)
    out = {p: a for (_c, p), a in moved.amps.items()}
    assert out[(0, 1, 0, 1, 0)] == pytest.approx(1.0, abs=1e-14)
    assert abs(out.get((0, 1, 1, 1, 0), 0)) < 1e-14
    # the relocated pair still fuses to vacuum with certainty
    merged = moved.merge(3)
    from fibweave.chain import root as _root

    p_vac = sum(
        abs(a) ** 2 for (ch, _p), a in merged.amps.items() if _root(ch[2]) == 0
    )
    assert p_vac == pytest.approx(1.0, abs=1e-13)


def test_single_trivial_exchange_has_unit_coefficient():
    st = Chain.from_path((1, 0), (0, 1, 1))
    out = st.braid_adjacent(1)
    assert out.amps == {((0, 1), (0, 0, 1)): 1.0 + 0j}


def test_merge_definite_channel():
    st = Chain.init_pairs([1, 1]).merge(1)
    assert st.amps == {(((0, (1, 1)), 1, 1), (0, 0, 1, 0)): 1.0 + 0j}


def test_merge_preserves_norm_with_recoupling():
    rng = np.random.default_rng(9)
    st = _random_state(rng, [1] * 6)
    st = st.braid_adjacent(3).braid_adjacent(2)  # entangle across the row
    for _ in range(3):
        st = st.merge(2)
        assert st.norm() == pytest.approx(1.0, abs=1e-12)
    assert st.objects() == 3


def test_merge_keeps_formation_histories_orthogonal():
    rng = np.random.default_rng(21)
    st = _random_state(rng, [1] * 4).braid_adjacent(2)
    merged = st.merge(1).merge(1).merge(1)
    assert merged.objects() == 1
    assert merged.norm() == pytest.approx(1.0, abs=1e-12)
    # the surviving keys disagree only in their internal records
    descs = {ch[0] for (ch, _p) in merged.amps}
    assert all(root(d) in (0, 1) for d in descs)


def test_cut_distribution():
    st = Chain.init_pairs([1, 1]).braid_adjacent(2)
    p0, p1 = st.cut_distribution(2)
    assert p0 + p1 == pytest.approx(1.0)
    assert p1 == pytest.approx(abs((F_NP @ R_NP @ F_NP)[1, 0]) ** 2, abs=1e-13)


def flipped_loop_exchanges(program, left):
    """The program expanded move by move, with the exchanges of every loop
    move taken in the opposite handedness: the rejected cut of a loop."""
    return [
        (pos, ccw != (move.kind[0] == "L"))
        for move in program.all_moves()
        for pos, ccw in weave.gadget_exchanges([move], left)
    ]


def test_only_same_handed_loop_cut_distills():
    # the order-1 add gadget from (Pair, D) on two nontrivial pairs
    program = weave.compile_weave(words.m_word(1, words.SEED_WEAVE), ("Pair", "D"))
    init = Chain.init_pairs([1, 1])
    p1 = init.apply_exchanges(weave.gadget_exchanges(program, 2)).cut_distribution(2)[1]
    assert abs(p1 - (1 - TAU_F**-20)) < 1e-12
    flipped = init.apply_exchanges(flipped_loop_exchanges(program, 2)).cut_distribution(2)[1]
    assert flipped < 1e-6


def test_cut_distribution_lies_in_unit_interval():
    # the order-3 M-gadgets of both seeds from all six starts, both cuts of
    # the loops and all four pair assignments, cut after every object: 480
    # cases whose norm drifts above 1 by up to 3.6e-15
    for seed in (words.SEED_S, words.SEED_WEAVE):
        word = words.m_word(3, seed)
        for start in weave.STATES:
            program = weave.compile_weave(word, start)
            for exchanges in (
                weave.gadget_exchanges(program, 2),
                flipped_loop_exchanges(program, 2),
            ):
                for charges in itertools.product((0, 1), repeat=2):
                    st = Chain.init_pairs(charges).apply_exchanges(exchanges)
                    for k in range(5):
                        assert all(0 <= p <= 1 for p in st.cut_distribution(k)), (start, k)


def test_prune_drops_negligible_terms():
    st = Chain({((1, 1), (0, 1, 0)): 1.0, ((1, 1), (0, 1, 1)): 1e-320})
    st.prune()
    assert list(st.amps) == [((1, 1), (0, 1, 0))]
