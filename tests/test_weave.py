"""The six-state weave machine: compilation, move semantics, text format,
and expansion to adjacent exchanges."""
from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibweave import cli, weave, words
from fibweave.checks import _random_state
from fibweave.model import R_NP
from fibweave.weave import (
    EXCHANGE_STATES,
    LOOP_STATES,
    PHASE_EXPONENT,
    R_PARTNER,
    STATES,
    Move,
    compile_weave,
    f_toggle,
    gadget_exchanges,
    invert_moves,
    invert_program,
    move_matrix,
    program_from_text,
    program_to_text,
    weave_semantics,
)


def test_state_tables():
    assert set(STATES) == EXCHANGE_STATES | LOOP_STATES
    assert not (EXCHANGE_STATES & LOOP_STATES)
    for s in STATES:
        assert R_PARTNER[R_PARTNER[s]] == s
        assert f_toggle(f_toggle(s)) == s
    # partners stay within their class
    for s in EXCHANGE_STATES:
        assert R_PARTNER[s] in EXCHANGE_STATES
    for s in LOOP_STATES:
        assert R_PARTNER[s] in LOOP_STATES


def test_move_matrices():
    np.testing.assert_allclose(move_matrix("X+"), R_NP, atol=1e-15)
    np.testing.assert_allclose(move_matrix("X-"), R_NP.conj(), atol=1e-15)
    for kind in ("L+", "L-"):
        m = move_matrix(kind)
        assert m[0, 0] == 1
    assert PHASE_EXPONENT == {"X+": 0, "X-": 0, "L-": 4, "L+": -4}
    with pytest.raises(ValueError):
        move_matrix("Z")


def test_compile_shortest_addition_gadget():
    prog = compile_weave(words.m_word(0, words.SEED_WEAVE), ("Nested", "D"))
    assert [m.kind for m in prog.moves] == ["X+", "X-"]
    assert [m.pre for m in prog.moves] == [("Pair", "D"), ("Nested", "C")]
    assert [m.kind for m in prog.closing] == ["L-"]
    assert prog.closing[0].pre == ("Pair", "B")
    assert prog.end_state == ("Nested", "D")
    assert prog.move_count == 3


def test_compile_closes_from_every_start():
    for j in (0, 1, 2):
        w = words.m_word(j, words.SEED_WEAVE)
        for s in STATES:
            prog = compile_weave(w, s)
            assert prog.end_state == s
            assert len(prog.closing) == 1


def test_compile_closing_kind_depends_on_state():
    prog = compile_weave(words.m_word(1, words.SEED_WEAVE), ("Pair", "D"))
    assert [m.kind for m in prog.closing] == ["X+"]


def test_no_closing_when_f_count_not_divisible():
    # the single-R seed has F count 2: no closing move is appended and the
    # program ends away from its start
    prog = compile_weave(words.m_word(1, words.SEED_S), ("Pair", "D"))
    assert prog.closing == ()
    assert prog.end_state == ("Nested", "D")
    for j in (0, 1, 2):
        prog = compile_weave(words.n_word(j), ("Pair", "D"))
        assert prog.closing == ()
        assert prog.end_state == (("Nested", "D") if j % 2 == 0 else ("Nested", "B"))


def test_rejects_bad_start():
    with pytest.raises(ValueError):
        compile_weave(words.SEED_WEAVE, ("Pair", "E"))


def test_unclosable_word_is_value_error():
    # three F tokens end the walk on the basis partner of the start, which
    # no single closing move reaches
    for s in STATES:
        with pytest.raises(ValueError, match="cannot reach"):
            compile_weave((("F",),) * 3, s)


def test_semantics_exact_phase_tracking():
    cases = [
        (words.m_word(0, words.SEED_WEAVE), ("Nested", "D"), 0, ("Pair", "B")),
        (words.m_word(1, words.SEED_WEAVE), ("Nested", "D"), 0, ("Pair", "B")),
        (words.m_word(1, words.SEED_S), ("Pair", "D"), -12, ("Nested", "D")),
        (words.n_word(1), ("Pair", "D"), 8, ("Nested", "B")),
        (words.n_word(2), ("Pair", "D"), 24, ("Nested", "D")),
    ]
    for word, start, pe_expected, end_expected in cases:
        m, pe, end = weave_semantics(word, start)
        assert pe == pe_expected
        assert end == end_expected
        gap = np.abs(np.exp(-1j * np.pi / 5 * pe) * m - words.evaluate(word)).max()
        assert gap < 1e-12


token = st.one_of(
    st.just(("F",)),
    st.builds(lambda a: ("R", a), st.integers(-3, 3).filter(bool)),
)


RECURSION_WORDS = {
    "S": lambda j: words.m_word(j, words.SEED_S),
    "W": lambda j: words.m_word(j, words.SEED_WEAVE),
    "N": words.n_word,
}


def oracle_compile(word, start):
    """The per-token walk restated: a fresh Move per unit R power with its
    kind picked inline, and the closing move "X+ on an exchange state, else
    L-".  Returns (moves, closing, end state), or None where compile_weave
    must refuse the word."""
    s, moves, f_count = start, [], 0
    for t in reversed(tuple(word)):
        if t[0] == "F":
            s = f_toggle(s)
            f_count += 1
            continue
        unit = 1 if t[1] > 0 else -1
        for _ in range(abs(t[1])):
            if s in EXCHANGE_STATES:
                kind = "X+" if unit > 0 else "X-"
            else:
                kind = "L-" if unit > 0 else "L+"
            moves.append(Move(kind, s, R_PARTNER[s]))
            s = R_PARTNER[s]
    closing = []
    if f_count % 3 == 0 and s != start:
        if R_PARTNER[s] != start:
            return None
        closing.append(Move("X+" if s in EXCHANGE_STATES else "L-", s, start))
        s = start
    return tuple(moves), tuple(closing), s


def assert_compiles_as_oracle(word, start):
    want = oracle_compile(word, start)
    if want is None:
        with pytest.raises(ValueError, match="cannot reach"):
            compile_weave(word, start)
        return
    prog = compile_weave(word, start)
    assert (prog.moves, prog.closing, prog.end_state) == want
    assert prog.start == start


@pytest.mark.parametrize("name", sorted(RECURSION_WORDS))
@pytest.mark.parametrize("j", range(5))
def test_compile_matches_per_token_oracle(name, j):
    word = RECURSION_WORDS[name](j)
    for start in STATES:
        assert_compiles_as_oracle(word, start)


@given(st.lists(token, max_size=30), st.sampled_from(STATES))
@settings(max_examples=80, deadline=None)
def test_compile_matches_oracle_for_arbitrary_words(word, start):
    assert_compiles_as_oracle(tuple(word), start)


def test_move_table_holds_the_twelve_shared_moves():
    assert len(weave.MOVE_TABLE) == 12
    assert len({move for move, _ in weave.MOVE_TABLE.values()}) == 12
    for (state, _), (move, post) in weave.MOVE_TABLE.items():
        assert move.pre == state and move.post == post == R_PARTNER[state]
    kinds = sorted(move.kind for move, _ in weave.MOVE_TABLE.values())
    assert kinds == ["L+"] * 2 + ["L-"] * 2 + ["X+"] * 4 + ["X-"] * 4
    # a compiled program reuses the table's instances, which sharing makes
    # safe only because a Move cannot be changed in place
    prog = compile_weave(words.m_word(2, words.SEED_WEAVE), ("Nested", "D"))
    table_moves = [move for move, _ in weave.MOVE_TABLE.values()]
    assert all(any(m is t for t in table_moves) for m in prog.all_moves())
    with pytest.raises(FrozenInstanceError):
        prog.moves[0].kind = "X-"
    with pytest.raises(FrozenInstanceError):
        prog.closing[0].pre = ("Pair", "B")


@given(st.lists(token, max_size=30), st.sampled_from(STATES))
@settings(max_examples=80, deadline=None)
def test_semantics_identity_for_arbitrary_words(word, start):
    word = tuple(word)
    m, pe, end = weave_semantics(word, start)
    gap = np.abs(np.exp(-1j * np.pi / 5 * pe) * m - words.evaluate(word)).max()
    assert gap < 1e-10
    assert end in STATES


def test_text_roundtrip_annotated():
    prog = compile_weave(words.m_word(1, words.SEED_WEAVE), ("Nested", "D"))
    text = program_to_text(prog)
    back = program_from_text(text)
    assert back == prog
    assert "#!" in text and "#@" in text
    assert text.startswith("start=Nested,D\n")
    assert text.rstrip().endswith("end=Nested,D")


def unannotated(text):
    """The text format with its `#@` state annotations stripped."""
    return "".join(line for line in text.splitlines(True) if not line.startswith("#@"))


def run_chain_run(text):
    """`fibweave chain-run` on text from stdin: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.setattr("sys.stdin", io.StringIO(text))
        code = cli.main(["chain-run"])
    return code, err.getvalue()


ORDER0_ADD = (words.m_word(0, words.SEED_WEAVE), ("Nested", "D"))
LONE_LOOP = ((("R", 1),), ("Pair", "B"))  # one L- move: its pre-state is forced by start=


@pytest.mark.parametrize(
    "word, start, strip",
    [(*ORDER0_ADD, "annotations"), (*LONE_LOOP, "annotations"), (*ORDER0_ADD, "start")],
    ids=["annotations", "lone-loop", "start"],
)
def test_text_without_annotations_or_start_is_refused(word, start, strip):
    text = program_to_text(compile_weave(word, start))
    if strip == "annotations":
        text, cause = unannotated(text), "no #@ pre-state line"
    else:
        text, cause = text.replace("start=%s,%s\n" % start, ""), "no start= line"
    with pytest.raises(ValueError, match=cause):
        program_from_text(text)
    code, err = run_chain_run(text)
    assert code == 2
    assert cause in err and "Traceback" not in err and err.count("\n") == 1


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        program_from_text("start=Nested,D\nX+\nWOBBLE\n")
    with pytest.raises(ValueError):
        program_from_text("start=Nested,Q\nX+\n")


@st.composite
def alternating_word(draw):
    """Alternating F / R^a words of 1-50 tokens, as checks._random_words
    draws them."""
    length = draw(st.integers(1, 50))
    first_f = draw(st.booleans())
    return tuple(
        ("F",) if (i % 2 == 0) == first_f else ("R", draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
        for i in range(length)
    )


@given(alternating_word(), st.sampled_from(STATES), st.data())
@settings(max_examples=100, deadline=None)
def test_text_format_round_trips(word, start, data):
    try:
        prog = compile_weave(word, start)
    except ValueError:  # a closing the machine cannot make in one move
        assume(False)
    table_moves = [move for move, _ in weave.MOVE_TABLE.values()]
    is_table_move = lambda m: any(m is t for t in table_moves)
    text = program_to_text(prog)
    back = program_from_text(text)
    assert back == prog
    assert all(map(is_table_move, back.all_moves()))
    assert all(map(is_table_move, invert_moves(prog)))
    # without annotations every move is refused
    if prog.move_count:
        with pytest.raises(ValueError, match="no #@ pre-state line"):
            program_from_text(unannotated(text))
    # one garbage line: usage error, one stderr line, no traceback
    lines = text.splitlines(True)
    lines.insert(data.draw(st.integers(0, len(lines))), "WOBBLE\n")
    code, err = run_chain_run("".join(lines))
    assert code == 2
    assert "Traceback" not in err and err.count("\n") == 1


@given(alternating_word(), st.sampled_from(STATES), st.data())
@settings(max_examples=100, deadline=None)
def test_text_with_one_state_replaced_chains_or_refuses(word, start, data):
    try:
        prog = compile_weave(word, start)
    except ValueError:
        assume(False)
    assume(prog.move_count)
    lines = program_to_text(prog).splitlines(True)
    i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("#@")]))
    state = data.draw(st.sampled_from(STATES))
    lines[i] = f"#@ {state[0]},{state[1]}\n"
    try:
        back = program_from_text("".join(lines))
    except ValueError:
        return
    table_moves = [move for move, _ in weave.MOVE_TABLE.values()]
    last = back.start
    for move in back.all_moves():
        assert any(move is t for t in table_moves)
        assert move.pre in (last, f_toggle(last))
        last = move.post
    assert back.end_state in (last, f_toggle(last))


def test_gadget_exchange_positions():
    x = Move("X+", ("Pair", "C"), ("Pair", "D"))
    assert gadget_exchanges([x], 2) == [(3, True)]
    lm = Move("L-", ("Pair", "B"), ("Nested", "D"))
    assert gadget_exchanges([lm], 2) == [(2, False), (3, False)]
    lp = Move("L+", ("Nested", "D"), ("Pair", "B"))
    assert gadget_exchanges([lp], 2) == [(3, True), (2, True)]


def test_gadget_exchanges_group_sizes():
    x = Move("X+", ("Pair", "C"), ("Pair", "D"))
    # slot C sits after a size-2 first group; slot D is 3 further right
    assert gadget_exchanges([x], 1, group1_size=2, group2_size=3) == [
        (3, True),
        (4, True),
        (5, True),
    ]


def test_gadget_exchanges_accepts_program():
    prog = compile_weave(words.m_word(0, words.SEED_WEAVE), ("Nested", "D"))
    gens = gadget_exchanges(prog, 2)
    assert gens == gadget_exchanges(prog.all_moves(), 2)
    assert len(gens) <= 2 * prog.move_count


def test_inversion_restores_chain_state():
    prog = compile_weave(words.m_word(1, words.SEED_WEAVE), ("Pair", "D"))
    st0 = _random_state(np.random.default_rng(12), (1, 1, 1, 1))
    fwd = st0.apply_exchanges(gadget_exchanges(prog, 2))
    back = fwd.apply_exchanges(gadget_exchanges(invert_moves(prog), 2))
    assert abs(back.overlap(st0) - 1) < 1e-12


def test_invert_program_swaps_endpoints():
    prog = compile_weave(words.m_word(1, words.SEED_WEAVE), ("Nested", "D"))
    inv = invert_program(prog)
    assert inv.start == prog.end_state
    assert inv.end_state == prog.start
    assert inv.closing == ()
    assert inv.move_count == prog.move_count
    assert invert_moves(invert_moves(prog.all_moves())) == prog.all_moves()


def oracle_exchanges(moves, left, group1_size, group2_size):
    """Per-move expansion restated: every move's exchanges worked out anew."""
    pos = {"B": left, "C": left + group1_size, "D": left + group1_size + group2_size}
    out = []
    for move in moves:
        ccw = move.kind in ("X+", "L+")
        p, q = pos[move.pre[1]], pos[move.post[1]]
        out.extend((x, ccw) for x in (range(p - 1, q - 1, -1) if q < p else range(p, q)))
    return out


def _expansion_sources():
    programs = [
        compile_weave(words.m_word(2, words.SEED_WEAVE), ("Nested", "D")),
        compile_weave(words.m_word(1, words.SEED_S), ("Pair", "D")),
        compile_weave(words.n_word(2), ("Pair", "D")),
        compile_weave(words.m_word(1, words.SEED_WEAVE), ("Pair", "B")),
    ]
    for prog in programs:
        parsed = program_from_text(program_to_text(prog))
        # parsed moves are the table's own instances
        assert parsed.all_moves() == prog.all_moves()
        assert all(p is m for p, m in zip(parsed.all_moves(), prog.all_moves()))
        yield prog
        yield parsed
        yield invert_moves(prog)
    # hand-built moves
    yield [
        Move("L-", ("Pair", "B"), ("Nested", "D")),
        Move("X+", ("Nested", "C"), ("Nested", "B")),
        Move("X-", ("Nested", "B"), ("Nested", "C")),
        Move("L+", ("Nested", "D"), ("Pair", "B")),
    ]


@pytest.mark.parametrize("one_call", [0, 1])
@pytest.mark.parametrize("sizes", [(1, 1), (2, 3), (3, 1)])
@pytest.mark.parametrize("left", [1, 2])
def test_gadget_exchanges_match_per_move_oracle(left, sizes, one_call):
    """Each source expanded in its own call, or all of them in one call, so
    that one run cache serves compiled, parsed, inverted and hand-built
    moves of several programs."""
    sources = list(_expansion_sources())
    moves = [s.all_moves() if isinstance(s, weave.WeaveProgram) else s for s in sources]
    if one_call:
        sources = moves = [[m for ms in moves for m in ms]]
    for source, ms in zip(sources, moves):
        assert gadget_exchanges(source, left, *sizes) == oracle_exchanges(ms, left, *sizes)
