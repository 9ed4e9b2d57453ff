"""Compile gate words into single-mobile weave programs.

A weave realises a word over {F, R^a} by moving one designated mobile anyon
(the star) through a row of four anyons: a spectator A on the left, two
static anyons, and the star weaving among them.  The machine state is a pair

    (basis, slot)   with basis in {Pair, Nested} and slot in {B, C, D}

where the slot names the star's position among the statics (B: left of both,
C: between, D: right of both) and the basis flag records which pairing of
the four anyons the current word factor is expressed in.  F tokens toggle
the basis flag only.  Each unit R demand emits one move:

    X+ / X-   adjacent exchange of the star with one static (ccw / cw)
    L+ / L-   loop of the star around both statics (ccw / cw)

Exchange states and loop states partition the six machine states; which
move kind realises a unit R power is forced by the state class.  Every move
sends the state to its R-partner.  The machine therefore has twelve moves,
one per state and handedness.  MOVE_TABLE builds them once, at import, and
is the only statement of these rules: the compiler, parser, inverter and
expander all read it and share its instances.  Each move expands to adjacent
exchanges of its own handedness (X+ and L+ ccw), so a loop is cut into two
same-handed exchanges; the opposite cut of the loops fails end to end.

Execution order runs through the word right to left (the rightmost factor
acts first on a ket), and the true matrix of each move equals the demanded
R^{+-1} only up to a fifth root of unity, tracked exactly as an integer
multiple of pi/5 per move.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import F_NP, R_NP

BASES = ("Pair", "Nested")
SLOTS = ("B", "C", "D")
STATES = tuple((b, s) for b in BASES for s in SLOTS)

EXCHANGE_STATES = frozenset(
    {("Pair", "C"), ("Pair", "D"), ("Nested", "B"), ("Nested", "C")}
)
LOOP_STATES = frozenset({("Pair", "B"), ("Nested", "D")})

R_PARTNER = {
    ("Pair", "C"): ("Pair", "D"),
    ("Pair", "D"): ("Pair", "C"),
    ("Nested", "B"): ("Nested", "C"),
    ("Nested", "C"): ("Nested", "B"),
    ("Pair", "B"): ("Nested", "D"),
    ("Nested", "D"): ("Pair", "B"),
}

# each move equals e^{i pi/5 * phase_exponent} times the demanded R^{+-1}
PHASE_EXPONENT = {"X+": 0, "X-": 0, "L-": 4, "L+": -4}


def f_toggle(state):
    basis, slot = state
    return ("Nested" if basis == "Pair" else "Pair", slot)


def _check_state(state):
    if tuple(state) not in R_PARTNER:
        raise ValueError(f"not a weave state: {state!r}")
    return tuple(state)


@dataclass(frozen=True)
class Move:
    kind: str
    pre: tuple
    post: tuple


@dataclass(frozen=True)
class WeaveProgram:
    start: tuple
    moves: tuple
    closing: tuple
    end_state: tuple

    def all_moves(self):
        return self.moves + self.closing

    @property
    def move_count(self):
        return len(self.moves) + len(self.closing)


def _table_entry(state, unit):
    """The move realising R^unit from a state, and the state it leads to:
    the state class forces the kind, and every move goes to the R-partner."""
    if state in EXCHANGE_STATES:
        kind = "X+" if unit > 0 else "X-"
    else:
        kind = "L-" if unit > 0 else "L+"
    return Move(kind, state, R_PARTNER[state]), R_PARTNER[state]


#: The machine's twelve moves, built once: (state, unit) -> (move, next
#: state) for the 6 states and the unit R powers +1 and -1.  Move is
#: frozen, so every compiled program shares these instances.
MOVE_TABLE = {(s, u): _table_entry(s, u) for s in STATES for u in (1, -1)}

#: (pre-state, kind) -> (move, the unit R power it realises), for the parser
#: and the inverter.
_BY_PRE_KIND = {(m.pre, m.kind): (m, u) for (_s, u), (m, _post) in MOVE_TABLE.items()}


def _walk(word, start):
    """Walk the word in execution order from a checked start state.

    Returns the steps, one Move per unit R power (looked up in MOVE_TABLE) and
    None per F token, and the end state.  The compiler and the semantics
    share this walk.
    """
    s = start
    steps = []
    for t in reversed(tuple(word)):
        if t[0] == "F":
            s = f_toggle(s)
            steps.append(None)
        else:
            unit = 1 if t[1] > 0 else -1
            for _ in range(abs(t[1])):
                move, s = MOVE_TABLE[s, unit]
                steps.append(move)
    return steps, s


def compile_weave(word, start):
    """Walk the word in execution order and emit one move per unit R power.

    When the word contains a multiple of three F tokens and the walk ends
    away from the start state, a single positive closing move is appended.
    For the recursion words the end state is then the R-partner of the
    start, so one move restores the star's position; any other word raises
    ValueError.  Every move, the closing one included, is looked up in
    MOVE_TABLE rather than built.
    """
    start = _check_state(start)
    steps, end = _walk(word, start)
    moves = [m for m in steps if m is not None]
    closing = []
    if (len(steps) - len(moves)) % 3 == 0 and end != start:
        if R_PARTNER[end] != start:
            raise ValueError(f"closing from {end} cannot reach {start} in one move")
        closing.append(MOVE_TABLE[end, 1][0])
        end = start
    return WeaveProgram(start, tuple(moves), tuple(closing), end)


def move_matrix(kind):
    """True 2x2 matrix of a move on the current-basis middle label: an
    exchange X+ is R, a loop L+ is diag(1, R11), and X-, L- are their
    inverses."""
    if kind not in PHASE_EXPONENT:
        raise ValueError(f"unknown move kind {kind!r}")
    r = np.diag(R_NP) if kind[1] == "+" else np.diag(R_NP).conj()
    return np.diag(r if kind[0] == "X" else [1, r[1]])


def weave_semantics(word, start):
    """Multiply out the compiled realisation of a word.

    Returns (matrix, phase_exponent, end_state) where the product of the
    true move matrices interleaved with the F relabelings satisfies

        matrix = e^{i pi/5 * phase_exponent} * evaluate(word)

    exactly, with phase_exponent an integer accumulated move by move.
    The closing move is not included (it is position bookkeeping, applied
    after the word's matrix has been realised).
    """
    steps, end = _walk(word, _check_state(start))
    m = np.eye(2, dtype=complex)
    phase_exponent = 0
    for move in steps:
        if move is None:
            m = F_NP @ m
        else:
            m = move_matrix(move.kind) @ m
            phase_exponent += PHASE_EXPONENT[move.kind]
    return m, phase_exponent, end


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _state_str(state):
    return f"{state[0]},{state[1]}"


def _parse_state(text):
    parts = text.strip().split(",")
    if len(parts) != 2:
        raise ValueError(f"malformed state {text!r}")
    return _check_state((parts[0].strip(), parts[1].strip()))


def program_to_text(program):
    """Render a program in the plain-text exchange format.

    One move kind per line; `#@` lines carry the pre-state of the next
    move, `#!` marks the start of the closing section, and the header and
    footer record the start and end states.
    """
    lines = [f"start={_state_str(program.start)}"]
    for move in program.moves:
        lines += [f"#@ {_state_str(move.pre)}", move.kind]
    for move in program.closing:
        lines += ["#! closing", f"#@ {_state_str(move.pre)}", move.kind]
    lines.append(f"end={_state_str(program.end_state)}")
    return "\n".join(lines) + "\n"


def program_from_text(text):
    """Parse the text that program_to_text writes back into a WeaveProgram.

    `start=` is required.  Every move line follows a `#@` line whose state
    is the previous post-state (the start, at first) or its F toggle, and
    from which the kind is a table move; the table's instance is returned.
    `#!` opens the closing section, an optional `end=` is the last
    post-state or its F toggle, and other `#` lines are comments.
    """
    start = end = pre = None
    moves, closing = [], []
    section = moves
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("start="):
            start = _parse_state(line[len("start="):])
        elif line.startswith("end="):
            end = _parse_state(line[len("end="):])
        elif line.startswith("#@"):
            pre = _parse_state(line[2:])
        elif line.startswith("#!"):
            section = closing
        elif line and not line.startswith("#"):
            if pre is None:
                raise ValueError(f"line {raw!r} follows no #@ pre-state line")
            if (pre, line) not in _BY_PRE_KIND:
                raise ValueError(f"line {raw!r} is not a move from #@ {_state_str(pre)}")
            section.append(_BY_PRE_KIND[pre, line][0])
            pre = None
    if start is None:
        raise ValueError("no start= line: the start state is not determined")
    last = start
    for move in moves + closing:
        if move.pre not in (last, f_toggle(last)):
            raise ValueError(f"move from {_state_str(move.pre)} cannot follow {_state_str(last)}")
        last = move.post
    end = last if end is None else end
    if end not in (last, f_toggle(last)):
        raise ValueError(f"declared end state {end} unreachable from {last}")
    return WeaveProgram(start, tuple(moves), tuple(closing), end)


# ---------------------------------------------------------------------------
# Expansion to adjacent elementary exchanges
# ---------------------------------------------------------------------------

def gadget_exchanges(moves, left, group1_size=1, group2_size=1):
    """Expand moves to adjacent-exchange positions for a star weaving
    through two groups.

    The first group occupies slots [left, left+group1_size) and the second
    follows it.  Star positions by slot: B = left, C = left+group1_size,
    D = left+group1_size+group2_size.  A move from position p to q emits
    the exchanges that carry the star there one step at a time, each of the
    move's own handedness (X+/L+ ccw, X-/L- cw).

    Accepts a WeaveProgram (expands moves plus closing) or any iterable of
    Move.  Returns a list of (position, ccw) pairs, 1-indexed as in the
    chain simulator.  Each distinct (kind, pre slot, post slot) is expanded
    once per call, keyed by value, so hand-built moves expand as table moves
    do.
    """
    if isinstance(moves, WeaveProgram):
        moves = moves.all_moves()
    pos = {
        "B": left,
        "C": left + group1_size,
        "D": left + group1_size + group2_size,
    }
    runs = {}  # (kind, pre slot, post slot) -> its exchanges
    out = []
    for move in moves:
        key = (move.kind, move.pre[1], move.post[1])
        run = runs.get(key)
        if run is None:
            ccw = move.kind in ("X+", "L+")
            p, q = pos[key[1]], pos[key[2]]
            steps = range(p - 1, q - 1, -1) if q < p else range(p, q)
            run = runs[key] = [(x, ccw) for x in steps]
        out.extend(run)
    return out


def invert_moves(moves):
    """Reverse a move list and flip every handedness: each move becomes the
    table's move from its post-state with the opposite unit R power."""
    if isinstance(moves, WeaveProgram):
        moves = moves.all_moves()
    return tuple(MOVE_TABLE[m.post, -_BY_PRE_KIND[m.pre, m.kind][1]][0] for m in reversed(moves))


def invert_program(program):
    """Program running the inverse braid sequence, closing included."""
    return WeaveProgram(
        start=program.end_state,
        moves=invert_moves(program),
        closing=(),
        end_state=program.start,
    )
