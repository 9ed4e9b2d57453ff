"""The four workloads: seeded inputs, the timed call and its check.

Every workload is a closed loop with one client.  Its ops come in cycles:
a cycle is a fixed multiset of op shapes, put in a seeded order with
seeded parameters.  The runner executes whole cycles only, so every run
of a workload does the same mix of work whatever the seed, and the
percentiles of C cycles are those of one cycle.

Each check compares the output with a reference the code under test did
not produce: the frozen route table (``reference.json``), closed-form
golden-ratio powers computed here with mpmath, a structural walk of the
weave machine written here, or the closed-form success floors.
"""
from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np

import make_reference

WARMUP_STREAM = 0  # rng stream of the warm-up ops; cycle k uses stream k + 1


class CheckFailed(AssertionError):
    """An op returned a wrong answer."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


class Workload:
    """Base: seeded op lists; subclasses define shapes, calls and checks."""

    name = ""
    why = ""
    #: None runs whole cycles until the time is up; 1 runs one pass.
    max_cycles = None

    def __init__(self, seed, fw, table):
        self.seed = int(seed)
        self.fw = fw
        self.table = table

    def rng(self, stream):
        return np.random.default_rng([self.seed, stream])

    def ops(self, cycles):
        """The op list of the first `cycles` cycles (for tests)."""
        return [op for k in range(cycles) for op in self.cycle(k)]

    def warmup(self):
        raise NotImplementedError

    def cycle(self, k):
        raise NotImplementedError

    def prepare(self, op):
        """Build the op's inputs (untimed) and return the call to time."""
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError

    def label(self, op):
        raise NotImplementedError

    # -- shared reference arithmetic --------------------------------

    def entry(self, left, right, j):
        return self.table["entries"][make_reference.key(left, right, j)]

    def one_mobile_reference(self, n, p, j):
        """Sum over assignments with both sides nontrivial of the
        assignment weight times its frozen success probability."""
        total = 0.0
        for left in make_reference.assignments(n):
            for right in make_reference.assignments(n):
                if any(left) and any(right):
                    weight = 1.0
                    for c in left + right:
                        weight *= p if c else 1 - p
                    total += weight * self.entry(left, right, j)["composite"]
        return total


def _shuffled(rng, shapes):
    flat = [s for s, count in shapes.items() for _ in range(count)]
    return [flat[i] for i in rng.permutation(len(flat))]


def _fresh_p(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 4)


# ---------------------------------------------------------------------------
# protocol: the finite-order success query behind `fibweave simulate`
# ---------------------------------------------------------------------------

class Protocol(Workload):
    name = "protocol"
    why = (
        "simulate_report one-mobile at n<=2, j<=3 with a fresh p per op: the "
        "composite route, where fusion, a basis change or an assignment cache acts"
    )
    # (n, j) -> ops per cycle.  One n=2 j=3 query (the ROADMAP's 3.4 s
    # shape) per 100 ops keeps a cycle near 14 s.  The counts put the median
    # inside the n1 j2 ops and the 95th percentile inside the n2 j2 ops, so
    # neither sits on the edge between two op shapes.
    SHAPES = {(1, 1): 30, (1, 2): 40, (2, 1): 10, (1, 3): 10, (2, 2): 9, (2, 3): 1}
    P_RANGE = (0.05, 0.95)
    TOL = 1e-9

    def warmup(self):
        rng = self.rng(WARMUP_STREAM)
        return [
            {"n": n, "j": j, "p": _fresh_p(rng, *self.P_RANGE)}
            for n, j in ((1, 1), (1, 2), (2, 1))
        ]

    def cycle(self, k):
        rng = self.rng(k + 1)
        return [
            {"n": n, "j": j, "p": _fresh_p(rng, *self.P_RANGE)}
            for n, j in _shuffled(rng, self.SHAPES)
        ]

    def prepare(self, op):
        distill = self.fw.distill
        return lambda: distill.simulate_report("one-mobile", op["n"], op["p"], j=op["j"])

    def check(self, op, out):
        n, j, p = op["n"], op["j"], op["p"]
        want = self.one_mobile_reference(n, p, j)
        got = out.exact_probability
        require(0.0 <= got <= 1.0, f"probability {got!r} outside [0, 1]")
        require(abs(got - want) <= self.TOL, f"probability {got!r}, reference {want!r}")
        ones = (1,) * n
        counts = {
            "gadget": self.table["add_exchanges"][str(j)],
            "total": self.entry(ones, ones, j)["composite_exchanges"],
        }
        require(out.braid_counts == counts, f"braid counts {out.braid_counts}, want {counts}")

    def label(self, op):
        return f"n{op['n']} j{op['j']}"


# ---------------------------------------------------------------------------
# routes: every distinct assignment once on the physical route
# ---------------------------------------------------------------------------

class Routes(Workload):
    name = "routes"
    why = (
        "run_end_to_end on the physical route for each distinct (left, right, j), "
        "1-2 pairs per side, j<=3: unfused exchanges, merges only at readout, no repeats"
    )
    max_cycles = 1
    ORDERS = (1, 2, 3)
    TOL = 1e-9

    @staticmethod
    def _all(orders):
        sides = [a for n in make_reference.SIDE_SIZES for a in make_reference.assignments(n)]
        return [
            {"left": list(left), "right": list(right), "j": j}
            for j in orders
            for left, right in itertools.product(sides, sides)
        ]

    def warmup(self):
        # order 0 is outside the timed set, so no timed op repeats a warm-up op
        return [{"left": [1], "right": [1], "j": 0}, {"left": [1, 1], "right": [1, 1], "j": 0}]

    def cycle(self, k):
        ops = self._all(self.ORDERS)
        return [ops[i] for i in self.rng(k + 1).permutation(len(ops))]

    def prepare(self, op):
        distill = self.fw.distill
        left, right, j = tuple(op["left"]), tuple(op["right"]), op["j"]
        return lambda: distill.run_end_to_end(left, right, j, route="physical")

    def check(self, op, out):
        want = self.entry(op["left"], op["right"], op["j"])
        got = out["probability"]
        require(
            abs(got - want["physical"]) <= self.TOL,
            f"probability {got!r}, reference {want['physical']!r}",
        )
        require(
            out["exchanges"] == want["physical_exchanges"],
            f"{out['exchanges']} exchanges, reference {want['physical_exchanges']}",
        )

    def label(self, op):
        return make_reference.key(op["left"], op["right"], op["j"])


# ---------------------------------------------------------------------------
# certify: the work of the verify suites, scaled to order 4
# ---------------------------------------------------------------------------

# The weave machine as the compiler documents it, restated here so that the
# expected end state, closing move and exchange count do not come from the
# compiler under test.  A unit R move goes to the R-partner; F flips the basis.
_PARTNER = {
    ("Pair", "C"): ("Pair", "D"),
    ("Pair", "D"): ("Pair", "C"),
    ("Nested", "B"): ("Nested", "C"),
    ("Nested", "C"): ("Nested", "B"),
    ("Pair", "B"): ("Nested", "D"),
    ("Nested", "D"): ("Pair", "B"),
}
# Pair-B <-> Nested-D is a loop round both statics: two adjacent exchanges.
_LOOP = {("Pair", "B"), ("Nested", "D")}
_STATES = tuple(_PARTNER)

# word name -> (seed tokens, recursion exponents, F count of the seed,
#               entry (row, col) and its magnitude as a power of 1/tau)
_WORDS = {
    "S": ((("F",), ("R", 1), ("F",)), (-1, 3, -3, 1), 2, (0, 0), lambda j: 5**j),
    "W": (
        (("F",), ("R", -1), ("F",), ("R", 1), ("F",)),
        (-1, 3, -3, 1),
        3,
        (0, 0),
        lambda j: 2 * 5**j,
    ),
    "N": ((("F",),), (1, 3, 3, 1), 1, (1, 0), lambda j: mpmath.mpf(5**j) / 2),
}


def _r_move(state, power):
    loops = 0
    for _ in range(abs(power)):
        loops += state in _LOOP
        state = _PARTNER[state]
    return state, loops


def weave_walk(word, j, start):
    """(end state, loop moves) of the order-j word walked from `start`.

    Level by level: each level is a map state -> (end, loops) built from
    the previous level's map, its inverse for the daggered copies (every
    token acts as an involution, so the dagger retraces the same edges)
    and the four R-power insertions.  Execution runs right to left.
    """
    seed, exps, _, _, _ = _WORDS[word]
    level = {}
    for s in _STATES:
        st, loops = s, 0
        for t in reversed(seed):
            if t[0] == "F":
                st = ("Nested" if st[0] == "Pair" else "Pair", st[1])
            else:
                st, add = _r_move(st, t[1])
                loops += add
        level[s] = (st, loops)
    e1, e2, e3, e4 = exps
    for _ in range(j):
        back = {end: (s, loops) for s, (end, loops) in level.items()}
        nxt = {}
        for s in _STATES:
            st, loops = s, 0
            for part in (level, e4, back, e3, level, e2, back, e1, level):
                if isinstance(part, dict):
                    st, add = part[st]
                else:
                    st, add = _r_move(st, part)
                loops += add
            nxt[s] = (st, loops)
        level = nxt
    return level[start]


def unit_moves(word, j):
    """Elementary braid count in closed form: L_{j+1} = 5 L_j + 8."""
    seed = _WORDS[word][0]
    l0 = sum(abs(t[1]) for t in seed if t[0] == "R")
    return 5**j * l0 + 2 * (5**j - 1)


def bits_for(j):
    """Working precision for an order-j word: doubles up to order 1, else
    the next power of two at or above 1.4 * 5^j + 64 bits, enough to
    resolve the tau^-(2*5^j) entry law with 64 bits to spare."""
    if j <= 1:
        return None
    need = 1.4 * 5**j + 64
    return 1 << math.ceil(math.log2(need))


class Certify(Workload):
    name = "certify"
    why = (
        "m- and n-words to order 4 evaluated at 1.4*5^j+64 bits, compiled and "
        "expanded, plus 256-bit iconverge/xconverge: numerics, words, weave; no chain"
    )
    # ops per cycle: (word, order) and converge function.  A cycle is near
    # 5.5 s, so a run of 20 s holds 4 to 6 cycles, 120 to 180 ops.  The
    # counts put the median inside the order-3 N words and the 90th
    # percentile inside the order-4 S words, away from the edges between op
    # shapes; ops of 10 ms and less spread too much from run to run to
    # carry the median.
    SHAPES = {
        **{(w, j): c for w in _WORDS for j, c in ((0, 1), (1, 1), (2, 1), (3, 4))},
        ("N", 4): 1,
        ("S", 4): 3,
        ("W", 4): 1,
        ("iconverge", None): 2,
        ("xconverge", None): 2,
    }
    ORDERS = range(5)
    CONVERGE_BITS = 256
    DOUBLE_TOL = 1e-12
    BIG_TOL = 1e-20

    def __init__(self, seed, fw, table):
        super().__init__(seed, fw, table)
        self.constants = {
            b: fw.model.make_constants(b)
            for b in sorted({bits_for(j) for j in self.ORDERS} - {None})
        }
        self.targets = {}
        for word, (_, _, _, _, power) in _WORDS.items():
            for j in self.ORDERS:
                prec = (bits_for(j) or 53) + 64
                with mpmath.workprec(prec):
                    tau = (1 + mpmath.sqrt(5)) / 2
                    self.targets[word, j] = tau ** (-power(j))

    def _word_op(self, rng, word, j):
        start = _STATES[int(rng.integers(len(_STATES)))]
        return {"op": "word", "word": word, "j": j, "start": list(start)}

    def _converge_op(self, rng, fn):
        return {
            "op": "converge",
            "fn": fn,
            "angles": [round(float(x), 6) for x in rng.uniform(-1, 1, size=4)],
        }

    def warmup(self):
        rng = self.rng(WARMUP_STREAM)
        return [self._word_op(rng, w, j) for w in _WORDS for j in (1, 2)] + [
            self._converge_op(rng, "iconverge")
        ]

    def cycle(self, k):
        rng = self.rng(k + 1)
        return [
            self._converge_op(rng, w) if j is None else self._word_op(rng, w, j)
            for w, j in _shuffled(rng, self.SHAPES)
        ]

    def _unitary(self, angles):
        """e^{i pi al} [[e^{i pi ph} cos(pi th), e^{i pi ps} sin(pi th)],
        [-e^{-i pi ps} sin(pi th), e^{-i pi ph} cos(pi th)]], computed with
        mpmath so that no program code builds the input."""
        from fibweave.numerics import BigComplex, Mat2

        bits = self.CONVERGE_BITS
        th, ph, ps, al = angles
        with mpmath.workprec(bits + 20):
            c, s = mpmath.cospi(th), mpmath.sinpi(th)
            e = mpmath.expjpi
            rows = (
                e(al) * e(ph) * c,
                e(al) * e(ps) * s,
                -e(al) * e(-ps) * s,
                e(al) * e(-ph) * c,
            )
        return Mat2(*(BigComplex(z.real._mpf_, z.imag._mpf_, bits) for z in rows))

    def prepare(self, op):
        fw = self.fw
        if op["op"] == "converge":
            u = self._unitary(op["angles"])
            fn = op["fn"]
            return lambda: (u, getattr(fw.converge, fn)(u))
        word, j, start = op["word"], op["j"], tuple(op["start"])
        bits = bits_for(j)
        consts = self.constants[bits] if bits else None
        words, weave = fw.words, fw.weave

        def call():
            if word == "N":
                w = words.n_word(j)
            else:
                w = words.m_word(j, words.SEED_S if word == "S" else words.SEED_WEAVE)
            m = words.evaluate(w, consts)
            prog = weave.compile_weave(w, start)
            return m, prog, weave.gadget_exchanges(prog, 1)

        return call

    @staticmethod
    def _magnitude(z, prec):
        with mpmath.workprec(prec):
            return mpmath.hypot(mpmath.mp.make_mpf(z.re), mpmath.mp.make_mpf(z.im))

    def check(self, op, out):
        if op["op"] == "converge":
            self._check_converge(op, out)
        else:
            self._check_word(op, out)

    def _check_converge(self, op, out):
        u, w = out
        bits = self.CONVERGE_BITS
        r, c = (1, 0) if op["fn"] == "iconverge" else (0, 0)
        prec = bits + 64
        got = self._magnitude(w.entry(r, c), prec)
        with mpmath.workprec(prec):
            want = self._magnitude(u.entry(r, c), prec) ** 5
            gap = abs(got - want)
        require(gap <= 2.0 ** -(bits - 56), f"{op['fn']} entry off by {mpmath.nstr(gap, 3)}")

    def _check_word(self, op, out):
        m, prog, exchanges = out
        word, j, start = op["word"], op["j"], tuple(op["start"])
        _, _, f_seed, (r, c), _ = _WORDS[word]
        target = self.targets[word, j]
        bits = bits_for(j)
        if bits is None:
            got = abs(complex(m[r, c]))
            rel = abs(got - float(target)) / float(target)
            require(rel <= self.DOUBLE_TOL, f"{word}{j} entry relative error {rel:.3e}")
        else:
            with mpmath.workprec(bits + 64):
                rel = abs(self._magnitude(m.entry(r, c), bits + 64) - target) / target
            require(rel <= self.BIG_TOL, f"{word}{j} entry relative error {mpmath.nstr(rel, 3)}")
        moves = unit_moves(word, j)
        end, loops = weave_walk(word, j, start)
        closing = (f_seed * 5**j) % 3 == 0 and end != start
        if closing:
            loops += end in _LOOP
            end = start
        require(len(prog.moves) == moves, f"{len(prog.moves)} moves, want {moves}")
        require(len(prog.closing) == closing, f"{len(prog.closing)} closing moves, want {int(closing)}")
        require(prog.end_state == end, f"ends in {prog.end_state}, want {end}")
        want_ex = moves + closing + loops
        require(len(exchanges) == want_ex, f"{len(exchanges)} exchanges, want {want_ex}")

    def label(self, op):
        return op["fn"] if op["op"] == "converge" else f"{op['word']}{op['j']}"


# ---------------------------------------------------------------------------
# sample: Monte Carlo with and without the per-trial lookup
# ---------------------------------------------------------------------------

class Sample(Workload):
    name = "sample"
    why = (
        "monte_carlo, 1e5 trials: perfect one-mobile n<=8 and hierarchical eps "
        "n<=16 (pure numpy) beside one-mobile at order j<=1 (per-trial lookup)"
    )
    TRIALS = 100_000
    # (scheme, n, j) -> ops per cycle.  A cycle of 100 ops is near 9 s, so
    # a run of 20 s holds at least 200 ops and the tail stays at p95, inside
    # the gadget-order ops; the median sits inside the hierarchical n=8 ops.
    SHAPES = {
        **{("one-mobile", n, j): 3 for n, j in ((1, 0), (1, 1), (2, 0), (2, 1))},
        **{("one-mobile", n, None): 11 for n in (1, 2, 4, 8)},
        **{("hierarchical", n, None): 11 for n in (2, 4, 8, 16)},
    }
    # These p and eps ranges keep every reference probability at least 2e-3
    # away from 0 and 1: at 1e5 trials both counts are near normal.
    P_RANGE = (0.2, 0.5)
    EPS_RANGE = (0.02, 0.2)
    SIGMAS = 5

    def _op(self, rng, shape, trials):
        scheme, n, j = shape
        return {
            "scheme": scheme,
            "n": n,
            "p": _fresh_p(rng, *self.P_RANGE),
            "j": j,
            "eps": _fresh_p(rng, *self.EPS_RANGE) if scheme == "hierarchical" else None,
            "trials": trials,
            "mc_seed": int(rng.integers(2**32)),
        }

    def warmup(self):
        rng = self.rng(WARMUP_STREAM)
        return [
            self._op(rng, shape, self.TRIALS // 10)
            for shape in (("one-mobile", 1, 0), ("one-mobile", 2, None), ("hierarchical", 4, None))
        ]

    def cycle(self, k):
        rng = self.rng(k + 1)
        return [self._op(rng, s, self.TRIALS) for s in _shuffled(rng, self.SHAPES)]

    def prepare(self, op):
        distill = self.fw.distill
        return lambda: distill.monte_carlo(
            op["scheme"], op["n"], op["p"], op["trials"], op["mc_seed"], j=op["j"], eps=op["eps"]
        )

    def reference(self, op):
        n, p = op["n"], op["p"]
        if op["scheme"] == "hierarchical":
            q, eps = p, op["eps"]
            for _ in range(int(math.log2(n))):
                q = 1 - (1 - q) ** 2 - eps * q**2
            return q
        if op["j"] is None:
            return (1 - (1 - p) ** n) ** 2
        return self.one_mobile_reference(n, p, op["j"])

    def check(self, op, out):
        want = self.reference(op)
        trials = op["trials"]
        require(out["trials"] == trials, f"{out['trials']} trials, asked {trials}")
        se = math.sqrt(want * (1 - want) / trials)
        z = abs(out["estimate"] - want) / se
        require(z <= self.SIGMAS, f"estimate {out['estimate']}, reference {want:.6f}, {z:.1f} sigma")

    def label(self, op):
        if op["scheme"] == "hierarchical":
            return f"hierarchical n{op['n']}"
        return f"one-mobile n{op['n']}" + ("" if op["j"] is None else f" j{op['j']}")


WORKLOADS = {w.name: w for w in (Protocol, Routes, Certify, Sample)}


def make(name, seed, fw, table=None):
    return WORKLOADS[name](seed, fw, make_reference.load() if table is None else table)
