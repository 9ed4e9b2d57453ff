"""State-vector simulator for a row of anyons in the path basis.

Basis states are labelled by the running fusion products read left to
right: a row of n objects carries n+1 labels, the first pinned to the
vacuum and the last free.  A chain of n nontrivial anyons with vacuum
total charge has F(n-1) admissible labelings (Fibonacci numbers), which
is the dimension the simulator works in.

Objects in the row are either bare anyons (charge 0 or 1) or composites
formed by :meth:`Chain.merge`.  A composite's key records its total
charge together with the pair of objects it was formed from; that nested
record is exactly the data of the composite's internal fusion tree, so
distinct internal states stay orthogonal while all dynamics acts through
total charges only.  Braiding an adjacent pair is exact: a 2x2 recoupled
block when both charges and both ambient labels are nontrivial, a pure
phase or a relabeling otherwise.  A fixed exchange sequence on three
adjacent objects can be applied as one fused block (:class:`WindowMap`).
Every kernel reads F and R from one binding, :attr:`Chain.gauge`.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .model import F_NP, R_NP, fuse

Gauge = namedtuple("Gauge", "f ccw cw")

#: Amplitudes at or below this magnitude are dropped by :meth:`Chain.prune`.
PRUNE_TOL = 1e-18


def gauge_of(f, r):
    """The :class:`Gauge` of 2x2 arrays F and R (counterclockwise), all Python
    complex: ``f[a][b]`` is F[a, b], and ``ccw`` and ``cw`` each hold R00, R11
    and the columns of F R F for one handedness."""

    def exchange(r):
        frf = f @ r @ f
        return complex(r[0, 0]), complex(r[1, 1]), tuple(tuple(map(complex, col)) for col in frf.T)

    # conjugated in Python: a first numpy conj at import costs 64 KB of memory
    cw = np.diag([complex(x).conjugate() for x in np.diag(r)])
    return Gauge(tuple(tuple(map(complex, row)) for row in f), exchange(r), exchange(cw))


def root(descriptor):
    """Total charge of an object: bare charge, or a composite's root."""
    return descriptor if isinstance(descriptor, int) else descriptor[0]


def paths_for(charges):
    """All admissible label sequences for bare charges, vacuum on the left."""
    out = [(0,)]
    for c in charges:
        if c not in (0, 1):
            raise ValueError(f"charges must be 0 or 1, got {c!r}")
        nxt = []
        for p in out:
            for label in fuse(p[-1], c):
                nxt.append(p + (label,))
        out = nxt
    return out


def is_admissible(charges, path):
    if len(path) != len(charges) + 1 or path[0] != 0:
        return False
    return all(path[i + 1] in fuse(path[i], root(c)) for i, c in enumerate(charges))


class Chain:
    """Superposition over (object descriptors, path labels) basis keys."""

    gauge = gauge_of(F_NP, R_NP)

    def __init__(self, amps):
        self.amps = dict(amps)

    @classmethod
    def from_path(cls, charges, path, amp=1.0 + 0j):
        charges, path = tuple(charges), tuple(path)
        if not is_admissible(charges, path):
            raise ValueError(f"path {path} not admissible for charges {charges}")
        return cls({(charges, path): amp})

    @classmethod
    def init_pairs(cls, pair_charges):
        """Adjacent pairs, each created from vacuum (definite path)."""
        charges, path = [], [0]
        for c in pair_charges:
            charges += [c, c]
            path += [c, 0]
        return cls.from_path(charges, path)

    def objects(self):
        for (ch, _p) in self.amps:
            return len(ch)
        return 0

    def braid_adjacent(self, i, ccw=True):
        """Exchange objects i and i+1 (1-indexed), star-over or star-under.

        Exact rules by total charges (a, b) of the two objects:
        either trivial: ambient relabeling with unit amplitude;
        both nontrivial: phase R00 or R11 when an ambient label is vacuum,
        else the recoupled 2x2 block F R F on the middle label.
        """
        r00, r11, frf = self.gauge.ccw if ccw else self.gauge.cw
        out = {}
        get = out.get
        swapped = {}  # ch -> (swapped descriptors, root i, root i+1)
        for (ch, p), a in self.amps.items():
            sw = swapped.get(ch)
            if sw is None:
                di, dj = ch[i - 1], ch[i]
                sw = swapped[ch] = (ch[:i - 1] + (dj, di) + ch[i + 1:], root(di), root(dj))
            nch, ci, cj = sw
            if ci == 0 or cj == 0:
                k = (nch, p[:i] + (p[i + 1] if ci == 0 else p[i - 1],) + p[i + 1:])
                out[k] = get(k, 0) + a
            elif p[i - 1] == 0 or p[i + 1] == 0:  # R00 if both are vacuum
                k = (nch, p)
                out[k] = get(k, 0) + a * (r00 if p[i - 1] == p[i + 1] else r11)
            else:
                head, tail = p[:i], p[i + 1:]
                c0, c1 = frf[p[i]]
                k = (nch, head + (0,) + tail)
                out[k] = get(k, 0) + c0 * a
                k = (nch, head + (1,) + tail)
                out[k] = get(k, 0) + c1 * a
        return Chain(out)

    def apply_exchanges(self, exchanges):
        st = self
        for pos, ccw in exchanges:
            st = st.braid_adjacent(pos, ccw)
        return st

    def apply_window(self, i, window):
        """Apply a :class:`WindowMap` to objects i, i+1, i+2 (1-indexed)
        in one pass: descriptors stay, the labels p[i], p[i+1] inside the
        window are remapped by the block of the window's roots and outer
        labels p[i-1], p[i+2]."""
        out = {}
        for (ch, p), a in self.amps.items():
            roots = (root(ch[i - 1]), root(ch[i]), root(ch[i + 1]))
            rows = window.block(roots, p[i - 1], p[i + 2])[p[i], p[i + 1]]
            head, tail = p[:i], p[i + 2:]
            for x, y, c in rows:
                k = (ch, head + (x, y) + tail)
                out[k] = out.get(k, 0) + c * a
        return Chain(out)

    def merge(self, i):
        """Fuse objects i and i+1 into one composite object.

        The label x between them is recoupled into the composite's total
        charge g (weight F[g, x] when all four surrounding charges are
        nontrivial, a relabeling otherwise); the constituent pair is
        kept in the new object's descriptor so that different formation
        histories remain orthogonal basis states.
        """
        f = self.gauge.f
        out = {}
        for (ch, p), a in self.amps.items():
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
        return Chain(out)

    def norm(self):
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def prune(self):
        self.amps = {k: v for k, v in self.amps.items() if abs(v) > PRUNE_TOL}
        return self

    def split_mass(self, pred):
        """(m, rest): the summed |amplitude|^2 of the basis keys where
        pred(descriptors, path) holds, and of all others.  A share
        m / (m + rest) of two partial sums of one state lies in [0, 1]."""
        m = rest = 0.0
        for (ch, p), a in self.amps.items():
            if pred(ch, p):
                m += abs(a) ** 2
            else:
                rest += abs(a) ** 2
        return float(m), float(rest)

    def cut_distribution(self, k):
        """(P[label 0], P[label 1]) for the path label after object k, as
        shares of this state's mass."""
        p1, p0 = self.split_mass(lambda ch, p: p[k] == 1)
        return (p0 / (p0 + p1), p1 / (p0 + p1))

    def overlap(self, other):
        return sum(
            np.conj(other.amps.get(k, 0)) * a for k, a in self.amps.items()
        )


class WindowMap:
    """An exchange sequence on three adjacent objects that returns every
    object to its slot, applied as one block map (gate fusion).

    Exchanges act through total charges only, so on a window of objects
    (i, i+1, i+2) the sequence maps the two inner labels (p[i], p[i+1])
    linearly, with coefficients fixed by the three roots and the outer
    labels p[i-1] and p[i+2].  Each block is built on first use by running
    the exchanges through :meth:`Chain.braid_adjacent` on a bare window,
    one admissible input at a time, and kept: the same kernel in the same
    arithmetic as the exchange-by-exchange run.
    """

    def __init__(self, exchanges):
        self.exchanges = tuple(exchanges)
        if any(pos not in (1, 2) for pos, _ccw in self.exchanges):
            raise ValueError("window exchanges must sit at positions 1 and 2")
        self._blocks = {}

    def block(self, roots, l0, l3):
        """{(a, b): ((a', b', coefficient), ...)} for window roots and
        outer labels (l0, l3)."""
        key = (roots, l0, l3)
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = self._build(roots, l0, l3)
        return block

    def _build(self, roots, l0, l3):
        # distinct descriptors with the given roots, so that a net swap of
        # two equal charges cannot pass for the identity
        objects = tuple((r, slot) for slot, r in enumerate(roots))
        r1, r2, r3 = roots
        block = {}
        for a in fuse(l0, r1):
            for b in fuse(a, r2):
                if l3 not in fuse(b, r3):
                    continue
                out = Chain({(objects, (l0, a, b, l3)): 1.0 + 0j})
                rows = []
                for (ch, p), c in out.apply_exchanges(self.exchanges).amps.items():
                    if ch != objects:
                        raise ValueError("exchange sequence does not return every object to its slot")
                    rows.append((p[1], p[2], c))
                block[a, b] = tuple(rows)
        return block
