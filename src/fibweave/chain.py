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
Every kernel reads F and R from the state's own gauge (:attr:`Chain.gauge`,
:data:`STANDARD_GAUGE` by default), which the states made from it carry on.

A state is stored by descriptor group, ``{descriptors: {path bits:
amplitude}}``: every Fibonacci label is 0 or 1, and bit k of the int is
label k.  A kernel works out swapped descriptors and roots once per group
and relabels or recouples the path with shifts and masks.  Each output
group takes its amplitudes from exactly one input group, in that group's
key order, so every amplitude is summed in the order a flat dict would
sum it.  The packed form stays inside this module: :class:`Chain` takes,
and :attr:`Chain.amps` shows read-only, the flat form
``{(descriptors, path tuple): amplitude}``.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import ItemsView, Mapping

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


def _pack(path):
    """Path labels as int bits, bit k = label k."""
    bits = 0
    for k, label in enumerate(path):
        if label == 1:
            bits |= 1 << k
        elif label != 0:
            raise ValueError(f"path labels must be 0 or 1, got {path}")
    return bits


def _labels(bits, n):
    return tuple(bits >> k & 1 for k in range(n))


class _Amps(Mapping):
    """Read-only flat view ``{(descriptors, path tuple): amplitude}`` of a
    state's groups; paths are decoded only as keys are read."""

    __slots__ = ("_groups",)

    def __init__(self, groups):
        self._groups = groups

    def __len__(self):
        return sum(map(len, self._groups.values()))

    def __iter__(self):
        return (key for key, _a in self.items())

    def __getitem__(self, key):
        ch, path = key
        group = self._groups.get(ch)
        if group is None or len(path) != len(ch) + 1:
            raise KeyError(key)
        try:
            return group[_pack(path)]
        except ValueError:
            raise KeyError(key) from None

    def items(self):
        return _Items(self)


class _Items(ItemsView):
    def __iter__(self):
        for ch, group in self._mapping._groups.items():
            n = len(ch) + 1
            for bits, a in group.items():
                yield (ch, _labels(bits, n)), a


STANDARD_GAUGE = gauge_of(F_NP, R_NP)


class Chain:
    """Superposition over (object descriptors, path labels) basis keys,
    built from a mapping {(descriptors, path tuple): amplitude} whose paths
    carry one 0/1 label more than there are objects, in a :class:`Gauge`."""

    __slots__ = ("_groups", "gauge")

    def __init__(self, amps, gauge=STANDARD_GAUGE):
        groups = {}
        for (ch, path), a in amps.items():
            if len(path) != len(ch) + 1:
                raise ValueError(f"path {path} does not fit {len(ch)} objects")
            groups.setdefault(ch, {})[_pack(path)] = a
        self._groups, self.gauge = groups, gauge

    def _of(self, groups):
        st = Chain.__new__(Chain)
        st._groups, st.gauge = groups, self.gauge
        return st

    @property
    def amps(self):
        """The state as a read-only mapping {(descriptors, path tuple): amplitude}."""
        return _Amps(self._groups)

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
        for ch in self._groups:
            return len(ch)
        return 0

    def braid_adjacent(self, i, ccw=True):
        """Exchange objects i and i+1 (1-indexed), star-over or star-under.

        Exact rules by total charges (a, b) of the two objects:
        either trivial: ambient relabeling with unit amplitude;
        both nontrivial: phase R00 or R11 when an ambient label is vacuum,
        else the recoupled 2x2 block F R F on the middle label.
        """
        gauge, lo, mid = self.gauge, i - 1, 1 << i
        r00, r11, frf = gauge.ccw if ccw else gauge.cw
        clear = ~mid
        out = {}
        for ch, group in self._groups.items():
            di, dj = ch[i - 1], ch[i]
            swapped = list(ch)
            swapped[i - 1], swapped[i] = dj, di
            new = out[tuple(swapped)] = {}
            get = new.get
            ci = di if isinstance(di, int) else di[0]  # root(di) and root(dj), inline
            cj = dj if isinstance(dj, int) else dj[0]
            if ci == 0 or cj == 0:  # label i takes its other neighbour's value
                src = i + 1 if ci == 0 else i - 1
                for p, a in group.items():
                    k = p & clear | (p >> src & 1) << i
                    new[k] = get(k, 0) + a
                continue
            for p, a in group.items():
                ambient = p >> lo & 5  # labels i-1 and i+1 at bits 0 and 2
                if ambient != 5:  # R00 if both are vacuum
                    new[p] = get(p, 0) + a * (r00 if ambient == 0 else r11)
                else:
                    c0, c1 = frf[p >> i & 1]
                    k = p & clear
                    new[k] = get(k, 0) + c0 * a
                    k |= mid
                    new[k] = get(k, 0) + c1 * a
        st = Chain.__new__(Chain)
        st._groups, st.gauge = out, gauge
        return st

    def apply_exchanges(self, exchanges):
        """Apply (position, ccw) exchanges in order, one :meth:`braid_adjacent`
        call per exchange."""
        st, braid = self, Chain.braid_adjacent
        for pos, ccw in exchanges:
            st = braid(st, pos, ccw)
        return st

    def apply_window(self, i, window):
        """Apply a :class:`WindowMap` to objects i, i+1, i+2 (1-indexed)
        in one pass: descriptors stay, the labels p[i], p[i+1] inside the
        window are remapped by the block of the window's roots and outer
        labels p[i-1], p[i+2].  Groups with equal roots share their rows."""
        gauge, lo, clear = self.gauge, i - 1, ~(3 << i)
        out, rows_by_roots = {}, {}
        for ch, group in self._groups.items():
            roots = (root(ch[i - 1]), root(ch[i]), root(ch[i + 1]))
            new = out[ch] = {}
            get = new.get
            rows_of = rows_by_roots.setdefault(roots, {})  # labels i-1 .. i+2 -> ((bits, c), ...)
            for p, a in group.items():
                w = p >> lo & 15
                rows = rows_of.get(w)
                if rows is None:
                    block = window.block(gauge, roots, w & 1, w >> 3)[w >> 1 & 1, w >> 2 & 1]
                    rows = rows_of[w] = tuple((x << i | y << (i + 1), c) for x, y, c in block)
                base = p & clear
                for xy, c in rows:
                    k = base | xy
                    new[k] = get(k, 0) + c * a
        return self._of(out)

    def merge(self, i):
        """Fuse objects i and i+1 into one composite object.

        The label x between them is recoupled into the composite's total
        charge g (weight F[g, x] when all four surrounding charges are
        nontrivial, a relabeling otherwise); the constituent pair is
        kept in the new object's descriptor so that different formation
        histories remain orthogonal basis states.
        """
        f = self.gauge.f
        lo, low = i - 1, (1 << i) - 1
        out = {}
        for ch, group in self._groups.items():
            da, db = ch[i - 1], ch[i]
            aa, bb = root(da), root(db)
            head, tail = ch[:i - 1], ch[i + 1:]
            targets_of = {}  # labels i-1, i, i+1 at bits 0, 1, 2 -> ((group, weight), ...)
            for p, a in group.items():
                w = p >> lo & 7
                targets = targets_of.get(w)
                if targets is None:
                    lpre, x, lpost = w & 1, w >> 1 & 1, w >> 2
                    if aa == bb == lpre == lpost == 1:
                        gw = [(g, f[g][x]) for g in (0, 1)]
                    else:  # the composite charge is fixed by the fusion rules
                        gw = [(g, 1.0) for g in fuse(aa, bb) if lpost in fuse(lpre, g)]
                    targets = targets_of[w] = tuple(
                        (out.setdefault(head + ((g, (da, db)),) + tail, {}), wt) for g, wt in gw
                    )
                q = p & low | p >> (i + 1) << i  # label i taken out
                for new, wt in targets:
                    new[q] = new.get(q, 0) + wt * a
        return self._of(out)

    def norm(self):
        return math.fsum(abs(a) ** 2 for group in self._groups.values() for a in group.values())

    def prune(self):
        """Drop amplitudes at or below PRUNE_TOL into new groups: a view of
        :attr:`amps` taken before the prune keeps showing the old state."""
        groups = {}
        for ch, group in self._groups.items():
            kept = {p: a for p, a in group.items() if abs(a) > PRUNE_TOL}
            if kept:
                groups[ch] = kept
        self._groups = groups
        return self

    def split_mass(self, pred):
        """(m, rest): the summed |amplitude|^2 of the basis keys where
        pred(descriptors, path) holds, and of all others, each summed
        exactly rounded so that neither depends on the key order.  A share
        m / (m + rest) of two partial sums of one state lies in [0, 1]."""
        m, rest = [], []
        for ch, group in self._groups.items():
            n = len(ch) + 1
            for bits, a in group.items():
                (m if pred(ch, _labels(bits, n)) else rest).append(abs(a) ** 2)
        return math.fsum(m), math.fsum(rest)

    def cut_distribution(self, k):
        """(P[label 0], P[label 1]) for the path label after object k, as
        shares of this state's mass."""
        p1, p0 = self.split_mass(lambda ch, p: p[k] == 1)
        return (p0 / (p0 + p1), p1 / (p0 + p1))

    def overlap(self, other):
        total = 0
        for ch, group in self._groups.items():
            theirs = other._groups.get(ch, {})
            for bits, a in group.items():
                total += np.conj(theirs.get(bits, 0)) * a
        return total


class WindowMap:
    """An exchange sequence on three adjacent objects that returns every
    object to its slot, applied as one block map (gate fusion).

    Exchanges act through total charges only, so on a window of objects
    (i, i+1, i+2) the sequence maps the two inner labels (p[i], p[i+1])
    linearly, with coefficients fixed by the three roots and the outer
    labels p[i-1] and p[i+2].  Each block is built on first use by running
    the exchanges through :meth:`Chain.braid_adjacent` on a bare window,
    one admissible input at a time, and kept per gauge for the map's life:
    the same kernel in the same arithmetic as the exchange-by-exchange run.
    """

    def __init__(self, exchanges):
        self.exchanges = tuple(exchanges)
        if any(pos not in (1, 2) for pos, _ccw in self.exchanges):
            raise ValueError("window exchanges must sit at positions 1 and 2")
        self._blocks = {}

    def block(self, gauge, roots, l0, l3):
        """{(a, b): ((a', b', coefficient), ...)} in a gauge for window
        roots and outer labels (l0, l3)."""
        key = (gauge, roots, l0, l3)
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = self._build(gauge, roots, l0, l3)
        return block

    def _build(self, gauge, roots, l0, l3):
        # distinct descriptors with the given roots, so that a net swap of
        # two equal charges cannot pass for the identity
        objects = tuple((r, slot) for slot, r in enumerate(roots))
        r1, r2, r3 = roots
        block = {}
        for a in fuse(l0, r1):
            for b in fuse(a, r2):
                if l3 not in fuse(b, r3):
                    continue
                out = Chain({(objects, (l0, a, b, l3)): 1.0 + 0j}, gauge)
                rows = []
                for (ch, p), c in out.apply_exchanges(self.exchanges).amps.items():
                    if ch != objects:
                        raise ValueError("exchange sequence does not return every object to its slot")
                    rows.append((p[1], p[2], c))
                block[a, b] = tuple(rows)
        return block
