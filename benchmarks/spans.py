"""Timing shims around each layer's public entry points (traced runs only).

Importing this module changes nothing; :meth:`Tracer.install` replaces the
entry points with wrappers that record one span per call: name, start,
end, parent span, op id, and up to two numbers about the work (amplitudes
in, pruned mass, tokens, moves, ...).  A function is patched at the name
its caller looks it up by, since callers bind module globals at call
time.  Spans stay in memory until :meth:`Tracer.write`.

Each span also records the shim's own cost (the time spent in the wrapper
outside the call).  Durations are reported with the shim cost of nested
spans taken out, so tracing does not inflate a parent's self time.

Op ids: SETUP before the first op, WARMUP during warm-up, BETWEEN while
the runner prepares or checks an op, and 0, 1, ... for the timed ops.
Per-layer figures count timed ops only, except ``model.constants_s``,
whose work happens in set-up.
"""
from __future__ import annotations

import gzip
import inspect
import json
from array import array
from time import perf_counter

import numpy as np

def _dropped_mass(old, new):
    """Norm before minus norm after a prune, summed over the dropped
    amplitudes themselves so that no rounding cancels."""
    return float(sum(abs(a) ** 2 for k, a in old.items() if k not in new))


class Tracer:
    SETUP, WARMUP, BETWEEN = -1, -2, -3  # op ids outside the timed ops

    def __init__(self):
        self.names = []
        self._code = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.opid = array("q")
        self.work = array("d")
        self.out = array("d")
        self.over = array("d")
        self.stack = [-1]
        self.op = self.SETUP
        self.t0 = perf_counter()
        self._seen_runs = set()

    # -- recording ---------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """`before(args, kwargs)` runs untimed ahead of the call;
        `after(args, kwargs, result, before_value)` returns (work, out)."""
        code = self._code.setdefault(name, len(self._code))
        if code == len(self.names):
            self.names.append(name)

        def shim(*args, **kwargs):
            entered = perf_counter()
            pre = before(args, kwargs) if before else None
            idx = len(self.start)
            self.name.append(code)
            self.parent.append(self.stack[-1])
            self.opid.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            self.work.append(0.0)
            self.out.append(0.0)
            self.over.append(0.0)
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after:
                self.work[idx], self.out[idx] = after(args, kwargs, result, pre)
            self.over[idx] = perf_counter() - entered - (t1 - t0)
            return result

        shim.__wrapped__ = fn
        return shim

    def patch(self, owner, attr, name, before=None, after=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), before, after))

    def _run_repeat(self, sig):
        def after(args, kwargs, result, pre):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            key = (tuple(a["assign_left"]), tuple(a["assign_right"]), a["j"], a["jN"], a["route"])
            if self.op < 0:
                return 0.0, 0.0
            repeat = key in self._seen_runs
            self._seen_runs.add(key)
            return float(repeat), 0.0

        return after

    def install(self, fw):
        from fibweave import chain, converge, distill, model, numerics, weave, words

        amps_in = lambda args, kwargs: len(args[0].amps)
        self.patch(
            chain.Chain, "braid_adjacent", "chain.braid",
            before=amps_in, after=lambda a, k, r, pre: (pre, len(r.amps)),
        )
        self.patch(
            chain.Chain, "merge", "chain.merge",
            before=amps_in, after=lambda a, k, r, pre: (pre, len(r.amps)),
        )
        self.patch(
            chain.Chain, "prune", "chain.prune",
            before=lambda a, k: a[0].amps,
            after=lambda a, k, r, pre: (_dropped_mass(pre, r.amps), len(r.amps)),
        )
        for owner in (words, distill):
            self.patch(owner, "m_word", "words.build")
            self.patch(owner, "n_word", "words.build")
        self.patch(words, "evaluate", "words.evaluate",
                   after=lambda a, k, r, pre: (len(a[0]), 0.0))
        for owner in (numerics, words, model):
            self.patch(owner, "exp_i_pi", "numerics.exp_i_pi")
        for owner in (weave, distill):
            self.patch(owner, "compile_weave", "weave.compile",
                       after=lambda a, k, r, pre: (r.move_count, 0.0))
            self.patch(owner, "gadget_exchanges", "weave.expand",
                       after=lambda a, k, r, pre: (len(r), 0.0))
        self.patch(distill, "plan_one_mobile", "distill.plan")
        self.patch(distill, "run_end_to_end", "distill.run",
                   after=self._run_repeat(inspect.signature(distill.run_end_to_end)))
        self.patch(distill, "one_mobile_assignment_success", "distill.assignment")
        self.patch(distill, "monte_carlo", "distill.mc")
        self.patch(converge, "iconverge", "converge.sequence")
        self.patch(converge, "xconverge", "converge.sequence")
        self.patch(model, "make_constants", "model.constants")

    # -- reading -----------------------------------------------------

    def _arrays(self):
        """Span names, durations net of nested shim cost, self times, op
        ids and work counts."""
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        over = np.asarray(self.over)
        nested = np.zeros(len(dur))  # shim cost of all descendants
        for i in range(len(dur) - 1, -1, -1):  # children come after parents
            if parent[i] >= 0:
                nested[parent[i]] += nested[i] + over[i]
        net = dur - nested
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=net[has_parent], minlength=len(dur))
        op = np.asarray(self.opid, dtype=np.int64)
        return name, net, net - child, op, np.asarray(self.work), np.asarray(self.out)

    def layers(self, cycles):
        """Per-layer figures over the timed ops, per cycle where a total.

        Self time is a span's duration minus its direct children's.
        """
        name, dur, self_t, op, work, out = self._arrays()
        timed = op >= 0

        def sel(n, ops=timed):
            code = self._code.get(n)
            return ops & (name == code) if code is not None else np.zeros(len(name), bool)

        def total(x, n, ops=timed):
            return float(x[sel(n, ops)].sum())

        def calls(n):
            return float(sel(n).sum())

        per = 1.0 / max(cycles, 1)
        braid_s = total(dur, "chain.braid")
        amps = total(work, "chain.braid")
        run_s = total(dur, "distill.run")
        runs = calls("distill.run")
        grown = sel("chain.braid") | sel("chain.merge")
        return {
            "chain.braid_calls": calls("chain.braid") * per,
            "chain.braid_s": braid_s * per,
            "chain.amps_touched": amps * per,
            "chain.amps_per_s": amps / braid_s if braid_s else 0.0,
            "chain.merge_calls": calls("chain.merge") * per,
            "chain.merge_s": total(dur, "chain.merge") * per,
            "chain.prune_s": total(dur, "chain.prune") * per,
            "chain.max_amps": float(out[grown].max()) if grown.any() else 0.0,
            "chain.pruned_mass": total(work, "chain.prune") * per,
            "chain.braid_share": braid_s / run_s if run_s else 0.0,
            "distill.plan_s": total(dur, "distill.plan") * per,
            "distill.run_s": run_s * per,
            "distill.self_s": total(self_t, "distill.run") * per,
            "distill.assignment_runs": runs * per,
            "distill.repeat_share": total(work, "distill.run") / runs if runs else 0.0,
            "distill.mc_s": total(dur, "distill.mc") * per,
            "distill.mc_self_s": total(self_t, "distill.mc") * per,
            "words.build_s": total(dur, "words.build") * per,
            "words.evaluate_calls": calls("words.evaluate") * per,
            "words.evaluate_s": total(dur, "words.evaluate") * per,
            "words.tokens": total(work, "words.evaluate") * per,
            "numerics.exp_i_pi_calls": calls("numerics.exp_i_pi") * per,
            "numerics.exp_i_pi_s": total(dur, "numerics.exp_i_pi") * per,
            "converge.sequence_calls": calls("converge.sequence") * per,
            "converge.sequence_s": total(dur, "converge.sequence") * per,
            "weave.compile_s": total(dur, "weave.compile") * per,
            "weave.expand_s": total(dur, "weave.expand") * per,
            "weave.moves": total(work, "weave.compile") * per,
            "weave.exchanges_emitted": total(work, "weave.expand") * per,
            "model.constants_s": total(dur, "model.constants", (op >= 0) | (op == self.SETUP)),
            "trace.shim_s": float(np.asarray(self.over)[timed].sum()) * per,
        }

    def write(self, path):
        """Spans as gzip JSON lines: a header naming the columns, then one
        row per span with times in seconds since the tracer started."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            columns = ["name", "start", "end", "parent", "op", "work", "out", "shim_s"]
            f.write(json.dumps({"columns": columns}) + "\n")
            for i in range(len(self.start)):
                f.write(
                    json.dumps(
                        [
                            self.names[self.name[i]],
                            round(self.start[i] - self.t0, 9),
                            round(self.end[i] - self.t0, 9),
                            self.parent[i],
                            self.opid[i],
                            self.work[i],
                            self.out[i],
                            self.over[i],
                        ]
                    )
                    + "\n"
                )
