"""One workload in one process: set up, warm up, time whole cycles, check.

    python3 benchmarks/worker.py --workload protocol --seed 1 --seconds 20

``run.py`` starts this and reads its standard output: ``READY`` once the
first op is ready (set-up ends there), then one ``RESULT {json}`` line.
With ``--setup-only`` it exits after ``READY``.  With ``--trace 1`` it
installs the timing shims of ``spans.py`` before set-up; without it that
module is never imported.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

from mpmath.libmp import from_int, mpf_add, mpf_mul

import checkout

# Percentiles the tail may take, in hundredths of a percent.
LADDER = (5000, 7500, 9000, 9500, 9900, 9950, 9990, 9999)
BEYOND = 10
# Op times are reported in reference seconds: the time the op would take
# on a machine where speed_probe() takes this long.
PROBE_REFERENCE_S = 0.005


def speed_probe():
    """Time a fixed piece of work of the kinds the ops do: integer and
    big-float arithmetic, tuple-keyed dict updates, complex products.  It
    calls nothing of the program, so a change to the program cannot move
    it; what moves it is the shared machine running faster or slower."""
    t0 = time.perf_counter()
    s = 0
    for k in range(20000):
        s += k * k
    x, y = from_int(3**200), from_int(7**150)
    for _ in range(300):
        x = mpf_add(mpf_mul(x, y, 256), y, 256)
    d = {}
    for k in range(4000):
        key = (k & 63, k >> 6)
        d[key] = d.get(key, 0) + k * 0.5j
    return time.perf_counter() - t0


def rank(q, n):
    """1-based nearest rank of percentile q (hundredths of a percent)."""
    return max(1, -(-q * n // 10000))


def tail_percentile(n):
    """The highest ladder percentile that leaves at least BEYOND of n
    samples above its rank; the median when n is too small for any."""
    best = LADDER[0]
    for q in LADDER:
        if n - rank(q, n) >= BEYOND:
            best = q
    return best


def _timed(call, tracer, op_id):
    if tracer is None:
        t0 = time.perf_counter()
        out = call()
        return out, time.perf_counter() - t0
    tracer.op = op_id
    try:
        t0 = time.perf_counter()
        out = call()
        return out, time.perf_counter() - t0
    finally:
        tracer.op = tracer.BETWEEN


def run_ops(wl, ops, tracer=None, first_id=0, probes=None):
    """Time each op's call alone and check it after.  An op that raises
    or fails its check is recorded as failed and the loop goes on.  Timed
    ops get span ids first_id, first_id + 1, ...; a negative first_id is
    used for every op.  With a `probes` list, speed_probe() runs before
    each op and its time is appended there."""
    records = []
    for i, op in enumerate(ops):
        if probes is not None:
            probes.append(speed_probe())
        rec = {"kind": wl.label(op), "latency": None, "ok": False}
        try:
            out, rec["latency"] = _timed(
                wl.prepare(op), tracer, first_id + i if first_id >= 0 else first_id
            )
            wl.check(op, out)
            rec["ok"] = True
        except Exception as exc:  # one bad op must not end the run
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    return records


def measure(wl, warm_ops, first_ops, seconds, tracer=None):
    """Warm up, then run whole cycles until `seconds` have passed or the
    workload's cycle limit is reached."""
    warm = run_ops(wl, warm_ops, tracer, tracer.WARMUP if tracer else 0)
    records, probes, cycles = [], [], 0
    start = time.perf_counter()
    ops = first_ops
    while True:
        records += run_ops(wl, ops, tracer, len(records), probes)
        cycles += 1
        if time.perf_counter() - start >= seconds or cycles == wl.max_cycles:
            break
        ops = wl.cycle(cycles)
    return warm, records, sorted(probes)[len(probes) // 2], cycles, time.perf_counter() - start


def summarize(records, scale=1.0):
    """End-to-end figures over the timed ops that returned, with every
    latency multiplied by `scale`."""
    lat = sorted(r["latency"] * scale for r in records if r["latency"] is not None)
    n = len(lat)
    q = tail_percentile(n)
    out = {
        "samples": n,
        "tail_percentile": q / 100,
        "tail_beyond": n - rank(q, n),
    }
    if n:
        out.update(
            op_p50_s=lat[rank(5000, n) - 1],
            op_tail_s=lat[rank(q, n) - 1],
            ops_per_s=n / math.fsum(lat),
        )
    return out


def by_kind(records):
    kinds = {}
    for r in records:
        if r["latency"] is not None:
            kinds.setdefault(r["kind"], []).append(r["latency"])
    return {
        k: {"n": len(v), "median_s": sorted(v)[(len(v) - 1) // 2]} for k, v in sorted(kinds.items())
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    fw = checkout.use_source_tree()
    import mpmath
    import numpy

    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(fw)
    wl = workloads.make(args.workload, args.seed, fw)
    warm_ops, first_ops = wl.warmup(), wl.cycle(0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    warm, records, probe_s, cycles, wall = measure(wl, warm_ops, first_ops, args.seconds, tracer)
    everything = warm + records
    result = {
        "versions": {
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "fibweave": fw.__version__,
        },
        "cycles": cycles,
        "timed_wall_s": wall,
        "warmup_ops": len(warm),
        "attempted": len(everything),
        "failed": sum(not r["ok"] for r in everything),
        "errors": [r["error"] for r in everything if "error" in r][:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kinds": by_kind(records),
        "probe_median_s": probe_s,
        "raw": summarize(records),
        **summarize(records, PROBE_REFERENCE_S / probe_s),
    }
    if tracer:
        result["layers"] = tracer.layers(cycles)
        result["spans"] = len(tracer.start)
        if args.spans_out:
            tracer.write(args.spans_out)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
