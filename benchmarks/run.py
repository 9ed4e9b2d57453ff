"""fibweave benchmark: one workload, one seed, timed end to end or traced.

    python3 benchmarks/run.py --workload protocol --seed 1 --seconds 20 --trace 0

Run from anywhere; the program benchmarked is ``src/fibweave`` of the
checkout holding this file.  Each workload runs in its own process
(``worker.py``), one client and one thread, BLAS pinned to one thread.

``--trace 0`` prints the end-to-end metrics: set-up time (median over
several fresh processes, from spawn until the first op is ready), median
and tail op latency, ops per second and peak resident memory.  ``--trace 1``
runs the workload twice, untraced and then with timing shims around each
layer's entry points, and prints the per-layer metrics and the tracing
overhead.  Every op's output is checked; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller report, with the environment stamp, goes on the line
before it and to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = checkout.ROOT / ".bench_out"
WORKLOADS = ("protocol", "routes", "certify", "sample")
SETUP_PROCESSES = 5  # set-up is sampled in this many fresh processes
DEADLINE_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "chain.braid_calls": "count",
    "chain.braid_s": "s",
    "chain.amps_touched": "count",
    "chain.amps_per_s": "1/s",
    "chain.merge_calls": "count",
    "chain.merge_s": "s",
    "chain.prune_s": "s",
    "chain.max_amps": "count",
    "chain.pruned_mass": "prob",
    "chain.braid_share": "share",
    "distill.plan_s": "s",
    "distill.run_s": "s",
    "distill.self_s": "s",
    "distill.assignment_runs": "count",
    "distill.repeat_share": "share",
    "distill.mc_s": "s",
    "distill.mc_self_s": "s",
    "words.build_s": "s",
    "words.evaluate_calls": "count",
    "words.evaluate_s": "s",
    "words.tokens": "count",
    "numerics.exp_i_pi_calls": "count",
    "numerics.exp_i_pi_s": "s",
    "converge.sequence_calls": "count",
    "converge.sequence_s": "s",
    "weave.compile_s": "s",
    "weave.expand_s": "s",
    "weave.moves": "count",
    "weave.exchanges_emitted": "count",
    "model.constants_s": "s",
    "trace.shim_s": "s",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}


class WorkerFailed(RuntimeError):
    pass


def spawn(args, deadline):
    """Run worker.py; return (seconds from spawn to READY, result or None)."""
    cmd = [sys.executable, str(WORKER)] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=checkout.child_env(), cwd=checkout.ROOT
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited with {code}")
    result = None
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if result is None and "--setup-only" not in args:
        raise WorkerFailed(f"worker {' '.join(args)} printed no result")
    return setup, result


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    setups = []
    if not trace:
        for _ in range(SETUP_PROCESSES - 1):
            setups.append(spawn(base + ["--setup-only"], deadline)[0])
    setup, plain = spawn(base + ["--trace", "0"], deadline)
    setups.append(setup)
    results = [plain]
    if trace:
        spans_file = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
        traced = spawn(base + ["--trace", "1", "--spans-out", str(spans_file)], deadline)[1]
        results.append(traced)
        metrics = dict(traced["layers"])
        metrics["trace.ops_per_s"] = traced["ops_per_s"]
        metrics["trace.untraced_ops_per_s"] = plain["ops_per_s"]
        metrics["trace.overhead_ops_per_s"] = traced["ops_per_s"] - plain["ops_per_s"]
        units = LAYER_UNITS
        report["spans_file"] = str(spans_file.relative_to(checkout.ROOT))
        report["spans"] = traced["spans"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_s": plain["op_p50_s"],
            "op_tail_s": plain["op_tail_s"],
            "ops_per_s": plain["ops_per_s"],
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        units = E2E_UNITS
        report["setup_samples_s"] = setups
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    report.update(
        environment={**checkout.stamp(), **plain["versions"]},
        fail_frac=failed / attempted,
        tail={
            "percentile": plain["tail_percentile"],
            "samples": plain["samples"],
            "beyond": plain["tail_beyond"],
        },
        runs=[{k: v for k, v in r.items() if k not in ("layers", "versions")} for r in results],
    )
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return report, final


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        checkout.require_program()
        report, final = run(args.workload, args.seed, args.seconds, args.trace)
    except (checkout.MissingProgram, WorkerFailed) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    for name, m in final["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    tail = report["tail"]
    print(
        f"tail = p{tail['percentile']:g} of {tail['samples']} timed ops "
        f"({tail['beyond']} beyond); fail_frac {report['fail_frac']:.3g} "
        f"of {final['attempted']} ops"
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**report, "result": final}, indent=1) + "\n")
    print("REPORT " + json.dumps(report))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
