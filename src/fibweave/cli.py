"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 invalid usage,
3 planning errors (layouts or gadget orders that cannot be scheduled).
The working precision for verification suites can be set with the
FIBWEAVE_PRECISION environment variable (bits, >= 128).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import chain, checks, distill, weave, words
from .numerics import DEFAULT_PRECISION_BITS

#: lowest working precision at which every gating check can pass: the
#: fixed error-law bound needs about 104 bits
MIN_VERIFY_BITS = 128


def _precision_from_env():
    raw = os.environ.get("FIBWEAVE_PRECISION")
    if raw is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        print(f"FIBWEAVE_PRECISION must be an integer, got {raw!r}", file=sys.stderr)
        sys.exit(2)
    if bits < MIN_VERIFY_BITS:
        print(f"FIBWEAVE_PRECISION must be >= {MIN_VERIFY_BITS}, got {bits}", file=sys.stderr)
        sys.exit(2)
    return bits


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------

def _cmd_compile(args):
    seed = {"s": words.SEED_S, "weave": words.SEED_WEAVE}[args.seed]
    if args.word == "m":
        word = words.m_word(args.j, seed)
        default_start = ("Nested", "D")
    else:
        word = words.n_word(args.j)  # refuses an out-of-range order first
        distill.require_even_order(args.j)
        default_start = ("Pair", "D")
    start = weave._parse_state(args.start) if args.start else default_start
    program = weave.compile_weave(word, start)
    metrics = words.word_metrics(word)
    gens = weave.gadget_exchanges(program, 2) if args.generators else []
    if args.format == "braidtext":
        out = weave.program_to_text(program)
        out += "".join(f"# generator {pos} {'ccw' if ccw else 'cw'}\n" for pos, ccw in gens)
    else:
        payload = {
            "word": args.word,
            "j": args.j,
            "seed": args.seed,
            "start": list(program.start),
            "end": list(program.end_state),
            "moves": [m.kind for m in program.moves],
            "closing": [m.kind for m in program.closing],
            "metrics": metrics,
            "accepted_isotopy": weave.ACCEPTED_LOOP_ISOTOPY,
        }
        if args.generators:
            payload["generators"] = [[pos, "ccw" if ccw else "cw"] for pos, ccw in gens]
        out = json.dumps(payload, sort_keys=True) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args):
    bits = _precision_from_env()
    if args.suite == "all":
        names = list(checks.CHECKS)
    elif args.suite in checks.CHECKS:
        names = [args.suite]
    else:
        print(
            f"unknown suite {args.suite!r}: choose from "
            + ", ".join(sorted(checks.CHECKS) + ["all"]),
            file=sys.stderr,
        )
        return 2
    results = {}
    aggregate = True
    for name in names:
        t0 = time.perf_counter()
        res = checks.CHECKS[name](bits)
        res["seconds"] = time.perf_counter() - t0
        results[name] = res
        if res.get("gating", True):
            aggregate &= res["passed"]
    payload = {"precision_bits": bits, "aggregate_passed": aggregate, "suites": results}
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, default=float))
    else:
        for name, res in results.items():
            tag = "PASS" if res["passed"] else "FAIL"
            if not res.get("gating", True):
                tag = "INFO"
            print(f"{tag} {name}")
        print(f"{'PASS' if aggregate else 'FAIL'} aggregate")
    return 0 if aggregate else 1


# ---------------------------------------------------------------------------
# simulate / cost / chain-run
# ---------------------------------------------------------------------------

def _cmd_simulate(args):
    if args.perfect_gadgets and args.j is not None:
        print("choose either --j or --perfect-gadgets", file=sys.stderr)
        return 2
    if not args.perfect_gadgets and args.j is None and args.eps is None:
        print("need a gadget order (--j), --eps, or --perfect-gadgets", file=sys.stderr)
        return 2
    report = distill.simulate_report(
        args.scheme,
        args.n,
        Fraction(str(args.p)),
        trials=args.trials,
        seed=args.seed,
        j=args.j,
        eps=args.eps,
    )
    print(report.to_json())
    return 0


def _cmd_cost(args):
    reports = []
    js = range(args.j + 1) if args.sweep_j else [args.j]
    for j in js:
        reports.append(distill.braid_cost(args.n, j))
    if args.format == "json":
        print(json.dumps(reports if args.sweep_j else reports[0], sort_keys=True))
    else:
        print("n,j,level,merges,word_length,span_factor,exchanges")
        for rep in reports:
            for lv in rep["levels"]:
                print(
                    f"{rep['n']},{rep['j']},{lv['level']},{lv['merges']},"
                    f"{lv['word_length']},{lv['span_factor']},{lv['exchanges']}"
                )
            print(f"{rep['n']},{rep['j']},literal,,,,{rep['total_literal']}")
            print(f"{rep['n']},{rep['j']},dominant,,,,{rep['total_dominant']}")
    return 0


def _cmd_chain_run(args):
    if args.program in (None, "-"):
        text = sys.stdin.read()
    else:
        try:
            with open(args.program) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {args.program}: {exc.strerror}", file=sys.stderr)
            return 2
    program = weave.program_from_text(text)
    print("assignment,prob0,prob1")
    for c1 in (0, 1):
        for c2 in (0, 1):
            st = chain.Chain.init_pairs([c1, c2])
            st = st.apply_exchanges(
                weave.gadget_exchanges(program, 2, 1, 1, variant=args.variant)
            )
            p0, p1 = st.cut_distribution(2)
            print(f"{c1}{c2},{p0:.12f},{p1:.12f}")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(prog="fibweave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a gate word into a weave program")
    p.add_argument("--word", choices=["m", "n"], required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--seed", choices=["s", "weave"], default="weave")
    p.add_argument("--start", help="machine start state, e.g. 'Nested,D'")
    p.add_argument("--format", choices=["braidtext", "json"], default="braidtext")
    p.add_argument("--generators", action="store_true",
                   help="also emit the adjacent-exchange expansion")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="distillation success probabilities")
    p.add_argument("--scheme", choices=["one-mobile", "hierarchical"], required=True)
    p.add_argument("--n", type=int, required=True, help="pairs per side")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--j", type=int)
    p.add_argument("--perfect-gadgets", action="store_true")
    p.add_argument("--eps", type=float)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("cost", help="hierarchical braid-cost ledger")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--sweep-j", action="store_true",
                   help="report all orders up to --j")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("chain-run", help="run a weave program over pair assignments")
    p.add_argument("program", nargs="?", help="program file ('-' or absent: stdin)")
    p.add_argument("--variant", type=int, choices=[0, 1], default=0)
    p.set_defaults(func=_cmd_chain_run)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except distill.PlanningError as exc:
        print(f"planning error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
