"""Freeze the per-assignment success table the benchmark checks against.

    python3 benchmarks/make_reference.py            # writes reference.json

For 1-2 pairs per side, every pair-charge assignment and gadget orders
j = 0..3, the one-mobile protocol is run on both routes.  The physical
route expands every gadget into adjacent exchanges over all anyons; the
composite route folds finished groups into composites.  Neither feeds
the other, so their agreement is a real check: the table is written only
if every entry agrees within ROUTE_GAP_BOUND.  Once written, the table
is data.  The protocol, routes and sample workloads compare the code
under test with it and do not recompute it.
"""
from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

import checkout

TABLE = Path(__file__).resolve().parent / "reference.json"
ROUTE_GAP_BOUND = 1e-11
ORDERS = (0, 1, 2, 3)
SIDE_SIZES = (1, 2)


def key(left, right, j):
    return f"{''.join(map(str, left))}/{''.join(map(str, right))}/j{j}"


def assignments(n):
    return [tuple(c) for c in itertools.product((0, 1), repeat=n)]


def load():
    with open(TABLE) as f:
        return json.load(f)


def build():
    fw = checkout.use_source_tree()
    from fibweave import distill

    entries = {}
    worst = 0.0
    for j in ORDERS:
        for nl, nr in itertools.product(SIDE_SIZES, SIDE_SIZES):
            for left in assignments(nl):
                for right in assignments(nr):
                    phys = distill.run_end_to_end(left, right, j, route="physical")
                    comp = distill.run_end_to_end(left, right, j, route="composite")
                    gap = abs(phys["probability"] - comp["probability"])
                    worst = max(worst, gap)
                    entries[key(left, right, j)] = {
                        "physical": phys["probability"],
                        "composite": comp["probability"],
                        "physical_exchanges": phys["exchanges"],
                        "composite_exchanges": comp["exchanges"],
                    }
    add_exchanges = {
        str(j): distill.plan_one_mobile(1, 1, j)["add_exchanges"] for j in ORDERS
    }
    return {
        "what": "one-mobile success probability per pair-charge assignment",
        "source_git_sha": checkout.git_sha(),
        "source_sha256": checkout.source_digest(),
        "fibweave_version": fw.__version__,
        "route_gap_bound": ROUTE_GAP_BOUND,
        "max_route_gap": worst,
        "add_exchanges": add_exchanges,
        "entries": entries,
    }


def main():
    t0 = time.monotonic()
    table = build()
    gap = table["max_route_gap"]
    if not gap <= ROUTE_GAP_BOUND:
        print(
            f"refusing to write {TABLE.name}: routes differ by {gap:.3e} "
            f"(bound {ROUTE_GAP_BOUND:.0e})",
            file=sys.stderr,
        )
        return 1
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(
        f"wrote {len(table['entries'])} entries to {TABLE.name}; "
        f"max route gap {gap:.3e}; {time.monotonic() - t0:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
