"""Tests of the benchmark itself:  python3 -m pytest benchmarks -q"""
import copy

import pytest

import checkout
import make_reference
import worker
import workloads

FW = checkout.use_source_tree()
TABLE = make_reference.load()


def make(name, seed=7, table=TABLE):
    return workloads.make(name, seed, FW, table)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_ops(name):
    a, b, other = make(name), make(name), make(name, seed=8)
    assert a.warmup() == b.warmup()
    assert a.ops(3) == b.ops(3)
    assert a.ops(1) != other.ops(1)
    # a cycle is a fixed multiset of shapes: only order and parameters vary
    assert sorted(map(a.label, a.ops(1))) == sorted(map(a.label, other.ops(1)))


def test_routes_ops_are_distinct():
    ops = make("routes").ops(1)
    keys = [make_reference.key(o["left"], o["right"], o["j"]) for o in ops]
    assert len(keys) == len(set(keys)) == 108


@pytest.mark.parametrize(
    "name, op, entry",
    [
        ("routes", {"left": [1], "right": [1], "j": 1}, ("1/1/j1", "physical")),
        ("protocol", {"n": 1, "j": 1, "p": 0.3}, ("1/1/j1", "composite")),
    ],
)
def test_perturbed_reference_raises_fail_frac(name, op, entry):
    assert [r["ok"] for r in worker.run_ops(make(name), [op])] == [True]
    table = copy.deepcopy(TABLE)
    key, column = entry
    table["entries"][key][column] += 1e-6
    records = worker.run_ops(make(name, table=table), [op])
    assert [r["ok"] for r in records] == [False]
    assert "reference" in records[0]["error"]


def test_raising_op_is_counted_and_run_goes_on():
    ops = [
        {"left": [1], "right": [1], "j": 1},
        {"left": [2], "right": [1], "j": 1},  # charge 2 does not exist
        {"left": [1], "right": [0, 1], "j": 1},
    ]
    records = worker.run_ops(make("routes"), ops)
    assert [r["ok"] for r in records] == [True, False, True]
    assert records[1]["error"].startswith("ValueError")
    assert worker.summarize(records)["samples"] == 2


@pytest.mark.parametrize(
    "n, percentile",
    [(5, 5000), (20, 5000), (39, 5000), (40, 7500), (99, 7500), (100, 9000),
     (199, 9000), (200, 9500), (999, 9500), (1000, 9900), (2000, 9950),
     (10000, 9990), (100000, 9999)],
)
def test_tail_takes_highest_percentile_with_ten_beyond(n, percentile):
    assert worker.tail_percentile(n) == percentile


def test_tail_value_and_report():
    records = [{"latency": float(x), "ok": True} for x in range(100, 0, -1)]
    s = worker.summarize(records)
    assert (s["op_p50_s"], s["op_tail_s"]) == (50.0, 90.0)
    assert (s["tail_percentile"], s["samples"], s["tail_beyond"]) == (90.0, 100, 10)


def test_certify_reference_agrees_with_compiler_from_every_start():
    wl = make("certify")
    ops = [
        {"op": "word", "word": w, "j": j, "start": list(s)}
        for w in ("S", "W", "N")
        for j in range(4)
        for s in workloads._STATES
    ]
    records = worker.run_ops(wl, ops)
    assert all(r["ok"] for r in records), [r.get("error") for r in records if not r["ok"]]
