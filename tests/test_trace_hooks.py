"""The benchmark's timing shims (benchmarks/spans.py) patch entry points by
name; a refactor that drops one of those names must fail here, not only in
traced benchmark runs."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from fibweave.model import TAU_F

ROOT = Path(__file__).resolve().parents[1]

# run in a fresh interpreter so that no shim leaks into other tests
SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import fibweave
from fibweave import converge, distill, model, words
from spans import Tracer

tracer = Tracer()
tracer.install(fibweave)


def braid(op):
    spans = [
        k for k, c in enumerate(tracer.name)
        if tracer.names[c] == "chain.braid" and tracer.opid[k] == op
    ]
    return [len(spans), sum(tracer.work[k] for k in spans), sum(tracer.out[k] for k in spans)]


tracer.op = 0
result = distill.run_end_to_end([1], [1], 0)
tracer.op = 1
larger = distill.run_end_to_end([1, 1], [1, 0], 1, route="physical")
# the certify path: constants, a big-precision word and a converge sequence
consts = model.make_constants(128)
w = words.evaluate(words.m_word(2), consts)
u = model.make_constants(256).F  # unitary at its 256 bits
v = converge.iconverge(u)
print(json.dumps({{
    "probability": result["probability"],
    "exchanges": result["exchanges"],
    "w00": float(abs(w.a00)),
    "iconverge_gap": abs(float(abs(v.a10)) - float(abs(u.a10)) ** 5),
    "spans": sorted({{tracer.names[c] for c in tracer.name}}),
    "braid": braid(0),
    "larger_exchanges": larger["exchanges"],
    "larger_braid_calls": braid(1)[0],
}}))
"""


def test_shims_install_and_trace_a_run():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "benchmarks"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert abs(out["probability"] - 0.0657780874821243) < 1e-12
    assert out["exchanges"] == 20
    # chain.braid spans: calls, amplitudes in, amplitudes out.  The shim
    # counts amplitudes with len(Chain.amps), so a count of anything else
    # (descriptor groups, say) would silently redefine chain.amps_touched.
    assert out["braid"] == [20, 97, 98]
    # every physical exchange runs through the traced kernel, one call each
    assert out["larger_exchanges"] == out["larger_braid_calls"] == 748
    assert abs(out["w00"] * TAU_F**50 - 1) < 1e-12  # |W00| = tau^(-2*5^2)
    assert out["iconverge_gap"] < 1e-14
    assert {
        "distill.run",
        "distill.plan",
        "words.build",
        "weave.compile",
        "weave.expand",
        "chain.braid",
        "chain.merge",
        "chain.prune",
        "model.constants",
        "words.evaluate",
        "numerics.exp_i_pi",
        "converge.sequence",
    } <= set(out["spans"])
