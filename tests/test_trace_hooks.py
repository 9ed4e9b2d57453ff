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
tracer.op = 0
result = distill.run_end_to_end([1], [1], 0)
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
