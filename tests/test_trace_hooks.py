"""The benchmark's timing shims (benchmarks/spans.py) patch entry points by
name; a refactor that drops one of those names must fail here, not only in
traced benchmark runs."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in a fresh interpreter so that no shim leaks into other tests
SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import fibweave
from fibweave import distill
from spans import Tracer

tracer = Tracer()
tracer.install(fibweave)
tracer.op = 0
result = distill.run_end_to_end([1], [1], 0)
print(json.dumps({{
    "probability": result["probability"],
    "exchanges": result["exchanges"],
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
    assert {
        "distill.run",
        "distill.plan",
        "words.build",
        "weave.compile",
        "weave.expand",
        "chain.braid",
        "chain.merge",
        "chain.prune",
    } <= set(out["spans"])
