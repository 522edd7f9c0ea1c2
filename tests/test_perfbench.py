"""Smoke test for the benchmark's traced run.

`perfbench/tracing.py` rebinds phekit names by attribute (module functions,
`Scheme` and `PHE` methods). A refactor that drops or moves one of them
breaks the traced run; this catches it here rather than in the next
benchmark run. The per-scheme `encrypt`/`decrypt` spans are wrapped on the
class that defines the method, so `roundtrip` also checks that every
algorithm still records them. `cli` runs each command as a child process
and replays it in process under tracing; the two must write the same bytes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from phekit.schemes import SCHEME_CLASSES

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["tally", "roundtrip", "cli"])
def test_traced_run_completes(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    if workload == "roundtrip":
        metrics = result["metrics"]
        for algorithm in SCHEME_CLASSES:
            for op in ("encrypt", "decrypt"):
                assert metrics[f"schemes.{algorithm}.{op}_ms"]["value"] > 0, (
                    algorithm, op)
