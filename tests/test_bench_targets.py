"""The benchmark drives the package from outside: every name its tracer
patches must exist, each workload's set-up must still run, and a short
ss_ref run must pass its correctness gates."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402


def test_every_traced_name_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.TARGETS
               if not hasattr(owner, attr)]
    assert len(tracing.TARGETS) >= 31
    assert missing == []


@pytest.mark.parametrize("workload", ["ss_ref", "oracle_lowdim", "scored_eval"])
def test_workload_setup_runs(workload):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--setup-only"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ready\n"


def test_short_ss_ref_run_passes_its_gates():
    """Held-out, checkpoint round-trip, telescoping and determinism gates
    of a 1-second ss_ref run."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "ss_ref",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
