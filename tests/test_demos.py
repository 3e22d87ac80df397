"""The demos run end to end as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import asrrl

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run_demo(name, tmp_path):
    """Demos write demo_runs/ under the working directory, so a demo runs
    in tmp_path, importing the asrrl these tests import."""
    src = str(Path(asrrl.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, str(DEMOS / name)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_oracle_check_demo_exits_0(tmp_path):
    assert "oracle" in _run_demo("oracle_check.py", tmp_path)


def test_reward_ablation_demo_exits_0(tmp_path):
    assert "sim_only" in _run_demo("reward_ablation.py", tmp_path)
