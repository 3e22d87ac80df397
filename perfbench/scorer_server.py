"""Deterministic similarity scorer served over the NDJSON stdio protocol.

Scores (1 + cos) / 2 between the leading components of the speech
features and the target voiceprint, so every reply lies in [0, 1] and
equal requests get equal replies. Run by the benchmark as:

    python3 perfbench/scorer_server.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from asrrl.external_scorer import serve_stdio  # noqa: E402


def score(kind, speech, target, text_id):
    if target is None:
        return 0.5
    v = speech[: len(target)]
    nv, nt = np.linalg.norm(v), np.linalg.norm(target)
    if nv == 0.0 or nt == 0.0:
        return 0.5
    cos = float(np.clip(np.dot(v, target) / (nv * nt), -1.0, 1.0))
    return (1.0 + cos) / 2.0


if __name__ == "__main__":
    serve_stdio(score)
