"""The traced benchmark patches package names from outside; each must exist."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402


def test_every_traced_name_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.TARGETS
               if not hasattr(owner, attr)]
    assert len(tracing.TARGETS) >= 31
    assert missing == []
