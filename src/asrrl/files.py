"""Whole-file writes: a reader finds the previous file or the new one,
never a half-written one."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replace_on_success(path, newline: str | None = None):
    """Text handle on a temporary file beside path.

    When the block ends normally the file replaces path in one
    os.replace; when it raises, the temporary file is removed and path
    keeps its previous bytes. A symlink keeps pointing at the replaced
    file. A device or pipe (``/dev/stdout``) is written through, as it
    holds no file to keep whole.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
