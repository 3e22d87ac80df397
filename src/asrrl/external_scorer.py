"""Newline-delimited JSON protocol for out-of-process scorers.

Lets real MOS/ASR/voiceprint models be plugged in later without linking
them into this package. One UTF-8 JSON object per line in each
direction; responses may arrive out of order and are matched by id.

Request:  {"id": <u64>, "kind": "sim"|"mos"|"intell",
           "speech": [f64...], "target": [f64...]|null, "text_id": <u64>|null}
Response: {"id": <u64>, "score": <f64>}  or  {"id": <u64>, "error": "<message>"}
A boolean id or score, or an integer score too large for an f64, is a ScorerFault.
"""

from __future__ import annotations

import json
import subprocess
import threading
from typing import IO, Sequence

import numpy as np

from .scoring import SCORE_RANGES, ScoreContext, ScorerFault, _check_range


class ExternalScorerClient:
    """Client side of the scorer protocol over a pair of byte streams.

    Requests on one connection are serialized by an internal lock; use
    several clients for concurrent scoring.
    """

    def __init__(self, reader: IO[bytes], writer: IO[bytes], kind: str = "sim"):
        if kind not in SCORE_RANGES:
            raise ValueError(f"unknown scorer kind {kind!r}")
        self.kind = kind
        self._reader = reader
        self._writer = writer
        self._lock = threading.Lock()
        self._next_id = 0
        self._pending: dict[int, float] = {}
        self._proc: subprocess.Popen | None = None

    @classmethod
    def spawn(cls, cmd: Sequence[str], kind: str = "sim") -> "ExternalScorerClient":
        """Spawn a scorer subprocess and attach to its stdio."""
        proc = subprocess.Popen(
            list(cmd), stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        client = cls(proc.stdout, proc.stdin, kind=kind)
        client._proc = proc
        return client

    def close(self) -> None:
        try:
            self._writer.close()
        except OSError:
            pass
        if self._proc is not None:
            self._proc.wait(timeout=10)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def submit(
        self,
        kind: str,
        speech: np.ndarray,
        target: np.ndarray | None = None,
        text_id: int | None = None,
    ) -> int:
        """Send one request; returns its id for later collection."""
        with self._lock:
            req_id = self._next_id
            self._next_id += 1
            msg = {
                "id": req_id,
                "kind": kind,
                "speech": np.asarray(speech, dtype=np.float64).tolist(),
                "target": None
                if target is None
                else np.asarray(target, dtype=np.float64).tolist(),
                "text_id": text_id,
            }
            line = json.dumps(msg) + "\n"
            try:
                self._writer.write(line.encode("utf-8"))
                self._writer.flush()
            except (OSError, ValueError) as exc:
                raise ScorerFault(f"failed to send request {req_id}: {exc}") from exc
        return req_id

    def _read_one(self) -> None:
        """Read one response line into the pending map."""
        try:
            line = self._reader.readline()
        except (OSError, ValueError) as exc:
            raise ScorerFault(f"connection lost: {exc}") from exc
        if not line:
            raise ScorerFault("scorer closed the connection")
        try:
            msg = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or JSON, or an int of over 4,300 digits
            raise ScorerFault(f"malformed response line: {exc}") from exc
        if not isinstance(msg, dict) or type(msg.get("id")) is not int:  # bool is no id
            raise ScorerFault(f"response without integer id: {line!r}")
        if "error" in msg:
            raise ScorerFault(f"scorer error for id {msg['id']}: {msg['error']}")
        if type(msg.get("score")) not in (int, float):  # nor a score
            raise ScorerFault(f"response without numeric score: {line!r}")
        try:
            self._pending[msg["id"]] = float(msg["score"])
        except OverflowError:  # an int past the f64 range; 1e999 parses as inf
            raise ScorerFault(f"score too large for an f64: {line!r}") from None

    def wait(self, req_id: int) -> float:
        """Block until the response for req_id arrives; raw, unchecked score."""
        with self._lock:
            while req_id not in self._pending:
                self._read_one()
            return self._pending.pop(req_id)

    def score(self, speech: np.ndarray, context: ScoreContext) -> float:
        """Synchronous request/response, satisfying the Scorer protocol."""
        req_id = self.submit(
            self.kind, speech, target=context.target_voiceprint,
            text_id=context.text_id,
        )
        return _check_range(self.kind, self.wait(req_id))


def serve_stdio(score_fn) -> None:
    """Reference server loop: read requests from stdin, reply on stdout.

    ``score_fn(kind, speech, target, text_id) -> float``. Exceptions are
    reported in-band as protocol errors; a line with no readable id gets
    ``{"id": null, "error": ...}``.
    """
    import sys

    for raw in sys.stdin.buffer:
        raw = raw.strip()
        if not raw:
            continue
        req_id = None
        try:
            msg = json.loads(raw.decode("utf-8"))
            req_id = msg["id"]
            score = float(
                score_fn(
                    msg["kind"],
                    np.asarray(msg["speech"], dtype=np.float64),
                    None if msg.get("target") is None
                    else np.asarray(msg["target"], dtype=np.float64),
                    msg.get("text_id"),
                )
            )
            reply = {"id": req_id, "score": score}
        except Exception as exc:
            reply = {"id": req_id, "error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.buffer.write((json.dumps(reply) + "\n").encode("utf-8"))
        sys.stdout.buffer.flush()
