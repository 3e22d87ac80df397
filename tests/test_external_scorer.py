"""Newline-delimited JSON scorer protocol: matching, faults, subprocess."""

import io
import json
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import asrrl
from asrrl.external_scorer import ExternalScorerClient
from asrrl.scoring import ScoreContext, ScoreRangeError, ScorerFault


def _pair():
    a, b = socket.socketpair()
    client = ExternalScorerClient(a.makefile("rb"), a.makefile("wb"))
    server = (b.makefile("rb"), b.makefile("wb"))
    return client, server, (a, b)


def _serve_shuffled(reader, writer, score_of, batch=7):
    """Reply with score_of(msg), holding batches and flushing them reversed."""
    held = []

    def flush():
        for reply in reversed(held):
            writer.write((json.dumps(reply) + "\n").encode())
        writer.flush()
        held.clear()

    for line in reader:
        msg = json.loads(line)
        held.append({"id": msg["id"], "score": score_of(msg)})
        if len(held) >= batch:
            flush()
    flush()


def test_out_of_order_matching_zero_mismatches():
    client, (sr, sw), socks = _pair()
    t = threading.Thread(
        target=_serve_shuffled, args=(sr, sw, lambda m: m["speech"][0]),
        daemon=True,
    )
    t.start()
    rng = np.random.default_rng(0)
    mismatches = 0
    total = 0
    for _ in range(10_000 // 49):
        ids = [client.submit("sim", [i * 1e-4]) for i in
               range(total, total + 49)]
        total += 49
        for req_id in rng.permutation(ids):
            if client.wait(int(req_id)) != req_id * 1e-4:
                mismatches += 1
    assert total >= 9900 and mismatches == 0
    client.close()
    for s in socks:
        s.close()


def _respond_raw(server, payload: bytes):
    _, sw = server
    sw.write(payload)
    sw.flush()


def test_request_line_keeps_every_float_exact():
    client, (reader, _), socks = _pair()
    values = np.array([-0.0, 5e-324, 0.1, 1e308])
    client.submit("sim", values, target=values[::-1], text_id=7)
    line = reader.readline()
    assert line == (b'{"id": 0, "kind": "sim", "speech": [-0.0, 5e-324, 0.1, 1e+308], '
                    b'"target": [1e+308, 0.1, 5e-324, -0.0], "text_id": 7}\n')
    # the numbers read back bit-exactly
    msg = json.loads(line)
    assert np.array(msg["speech"]).tobytes() == values.tobytes()
    client.close()
    for s in socks:
        s.close()


def test_malformed_line_is_a_fault_not_a_score():
    client, server, socks = _pair()
    req = client.submit("sim", [0.5])
    _respond_raw(server, b"this is not json\n")
    with pytest.raises(ScorerFault, match="malformed"):
        client.wait(req)
    for s in socks:
        s.close()


def test_error_response_is_a_fault():
    client, server, socks = _pair()
    req = client.submit("mos", [0.5])
    _respond_raw(server, json.dumps({"id": req, "error": "model crashed"})
                 .encode() + b"\n")
    with pytest.raises(ScorerFault, match="model crashed"):
        client.wait(req)
    for s in socks:
        s.close()


def test_response_without_id_or_score_is_a_fault():
    client, server, socks = _pair()
    req = client.submit("sim", [0.5])
    _respond_raw(server, b'{"score": 0.5}\n')
    with pytest.raises(ScorerFault, match="id"):
        client.wait(req)
    for s in socks:
        s.close()
    client2, server2, socks2 = _pair()
    req = client2.submit("sim", [0.5])
    _respond_raw(server2, json.dumps({"id": req, "score": "high"})
                 .encode() + b"\n")
    with pytest.raises(ScorerFault, match="numeric"):
        client2.wait(req)
    for s in socks2:
        s.close()


def test_boolean_score_is_a_fault_not_one():
    client, server, socks = _pair()
    req = client.submit("sim", [0.5])
    _respond_raw(server, json.dumps({"id": req, "score": True}).encode() + b"\n")
    with pytest.raises(ScorerFault, match="numeric"):
        client.wait(req)
    for s in socks:
        s.close()


def test_boolean_id_is_a_fault_not_request_one():
    client, server, socks = _pair()
    client.submit("sim", [0.5])
    req = client.submit("sim", [0.5])
    assert req == 1
    _respond_raw(server, b'{"id": true, "score": 0.25}\n')
    with pytest.raises(ScorerFault, match="id"):
        client.wait(req)
    for s in socks:
        s.close()


@pytest.mark.parametrize("digits, match", [
    (401, re.escape("""score too large for an f64: b'{"id": 0, "score": 1000""")),
    (5000, "malformed response line: Exceeds the limit")])
def test_integer_score_too_large_for_an_f64_is_a_fault(digits, match):
    """The protocol's score is an <f64>: an integer past its range is a
    fault naming the line, as is one too long for Python to parse."""
    reply = b'{"id": 0, "score": 1' + b"0" * (digits - 1) + b"}\n"
    client = ExternalScorerClient(io.BytesIO(reply), io.BytesIO())
    with pytest.raises(ScorerFault, match=match):
        client.score(np.array([0.5]), ScoreContext())


@pytest.mark.parametrize("score", [b"1e999", b"-1e999", b"NaN", b"Infinity"])
def test_non_finite_score_is_a_range_error(score):
    client = ExternalScorerClient(io.BytesIO(b'{"id": 0, "score": ' + score + b"}\n"),
                                  io.BytesIO())
    with pytest.raises(ScoreRangeError):
        client.score(np.array([0.5]), ScoreContext())


def test_closed_connection_is_a_fault():
    client, server, socks = _pair()
    req = client.submit("sim", [0.5])
    server[0].close()
    server[1].close()
    socks[1].close()
    with pytest.raises(ScorerFault, match="closed|lost"):
        client.wait(req)
    socks[0].close()


def test_out_of_range_score_is_a_range_error_not_a_fault():
    client, server, socks = _pair()

    def answer():
        line = server[0].readline()
        msg = json.loads(line)
        _respond_raw(server, json.dumps({"id": msg["id"], "score": 1.5})
                     .encode() + b"\n")

    threading.Thread(target=answer, daemon=True).start()
    with pytest.raises(ScoreRangeError):
        client.score(np.array([0.1]), ScoreContext())
    for s in socks:
        s.close()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ExternalScorerClient(None, None, kind="loudness")


# the server imports the asrrl these tests import, with or without PYTHONPATH
SERVER_SCRIPT = f"""
import sys
sys.path.insert(0, {str(Path(asrrl.__file__).resolve().parents[1])!r})
from asrrl.external_scorer import serve_stdio

def score(kind, speech, target, text_id):
    if kind == "intell":
        raise RuntimeError("no reference text")
    return float(speech[0])

serve_stdio(score)
"""


def test_spawned_stdio_server_roundtrip():
    with ExternalScorerClient.spawn([sys.executable, "-c", SERVER_SCRIPT],
                                    kind="sim") as client:
        ctx = ScoreContext(target_voiceprint=np.array([1.0, 0.0]), text_id=3)
        assert client.score(np.array([0.75, 0.0]), ctx) == 0.75
        # request/response ids stay matched across many calls
        for i in range(50):
            assert client.score(np.array([i / 100.0]), ctx) == i / 100.0
        # an exception on the server side surfaces in-band as a fault
        req = client.submit("intell", [0.1])
        with pytest.raises(ScorerFault, match="no reference text"):
            client.wait(req)


def test_stdio_server_answers_unattributable_lines_in_band():
    """A line with no readable id gets {"id": null, "error": ...}, which
    the client raises as ScorerFault instead of waiting forever."""
    requests = [b"not json", b'{"kind": "sim", "speech": [0.5]}', b"[1, 2]",
                b'{"id": 4, "kind": "sim", "speech": [0.5]}']
    out = subprocess.run([sys.executable, "-c", SERVER_SCRIPT],
                         input=b"\n".join(requests) + b"\n",
                         capture_output=True, timeout=60, check=True).stdout
    replies = out.splitlines()
    assert len(replies) == len(requests)
    for line in replies[:3]:
        msg = json.loads(line)
        assert msg["id"] is None and msg["error"]
    assert json.loads(replies[3]) == {"id": 4, "score": 0.5}
    client = ExternalScorerClient(io.BytesIO(replies[0] + b"\n"), io.BytesIO())
    with pytest.raises(ScorerFault, match="without integer id"):
        client.wait(0)
