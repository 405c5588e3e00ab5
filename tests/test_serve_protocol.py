"""The serve wire protocol: schema validation, framing, golden round-trips.

Three layers:

* pure validators — requests, job specs, responses, with the repo's
  bool-is-not-int convention;
* :class:`repro.serve.protocol.LineReader` over a real socketpair —
  clean EOF vs truncation vs the oversized cap, lines split across and
  packed within chunks;
* golden round-trips against a live daemon — malformed / oversized /
  truncated requests get a structured error and a clean close, while
  schema-invalid-but-well-framed requests get an error and the
  connection stays usable.
"""

from __future__ import annotations

import json
import os
import socket

import pytest

from repro.serve import protocol
from repro.serve.protocol import (
    LineReader,
    ProtocolError,
    encode,
    error_response,
    read_request,
    validate_job_spec,
    validate_request,
    validate_response,
)

# -- request validation ----------------------------------------------------

def test_every_op_validates_minimal_form():
    minimal = {
        "ping": {}, "stats": {}, "drain": {},
        "submit": {"job": {"kind": "corpus", "scale": 1}},
        "status": {"job_id": "j-1"}, "result": {"job_id": "j-1"},
        "cancel": {"job_id": "j-1"}, "watch": {"job_id": "j-1"},
    }
    assert set(minimal) == set(protocol.OPS)
    for op, fields in minimal.items():
        validate_request({"op": op, **fields})
        validate_request({"op": op, "tenant": "acme", **fields})


def test_unknown_op_is_bad_request():
    with pytest.raises(ProtocolError) as excinfo:
        validate_request({"op": "launch-missiles"})
    assert excinfo.value.code == "bad-request"


def test_missing_and_unexpected_fields_are_bad_request():
    with pytest.raises(ProtocolError, match="missing field 'job_id'"):
        validate_request({"op": "status"})
    with pytest.raises(ProtocolError, match="unexpected field"):
        validate_request({"op": "ping", "extra": 1})


def test_non_object_request_is_bad_request():
    with pytest.raises(ProtocolError) as excinfo:
        validate_request([1, 2, 3])
    assert excinfo.value.code == "bad-request"


# -- job spec validation ---------------------------------------------------

def test_valid_job_specs():
    validate_job_spec({"kind": "lift", "path": "/bin/true", "priority": 5,
                       "cache": False, "cpu_seconds": 10.0,
                       "memory_bytes": 1 << 30,
                       "options": {"max_states": 100,
                                   "timeout_seconds": 1.5,
                                   "schedule": "scc",
                                   "pointer_summaries": True}})
    validate_job_spec({"kind": "corpus", "scale": 3})
    validate_job_spec({"kind": "chaos", "action": "crash_until",
                       "attempts": 2})


def test_lift_requires_path():
    with pytest.raises(ProtocolError) as excinfo:
        validate_job_spec({"kind": "lift"})
    assert excinfo.value.code == "bad-job"


def test_priority_band_is_enforced():
    with pytest.raises(ProtocolError, match="priority"):
        validate_job_spec({"kind": "corpus", "scale": 1, "priority": 101})
    with pytest.raises(ProtocolError, match="priority"):
        validate_job_spec({"kind": "corpus", "scale": 1, "priority": -101})


def test_unknown_chaos_action_and_bad_scale():
    with pytest.raises(ProtocolError, match="chaos action"):
        validate_job_spec({"kind": "chaos", "action": "meltdown"})
    with pytest.raises(ProtocolError, match="scale"):
        validate_job_spec({"kind": "corpus", "scale": 0})


def test_bool_is_not_an_int_in_specs():
    # priority lists int only; True is a bool and must be rejected.
    with pytest.raises(ProtocolError, match="priority"):
        validate_job_spec({"kind": "corpus", "scale": 1, "priority": True})
    with pytest.raises(ProtocolError, match="max_states"):
        validate_job_spec({"kind": "corpus", "scale": 1,
                           "options": {"max_states": True}})


def test_unknown_option_field_is_bad_job():
    with pytest.raises(ProtocolError, match="unexpected field"):
        validate_job_spec({"kind": "corpus", "scale": 1,
                           "options": {"turbo": True}})


def test_schedule_names_mirror_the_lifter():
    from repro.hoare.schedule import SCHEDULE_MODES

    assert set(protocol.SCHEDULE_NAMES) == set(SCHEDULE_MODES)
    for schedule in SCHEDULE_MODES:
        validate_job_spec({"kind": "corpus", "scale": 1,
                           "options": {"schedule": schedule}})


# -- response validation ---------------------------------------------------

def test_response_validation():
    validate_response({"ok": True, "job_id": "j-1"})
    validate_response(error_response("bad-json", "nope"))
    with pytest.raises(ValueError):
        validate_response({"job_id": "j-1"})           # no ok
    with pytest.raises(ValueError):
        validate_response({"ok": False})               # no error object
    with pytest.raises(ValueError):
        validate_response({"ok": False,
                           "error": {"code": "made-up", "message": "m"}})


def test_encode_is_one_sorted_json_line():
    line = encode({"b": 1, "a": 2})
    assert line.endswith(b"\n")
    assert line == b'{"a": 2, "b": 1}\n'


# -- LineReader framing ----------------------------------------------------

@pytest.fixture()
def sock_pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def test_reader_clean_eof_returns_none(sock_pair):
    left, right = sock_pair
    left.sendall(b'{"op": "ping"}\n')
    left.close()
    reader = LineReader(right)
    assert reader.readline() == b'{"op": "ping"}'
    assert reader.readline() is None


def test_reader_truncation_is_distinguished_from_eof(sock_pair):
    left, right = sock_pair
    left.sendall(b'{"op": "pi')  # no newline, then close
    left.close()
    reader = LineReader(right)
    with pytest.raises(ProtocolError) as excinfo:
        reader.readline()
    assert excinfo.value.code == "truncated"


def test_reader_oversized_line_is_capped(sock_pair):
    left, right = sock_pair
    reader = LineReader(right, max_bytes=64)
    left.sendall(b"x" * 200 + b"\n")
    with pytest.raises(ProtocolError) as excinfo:
        reader.readline()
    assert excinfo.value.code == "oversized"


def test_reader_handles_split_and_packed_lines(sock_pair):
    left, right = sock_pair
    reader = LineReader(right)
    left.sendall(b'{"op": "ping"}\n{"op": ')
    assert reader.readline() == b'{"op": "ping"}'
    left.sendall(b'"stats"}\n')
    assert reader.readline() == b'{"op": "stats"}'


def test_read_request_rejects_bad_json(sock_pair):
    left, right = sock_pair
    left.sendall(b"this is not json\n")
    reader = LineReader(right)
    with pytest.raises(ProtocolError) as excinfo:
        read_request(reader)
    assert excinfo.value.code == "bad-json"


def test_read_request_round_trip(sock_pair):
    left, right = sock_pair
    left.sendall(encode({"op": "status", "job_id": "j-7"}))
    assert read_request(LineReader(right)) == {"op": "status",
                                               "job_id": "j-7"}


# -- golden round-trips against a live daemon ------------------------------

@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    from repro.serve import Server, ServerConfig

    tmp = tmp_path_factory.mktemp("serve-protocol")
    server = Server(ServerConfig(socket_path=str(tmp / "s.sock"),
                                 workers=1, cache=False))
    server.start()
    yield server
    server.close()


def _raw(daemon) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(daemon.config.socket_path)
    return sock


def _lines(sock) -> list[dict]:
    """Read every response line until the server closes the connection."""
    buffer = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        buffer += chunk
    return [json.loads(line) for line in buffer.splitlines() if line]


def test_malformed_json_gets_error_and_clean_close(daemon):
    with _raw(daemon) as sock:
        sock.sendall(b"{{{ nope\n")
        responses = _lines(sock)
    assert len(responses) == 1
    assert responses[0]["ok"] is False
    assert responses[0]["error"]["code"] == "bad-json"


def test_oversized_request_gets_error_and_clean_close(daemon):
    with _raw(daemon) as sock:
        sock.sendall(b'{"op": "ping", "pad": "'
                     + b"x" * (protocol.MAX_LINE_BYTES + 100) + b'"}\n')
        responses = _lines(sock)
    assert responses[0]["error"]["code"] == "oversized"


def test_truncated_request_gets_error_and_clean_close(daemon):
    with _raw(daemon) as sock:
        sock.sendall(b'{"op": "ping"')  # newline never arrives
        sock.shutdown(socket.SHUT_WR)
        responses = _lines(sock)
    assert responses[0]["error"]["code"] == "truncated"


def test_schema_error_keeps_the_connection_open(daemon):
    with _raw(daemon) as sock:
        reader = LineReader(sock)
        sock.sendall(encode({"op": "no-such-op"}))
        first = json.loads(reader.readline())
        assert first["error"]["code"] == "bad-request"
        # Same connection, next request still answered.
        sock.sendall(encode({"op": "ping"}))
        second = json.loads(reader.readline())
        assert second["ok"] is True


def _submit_then_ping(daemon, job: dict) -> dict:
    """Submit *job* on one connection, then check the same connection
    still answers a ping; returns the submit response."""
    with _raw(daemon) as sock:
        reader = LineReader(sock)
        sock.sendall(encode({"op": "submit", "job": job}))
        response = json.loads(reader.readline())
        sock.sendall(encode({"op": "ping"}))
        assert json.loads(reader.readline())["ok"] is True
    return response


def test_unknown_schedule_is_bad_job(daemon):
    # Rejected by the schema, not deep inside a worker's lift call.
    response = _submit_then_ping(daemon, {
        "kind": "corpus", "scale": 1, "options": {"schedule": "random"}})
    assert response["error"]["code"] == "bad-job"
    assert "unknown schedule" in response["error"]["message"]


def test_engine_option_is_an_unknown_field(daemon):
    response = _submit_then_ping(daemon, {
        "kind": "corpus", "scale": 1, "options": {"engine": "tau"}})
    assert response["error"]["code"] == "bad-job"
    assert "unexpected field 'engine'" in response["error"]["message"]


def test_bad_job_spec_gets_structured_error(daemon):
    with _raw(daemon) as sock:
        reader = LineReader(sock)
        sock.sendall(encode({"op": "submit",
                             "job": {"kind": "chaos", "action": "meltdown"}}))
        response = json.loads(reader.readline())
    assert response["error"]["code"] == "bad-job"


def test_chaos_is_refused_without_allow_chaos(daemon):
    with _raw(daemon) as sock:
        reader = LineReader(sock)
        sock.sendall(encode({"op": "submit",
                             "job": {"kind": "chaos", "action": "sleep"}}))
        response = json.loads(reader.readline())
    assert response["error"]["code"] == "chaos-disabled"


def test_unliftable_path_is_bad_job(daemon, tmp_path):
    junk = tmp_path / "junk.elf"
    junk.write_bytes(b"\x00not an elf")
    with _raw(daemon) as sock:
        reader = LineReader(sock)
        sock.sendall(encode({"op": "submit",
                             "job": {"kind": "lift", "path": str(junk)}}))
        response = json.loads(reader.readline())
    assert response["error"]["code"] == "bad-job"
    with _raw(daemon) as sock:
        reader = LineReader(sock)
        sock.sendall(encode({"op": "submit",
                             "job": {"kind": "lift",
                                     "path": str(tmp_path / "absent")}}))
        response = json.loads(reader.readline())
    assert response["error"]["code"] == "bad-job"


def test_every_wire_response_validates(daemon):
    with _raw(daemon) as sock:
        reader = LineReader(sock)
        for request in ({"op": "ping"}, {"op": "stats"},
                        {"op": "status", "job_id": "nope"},
                        {"op": "result", "job_id": "nope"},
                        {"op": "cancel", "job_id": "nope"}):
            sock.sendall(encode(request))
            validate_response(json.loads(reader.readline()))


def test_unknown_job_errors_do_not_leak_existence(daemon):
    with _raw(daemon) as sock:
        reader = LineReader(sock)
        for op in ("status", "result", "cancel"):
            sock.sendall(encode({"op": op, "job_id": "j-999999"}))
            response = json.loads(reader.readline())
            assert response["error"]["code"] == "unknown-job"
