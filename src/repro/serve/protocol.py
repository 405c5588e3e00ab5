"""The lifting-service wire protocol: schema-validated JSONL over a socket.

One request object per line, one (or more, for ``watch``) response objects
per line, UTF-8 JSON, ``\\n``-terminated.  The schema is validated on
*both* ends — the server rejects malformed requests with a structured
error reply, and the client refuses to surface a malformed response —
mirroring :mod:`repro.obs.progress`, where a schema violation is a bug in
the emitter, not a consumer problem.

Framing failure modes (all answered, then the connection is closed):

* **not JSON** — ``{"ok": false, "error": {"code": "bad-json", ...}}``;
* **oversized** — a request line longer than :data:`MAX_LINE_BYTES`
  yields ``code = "oversized"`` (the reader stops buffering at the cap,
  so a hostile client cannot balloon server memory);
* **truncated** — EOF with a partial line buffered yields
  ``code = "truncated"``.

Schema-invalid but well-framed requests (unknown op, missing fields, bad
job specs) get a structured error and the connection **stays open** —
the client made a request, it can make another.

Requests::

    {"op": "ping"}
    {"op": "submit", "job": {...}, "tenant": "acme"}
    {"op": "status", "job_id": "j-3", "tenant": "acme"}
    {"op": "result", "job_id": "j-3", "tenant": "acme"}
    {"op": "cancel", "job_id": "j-3", "tenant": "acme"}
    {"op": "watch",  "job_id": "j-3", "tenant": "acme"}
    {"op": "stats"}
    {"op": "drain"}

Job specs (the ``job`` field of ``submit``)::

    {"kind": "lift",   "path": "/abs/bin.elf", "priority": 5, ...options}
    {"kind": "corpus", "scale": 1, ...options}
    {"kind": "chaos",  "action": "sleep|crash|crash_until|spin|alloc", ...}

``chaos`` jobs exist for the fault-injection test suite and CI smoke and
are refused unless the server was started with ``allow_chaos``.

Every response carries ``"ok"``; errors carry ``error.code`` from
:data:`ERROR_CODES` and a human ``error.message``.  ``watch`` streams
heartbeat events (``{"event": {...}}`` envelopes, schema-validated by
:func:`repro.obs.progress.validate_progress_obj`) and terminates with a
normal ``{"ok": true, "job": {...}}`` line.

Stdlib-only; imports nothing from :mod:`repro` outside :mod:`repro.obs`.
"""

from __future__ import annotations

import json
import socket
from typing import Any

#: Hard cap on one request/response line (bytes, newline included).
MAX_LINE_BYTES = 1 << 20

#: Priorities outside this band are schema errors (bigger = sooner).
MIN_PRIORITY, MAX_PRIORITY = -100, 100

PROTOCOL_VERSION = 1

OPS = ("ping", "submit", "status", "result", "cancel", "watch", "stats",
       "drain")

#: op -> {field: allowed types}; "op" itself is implied.
_OP_FIELDS: dict[str, dict[str, tuple]] = {
    "ping": {},
    "submit": {"job": (dict,)},
    "status": {"job_id": (str,)},
    "result": {"job_id": (str,)},
    "cancel": {"job_id": (str,)},
    "watch": {"job_id": (str,)},
    "stats": {},
    "drain": {},
}

#: Optional per-op fields (tenant defaults server-side to "default").
_OP_OPTIONAL: dict[str, dict[str, tuple]] = {
    op: {"tenant": (str,)} for op in OPS
}

JOB_KINDS = ("lift", "corpus", "chaos")

CHAOS_ACTIONS = ("sleep", "crash", "crash_until", "spin", "alloc")

#: Lift options forwarded verbatim into the lifter (subset of ``lift()``).
_OPTION_FIELDS: dict[str, tuple] = {
    "max_states": (int,),
    "timeout_seconds": (int, float),
    "schedule": (str,),
    "pointer_summaries": (bool,),
}

#: Bag orders a job may request (mirrors repro.hoare.schedule.SCHEDULE_MODES,
#: restated here because the protocol module must stay stdlib-only).
SCHEDULE_NAMES = ("address", "scc")

#: job kind -> {field: (required, allowed types)}.
_JOB_FIELDS: dict[str, dict[str, tuple[bool, tuple]]] = {
    "lift": {"path": (True, (str,))},
    "corpus": {"scale": (True, (int,))},
    "chaos": {
        "action": (True, (str,)),
        "seconds": (False, (int, float)),
        "attempts": (False, (int,)),
        "bytes": (False, (int,)),
    },
}

#: Fields every job spec may carry on top of its kind-specific ones.
_JOB_COMMON: dict[str, tuple[bool, tuple]] = {
    "kind": (True, (str,)),
    "priority": (False, (int,)),
    "cache": (False, (bool,)),
    "cpu_seconds": (False, (int, float)),
    "memory_bytes": (False, (int,)),
    "options": (False, (dict,)),
}

ERROR_CODES = frozenset({
    "bad-json", "oversized", "truncated", "bad-request", "bad-job",
    "unknown-job", "forbidden", "not-done", "draining", "chaos-disabled",
    "internal",
})

#: Error codes after which the server closes the connection.
CLOSING_ERRORS = frozenset({"bad-json", "oversized", "truncated"})


class ProtocolError(ValueError):
    """A schema or framing violation, tagged with its error code."""

    def __init__(self, code: str, message: str) -> None:
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message


def _check_fields(obj: dict, required: dict[str, tuple],
                  optional: dict[str, tuple], what: str, code: str) -> None:
    for name, types in required.items():
        if name not in obj:
            raise ProtocolError(code, f"{what}: missing field {name!r}")
    allowed = dict(required)
    allowed.update(optional)
    for name, value in obj.items():
        types = allowed.get(name)
        if types is None:
            raise ProtocolError(code, f"{what}: unexpected field {name!r}")
        # bool is an int subclass; only fields listing bool accept it.
        if ((isinstance(value, bool) and bool not in types)
                or not isinstance(value, types)):
            raise ProtocolError(
                code,
                f"{what}: field {name!r} has type {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}")


def validate_job_spec(spec: Any) -> None:
    """Raise :class:`ProtocolError` (code ``bad-job``) unless *spec* is a
    well-formed job specification."""
    if not isinstance(spec, dict):
        raise ProtocolError("bad-job", "job spec must be an object")
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        raise ProtocolError("bad-job", f"unknown job kind: {kind!r}")
    required = {name: types for name, (req, types)
                in _JOB_FIELDS[kind].items() if req}
    optional = {name: types for name, (req, types)
                in _JOB_FIELDS[kind].items() if not req}
    optional.update({name: types for name, (req, types)
                     in _JOB_COMMON.items() if not req})
    required["kind"] = (str,)
    _check_fields(spec, required, optional, f"job[{kind}]", "bad-job")
    priority = spec.get("priority", 0)
    if not MIN_PRIORITY <= priority <= MAX_PRIORITY:
        raise ProtocolError(
            "bad-job", f"priority {priority} outside "
                       f"[{MIN_PRIORITY}, {MAX_PRIORITY}]")
    if kind == "chaos" and spec.get("action") not in CHAOS_ACTIONS:
        raise ProtocolError(
            "bad-job", f"unknown chaos action: {spec.get('action')!r}")
    if kind == "corpus" and spec.get("scale", 1) < 1:
        raise ProtocolError("bad-job", "corpus scale must be >= 1")
    options = spec.get("options", {})
    _check_fields(options, {}, _OPTION_FIELDS, "job options", "bad-job")
    schedule = options.get("schedule")
    if schedule is not None and schedule not in SCHEDULE_NAMES:
        raise ProtocolError("bad-job", f"unknown schedule: {schedule!r}")


def validate_request(obj: Any) -> None:
    """Raise :class:`ProtocolError` unless *obj* is one valid request."""
    if not isinstance(obj, dict):
        raise ProtocolError("bad-request", "request must be an object")
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError("bad-request", f"unknown op: {op!r}")
    body = {name: value for name, value in obj.items() if name != "op"}
    _check_fields(body, _OP_FIELDS[op], _OP_OPTIONAL[op],
                  f"request[{op}]", "bad-request")
    if op == "submit":
        validate_job_spec(obj["job"])


def validate_response(obj: Any) -> None:
    """Raise ``ValueError`` unless *obj* is one well-formed response."""
    if not isinstance(obj, dict):
        raise ValueError("response must be an object")
    ok = obj.get("ok")
    if not isinstance(ok, bool):
        raise ValueError("response missing boolean 'ok'")
    if not ok:
        error = obj.get("error")
        if (not isinstance(error, dict)
                or error.get("code") not in ERROR_CODES
                or not isinstance(error.get("message"), str)):
            raise ValueError(f"malformed error response: {obj!r}")


def error_response(code: str, message: str) -> dict:
    assert code in ERROR_CODES, code
    return {"ok": False, "error": {"code": code, "message": message}}


def encode(obj: dict) -> bytes:
    """One wire line for *obj* (sorted keys, newline-terminated)."""
    return json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n"


class LineReader:
    """Reads capped JSONL lines off a socket, distinguishing a clean close
    from a truncated one.

    :meth:`readline` returns the line bytes (no newline), ``None`` on a
    clean EOF (empty buffer), and raises :class:`ProtocolError` with code
    ``oversized`` (line exceeded *max_bytes* — the excess is *not*
    buffered) or ``truncated`` (EOF with a partial line pending).
    """

    def __init__(self, sock: socket.socket,
                 max_bytes: int = MAX_LINE_BYTES) -> None:
        self._sock = sock
        self._max = max_bytes
        self._buffer = b""

    def readline(self) -> bytes | None:
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = self._buffer[:newline]
                self._buffer = self._buffer[newline + 1:]
                # A complete line can still exceed the cap when it arrives
                # faster than the no-newline check below fires.
                if len(line) > self._max:
                    raise ProtocolError(
                        "oversized",
                        f"request line exceeds {self._max} bytes")
                return line
            if len(self._buffer) > self._max:
                self._buffer = b""
                raise ProtocolError(
                    "oversized",
                    f"request line exceeds {self._max} bytes")
            chunk = self._sock.recv(65536)
            if not chunk:
                if self._buffer:
                    self._buffer = b""
                    raise ProtocolError(
                        "truncated", "connection closed mid-line")
                return None
            self._buffer += chunk


def read_request(reader: LineReader) -> dict | None:
    """One validated request off *reader*; ``None`` on clean EOF.

    Raises :class:`ProtocolError` on framing (``bad-json``/``oversized``/
    ``truncated``) or schema (``bad-request``/``bad-job``) violations.
    """
    line = reader.readline()
    if line is None:
        return None
    try:
        obj = json.loads(line.decode("utf-8", errors="replace"))
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-json", f"not JSON: {exc}") from None
    validate_request(obj)
    return obj
