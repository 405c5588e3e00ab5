"""Fault injection against the serve daemon: crashes, budgets, drains.

The resilience contract under test (docstrings of :mod:`repro.serve.pool`
and :mod:`repro.serve.server`):

* a worker killed mid-job orphans exactly that job's unit; the unit is
  retried with capped exponential backoff and completes if a later
  attempt survives (``crash_until``), while the daemon keeps serving;
* after ``max_retries`` crashes the job fails with structured
  diagnostics (exit code, attempts) — a structured ``failed``, never a
  hang;
* deterministic in-worker exceptions and budget violations
  (``budget-cpu`` / ``budget-memory``) fail immediately, with no retry;
* a real ``SIGKILL`` from outside (not just the chaos payload's
  ``os._exit``) takes the same retry path;
* drain under load finishes in-flight work and stops.

Chaos payloads (``crash``, ``crash_until``, ``sleep``, ``spin``,
``alloc``) make the faults deterministic: the parent passes the attempt
counter to the worker, so "die twice then succeed" is exact, not timed.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.serve import Server, ServerConfig, ServeClient, ServeError
from repro.serve.pool import execute_payload

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture()
def server(tmp_path):
    config = ServerConfig(socket_path=str(tmp_path / "s.sock"), workers=1,
                          cache=False, allow_chaos=True,
                          max_retries=3, retry_base=0.02, retry_cap=0.1)
    srv = Server(config)
    srv.start()
    yield srv
    srv.close()


@pytest.fixture()
def client(server):
    with ServeClient(server.config.socket_path, timeout=120.0) as c:
        yield c


def _submit_chaos(client, action, **fields):
    return client.submit({"kind": "chaos", "action": action, **fields})


# -- crash / retry ---------------------------------------------------------

def test_killed_workers_job_completes_via_retry(client):
    submitted = _submit_chaos(client, "crash_until", attempts=2)
    status = client.wait(submitted["job_id"], timeout=60)
    assert status["state"] == "done"
    result = client.result(submitted["job_id"])["result"]
    assert result["chaos"]["chaos"] == "survived"
    assert result["chaos"]["attempt"] == 3  # died on attempts 1 and 2


def test_retries_emit_backoff_heartbeats(server, client):
    submitted = _submit_chaos(client, "crash_until", attempts=2)
    client.wait(submitted["job_id"], timeout=60)
    events = []
    with ServeClient(server.config.socket_path, timeout=60.0) as watcher:
        watcher.watch(submitted["job_id"], on_event=events.append)
    kinds = [event["kind"] for event in events]
    assert kinds[0] == "job_queued"
    assert kinds[-1] == "job_finished"
    retries = [event for event in events if event["kind"] == "job_retried"]
    assert [event["attempt"] for event in retries] == [1, 2]
    delays = [event["delay"] for event in retries]
    assert delays == [0.02, 0.04]  # base * 2**(attempt-1), under the cap
    # seq is gap-free from 0 even across retries.
    assert [event["seq"] for event in events] == list(range(len(events)))


def test_crashes_past_max_retries_fail_with_diagnostics(client):
    submitted = _submit_chaos(client, "crash")  # dies on every attempt
    status = client.wait(submitted["job_id"], timeout=60)
    assert status["state"] == "failed"
    diagnostics = status["diagnostics"]
    assert len(diagnostics) == 1
    assert diagnostics[0]["code"] == "worker-crashed"
    assert diagnostics[0]["attempts"] == 4  # first try + max_retries
    assert "retries exhausted" in diagnostics[0]["message"]
    assert isinstance(diagnostics[0]["exitcode"], int)


def test_failed_job_result_op_reports_not_done_never_hangs(client):
    from repro.serve.client import JobError

    submitted = _submit_chaos(client, "crash")
    client.wait(submitted["job_id"], timeout=60)
    # The job is terminal; result returns the (None) payload rather than
    # blocking — the "structured failed, never a hang" clause.
    response = client.result(submitted["job_id"])
    assert response["job"]["state"] == "failed"
    assert response["result"] is None
    # An unfinished job is a structured not-done error, not a block.
    blocker = _submit_chaos(client, "sleep", seconds=5.0)
    with pytest.raises(JobError) as excinfo:
        client.result(blocker["job_id"])
    assert excinfo.value.code == "not-done"
    client.cancel(blocker["job_id"])


def test_daemon_survives_crashes_and_keeps_serving(client):
    crashed = _submit_chaos(client, "crash")
    assert client.wait(crashed["job_id"], timeout=60)["state"] == "failed"
    healthy = _submit_chaos(client, "sleep", seconds=0.01)
    assert client.wait(healthy["job_id"], timeout=60)["state"] == "done"
    stats = client.stats()
    assert stats["workers"]["respawns"] >= 4
    assert stats["jobs"]["by_state"] == {"done": 1, "failed": 1}


def test_external_sigkill_takes_the_retry_path(server, client):
    """A real SIGKILL from outside the worker (not os._exit inside it)."""
    submitted = _submit_chaos(client, "sleep", seconds=30.0)
    deadline = time.monotonic() + 30
    victim = None
    while time.monotonic() < deadline and victim is None:
        with server._lock:
            for worker in server._pool.busy_workers():
                victim = worker.pid
        time.sleep(0.02)
    assert victim is not None, "sleep unit never reached a worker"
    os.kill(victim, signal.SIGKILL)
    # The retried attempt sleeps 30s again, so don't wait for completion —
    # assert the retry heartbeat appeared and the respawn happened.
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        status = client.status(submitted["job_id"])
        with server._lock:
            job = server._jobs[submitted["job_id"]]
            retried = any(event["kind"] == "job_retried"
                          for event in job.events)
        if retried:
            break
        time.sleep(0.05)
    assert retried
    assert status["state"] in ("queued", "running")
    assert client.stats()["workers"]["respawns"] >= 1
    client.cancel(submitted["job_id"])


# -- budgets ---------------------------------------------------------------

def test_memory_budget_fails_without_retry(client):
    submitted = _submit_chaos(client, "alloc", bytes=1 << 30,
                              memory_bytes=256 << 20)
    status = client.wait(submitted["job_id"], timeout=60)
    assert status["state"] == "failed"
    assert status["diagnostics"][0]["code"] == "budget-memory"
    assert status["diagnostics"][0]["attempts"] == 1  # budgets never retry


def test_cpu_budget_fails_without_retry(client):
    submitted = _submit_chaos(client, "spin", seconds=60.0, cpu_seconds=1.0)
    status = client.wait(submitted["job_id"], timeout=120)
    assert status["state"] == "failed"
    assert status["diagnostics"][0]["code"] == "budget-cpu"
    assert status["diagnostics"][0]["attempts"] == 1


def test_deterministic_exception_is_not_retried():
    # Below the daemon: the worker-side executor turns an arbitrary
    # exception into a structured error instead of dying.
    result = execute_payload({"type": "chaos", "action": "bogus"}, 1)
    assert result["status"] == "error"
    assert result["error"]["code"] == "exception"
    assert "bogus" in result["error"]["message"]
    assert "traceback" in result["error"]


def test_unknown_payload_type_is_a_structured_error():
    result = execute_payload({"type": "warp-drive"}, 1)
    assert result["status"] == "error"
    assert result["error"]["code"] == "exception"


# -- drain under load ------------------------------------------------------

def test_drain_finishes_inflight_work_then_stops(tmp_path):
    config = ServerConfig(socket_path=str(tmp_path / "d.sock"), workers=2,
                          cache=False, allow_chaos=True, retry_base=0.02)
    server = Server(config)
    server.start()
    try:
        with ServeClient(config.socket_path, timeout=60.0) as client:
            jobs = [_submit_chaos(client, "sleep", seconds=0.3)
                    for _ in range(3)]
            response = client.drain()
            assert response["state"] == "draining"
            from repro.serve.client import JobError

            with pytest.raises(JobError) as excinfo:
                _submit_chaos(client, "sleep", seconds=0.1)
            assert excinfo.value.code == "draining"
            # In-flight jobs all finish before the daemon exits.  The
            # daemon may close our socket between the last job finishing
            # and our next poll; fall back to in-process state then.
            try:
                final = [client.wait(job["job_id"], timeout=60)["state"]
                         for job in jobs]
            except ServeError:
                final = None
        assert server.wait(timeout=60) == 0
        if final is None:
            final = [server._jobs[job["job_id"]].state for job in jobs]
        assert final == ["done"] * 3
        assert not os.path.exists(config.socket_path)
    finally:
        server.close()


def test_drain_grace_forces_a_stuck_drain(tmp_path):
    config = ServerConfig(socket_path=str(tmp_path / "g.sock"), workers=1,
                          cache=False, allow_chaos=True, drain_grace=0.5)
    server = Server(config)
    server.start()
    try:
        with ServeClient(config.socket_path, timeout=60.0) as client:
            stuck = _submit_chaos(client, "sleep", seconds=120.0)
            client.drain()
        assert server.wait(timeout=60) == 1  # forced: exit code says so
        job = server._jobs[stuck["job_id"]]
        assert job.state == "failed"
        assert job.diagnostics[0]["code"] == "drain-timeout"
    finally:
        server.close()


# -- teardown --------------------------------------------------------------

def test_close_with_busy_workers_tears_the_pool_down_once(tmp_path):
    # Close while both workers are inside a long unit.  Busy workers die
    # only when the pool's shutdown grace runs out, so teardown takes
    # seconds; if both close() and the scheduler thread shut the pool
    # down, they close the same worker pipes (EBADF).
    import threading

    raised = []
    prior_hook = threading.excepthook
    threading.excepthook = raised.append
    config = ServerConfig(socket_path=str(tmp_path / "t.sock"), workers=2,
                          cache=False, allow_chaos=True)
    server = Server(config)
    server.start()
    try:
        with ServeClient(config.socket_path, timeout=60.0) as client:
            for _ in range(2):
                _submit_chaos(client, "sleep", seconds=120.0)
            deadline = time.monotonic() + 30
            while client.stats()["workers"]["busy"] < 2:
                assert time.monotonic() < deadline, "sleeps never started"
                time.sleep(0.02)
        pool = server._pool
        procs = [worker.proc for worker in pool.workers]
        threads = list(server._threads)
        shutdowns = []
        shutdown = pool.shutdown

        def recording_shutdown():
            shutdowns.append(threading.current_thread().name)
            shutdown()

        pool.shutdown = recording_shutdown
        server.close()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        threading.excepthook = prior_hook
    assert [args.exc_value for args in raised] == []
    assert shutdowns == ["repro-serve-scheduler"]
    assert not any(thread.is_alive() for thread in threads)
    assert not any(proc.is_alive() for proc in procs)
