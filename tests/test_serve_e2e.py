"""End-to-end: real daemon, real workers, real sockets, real ELFs.

The service must be a *pure transport* around the library: the same
binary lifted through the daemon yields the same record as a direct
call, and a whole corpus run through the pooled server reproduces the
direct serial report byte-for-byte (determinism comes from the state
cap, which is exact, not from wall-clock timeouts, which are not).

Also under test: the content-addressed dedup fast paths (store answers
and in-flight follower attachment), tenant namespacing, the watch
stream's schema, cancellation, SIGTERM draining of a real subprocess,
and the ``python -m repro client`` verb set.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.elf import save_binary
from repro.obs.progress import validate_progress_obj
from repro.qa.targets import build_target
from repro.serve import (
    JobError,
    ServeClient,
    ServeError,
    Server,
    ServerConfig,
)
from repro.serve.cli import client_main

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

#: Generous wall budget + tight state cap: every outcome is decided by
#: the (deterministic) state cap, never by the wall clock.
_OPTIONS = {"timeout_seconds": 30.0, "max_states": 2000}


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-e2e")
    config = ServerConfig(socket_path=str(tmp / "s.sock"), workers=2,
                          cache=True, cache_dir=str(tmp / "store"),
                          allow_chaos=True, retry_base=0.02,
                          default_timeout_seconds=30.0,
                          default_max_states=2000)
    server = Server(config)
    server.start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def loop_elf(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("elves") / "loop.elf")
    save_binary(build_target("loop"), path)
    return path


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.config.socket_path, timeout=120.0) as c:
        yield c


def _block_workers(client, seconds=2.0):
    """Occupy both workers with chaos sleeps; returns their job ids."""
    return [client.submit({"kind": "chaos", "action": "sleep",
                           "seconds": seconds})["job_id"]
            for _ in range(2)]


# -- lift jobs and dedup ---------------------------------------------------

def test_lift_job_completes_with_a_real_record(client, loop_elf):
    submitted = client.submit_lift(loop_elf, options=_OPTIONS)
    assert submitted["source"] == "worker"
    status = client.wait(submitted["job_id"], timeout=120)
    assert status["state"] == "done"
    assert status["metrics"]["instructions"] > 0
    result = client.result(submitted["job_id"])["result"]
    assert result["outcome"] == "lifted"
    record = result["record"]
    assert record["name"] == "loop.elf"
    assert record["instructions"] > 0 and record["states"] > 0


def test_duplicate_lift_is_answered_from_the_store(client, loop_elf):
    # A distinct option set gives this test its own dedup key.
    options = {"timeout_seconds": 30.0, "max_states": 1500}
    first = client.submit_lift(loop_elf, options=options)
    client.wait(first["job_id"], timeout=120)
    duplicate = client.submit_lift(loop_elf, options=options)
    # Answered synchronously in the submit call: no queueing, no worker.
    assert duplicate["state"] == "done"
    assert duplicate["source"] == "store"
    original = client.result(first["job_id"])["result"]
    served = client.result(duplicate["job_id"])["result"]
    assert served["record"] == original["record"]
    assert served["source"] == "store"
    assert client.stats()["dedup"]["store_answers"] >= 1


def test_inflight_duplicate_attaches_as_follower(client, loop_elf):
    blockers = _block_workers(client)
    options = {"timeout_seconds": 30.0, "max_states": 1700}
    primary = client.submit_lift(loop_elf, options=options)
    follower = client.submit_lift(loop_elf, options=options)
    assert follower["source"] == "inflight"
    assert follower["primary"] == primary["job_id"]
    assert follower["job_id"] != primary["job_id"]
    for job_id in blockers:
        client.wait(job_id, timeout=120)
    assert client.wait(primary["job_id"], timeout=120)["state"] == "done"
    assert client.wait(follower["job_id"], timeout=120)["state"] == "done"
    # The follower carries the primary's result verbatim — it never
    # occupied a worker.
    first = client.result(primary["job_id"])["result"]
    second = client.result(follower["job_id"])["result"]
    assert first["record"] == second["record"]
    assert client.stats()["dedup"]["inflight_attach"] >= 1


def test_tenants_cannot_see_each_others_jobs(daemon, loop_elf):
    with ServeClient(daemon.config.socket_path, tenant="acme",
                     timeout=120.0) as acme:
        submitted = acme.submit_lift(loop_elf, options=_OPTIONS)
        acme.wait(submitted["job_id"], timeout=120)
        assert acme.status(submitted["job_id"])["tenant"] == "acme"
    with ServeClient(daemon.config.socket_path, tenant="rival",
                     timeout=120.0) as rival:
        for op in (rival.status, rival.result, rival.cancel):
            with pytest.raises(JobError) as excinfo:
                op(submitted["job_id"])
            assert excinfo.value.code == "unknown-job"


# -- corpus determinism ----------------------------------------------------

def test_corpus_via_server_matches_direct_run_byte_for_byte(client):
    from repro.eval.runner import run_corpus

    options = {"timeout_seconds": 30.0, "max_states": 100}
    direct = run_corpus(scale=1, jobs=1, cache=False,
                        timeout_seconds=options["timeout_seconds"],
                        max_states=options["max_states"])
    submitted = client.submit_corpus(scale=1, cache=False, options=options)
    status = client.wait(submitted["job_id"], timeout=300)
    assert status["state"] == "done"
    result = client.result(submitted["job_id"])["result"]
    assert result["canonical_json"] == direct.canonical_json()
    assert status["units_total"] == len(direct.records)
    assert status["units_done"] == len(direct.records)


# -- watch stream ----------------------------------------------------------

def test_watch_stream_is_schema_valid_and_gap_free(client):
    submitted = client.submit({"kind": "chaos", "action": "sleep",
                               "seconds": 0.05})
    events: list[dict] = []
    final = client.watch(submitted["job_id"], on_event=events.append)
    assert final["state"] == "done"
    for event in events:
        validate_progress_obj(event)
    assert [event["seq"] for event in events] == list(range(len(events)))
    kinds = [event["kind"] for event in events]
    assert kinds[0] == "job_queued"
    assert "job_started" in kinds
    assert kinds[-1] == "job_finished"
    assert events[-1]["source"] == "worker"


# -- cancellation ----------------------------------------------------------

def test_cancel_queued_job_before_it_runs(client):
    blockers = _block_workers(client)
    queued = client.submit({"kind": "chaos", "action": "sleep",
                            "seconds": 0.01})
    response = client.cancel(queued["job_id"])
    assert response["cancelled"] is True
    assert client.status(queued["job_id"])["state"] == "cancelled"
    # Cancelling a finished job is a no-op, reported as such.
    again = client.cancel(queued["job_id"])
    assert again["cancelled"] is False
    for job_id in blockers:
        client.wait(job_id, timeout=120)


def test_cancel_running_job_kills_the_worker(client):
    submitted = client.submit({"kind": "chaos", "action": "sleep",
                               "seconds": 60.0})
    deadline_status = client.status(submitted["job_id"])
    response = client.cancel(submitted["job_id"])
    assert response["cancelled"] is True
    status = client.wait(submitted["job_id"], timeout=120)
    assert status["state"] == "cancelled"
    assert deadline_status["state"] in ("queued", "running")


# -- stats -----------------------------------------------------------------

def test_stats_reflect_the_module_so_far(client):
    stats = client.stats()
    assert stats["state"] == "serving"
    assert stats["workers"]["size"] == 2
    assert stats["cache"]["enabled"] is True
    assert stats["cache"]["entries"] >= 1          # lifts were stored
    assert stats["jobs"]["submitted"] >= 5
    assert stats["jobs"]["by_tenant"]["default"] >= 4
    assert stats["queue"]["depth"] == 0            # nothing left behind


# -- SIGTERM drain of a real subprocess ------------------------------------

def test_sigterm_drains_a_real_daemon_subprocess(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    socket_path = str(tmp_path / "d.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--workers", "1", "--no-cache", "--allow-chaos"],
        cwd=repo, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        banner = proc.stdout.readline()
        assert "listening on" in banner
        with ServeClient(socket_path, timeout=60.0) as client:
            assert client.ping()["ok"] is True
            job = client.submit({"kind": "chaos", "action": "sleep",
                                 "seconds": 0.2})
            proc.send_signal(signal.SIGTERM)
            # Draining: the in-flight job still finishes.  The daemon may
            # exit (closing our socket) between the job finishing and our
            # next poll; exit code 0 below still proves the drain finished
            # the job, because a drain that force-fails work exits 1.
            try:
                assert (client.wait(job["job_id"], timeout=60)["state"]
                        == "done")
            except ServeError:
                pass
        assert proc.wait(timeout=60) == 0
        remainder = proc.stdout.read()
        assert "drained, exit 0" in remainder
        assert not os.path.exists(socket_path)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


# -- the client CLI --------------------------------------------------------

def _cli(daemon, *argv) -> list[str]:
    return ["--socket", daemon.config.socket_path, *argv]


def test_client_cli_ping_and_stats(daemon, capsys):
    assert client_main(_cli(daemon, "ping")) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert client_main(_cli(daemon, "stats")) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["state"] == "serving"


def test_client_cli_submit_wait_roundtrip(daemon, capsys):
    code = client_main(_cli(daemon, "submit-chaos", "sleep",
                            "--seconds", "0.01", "--wait"))
    assert code == 0
    response = json.loads(capsys.readouterr().out)
    assert response["job"]["state"] == "done"
    assert response["result"]["chaos"]["chaos"] == "slept"


def test_client_cli_structured_error_exits_1(daemon, capsys):
    assert client_main(_cli(daemon, "status", "j-999999")) == 1
    response = json.loads(capsys.readouterr().out)
    assert response["ok"] is False
    assert response["error"]["code"] == "unknown-job"


def test_client_cli_transport_error_exits_2(tmp_path, capsys):
    code = client_main(["--socket", str(tmp_path / "nobody-home.sock"),
                        "ping"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
