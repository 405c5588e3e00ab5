"""The ``serve_dedup`` workload: an open-loop client of ``repro serve``.

Set-up builds a pool of distinct whole-program ELFs and starts the daemon
(2 workers, a private socket and an empty lift store).  The generator
submits on a fixed schedule over one connection and collects the verdicts
after the window.  A job's latency runs from its *due* time to the
daemon's ``finished_ts``, so a stalled generator shows up as latency rather
than hiding it.

An oracle lifts every pool ELF directly in this process, half before the
window and half after the daemon is drained, runs Table 2's Step-2 chain
on it, and compares each served record with the direct one.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import (
    SCRATCH,
    SRC,
    Chain,
    Result,
    chain_layer_metrics,
    chain_metrics,
    check_chain,
    median_setup,
    percentile,
    ratio,
    step2_chain,
    timed,
)
from speed import REFERENCE_PROBE_S, Speed

#: The ELF pool is the lifted whole programs of this corpus scale.
POOL_SCALE = 1
WORKERS = 2
#: Offered load in jobs/s, fixed after measuring the daemon's capacity
#: (README.md): the cold lifts use about a fifth of it.
RATE = 4.75
#: Seconds of a run kept free after the last submission.
TAIL = 3.0
#: Probes that scale one daemon interval: about three seconds of the
#: generator's probes around it.
DAEMON_PROBES = 12
#: A job not done this long after its due time counts as failed.
LATENCY_LIMIT = 10.0
#: Lift budgets of the daemon and the oracle (the ``repro serve``
#: defaults, passed explicitly so both sides agree).
TIMEOUT_SECONDS = 10.0
MAX_STATES = 10_000
FINAL_STATES = ("done", "failed", "cancelled")


@dataclass
class Job:
    path: str
    due: float
    sent: float = 0.0
    rtt: float = 0.0
    id: str | None = None
    status: dict | None = None
    record: dict | None = None
    error: str | None = None

    @property
    def latency(self) -> float:
        """Due time to verdict; a failed job misses every limit."""
        if self.error is not None or self.status is None \
                or self.status["state"] != "done":
            return math.inf
        return self.status["finished_ts"] - self.due


def schedule(paths: list[str], seed: int, jobs: int) -> list[tuple[float, str]]:
    """(offset seconds, ELF path) of each of *jobs* submissions.

    Slots are 1/RATE apart.  Each pool ELF is first submitted at evenly
    spaced slots, in a seeded order, and submitted again in the next slot,
    which attaches to the lift still in flight.  Every other slot repeats,
    drawn by the seed, an ELF first submitted at least one spacing earlier,
    whose lift has ended, so the store answers it; a slot with no such ELF
    yet stays empty.  So every run has the same mix: ``len(paths)`` cold
    lifts, as many in-flight attaches, and store answers for the rest."""
    rng = random.Random(seed)
    order = list(paths)
    rng.shuffle(order)
    spacing = jobs / len(order)
    firsts = {math.floor(k * spacing): path for k, path in enumerate(order)}
    introduced: list[tuple[int, str]] = []
    plan, slot = [], 0
    while len(plan) < jobs:
        path = firsts.get(slot)
        if path is not None:
            introduced.append((slot, path))
        elif introduced and slot == introduced[-1][0] + 1:
            path = introduced[-1][1]
        else:
            ended = [p for first, p in introduced if first <= slot - spacing]
            path = rng.choice(ended) if ended else None
        if path is not None:
            plan.append((slot / RATE, path))
        slot += 1
    return plan


class Daemon:
    """One ``python -m repro serve`` subprocess rooted in *root*."""

    def __init__(self, root: Path) -> None:
        from repro.serve.client import ServeClient, ServeError

        self.socket = os.path.relpath(root / "s.sock")
        self.store = root / "store"
        # The daemon gets its store from flags; no ambient REPRO_CACHE*
        # variable reaches it (the run checks the store root it reports).
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_CACHE")}
        env["PYTHONPATH"] = str(SRC)
        self._log = open(root / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--workers", str(WORKERS), "--cache",
             "--cache-dir", str(self.store),
             "--timeout-seconds", str(TIMEOUT_SECONDS),
             "--max-states", str(MAX_STATES)],
            env=env, stdout=self._log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        while True:
            try:
                self.client = ServeClient(self.socket)
                self.client.ping()
                break
            except ServeError:
                if self.proc.poll() is not None or \
                        time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("repro serve did not start")
                time.sleep(0.01)

    def lift_all(self, paths: list[str]) -> None:
        """Submit and wait: the daemon is ready once workers answer."""
        ids = [self.client.submit_lift(path)["job_id"] for path in paths]
        for job_id in ids:
            self.client.wait(job_id, timeout=60, poll=0.005)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest serving process, the daemon
        or one of its workers (``VmHWM``: unlike the rusage of a child, it
        leaves out the pages the child had from this process before its
        ``exec``)."""
        pids = [self.proc.pid]
        for entry in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if ppid == self.proc.pid:
                pids.append(int(entry))
        peaks = [0.0]
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status") as status:
                    peaks += [int(line.split()[1]) / 1024 for line in status
                              if line.startswith("VmHWM:")]
            except OSError:
                continue
        return max(peaks)

    def stop(self) -> None:
        """Drain and wait; kill if the drain does not end it."""
        from repro.serve.client import JobError, ServeError

        if self.proc.poll() is None:
            try:
                self.client.drain()
            except (AttributeError, JobError, ServeError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if hasattr(self, "client"):
            self.client.close()
        self._log.close()


def oracle_chain(path: str, seed: int, speed: Speed) -> Chain:
    """Cold direct lift of one ELF, its served-record view, and Step-2."""
    from repro import hoare
    from repro.elf import load_binary
    from repro.eval.runner import record_from_result
    from repro.perf import reset_caches
    from repro.serve.jobs import summarize_record

    binary = load_binary(path)
    reset_caches()
    lifted, lift_s = timed(speed, hoare.lift, binary, max_states=MAX_STATES,
                           timeout_seconds=TIMEOUT_SECONDS, cache=False)
    chain = step2_chain(path, lifted, lift_s, seed, speed)
    chain.record = comparable(summarize_record(record_from_result(
        os.path.basename(path), "serve", "binary", lifted)))
    return chain


def comparable(record: dict) -> dict:
    """A served record without its timing."""
    return {key: value for key, value in record.items() if key != "seconds"}


def serve_oracle(result: Result, jobs: list[Job],
                 direct: dict[str, Chain]) -> None:
    """A job fails if it errored, is not done, missed the latency limit,
    or its record differs from a direct lift of the same ELF."""
    for job in jobs:
        result.attempted += 1
        if job.error is not None:
            result.fail(f"{job.path}: {job.error}")
        elif job.status["state"] != "done":
            result.fail(f"{job.path}: job {job.status['state']}")
        elif job.latency > LATENCY_LIMIT:
            result.fail(f"{job.path}: latency {job.latency:.3f}s over limit")
        elif comparable(job.record) != direct[job.path].record:
            result.fail(f"{job.path}: served record {job.record} differs "
                        f"from direct lift {direct[job.path].record}",
                        incorrect=True)


def run_window(daemon: Daemon, plan: list[tuple[float, str]],
               speed: Speed) -> list[Job]:
    """Submit *plan* open-loop, then collect every job's verdict.

    Nothing but submissions reaches the daemon during the window; the
    daemon's own timestamps give each job's latency afterwards.  The
    generator probes the machine's speed about four times a second,
    between submissions and while it waits for verdicts: one probe at a
    time, so that it takes little from the workers."""
    from repro.serve.client import JobError, ServeError

    client = daemon.client
    jobs = []
    start = time.time() + 0.05
    for offset, path in plan:
        job = Job(path=path, due=start + offset)
        delay = job.due - time.time()
        if delay > 0:
            time.sleep(delay)
        job.sent = time.time()
        try:
            job.id = client.submit_lift(path)["job_id"]
        except (JobError, ServeError) as exc:
            job.error = f"submit: {exc}"
        job.rtt = time.time() - job.sent
        jobs.append(job)
        if job.due + 1 / RATE - time.time() > 2 * REFERENCE_PROBE_S:
            speed.tick(1)
    pending = [job for job in jobs if job.id is not None]
    deadline = jobs[-1].due + LATENCY_LIMIT
    while pending:
        for job in list(pending):
            status = client.status(job.id)
            if status["state"] in FINAL_STATES:
                job.status = status
                pending.remove(job)
        if pending and time.time() > deadline:
            break
        speed.tick(1)
        time.sleep(0.05)
    for job in pending:
        job.error = "not finished within the latency limit"
    for job in jobs:
        if job.status is not None and job.status["state"] == "done":
            job.record = client.result(job.id)["result"]["record"]
    return jobs


def run_serve_dedup(seed: int, seconds: float, trace: bool,
                    import_seconds: float, speed: Speed,
                    tiny: bool = False) -> Result:
    from repro.corpus import build_corpus
    from repro.elf import save_binary
    from repro.minicc import compile_source

    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=SCRATCH))
    build_times: list[float] = []
    daemons: list[Daemon] = []

    def setup(index):
        root = run_dir / str(index)
        (root / "elf").mkdir(parents=True)
        start = time.perf_counter()
        corpus = build_corpus(1 if tiny else POOL_SCALE)
        pool = [b for b in corpus.binaries if b.expected == "lifted"]
        if tiny:
            pool = pool[:3]
        paths = []
        for entry in pool:
            path = os.path.relpath(root / "elf" / f"{entry.name}.elf")
            save_binary(entry.binary, path)
            paths.append(path)
        warmups = []
        for worker in range(WORKERS):
            path = os.path.relpath(root / "elf" / f"warmup{worker}.elf")
            save_binary(compile_source(
                f"long main(long n) {{ return n + {worker}; }}"), path)
            warmups.append(path)
        build_times.append(time.perf_counter() - start)
        daemon = Daemon(root)
        daemons.append(daemon)
        daemon.lift_all(warmups)
        return daemon, paths

    try:
        (daemon, paths), setup_s = median_setup(
            setup, import_seconds, speed,
            teardown=lambda value: value[0].stop())
        jobs_total = 8 if tiny else round(RATE * (seconds - TAIL))
        plan = schedule(paths, seed, max(jobs_total, len(paths)))
        # The oracle's work is split around the window (the daemon idles
        # before it and is gone after it), so one slow period of the
        # machine moves its Step-2 timings less.
        chains = [oracle_chain(path, seed, speed) for path in paths[::2]]
        jobs = run_window(daemon, plan, speed)
        stats = daemon.client.stats()
        serving_rss = daemon.peak_rss_mb()
        daemon.stop()
        chains += [oracle_chain(path, seed, speed) for path in paths[1::2]]
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    direct = {chain.name: chain for chain in chains}

    result = Result()
    serve_oracle(result, jobs, direct)
    for chain in chains:
        check_chain(result, chain)
    store_root = stats["cache"].get("root")
    if not stats["cache"]["enabled"] or store_root is None or \
            Path(store_root).resolve() != daemon.store.resolve():
        result.invalid(f"daemon lift store {store_root!r} is not the "
                       f"run's private store")

    done = [job for job in jobs if job.latency != math.inf]
    cold = [job for job in done if job.status["source"] == "worker"]
    lift_seconds = [job.status["metrics"]["seconds"] for job in cold]
    # The daemon's wall-clock timestamps on this process's perf_counter.
    clock = time.time() - time.perf_counter()

    def reference(start_ts: float, end_ts: float,
                  seconds: float | None = None) -> float:
        """Daemon seconds between two timestamps in reference seconds."""
        if seconds is None:
            seconds = end_ts - start_ts
        return seconds * speed.factor(start_ts - clock, end_ts - clock,
                                      DAEMON_PROBES)

    if trace:
        dedup = stats["dedup"]
        counters = [job.status["metrics"].get("counters", {})
                    for job in cold]
        queries = sum(c.get("solver_hits", 0) + c.get("solver_misses", 0)
                      for c in counters)
        waits = [job.status["started_ts"] - job.status["created_ts"]
                 for job in cold]
        result.metrics = {
            **chain_layer_metrics(chains),
            "hoare.lift_s": sum(lift_seconds),
            "hoare.states": sum(job.record["states"] for job in cold),
            "hoare.joins": sum(c.get("lift_joins", 0) for c in counters),
            "smt.queries": queries,
            "smt.hit_ratio": ratio(
                sum(c.get("solver_hits", 0) for c in counters), queries),
            "serve.submit_rtt_s": statistics.median(j.rtt for j in jobs),
            "serve.queue_wait_p50_s": percentile(waits, 0.5),
            "serve.queue_wait_p90_s": percentile(waits, 0.9),
            "serve.run_s": percentile(
                [job.status["finished_ts"] - job.status["started_ts"]
                 for job in cold], 0.5),
            "serve.dedup_ratio": ratio(
                dedup["store_answers"] + dedup["inflight_attach"],
                len(jobs)),
            "serve.store_answers": dedup["store_answers"],
            "serve.inflight_attach": dedup["inflight_attach"],
            "serve.worker_respawns": stats["workers"]["respawns"],
            "corpus.build_s": statistics.median(build_times),
            "bench.gen_lag_s": max(job.sent - job.due for job in jobs),
        }
    else:
        # A failed job counts at the latency limit: it missed it.
        latencies = [LATENCY_LIMIT if job.latency > LATENCY_LIMIT else
                     reference(job.due, job.status["finished_ts"])
                     for job in jobs]
        # A task is one lift request: the daemon's time to its verdict.
        service = [reference(job.status["created_ts"],
                             job.status["finished_ts"]) for job in done]
        cold_seconds = [reference(job.status["started_ts"],
                                  job.status["finished_ts"], seconds)
                        for job, seconds in zip(cold, lift_seconds)]
        finished = max((job.status["finished_ts"] for job in done),
                       default=jobs[0].due)
        result.metrics = {
            **chain_metrics(chains),
            "setup_s": setup_s,
            "lift_instrs_per_s": ratio(
                sum(job.status["metrics"]["instructions"] for job in cold),
                sum(cold_seconds)),
            "task_p50_s": percentile(service, 0.5),
            "task_p90_s": percentile(service, 0.9),
            "peak_rss_mb": serving_rss,
            "job_p50_s": percentile(latencies, 0.5),
            "job_p90_s": percentile(latencies, 0.9),
            "serve_jobs_per_s": ratio(len(done), finished - jobs[0].due),
        }
    return result
