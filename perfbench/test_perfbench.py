"""Self-tests of the benchmark: metric sets, oracles and isolation.

Run from the root of the checkout::

    PYTHONPATH=src python -m pytest perfbench -q

They take about a minute: every workload runs once at ``--tiny`` size.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import workloads
from serve_dedup import Job, comparable, oracle_chain, serve_oracle
from speed import REFERENCE_PROBE_S, SAMPLE_PERIOD, Speed

CHECKOUT = Path(__file__).resolve().parents[1]


def _spec() -> dict:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_emitted_metric():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        workloads.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def _check_result(result: dict, units: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] < result["attempted"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] >= 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_emits_every_end_to_end_metric(workload):
    result = run.run(workload, seed=3, seconds=5, trace=False, tiny=True)
    _check_result(result, workloads.END_TO_END)
    # End-to-end metrics are never 0: bounds are shares of a median.
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_pass_emits_every_per_layer_metric():
    result = run.run("coreutils_step2", seed=3, seconds=5, trace=True,
                     tiny=True)
    _check_result(result, workloads.PER_LAYER)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["hoare.joins"] > 0 and metrics["export.triples"] > 0
    assert 0 < metrics["trace.attribution_share"] <= 1
    assert metrics["trace.overhead_ratio"] > 0


def test_xen_oracle_trips_on_a_tampered_verdict():
    result = workloads.Result()
    lifted = SimpleNamespace(outcome="lifted")
    workloads.xen_oracle(result, workloads.TaskRun(
        "f", lifted, None, 0.1, 0.1), "lifted")
    assert (result.attempted, result.failed) == (1, 0)
    workloads.xen_oracle(result, workloads.TaskRun(
        "f", SimpleNamespace(outcome="unprovable"), None, 0.1, 0.1),
        "lifted")
    workloads.xen_oracle(result, workloads.TaskRun(
        "f", None, "ValueError: boom", 0.1, 0.1), "lifted")
    assert (result.attempted, result.failed) == (3, 2)


def test_step2_oracle_trips_on_a_tampered_triple_status():
    from repro.corpus import build_coreutils
    from repro.export import check_triples
    from repro.hoare import lift

    lifted = lift(build_coreutils()["wc"], cache=False)
    report = check_triples(lifted, samples=workloads.CHECK_SAMPLES, seed=3)
    clean = workloads.Result()
    workloads.check_chain(clean, workloads.chain_from_report(
        "wc", lifted, report, 1.0, 0.1, 0.1))
    assert clean.failed == 0 and clean.correct
    assert clean.attempted == 1 + len(report.checks)

    proven = next(c for c in report.checks if c.status == "proven")
    proven.status = "FAILED"
    tampered = workloads.Result()
    workloads.check_chain(tampered, workloads.chain_from_report(
        "wc", lifted, report, 1.0, 0.1, 0.1))
    assert tampered.failed == 1 and not tampered.correct


def test_serve_oracle_trips_on_a_tampered_served_record(tmp_path):
    from repro.elf import save_binary
    from repro.minicc import compile_source

    path = str(tmp_path / "p.elf")
    save_binary(compile_source("long main(long n) { return n + 1; }"), path)
    direct = {path: oracle_chain(path, 3, Speed())}
    served = dict(direct[path].record, seconds=0.25)

    def job(record):
        return Job(path=path, due=10.0, id="j-1", record=record,
                   status={"state": "done", "finished_ts": 10.5})

    clean = workloads.Result()
    serve_oracle(clean, [job(served)], direct)
    assert clean.failed == 0 and clean.correct
    tampered = workloads.Result()
    serve_oracle(tampered, [job(dict(served,
                                     states=served["states"] + 1))], direct)
    assert tampered.failed == 1 and not tampered.correct
    assert comparable(served) == direct[path].record


def test_speed_scales_by_nearby_probes_without_sampled_probe_time():
    speed = Speed()
    # Probes take twice the reference time; two sampled probes fall in
    # [0.5, 2.5] and are not the program's time.
    slow = 2 * REFERENCE_PROBE_S
    speed.starts = [0.0, 1.0, 1.5, 3.0]
    speed.bursts = [[slow] * 3, [slow], [slow], [slow] * 3]
    assert speed.factor(0.5, 2.5) == pytest.approx(0.5)
    assert speed.seconds(0.5, 2.5) == pytest.approx((2.0 - 2 * slow) / 2)


def test_sampling_probes_inside_a_long_call():
    speed = Speed()
    with speed.sampling():
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * SAMPLE_PERIOD:
            pass
        end = time.perf_counter()
    inside = [t for t in speed.starts if start <= t < end]
    assert len(inside) >= 2
    assert 0 < speed.seconds(start, end)


def _run_cli(workload: str, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CHECKOUT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "5",
         "--trace", "1", "--tiny"],
        cwd=CHECKOUT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Work counts that an ambient lift store would change (hits skip lifts).
_WORK = ("hoare.joins", "hoare.states", "smt.queries", "export.triples")


@pytest.mark.parametrize("workload", ["xen_cold", "serve_dedup"])
def test_ambient_lift_store_changes_no_number(workload, tmp_path):
    base = {key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_CACHE")}
    base["PYTHONHASHSEED"] = "0"   # fixed, so work counts repeat exactly
    clean = _run_cli(workload, base)
    _check_result(clean, workloads.PER_LAYER)
    ambient = dict(base, REPRO_CACHE="1",
                   REPRO_CACHE_DIR=str(tmp_path / "store"),
                   HOME=str(tmp_path))
    for _ in range(2):   # the second run would hit a store the first filled
        dirty = _run_cli(workload, ambient)
        for key in ("correct", "attempted", "failed"):
            assert dirty[key] == clean[key]
        for name in _WORK:
            assert dirty["metrics"][name] == clean["metrics"][name], name
        if workload == "serve_dedup":
            dedup = ("serve.store_answers", "serve.inflight_attach")
            assert sum(dirty["metrics"][n]["value"] for n in dedup) == \
                sum(clean["metrics"][n]["value"] for n in dedup)


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (CHECKOUT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "xen_cold",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
