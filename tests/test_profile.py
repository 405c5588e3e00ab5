"""The profiling layer: phase timer, cost folds, rollups, the CLI verb.

Covers the PR-8 profiling contracts:

* ``PhaseTimer`` self-time arithmetic (self = wall - nested children) and
  snapshot/merge algebra;
* the disabled no-op region (one shared object, no allocation);
* per-address cost folding with sampling scale-back;
* the canonical profile form: deterministic phase counts (minus the
  cache-warmth-dependent ``smt``), byte-identical between serial and
  worker-pool corpus runs;
* collapsed-stack flamegraph output format;
* ``python -m repro profile`` in both text and collapsed formats.
"""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
from repro.corpus import Corpus, CorpusBinary
from repro.eval.runner import run_corpus
from repro.minicc import compile_source
from repro.obs.profile import (
    NONDETERMINISTIC_PHASE_COUNTS,
    PhaseTimer,
    Profile,
    address_costs,
    build_profile,
    canonical_profile,
    collapsed_stacks,
    phase,
    phases,
    profile_rollup,
    render_profile,
)
from repro.obs.tracer import Event


@pytest.fixture(autouse=True)
def _obs_off_after():
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def tiny_corpus() -> Corpus:
    corpus = Corpus()
    corpus.binaries.append(CorpusBinary(
        name="beta", directory="bin",
        binary=compile_source("long main(long n) { return n * 3; }",
                              name="beta"),
        expected="lifted",
    ))
    corpus.binaries.append(CorpusBinary(
        name="alpha", directory="bin",
        binary=compile_source(
            "long main(long n) { long s = 0;"
            " for (long i = 0; i < n; i = i + 1) { s = s + i; }"
            " return s; }",
            name="alpha"),
        expected="lifted",
    ))
    return corpus


# -- PhaseTimer ------------------------------------------------------------

def test_self_time_excludes_nested_children():
    timer = PhaseTimer()
    timer.start("outer")
    timer.start("inner")
    inner_wall = timer.stop()
    outer_wall = timer.stop()
    snap = timer.snapshot()
    assert snap["inner"]["count"] == 1 and snap["outer"]["count"] == 1
    assert snap["inner"]["self_seconds"] == snap["inner"]["wall_seconds"]
    # outer self-time = outer wall minus the inner region's wall.
    assert snap["outer"]["self_seconds"] == pytest.approx(
        outer_wall - inner_wall)
    # Total self time sums to the instrumented wall (no double counting).
    total_self = sum(s["self_seconds"] for s in snap.values())
    assert total_self == pytest.approx(outer_wall)


def test_profile_mode_folds_collapsed_stacks():
    timer = PhaseTimer()
    timer.profile_mode = True
    timer.start("transfer")
    timer.start("smt")
    timer.stop()
    timer.stop()
    timer.start("transfer")
    timer.stop()
    assert set(timer.stacks) == {"transfer", "transfer;smt"}
    # Stack weights are self seconds, consistent with the totals.
    assert timer.stacks["transfer"] == pytest.approx(
        timer.totals["transfer"][0])


def test_snapshot_merge_accumulates_counts_and_seconds():
    a = PhaseTimer()
    a.start("decode"); a.stop()
    b = PhaseTimer()
    b.start("decode"); b.stop()
    b.start("join"); b.stop()
    merged = PhaseTimer.merge(a.snapshot(), b.snapshot())
    assert merged["decode"]["count"] == 2
    assert merged["join"]["count"] == 1
    assert merged["decode"]["self_seconds"] == pytest.approx(
        a.totals["decode"][0] + b.totals["decode"][0])


def test_phase_region_is_noop_when_disabled():
    obs.disable()
    phases.reset()
    region = phase("decode")
    with region:
        pass
    assert phases.totals == {}
    # Shared object, no per-use allocation.
    assert phase("join") is region


def test_phase_region_records_when_enabled():
    obs.reset()
    obs.enable(sampling=1)
    with phase("decode"):
        pass
    with phase("decode"):
        pass
    assert phases.totals["decode"][2] == 2


def test_reset_clears_open_regions_and_stacks():
    timer = PhaseTimer()
    timer.profile_mode = True
    timer.start("decode")
    timer.reset()
    assert timer.totals == {} and timer.stacks == {}
    # A stop after reset would underflow; a fresh start/stop works.
    timer.start("join")
    timer.stop()
    assert timer.totals["join"][2] == 1


# -- folds -----------------------------------------------------------------

def test_address_costs_scale_sampled_kinds():
    events = [
        Event(ts=0.0, kind="state.explore", addr=0x1000, detail={}),
        Event(ts=0.0, kind="join", addr=0x1000, detail={}),
        Event(ts=0.0, kind="join.widen", addr=0x1000, detail={}),
        Event(ts=0.0, kind="span", addr=None, detail={}),  # not an address kind
        Event(ts=0.0, kind="smt.query", addr=0x2000, detail={}),
    ]
    table = address_costs(events, sampling=8)
    # Sampled kinds scale back up by the sampling level; exact kinds
    # (widen) count 1:1.
    assert table[0x1000] == {"explores": 8, "joins": 8, "widens": 1}
    assert table[0x2000] == {"smt_queries": 8}


def test_canonical_profile_keeps_counts_drops_walls_and_smt():
    data = {
        "phases": {
            "decode": {"self_seconds": 1.0, "wall_seconds": 1.0, "count": 10},
            "smt": {"self_seconds": 0.5, "wall_seconds": 0.5, "count": 3},
        },
        "events": {"join": 7},
        "attributed_seconds": 1.5,
    }
    canon = canonical_profile(data)
    assert canon == {"phases": {"decode": 10}, "events": {"join": 7}}
    assert "smt" in NONDETERMINISTIC_PHASE_COUNTS


def test_profile_coverage_property():
    profile = Profile(
        phases={"decode": {"self_seconds": 0.6, "wall_seconds": 0.6,
                           "count": 1},
                "join": {"self_seconds": 0.35, "wall_seconds": 0.35,
                         "count": 1}},
        wall_seconds=1.0,
    )
    assert profile.attributed_seconds == pytest.approx(0.95)
    assert profile.coverage == pytest.approx(0.95)
    assert Profile().coverage is None


def test_collapsed_stacks_format():
    text = collapsed_stacks({"transfer;smt": 0.0025, "decode": 0.001})
    lines = text.splitlines()
    # Sorted by path, integer-microsecond weights.
    assert lines == ["decode 1000", "transfer;smt 2500"]


# -- corpus rollup determinism ---------------------------------------------

def test_serial_and_parallel_profile_rollups_are_byte_identical(tiny_corpus):
    serial = run_corpus(corpus=tiny_corpus, jobs=1, obs=True, obs_sampling=1)
    parallel = run_corpus(corpus=tiny_corpus, jobs=2, obs=True, obs_sampling=1)
    canon_serial = canonical_profile(profile_rollup(serial.obs))
    canon_parallel = canonical_profile(profile_rollup(parallel.obs))
    assert (json.dumps(canon_serial, sort_keys=True)
            == json.dumps(canon_parallel, sort_keys=True))
    # The rollup attributed real phase work.
    assert canon_serial["phases"]["decode"] > 0
    assert canon_serial["phases"]["join"] > 0


def test_profile_rollup_reports_coverage(tiny_corpus):
    report = run_corpus(corpus=tiny_corpus, jobs=1, obs=True, obs_sampling=1)
    wall = sum(record.seconds for record in report.records)
    data = profile_rollup(report.obs, wall_seconds=wall)
    assert data["attributed_seconds"] > 0.0
    assert 0.0 < data["coverage"] <= 1.0
    # The named phases capture the overwhelming share of lift wall time
    # (the bench gate demands >= 0.95; leave slack for CI-noise here).
    assert data["coverage"] > 0.8


# -- renderer and CLI ------------------------------------------------------

def test_render_profile_tables_and_dropped_warning():
    profile = Profile(
        phases={"decode": {"self_seconds": 0.1, "wall_seconds": 0.1,
                           "count": 5}},
        addresses={0x401000: {"explores": 3, "smt_queries": 2}},
        events={"smt.query": 2},
        wall_seconds=0.2,
        events_dropped=7,
    )
    text = render_profile(profile, title="Profile: t")
    assert "decode" in text and "0x401000" in text
    assert "50.0% attributed" in text
    assert "7 events dropped" in text


@pytest.fixture(scope="module")
def loop_elf(tmp_path_factory) -> str:
    from repro.elf import save_binary

    binary = compile_source(
        "long main(long n) { long s = 0;"
        " for (long i = 0; i < n; i = i + 1) { s = s + i; }"
        " return s; }",
        name="loop")
    path = tmp_path_factory.mktemp("profile") / "loop.elf"
    save_binary(binary, str(path))
    return str(path)


def test_profile_verb_text(loop_elf, capsys):
    from repro.__main__ import main

    assert main(["profile", loop_elf]) == 0
    out = capsys.readouterr().out
    assert "Profile:" in out
    assert "attributed to named phases" in out
    assert "decode" in out and "join" in out
    assert not obs.is_enabled(), "profile must restore the prior obs state"
    assert not phases.profile_mode


def test_profile_verb_collapsed(loop_elf, tmp_path, capsys):
    from repro.__main__ import main

    out_path = tmp_path / "stacks.folded"
    assert main(["profile", loop_elf, "--format", "collapsed",
                 "-o", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines, "profile run must fold at least one stack"
    for line in lines:
        path, weight = line.rsplit(" ", 1)
        assert path and int(weight) >= 0
    assert any(line.startswith("decode ") for line in lines)
