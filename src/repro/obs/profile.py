"""Span-derived self-time profiling: where does lifting effort go?

The paper's evaluation is organized around *cost attribution* —
instructions lifted, SMT queries issued, joins performed — but the PR-3
tracer only records flat event streams.  This module adds the missing
fold: a process-global :class:`PhaseTimer` accumulates **self time** (own
wall time minus time spent in nested phases) for the pipeline's named
phases — ``schedule``, ``decode``, ``transfer``, ``resolve``, ``join``,
``smt``, ``finish``, ``export`` — and :func:`build_profile` combines the
phase totals with the tracer's per-address event stream into a
:class:`Profile`: per-phase and per-address cost tables, a collapsed-stack
flamegraph, and a wall-time attribution (coverage) figure.

Cost discipline (same as the tracer): every phase region is guarded by
``tracer.enabled`` via :func:`phase`, so a disabled run pays one function
call, one attribute load, and a branch per region.  Enabled, a region
costs two ``perf_counter`` reads and a handful of float ops — no
allocation, no ring pressure (phases are *not* events; the collapsed-stack
fold runs only in ``profile_mode``, which ``python -m repro profile``
switches on for one lift).

Determinism: per-phase **counts** are a pure function of the lifted task
(one ``decode`` per fetched instruction, one ``join`` per changed vertex,
…) for every phase except ``smt``, whose count is the solver-cache *miss*
count and therefore depends on cache warmth — exactly the split
:func:`repro.obs.report.canonical_obs` already makes for the hit/miss
counters.  :func:`canonical_profile` keeps the deterministic counts and
strips wall time, so serial and worker-pool corpus profiles roll up
byte-identically.

Stdlib-only, imports nothing from :mod:`repro` outside :mod:`repro.obs`.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.tracer import Event, tracer

#: The named pipeline phases, in pipeline order (rendering order).
PHASES = ("schedule", "decode", "transfer", "resolve", "join", "smt",
          "finish", "export", "pointer")

#: Phases whose *count* depends on cache warmth (solver-cache misses) and
#: is therefore excluded from the canonical (deterministic) profile form.
NONDETERMINISTIC_PHASE_COUNTS = frozenset({"smt"})

#: Event kinds folded into the per-address cost table, with the column
#: they land in and whether the kind is sampled (recorded 1-in-N but
#: counted exactly — per-address figures scale back up by the sampling
#: level and are estimates unless sampling == 1).
_ADDRESS_KINDS = {
    "state.explore": ("explores", True),
    "state.enqueue": ("enqueues", True),
    "join": ("joins", True),
    "join.widen": ("widens", False),
    "smt.query": ("smt_queries", True),
    "annotation": ("annotations", False),
    "reject": ("rejects", False),
}


class _PhaseRegion:
    """Reusable context manager for one named phase (no per-use allocation).

    ``__enter__``/``__exit__`` duplicate :meth:`PhaseTimer.start`/``stop``
    inline: regions run several hundred thousand times per corpus and the
    saved call frames are a measurable slice of the <=1.05x enabled-
    overhead budget.  Keep the two in sync."""

    __slots__ = ("timer", "name")

    def __init__(self, timer: "PhaseTimer", name: str) -> None:
        self.timer = timer
        self.name = name

    def __enter__(self) -> "_PhaseRegion":
        self.timer._stack.append([self.name, time.perf_counter(), 0.0])
        return self

    def __exit__(self, *exc) -> None:
        timer = self.timer
        name, t0, child = timer._stack.pop()
        wall = time.perf_counter() - t0
        slot = timer.totals.get(name)
        if slot is None:
            slot = timer.totals[name] = [0.0, 0.0, 0]
        self_seconds = wall - child
        slot[0] += self_seconds
        slot[1] += wall
        slot[2] += 1
        if timer._stack:
            timer._stack[-1][2] += wall
        if timer.profile_mode:
            path = ";".join([frame[0] for frame in timer._stack] + [name])
            timer.stacks[path] = timer.stacks.get(path, 0.0) + self_seconds


class _NullRegion:
    """The no-op region returned when the obs layer is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullRegion":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_REGION = _NullRegion()


class PhaseTimer:
    """Self-time accumulation over a stack of named phases.

    ``totals`` maps phase name to ``[self_seconds, wall_seconds, count]``.
    Self time is wall time minus the wall time of nested regions, so the
    per-phase figures sum to the instrumented wall time with no double
    counting — the property the ≥95% attribution gate is stated over.

    ``profile_mode`` additionally folds every region exit into
    ``stacks``: collapsed-stack path (``"transfer;smt"``) → self seconds,
    the standard flamegraph input.  Off by default (string joins on the
    hot path are profile-run-only).
    """

    __slots__ = ("_stack", "totals", "profile_mode", "stacks")

    def __init__(self) -> None:
        # Stack frames are [name, start, child_wall_seconds].
        self._stack: list[list] = []
        self.totals: dict[str, list] = {}
        self.profile_mode = False
        self.stacks: dict[str, float] = {}

    def start(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def stop(self) -> float:
        """Close the innermost region; returns its wall seconds."""
        name, t0, child = self._stack.pop()
        wall = time.perf_counter() - t0
        slot = self.totals.get(name)
        if slot is None:
            slot = self.totals[name] = [0.0, 0.0, 0]
        self_seconds = wall - child
        slot[0] += self_seconds
        slot[1] += wall
        slot[2] += 1
        if self._stack:
            self._stack[-1][2] += wall
        if self.profile_mode:
            path = ";".join([frame[0] for frame in self._stack] + [name])
            self.stacks[path] = self.stacks.get(path, 0.0) + self_seconds
        return wall

    def reset(self) -> None:
        """Drop accumulated totals, stacks, and any open regions."""
        self._stack.clear()
        self.totals = {}
        self.stacks = {}

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready, mergeable copy of the phase totals."""
        return {
            name: {"self_seconds": slot[0], "wall_seconds": slot[1],
                   "count": slot[2]}
            for name, slot in self.totals.items()
        }

    @staticmethod
    def merge(into: dict[str, Any], other: dict[str, Any]) -> dict[str, Any]:
        """Accumulate one :meth:`snapshot` dict into another (returns *into*)."""
        for name, slot in other.items():
            target = into.setdefault(
                name, {"self_seconds": 0.0, "wall_seconds": 0.0, "count": 0})
            target["self_seconds"] += slot.get("self_seconds", 0.0)
            target["wall_seconds"] += slot.get("wall_seconds", 0.0)
            target["count"] += slot.get("count", 0)
        return into


#: The process-global phase timer, reset together with the tracer/metrics
#: (see :func:`repro.obs.reset`) and per corpus task by the runner.
phases = PhaseTimer()


def phase(name: str):
    """A phase region context manager — the shared no-op when disabled.

    Hot-path idiom, mirroring ``tracer.span``::

        with phase("decode"):
            instr = binary.fetch(rip)
    """
    if not tracer.enabled:
        return _NULL_REGION
    region = _REGIONS.get(name)
    if region is None:
        region = _REGIONS[name] = _PhaseRegion(phases, name)
    return region


_REGIONS: dict[str, _PhaseRegion] = {}


# -- the profile -----------------------------------------------------------

@dataclass
class Profile:
    """One folded cost profile (single lift or corpus rollup)."""

    #: Phase name -> {self_seconds, wall_seconds, count}.
    phases: dict[str, dict] = field(default_factory=dict)
    #: Address -> column -> (scaled) event count.
    addresses: dict[int, dict[str, int]] = field(default_factory=dict)
    #: Collapsed-stack path -> self seconds (profile-mode runs only).
    stacks: dict[str, float] = field(default_factory=dict)
    #: Exact event-kind totals (from ``tracer.counts``).
    events: dict[str, int] = field(default_factory=dict)
    #: The wall time being attributed (lift seconds), when known.
    wall_seconds: float | None = None
    #: Sampling level the per-address figures were scaled by.
    sampling: int = 1
    #: Events lost to ring wrap-around during capture.
    events_dropped: int = 0

    @property
    def attributed_seconds(self) -> float:
        return sum(slot.get("self_seconds", 0.0)
                   for slot in self.phases.values())

    @property
    def coverage(self) -> float | None:
        """Fraction of ``wall_seconds`` attributed to named phases."""
        if not self.wall_seconds:
            return None
        return self.attributed_seconds / self.wall_seconds


def address_costs(events: Iterable[Event],
                  sampling: int = 1) -> dict[int, dict[str, int]]:
    """Fold the event stream into a per-address cost table.

    Sampled kinds are scaled back up by *sampling*; with the profile
    CLI's default ``sampling=1`` the figures are exact counts.
    """
    table: dict[int, dict[str, int]] = {}
    for event in events:
        spec = _ADDRESS_KINDS.get(event.kind)
        if spec is None or event.addr is None:
            continue
        column, sampled = spec
        row = table.setdefault(event.addr, {})
        row[column] = row.get(column, 0) + (sampling if sampled else 1)
    return table


def build_profile(events: Iterable[Event],
                  counts: dict[str, int],
                  phases_snapshot: dict[str, Any] | None = None,
                  wall_seconds: float | None = None,
                  sampling: int = 1,
                  stacks: dict[str, float] | None = None,
                  events_dropped: int = 0) -> Profile:
    """Fold one capture (events + phase totals) into a :class:`Profile`."""
    return Profile(
        phases=dict(phases_snapshot or {}),
        addresses=address_costs(events, sampling=sampling),
        stacks=dict(stacks or {}),
        events=dict(counts),
        wall_seconds=wall_seconds,
        sampling=sampling,
        events_dropped=events_dropped,
    )


def canonical_profile(profile_data: dict[str, Any]) -> dict[str, Any]:
    """The deterministic view of a profile rollup dict.

    Keeps per-phase *counts* (minus the cache-warmth-dependent ``smt``)
    and exact event totals; strips every wall-clock quantity.  Serial and
    worker-pool corpus profiles agree byte-for-byte on this form.
    """
    phase_counts = {
        name: slot.get("count", 0)
        for name, slot in sorted(profile_data.get("phases", {}).items())
        if name not in NONDETERMINISTIC_PHASE_COUNTS
    }
    return {
        "phases": phase_counts,
        "events": dict(profile_data.get("events", {})),
    }


def profile_rollup(obs: dict[str, Any],
                   wall_seconds: float | None = None) -> dict[str, Any]:
    """Aggregate a corpus obs rollup (``CorpusReport.obs``) into one
    profile dict: merged phase totals, exact event totals, coverage."""
    totals = obs.get("totals", {})
    phases_total: dict[str, Any] = dict(totals.get("phases", {}))
    events_total = dict(totals.get("events", {}))
    attributed = sum(slot.get("self_seconds", 0.0)
                     for slot in phases_total.values())
    data: dict[str, Any] = {
        "phases": phases_total,
        "events": events_total,
        "attributed_seconds": round(attributed, 6),
    }
    if wall_seconds:
        data["wall_seconds"] = round(wall_seconds, 6)
        data["coverage"] = round(attributed / wall_seconds, 4)
    return data


# -- renderers -------------------------------------------------------------

def collapsed_stacks(stacks: dict[str, float]) -> str:
    """The collapsed-stack flamegraph form: ``path self_microseconds``.

    One line per stack path, sorted by path; weights are integer
    microseconds — the exact input format of flamegraph.pl / speedscope /
    inferno.
    """
    return "\n".join(f"{path} {max(0, round(seconds * 1_000_000))}"
                     for path, seconds in sorted(stacks.items()))


def _phase_order(name: str) -> tuple[int, str]:
    try:
        return (PHASES.index(name), name)
    except ValueError:
        return (len(PHASES), name)


def render_profile(profile: Profile, top: int = 20,
                   title: str = "Profile") -> str:
    """The ``python -m repro profile`` text report: phase self-time table
    plus the top-*top* per-address cost table."""
    out = io.StringIO()
    wall = profile.wall_seconds
    head = title
    if wall:
        head += f": {wall:.3f} s wall"
        coverage = profile.coverage
        if coverage is not None:
            head += f", {coverage:.1%} attributed to named phases"
    out.write(head + "\n")
    if profile.events_dropped:
        out.write(f"WARNING: {profile.events_dropped} events dropped from "
                  "the trace ring (per-address figures are truncated)\n")
    out.write("\nPhase          self(s)    wall(s)      count\n")
    for name in sorted(profile.phases, key=_phase_order):
        slot = profile.phases[name]
        out.write(f"  {name:<12} {slot.get('self_seconds', 0.0):>8.3f} "
                  f"{slot.get('wall_seconds', 0.0):>10.3f} "
                  f"{slot.get('count', 0):>10}\n")
    if wall:
        other = wall - profile.attributed_seconds
        out.write(f"  {'(other)':<12} {other:>8.3f}\n")
    if profile.addresses:
        estimate = "" if profile.sampling == 1 else \
            f" (scaled x{profile.sampling} from sampled events)"
        out.write(f"\nTop {min(top, len(profile.addresses))} addresses by "
                  f"attributed events{estimate}:\n")
        out.write("  address      explores    joins   widens  smt.q  "
                  "annot  reject\n")

        def weight(item) -> tuple:
            row = item[1]
            return (row.get("smt_queries", 0) + row.get("joins", 0)
                    + row.get("explores", 0), item[0])

        ranked = sorted(profile.addresses.items(), key=weight, reverse=True)
        for addr, row in ranked[:top]:
            out.write(
                f"  {addr:#10x} {row.get('explores', 0):>9} "
                f"{row.get('joins', 0):>8} {row.get('widens', 0):>8} "
                f"{row.get('smt_queries', 0):>6} "
                f"{row.get('annotations', 0):>6} {row.get('rejects', 0):>7}\n"
            )
    smt_wall = profile.phases.get("smt", {}).get("self_seconds")
    queries = profile.events.get("smt.query")
    if queries and smt_wall is not None:
        out.write(f"\nSMT: {queries} queries, {smt_wall:.3f} s solver "
                  f"self-time ({smt_wall / queries * 1e6:.1f} us/query)\n")
    return out.getvalue()
