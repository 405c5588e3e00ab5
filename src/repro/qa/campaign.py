"""Campaign driver: fault/mutant trials, worker-pool fan-out, kill rates.

A **trial** pairs one detector subject (a qa target binary, a byte-level
mutant of one, or the differential battery) with at most one injected
fault.  The driver computes a fault-free baseline signature per subject in
the parent process, then runs every trial — serially or over a
:class:`~concurrent.futures.ProcessPoolExecutor` — and compares the
trial's signature against the baseline.  A differing signature is a
**kill**, attributed to the first differing detector in pipeline order.

Determinism contract (mirrors :mod:`repro.eval.runner`): trials are
deterministic functions of ``(subject bytes, fault name, seed)`` — fault
injection clears every memo cache on install and uninstall, the triple
replay is seeded, and signatures contain no wall-clock or cache-state
content.  Results are merged in sorted trial-name order, so
``canonical_json()`` is byte-identical across repeats and across
``jobs=1`` vs ``jobs=N``.

Three gates make up :meth:`CampaignReport.gate_ok`:

* every curated ``expect="killed"`` trial is killed (100% kill rate);
* no control trial detects anything (zero false positives);
* no ``expect="survives"`` mutant is killed (legal programs stay legal).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.elf import Binary
from repro.obs.metrics import metrics as _M
from repro.obs.tracer import tracer as _T
from repro.qa import detectors, faults, mutants, targets
from repro.qa.detectors import (
    DETECTOR_ORDER,
    binary_signature,
    signature_diff,
    signature_json,
)
from repro.qa.diffsweep import run_battery
from repro.qa.targets import BATTERY

#: Default replay sampling for campaign lifts (small targets, 4 witnesses
#: per triple keeps the quick campaign fast and is plenty to kill the
#: curated faults deterministically).
DEFAULT_SAMPLES = 4
DEFAULT_SEED = 2022

#: The battery subset campaign trials run (the full form sweep lives in
#: the test suite).  One sensitive form per family: ALU value+flag
#:  materialization, shifts, memory traffic, conditions, strings, stack.
BATTERY_FORMS = (
    "add-r64-r64", "sub-r64-r64", "and-r64-r64", "or-r64-r64",
    "xor-r64-r64", "cmp-r64-r64", "adc-r64-r64", "sbb-r64-r64",
    "add-r64-imm8", "add-m64-r64", "mov-r64-m64", "mov-m64-r64",
    "shl-r64-imm8", "shr-r64-cl", "sar-r64-imm8",
    "sete-r8", "setb-r8", "setl-r8", "setg-r8",
    "cmove-r64-r64", "cmovb-r64-r64",
    "je-rel", "jb-rel", "jl-rel", "jge-rel",
    "push-pop-r64", "leave-frame", "lea-r64-m",
    "movsq", "stosq", "rep_movsq",
    "imul-r64-r64", "idiv-r64", "neg-r64", "inc-r64",
)


@dataclass(frozen=True)
class Trial:
    """One campaign unit: subject × (optional) fault, plus expectations."""

    name: str
    kind: str            # "fault" | "mutant" | "control"
    target: str          # qa target name or the battery pseudo-target
    fault: str | None    # fault name (kind == "fault")
    mutation: str | None # curated/random mutant name (kind == "mutant")
    fault_class: str     # fault layer / mutation operator / "control"
    expect: str          # "killed" | "survives" | "clean" | "unknown"


@dataclass
class TrialResult:
    name: str
    kind: str
    target: str
    fault_class: str
    expect: str
    killed: bool
    killed_by: str                 # first differing detector, "" if none
    detectors: list[str] = field(default_factory=list)
    detail: str = ""
    #: Expectation met?  ("unknown" trials are always ok.)
    ok: bool = True
    #: baseline/observed signatures, kept only for trials that missed
    #: their expectation (the CI witness artifact).
    witness: dict[str, Any] | None = None


@dataclass
class CampaignReport:
    campaign: str
    seed: int
    samples: int
    results: list[TrialResult] = field(default_factory=list)

    def trials_of(self, expect: str) -> list[TrialResult]:
        return [r for r in self.results if r.expect == expect]

    @property
    def curated_killed(self) -> int:
        return sum(1 for r in self.trials_of("killed") if r.killed)

    @property
    def kill_rate(self) -> float:
        gated = self.trials_of("killed")
        return (self.curated_killed / len(gated)) if gated else 1.0

    @property
    def missed(self) -> list[TrialResult]:
        return [r for r in self.trials_of("killed") if not r.killed]

    @property
    def false_positives(self) -> list[TrialResult]:
        return [r for r in self.results
                if r.expect in ("clean", "survives") and r.killed]

    @property
    def gate_ok(self) -> bool:
        return not self.missed and not self.false_positives

    def by_class(self) -> dict[str, dict[str, int]]:
        """Per fault class: trials, kills (all trials, curated and not)."""
        out: dict[str, dict[str, int]] = {}
        for result in self.results:
            row = out.setdefault(result.fault_class,
                                 {"trials": 0, "killed": 0})
            row["trials"] += 1
            row["killed"] += int(result.killed)
        return dict(sorted(out.items()))

    def canonical(self) -> dict[str, Any]:
        """The comparison form: everything except the (large) witnesses."""
        trials = []
        for result in self.results:
            data = asdict(result)
            data.pop("witness")
            trials.append(data)
        return {
            "campaign": self.campaign,
            "seed": self.seed,
            "samples": self.samples,
            "trials": trials,
            "by_class": self.by_class(),
            "kill_rate": self.kill_rate,
            "missed": [r.name for r in self.missed],
            "false_positives": [r.name for r in self.false_positives],
            "gate_ok": self.gate_ok,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, indent=1)


# -- trial assembly -----------------------------------------------------------

#: The curated fault set: every (fault, target) pair here is required to
#: be killed.  Pairings put each fault on a subject whose verification
#: verdict the fault demonstrably influences.
CURATED_FAULT_TRIALS: tuple[tuple[str, str], ...] = (
    ("tau-add-imm-off-by-one", "scratch"),
    ("tau-add-imm-off-by-one", "frame"),
    ("tau-jcc-cond-swap", "guard"),
    ("tau-mem-disp-off-by-one", "stack"),
    ("tau-mem-disp-off-by-one", "frame"),
    ("cpu-carry-invert", BATTERY),
    ("cpu-cond-invert", "branch"),
    ("cpu-cond-invert", BATTERY),
    ("cpu-mem-addr-off-by-one", "frame"),
    ("cpu-mem-addr-off-by-one", BATTERY),
    ("smt-unknown-is-separate", "overflow"),
    ("smt-fork-drops-alias", "overflow"),
    ("join-keeps-left", "loop"),
    ("join-keeps-left", "branch"),
)


def build_trials(campaign: str = "quick") -> list[Trial]:
    """The trial list of a campaign (no binaries yet — names only)."""
    if campaign not in ("quick", "full"):
        raise ValueError(f"unknown campaign {campaign!r}")
    trials: list[Trial] = []

    for name in targets.target_names():
        trials.append(Trial(
            name=f"control/{name}", kind="control", target=name,
            fault=None, mutation=None, fault_class="control",
            expect="clean",
        ))
    trials.append(Trial(
        name=f"control/{BATTERY}", kind="control", target=BATTERY,
        fault=None, mutation=None, fault_class="control", expect="clean",
    ))

    for fault_name, target in CURATED_FAULT_TRIALS:
        layer = faults.FAULTS[fault_name].layer
        trials.append(Trial(
            name=f"fault/{fault_name}/{target}", kind="fault",
            target=target, fault=fault_name, mutation=None,
            fault_class=layer, expect="killed",
        ))

    for spec in mutants.CURATED_MUTANTS:
        trials.append(Trial(
            name=f"mutant/{spec.name}", kind="mutant", target=spec.target,
            fault=None, mutation=spec.name, fault_class=spec.operator,
            expect=spec.expect,
        ))

    if campaign == "full":
        curated = set(CURATED_FAULT_TRIALS)
        subjects = targets.target_names() + [BATTERY]
        for fault_name in sorted(faults.FAULTS):
            for target in subjects:
                if (fault_name, target) in curated:
                    continue
                layer = faults.FAULTS[fault_name].layer
                trials.append(Trial(
                    name=f"fault/{fault_name}/{target}", kind="fault",
                    target=target, fault=fault_name, mutation=None,
                    fault_class=layer, expect="unknown",
                ))
    return trials


# -- execution ----------------------------------------------------------------


@dataclass(frozen=True)
class _TrialTask:
    """One picklable unit of work (binaries resolved in the parent)."""

    trial: Trial
    binary: Binary | None      # None for the battery pseudo-target
    baseline_json: str
    samples: int
    seed: int


def _subject_signature(trial: Trial, binary: Binary | None,
                       samples: int, seed: int) -> dict[str, Any]:
    if trial.target == BATTERY:
        return {"differential": run_battery(seed, names=list(BATTERY_FORMS))}
    return binary_signature(binary, samples=samples, seed=seed)


def _summarize(baseline: dict, current: dict, section: str) -> str:
    """A one-line account of the first differing detector section."""
    if section == "lift":
        return (f"lift outcome {baseline['lift']['outcome']} -> "
                f"{current['lift']['outcome']}; errors "
                f"{baseline['lift']['errors']} -> {current['lift']['errors']}")
    if section == "triples":
        base = (baseline.get("triples") or {}).get("statuses", {})
        cur = (current.get("triples") or {}).get("statuses", {})
        return f"triple statuses {base} -> {cur}"
    if section == "differential":
        failing = current.get("differential") or []
        return (f"{len(failing)} differential form(s) diverged"
                + (f": {failing[0]}" if failing else ""))
    return f"{section} section changed"


def _run_trial(task: _TrialTask) -> TrialResult:
    """Module-level so it pickles; used verbatim on the serial path."""
    trial = task.trial
    baseline = json.loads(task.baseline_json)
    if trial.fault is not None:
        with faults.inject(trial.fault):
            current = _subject_signature(trial, task.binary,
                                         task.samples, task.seed)
    else:
        current = _subject_signature(trial, task.binary,
                                     task.samples, task.seed)
    diffs = signature_diff(baseline, current)
    killed = bool(diffs)
    killed_by = diffs[0] if diffs else ""
    if trial.expect == "killed":
        ok = killed
    elif trial.expect in ("clean", "survives"):
        ok = not killed
    else:
        ok = True
    result = TrialResult(
        name=trial.name, kind=trial.kind, target=trial.target,
        fault_class=trial.fault_class, expect=trial.expect,
        killed=killed, killed_by=killed_by, detectors=diffs,
        detail=_summarize(baseline, current, killed_by) if killed else "",
        ok=ok,
    )
    if not ok:
        result.witness = {"trial": trial.name, "expect": trial.expect,
                          "baseline": baseline, "observed": current}
    return result


def _assemble_tasks(campaign: str, seed: int,
                    samples: int) -> list[_TrialTask]:
    """Build subjects and baselines (fault-free, parent process only)."""
    trials = build_trials(campaign)

    subjects: dict[str, Binary | None] = {BATTERY: None}
    for name in targets.target_names():
        subjects[name] = targets.build_target(name)

    mutant_binaries: dict[str, Binary] = {}
    specs = {spec.name: spec for spec in mutants.CURATED_MUTANTS}
    for trial in trials:
        if trial.kind != "mutant":
            continue
        spec = specs[trial.mutation]
        mutant = mutants.apply_mutation(subjects[spec.target], spec)
        if mutant is None:
            raise RuntimeError(
                f"curated mutant {spec.name} failed to re-encode")
        mutant_binaries[trial.mutation] = mutant

    if campaign == "full":
        import random

        rng = random.Random(f"{seed}:random-mutants")
        extra: list[Trial] = []
        for target in ("arith", "branch", "frame", "stack"):
            for spec, mutant in mutants.random_mutants(
                    subjects[target], target, rng, count=3):
                extra.append(Trial(
                    name=f"mutant/{spec.name}", kind="mutant",
                    target=target, fault=None, mutation=spec.name,
                    fault_class=spec.operator, expect="unknown",
                ))
                mutant_binaries[spec.name] = mutant
        trials = trials + extra

    baselines: dict[str, str] = {}
    for name, binary in subjects.items():
        trial = Trial(name=f"baseline/{name}", kind="control", target=name,
                      fault=None, mutation=None, fault_class="control",
                      expect="clean")
        baselines[name] = signature_json(
            _subject_signature(trial, binary, samples, seed))

    tasks: list[_TrialTask] = []
    for trial in trials:
        if trial.kind == "mutant":
            binary = mutant_binaries[trial.mutation]
        else:
            binary = subjects[trial.target]
        tasks.append(_TrialTask(
            trial=trial, binary=binary,
            baseline_json=baselines[trial.target],
            samples=samples, seed=seed,
        ))
    return tasks


def run_campaign(campaign: str = "quick", seed: int = DEFAULT_SEED,
                 jobs: int = 1,
                 samples: int = DEFAULT_SAMPLES) -> CampaignReport:
    """Run a campaign; deterministic canonical report (see module doc)."""
    tasks = _assemble_tasks(campaign, seed, samples)

    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_trial, tasks))
    else:
        results = [_run_trial(task) for task in tasks]

    report = CampaignReport(campaign=campaign, seed=seed, samples=samples)
    report.results = sorted(results, key=lambda r: r.name)

    if _T.enabled:
        for result in report.results:
            _M.inc(f"qa.trials.{result.kind}")
            if result.killed:
                _M.inc(f"qa.killed.{result.fault_class}")
            if not result.ok:
                _M.inc("qa.expectation-missed")
            _T.emit("qa.trial", name=result.name, killed=result.killed,
                    killed_by=result.killed_by, ok=result.ok)
    return report
