"""The three benchmark workloads and their correctness oracles.

Every workload returns a :class:`Result`.  Each runs against the program's
default lift options (tau engine, SCC schedule, no pointer summaries) and
calls only public functions of ``repro``; nothing under ``src/`` is
patched except during a traced pass (see :mod:`layers`).  Times measured
in this process are in reference seconds (see :mod:`speed`).

* ``xen_cold``: a fixed draw of the scale-1 xenlike corpus, lifted serially
  in one process with the memo caches reset before each task and the lift
  store off.
* ``coreutils_step2``: Table 2's chain, lift -> export_theory ->
  check_triples, over four of the six coreutils analogues.
* ``serve_dedup``: a ``python -m repro serve`` daemon fed whole-program
  ELFs open-loop, with repeats that the lift store or an in-flight job
  answer.

README.md has the metric table and why each workload exists.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import Tracer, installed
from speed import Speed

#: The checkout this file lives in; ``src/`` holds the program.
CHECKOUT = Path(__file__).resolve().parents[1]
SRC = CHECKOUT / "src"
#: Scratch space for ELFs, sockets and lift stores (ignored by git).
SCRATCH = CHECKOUT / ".bench_tmp"

SETUP_REPEATS = 3
#: Witnesses per Step-2 triple, as in Table 2.
CHECK_SAMPLES = 4

#: xen_cold lifts every task of the corpus except the functions of a loop
#: template after its first occurrence; functions of these loop-free
#: templates lift in milliseconds without a join and are all kept.
LOOP_FREE_TEMPLATES = ("arith_", "clamp_", "dispatch_", "invoke_",
                       "register_", "fire_", "recur_", "use_", "fillbuf_",
                       "divmod_")

#: coreutils_step2 runs these Table 2 programs; od and tar do not fit in a
#: run (README.md).
COREUTILS_PROGRAMS = ("wc", "du", "hexdump", "gzip")

#: End-to-end metrics (tracing off) and per-layer metrics (traced run).
END_TO_END = {
    "setup_s": "s",
    "lift_instrs_per_s": "1/s",
    "task_p50_s": "s",
    "task_p90_s": "s",
    "verify_instrs_per_s": "1/s",
    "check_triples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "serve_jobs_per_s": "1/s",
}
PER_LAYER = {
    "hoare.lift_s": "s",
    "hoare.states": "count",
    "hoare.joins": "count",
    "hoare.visits_per_instr": "ratio",
    "hoare.resolve_s": "s",
    "hoare.schedule_s": "s",
    "semantics.step_calls": "count",
    "semantics.step_self_s": "s",
    "semantics.join_calls": "count",
    "semantics.join_self_s": "s",
    "semantics.states_equal_s": "s",
    "pred.join_self_s": "s",
    "memmodel.join_self_s": "s",
    "memmodel.ins_calls": "count",
    "memmodel.ins_self_s": "s",
    "smt.queries": "count",
    "smt.hit_ratio": "ratio",
    "smt.decide_self_s": "s",
    "isa.decode_calls": "count",
    "isa.decode_s": "s",
    "cache.pred.join_values.hit_ratio": "ratio",
    "cache.pred.intervals.hit_ratio": "ratio",
    "cache.smt.decide.hit_ratio": "ratio",
    "cache.expr.intern.hit_ratio": "ratio",
    "export.theory_s": "s",
    "export.check_s": "s",
    "export.triples": "count",
    "export.proven_ratio": "ratio",
    "export.untested": "count",
    "export.failed": "count",
    "machine.execute_s": "s",
    "serve.submit_rtt_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.queue_wait_p90_s": "s",
    "serve.run_s": "s",
    "serve.dedup_ratio": "ratio",
    "serve.store_answers": "count",
    "serve.inflight_attach": "count",
    "serve.worker_respawns": "count",
    "corpus.build_s": "s",
    "bench.gen_lag_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.attribution_share": "ratio",
}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    #: False when an output is unsound or inconsistent (a FAILED triple, a
    #: served record that differs from a direct lift) or the run was not
    #: isolated.  An op that only misses its designed verdict counts in
    #: ``failed`` without voiding the run.
    correct: bool = True
    metrics: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str, incorrect: bool = False) -> None:
        self.failed += 1
        self.problems.append(problem)
        if incorrect:
            self.correct = False

    def invalid(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)


@dataclass
class TaskRun:
    """One lift task of a serial pass."""

    name: str
    record: object | None
    error: str | None
    seconds: float
    #: Seconds from the task's start to its last verdict (Step-2 included):
    #: the latency of a closed-loop job.
    job_seconds: float


@dataclass
class Chain:
    """One lift -> export -> check run (the Table 2 protocol)."""

    name: str
    verified: bool
    instructions: int
    states: int
    lift_s: float
    export_s: float
    check_s: float
    triples: int
    proven: int
    untested: int
    #: (instruction address, detail) of every FAILED triple.
    failures: list[tuple[int, str]]
    record: dict | None = None

    @property
    def seconds(self) -> float:
        return self.lift_s + self.export_s + self.check_s


# -- statistics --------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def median_setup(setup, import_seconds: float, speed: Speed,
                 teardown=None):
    """Set up SETUP_REPEATS times; return (last value, median seconds).

    Each sample adds the one-time import cost, which only the first set-up
    in a process pays.  *teardown* undoes all but the last set-up,
    untimed."""
    times, value = [], None
    for index in range(SETUP_REPEATS):
        if index and teardown is not None:
            teardown(value)
        speed.tick()
        start = time.perf_counter()
        value = setup(index)
        end = time.perf_counter()
        speed.burst()
        times.append(speed.seconds(start, end) + import_seconds)
    return value, statistics.median(times)


def timed(speed: Speed, call, *args, **kwargs):
    """``call(*args, **kwargs)`` and its time in reference seconds."""
    speed.tick()
    start = time.perf_counter()
    value = call(*args, **kwargs)
    end = time.perf_counter()
    speed.tick()
    return value, speed.seconds(start, end)


# -- shared pieces -----------------------------------------------------------


def _defaults(fn) -> dict:
    import inspect

    return {name: param.default for name, param in
            inspect.signature(fn).parameters.items()
            if param.default is not inspect.Parameter.empty}


#: Memo caches whose hit ratio is reported, by ``repro.perf`` name.
REPORTED_CACHES = ("pred.join_values", "pred.intervals", "smt.decide",
                   "expr.intern")
#: Lift-store counters: any movement means ambient state reached the run.
STORE_COUNTERS = ("cache_lift_hits", "cache_lift_misses",
                  "cache_lift_stores")


class Ledger:
    """Perf-counter and memo-cache totals of a pass that starts cold.

    ``repro.perf.reset_caches()`` also zeroes the global counters, so a
    pass that goes cold again before each lift banks the counts first."""

    def __init__(self) -> None:
        from repro.perf import reset_caches

        reset_caches()
        self.counters: dict[str, int] = {}
        self.caches = {name: [0, 0] for name in REPORTED_CACHES}

    def cold(self) -> None:
        """Bank the counts since the last reset, then reset again."""
        from repro.perf import cache_stats, reset_caches
        from repro.perf.counters import counters

        counters.merge(self.counters, counters.snapshot())
        stats = cache_stats()
        for name, totals in self.caches.items():
            totals[0] += stats[name]["hits"]
            totals[1] += stats[name]["misses"]
        reset_caches()

    def store_untouched(self) -> bool:
        return not any(self.counters.get(name) for name in STORE_COUNTERS)

    def hit_ratios(self) -> dict:
        return {f"cache.{name}.hit_ratio": ratio(hits, hits + misses)
                for name, (hits, misses) in self.caches.items()}


def step2_chain(name: str, lifted, lift_s: float, seed: int,
                speed: Speed) -> Chain:
    """Export and replay one lift result (4 witnesses per triple)."""
    from repro import export

    _, export_s = timed(speed, export.export_theory, lifted)
    report, check_s = timed(speed, export.check_triples, lifted,
                            samples=CHECK_SAMPLES, seed=seed)
    return chain_from_report(name, lifted, report, lift_s, export_s, check_s)


def chain_from_report(name: str, lifted, report, lift_s: float,
                      export_s: float, check_s: float) -> Chain:
    return Chain(
        name=name, verified=lifted.verified,
        instructions=lifted.stats.instructions, states=lifted.stats.states,
        lift_s=lift_s, export_s=export_s, check_s=check_s,
        triples=len(report.checks), proven=report.proven,
        untested=report.untested,
        failures=[(check.instr_addr, check.detail)
                  for check in report.checks if check.status == "FAILED"])


def check_chain(result: Result, chain: Chain,
                lift_counted: bool = False) -> None:
    """Oracle for one Step-2 chain: the lift must verify, and every
    replayed triple is one op, a FAILED one an unsound output.  The lift
    is an op too, unless *lift_counted* says another oracle judged it."""
    result.attempted += chain.triples
    if not lift_counted:
        result.attempted += 1
        if not chain.verified:
            result.fail(f"{chain.name}: lift not verified", incorrect=True)
    for addr, detail in chain.failures:
        result.fail(f"{chain.name}: FAILED triple at {addr:#x}: {detail}",
                    incorrect=True)


def chain_metrics(chains: list[Chain]) -> dict:
    return {
        "verify_instrs_per_s": ratio(sum(c.instructions for c in chains),
                                     sum(c.seconds for c in chains)),
        "check_triples_per_s": ratio(sum(c.triples for c in chains),
                                     sum(c.check_s for c in chains)),
    }


def chain_layer_metrics(chains: list[Chain]) -> dict:
    triples = sum(c.triples for c in chains)
    return {
        "export.theory_s": sum(c.export_s for c in chains),
        "export.check_s": sum(c.check_s for c in chains),
        "export.triples": triples,
        "export.proven_ratio": ratio(sum(c.proven for c in chains), triples),
        "export.untested": sum(c.untested for c in chains),
        "export.failed": sum(len(c.failures) for c in chains),
    }


def traced_layer_metrics(tracer: Tracer, instructions: int,
                         ledger: Ledger) -> dict:
    """Per-layer metrics of one traced in-process pass."""
    get = tracer.get
    counts = ledger.counters
    queries = counts["solver_hits"] + counts["solver_misses"]
    return {
        **ledger.hit_ratios(),
        "hoare.lift_s": get("hoare.lift").total,
        "hoare.joins": counts["lift_joins"],
        "hoare.visits_per_instr": ratio(get("semantics.step").calls,
                                        instructions),
        "hoare.resolve_s": get("hoare.resolve").self_time,
        "hoare.schedule_s": get("hoare.schedule").self_time,
        "semantics.step_calls": get("semantics.step").calls,
        "semantics.step_self_s": get("semantics.step").self_time,
        "semantics.join_calls": get("semantics.join").calls,
        "semantics.join_self_s": get("semantics.join").self_time,
        "semantics.states_equal_s": get("semantics.states_equal").total,
        "pred.join_self_s": get("pred.join").self_time,
        "memmodel.join_self_s": get("memmodel.join").self_time,
        "memmodel.ins_calls": get("memmodel.ins").calls,
        "memmodel.ins_self_s": get("memmodel.ins").self_time,
        "smt.queries": queries,
        "smt.hit_ratio": ratio(counts["solver_hits"], queries),
        "smt.decide_self_s": get("smt.decide").self_time,
        "isa.decode_calls": get("isa.decode").calls,
        "isa.decode_s": get("isa.decode").total,
        "machine.execute_s": get("machine.execute").self_time,
        "trace.attribution_share": tracer.attribution(),
    }


def closed_loop_metrics(runs: list[TaskRun], instructions: int) -> dict:
    """Task, job and throughput metrics of a serial (closed-loop) pass."""
    task_s = [run.seconds for run in runs]
    job_s = [run.job_seconds for run in runs]
    return {
        "lift_instrs_per_s": ratio(instructions, sum(task_s)),
        "task_p50_s": percentile(task_s, 0.5),
        "task_p90_s": percentile(task_s, 0.9),
        "job_p50_s": percentile(job_s, 0.5),
        "job_p90_s": percentile(job_s, 0.9),
        "serve_jobs_per_s": ratio(len(job_s), sum(job_s)),
    }


def step2_pass(programs, seed: int,
               speed: Speed) -> tuple[list[Chain], Ledger]:
    """Table 2's chain, cold lift -> export -> check, per (name, binary).

    Memo caches are reset before each lift, as a fresh ``python -m repro``
    sees it, so a program's times do not depend on the seeded order."""
    from repro import hoare

    ledger = Ledger()
    chains = []
    for name, binary in programs:
        ledger.cold()
        lifted, lift_s = timed(speed, hoare.lift, binary, cache=False)
        chains.append(step2_chain(name, lifted, lift_s, seed, speed))
    ledger.cold()
    return chains, ledger


def lift_only(programs, speed: Speed) -> list[float]:
    """Cold lift times alone (a traced run's untraced reference)."""
    from repro import hoare
    from repro.perf import reset_caches

    times = []
    for _, binary in programs:
        reset_caches()
        times.append(timed(speed, hoare.lift, binary, cache=False)[1])
    return times


# -- xen_cold ----------------------------------------------------------------


def designed_outcomes(corpus) -> dict[str, str]:
    """Task name -> the outcome the corpus was built to produce."""
    expected = {b.name: b.expected for b in corpus.binaries}
    for library in corpus.libraries:
        for function in library.functions:
            expected[f"{library.name}:{function}"] = \
                library.expected.get(function, "lifted")
    return expected


def xen_draw(tasks, expected: dict[str, str], tiny: bool = False) -> list:
    """The fixed task draw; the seed only orders it (README.md)."""
    draw, seen = [], set()
    for task in tasks:
        template = None if task.function is None \
            else task.function.split("_")[0]
        loop = template is not None and expected[task.name] == "lifted" \
            and not task.function.startswith(LOOP_FREE_TEMPLATES)
        if not loop or template not in seen:
            draw.append(task)
        if loop:
            seen.add(template)
    if tiny:
        failing = [t for t in draw if expected[t.name] != "lifted"]
        light = [t for t in draw if t.function is not None
                 and t.function.startswith(LOOP_FREE_TEMPLATES)][:4]
        program = next(t for t in draw if t.function is None
                       and expected[t.name] == "lifted")
        return failing + light + [program]
    return draw


def xen_oracle(result: Result, run: TaskRun, expected: str) -> None:
    """A task fails if it raised or its outcome is not the designed one."""
    result.attempted += 1
    if run.error is not None:
        result.fail(f"{run.name}: raised {run.error}")
    elif run.record.outcome != expected:
        result.fail(f"{run.name}: outcome {run.record.outcome}, "
                    f"designed {expected}")


def lift_task(task):
    """Lift one corpus task as ``run_task`` does, keeping the result."""
    from repro import hoare

    options = dict(max_states=task.max_states,
                   timeout_seconds=task.timeout_seconds,
                   schedule=task.schedule, cache=False)
    if task.function is None:
        return hoare.lift(task.binary, **options)
    return hoare.lift_function(task.binary, task.function, **options)


def lift_pass(tasks, seed: int, speed: Speed, step2=frozenset()
              ) -> tuple[list[TaskRun], list[Chain], Ledger]:
    """One serial pass, each task cold: memo caches are reset before each
    lift, as a fresh ``python -m repro`` sees it, so a task's time does not
    depend on the seeded order.  A task named in *step2* is validated right
    after its lift, so its job runs until the Step-2 verdict."""
    from repro.eval.runner import record_from_result

    ledger = Ledger()
    runs, chains = [], []
    for task in tasks:
        ledger.cold()
        speed.tick()
        start = time.perf_counter()
        try:
            lifted = lift_task(task)
            record = record_from_result(task.name, task.directory,
                                        task.kind, lifted)
            error = None
        except Exception as exc:  # a raising task is a failed op
            lifted, record = None, None
            error = f"{type(exc).__name__}: {exc}"
        lift_end = time.perf_counter()
        speed.tick()
        lift_s = speed.seconds(start, lift_end)
        if task.name in step2 and lifted is not None:
            chains.append(step2_chain(task.name, lifted, lift_s, seed,
                                      speed))
        end = time.perf_counter()
        speed.tick()
        runs.append(TaskRun(task.name, record, error, lift_s,
                            speed.seconds(start, end)))
    ledger.cold()
    return runs, chains, ledger


def run_xen_cold(seed: int, seconds: float, trace: bool,
                 import_seconds: float, speed: Speed,
                 tiny: bool = False) -> Result:
    from repro.corpus import build_corpus
    from repro.eval import runner

    build_times = []

    def setup(_index):
        start = time.perf_counter()
        corpus = build_corpus(1)
        build_times.append(time.perf_counter() - start)
        options = _defaults(runner.run_corpus)
        tasks = runner.corpus_tasks(
            corpus, options["timeout_seconds"], options["max_states"],
            False, 1, False, None, options["schedule"])
        expected = designed_outcomes(corpus)
        return xen_draw(tasks, expected, tiny), expected

    (draw, expected), setup_s = median_setup(setup, import_seconds, speed)
    order = list(draw)
    random.Random(seed).shuffle(order)
    #: Whole programs designed to lift also get Table 2's Step-2 chain.
    programs = {t.name for t in order
                if t.kind == "binary" and expected[t.name] == "lifted"}

    tracer = Tracer()
    if trace:
        reference, _, _ = lift_pass(order[: max(1, len(order) // 2)], seed,
                                    speed, programs)
        with installed(tracer):
            runs, chains, ledger = lift_pass(order, seed, speed, programs)
    else:
        runs, chains, ledger = lift_pass(order, seed, speed, programs)

    result = Result()
    for run in runs:
        xen_oracle(result, run, expected[run.name])
    for chain in chains:
        check_chain(result, chain, lift_counted=True)
    if not ledger.store_untouched():
        result.invalid("lift store used despite cache=False")

    records = [run.record for run in runs if run.record is not None]
    instructions = sum(record.instructions for record in records)
    if trace:
        result.metrics = {
            **traced_layer_metrics(tracer, instructions, ledger),
            **chain_layer_metrics(chains),
            "hoare.states": sum(record.states for record in records),
            "corpus.build_s": statistics.median(build_times),
            "trace.overhead_ratio": ratio(
                sum(run.seconds for run in runs[:len(reference)]),
                sum(run.seconds for run in reference)),
        }
    else:
        result.metrics = {
            **closed_loop_metrics(runs, instructions),
            **chain_metrics(chains),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb() - speed.footprint_mb,
        }
    return result


# -- coreutils_step2 -----------------------------------------------------------


def run_coreutils_step2(seed: int, seconds: float, trace: bool,
                        import_seconds: float, speed: Speed,
                        tiny: bool = False) -> Result:
    from repro.corpus import build_coreutils

    build_times = []
    names = COREUTILS_PROGRAMS[:1] if tiny else COREUTILS_PROGRAMS

    def setup(_index):
        start = time.perf_counter()
        built = build_coreutils()
        build_times.append(time.perf_counter() - start)
        return [(name, built[name]) for name in names]

    programs, setup_s = median_setup(setup, import_seconds, speed)
    random.Random(seed).shuffle(programs)

    tracer = Tracer()
    if trace:
        reference = lift_only(programs[: max(1, len(programs) // 2)], speed)
        with installed(tracer):
            chains, ledger = step2_pass(programs, seed, speed)
    else:
        # Whole programs without a budget: sampled inside the calls too.
        with speed.sampling():
            chains, ledger = step2_pass(programs, seed, speed)

    result = Result()
    for chain in chains:
        check_chain(result, chain)
    if not ledger.store_untouched():
        result.invalid("lift store used despite cache=False")

    instructions = sum(chain.instructions for chain in chains)
    if trace:
        result.metrics = {
            **traced_layer_metrics(tracer, instructions, ledger),
            **chain_layer_metrics(chains),
            "hoare.states": sum(chain.states for chain in chains),
            "corpus.build_s": statistics.median(build_times),
            "trace.overhead_ratio": ratio(
                sum(chain.lift_s for chain in chains[:len(reference)]),
                sum(reference)),
        }
    else:
        runs = [TaskRun(c.name, None, None, c.lift_s, c.seconds)
                for c in chains]
        result.metrics = {
            **closed_loop_metrics(runs, instructions),
            **chain_metrics(chains),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb() - speed.footprint_mb,
        }
    return result
