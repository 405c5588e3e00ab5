"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload xen_cold --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it lifts with the program in ``src/``.
With ``--trace 0`` the result holds every end-to-end metric, with
``--trace 1`` every per-layer metric (README.md lists both).  Times are
in reference seconds (``speed.py``).  The last line of standard output
is::

    {"correct": true, "attempted": N, "failed": F,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

Problems found by the oracles go to standard error.  ``--tiny`` runs a
minimal input set (the benchmark's own tests use it).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
WORKLOADS = ("xen_cold", "coreutils_step2", "serve_dedup")


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """Run *workload*; return the result object that ``main`` prints."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program to measure: {SRC / 'repro'} "
                                f"is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from speed import REFERENCE_PROBE_S, Speed

    speed = Speed()
    start = time.perf_counter()
    import repro.corpus  # noqa: F401  (set-up cost: the program's imports)
    import repro.eval.runner  # noqa: F401
    import repro.export  # noqa: F401
    import repro.hoare  # noqa: F401
    import repro.serve.client  # noqa: F401
    end = time.perf_counter()
    speed.burst()
    import_seconds = speed.seconds(start, end)

    import workloads
    from serve_dedup import run_serve_dedup

    runner = {
        "xen_cold": workloads.run_xen_cold,
        "coreutils_step2": workloads.run_coreutils_step2,
        "serve_dedup": run_serve_dedup,
    }[workload]
    result = runner(seed, seconds, trace, import_seconds, speed, tiny=tiny)
    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    metrics = {name: 0.0 for name in units} if trace else {}
    metrics.update(result.metrics)
    missing = set(units) - set(metrics)
    if missing or set(metrics) - set(units):
        raise RuntimeError(f"metric set mismatch: missing {sorted(missing)}, "
                           f"extra {sorted(set(metrics) - set(units))}")
    for problem in result.problems:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    probe = statistics.median(speed.durations)
    print(f"perfbench: {workload}: median probe {probe * 1e3:.2f} ms over "
          f"{len(speed.durations)} probes; in-process times are scaled by "
          f"about {REFERENCE_PROBE_S / probe:.3f}", file=sys.stderr)
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), tiny=args.tiny)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
