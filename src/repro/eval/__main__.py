"""CLI: ``python -m repro.eval
<table1|table2|figure3|failures|bench|obs|qa|history|all>``."""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's tables and figures on the "
                    "synthetic corpus.",
    )
    parser.add_argument("what", choices=["table1", "table2", "figure3",
                                         "failures", "scaling", "lint",
                                         "pointer", "bench", "obs", "qa",
                                         "history", "all"])
    parser.add_argument("--scale", type=int, default=1,
                        help="corpus scale factor (default 1)")
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="per-binary lifting timeout in seconds")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for corpus lifting "
                             "(default 1 = serial)")
    parser.add_argument("--quick", action="store_true",
                        help="bench: use the scale-1 corpus instead of "
                             "scale 3")
    parser.add_argument("--check-determinism", action="store_true",
                        help="bench: also lift with 2 workers and require "
                             "the canonical reports to match")
    parser.add_argument("--trace-overhead", action="store_true",
                        help="bench: also measure the obs-enabled lift-time "
                             "ratio (scale-1 corpus, default sampling)")
    parser.add_argument("--cold", action="store_true",
                        help="bench: measure the cold (empty-store) cached "
                             "lift; with --warm, records both sides of the "
                             "persistent-store split")
    parser.add_argument("--warm", action="store_true",
                        help="bench: measure the warm (populated-store) "
                             "cached lift; implies the cold pass that "
                             "populates it")
    parser.add_argument("--schedule-ab", action="store_true",
                        help="bench: also run the address-vs-SCC schedule "
                             "A/B (scale-1 corpus)")
    parser.add_argument("--summaries-ab", action="store_true",
                        help="bench: also run the pointer-summaries "
                             "feedback A/B (off vs --pointer-summaries)")
    parser.add_argument("--serve-ab", action="store_true",
                        help="bench: also run the corpus through an "
                             "in-process repro serve daemon and require "
                             "its canonical report to match the direct "
                             "run byte-for-byte")
    parser.add_argument("--serve-workers", type=int, default=2,
                        help="serve A/B: daemon worker-pool size "
                             "(default 2)")
    parser.add_argument("--sampling", type=int, default=None,
                        help="obs: record 1 in N high-frequency events "
                             "(default: the obs layer's default)")
    parser.add_argument("--profile", action="store_true",
                        help="bench: also fold an obs-enabled corpus lift "
                             "into the phase cost profile (gated: >=95%% "
                             "of lift wall must be attributed)")
    parser.add_argument("--no-history", action="store_true",
                        help="bench: do not append this run to "
                             "benchmarks/history")
    parser.add_argument("--history-dir", default=None,
                        help="history/bench: history directory (default "
                             "benchmarks/history under the repo root)")
    parser.add_argument("--check", action="store_true",
                        help="history: gate the newest run of each key "
                             "against its rolling baseline (exit 1 on "
                             "regression)")
    parser.add_argument("--list", action="store_true", dest="list_runs",
                        help="history: list recorded runs")
    parser.add_argument("--key", default=None,
                        help="history: restrict --check/--list to one "
                             "run key")
    parser.add_argument("--window", type=int, default=None,
                        help="history: rolling-baseline window "
                             "(default 5 runs)")
    parser.add_argument("--min-throughput-ratio", type=float, default=None,
                        help="history gate: minimum current/baseline "
                             "instrs-per-second ratio (default 0.5)")
    parser.add_argument("--max-smt-ratio", type=float, default=None,
                        help="history gate: maximum SMT-query ratio "
                             "(default 1.10)")
    parser.add_argument("--max-join-ratio", type=float, default=None,
                        help="history gate: maximum join-count ratio "
                             "(default 1.10)")
    parser.add_argument("--max-rss-ratio", type=float, default=None,
                        help="history gate: maximum peak-RSS ratio "
                             "(default 1.5)")
    parser.add_argument("--out", default="BENCH_pr10.json",
                        help="bench: output JSON path "
                             "(default BENCH_pr10.json)")
    parser.add_argument("--campaign", choices=["quick", "full"],
                        default="quick",
                        help="qa: campaign size (default quick)")
    parser.add_argument("--seed", type=int, default=2022,
                        help="qa: campaign seed (default 2022)")
    parser.add_argument("--qa-out", default=None,
                        help="qa: also write the canonical JSON report "
                             "to this path")
    parser.add_argument("--witness-dir", default="qa-witnesses",
                        help="qa: directory for missed-expectation "
                             "witnesses (default qa-witnesses)")
    args = parser.parse_args(argv)

    if args.what in ("table1", "all"):
        from repro.eval.table1 import generate_table1

        _, text = generate_table1(scale=args.scale,
                                  timeout_seconds=args.timeout,
                                  jobs=args.jobs)
        print(text)
    if args.what in ("table2", "all"):
        from repro.eval.table2 import generate_table2

        _, text = generate_table2()
        print(text)
    if args.what in ("figure3", "all"):
        from repro.eval.figure3 import generate_figure3

        _, text = generate_figure3(scale=args.scale,
                                   timeout_seconds=args.timeout,
                                   jobs=args.jobs)
        print(text)
    if args.what == "scaling":
        from repro.eval.scaling import format_scaling, run_scaling

        print(format_scaling(run_scaling(timeout_seconds=args.timeout,
                                         jobs=args.jobs)))
    if args.what == "lint":
        from repro.eval.lint_report import generate_lint_report

        print(generate_lint_report(scale=args.scale,
                                   timeout_seconds=args.timeout))
    if args.what == "pointer":
        from repro.eval.pointer_report import generate_pointer_report

        _, text = generate_pointer_report(scale=args.scale,
                                          timeout_seconds=args.timeout)
        print(text)
    if args.what == "bench":
        from repro.perf.bench import BENCHMARKS_DIR, bench_report

        # Bench defaults to the scale-3 corpus (the acceptance target);
        # --quick drops to scale 1, an explicit --scale wins outright.
        bench_scale = args.scale if args.scale != 1 else (1 if args.quick
                                                          else 3)
        history_dir = None
        if not args.no_history:
            history_dir = args.history_dir or BENCHMARKS_DIR / "history"
        payload, text = bench_report(
            scale=bench_scale,
            jobs=args.jobs,
            timeout_seconds=args.timeout,
            check_determinism=args.check_determinism,
            check_trace_overhead=args.trace_overhead,
            check_cache=args.cold or args.warm,
            check_schedule=args.schedule_ab,
            check_summaries=args.summaries_ab,
            check_profile=args.profile,
            check_serve=args.serve_ab,
            serve_workers=args.serve_workers,
            history_dir=history_dir,
            out_path=args.out,
        )
        print(text)
        determinism = payload["current"].get("determinism")
        if determinism is not None and not determinism["ok"]:
            print("bench: serial and parallel reports differ",
                  file=sys.stderr)
            return 1
        overhead = payload.get("trace_overhead")
        if overhead is not None and overhead["overhead_ratio"] > 1.05:
            print(f"bench: tracing overhead {overhead['overhead_ratio']:.3f}x "
                  "exceeds the 1.05x bound", file=sys.stderr)
            return 1
        cache = payload.get("cache")
        if cache is not None and not (cache["reports_identical"]
                                      and cache["reports_identical_jobs2"]):
            print("bench: warm cached report differs from the cold one",
                  file=sys.stderr)
            return 1
        schedule = payload.get("schedule")
        if schedule is not None and not schedule["verdicts_identical"]:
            print("bench: address and scc schedules reached different "
                  "verdicts", file=sys.stderr)
            return 1
        summaries = payload.get("summaries")
        if summaries is not None and not (summaries["verdicts_identical"]
                                          and summaries["annotations_bounded"]):
            print("bench: pointer-summaries refinement changed a verdict "
                  "or grew annotations", file=sys.stderr)
            return 1
        profile = payload.get("profile")
        if profile is not None and profile.get("coverage", 0.0) < 0.95:
            print(f"bench: profile attributes only "
                  f"{profile.get('coverage', 0.0):.1%} of lift wall time "
                  "to named phases (bound: 95%)", file=sys.stderr)
            return 1
        serve = payload.get("serve")
        if serve is not None and not (serve["reports_identical"]
                                      and serve["dedup_source"] == "store"):
            print("bench: serve daemon report differs from the direct run "
                  "or the duplicate lift was not answered from the store",
                  file=sys.stderr)
            return 1
    if args.what == "history":
        from repro.obs.history import (
            DEFAULT_WINDOW,
            HistoryStore,
            Thresholds,
            check_latest,
            render_history,
        )
        from repro.perf.bench import BENCHMARKS_DIR

        store = HistoryStore(args.history_dir or BENCHMARKS_DIR / "history")
        if args.list_runs or not args.check:
            print(render_history(store.runs(args.key)))
        if args.check:
            defaults = Thresholds()
            thresholds = Thresholds(
                min_throughput_ratio=args.min_throughput_ratio
                if args.min_throughput_ratio is not None
                else defaults.min_throughput_ratio,
                max_smt_ratio=args.max_smt_ratio
                if args.max_smt_ratio is not None else defaults.max_smt_ratio,
                max_join_ratio=args.max_join_ratio
                if args.max_join_ratio is not None
                else defaults.max_join_ratio,
                max_rss_ratio=args.max_rss_ratio
                if args.max_rss_ratio is not None else defaults.max_rss_ratio,
            )
            results = check_latest(store, key=args.key, thresholds=thresholds,
                                   window=args.window or DEFAULT_WINDOW)
            if not results:
                print("history: nothing to check (no recorded runs)",
                      file=sys.stderr)
                return 1
            for result in results:
                print(result.render())
            if not all(result.ok for result in results):
                print("history: regression gate failed", file=sys.stderr)
                return 1
    if args.what == "obs":
        from repro.eval.obs_report import generate_obs_report
        from repro.obs.tracer import DEFAULT_SAMPLING

        _, text = generate_obs_report(
            scale=args.scale, timeout_seconds=args.timeout, jobs=args.jobs,
            sampling=args.sampling if args.sampling else DEFAULT_SAMPLING,
        )
        print(text)
    if args.what == "qa":
        import json

        from repro.eval.qa_report import generate_qa_report

        payload, text = generate_qa_report(
            campaign=args.campaign, seed=args.seed, jobs=args.jobs,
            witness_dir=args.witness_dir,
        )
        print(text)
        if args.qa_out:
            with open(args.qa_out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, indent=1)
        if not payload["gate_ok"]:
            print("qa: campaign gate failed (missed faults or false "
                  "positives)", file=sys.stderr)
            return 1
    if args.what in ("failures", "all"):
        from repro.eval.failures_report import generate_failures_report

        print(generate_failures_report())
    return 0


if __name__ == "__main__":
    sys.exit(main())
