"""Command-line lifter: ``python -m repro <command> <binary> [options]``.

Commands:

* ``lift``  — lift an ELF binary, print the verdict, disassembly summary,
  annotations and proof obligations;
* ``disasm`` — print the proven disassembly;
* ``cfg``   — emit a Graphviz DOT control-flow graph derived from the HG;
* ``decompile`` — emit goto-style pseudo-C with obligation asserts;
* ``export`` — write the Isabelle/HOL theory for the lifted binary;
* ``check`` — replay every Hoare triple against the concrete emulator;
* ``diff``  — lift two binaries (original, patched) and compare the HGs;
* ``lint``  — run the dataflow lint rules; exit 0 = clean, 1 = findings
  (error/warning severity), 2 = could not load or lift at all;
* ``pointer`` — run the interprocedural pointer analysis and print the
  per-function call-site summaries, escapes and the access-precision
  table; ``--gate`` additionally runs the concrete differential
  soundness gate (exit 1 on any miss), ``--verbose`` lists every
  classified access site;
* ``trace`` — lift under full-fidelity tracing (sampling 1) and report
  the event stream: ``--format text`` (summary + provenance chains),
  ``--format jsonl`` (one event per line), ``--format chrome``
  (Chrome ``trace_event`` JSON for chrome://tracing / Perfetto);
* ``profile`` — lift under full-fidelity tracing and fold the capture
  into the phase/address cost profile: ``--format text`` (self-time
  table + top-N addresses), ``--format collapsed`` (collapsed-stack
  flamegraph input for flamegraph.pl / speedscope);
* ``serve`` — run the lifting-as-a-service daemon (JSONL over a Unix
  socket, persistent worker pool, priority queue, crash retries, store
  dedup, graceful SIGTERM drain — see :mod:`repro.serve`);
* ``client`` — talk to a running daemon: ``submit-lift`` /
  ``submit-corpus`` / ``status`` / ``result`` / ``cancel`` / ``watch`` /
  ``wait`` / ``stats`` / ``drain``;
* ``cache`` — persistent lift-store maintenance: ``cache stats`` prints
  entry/byte totals plus the lifetime telemetry persisted in the index
  (hits, misses, stores, evictions, hit-rate, entry ages); ``cache
  clear`` empties the store.  Lifting commands take ``--cache`` /
  ``--no-cache`` / ``--cache-dir``.
"""

from __future__ import annotations

import argparse
import sys

from repro.elf import load_binary
from repro.hoare import lift, lift_function


def _load_and_lift(args) -> "LiftResult":
    binary = load_binary(args.binary)
    cache = getattr(args, "cache", None)
    cache_dir = getattr(args, "cache_dir", None)
    pointer_summaries = getattr(args, "pointer_summaries", False)
    if getattr(args, "function", None):
        return lift_function(binary, args.function, max_states=args.max_states,
                             timeout_seconds=args.timeout,
                             cache=cache, cache_dir=cache_dir,
                             pointer_summaries=pointer_summaries)
    return lift(binary, max_states=args.max_states,
                timeout_seconds=args.timeout,
                cache=cache, cache_dir=cache_dir,
                pointer_summaries=pointer_summaries)


def _run_cache(args) -> int:
    """``python -m repro cache <stats|clear>``: lift-store maintenance."""
    from repro.perf.store import LiftStore

    store = LiftStore(root=args.cache_dir)
    action = args.binary  # positional slot doubles as the cache action
    if action == "stats":
        stats = store.stats()
        telemetry = stats["telemetry"]
        print(f"lift store at {stats['root']}")
        print(f"  entries   {stats['entries']}")
        print(f"  bytes     {stats['bytes']}")
        print(f"  max bytes {stats['max_bytes']}")
        print("lifetime telemetry (persisted in the index):")
        print(f"  hits      {telemetry['hits']}")
        print(f"  misses    {telemetry['misses']}")
        print(f"  stores    {telemetry['stores']}")
        print(f"  evictions {telemetry['evictions']}")
        print(f"  hit rate  {stats['hit_rate']:.1%}")
        if stats["oldest_entry_age"] is not None:
            print(f"  oldest entry {stats['oldest_entry_age']:.0f}s old")
            print(f"  newest entry {stats['newest_entry_age']:.0f}s old")
        return 0
    if action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
        return 0
    print(f"error: unknown cache action {action!r} (use stats or clear)",
          file=sys.stderr)
    return 2


def _print_lift(result) -> int:
    print(result.summary())
    if result.errors:
        print("\nverification errors (the binary was REJECTED):")
        for error in result.errors:
            print(f"  {error}")
    if result.annotations:
        print("\nunsoundness annotations:")
        for annotation in result.annotations:
            print(f"  {annotation}")
    if result.obligations:
        print("\nproof obligations (the lift is sound under these):")
        for obligation in result.obligations:
            print(f"  {obligation}")
    return 0 if result.verified else 1


def _run_trace(args) -> int:
    """``python -m repro trace``: lift once under tracing, report."""
    import repro.obs as obs

    # Tracing measures a real lift — a store hit would yield no events.
    args.cache = False
    prior = obs.save_state()
    obs.reset()
    obs.enable(sampling=args.sampling, capacity=args.capacity)
    try:
        result = _load_and_lift(args)
        events = obs.tracer.events()
        counts = dict(obs.tracer.counts)
        capacity = obs.tracer.capacity
        dropped = obs.tracer.dropped
        metrics_snapshot = obs.metrics.snapshot()
    finally:
        obs.restore_state(prior)

    if args.trace_format == "jsonl":
        text = obs.events_jsonl(events)
    elif args.trace_format == "chrome":
        text = obs.chrome_trace_json(events)
    else:
        summary = obs.render_trace_summary(events, metrics_snapshot,
                                           counts, capacity, dropped=dropped)
        try:
            provenance = obs.build_provenance(result, events, dropped=dropped)
        except obs.TruncatedTraceError as exc:
            print(summary)
            print(f"error: {exc}", file=sys.stderr)
            return 1
        text = summary + "\n" + provenance.render() + "\n"

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _run_profile(args) -> int:
    """``python -m repro profile``: lift once, fold into a cost profile."""
    import repro.obs as obs
    from repro.obs.profile import (
        build_profile,
        collapsed_stacks,
        phases,
        render_profile,
    )

    # Profiling measures a real lift — a store hit would attribute nothing.
    args.cache = False
    prior = obs.save_state()
    obs.reset()
    obs.enable(sampling=args.sampling, capacity=args.capacity)
    phases.profile_mode = True
    try:
        result = _load_and_lift(args)
        profile = build_profile(
            obs.tracer.events(),
            dict(obs.tracer.counts),
            phases_snapshot=phases.snapshot(),
            wall_seconds=result.stats.seconds,
            sampling=obs.tracer.sampling,
            stacks=dict(phases.stacks),
            events_dropped=obs.tracer.dropped,
        )
    finally:
        phases.profile_mode = False
        obs.restore_state(prior)

    if args.trace_format == "collapsed":
        text = collapsed_stacks(profile.stacks)
        text = text + "\n" if text else ""
    else:
        title = (f"Profile: {result.binary.name} "
                 f"(entry {result.entry:#x})")
        text = render_profile(profile, title=title)

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def main(argv=None) -> int:
    # The serve/client commands have their own flag grammars (no binary
    # positional), so they are routed before the lifter parser sees them.
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        from repro.serve.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "client":
        from repro.serve.cli import client_main

        return client_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Provably overapproximative x86-64 binary lifter "
                    "(PLDI 2022 reproduction).",
    )
    parser.add_argument("command", choices=["lift", "disasm", "cfg", "decompile",
                                            "export", "check", "diff", "lint",
                                            "pointer", "trace", "profile",
                                            "cache"])
    parser.add_argument("binary", help="path to an ELF binary "
                                       "(cache command: stats|clear)")
    parser.add_argument("patched", nargs="?",
                        help="second binary (diff command only)")
    parser.add_argument("--function", help="lift one exported function "
                                           "(shared-object mode)")
    parser.add_argument("--max-states", type=int, default=50_000)
    parser.add_argument("--timeout", type=float, default=None,
                        help="wall-clock budget in seconds")
    parser.add_argument("--output", "-o", help="output file (cfg/export)")
    parser.add_argument("--json", action="store_true",
                        help="emit the lint report as SARIF-lite JSON")
    parser.add_argument("--rule", action="append", dest="rules", metavar="ID",
                        help="run only this lint rule (repeatable)")
    parser.add_argument("--format", choices=["text", "jsonl", "chrome",
                                             "collapsed"],
                        default="text", dest="trace_format",
                        help="trace/profile output format (default text; "
                             "collapsed = flamegraph input, profile only)")
    parser.add_argument("--sampling", type=int, default=1,
                        help="trace/profile: record 1 in N high-frequency "
                             "events (default 1 = everything, so provenance "
                             "chains are complete)")
    parser.add_argument("--capacity", type=int, default=None,
                        help="trace/profile: event ring capacity (default "
                             "the obs layer's; raise it if the trace "
                             "reports dropped events)")
    parser.add_argument("--cache", action="store_true", default=None,
                        dest="cache",
                        help="serve lifts from the persistent lift store "
                             "(default: the REPRO_CACHE environment "
                             "variable)")
    parser.add_argument("--no-cache", action="store_false", dest="cache",
                        help="disable the persistent lift store even if "
                             "REPRO_CACHE is set")
    parser.add_argument("--cache-dir", default=None,
                        help="lift-store directory (default REPRO_CACHE_DIR "
                             "or ~/.cache/repro-lift)")
    parser.add_argument("--pointer-summaries", action="store_true",
                        dest="pointer_summaries",
                        help="two-phase lift: feed pointer call-site "
                             "summaries back into the call cleaning")
    parser.add_argument("--gate", action="store_true",
                        help="pointer: also run the concrete differential "
                             "soundness gate")
    parser.add_argument("--verbose", action="store_true",
                        help="pointer: list every classified access site")
    args = parser.parse_args(argv)

    if args.command == "cache":
        return _run_cache(args)

    if args.command == "trace":
        return _run_trace(args)

    if args.command == "profile":
        return _run_profile(args)

    if args.command == "lint":
        from repro.analysis import render_json, render_text, run_lint

        try:
            result = _load_and_lift(args)
            report = run_lint(result, rules=args.rules)
        except KeyError as exc:
            print(f"error: unknown lint rule {exc.args[0]!r}", file=sys.stderr)
            return 2
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_json(report) if args.json else render_text(report))
        return report.exit_code

    if args.command == "pointer":
        from repro.analysis.context import AnalysisContext
        from repro.analysis.pointer import run_gate, render_pointer_report

        try:
            # The analysis reads the context-free lift; --pointer-summaries
            # would only change the graph being summarized, not the facts.
            args.pointer_summaries = False
            result = _load_and_lift(args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        analysis = AnalysisContext(result).pointer
        gate = None
        if args.gate:
            gate = run_gate(result.binary, result=result, analysis=analysis)
        print(render_pointer_report(analysis, gate=gate, verbose=args.verbose))
        return 0 if gate is None or gate.ok else 1

    if args.command == "diff":
        if not args.patched:
            parser.error("diff requires two binaries")
        from repro.hoare.diff import diff_lifts

        original = lift(load_binary(args.binary), max_states=args.max_states,
                        timeout_seconds=args.timeout,
                        cache=args.cache, cache_dir=args.cache_dir)
        patched = lift(load_binary(args.patched), max_states=args.max_states,
                       timeout_seconds=args.timeout,
                       cache=args.cache, cache_dir=args.cache_dir)
        diff = diff_lifts(original, patched)
        print(diff.summary())
        for addr, (old, new) in sorted(diff.changed_instructions.items()):
            print(f"  ~ {old}  ->  {new}")
        for addr, text in sorted(diff.added_instructions.items()):
            print(f"  + {text}")
        for addr, text in sorted(diff.removed_instructions.items()):
            print(f"  - {text}")
        for text in diff.added_obligations:
            print(f"  + OBLIGATION {text}")
        for text in diff.removed_obligations:
            print(f"  - OBLIGATION {text}")
        return 0 if diff.is_clean else 1

    result = _load_and_lift(args)

    if args.command == "lift":
        return _print_lift(result)
    if args.command == "disasm":
        for addr in sorted(result.instructions):
            print(result.instructions[addr])
        return 0 if result.verified else 1
    if args.command == "cfg":
        from repro.hoare.cfg import build_cfg, to_dot

        dot = to_dot(build_cfg(result), result)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(dot)
            print(f"wrote {args.output}")
        else:
            print(dot)
        return 0
    if args.command == "decompile":
        from repro.decompile import decompile

        text = decompile(result)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
            print(f"wrote {args.output}")
        else:
            print(text)
        return 0
    if args.command == "export":
        from repro.export import export_theory

        theory = export_theory(result)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(theory)
            print(f"wrote {args.output}")
        else:
            print(theory)
        return 0
    if args.command == "check":
        from repro.export import check_triples

        report = check_triples(result)
        print(report.summary())
        for check in report.checks:
            if check.status == "FAILED":
                print(f"  FAILED @{check.instr_addr:#x}: {check.detail}")
        return 0 if report.failed == 0 else 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
