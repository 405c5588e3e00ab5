"""Table 1: the Xen(-like) case-study statistics summary."""

from __future__ import annotations

import io

from repro.eval.runner import CorpusReport, DirectoryRow, run_corpus

_HEADER = (
    f"{'Directory':<16} {'counts (w=lift x=ret y=conc z=time)':<38} "
    f"{'Instrs.':>8} {'States':>8} {'A':>5} {'B':>5} {'C':>5} {'Time':>9}"
)


def _fmt_row(row: DirectoryRow) -> str:
    minutes, seconds = divmod(int(row.seconds), 60)
    hours, minutes = divmod(minutes, 60)
    return (
        f"{row.directory:<16} {row.counts_cell():<38} "
        f"{row.instructions:>8} {row.states:>8} {row.resolved:>5} "
        f"{row.unresolved_jumps:>5} {row.unresolved_calls:>5} "
        f"{hours}:{minutes:02d}:{seconds:02d}".rjust(0)
    )


def format_table1(report: CorpusReport) -> str:
    out = io.StringIO()
    out.write("Table 1: xenlike case study statistics summary\n")
    out.write("(counts cell: total = lifted + unprovable-ret + concurrency"
              " + timeout)\n\n")
    out.write(_HEADER + "\n")
    out.write("-" * len(_HEADER) + "\n")
    out.write("Binaries\n")
    for row in report.rows:
        if row.kind == "binary":
            out.write(_fmt_row(row) + "\n")
    out.write(_fmt_row(report.totals("binary")) + "\n\n")
    out.write("Library functions\n")
    for row in report.rows:
        if row.kind == "function":
            out.write(_fmt_row(row) + "\n")
    out.write(_fmt_row(report.totals("function")) + "\n")
    out.write(
        "\nA = resolved indirections   B = unresolved jumps   "
        "C = unresolved calls\n"
    )
    annotated = [row for row in report.rows if row.annotations]
    if annotated:
        out.write("\nUnsoundness annotations by kind:\n")
        for row in annotated:
            cell = "  ".join(f"{kind}={count}" for kind, count
                             in sorted(row.annotations.items()))
            out.write(f"  {row.directory:<16} ({row.kind}) {cell}\n")
    return out.getvalue()


def generate_table1(scale: int = 1, timeout_seconds: float = 10.0,
                    max_states: int = 10_000,
                    jobs: int = 1) -> tuple[CorpusReport, str]:
    report = run_corpus(scale=scale, timeout_seconds=timeout_seconds,
                        max_states=max_states, jobs=jobs)
    return report, format_table1(report)
