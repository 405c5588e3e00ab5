"""The detector pipeline: lift → sanity → triple replay → lint → differential.

A campaign trial runs the full validation stack over one binary and
condenses the *verdict-level* outcome into a canonical **signature** — a
plain JSON-able dict with one section per detector.  Signatures contain
only content a user-facing verdict depends on (outcomes, error kinds,
triple statuses, lint findings, differential failures); they deliberately
exclude exploration statistics, timings and cache-dependent detail, so

* a fault is *detected* exactly when some section differs from the
  fault-free baseline signature of the same target, and
* two fault-free runs — serial, parallel, repeated — produce identical
  signatures (the campaign's zero-false-positive gate).

``killed_by`` attribution is the first differing section in
:data:`DETECTOR_ORDER` (pipeline order), the mutation-testing convention.
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.lint import run_lint
from repro.elf import Binary
from repro.export.checker import check_triples
from repro.hoare import lift
from repro.qa.diffsweep import run_battery
from repro.verify.report import report_from

#: Pipeline order; also the order ``killed_by`` attribution scans.
DETECTOR_ORDER = ("lift", "sanity", "triples", "lint", "differential")


def binary_signature(binary: Binary, samples: int = 4,
                     seed: int = 2022) -> dict[str, Any]:
    """The verdict signature of one binary under the current pipeline."""
    result = lift(binary)
    signature: dict[str, Any] = {
        "lift": {
            "outcome": "lifted" if result.verified else "rejected",
            "errors": sorted(
                [error.kind, error.addr] for error in result.errors
            ),
            "annotations": dict(result.stats.annotations_by_kind),
            "obligations": sorted(str(ob) for ob in result.obligations),
        },
    }
    sanity = report_from(result)
    signature["sanity"] = {
        "return_address_integrity": sanity.return_address_integrity.holds,
        "bounded_control_flow": sanity.bounded_control_flow.holds,
        "calling_convention": sanity.calling_convention.holds,
    }
    if result.verified:
        report = check_triples(result, samples=samples, seed=seed)
        signature["triples"] = {
            "statuses": {status: report.count(status)
                         for status in ("proven", "assumed", "untested",
                                        "FAILED")},
            "failed": sorted(
                [str(check.src), check.instr_addr, check.detail]
                for check in report.checks if check.status == "FAILED"
            ),
        }
        lint_report = run_lint(result)
        signature["lint"] = sorted(
            [diag.rule, diag.addr, diag.severity]
            for diag in lint_report.findings
        )
    else:
        # No graph to replay or lint — the lift section already carries
        # the rejection; absent sections compare equal across runs.
        signature["triples"] = None
        signature["lint"] = None
    return signature


def battery_signature(seed: int = 2022) -> dict[str, Any]:
    """The signature of the differential pseudo-target: failing forms."""
    return {"differential": run_battery(seed)}


def signature_json(signature: dict[str, Any]) -> str:
    return json.dumps(signature, sort_keys=True, indent=1)


def signature_diff(baseline: dict[str, Any],
                   current: dict[str, Any]) -> list[str]:
    """Detector sections that differ, in pipeline order."""
    out = []
    for section in DETECTOR_ORDER:
        if baseline.get(section) != current.get(section):
            out.append(section)
    return out
