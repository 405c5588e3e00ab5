"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``.  For a traced pass it replaces public
layer functions with timing wrappers: every binding of the function object
in a loaded ``repro`` module (``from x import f`` copies included), or the
attribute on its class for a method.  Each wrapper records one span per
call; a span's *self* time is its duration minus the time of the spans it
encloses, so nested layers (a join that calls the predicate join that
calls the solver) are not counted twice.

Spans are kept as per-name totals in memory (calls, total seconds, self
seconds); nothing is written until the workload reports.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

#: (span name, module, attribute): the public layer entry points wrapped
#: during a traced pass.  ``Class.method`` attributes patch the class.
LAYER_FUNCTIONS = (
    ("hoare.lift", "repro.hoare.lifter", "lift"),
    ("hoare.resolve", "repro.hoare.resolve", "resolve_rip"),
    ("hoare.schedule", "repro.hoare.schedule", "build_schedule"),
    ("semantics.step", "repro.semantics.tau", "step"),
    ("semantics.join", "repro.semantics.state", "join_states"),
    ("semantics.states_equal", "repro.semantics.state", "states_equal"),
    ("pred.join", "repro.pred.predicate", "join_predicates"),
    ("memmodel.join", "repro.memmodel.model", "join_models"),
    ("memmodel.ins", "repro.memmodel.model", "ins"),
    ("smt.decide", "repro.smt.solver", "decide_relation"),
    ("smt.decide", "repro.smt.solver", "possible_relations"),
    ("isa.decode", "repro.isa.decode", "decode"),
    ("export.theory", "repro.export.isabelle", "export_theory"),
    ("export.check", "repro.export.checker", "check_triples"),
    ("machine.execute", "repro.machine.cpu", "CPU.execute"),
)

#: The span every other lift-side span nests under.
ROOT = "hoare.lift"


@dataclass
class SpanTotals:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Tracer:
    """Span totals by name, plus the stack of open spans' child time."""

    spans: dict[str, SpanTotals] = field(default_factory=dict)
    _stack: list[float] = field(default_factory=list)

    def wrap(self, name: str, fn):
        totals = self.spans.setdefault(name, SpanTotals())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                totals.calls += 1
                totals.total += elapsed
                totals.self_time += elapsed - child
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def get(self, name: str) -> SpanTotals:
        return self.spans.get(name, SpanTotals())

    def attribution(self) -> float:
        """Share of lift wall time spent inside wrapped child layers.

        The root span's self time is the lifter's own worklist code plus
        every layer nobody wrapped, so it is the unexplained gap."""
        root = self.get(ROOT)
        if root.total <= 0:
            return 0.0
        return (root.total - root.self_time) / root.total


class installed:
    """Context manager: wrap every :data:`LAYER_FUNCTIONS` entry with
    *tracer*, and restore the original bindings on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for name, module_name, attr in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._set(owner, method, self.tracer.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self.tracer.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, key, wrapper)
        return self.tracer

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *_exc) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
