"""Symbolic states and the lifting context.

A symbolic state (a Hoare-graph vertex, Definition 3.2) pairs a predicate
with a memory model.  The extra fields support the paper's extensions:
``epoch`` counts external-call havocs (so post-call reads get fresh-but-
deterministic unknowns) and ``reachable`` implements Section 4.2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.elf import Binary
from repro.expr import Const, Expr, Var
from repro.memmodel import MemModel, join_models
from repro.perf.counters import gated as _gated
from repro.pred import Predicate, join_predicates
from repro.smt.solver import Region


class NameGen:
    """Deterministic fresh-name source for havoc variables."""

    def __init__(self) -> None:
        self._counter = 0

    def fresh(self, prefix: str, width: int = 64) -> Var:
        count = self._counter
        self._counter = count + 1
        return Var(f"{prefix}%{count}", width)


@dataclass
class LiftContext:
    """Everything τ needs besides the state itself."""

    binary: Binary
    names: NameGen = field(default_factory=NameGen)
    #: Whole-binary mode may read initial .data bytes; library mode may not.
    trust_data: bool = True


@dataclass(frozen=True)
class SymState:
    """A Hoare-graph vertex: predicate × memory model (+ bookkeeping)."""

    pred: Predicate
    model: MemModel
    #: Bumped when an external call (or unknown write) havocs memory.
    epoch: int = 0
    #: Known-reachable flag (Section 4.2.2: post-call states start False).
    reachable: bool = True

    @property
    def rip(self) -> int | None:
        value = self.pred.rip
        if isinstance(value, Const):
            return value.value
        return None

    def with_pred(self, pred: Predicate) -> "SymState":
        return replace(self, pred=pred)

    def with_model(self, model: MemModel) -> "SymState":
        return replace(self, model=model)

    def mark_reachable(self, flag: bool = True) -> "SymState":
        return replace(self, reachable=flag)

    def __str__(self) -> str:
        return f"⟨{self.pred}, {self.model}, epoch={self.epoch}⟩"


def initial_state(entry: int, ret_symbol: Var | None = None) -> SymState:
    """The paper's σ_I: rsp = rsp0, *[rsp0, 8] = return symbol, rip = entry.

    All other registers hold their initial-value variables (``rdi0``...).
    """
    from repro.isa.registers import GPR64

    from repro.memmodel import MemTree

    regs: dict[str, Expr] = {"rip": Const(entry)}
    for reg in GPR64:
        regs[reg] = Var(f"{reg}0")
    mem: dict[Region, Expr] = {}
    trees: frozenset = frozenset()
    if ret_symbol is not None:
        ret_region = Region(Var("rsp0"), 8)
        mem[ret_region] = ret_symbol
        # The return-address region is tracked in the memory model from the
        # start: every later insertion decides (or forks) its relation to
        # it, so separation from the frame survives joins *structurally*.
        trees = frozenset({MemTree.leaf(ret_region)})
    return SymState(
        pred=Predicate.make(regs=regs, mem=mem), model=MemModel(trees)
    )


def join_states(s0: SymState, s1: SymState, rip: int) -> SymState:
    """Definition 3.15: component-wise join.

    Identity short-circuit: the join is idempotent, so joining a state
    with itself (component-wise) only needs the bookkeeping fields merged.
    With hash-consed expressions, states re-enqueued unchanged hit this
    path instead of re-running the full predicate/model joins.
    """
    if s0.pred is s1.pred and s0.model is s1.model:
        _gated("join_shortcircuits")
        return SymState(
            pred=s0.pred,
            model=s0.model,
            epoch=max(s0.epoch, s1.epoch),
            reachable=s0.reachable or s1.reachable,
        )
    return SymState(
        pred=join_predicates(s0.pred, s1.pred, rip),
        model=join_models(s0.model, s1.model),
        epoch=max(s0.epoch, s1.epoch),
        reachable=s0.reachable or s1.reachable,
    )


def states_equal(s0: SymState, s1: SymState) -> bool:
    if s0 is s1:
        _gated("equal_shortcircuits")
        return True
    if s0.epoch != s1.epoch:
        return False
    pred_equal = s0.pred is s1.pred or s0.pred == s1.pred
    if not pred_equal:
        return False
    if s0.pred is s1.pred and s0.model is s1.model:
        _gated("equal_shortcircuits")
    return s0.model is s1.model or s0.model == s1.model
