"""Named semantic faults, injectable into the pipeline's trusted layers.

The paper's trust argument (Section 5.2) is *independence*: τ and the
concrete emulator are separate implementations, so a bug in one is caught
by replaying Hoare triples against the other — unless the two conspire.
This module turns that argument into something measurable.  Each
:class:`Fault` is a named, deliberate bug in one of the four trusted
layers:

* ``tau``      — the symbolic step function (:mod:`repro.semantics.tau`);
* ``emulator`` — the concrete CPU (:mod:`repro.machine.cpu`);
* ``solver``   — the SMT decision procedure (:mod:`repro.smt.solver`);
* ``join``     — the predicate join (:func:`repro.pred.join_predicates`
  as resolved by :mod:`repro.semantics.state`).

Faults are installed by **context-managed monkeypatching** of the module
globals / class attributes the pipeline resolves at call time, so nothing
in the production code paths changes when no fault is active.  Install
and uninstall both call :func:`repro.perf.reset_caches`: the solver's
verdict caches (and every other registered memo) would otherwise serve
pre-fault answers and silently mask the injected bug — or leak faulted
verdicts into later fault-free runs.

Process safety: worker processes receive fault *names* (plain strings)
and look them up in :data:`FAULTS`, which is populated at import time in
every process.  Nothing closure-like ever crosses a pickle boundary.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from repro.isa import Imm
from repro.perf import reset_caches

#: The trusted layers a fault can live in.
LAYERS = ("tau", "emulator", "solver", "join")


@dataclass(frozen=True)
class Fault:
    """One named bug: where it lives, what it breaks, how to install it.

    ``install`` patches the live modules and returns an uninstaller; use
    :func:`inject` rather than calling it directly so cache hygiene and
    restore-on-error are guaranteed.
    """

    name: str
    layer: str
    description: str
    install: Callable[[], Callable[[], None]]

    def __post_init__(self) -> None:
        if self.layer not in LAYERS:
            raise ValueError(f"bad fault layer {self.layer!r}")


#: name -> Fault; populated by the ``@_fault`` definitions below.
FAULTS: dict[str, Fault] = {}


def _fault(name: str, layer: str, description: str):
    def register(installer: Callable[[], Callable[[], None]]) -> Fault:
        if name in FAULTS:
            raise ValueError(f"duplicate fault {name!r}")
        fault = Fault(name, layer, description, installer)
        FAULTS[name] = fault
        return fault

    return register


class _Patch:
    """Reversible attribute patching (restores in reverse order)."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, obj: object, attr: str, value: object) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


@contextlib.contextmanager
def inject(name: str) -> Iterator[Fault]:
    """Install fault *name* for the duration of the ``with`` block.

    Clears every registered cache on entry (so the fault is actually
    exercised, not papered over by memoized fault-free verdicts) and on
    exit (so faulted verdicts never leak out of the block).
    """
    fault = FAULTS[name]
    reset_caches()
    uninstall = fault.install()
    try:
        yield fault
    finally:
        uninstall()
        reset_caches()


# -- τ faults -----------------------------------------------------------------


@_fault("tau-add-imm-off-by-one", "tau",
        "τ evaluates `add dst, imm` as if the immediate were imm+1")
def _tau_add_imm_off_by_one() -> Callable[[], None]:
    import repro.semantics.tau as tau

    original = tau._alu
    patch = _Patch()

    def bad_alu(state, instr, ctx):
        dst, src = instr.operands
        if instr.mnemonic == "add" and isinstance(src, Imm):
            skewed = Imm((src.value + 1) & ((1 << src.width) - 1), src.width)
            instr = replace(instr, operands=(dst, skewed))
        return original(state, instr, ctx)

    patch.set(tau, "_alu", bad_alu)
    return patch.restore


@_fault("tau-jcc-cond-swap", "tau",
        "τ attaches the fall-through clause to the taken edge and vice versa")
def _tau_jcc_cond_swap() -> Callable[[], None]:
    import repro.semantics.tau as tau

    original = tau.condition_clause
    patch = _Patch()

    def bad_condition_clause(flags, cc, taken):
        return original(flags, cc, not taken)

    patch.set(tau, "condition_clause", bad_condition_clause)
    return patch.restore


@_fault("tau-mem-disp-off-by-one", "tau",
        "τ computes every non-rip-relative memory address one byte high")
def _tau_mem_disp_off_by_one() -> Callable[[], None]:
    import repro.semantics.tau as tau
    from repro.expr import Const, simplify as s

    original = tau.mem_addr_expr
    patch = _Patch()

    def bad_mem_addr_expr(mem, instr):
        expr = original(mem, instr)
        if mem.base == "rip":
            return expr
        return s.add(expr, Const(1))

    patch.set(tau, "mem_addr_expr", bad_mem_addr_expr)
    return patch.restore


# -- emulator faults ----------------------------------------------------------


@_fault("cpu-carry-invert", "emulator",
        "the emulator records the carry flag inverted after arithmetic")
def _cpu_carry_invert() -> Callable[[], None]:
    from repro.machine.cpu import CPU

    original = CPU.set_flags_arith
    patch = _Patch()

    def bad_set_flags_arith(self, result, width, carry, overflow):
        original(self, result, width, carry, overflow)
        self.flags["cf"] ^= 1

    patch.set(CPU, "set_flags_arith", bad_set_flags_arith)
    return patch.restore


@_fault("cpu-cond-invert", "emulator",
        "the emulator evaluates every condition code inverted")
def _cpu_cond_invert() -> Callable[[], None]:
    from repro.machine.cpu import CPU

    original = CPU.condition
    patch = _Patch()

    def bad_condition(self, cc):
        return not original(self, cc)

    patch.set(CPU, "condition", bad_condition)
    return patch.restore


@_fault("cpu-mem-addr-off-by-one", "emulator",
        "the emulator resolves non-rip-relative memory operands one byte high")
def _cpu_mem_addr_off_by_one() -> Callable[[], None]:
    from repro.machine.cpu import CPU

    original = CPU.mem_address
    patch = _Patch()

    def bad_mem_address(self, mem, instr):
        addr = original(self, mem, instr)
        if mem.base == "rip":
            return addr
        return (addr + 1) & ((1 << 64) - 1)

    patch.set(CPU, "mem_address", bad_mem_address)
    return patch.restore


# -- solver faults ------------------------------------------------------------


@_fault("smt-unknown-is-separate", "solver",
        "undecided region pairs are reported as proven SEPARATE")
def _smt_unknown_is_separate() -> Callable[[], None]:
    import repro.smt.solver as solver

    original = solver._decide_relation_uncached
    patch = _Patch()

    def bad_decide(r0, r1, bounds=solver.NO_BOUNDS):
        decision = original(r0, r1, bounds)
        if decision.relation is None:
            return solver.Decision(solver.Relation.SEPARATE,
                                   decision.assumptions)
        return decision

    patch.set(solver, "_decide_relation_uncached", bad_decide)
    return patch.restore


@_fault("smt-fork-drops-alias", "solver",
        "possible-relation forks silently drop the ALIAS case")
def _smt_fork_drops_alias() -> Callable[[], None]:
    import repro.smt.solver as solver

    original = solver._possible_relations_uncached
    patch = _Patch()

    def bad_fork(r0, r1, bounds=solver.NO_BOUNDS):
        fork = original(r0, r1, bounds)
        cases = tuple(r for r in fork.relations
                      if r is not solver.Relation.ALIAS)
        if not cases:
            cases = (solver.Relation.SEPARATE,)
        return solver.Fork(cases, fork.may_partial, fork.assumptions)

    patch.set(solver, "_possible_relations_uncached", bad_fork)
    return patch.restore


# -- join faults --------------------------------------------------------------


@_fault("join-keeps-left", "join",
        "the predicate join returns its left argument (unsound: drops the "
        "right contributor's states)")
def _join_keeps_left() -> Callable[[], None]:
    import repro.semantics.state as state_mod

    patch = _Patch()

    def bad_join_predicates(p0, p1, rip):
        return p0

    patch.set(state_mod, "join_predicates", bad_join_predicates)
    return patch.restore
