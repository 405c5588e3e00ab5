"""Symbolic predicates: valuation clauses, relational clauses, and the join.

A predicate (Section 3.1) is a set of clauses ``E □ C``.  For efficiency we
split it by clause shape:

* ``regs``    — equality clauses ``reg == C`` (one per 64-bit register
  family, plus ``rip``); a missing entry is the paper's ⊥ (unknown value);
* ``mem``     — equality clauses ``*[a, n] == C`` for written regions;
* ``flags``   — the operation that last set the status flags;
* ``clauses`` — the remaining relational clauses (branch conditions,
  range-abstraction bounds from joins).

The join implements Definition 3.3 / Example 3.4: equality clauses for the
same part with different constants merge into range bounds over a
deterministic *join variable*; everything else incomparable is dropped.
Per part the abstraction ladder is  exact value → bounded join variable →
unbounded join variable, so joining terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

from repro.expr import (
    Const,
    Deref,
    EvalEnv,
    EvalError,
    Expr,
    RegRef,
    Var,
    evaluate,
    mask,
    substitute,
)
from repro.expr.ast import expr_key, variable_names
from repro.expr.simplify import add as simplify_add, mul as _mul
from repro.obs.metrics import metrics as _M
from repro.obs.tracer import tracer as _T
from repro.perf import register_lru
from repro.pred.clause import Clause, intersect_intervals
from repro.pred.flags import FlagState
from repro.smt.intervals import Interval
from repro.smt.linear import linearize
from repro.smt.solver import (
    Region,
    expr_interval,
    expr_interval_terms,
    region_key,
)


def simplify_mul(term: Expr, coeff: int, width: int) -> Expr:
    return _mul(term, Const(coeff, width), width)


class _ClauseBounds:
    """BoundsProvider over the clauses a join reads: each term's slice of
    the predicate's bounds index (the only clauses that can bound it)."""

    def __init__(self, slices: dict[Expr, tuple[Clause, ...]]):
        self.slices = slices

    def interval_of(self, term: Expr) -> Interval | None:
        interval = intersect_intervals(term, self.slices.get(term, ()))
        return None if interval.is_top else interval


@dataclass(frozen=True)
class Predicate:
    """An immutable symbolic predicate."""

    regs: tuple[tuple[str, Expr], ...] = ()
    flags: FlagState | None = None
    mem: tuple[tuple[Region, Expr], ...] = ()
    clauses: frozenset[Clause] = frozenset()

    # -- constructors -------------------------------------------------------
    @staticmethod
    def make(
        regs: dict[str, Expr] | None = None,
        flags: FlagState | None = None,
        mem: dict[Region, Expr] | None = None,
        clauses=frozenset(),
    ) -> "Predicate":
        return Predicate(
            regs=tuple(sorted((regs or {}).items())),
            flags=flags,
            mem=tuple(sorted((mem or {}).items(),
                             key=lambda kv: region_key(kv[0]))),
            clauses=frozenset(clauses),
        )

    def __hash__(self) -> int:
        # Same value the generated frozen-dataclass hash would produce,
        # cached on first use: a predicate is immutable but may be hashed
        # many times (on its own or inside a hashed state), and the field
        # walk (17 register pairs plus mem regions) is costly to repeat.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.regs, self.flags, self.mem, self.clauses))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # Only the fields travel.  The cached hash is per-process
        # (expressions re-intern, and re-hash, on load) and the lazy
        # indexes below are rebuilt on demand.
        return (Predicate, (self.regs, self.flags, self.mem, self.clauses))

    # -- lazy indexes -----------------------------------------------------------
    # Built on first use and cached on the (immutable) predicate, so a
    # vertex's predicate is scanned once however often it is joined.  Each
    # group keeps the iteration order of ``clauses``: a lookup returns
    # exactly what a linear scan of the clause set would, in scan order.

    @cached_property
    def _bounds_index(self) -> dict[Expr, tuple[Clause, ...]]:
        index: dict[Expr, list[Clause]] = {}
        for clause in self.clauses:
            index.setdefault(clause.normalized().lhs, []).append(clause)
        return {term: tuple(group) for term, group in index.items()}

    def bounds_on(self, term: Expr) -> tuple[Clause, ...]:
        """The clauses whose normalized left side is *term*: the only ones
        that can bound it (see :func:`repro.pred.clause.clause_interval`)."""
        return self._bounds_index.get(term, ())

    @cached_property
    def join_var_clauses(self) -> dict[Var, tuple[Clause, ...]]:
        """Clauses whose left side is a join variable, by variable."""
        groups: dict[Var, list[Clause]] = {}
        for clause in self.clauses:
            if isinstance(clause.lhs, Var) and \
                    clause.lhs.name.startswith("join@"):
                groups.setdefault(clause.lhs, []).append(clause)
        return {var: tuple(group) for var, group in groups.items()}

    @cached_property
    def valuation_names(self) -> frozenset[str]:
        """Variable names in the valuations: registers, memory addresses
        and values, and the flags operands."""
        values = [value for _, value in self.regs]
        for region, value in self.mem:
            values += (region.addr, value)
        if self.flags is not None:
            values.append(self.flags.a)
            if self.flags.b is not None:
                values.append(self.flags.b)
        return frozenset().union(*map(variable_names, values))

    @cached_property
    def referenced_names(self) -> frozenset[str]:
        """Every variable name the predicate can pin: the valuation names
        plus the names in compound clause sides."""
        names = set(self.valuation_names)
        for clause in self.clauses:
            if not isinstance(clause.lhs, Var):
                names.update(variable_names(clause.lhs))
            if not isinstance(clause.rhs, Const):
                names.update(variable_names(clause.rhs))
        return frozenset(names)

    # -- views ---------------------------------------------------------------
    def reg_dict(self) -> dict[str, Expr]:
        return dict(self.regs)

    def mem_dict(self) -> dict[Region, Expr]:
        return dict(self.mem)

    def get_reg(self, name: str) -> Expr | None:
        for reg, value in self.regs:
            if reg == name:
                return value
        return None

    @property
    def rip(self) -> Expr | None:
        return self.get_reg("rip")

    # -- functional updates ----------------------------------------------------
    def with_regs(self, regs: dict[str, Expr]) -> "Predicate":
        return Predicate(regs=tuple(sorted(regs.items())), flags=self.flags,
                         mem=self.mem, clauses=self.clauses)

    def with_mem(self, mem: dict[Region, Expr]) -> "Predicate":
        return Predicate(
            regs=self.regs, flags=self.flags,
            mem=tuple(sorted(mem.items(), key=lambda kv: region_key(kv[0]))),
            clauses=self.clauses,
        )

    def with_flags(self, flags: FlagState | None) -> "Predicate":
        return Predicate(regs=self.regs, flags=flags, mem=self.mem,
                         clauses=self.clauses)

    def with_clause(self, clause: Clause) -> "Predicate":
        return Predicate(regs=self.regs, flags=self.flags, mem=self.mem,
                         clauses=self.clauses | {clause})

    def with_clauses(self, clauses) -> "Predicate":
        return Predicate(regs=self.regs, flags=self.flags, mem=self.mem,
                         clauses=self.clauses | frozenset(clauses))

    # -- evaluation (Definition 4.1) ---------------------------------------------
    def eval(self, expr: Expr) -> Expr | None:
        """Map an expression over current registers to a constant expression.

        Returns None (the paper's ⊥) when some register is unvalued.
        """
        missing = False

        def resolve(node: Expr) -> Expr | None:
            nonlocal missing
            if isinstance(node, RegRef):
                value = self.get_reg(node.name)
                if value is None:
                    missing = True
                    return node
                return value
            return None

        result = substitute(expr, resolve)
        return None if missing else result

    # -- solver integration ---------------------------------------------------
    def interval_of(self, term: Expr) -> Interval | None:
        """BoundsProvider hook: interval implied by relational clauses.

        Handles one level of transitivity through variable bounds:
        ``i ≤ n`` with ``n ≤ 15`` caps ``i`` at 15 (the variable-bounded
        loop shape).  Memoized on ``(term, clauses)``: predicates are
        immutable and the solver asks for the same term's bounds on every
        relation query it fingerprints."""
        return _interval_of_cached(term, self.clauses)

    # -- concrete satisfaction: s ⊢ P --------------------------------------------
    def holds(self, env: EvalEnv, read_current=None) -> bool:
        """Check every clause of the predicate in a concrete environment.

        ``env.read_mem`` is the *initial* memory (what ``Deref`` denotes);
        *read_current* reads the state's current memory for checking the
        ``*[a, n] == C`` valuation clauses (defaults to ``env.read_mem``,
        which is correct before any store has executed).
        """
        if read_current is None:
            read_current = env.read_mem
        try:
            for reg, value in self.regs:
                expected = evaluate(value, env)
                actual = env.registers.get(reg)
                if actual is None or (actual & mask(value.width)) != expected:
                    return False
            for region, value in self.mem:
                if read_current is None:
                    return False
                addr = evaluate(region.addr, env)
                actual = read_current(addr, region.size)
                if (actual & mask(value.width)) != evaluate(value, env):
                    return False
            for clause in self.clauses:
                if not clause.holds(env):
                    return False
        except EvalError:
            return False
        return True

    def __str__(self) -> str:
        parts = [f"{reg} == {value}" for reg, value in self.regs]
        parts += [f"*{region} == {value}" for region, value in self.mem]
        parts += [str(clause) for clause in sorted(self.clauses, key=str)]
        if self.flags is not None:
            parts.append(str(self.flags))
        return "{" + ", ".join(parts) + "}"


@lru_cache(maxsize=1 << 16)
def _interval_of_cached(term: Expr, clauses: frozenset) -> Interval | None:
    interval = intersect_intervals(term, clauses)
    half = 1 << (term.width - 1)
    for clause in clauses:
        normalized = clause.normalized()
        if normalized.lhs != term or isinstance(normalized.rhs, Const):
            continue
        rhs_interval = intersect_intervals(normalized.rhs, clauses)
        if rhs_interval.is_top:
            continue
        op = normalized.op
        if op == "leu":
            capped = interval.intersect(Interval(0, rhs_interval.hi))
        elif op == "ltu" and rhs_interval.hi > 0:
            capped = interval.intersect(Interval(0, rhs_interval.hi - 1))
        elif op in ("les", "lts") and rhs_interval.hi < half \
                and interval.hi < half:
            hi = rhs_interval.hi if op == "les" else rhs_interval.hi - 1
            capped = interval.intersect(Interval(0, hi)) if hi >= 0 else None
        elif op == "geu":
            capped = interval.intersect(
                Interval(rhs_interval.lo, (1 << term.width) - 1)
            )
        else:
            continue
        if capped is not None:
            interval = capped
    return None if interval.is_top else interval


register_lru("pred.interval_of", _interval_of_cached)


# -- the join (Definition 3.3, Example 3.4) -------------------------------------

class _JoinPlan(NamedTuple):
    """The clause-independent half of joining two values of one part: the
    candidate value and the terms whose bounds each side's join reads."""

    join_var: Var | None      # None when the two values are equal
    value: Expr               # the equal value, or join_var + common part
    width: int
    resid0: Expr | None       # each side's residual over the common part
    resid1: Expr | None
    reads0: tuple[Expr, ...]
    reads1: tuple[Expr, ...]


@lru_cache(maxsize=1 << 16)
def _join_plan(part_name: str, rip: int, v0: Expr, v1: Expr) -> _JoinPlan:
    """Plan the join of two valuations of one part (memoized: pure).

    The ladder: equal exprs stay; two constants become a bounded join
    variable; anything else becomes the (unbounded) join variable.  The join
    variable's name is a deterministic function of (rip, part), so repeated
    joins at the same program point reuse it and the ladder has height 3.
    """
    if v0 == v1:
        # An equal join variable keeps the hull of both sides' own bounds.
        reads = (v0,) if isinstance(v0, Var) else ()
        return _JoinPlan(None, v0, v0.width, None, None, reads, reads)
    # Range abstraction over *linear offsets* (the general form of Example
    # 3.4): when the two values share their symbolic part and differ by a
    # bounded residual, the join is ``common + OFF`` with interval-bounded
    # OFF.  Plain constants are the special case with an empty common part.
    join_var = Var(f"join@{rip:#x}@{part_name}")
    width = v0.width if v0.width == v1.width else 64
    lin0, lin1 = linearize(v0, width), linearize(v1, width)
    d0, d1 = lin0.term_dict(), lin1.term_dict()
    # The part's own join variable never belongs to the common part: a
    # self-referential value (the loop-increment shape ``X`` ⊔ ``X + 1``)
    # folds X into both residuals instead, re-deriving X's interval per
    # side — the new incarnation of X absorbs the increment.
    common = {
        t: co for t, co in d0.items() if d1.get(t) == co and t != join_var
    }

    def residual(lin, terms):
        expr: Expr = Const(lin.const, width)
        for term, coeff in terms.items():
            if common.get(term) != coeff:
                expr = simplify_add(expr, simplify_mul(term, coeff, width),
                                    width)
        return expr

    resid0, resid1 = residual(lin0, d0), residual(lin1, d1)
    value = join_var
    for term, coeff in sorted(common.items(), key=lambda kv: expr_key(kv[0])):
        value = simplify_add(value, simplify_mul(term, coeff, width), width)
    return _JoinPlan(join_var, value, width, resid0, resid1,
                     expr_interval_terms(resid0), expr_interval_terms(resid1))


register_lru("pred.join_plan", _join_plan)


def _join_values(
    part_name: str,
    rip: int,
    v0: Expr | None,
    v1: Expr | None,
    p0: Predicate,
    p1: Predicate,
) -> tuple[Expr | None, tuple[Clause, ...]]:
    """Join two valuations of one state part (memoized).

    The result is a pure function of the part, *rip*, the two values and
    the clauses bounding the terms the plan reads, so the memo is keyed on
    those index slices rather than on whole clause sets: join fixpoints
    re-join the same value pairs while unrelated clauses keep changing."""
    if v0 is None or v1 is None:
        return None, ()
    plan = _join_plan(part_name, rip, v0, v1)
    return _join_values_cached(
        part_name, rip, v0, v1,
        tuple(p0.bounds_on(term) for term in plan.reads0),
        tuple(p1.bounds_on(term) for term in plan.reads1),
    )


@lru_cache(maxsize=1 << 16)
def _join_values_cached(
    part_name: str,
    rip: int,
    v0: Expr,
    v1: Expr,
    slices0: tuple[tuple[Clause, ...], ...],
    slices1: tuple[tuple[Clause, ...], ...],
) -> tuple[Expr | None, tuple[Clause, ...]]:
    plan = _join_plan(part_name, rip, v0, v1)
    value, clauses = _join_values_impl(
        plan, dict(zip(plan.reads0, slices0)), dict(zip(plan.reads1, slices1))
    )
    return value, tuple(clauses)


register_lru("pred.join_values", _join_values_cached)


def _join_values_impl(
    plan: _JoinPlan,
    bounds0: dict[Expr, tuple[Clause, ...]],
    bounds1: dict[Expr, tuple[Clause, ...]],
) -> tuple[Expr | None, list[Clause]]:
    """Bound the planned value from each side's clauses (*bounds0*/
    *bounds1*: each read term's clauses, in clause-set order)."""
    width = plan.width
    join_var = plan.join_var
    if join_var is None:
        v0 = plan.value
        if not isinstance(v0, Var):
            return v0, []
        # Merge the two sides' bound clauses *semantically*: the interval
        # hull.  (A raw set intersection would drop everything whenever the
        # two sides carry different-generation bounds for the same
        # variable, losing e.g. a loop counter's `>= 0`.)
        own0 = frozenset(c for c in bounds0[v0] if c.lhs == v0)
        own1 = frozenset(c for c in bounds1[v0] if c.lhs == v0)
        if own0 == own1:
            return v0, list(own0)
        hull = intersect_intervals(v0, own0).union(
            intersect_intervals(v0, own1)
        )
        bounds = []
        if hull.lo > 0:
            bounds.append(Clause(v0, "geu", Const(hull.lo, width), width))
        if hull.hi < (1 << width) - 1:
            bounds.append(Clause(v0, "leu", Const(hull.hi, width), width))
        return v0, bounds

    iv0 = expr_interval(plan.resid0, _ClauseBounds(bounds0))
    iv1 = expr_interval(plan.resid1, _ClauseBounds(bounds1))
    if iv0.is_top or iv1.is_top:
        return join_var, []

    prior: Interval | None = None
    prior_clauses: list[Clause] = []
    other_iv: Interval | None = None
    if plan.resid0 == join_var:
        prior = iv0
        prior_clauses = [c for c in bounds0[join_var] if c.lhs == join_var]
        other_iv = iv1
    elif plan.resid1 == join_var:
        prior = iv1
        prior_clauses = [c for c in bounds1[join_var] if c.lhs == join_var]
        other_iv = iv0

    if prior is not None and other_iv is not None:
        if other_iv.intersect(prior) == other_iv:
            return plan.value, prior_clauses  # contained: fixpoint
        # Grow to the exact interval hull.  An ascending chain of hulls is
        # possible (an unbounded counter); termination is enforced one
        # level up — the lifter widens a vertex to unbounded join variables
        # after a fixed number of joins (see _Lifter.explore).
        hull = prior.union(other_iv)
    else:
        hull = iv0.union(iv1)
    clauses: list[Clause] = []
    if hull.lo > 0:
        clauses.append(Clause(join_var, "geu", Const(hull.lo, width), width))
    if hull.hi < mask(width):
        clauses.append(Clause(join_var, "leu", Const(hull.hi, width), width))
    return plan.value, clauses


def join_predicates(p0: Predicate, p1: Predicate, rip: int) -> Predicate:
    """``P ⊔ Q`` at program point *rip*.

    Soundness: every produced clause is implied by P and by Q (for the join
    variables: under *some* assignment, in each).  Information only drops.

    Cost follows what differs: a part holding the identical (hash-consed)
    value on both sides, unless it is a variable some side bounds, is kept
    without a join, and bound lookups go through each predicate's lazy
    per-term index.
    """
    regs0, regs1 = p0.reg_dict(), p1.reg_dict()
    new_regs: dict[str, Expr] = {}
    extra_clauses: list[Clause] = []

    # Parts holding the *same pair* of values on the two sides stay equal
    # after the join: they share one join variable.  (A register that was
    # just loaded from a stack slot keeps its equality with the slot, so a
    # branch bound on the register also bounds the slot.)
    pair_cache: dict[tuple[Expr, Expr], tuple[Expr | None, list[Clause]]] = {}
    bounded0, bounded1 = p0._bounds_index, p1._bounds_index

    def join_pair(name: str, v0: Expr, v1: Expr):
        if v0 is v1 and not (isinstance(v0, Var) and
                             (v0 in bounded0 or v0 in bounded1)):
            # An identical part joins to itself under any name; it gains
            # bounds only as a variable bounded on some side.
            return v0, ()
        key = (v0, v1)
        if key not in pair_cache:
            pair_cache[key] = _join_values(name, rip, v0, v1, p0, p1)
        return pair_cache[key]

    for name in sorted(set(regs0) & set(regs1)):
        value, bounds = join_pair(name, regs0[name], regs1[name])
        if value is not None:
            new_regs[name] = value
            extra_clauses += bounds

    mem0, mem1 = p0.mem_dict(), p1.mem_dict()
    new_mem: dict[Region, Expr] = {}
    for region in sorted(set(mem0) | set(mem1), key=region_key):
        v0, v1 = mem0.get(region), mem1.get(region)
        if v0 is not None and v1 is not None:
            value, bounds = join_pair("mem@" + region_key(region), v0, v1)
            if value is not None:
                new_mem[region] = value
                extra_clauses += bounds
                continue
        # Written on at least one path with diverging/unknown value: the
        # region stays *tracked* (its initial contents must not be
        # re-read) but its value is existentially unknown.
        new_mem[region] = Var(f"mjoin@{rip:#x}@{region_key(region)}")

    # Flags join through the same pair mechanism: when both sides' flags
    # come from the same kind of operation, joining the operand values
    # (sharing join variables with any register/slot holding the same
    # pair) keeps branch conditions — and hence loop bounds — alive
    # across iterations.
    flags = None
    f0, f1 = p0.flags, p1.flags
    if f0 == f1:
        flags = f0
    elif (
        f0 is not None and f1 is not None
        and f0.kind == f1.kind and f0.width == f1.width
    ):
        joined_a, bounds_a = join_pair("flags.a", f0.a, f1.a)
        if f0.b is None and f1.b is None:
            joined_b, bounds_b = None, ()
            b_ok = True
        elif f0.b is not None and f1.b is not None:
            joined_b, bounds_b = join_pair("flags.b", f0.b, f1.b)
            b_ok = joined_b is not None
        else:
            joined_b, bounds_b, b_ok = None, (), False
        if joined_a is not None and b_ok:
            flags = FlagState(f0.kind, joined_a, joined_b, f0.width)
            extra_clauses += [*bounds_a, *bounds_b]

    # Non-join-variable clauses (branch conditions over program values)
    # survive iff present on both sides — plain intersection.
    own_prefix = f"join@{rip:#x}@"

    def is_join_clause(clause: Clause) -> bool:
        return isinstance(clause.lhs, Var) and clause.lhs.name.startswith("join@")

    shared_clauses = frozenset(
        clause for clause in p0.clauses & p1.clauses if not is_join_clause(clause)
    )
    shared_clauses |= _join_foreign_var_clauses(p0, p1, own_prefix)
    # Both part dicts were filled in sorted order: the canonical layout.
    result = Predicate(
        regs=tuple(new_regs.items()),
        flags=flags,
        mem=tuple(new_mem.items()),
        clauses=shared_clauses | frozenset(extra_clauses),
    )
    # Garbage-collect bounds on join variables no longer referenced by any
    # valuation: they constrain nothing, and letting stale generations
    # accumulate would keep the state changing forever (no fixpoint).
    live = result.valuation_names
    cleaned = frozenset(
        clause for clause in result.clauses
        if not (is_join_clause(clause) and clause.lhs.name not in live)
    )
    if cleaned != result.clauses:
        result = replace(result, clauses=cleaned)
        # Same valuations, so the same names: keep them cached for the
        # next join, where this result is the vertex's predicate.
        object.__setattr__(result, "valuation_names", live)
    if _T.enabled:
        _T.emit_sampled("pred.join", rip,
                        clauses=len(result.clauses),
                        regs=len(result.regs), mem=len(result.mem))
        _M.observe("pred.join.clauses", len(result.clauses))
    return result


def _join_foreign_var_clauses(
    p0: Predicate, p1: Predicate, own_prefix: str
) -> frozenset[Clause]:
    """Join bound clauses on join variables minted at *other* vertices.

    Per variable: both sides bound it → interval hull (implied by each
    side); one side bounds it and the other side never references it → the
    bound is kept (the variable is free there, any witness works); one side
    bounds it but the other references it → dropped (unknown value).

    "References" (:attr:`Predicate.referenced_names`) covers *every* place
    a predicate can pin the variable: valuations, flags operands (a branch
    on joined flags constrains them), and compound clause expressions.
    Missing the flags made a kept one-sided bound contradict the other
    path's flag state — an unsound (unsatisfiable) join."""
    def grouped(pred: Predicate) -> dict[Var, tuple[Clause, ...]]:
        return {var: clauses
                for var, clauses in pred.join_var_clauses.items()
                if not var.name.startswith(own_prefix)}

    by_var0, by_var1 = grouped(p0), grouped(p1)
    kept: set[Clause] = set()
    for var in set(by_var0) | set(by_var1):
        clauses0, clauses1 = by_var0.get(var), by_var1.get(var)
        if clauses0 and clauses1:
            # Each side's bounds as a set: its iteration order decides
            # which of two contradictory bounds wins.
            hull = intersect_intervals(var, frozenset(clauses0)).union(
                intersect_intervals(var, frozenset(clauses1))
            )
            width = var.width
            if hull.lo > 0:
                kept.add(Clause(var, "geu", Const(hull.lo, width), width))
            if hull.hi < mask(width):
                kept.add(Clause(var, "leu", Const(hull.hi, width), width))
        elif clauses0 and var.name not in p1.referenced_names:
            kept.update(clauses0)
        elif clauses1 and var.name not in p0.referenced_names:
            kept.update(clauses1)
    return frozenset(kept)


def less_abstract(p0: Predicate, p1: Predicate, rip: int) -> bool:
    """``p0 ⊑ p1`` iff ``p0 ⊔ p1 == p1`` (the derived partial order)."""
    return join_predicates(p0, p1, rip) == p1


def widen_predicate(pred: Predicate) -> Predicate:
    """Drop every bound clause on join variables: the terminal rung of the
    range-abstraction ladder.  Applied by the lifter after a vertex has
    been joined many times, guaranteeing termination of ascending interval
    hulls (unbounded loop counters)."""
    kept = frozenset(
        clause for clause in pred.clauses
        if not (isinstance(clause.lhs, Var) and clause.lhs.name.startswith("join@"))
    )
    from dataclasses import replace as _replace

    return _replace(pred, clauses=kept)
