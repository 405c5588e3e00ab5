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

from dataclasses import dataclass, field, replace
from functools import lru_cache

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
from repro.smt.solver import Region, expr_interval, region_key


def simplify_mul(term: Expr, coeff: int, width: int) -> Expr:
    return _mul(term, Const(coeff, width), width)


class _ClauseBounds:
    """BoundsProvider over one clause set."""

    def __init__(self, clauses):
        self.clauses = clauses

    def interval_of(self, term: Expr) -> Interval | None:
        interval = intersect_intervals(term, self.clauses)
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

def _join_values(
    part_name: str,
    rip: int,
    v0: Expr | None,
    v1: Expr | None,
    bounds0: frozenset[Clause],
    bounds1: frozenset[Clause],
) -> tuple[Expr | None, tuple[Clause, ...]]:
    """Join two valuations of one state part (memoized).

    The result is a pure function of the arguments (the join variable name
    depends only on *rip* and *part_name*), and join fixpoints re-join the
    same value pairs under the same clause sets at every iteration."""
    if v0 is None or v1 is None:
        return None, ()
    return _join_values_cached(part_name, rip, v0, v1, bounds0, bounds1)


@lru_cache(maxsize=1 << 16)
def _join_values_cached(
    part_name: str,
    rip: int,
    v0: Expr,
    v1: Expr,
    bounds0: frozenset[Clause],
    bounds1: frozenset[Clause],
) -> tuple[Expr | None, tuple[Clause, ...]]:
    value, clauses = _join_values_impl(part_name, rip, v0, v1, bounds0, bounds1)
    return value, tuple(clauses)


register_lru("pred.join_values", _join_values_cached)


def _join_values_impl(
    part_name: str,
    rip: int,
    v0: Expr,
    v1: Expr,
    bounds0: frozenset[Clause],
    bounds1: frozenset[Clause],
) -> tuple[Expr | None, list[Clause]]:
    """Join two valuations of one state part.

    The ladder: equal exprs stay; two constants become a bounded join
    variable; anything else becomes the (unbounded) join variable.  The join
    variable's name is a deterministic function of (rip, part), so repeated
    joins at the same program point reuse it and the ladder has height 3.
    """
    if v0 == v1:
        if not isinstance(v0, Var):
            return v0, []
        # Merge the two sides' bound clauses *semantically*: the interval
        # hull.  (A raw set intersection would drop everything whenever the
        # two sides carry different-generation bounds for the same
        # variable, losing e.g. a loop counter's `>= 0`.)
        own0 = frozenset(c for c in bounds0 if c.lhs == v0)
        own1 = frozenset(c for c in bounds1 if c.lhs == v0)
        if own0 == own1:
            return v0, list(own0)
        hull = intersect_intervals(v0, own0).union(
            intersect_intervals(v0, own1)
        )
        width = v0.width
        bounds = []
        if hull.lo > 0:
            bounds.append(Clause(v0, "geu", Const(hull.lo, width), width))
        if hull.hi < (1 << width) - 1:
            bounds.append(Clause(v0, "leu", Const(hull.hi, width), width))
        return v0, bounds
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

    def residual(lin, terms, own_bounds):
        extra = {t: co for t, co in terms.items() if common.get(t) != co}
        provider = _ClauseBounds(own_bounds)
        expr: Expr = Const(lin.const, width)
        for term, coeff in extra.items():
            expr = simplify_add(expr, simplify_mul(term, coeff, width), width)
        return expr, expr_interval(expr, provider)

    resid0, iv0 = residual(lin0, d0, bounds0)
    resid1, iv1 = residual(lin1, d1, bounds1)
    if iv0.is_top or iv1.is_top:
        return join_var, []

    prior: Interval | None = None
    prior_clauses: list[Clause] = []
    other_iv: Interval | None = None
    if resid0 == join_var:
        prior = iv0
        prior_clauses = [c for c in bounds0 if c.lhs == join_var]
        other_iv = iv1
    elif resid1 == join_var:
        prior = iv1
        prior_clauses = [c for c in bounds1 if c.lhs == join_var]
        other_iv = iv0

    value = join_var
    for term, coeff in sorted(common.items(), key=lambda kv: expr_key(kv[0])):
        value = simplify_add(value, simplify_mul(term, coeff, width), width)

    if prior is not None and other_iv is not None:
        if other_iv.intersect(prior) == other_iv:
            return value, prior_clauses  # contained: fixpoint
        # Grow to the exact interval hull.  An ascending chain of hulls is
        # possible (an unbounded counter); termination is enforced one
        # level up — the lifter widens a vertex to unbounded join variables
        # after a fixed number of joins (see _Lifter.explore).
        hull = prior.union(other_iv)
        clauses: list[Clause] = []
        if hull.lo > 0:
            clauses.append(Clause(join_var, "geu", Const(hull.lo, width), width))
        if hull.hi < mask(width):
            clauses.append(Clause(join_var, "leu", Const(hull.hi, width), width))
        return value, clauses

    hull = iv0.union(iv1)
    clauses: list[Clause] = []
    if hull.lo > 0:
        clauses.append(Clause(join_var, "geu", Const(hull.lo, width), width))
    if hull.hi < mask(width):
        clauses.append(Clause(join_var, "leu", Const(hull.hi, width), width))
    return value, clauses


def join_predicates(p0: Predicate, p1: Predicate, rip: int) -> Predicate:
    """``P ⊔ Q`` at program point *rip*.

    Soundness: every produced clause is implied by P and by Q (for the join
    variables: under *some* assignment, in each).  Information only drops.
    """
    regs0, regs1 = p0.reg_dict(), p1.reg_dict()
    new_regs: dict[str, Expr] = {}
    extra_clauses: list[Clause] = []

    # Parts holding the *same pair* of values on the two sides stay equal
    # after the join: they share one join variable.  (A register that was
    # just loaded from a stack slot keeps its equality with the slot, so a
    # branch bound on the register also bounds the slot.)
    pair_cache: dict[tuple[Expr, Expr], tuple[Expr | None, list[Clause]]] = {}

    def join_pair(name: str, v0: Expr, v1: Expr):
        key = (v0, v1)
        if key not in pair_cache:
            pair_cache[key] = _join_values(name, rip, v0, v1,
                                           p0.clauses, p1.clauses)
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
            value, bounds = join_pair(f"mem@{region}", v0, v1)
            if value is not None:
                new_mem[region] = value
                extra_clauses += bounds
                continue
        # Written on at least one path with diverging/unknown value: the
        # region stays *tracked* (its initial contents must not be
        # re-read) but its value is existentially unknown.
        new_mem[region] = Var(f"mjoin@{rip:#x}@{region}")

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
    result = Predicate.make(
        regs=new_regs,
        flags=flags,
        mem=new_mem,
        clauses=shared_clauses | frozenset(extra_clauses),
    )
    # Garbage-collect bounds on join variables no longer referenced by any
    # valuation: they constrain nothing, and letting stale generations
    # accumulate would keep the state changing forever (no fixpoint).
    live = _referenced_var_names(result)
    if result.flags is not None:
        for operand in (result.flags.a, result.flags.b):
            if operand is not None:
                live.update(variable_names(operand))
    cleaned = frozenset(
        clause for clause in result.clauses
        if not (isinstance(clause.lhs, Var)
                and clause.lhs.name.startswith("join@")
                and clause.lhs.name not in live)
    )
    if cleaned != result.clauses:
        result = replace(result, clauses=cleaned)
    if _T.enabled:
        _T.emit_sampled("pred.join", rip,
                        clauses=len(result.clauses),
                        regs=len(result.regs), mem=len(result.mem))
        _M.observe("pred.join.clauses", len(result.clauses))
    return result


def _referenced_var_names(pred: Predicate) -> set[str]:
    """Variable names occurring in the predicate's valuations."""
    names: set[str] = set()
    for _, value in pred.regs:
        names.update(variable_names(value))
    for region, value in pred.mem:
        names.update(variable_names(region.addr))
        names.update(variable_names(value))
    return names


def _join_foreign_var_clauses(
    p0: Predicate, p1: Predicate, own_prefix: str
) -> frozenset[Clause]:
    """Join bound clauses on join variables minted at *other* vertices.

    Per variable: both sides bound it → interval hull (implied by each
    side); one side bounds it and the other side never references it → the
    bound is kept (the variable is free there, any witness works); one side
    bounds it but the other references it → dropped (unknown value)."""
    def grouped(pred: Predicate) -> dict[Var, list[Clause]]:
        out: dict[Var, list[Clause]] = {}
        for clause in pred.clauses:
            if isinstance(clause.lhs, Var) and \
                    clause.lhs.name.startswith("join@") and \
                    not clause.lhs.name.startswith(own_prefix):
                out.setdefault(clause.lhs, []).append(clause)
        return out

    def references(pred: Predicate) -> set[str]:
        # "Free on this side" must consider *every* place the predicate
        # can pin the variable: valuations, flags operands (a branch on
        # joined flags constrains them), and compound clause expressions.
        # Missing the flags made a kept one-sided bound contradict the
        # other path's flag state — an unsound (unsatisfiable) join.
        names = _referenced_var_names(pred)
        if pred.flags is not None:
            for operand in (pred.flags.a, pred.flags.b):
                if operand is not None:
                    names.update(variable_names(operand))
        for clause in pred.clauses:
            if not isinstance(clause.lhs, Var):
                names.update(variable_names(clause.lhs))
            if not isinstance(clause.rhs, Const):
                names.update(variable_names(clause.rhs))
        return names

    by_var0, by_var1 = grouped(p0), grouped(p1)
    refs0, refs1 = references(p0), references(p1)
    kept: set[Clause] = set()
    for var in set(by_var0) | set(by_var1):
        clauses0, clauses1 = by_var0.get(var), by_var1.get(var)
        if clauses0 and clauses1:
            hull = intersect_intervals(var, clauses0).union(
                intersect_intervals(var, clauses1)
            )
            width = var.width
            if hull.lo > 0:
                kept.add(Clause(var, "geu", Const(hull.lo, width), width))
            if hull.hi < mask(width):
                kept.add(Clause(var, "leu", Const(hull.hi, width), width))
        elif clauses0 and var.name not in refs1:
            kept.update(clauses0)
        elif clauses1 and var.name not in refs0:
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
