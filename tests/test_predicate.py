"""Predicate tests: clauses, flag conditions, eval, and the join lattice."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import Const, EvalEnv, RegRef, Var, const, simplify as s, var
from repro.pred import (
    Clause,
    FlagState,
    Predicate,
    condition_clause,
    join_predicates,
    less_abstract,
)
from repro.smt.intervals import Interval
from repro.smt.solver import Region

RSP0 = var("rsp0")
RDI0 = var("rdi0")
RET = var("ret0")


def base_pred(**extra_regs) -> Predicate:
    regs = {"rip": const(0x401000), "rsp": RSP0, "rdi": RDI0}
    regs.update(extra_regs)
    return Predicate.make(
        regs=regs, mem={Region(RSP0, 8): RET}
    )


# -- clauses -------------------------------------------------------------------

def test_clause_negation_and_flip():
    clause = Clause(RDI0, "ltu", const(5))
    assert clause.negated().op == "geu"
    flipped = clause.flipped()
    assert flipped.lhs == const(5) and flipped.op == "gtu"


def test_clause_holds_unsigned_and_signed():
    env = EvalEnv(variables={"rdi0": (1 << 64) - 1})  # -1 as unsigned
    assert Clause(RDI0, "gtu", const(5)).holds(env)
    assert Clause(RDI0, "lts", const(5)).holds(env)


def test_clause_normalized_keeps_term_left():
    clause = Clause(const(5), "ltu", RDI0)
    normalized = clause.normalized()
    assert normalized.lhs == RDI0 and normalized.op == "gtu"


# -- flag conditions ------------------------------------------------------------

def test_cmp_ja_condition():
    flags = FlagState("cmp", RDI0, const(0xC3, 32), 32)
    taken = condition_clause(flags, "a", taken=True)
    assert taken == Clause(RDI0, "gtu", const(0xC3, 32), 32)
    fallthrough = condition_clause(flags, "a", taken=False)
    assert fallthrough == Clause(RDI0, "leu", const(0xC3, 32), 32)


def test_test_self_conditions():
    flags = FlagState("test", RDI0, RDI0, 64)
    zero = condition_clause(flags, "e", taken=True)
    assert zero == Clause(RDI0, "eq", const(0, 64), 64)
    sign = condition_clause(flags, "s", taken=True)
    assert sign.op == "lts"


def test_unexpressible_condition_is_none():
    flags = FlagState("cmp", RDI0, const(1), 64)
    assert condition_clause(flags, "p", taken=True) is None


# -- eval (Definition 4.1) --------------------------------------------------------

def test_eval_resolves_registers():
    pred = base_pred(rax=s.add(RDI0, const(8)))
    result = pred.eval(s.add(RegRef("rax"), const(4)))
    assert result == s.add(RDI0, const(12))


def test_eval_unknown_register_is_bottom():
    pred = base_pred()
    assert pred.eval(RegRef("r11")) is None


def test_interval_from_clauses():
    pred = base_pred().with_clause(Clause(RDI0, "leu", const(0xC3)))
    assert pred.interval_of(RDI0) == Interval(0, 0xC3)
    assert pred.interval_of(RSP0) is None


# -- concrete satisfaction ---------------------------------------------------------

def memory_from(table):
    def read(addr, size):
        return table.get((addr, size), 0)

    return read


def test_holds_checks_regs_mem_clauses():
    pred = base_pred().with_clause(Clause(RDI0, "ltu", const(100)))
    env = EvalEnv(
        variables={"rsp0": 0x7FFF_0000, "rdi0": 42, "ret0": 0xAAA},
        registers={"rip": 0x401000, "rsp": 0x7FFF_0000, "rdi": 42},
        read_mem=memory_from({(0x7FFF_0000, 8): 0xAAA}),
    )
    assert pred.holds(env)
    env.registers["rdi"] = 43  # diverges from valuation
    assert not pred.holds(env)


def test_holds_rejects_violated_clause():
    pred = base_pred().with_clause(Clause(RDI0, "ltu", const(10)))
    env = EvalEnv(
        variables={"rsp0": 0x7FFF_0000, "rdi0": 50, "ret0": 0xAAA},
        registers={"rip": 0x401000, "rsp": 0x7FFF_0000, "rdi": 50},
        read_mem=memory_from({(0x7FFF_0000, 8): 0xAAA}),
    )
    assert not pred.holds(env)


# -- the join (Definition 3.3 / Example 3.4) -----------------------------------------

def test_join_identical_predicates_is_identity():
    pred = base_pred(rax=const(3))
    assert join_predicates(pred, pred, 0x401000) == pred


def test_join_range_abstraction_example_3_4():
    """{a = 3} ⊔ {a = 4} => {a in [3,4]} via a join variable."""
    p = base_pred(rax=const(3))
    q = base_pred(rax=const(4))
    joined = join_predicates(p, q, 0x401000)
    rax = joined.get_reg("rax")
    assert isinstance(rax, Var) and rax.name.startswith("join@")
    assert joined.interval_of(rax) == Interval(3, 4)


def test_join_drops_incomparable_values():
    p = base_pred(rax=RDI0)
    q = base_pred(rax=var("rsi0"))
    joined = join_predicates(p, q, 0x401000)
    rax = joined.get_reg("rax")
    assert isinstance(rax, Var) and rax.name.startswith("join@")
    assert joined.interval_of(rax) is None  # unbounded


def test_join_keeps_shared_memory_valuation():
    p = base_pred()
    q = base_pred()
    joined = join_predicates(p, q, 0x401000)
    assert joined.mem_dict()[Region(RSP0, 8)] == RET


def test_join_grows_interval_hull_on_rejoin():
    p = base_pred(rax=const(3))
    q = base_pred(rax=const(4))
    joined = join_predicates(p, q, 0x401000)
    wider = join_predicates(joined, base_pred(rax=const(100)), 0x401000)
    rax = wider.get_reg("rax")
    assert isinstance(rax, Var)
    assert wider.interval_of(rax) == Interval(3, 100)  # exact hull


def test_join_stable_inside_bounds():
    p = base_pred(rax=const(3))
    q = base_pred(rax=const(4))
    joined = join_predicates(p, q, 0x401000)
    again = join_predicates(joined, base_pred(rax=const(3)), 0x401000)
    assert again == joined
    assert less_abstract(base_pred(rax=const(3)), joined, 0x401000)


def test_join_intersects_branch_clauses():
    clause = Clause(RDI0, "ltu", const(8))
    p = base_pred().with_clause(clause)
    q = base_pred().with_clause(clause).with_clause(Clause(RDI0, "gtu", const(2)))
    joined = join_predicates(p, q, 0x401000)
    assert clause in joined.clauses
    assert Clause(RDI0, "gtu", const(2)) not in joined.clauses


def test_join_reaches_fixpoint_on_bounded_value_sets():
    """Joining a bounded set of values converges to its interval hull; a
    second pass over the same values is the identity (fixpoint).  Unbounded
    ascending chains are cut by the lifter's widen-after-k (not here)."""
    pred = base_pred(rax=const(0))
    for value in list(range(1, 20)) + list(range(20)):
        pred = join_predicates(pred, base_pred(rax=const(value)), 0x401000)
    final = join_predicates(pred, base_pred(rax=const(7)), 0x401000)
    assert final == pred
    rax = pred.get_reg("rax")
    assert pred.interval_of(rax) == Interval(0, 19)


def test_lifter_widening_caps_unbounded_counters():
    """A loop counter with no bound still terminates: the lifter widens."""
    from repro import lift
    from repro.minicc import compile_source

    source = """
    long g;
    long main() {
        long i = 0;
        while (1 == 1) { g = i; i = i + 1; }
        return 0;
    }
    """
    result = lift(compile_source(source, name="spin"), max_states=20_000)
    # The infinite loop never returns; lifting must terminate regardless
    # (either a clean graph or a rejection, but no hang / state explosion).
    assert result.stats.states < 20_000


def test_flags_join():
    flags = FlagState("cmp", RDI0, const(5), 64)
    p = base_pred().with_flags(flags)
    joined_same = join_predicates(p, p, 0x401000)
    assert joined_same.flags == flags
    # Different comparison constants: the operand pair joins to a bounded
    # variable, keeping the flag state (and future branch clauses) alive.
    q = base_pred().with_flags(FlagState("cmp", RDI0, const(6), 64))
    joined = join_predicates(p, q, 0x401000)
    assert joined.flags is not None
    assert joined.flags.kind == "cmp" and joined.flags.a == RDI0
    assert joined.interval_of(joined.flags.b) == Interval(5, 6)
    # Different kinds cannot be joined.
    r = base_pred().with_flags(FlagState("test", RDI0, RDI0, 64))
    assert join_predicates(p, r, 0x401000).flags is None


# -- join soundness property: s |= P or s |= Q  =>  s |= P ⊔ Q -----------------------

@settings(max_examples=200)
@given(
    v0=st.integers(min_value=0, max_value=100),
    v1=st.integers(min_value=0, max_value=100),
    concrete=st.integers(min_value=0, max_value=100),
    pick_p=st.booleans(),
)
def test_prop_join_soundness(v0, v1, concrete, pick_p):
    p = base_pred(rax=const(v0))
    q = base_pred(rax=const(v1))
    chosen_value = v0 if pick_p else v1
    env = EvalEnv(
        variables={"rsp0": 0x7FFF_0000, "rdi0": concrete, "ret0": 1},
        registers={"rip": 0x401000, "rsp": 0x7FFF_0000, "rdi": concrete,
                   "rax": chosen_value},
        read_mem=memory_from({(0x7FFF_0000, 8): 1}),
    )
    chosen = p if pick_p else q
    assert chosen.holds(env)
    joined = join_predicates(p, q, 0x401000)
    # The join variable is existentially quantified: find its witness.
    rax = joined.get_reg("rax")
    if isinstance(rax, Var):
        env.variables[rax.name] = chosen_value
    assert joined.holds(env)


# -- pickling: caches stay in the process that built them ----------------------------

_PICKLE_STATE = """
import pickle, sys
from repro.expr import Var, const
from repro.pred import Clause
from repro.semantics.state import initial_state
state = initial_state(0x401000, Var("ret0"))
pred = state.pred.with_clause(Clause(Var("join@0x401000@rax"), "leu", const(9)))
state = state.with_pred(pred)
# Build every cache the objects carry, so a pickle that kept them shows.
hash(state); str(state.model)
pred.bounds_on(Var("join@0x401000@rax")); pred.referenced_names
[tree.representative() for tree in state.model.trees]
sys.stdout.write(pickle.dumps(state).hex())
"""


def test_pickled_state_hashes_like_a_fresh_one_in_another_process():
    import os
    import pickle
    import subprocess
    import sys
    from pathlib import Path

    from repro.semantics.state import initial_state

    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _PICKLE_STATE], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = pickle.loads(bytes.fromhex(out))

    fresh = initial_state(0x401000, Var("ret0"))
    fresh = fresh.with_pred(fresh.pred.with_clause(
        Clause(Var("join@0x401000@rax"), "leu", const(9))))
    fields = {"regs", "flags", "mem", "clauses"}
    assert set(vars(loaded.pred)) == fields
    for tree in loaded.model.trees:
        assert set(vars(tree)) == {"regions", "children"}
    assert set(vars(loaded.model)) == {"trees", "destroyed"}
    assert loaded == fresh
    assert hash(loaded.pred) == hash(fresh.pred)
    assert loaded.pred in {fresh.pred}
    assert loaded in {fresh}
