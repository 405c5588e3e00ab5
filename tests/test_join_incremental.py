"""Exactness of the join's fast paths.

The predicate and memory-model joins skip work on inputs that cannot
change the result (equal memory models, identical parts) and answer bound
lookups from a lazily built per-predicate index.  These tests capture the
real join inputs of two lifts — the ``wc`` coreutils analogue and a
xenlike loop function — and check each fast path against what it
replaces: the join's idempotence on equal models, the linear clause scans
the index stands in for, and the join itself with cold and warm caches.
"""

from __future__ import annotations

import pytest

from repro.corpus import build_coreutils
from repro.corpus import templates as T
from repro.expr import Const, Var
from repro.expr.ast import variable_names
from repro.hoare import lifter as lifter_mod
from repro.hoare import lift, lift_function
from repro.memmodel import MemModel, MemTree, join_models
from repro.minicc import compile_source
from repro.perf import reset_caches
from repro.pred import Predicate, join_predicates
from repro.smt.solver import Region


def _capture(run) -> list[tuple]:
    """(state, current, rip, joined) for every join the lift performs."""
    captured = []
    original = lifter_mod.join_states

    def recording(s0, s1, rip):
        joined = original(s0, s1, rip)
        captured.append((s0, s1, rip, joined))
        return joined

    lifter_mod.join_states = recording
    try:
        result = run()
    finally:
        lifter_mod.join_states = original
    assert result.verified
    return captured


@pytest.fixture(scope="module")
def joins() -> list[tuple]:
    reset_caches()
    wc = build_coreutils()["wc"]
    captured = _capture(lambda: lift(wc, cache=False))
    source = T.make_local_buffer("j")
    binary = compile_source(source, name="tpl", entry="localbuf_j",
                            export_labels=True)
    captured += _capture(lambda: lift_function(binary, "localbuf_j",
                                               cache=False))
    assert len(captured) > 100
    return captured


def _predicates(joins) -> list[Predicate]:
    seen: dict[int, Predicate] = {}
    for s0, s1, _, joined in joins:
        for pred in (s0.pred, s1.pred, joined.pred):
            seen.setdefault(id(pred), pred)
    return list(seen.values())


# -- memory models ----------------------------------------------------------------

def _forest_disjoint(trees) -> bool:
    """Sibling trees share no region and no tree is empty, recursively."""
    seen = set()
    for tree in trees:
        if not tree.regions or seen & tree.regions:
            return False
        seen |= tree.regions
        if not _forest_disjoint(tree.children):
            return False
    return True


def test_equal_models_join_to_the_current_model(joins):
    equal = [(s0.model, s1.model) for s0, s1, _, _ in joins
             if s0.model == s1.model]
    assert len(equal) > len(joins) // 2
    for m0, m1 in equal:
        assert m1.disjoint
        assert join_models(m0, m1) is m1
        # An equal copy that is not the same object is answered the same.
        assert join_models(MemModel(frozenset(m0.trees), m0.destroyed),
                           m1) is m1


def test_disjoint_flag_matches_a_recursive_scan(joins):
    for s0, s1, _, joined in joins:
        for model in (s0.model, s1.model, joined.model):
            assert model.disjoint == _forest_disjoint(model.trees)


def test_equal_forests_sharing_a_region_take_the_full_join():
    # Sibling trees that share a region fall into one class of the
    # partition: the join keeps only their common regions, so it is not
    # the identity there and must not be skipped.
    shared = Region(Var("rsp0"), 8)
    other = Region(Var("rdi0"), 8)
    model = MemModel(frozenset({MemTree(frozenset({shared, other})),
                                MemTree(frozenset({shared}))}))
    assert not model.disjoint
    joined = join_models(model, model)
    assert joined == MemModel(frozenset({MemTree(frozenset({shared}))}))


def test_tree_caches_match_fresh_renderings(joins):
    for s0, _, _, _ in joins:
        for tree in s0.model.trees:
            fresh = type(tree)(tree.regions, tree.children)
            assert str(tree) == str(fresh)
            assert tree.representative() == min(tree.regions, key=str)


# -- the predicate index -------------------------------------------------------------

def _terms(pred: Predicate) -> set:
    """Every variable and clause side of the predicate: the lookup keys."""
    terms = {value for _, value in pred.regs}
    for clause in pred.clauses:
        terms.update((clause.lhs, clause.rhs))
    for name in pred.referenced_names:
        terms.add(Var(name))
    return terms


def _scan_names(pred: Predicate, with_clauses: bool) -> set[str]:
    names: set[str] = set()
    for _, value in pred.regs:
        names |= variable_names(value)
    for region, value in pred.mem:
        names |= variable_names(region.addr) | variable_names(value)
    if pred.flags is not None:
        for operand in (pred.flags.a, pred.flags.b):
            if operand is not None:
                names |= variable_names(operand)
    if with_clauses:
        for clause in pred.clauses:
            if not isinstance(clause.lhs, Var):
                names |= variable_names(clause.lhs)
            if not isinstance(clause.rhs, Const):
                names |= variable_names(clause.rhs)
    return names


def test_index_lookups_equal_linear_scans(joins):
    predicates = _predicates(joins)
    assert any(pred.clauses for pred in predicates)
    for pred in predicates:
        for term in _terms(pred):
            scan = tuple(c for c in pred.clauses
                         if c.normalized().lhs == term)
            assert pred.bounds_on(term) == scan
        groups: dict = {}
        for clause in pred.clauses:
            if isinstance(clause.lhs, Var) and \
                    clause.lhs.name.startswith("join@"):
                groups.setdefault(clause.lhs, []).append(clause)
        assert pred.join_var_clauses == {
            var: tuple(group) for var, group in groups.items()}
        assert pred.valuation_names == _scan_names(pred, False)
        assert pred.referenced_names == _scan_names(pred, True)


def _cold(pred: Predicate) -> Predicate:
    """An equal predicate with no lazy cache built."""
    return Predicate(pred.regs, pred.flags, pred.mem, pred.clauses)


def test_join_is_the_same_with_cold_and_warm_caches(joins):
    for s0, s1, rip, joined in joins:
        assert join_predicates(s0.pred, s1.pred, rip) == joined.pred
    reset_caches()
    for s0, s1, rip, joined in joins:
        cold = join_predicates(_cold(s0.pred), _cold(s1.pred), rip)
        assert cold == joined.pred
        assert cold.valuation_names == _scan_names(cold, False)
