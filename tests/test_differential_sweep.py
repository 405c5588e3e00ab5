"""Satellite (a): τ-vs-emulator differential sweep, one test per form.

Each supported mnemonic/operand shape in the decode table gets its own
parametrized test case running the lockstep harness with seeded random
operands; a failure names the exact instruction that broke the simulation
relation (Lemma 4.5's hypothesis, checked form by form).  Each form's
program is also lifted, and its Hoare graph checked against the same
concrete run.
"""

from __future__ import annotations

import pytest

from repro.qa.diffsweep import forms, run_form, run_form_lifted

_FORMS = forms()


def test_sweep_covers_the_supported_instruction_families():
    kinds = {form.kind for form in _FORMS}
    assert {"alu", "shift", "unary", "muldiv", "mov", "stack", "extend",
            "setcc", "cmovcc", "jcc", "string", "nullary"} <= kinds
    # One form per mnemonic/operand shape — names must be unique.
    names = [form.name for form in _FORMS]
    assert len(names) == len(set(names))
    assert len(names) > 100


# Each form is checked twice: ``tau`` steps τ by hand in lockstep with the
# emulator; the second case lifts the form's program and checks the lifted
# Hoare graph against the same concrete run.  The second case keeps the
# ``uop`` id of the micro-op engine cases it replaced, so tracked case ids
# stay stable.
@pytest.mark.parametrize("check", [
    pytest.param(run_form, id="tau"),
    pytest.param(run_form_lifted, id="uop"),
])
@pytest.mark.parametrize("form", _FORMS, ids=lambda form: form.name)
def test_tau_simulates_emulator(form, check):
    failure = check(form, seed=2022)
    assert failure is None, failure


@pytest.mark.parametrize("seed", [1, 7, 99])
def test_sweep_battery_clean_across_seeds(seed):
    from repro.qa.diffsweep import run_battery

    assert run_battery(seed) == []
