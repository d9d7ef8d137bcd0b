"""Tests for the future-work model extensions."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.lexicon.categories import Category
from repro.models.extensions.variable_size import VariableSizeCopyMutate
from repro.models.params import CuisineSpec


def _spec(code="A", n_ingredients=40, n_recipes=100):
    categories = list(Category)[:4]
    return CuisineSpec(
        region_code=code,
        ingredient_ids=tuple(range(n_ingredients)),
        categories=tuple(categories[i % 4] for i in range(n_ingredients)),
        avg_recipe_size=6.0,
        n_recipes=n_recipes,
        phi=n_ingredients / n_recipes,
    )


# ---------------------------------------------------------------------------
# Variable recipe size
# ---------------------------------------------------------------------------


def test_variable_size_runs_to_target():
    run = VariableSizeCopyMutate().run(_spec(), seed=0)
    assert run.n_recipes == 100
    assert run.model_name == "CM-V"


def test_variable_size_changes_sizes():
    run = VariableSizeCopyMutate(p_insert=0.4, p_delete=0.4).run(
        _spec(), seed=1
    )
    sizes = {len(t) for t in run.transactions}
    assert len(sizes) > 1  # sizes actually drift


def test_variable_size_respects_bounds():
    run = VariableSizeCopyMutate(
        p_insert=0.45, p_delete=0.45, min_size=4, max_size=8
    ).run(_spec(), seed=2)
    mutated = run.transactions[run.initial_recipes:]
    for transaction in mutated:
        assert 4 <= len(transaction) <= 8 or len(transaction) == 6


def test_variable_size_invalid_probabilities():
    with pytest.raises(ParameterError):
        VariableSizeCopyMutate(p_insert=0.7, p_delete=0.7)
    with pytest.raises(ParameterError):
        VariableSizeCopyMutate(p_insert=-0.1)
    with pytest.raises(ParameterError):
        VariableSizeCopyMutate(min_size=10, max_size=5)
