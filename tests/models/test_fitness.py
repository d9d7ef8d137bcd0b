"""Tests for fitness strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models.fitness import ScoredFitness, UniformFitness
from repro.rng import ensure_rng


def test_uniform_range_and_shape():
    fitness = UniformFitness().assign(list(range(100)), ensure_rng(0))
    assert fitness.shape == (100,)
    assert (fitness >= 0).all() and (fitness <= 1).all()


def test_uniform_deterministic_per_seed():
    a = UniformFitness().assign([1, 2, 3], ensure_rng(5))
    b = UniformFitness().assign([1, 2, 3], ensure_rng(5))
    assert np.allclose(a, b)


def test_scored_normalizes():
    strategy = ScoredFitness(scores={1: 10.0, 2: 20.0, 3: 30.0})
    fitness = strategy.assign([1, 2, 3], ensure_rng(0))
    assert fitness[0] == pytest.approx(0.0)
    assert fitness[1] == pytest.approx(0.5)
    assert fitness[2] == pytest.approx(1.0)


def test_scored_default_for_unknown():
    strategy = ScoredFitness(scores={1: 0.0, 2: 1.0}, default=0.25)
    fitness = strategy.assign([1, 2, 99], ensure_rng(0))
    assert fitness[2] == pytest.approx(0.25)


def test_scored_constant_scores_give_half():
    strategy = ScoredFitness(scores={1: 5.0, 2: 5.0})
    fitness = strategy.assign([1, 2], ensure_rng(0))
    assert np.allclose(fitness, 0.5)


def test_scored_jitter_breaks_ties():
    strategy = ScoredFitness(scores={1: 5.0, 2: 5.0}, jitter=0.1)
    fitness = strategy.assign([1, 2], ensure_rng(0))
    assert fitness[0] != fitness[1]
    assert (fitness >= 0).all() and (fitness <= 1).all()


def test_scored_negative_jitter_rejected():
    strategy = ScoredFitness(scores={}, jitter=-0.1)
    with pytest.raises(ModelError):
        strategy.assign([1], ensure_rng(0))

