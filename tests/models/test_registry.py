"""Tests for the model registry."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.errors import ModelError
from repro.models.base import CulinaryEvolutionModel
from repro.models.null_model import NullModel
from repro.models.registry import (
    PAPER_MODELS,
    available_models,
    create_model,
    register_model,
)


def test_paper_models_registered():
    assert PAPER_MODELS == ("CM-R", "CM-C", "CM-M", "NM")
    for name in PAPER_MODELS:
        model = create_model(name)
        assert isinstance(model, CulinaryEvolutionModel)
        assert model.name == name


def test_every_registered_model_runs_batched():
    """No model any repro module registers degrades a batched request.

    This is the precondition for folding the vectorized engine into the
    batched one: every registered model must stack, so importing every
    module first catches a model that registers itself on import.
    """
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(info.name)
    for name in available_models():
        assert create_model(name).resolve_engine("batched") == "batched", name


def test_unknown_model():
    with pytest.raises(ModelError):
        create_model("CM-X")


def test_create_with_kwargs():
    model = create_model("NM", sample_from="universe")
    assert isinstance(model, NullModel)
    assert model.sample_from == "universe"


def test_register_conflict_rejected():
    with pytest.raises(ModelError):
        register_model("NM", lambda: None)  # type: ignore[arg-type]


def test_register_idempotent():
    register_model("NM", NullModel)  # same factory: fine
