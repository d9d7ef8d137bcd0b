"""Model registry: paper names -> model factories.

The four Sec. V models register here; other models can add themselves
with :func:`register_model`.  Experiments and the CLI look models up by
their paper names ("CM-R", "CM-C", "CM-M", "NM").
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ModelError
from repro.models.base import CulinaryEvolutionModel
from repro.models.copy_mutate import (
    CopyMutateCategory,
    CopyMutateMixture,
    CopyMutateRandom,
)
from repro.models.null_model import NullModel

__all__ = [
    "PAPER_MODELS",
    "available_models",
    "create_model",
    "register_model",
]

ModelFactory = Callable[[], CulinaryEvolutionModel]

_REGISTRY: dict[str, ModelFactory] = {
    CopyMutateRandom.name: CopyMutateRandom,
    CopyMutateCategory.name: CopyMutateCategory,
    CopyMutateMixture.name: CopyMutateMixture,
    NullModel.name: NullModel,
}

#: The four models of Sec. V in the paper's presentation order.
PAPER_MODELS: tuple[str, ...] = ("CM-R", "CM-C", "CM-M", "NM")


def available_models() -> tuple[str, ...]:
    """All registered model names, sorted."""
    return tuple(sorted(_REGISTRY))


def create_model(name: str, **kwargs) -> CulinaryEvolutionModel:
    """Instantiate a registered model with its paper defaults.

    Args:
        name: Registry name (case-sensitive, e.g. ``"CM-R"``).
        **kwargs: Forwarded to the model constructor (``params=``,
            ``fitness=``, ...).

    Raises:
        ModelError: If the name is not registered.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ModelError(
            f"unknown model {name!r}; available: {available_models()}"
        )
    return factory(**kwargs)


def register_model(name: str, factory: ModelFactory) -> None:
    """Register a new model under ``name``.

    Raises:
        ModelError: If the name is already taken by a different factory.
    """
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not factory:
        raise ModelError(f"model name {name!r} is already registered")
    _REGISTRY[name] = factory
