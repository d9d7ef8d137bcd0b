"""Structured backend-degradation records shared by the runtime layers.

A degradation is the runtime choosing a weaker backend than the caller
asked for, because the requested one cannot serve the work: a
``process`` map over an unpicklable closure runs on threads
(:func:`~repro.runtime.runner.parallel_map`), a ``distributed`` map
that no worker attaches to within its deadline runs on the local
process pool (:class:`~repro.runtime.distributed.DistributedExecutor`).
Degrading is the right call — results still arrive, bit-identical — but
it must never be silent: throughput quietly collapses otherwise, and
the operator has no signal to fix the cause.

So every degradation is (a) recorded as a structured
:class:`BackendDegradation` in the runtime event log
(:mod:`repro.runtime.events`), queryable after the run via
:func:`backend_degradations`, and (b) warned once per (requested
backend, callable) via :class:`BackendDegradationWarning`.  It lives
here, not in the runner, so the distributed backend can report through
the same channel without importing the runner (which would cycle:
executor → distributed → runner → executor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.runtime.events import events, record

__all__ = [
    "BackendDegradation",
    "BackendDegradationWarning",
    "backend_degradations",
    "callable_name",
    "record_degradation",
]


class BackendDegradationWarning(UserWarning):
    """Emitted when a map ran on a weaker backend than requested."""


@dataclass(frozen=True)
class BackendDegradation:
    """A recorded backend degradation event.

    Attributes:
        callable_name: Qualified name of the offending callable.
        requested: Backend the caller asked for.
        effective: Backend the map actually ran on.
        reason: Why the requested backend was unusable (the pickling
            error or attach-deadline report, verbatim).
    """

    callable_name: str
    requested: str
    effective: str
    reason: str


def backend_degradations() -> tuple[BackendDegradation, ...]:
    """Every backend degradation recorded so far, in observation order."""
    return events(BackendDegradation)


def callable_name(fn: Callable) -> str:
    """Qualified name used to key degradation records."""
    return (
        f"{getattr(fn, '__module__', '?')}."
        f"{getattr(fn, '__qualname__', repr(fn))}"
    )


def record_degradation(
    fn: Callable,
    requested: str,
    effective: str,
    reason: str,
    hint: str,
) -> None:
    """Record a degradation; warn once per (requested, callable) pair.

    Args:
        fn: The mapped callable (keyed by qualified name).
        requested: Backend the caller asked for.
        effective: Backend the map actually ran on.
        reason: Why the requested backend was unusable, verbatim.
        hint: One actionable sentence appended to the warning telling
            the operator how to get the requested backend back.
    """
    name = callable_name(fn)
    record(
        BackendDegradation(
            callable_name=name,
            requested=requested,
            effective=effective,
            reason=reason,
        ),
        warning=BackendDegradationWarning(
            f"backend={requested!r} degraded to {effective!r} for "
            f"{name}: {reason}; {hint}"
        ),
        warn_key=(requested, name),
        stacklevel=4,
    )
