"""The runtime event log (DESIGN.md §5, "Runtime events").

One policy for every event kind: each event is appended, and a warning
fires only the first time its ``(type(event), warn_key)`` is seen.  The
per-kind query functions are filters over the same log.
"""

from __future__ import annotations

import warnings

import pytest

from repro.runtime import (
    BackendDegradation,
    CacheCorruption,
    ResumeEvent,
    TaskAttempt,
    backend_degradations,
    cache_corruptions,
    clear_events,
    events,
    task_attempts,
)
from repro.runtime.events import record


class _Noise(UserWarning):
    pass


def _degradation(name: str = "m.f") -> BackendDegradation:
    return BackendDegradation(
        callable_name=name, requested="process", effective="thread",
        reason="does not pickle",
    )


def _corruption(kind: str = "torn-snapshot") -> CacheCorruption:
    return CacheCorruption(
        store="CheckpointStore", path="x.ckpt.pkl", kind=kind,
        detail="truncated", action="quarantined",
    )


def test_kind_filter_keeps_observation_order():
    logged = [
        _degradation(),
        ResumeEvent(key="k", step=4),
        _corruption(),
        TaskAttempt(task_index=0, attempt=1, outcome="completed"),
        ResumeEvent(key="k", step=8),
    ]
    for event in logged:
        record(event)
    assert events() == tuple(logged)
    assert events(ResumeEvent) == (logged[1], logged[4])
    assert backend_degradations() == (logged[0],)
    assert cache_corruptions() == (logged[2],)
    assert task_attempts() == (logged[3],)


def test_every_occurrence_is_recorded_but_warned_once():
    with pytest.warns(_Noise, match="first") as caught:
        for _ in range(3):
            record(
                _degradation(), warning=_Noise("first"), warn_key="same"
            )
    assert len(caught) == 1
    assert len(backend_degradations()) == 3


def test_one_warning_per_key_and_per_kind():
    with pytest.warns(_Noise) as caught:
        record(_degradation(), warning=_Noise("a"), warn_key="k1")
        record(_degradation(), warning=_Noise("b"), warn_key="k2")
        # The same key under another kind is another cause.
        record(_corruption(), warning=_Noise("c"), warn_key="k1")
    assert [str(w.message) for w in caught] == ["a", "b", "c"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record(_degradation(), warning=_Noise("a"), warn_key="k1")
        record(_corruption(), warning=_Noise("c"), warn_key="k1")
    assert len(events()) == 5


def test_clear_events_resets_log_and_warning_gate():
    with pytest.warns(_Noise):
        record(_corruption(), warning=_Noise("x"), warn_key="k")
    clear_events()
    assert events() == ()
    with pytest.warns(_Noise):
        record(_corruption(), warning=_Noise("x"), warn_key="k")
    assert cache_corruptions() == (_corruption(),)


def test_warning_points_at_the_callers_frame():
    def recorder():
        record(_corruption(), warning=_Noise("here"), stacklevel=2)

    with pytest.warns(_Noise) as caught:
        recorder()  # stacklevel=2 names this line
    assert caught[0].filename == __file__
    assert caught[0].lineno == recorder.__code__.co_firstlineno + 4
