"""The runtime event log: one in-process record of what went wrong.

The runtime survives four kinds of trouble without failing the work,
and each must still be visible afterwards:

* :class:`~repro.runtime.degradation.BackendDegradation` — a map ran
  on a weaker backend than requested;
* :class:`~repro.runtime.integrity.CacheCorruption` — a store evicted
  or quarantined a corrupt on-disk entry;
* :class:`~repro.runtime.distributed.TaskAttempt` — one attempt of one
  distributed task (completed, failed, expired or timed out);
* :class:`~repro.runtime.checkpoint.ResumeEvent` — a run continued from
  a checkpoint snapshot.

Every kind follows one policy (DESIGN.md §5, "Runtime events"): the
event is always appended, so a flaky disk or a retry storm shows up as
a count, and a warning, when the recorder gives one, fires only the
first time its ``(type(event), warn_key)`` is seen, so a sweep over a
poisoned 10k-entry cache prints one warning, not 10k.
:func:`clear_events` resets both the log and the warned keys.
"""

from __future__ import annotations

import threading
import warnings
from typing import Hashable

__all__ = ["clear_events", "events", "record"]

#: Every event recorded in this process, in observation order.
_EVENTS: list[object] = []

#: ``(event type, warn_key)`` pairs already warned about.
_WARNED: set[tuple[type, Hashable]] = set()

#: Guards the check-then-add on :data:`_WARNED` across threads.
_LOCK = threading.Lock()


def record(
    event: object,
    *,
    warning: Warning | None = None,
    warn_key: Hashable = None,
    stacklevel: int = 1,
) -> None:
    """Append ``event``; emit ``warning`` the first time its key is seen.

    Args:
        event: A frozen event record (one of the kinds listed above).
        warning: Warning to emit, or ``None`` to record silently.
        warn_key: Identifies the warning's cause within the event's
            kind; one warning fires per ``(type(event), warn_key)``.
        stacklevel: As for :func:`warnings.warn`, counted from the
            caller of :func:`record`.
    """
    _EVENTS.append(event)
    if warning is None:
        return
    key = (type(event), warn_key)
    with _LOCK:
        if key in _WARNED:
            return
        _WARNED.add(key)
    warnings.warn(warning, stacklevel=stacklevel + 1)


def events(kind: type | None = None) -> tuple:
    """Every recorded event, or those of ``kind``, in observation order."""
    if kind is None:
        return tuple(_EVENTS)
    return tuple(event for event in _EVENTS if isinstance(event, kind))


def clear_events() -> None:
    """Reset the log and the warned keys (tests; long-lived services)."""
    with _LOCK:
        _EVENTS.clear()
        _WARNED.clear()
