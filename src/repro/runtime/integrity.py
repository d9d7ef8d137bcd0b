"""Durable writes and corruption records shared by the on-disk stores.

A shared cache directory (DESIGN.md §5) or checkpoint directory
(DESIGN.md §9) lives on disks the runtime does not control: NFS mounts,
crash-prone workers, operators running ``rm`` in the wrong shell.  The
stores already *survive* corruption — an unreadable cache entry is
treated as a miss and evicted, a torn checkpoint snapshot is quarantined
and an older one used — but survival used to be silent, which made a
poisoned shared cache look exactly like a cold one: sweeps quietly
recompute everything and nobody learns the disk is eating data.

So every corruption observation is (a) recorded as a structured
:class:`CacheCorruption` in the runtime event log
(:mod:`repro.runtime.events`), queryable after the run via
:func:`cache_corruptions`, and (b) warned once per (store, kind) via
:class:`CacheCorruptionWarning` — the same visible-degradation contract
as :mod:`repro.runtime.degradation`.

Every store also writes, reads, quarantines and sweeps through the
helpers below (DESIGN.md §9, "Durable writes").
"""

from __future__ import annotations

import contextlib
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.errors import RunCacheError
from repro.runtime.events import events, record

__all__ = [
    "CacheCorruption",
    "CacheCorruptionWarning",
    "atomic_write",
    "cache_corruptions",
    "quarantine",
    "record_corruption",
    "sweep",
    "temp_path",
    "unpickle_or_quarantine",
]


class CacheCorruptionWarning(UserWarning):
    """Emitted when a store evicts or quarantines a corrupt entry."""


@dataclass(frozen=True)
class CacheCorruption:
    """One corrupt on-disk entry, as observed and handled by a store.

    Attributes:
        store: Class name of the observing store (``RunCache``,
            ``CurveCache``, ``CheckpointStore``, ...).
        path: The corrupt file, as observed.
        kind: Short machine-readable cause (``"unreadable-entry"``,
            ``"checksum-mismatch"``, ``"torn-snapshot"``,
            ``"format-version"``).
        detail: The underlying error, verbatim.
        action: What the store did about it — ``"removed"`` (cache
            entries: evicted, will recompute), ``"quarantined"``
            (checkpoint snapshots and corpora: renamed aside for
            post-mortem) or ``"left in place"`` (neither rename nor
            unlink succeeded).
    """

    store: str
    path: str
    kind: str
    detail: str
    action: str


def cache_corruptions() -> tuple[CacheCorruption, ...]:
    """Every cache corruption recorded so far, in observation order."""
    return events(CacheCorruption)


def record_corruption(
    store: str,
    path: str | Path,
    kind: str,
    detail: str,
    action: str,
) -> CacheCorruption:
    """Record one corrupt entry and warn once per (store, kind) pair.

    Every event is recorded (a flaky disk shows up as a *count*, not a
    boolean), but the warning fires only on the first occurrence of a
    cause per store — a sweep over a poisoned 10k-entry cache must not
    print 10k warnings.

    Args:
        store: Observing store's class name.
        path: The corrupt file.
        kind: Short machine-readable cause.
        detail: Underlying error, verbatim.
        action: ``"removed"``, ``"quarantined"`` or ``"left in place"``.
    """
    corruption = CacheCorruption(
        store=store, path=str(path), kind=kind, detail=detail, action=action
    )
    record(
        corruption,
        warning=CacheCorruptionWarning(
            f"{store} found a corrupt entry ({kind}: {detail}) at {path} "
            f"and {action} it; further occurrences are recorded silently "
            "— query repro.runtime.cache_corruptions() and check the "
            "backing disk if the count grows"
        ),
        warn_key=(store, kind),
        stacklevel=3,
    )
    return corruption


def temp_path(path: str | Path) -> Path:
    """This process's temp name for ``path``: ``<name>.tmp.<pid>``."""
    path = Path(path)
    return path.with_name(f"{path.name}.tmp.{os.getpid()}")


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Yield a binary handle on :func:`temp_path`, then ``os.replace`` it.

    On *any* exception the temp is unlinked and the exception
    propagates, so only a killed process can strand a temp.  No fsync:
    a caller whose content cannot be recomputed fsyncs the handle
    itself inside the block.
    """
    tmp = temp_path(path)
    try:
        with tmp.open("wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def quarantine(
    path: str | Path,
    target: str | Path | None,
    store: str,
    kind: str,
    detail: str,
) -> CacheCorruption:
    """Rename a corrupt file to ``target`` (else unlink it) and record it.

    The record's ``action`` is ``"quarantined"``, ``"removed"`` (no
    target, or the rename failed) or ``"left in place"``.
    """
    action = "removed"
    if target is not None:
        with contextlib.suppress(OSError):
            os.replace(path, target)
            action = "quarantined"
    if action == "removed":
        try:
            Path(path).unlink(missing_ok=True)
        except OSError:
            action = "left in place"
    return record_corruption(store, path, kind, detail, action)


def unpickle_or_quarantine(
    path: str | Path,
    store: str,
    kind: str,
    target: str | Path | None = None,
) -> tuple[bool, object]:
    """``(True, payload)``, or ``(False, None)`` if missing or corrupt.

    *Any* :class:`Exception` while unpickling is corruption — damaged
    pickles raise ``UnicodeDecodeError``, ``ValueError``,
    ``MemoryError`` and more — and hands the file to :func:`quarantine`.
    The whole file is read first, so a corrupt length field fails as
    truncation instead of sizing a read buffer.
    """
    try:
        return True, pickle.loads(Path(path).read_bytes())
    except FileNotFoundError:
        return False, None
    except Exception as exc:
        quarantine(path, target, store, kind, f"{type(exc).__name__}: {exc}")
        return False, None


def sweep(
    directory: str | Path,
    patterns: Iterable[str],
    older_than: float | None = None,
    now: float | None = None,
) -> int:
    """Unlink files in ``directory`` matching ``patterns``; returns the count.

    With ``older_than`` (seconds), only files whose mtime is strictly
    older than ``now - older_than`` go.  Files vanishing mid-scan are
    skipped.

    Raises:
        RunCacheError: If ``older_than`` is negative.
    """
    if older_than is not None and older_than < 0:
        raise RunCacheError(f"max_age_seconds must be >= 0, got {older_than}")
    cutoff = None
    if older_than is not None:
        cutoff = (time.time() if now is None else now) - older_than
    removed = 0
    for pattern in patterns:
        for path in Path(directory).glob(pattern):
            try:
                if cutoff is None or path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
    return removed
