"""Crash-consistent mid-run checkpointing (DESIGN.md §9).

The distributed backend (§8) retries killed or hung workers, but a
retry replays its run from step 0 — at paper scale one late crash
throws away minutes of work.  This module bounds that cost: engines
periodically snapshot their complete mid-run state into a
:class:`CheckpointStore` beside the shared run cache, and a re-executed
attempt resumes from the latest valid snapshot instead of from scratch.
Because a snapshot captures *everything* the remaining steps read — the
engine state planes, the buffered RNG stream (the generator state its
block was drawn from, plus the cursor), the generator state itself, the
loop counters and the recorded history — a resumed
run is **bit-identical** to an uninterrupted one; the §5 determinism
contract survives mid-run death.

Crash consistency is the same discipline the spool uses, applied twice:

* snapshots are written to a temp name and atomically renamed, so a
  worker killed mid-write leaves an orphan temp file, never a readable
  half-snapshot;
* each snapshot embeds a SHA-256 over its pickled payload plus
  :data:`CHECKPOINT_FORMAT_VERSION`; a snapshot that fails either check
  on read is **quarantined** (renamed aside, recorded via
  :func:`repro.runtime.integrity.record_corruption`) and the store
  falls back to the next older snapshot — worst case the run restarts
  from step 0, exactly as if checkpointing were off.

The fault side of the contract lives here too: the ``kill_at_step``
fault kind (:mod:`repro.runtime.faults`) *arms* a mid-run kill in the
worker process via :func:`arm_kill_at_step`; the run's
:class:`RunCheckpointer` trips it after completing that step, dying
through :func:`_hard_exit` with the standard fault exit code.  Tests
monkeypatch :func:`_hard_exit` to raise instead, which is what lets the
resume property tests simulate hundreds of crashes in-process.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.errors import RunCacheError
from repro.runtime.events import record
from repro.runtime.faults import FAULT_KILL_EXIT_CODE
from repro.runtime.integrity import (
    atomic_write, quarantine, sweep, unpickle_or_quarantine,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointPolicy",
    "CheckpointStore",
    "ResumeEvent",
    "RunCheckpointer",
    "arm_kill_at_step",
    "consume_armed_kill",
    "disarm_kill",
]

#: Bump when the snapshot wrapper layout or any engine's snapshot
#: payload changes; old snapshots are then discarded as
#: ``format-version`` mismatches instead of restoring garbage state.
#: Version 2: buffers store their block's origin generator state
#: instead of the block, and vectorized recipes travel as CSR planes.
CHECKPOINT_FORMAT_VERSION = 2

#: Entry suffix namespacing snapshots within a shared cache directory
#: (beside ``*.run.pkl`` / ``*.curve.pkl`` — the store idiom of §5).
CHECKPOINT_SUFFIX = ".ckpt.pkl"

#: Suffix quarantined (corrupt) snapshots are renamed to.  They are
#: kept, not unlinked: a torn snapshot is evidence about the disk.
QUARANTINE_SUFFIX = ".ckpt.bad"

#: Snapshots retained per run key.  Two, not one: if a worker dies
#: while *writing* snapshot k (leaving only a temp file) the previous
#: snapshot must still exist, and if snapshot k lands but is later
#: found corrupt, k-1 is the fall-back.
KEEP_SNAPSHOTS = 2

#: Everything a :class:`CheckpointStore` owns in a shared directory:
#: snapshots, quarantined snapshots and crash-stranded temps (last).
_OWNED_PATTERNS = (
    f"*{CHECKPOINT_SUFFIX}",
    f"*{QUARANTINE_SUFFIX}",
    f"*{CHECKPOINT_SUFFIX}.tmp.*",
)


def _bad_path(path: Path) -> Path:
    """Where a corrupt snapshot is quarantined: ``*.ckpt.bad``."""
    return path.with_name(path.name[: -len(CHECKPOINT_SUFFIX)] + QUARANTINE_SUFFIX)


@dataclass(frozen=True)
class CheckpointPolicy:
    """Where and how often a dispatched run should checkpoint.

    Attached to :class:`~repro.runtime.runner.RunRequest` /
    :class:`~repro.runtime.runner.BatchRequest` work items by the
    dispatcher when ``checkpoint_every`` is configured; deliberately
    **excluded from cache fingerprints** — checkpointing is an execution
    concern and must never change what a run *is*.

    Attributes:
        directory: Snapshot directory, as a plain string so the policy
            pickles compactly across the spool (in practice the shared
            run-cache directory).
        every: Snapshot period in engine steps (> 0).
        key: The item's snapshot key, filled in per work item by the
            dispatcher from the cache keys it already holds (the run's
            cache key, or the digest of a batch's keys), so workers
            never re-canonicalize the spec to name their snapshots.
            Internal: not a user option.
    """

    directory: str
    every: int
    key: str | None = None

    def __post_init__(self) -> None:
        if self.every < 1:
            raise RunCacheError(
                f"checkpoint_every must be >= 1, got {self.every}"
            )


@dataclass(frozen=True)
class ResumeEvent:
    """One observed resume: a run continued from a snapshot.

    Recorded in the runtime event log (:mod:`repro.runtime.events`);
    the distributed worker reads ``events(ResumeEvent)`` to stamp
    ``resumed_from_step`` onto result payloads.

    Attributes:
        key: The run's checkpoint key.
        step: Engine step the snapshot was taken at.
    """

    key: str
    step: int


#: Step at which the next checkpointer built in this process must kill
#: it (the ``kill_at_step`` fault seam); ``None`` = disarmed.
_ARMED_KILL_STEP: int | None = None


def arm_kill_at_step(step: int) -> None:
    """Arm a mid-run kill for the next checkpointed run in this process.

    Called by :func:`repro.runtime.faults.inject_fault` for the
    ``kill_at_step`` fault kind — the injection seam runs before the
    task payload even deserializes, so the fault cannot reach into the
    run directly; it arms this latch and the run's checkpointer trips
    it after completing step ``step``.

    Raises:
        RunCacheError: If ``step < 1`` (step 0 is "before the run").
    """
    global _ARMED_KILL_STEP
    if step < 1:
        raise RunCacheError(f"kill step must be >= 1, got {step}")
    _ARMED_KILL_STEP = step


def disarm_kill() -> None:
    """Clear any armed kill (worker task boundary; tests)."""
    global _ARMED_KILL_STEP
    _ARMED_KILL_STEP = None


def consume_armed_kill() -> int | None:
    """The armed kill step, disarming it; ``None`` when disarmed."""
    global _ARMED_KILL_STEP
    step = _ARMED_KILL_STEP
    _ARMED_KILL_STEP = None
    return step


def _hard_exit(code: int) -> None:  # pragma: no cover - kills the process
    """Die like a crash (no unwind, no flush) — the kill primitive.

    Isolated so the resume property tests can monkeypatch it to raise a
    sentinel exception instead: the *store* still sees exactly what a
    real ``os._exit`` leaves on disk (snapshots written, nothing else),
    while the test process survives to perform the resume.
    """
    os._exit(code)


class CheckpointStore:
    """A directory of checksummed, versioned engine-state snapshots.

    Snapshots are keyed by the run's cache fingerprint (so a retried
    attempt of the same work finds them) plus the engine step they were
    taken at: ``<key>.s<step>.ckpt.pkl``.  The on-disk wrapper is a
    pickled dict ``{version, step, sha256, payload}`` where ``payload``
    is the engine's pickled snapshot and ``sha256`` its digest — the
    checksum covers exactly the bytes that will be unpickled into
    engine state.

    Write path: temp file + atomic rename, then prune to the newest
    :data:`KEEP_SNAPSHOTS` per key.  Read path
    (:meth:`latest`): newest step first; any snapshot that is torn,
    unreadable, checksum-mismatched or version-mismatched is quarantined
    (renamed to ``*.ckpt.bad``) with a recorded
    :class:`~repro.runtime.integrity.CacheCorruption`, and the scan
    falls back to the next older snapshot.

    Args:
        directory: Snapshot root; created (with parents) if missing.

    Raises:
        RunCacheError: If the path exists but is not a directory.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise RunCacheError(
                f"checkpoint path {self.directory} exists and is not a "
                "directory"
            )
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str, step: int) -> Path:
        """On-disk location of one snapshot."""
        return self.directory / f"{key}.s{step:08d}{CHECKPOINT_SUFFIX}"

    def _snapshots(self, key: str) -> list[tuple[int, Path]]:
        """(step, path) pairs for one key, newest step first."""
        found: list[tuple[int, Path]] = []
        for path in self.directory.glob(f"{key}.s*{CHECKPOINT_SUFFIX}"):
            stem = path.name[len(key) + 2 : -len(CHECKPOINT_SUFFIX)]
            try:
                found.append((int(stem), path))
            except ValueError:
                continue
        found.sort(reverse=True)
        return found

    def steps(self, key: str) -> tuple[int, ...]:
        """Steps with a snapshot on disk for this key, newest first."""
        return tuple(step for step, _path in self._snapshots(key))

    def put(self, key: str, step: int, payload: object) -> Path:
        """Write one snapshot atomically and prune old ones for the key.

        Raises:
            RunCacheError: On a write failure, or ``step < 1`` — the
                caller (the engine's checkpoint hook) treats a failed
                snapshot as fatal for *checkpointing*, not for the run.
        """
        if step < 1:
            raise RunCacheError(f"snapshot step must be >= 1, got {step}")
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            wrapper = {
                "version": CHECKPOINT_FORMAT_VERSION,
                "step": int(step),
                "sha256": hashlib.sha256(blob).hexdigest(),
                "payload": blob,
            }
            path = self.path_for(key, step)
            with atomic_write(path) as handle:
                pickle.dump(wrapper, handle, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise RunCacheError(
                "failed to write checkpoint snapshot: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        for old_step, old_path in self._snapshots(key)[KEEP_SNAPSHOTS:]:
            try:
                old_path.unlink()
            except OSError:
                pass
        return path

    def _quarantine(self, path: Path, kind: str, detail: str) -> None:
        quarantine(path, _bad_path(path), type(self).__name__, kind, detail)

    def latest(self, key: str) -> tuple[int, object] | None:
        """The newest *valid* snapshot as ``(step, payload)``, or ``None``.

        Scans newest first; snapshots failing any integrity check are
        quarantined and the scan falls through to older ones — a run
        with every snapshot corrupt simply restarts from step 0.
        """
        for step, path in self._snapshots(key):
            found, wrapper = unpickle_or_quarantine(
                path, type(self).__name__, "torn-snapshot", _bad_path(path)
            )
            if not found:
                continue  # pruned under us, or torn and quarantined
            if (
                not isinstance(wrapper, dict)
                or wrapper.get("version") != CHECKPOINT_FORMAT_VERSION
            ):
                self._quarantine(
                    path, "format-version",
                    f"version {wrapper.get('version') if isinstance(wrapper, dict) else '?'}"
                    f" != {CHECKPOINT_FORMAT_VERSION}",
                )
                continue
            blob = wrapper.get("payload")
            if (
                not isinstance(blob, bytes)
                or hashlib.sha256(blob).hexdigest() != wrapper.get("sha256")
            ):
                self._quarantine(
                    path, "checksum-mismatch",
                    "payload digest does not match recorded sha256",
                )
                continue
            try:
                payload = pickle.loads(blob)
            except Exception as exc:  # checksum passed but payload rots
                self._quarantine(
                    path, "torn-snapshot",
                    f"{type(exc).__name__}: {exc}",
                )
                continue
            return step, payload
        return None

    def discard(self, key: str) -> int:
        """Remove every snapshot for a finished run; returns the count."""
        removed = 0
        for _step, path in self._snapshots(key):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(
            1 for _ in self.directory.glob(f"*{CHECKPOINT_SUFFIX}")
        )

    def orphan_tmp_paths(self) -> list[Path]:
        """Leftover ``*.ckpt.pkl.tmp.<pid>`` files from killed writers."""
        return sorted(self.directory.glob(_OWNED_PATTERNS[-1]))

    def clear(self) -> int:
        """Remove all snapshots, quarantined snapshots and orphan temps."""
        return sweep(self.directory, _OWNED_PATTERNS)

    def prune_older_than(
        self, max_age_seconds: float, now: float | None = None
    ) -> int:
        """Age-based GC over snapshots, quarantine files and orphan temps.

        Same policy as :meth:`PickleStore.prune_older_than
        <repro.runtime.cache.PickleStore.prune_older_than>`: strictly
        older than the cutoff is removed; the caller runs it
        periodically on long-lived shared directories.

        Raises:
            RunCacheError: If the threshold is negative.
        """
        return sweep(self.directory, _OWNED_PATTERNS, max_age_seconds, now)


class RunCheckpointer:
    """One run's checkpoint hook: load-on-start, snapshot-every-K, kill.

    Built by the runner for each dispatched work item that carries a
    :class:`CheckpointPolicy` (or when a ``kill_at_step`` fault is
    armed — a kill needs the step counter even with snapshots off) and
    threaded into the engine, which calls :meth:`load` once before its
    loop and :meth:`after_step` at the end of every step.

    Args:
        store: Snapshot store; ``None`` disables persistence (the
            kill-only case).
        key: The run's checkpoint key (its cache fingerprint, or the
            batch digest for a :class:`~repro.runtime.runner.
            BatchRequest`).
        every: Snapshot period in steps; ``0`` disables snapshots.
        kill_at_step: Die (via :func:`_hard_exit`) after completing
            this step — the armed ``kill_at_step`` fault.
    """

    def __init__(
        self,
        store: CheckpointStore | None,
        key: str,
        every: int = 0,
        kill_at_step: int | None = None,
    ):
        self._store = store
        self._key = key
        self._every = max(int(every), 0)
        self._kill_at_step = kill_at_step
        #: Step of the snapshot this run resumed from; ``None`` for a
        #: fresh start.  Read back into ``TaskAttempt.resumed_from_step``.
        self.resumed_from_step: int | None = None
        self._loaded_step = 0

    @property
    def key(self) -> str:
        return self._key

    def load(self) -> object | None:
        """The latest valid snapshot payload, or ``None`` (fresh start).

        Recording the resume (:class:`ResumeEvent`) here keeps the
        "did we actually resume" signal at the only place that knows.
        """
        if self._store is None:
            return None
        found = self._store.latest(self._key)
        if found is None:
            return None
        step, payload = found
        self._loaded_step = step
        self.resumed_from_step = step
        record(ResumeEvent(key=self._key, step=step))
        return payload

    def after_step(self, step: int, capture: Callable[[], object]) -> None:
        """Engine hook: maybe snapshot, then maybe trip the armed kill.

        ``capture`` is called only when a snapshot is actually due, so
        the per-step cost of an off-period step is two comparisons.
        The snapshot-then-kill order is the point of ``kill_at_step``:
        when the kill step is snapshot-aligned, the snapshot it resumes
        from is the one written moments before death.

        Args:
            step: 1-based count of completed engine steps.
            capture: Zero-argument callable returning the engine's
                picklable snapshot payload; must not consume RNG state
                (bit-identity would break).  The payload may share the
                engine's live containers: it is pickled before this
                method returns.
        """
        if (
            self._store is not None
            and self._every
            and step > self._loaded_step
            and step % self._every == 0
        ):
            self._store.put(self._key, step, capture())
        if self._kill_at_step is not None and step == self._kill_at_step:
            _hard_exit(FAULT_KILL_EXIT_CODE)

    def finished(self) -> None:
        """Discard this run's snapshots (it completed; nothing to resume)."""
        if self._store is not None:
            self._store.discard(self._key)
