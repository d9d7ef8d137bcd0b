"""On-disk cache of completed :class:`~repro.models.base.EvolutionRun`s.

Runs are pure functions of ``(model configuration, cuisine spec, seed,
record_history)``, so they cache perfectly: the key is a SHA-256 over a
canonical JSON encoding of exactly those inputs (plus a format version),
and the value is the pickled run.  Because every backend derives the
same per-run integer seeds (:func:`repro.rng.spawn_seeds`), a cache
populated by a process-parallel sweep is byte-for-byte reusable by a
serial rerun — and vice versa — which is what lets experiments resume
and share runs across invocations.

Writes are atomic (:func:`~repro.runtime.integrity.atomic_write`, the
DESIGN.md §9 "Durable writes" policy), so a cache directory can be
shared by concurrent workers; unreadable entries are treated as misses
and cleaned up rather than raised.

The storage mechanics live in :class:`PickleStore` so sibling stores can
share one directory, distinguished by entry suffix: :class:`RunCache`
(``*.run.pkl``, this module) holds simulation outputs, and
:class:`~repro.runtime.curve_cache.CurveCache` (``*.curve.pkl``) holds
mined rank-frequency curves layered on top of them.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Mapping, Sequence

import numpy as np

from repro.errors import RunCacheError
from repro.runtime.integrity import atomic_write, sweep, unpickle_or_quarantine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.models.base import CulinaryEvolutionModel, EvolutionRun
    from repro.models.params import CuisineSpec

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheDiskStats",
    "CacheStats",
    "PickleStore",
    "RunCache",
    "fingerprint_many",
    "run_fingerprint",
]

#: Bump when the canonical encoding or the pickled payload layout
#: changes; old entries then miss instead of deserializing garbage.
#: v2: the payload gained the resolved engine + RNG-stream contract
#: version (``ModelParams`` also grew the ``engine`` field), so
#: reference and vectorized runs can never share an entry.
#: v3: the ``"batched"`` engine landed (its own key space under
#: ``BATCHED_STREAM_VERSION``), ``ENGINES`` grew a third member, and
#: CM-V gained a vectorized step — keys that previously resolved to
#: its reference engine now resolve to vectorized (DESIGN.md §7).
#: v4: the island engine landed (DESIGN.md §10) — the pickled payload
#: layout changed (``EvolutionTraceCounters`` gained
#: ``recipes_borrowed``), so pre-v4 entries would unpickle traces
#: missing the attribute; they miss and re-run instead.
CACHE_FORMAT_VERSION = 4


def _canonical(value: object) -> object:
    """Reduce ``value`` to a JSON-stable structure for fingerprinting.

    Dataclasses and plain objects carry their class name plus their
    attribute state (two models with equal params must not collide, and
    user-supplied strategies — a plain class implementing the
    ``FitnessStrategy`` protocol — must key on *what they are*, never
    on ``repr``, whose default form embeds the instance's memory
    address and is different every run).  Mappings are sorted, enums
    use their value, callables their qualified name.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__class__": type(value).__qualname__,
            **{
                field.name: _canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {
            "__mapping__": [
                [_canonical(k), _canonical(v)]
                for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
            ]
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(item) for item in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    if callable(value) and hasattr(value, "__qualname__"):
        return {
            "__callable__": f"{getattr(value, '__module__', '?')}."
                            f"{value.__qualname__}"
        }
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {
            "__class__": type(value).__qualname__,
            "state": _canonical(state),
        }
    return repr(value)


def fingerprint_many(
    model: "CulinaryEvolutionModel",
    spec: "CuisineSpec",
    seeds: "Sequence[int]",
    record_history: bool = False,
    engine: str | None = None,
) -> list[str]:
    """SHA-256 keys for many runs sharing one (model, spec).

    The model/spec half of the payload — by far the expensive part to
    canonicalize (a real cuisine spec holds hundreds of ingredient ids)
    — is encoded once and reused for every seed, so keying a 100-run
    ensemble costs one canonicalization, not a hundred.

    Args:
        model: The configured model.
        spec: Cuisine inputs.
        seeds: Per-run integer seeds.
        record_history: Whether the runs record trajectories.
        engine: Per-run engine override (as carried by
            :class:`~repro.runtime.runner.RunRequest`); ``None`` uses
            the model's own ``params.engine``.  The key always covers
            the *resolved* engine plus its RNG-stream contract version,
            so runs produced by different engines — or by an engine
            whose stream contract changed — never collide (DESIGN.md
            §5).
    """
    base = {
        "version": CACHE_FORMAT_VERSION,
        "model": {
            "class": type(model).__qualname__,
            "name": model.name,
            # Full instance state, not just params/fitness: models may
            # carry extra behavioral knobs as plain attributes (e.g.
            # NullModel.sample_from, CM-V's insert/delete rates), and
            # two configurations that run differently must never share
            # a cache key.
            "state": _canonical(vars(model)),
        },
        "engine": _canonical(model.engine_contract(engine)),
        "spec": _canonical(spec),
        "record_history": bool(record_history),
    }
    encoded_base = json.dumps(base, sort_keys=True, separators=(",", ":"))
    return [
        hashlib.sha256(
            f'{{"base":{encoded_base},"seed":{int(seed)}}}'.encode("utf-8")
        ).hexdigest()
        for seed in seeds
    ]


def run_fingerprint(
    model: "CulinaryEvolutionModel",
    spec: "CuisineSpec",
    seed: int,
    record_history: bool = False,
    engine: str | None = None,
) -> str:
    """SHA-256 key identifying one run's complete inputs."""
    return fingerprint_many(model, spec, [seed], record_history, engine)[0]


@dataclass(frozen=True)
class CacheDiskStats:
    """What one cache directory holds on disk right now.

    Attributes:
        entries: Number of cached runs.
        total_bytes: Their combined size.
        oldest_mtime: Epoch mtime of the oldest entry (``None`` when
            empty).
        newest_mtime: Epoch mtime of the newest entry.
    """

    entries: int
    total_bytes: int
    oldest_mtime: float | None = None
    newest_mtime: float | None = None


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`RunCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0


class PickleStore:
    """A directory of pickled payloads keyed by SHA-256 hex strings.

    The shared mechanics of every on-disk store in the runtime: atomic
    writes, corrupt-entry eviction, hit/miss accounting, disk stats,
    clearing and age-based pruning.  Subclasses pick the entry suffix
    (so several stores can share one directory without colliding) and
    document what their payloads are.

    Args:
        directory: Store root; created (with parents) if missing.

    Raises:
        RunCacheError: If the path exists but is not a directory, or
            the class declares no entry suffix (the base class is not
            directly usable — a generic ``*.pkl`` glob would match and
            clear *every* sibling store's entries).
    """

    #: Entry filename suffix — namespaces this store within a shared
    #: cache directory.  Subclasses must override with a unique value.
    suffix: ClassVar[str] = ""

    def __init__(self, directory: str | Path):
        if not self.suffix:
            raise RunCacheError(
                f"{type(self).__name__} declares no entry suffix; "
                "subclass PickleStore and set a unique `suffix`"
            )
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise RunCacheError(
                f"cache path {self.directory} exists and is not a directory"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """On-disk location of one cache entry."""
        return self.directory / f"{key}{self.suffix}"

    def get(self, key: str) -> object | None:
        """Load a cached payload, or ``None`` on miss.

        Corrupt or unreadable entries count as misses and are removed so
        they do not poison every future lookup.  The eviction is not
        silent: it is recorded as a structured
        :class:`~repro.runtime.integrity.CacheCorruption` (queryable via
        :func:`~repro.runtime.integrity.cache_corruptions`) with a
        one-time warning per store — a flaky shared disk must look
        different from a cold cache.
        """
        found, payload = unpickle_or_quarantine(
            self.path_for(key), type(self).__name__, "unreadable-entry"
        )
        if not found:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def put(self, key: str, payload: object) -> None:
        """Store a payload atomically (safe under concurrent writers).

        Raises:
            RunCacheError: If the payload cannot be pickled or written;
                no temp file is left behind.
        """
        try:
            with atomic_write(self.path_for(key)) as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise RunCacheError(
                f"failed to write cache entry: {type(exc).__name__}: {exc}"
            ) from exc
        self.stats.stores += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob(f"*{self.suffix}"))

    def disk_stats(self) -> CacheDiskStats:
        """Entry count, byte total and age bounds of the directory.

        Entries that vanish mid-scan (a concurrent ``clear``) are
        skipped rather than raised — stats are advisory.
        """
        entries = 0
        total_bytes = 0
        oldest: float | None = None
        newest: float | None = None
        for path in self.directory.glob(f"*{self.suffix}"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries += 1
            total_bytes += stat.st_size
            if oldest is None or stat.st_mtime < oldest:
                oldest = stat.st_mtime
            if newest is None or stat.st_mtime > newest:
                newest = stat.st_mtime
        return CacheDiskStats(
            entries=entries,
            total_bytes=total_bytes,
            oldest_mtime=oldest,
            newest_mtime=newest,
        )

    def _patterns(self) -> tuple[str, str]:
        """Globs for this store's entries and its crash-stranded temps."""
        return f"*{self.suffix}", f"*{self.suffix}.tmp.*"

    def orphan_tmp_paths(self) -> list[Path]:
        """Leftover temp files from writers killed mid-:meth:`put`.

        A crash in the window between the temp write and the atomic
        rename strands a ``<key><suffix>.tmp.<pid>`` file that no later
        operation would otherwise touch; :meth:`clear` removes them all
        and :meth:`prune_older_than` removes the stale ones.
        """
        return sorted(self.directory.glob(self._patterns()[1]))

    def clear(self) -> int:
        """Delete every entry and orphan temp; returns the number removed."""
        return sweep(self.directory, self._patterns())

    def prune_older_than(
        self, max_age_seconds: float, now: float | None = None
    ) -> int:
        """Delete entries whose mtime is older than ``max_age_seconds``.

        The age-based GC policy for long-lived cache directories: a
        periodic ``repro cache prune --max-age-days N`` keeps a shared
        cache bounded.  Age is measured from the entry's *write* mtime
        — :meth:`get` never refreshes it — so an entry older than the
        cutoff is removed even if it was read recently.  Orphaned temp
        files past the cutoff are removed too (age-gated, not
        unconditionally: a fresh temp may be a concurrent writer's
        in-flight :meth:`put`).

        Args:
            max_age_seconds: Age threshold; entries strictly older are
                removed.
            now: Reference epoch time (defaults to the current time;
                injectable for tests).

        Returns:
            The number of entries removed.

        Raises:
            RunCacheError: If the threshold is negative.
        """
        return sweep(self.directory, self._patterns(), max_age_seconds, now)


class RunCache(PickleStore):
    """A directory of pickled runs keyed by :func:`run_fingerprint`.

    Payloads are complete :class:`~repro.models.base.EvolutionRun`
    objects — a run is a pure function of ``(model, spec, seed,
    record_history, engine)``, so its key covers exactly those inputs.
    """

    suffix = ".run.pkl"

    def get(self, key: str) -> "EvolutionRun | None":
        """Load a cached run, or ``None`` on miss."""
        return super().get(key)  # type: ignore[return-value]

    def put(self, key: str, run: "EvolutionRun") -> None:
        """Store a run atomically (safe under concurrent writers)."""
        super().put(key, run)
