"""One property suite for every durable on-disk store (DESIGN.md §9).

Every store publishes through :func:`repro.runtime.integrity.atomic_write`
and reads pickles through
:func:`~repro.runtime.integrity.unpickle_or_quarantine`, so the crash,
corruption and failed-write contracts are stated once here and checked
against each store — the run cache, the curve cache, the checkpoint
store and the columnar corpus (plus the spool for the crash window):

1. **Corruption.**  Arbitrary damage to a stored file never raises
   anything but the store's documented error.  A detected corruption is
   recorded in :func:`cache_corruptions` and the file leaves the
   store's namespace (evicted or quarantined); an undetected one leaves
   the file in place and records nothing.  Checksummed stores
   (checkpoints, columnar) only ever return the original value; the
   pickle caches carry no checksum, so a mutation that still unpickles
   is served as-is.
2. **Crash window.**  A writer killed between the temp write and the
   rename leaves the previous entry readable, plus orphan temps that the
   store's own cleanup removes — exactly one for the single-file stores.
3. **Failed write.**  A payload that cannot be written raises the
   documented error and leaves no temp behind.
"""

from __future__ import annotations

import functools
import os
import signal
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.corpus.dataset import RecipeDataset
from repro.corpus.recipe import Recipe
from repro.errors import ExecutionError, RunCacheError, StorageError
from repro.lexicon.categories import Category
from repro.models.params import CuisineSpec
from repro.models.registry import create_model
from repro.runtime import (
    CacheCorruptionWarning,
    CheckpointStore,
    RunCache,
    Spool,
    cache_corruptions,
    compact_spool,
    execute_runs,
)
from repro.runtime.curve_cache import CurveCache
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.integrity import atomic_write, sweep
from repro.storage.columnar import ColumnarCorpus, ColumnarWriter, pack_dataset

#: Returned by an adapter's ``get`` for a miss (a cached ``None`` payload
#: is a hit, so ``None`` cannot mean "miss").
MISS = object()

_KEY = "d" * 64


@functools.lru_cache(maxsize=None)
def _real_run():
    """A real pickled-class payload: one tiny CM-R run."""
    categories = (Category.VEGETABLE, Category.SPICE, Category.DAIRY)
    spec = CuisineSpec(
        region_code="TST",
        ingredient_ids=tuple(range(30)),
        categories=tuple(categories[i % 3] for i in range(30)),
        avg_recipe_size=4.0,
        n_recipes=40,
        phi=0.6,
    )
    return execute_runs(create_model("CM-R"), spec, [7])[0]


def _dataset(tag: int) -> RecipeDataset:
    return RecipeDataset(
        [
            Recipe(0, "ITA", (0, 1, 2, 7)),
            Recipe(1, "ITA", (0, 2, 7 + tag)),
            Recipe(2, "KOR", (1, 5, 6)),
            Recipe(3, "KOR", (0, 5, 6, 9)),
        ]
    )


@dataclass(frozen=True)
class Durable:
    """One store, seen through the three operations the properties use.

    Attributes:
        name: The store's class name, as recorded in corruptions.
        error: The store's documented error (reads and writes).
        checksummed: Whether an undetected mutation must read back as
            the original value.
        old / new: Two distinct payloads.
        put: Write a payload into a directory; returns the entry file.
        get: Read it back (``MISS`` on a miss).
        same: Payload equality (runs compare transactions and trace).
        cleanup: Remove aged debris as the store's operators do
            (``prune_older_than`` / ``compact_spool``); returns the
            number of files removed.
    """

    name: str
    error: type[Exception]
    checksummed: bool
    old: Callable[[], object]
    new: Callable[[], object]
    put: Callable[[Path, object], Path]
    get: Callable[[Path], object]
    same: Callable[[object, object], bool]
    cleanup: Callable[[Path, float], int] | None = None


def _pickle_store(cls, old, new, same) -> Durable:
    def put(directory: Path, value: object) -> Path:
        cls(directory).put(_KEY, value)
        return cls(directory).path_for(_KEY)

    def get(directory: Path) -> object:
        store = cls(directory)
        value = store.get(_KEY)
        return MISS if store.stats.misses else value

    return Durable(
        name=cls.__name__,
        error=RunCacheError,
        checksummed=False,
        old=old,
        new=new,
        put=put,
        get=get,
        same=same,
        cleanup=lambda d, age: cls(d).prune_older_than(age),
    )


def _checkpoint_put(directory: Path, value: object) -> Path:
    store = CheckpointStore(directory)
    step = (store.steps(_KEY) or (0,))[0] + 1
    return store.put(_KEY, step, value)


def _checkpoint_get(directory: Path) -> object:
    found = CheckpointStore(directory).latest(_KEY)
    return MISS if found is None else found[1]


def _columnar_put(directory: Path, value: object) -> Path:
    path = directory / "world.col"
    pack_dataset(value, path).close()
    return path


def _columnar_get(directory: Path) -> object:
    with ColumnarCorpus.open(directory / "world.col", verify=True) as corpus:
        return corpus.to_dataset()


def _spool_put(directory: Path, value: object) -> Path:
    spool = Spool(root=directory)
    spool.ensure()
    return value.save(spool.fault_path)


RUN_CACHE = _pickle_store(
    RunCache,
    _real_run,
    lambda: {"replacement": list(range(50))},
    lambda a, b: (a.transactions, a.trace) == (b.transactions, b.trace),
)
CURVE_CACHE = _pickle_store(
    CurveCache,
    lambda: [1.0, 0.5, 0.25],
    lambda: [2.0, 1.0],
    lambda a, b: a == b,
)
CHECKPOINT = Durable(
    name="CheckpointStore",
    error=RunCacheError,
    checksummed=True,
    old=lambda: {"step": 3, "planes": [1.5, 2.5], "rng": b"\x00\x01"},
    new=lambda: {"step": 6, "planes": [9.5], "rng": b"\x02"},
    put=_checkpoint_put,
    get=_checkpoint_get,
    same=lambda a, b: a == b,
    cleanup=lambda d, age: CheckpointStore(d).prune_older_than(age),
)
COLUMNAR = Durable(
    name="ColumnarCorpus",
    error=StorageError,
    checksummed=True,
    old=lambda: _dataset(0),
    new=lambda: _dataset(1),
    put=_columnar_put,
    get=_columnar_get,
    same=lambda a, b: list(a) == list(b),
)
SPOOL = Durable(
    name="Spool",
    error=ExecutionError,
    checksummed=False,
    old=lambda: FaultPlan(faults=(FaultSpec(action="delay", seconds=0.5),)),
    new=lambda: FaultPlan(faults=(FaultSpec(action="kill"),)),
    put=_spool_put,
    get=lambda d: FaultPlan.load(Spool(root=d).fault_path),
    same=lambda a, b: a == b,
    cleanup=lambda d, age: compact_spool(
        d, stale_after=age, now=time.time()
    ).orphan_tmp,
)

STORES = [RUN_CACHE, CURVE_CACHE, CHECKPOINT, COLUMNAR]
PICKLE_STORES = [RUN_CACHE, CURVE_CACHE, CHECKPOINT]


def _ids(stores: list[Durable]) -> list[str]:
    return [store.name for store in stores]


def _temps(directory: Path) -> list[Path]:
    return sorted(path for path in directory.rglob("*.tmp.*"))


# ---------------------------------------------------------------------------
# 1. Corruption
# ---------------------------------------------------------------------------

#: (kind, position, data) — positions wrap modulo the file length.
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20), st.just(0)),
    st.tuples(st.just("overwrite"), st.just(0), st.binary(max_size=64)),
    st.tuples(
        st.just("splice"), st.integers(0, 1 << 20),
        st.binary(min_size=1, max_size=16),
    ),
)

#: Whole-file overwrites that unpickle into each exception type the old
#: hand-picked ``except`` tuples let escape.
ESCAPING_PICKLES = {
    "UnicodeDecodeError": b"\x80\x04\x8c\x01\xff\x94.",
    "ValueError": b"I12x\n.",
    "TypeError": b"(]I1\nd.",
    "OverflowError": b"\x80\x04\x95" + (2**63).to_bytes(8, "little") + b"N.",
    "MemoryError": b"\x80\x04\x8e" + (2**62).to_bytes(8, "little") + b"x.",
}


def _mutate(raw: bytes, kind: str, position: int, data) -> bytes:
    at = position % len(raw)
    if kind == "flip":
        return raw[:at] + bytes([raw[at] ^ data]) + raw[at + 1:]
    if kind == "truncate":
        return raw[:at]
    if kind == "overwrite":
        return data
    return raw[:at] + data + raw[at + len(data):]


def _check_corruption(store: Durable, mutation: tuple) -> bool:
    """Corrupt a stored file, read it back; True if it was detected."""
    with tempfile.TemporaryDirectory() as scratch, warnings.catch_warnings():
        warnings.simplefilter("ignore", CacheCorruptionWarning)
        directory = Path(scratch)
        original = store.old()
        path = store.put(directory, original)
        raw = path.read_bytes()
        mutated = _mutate(raw, *mutation)
        if mutated == raw:
            return False
        path.write_bytes(mutated)
        before = len(cache_corruptions())

        try:
            value = store.get(directory)
        except store.error:
            value = MISS
        events = cache_corruptions()[before:]

        if value is MISS:
            assert [event.store for event in events] == [store.name]
            assert not path.exists()
            if events[0].action == "quarantined":
                assert len(list(directory.glob("*.bad"))) == 1
        else:
            assert events == ()
            assert path.read_bytes() == mutated
            if store.checksummed:
                assert store.same(value, original)
        assert _temps(directory) == []
        return value is MISS


@pytest.mark.parametrize("store", STORES, ids=_ids(STORES))
@settings(max_examples=60, deadline=None)
@given(mutation=MUTATIONS)
@example(mutation=("truncate", 0, 0))
@example(mutation=("truncate", 1 << 19, 0))
@example(mutation=("overwrite", 0, b"not a pickle"))
@example(mutation=("splice", 0, b"XXXX"))
@example(mutation=("flip", (1 << 20) - 10, 0xFF))
def test_corruption_is_a_documented_error_and_recorded(store, mutation):
    _check_corruption(store, mutation)


@pytest.mark.parametrize("store", PICKLE_STORES, ids=_ids(PICKLE_STORES))
@pytest.mark.parametrize("escaping", sorted(ESCAPING_PICKLES))
def test_any_unpickling_error_is_a_recorded_miss(store, escaping):
    assert _check_corruption(
        store, ("overwrite", 0, ESCAPING_PICKLES[escaping])
    )


# ---------------------------------------------------------------------------
# 2. Crash window
# ---------------------------------------------------------------------------


def _crash_inside_rename(store: Durable, directory: Path) -> int:
    """Fork a writer of ``store.new()`` that dies inside ``os.replace``.

    Returns the dead writer's pid (its temps carry it).
    """
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        try:
            signal.alarm(60)  # a wedged child fails the test, never hangs it
            os.replace = lambda *_args, **_kwargs: os._exit(0)
            store.put(directory, store.new())
        finally:
            os._exit(1)
    _pid, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, (
        "the writer must die at the rename, not before or after it"
    )
    return pid


CRASH_STORES = [RUN_CACHE, CURVE_CACHE, CHECKPOINT, SPOOL]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("store", CRASH_STORES, ids=_ids(CRASH_STORES))
def test_crash_leaves_previous_entry_and_one_swept_orphan(store, tmp_path):
    original = store.old()
    path = store.put(tmp_path, original)
    pid = _crash_inside_rename(store, tmp_path)

    assert store.same(store.get(tmp_path), original)
    orphans = _temps(tmp_path)
    assert len(orphans) == 1 and orphans[0].name.endswith(f".tmp.{pid}")
    # A fresh orphan may be a live writer's temp: aged cleanup spares it.
    assert store.cleanup(tmp_path, 3600.0) == 0
    assert orphans[0].exists()
    stale = time.time() - 7200.0
    os.utime(orphans[0], (stale, stale))
    assert store.cleanup(tmp_path, 3600.0) == 1
    assert _temps(tmp_path) == []
    assert path.exists() and store.same(store.get(tmp_path), original)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize(
    "store, cls",
    [(RUN_CACHE, RunCache), (CURVE_CACHE, CurveCache),
     (CHECKPOINT, CheckpointStore)],
    ids=_ids(PICKLE_STORES),
)
def test_clear_removes_entry_and_orphan(store, cls, tmp_path):
    store.put(tmp_path, store.old())
    _crash_inside_rename(store, tmp_path)
    orphans = _temps(tmp_path)
    assert cls(tmp_path).orphan_tmp_paths() == orphans
    assert len(orphans) == 1
    assert cls(tmp_path).clear() == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_columnar_crash_keeps_previous_corpus(tmp_path):
    """The packer stages planes as temps too, so it strands several.

    Every one is named ``*.tmp.<dead pid>`` — the policy's temp form — so
    a sweep of that pattern removes exactly the debris and leaves the
    previous corpus intact.
    """
    original = COLUMNAR.old()
    path = COLUMNAR.put(tmp_path, original)
    pid = _crash_inside_rename(COLUMNAR, tmp_path)

    assert COLUMNAR.same(COLUMNAR.get(tmp_path), original)
    orphans = _temps(tmp_path)
    assert tmp_path / f"{path.name}.tmp.{pid}" in orphans
    assert all(orphan.name.endswith(f".tmp.{pid}") for orphan in orphans)
    assert sweep(tmp_path, ["*.tmp.*"]) == len(orphans)
    assert sorted(tmp_path.iterdir()) == [path]
    assert COLUMNAR.same(COLUMNAR.get(tmp_path), original)


# ---------------------------------------------------------------------------
# 3. Failed write
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("store", PICKLE_STORES, ids=_ids(PICKLE_STORES))
def test_unpicklable_payload_raises_documented_error_and_leaves_no_temp(
    store, tmp_path
):
    original = store.old()
    path = store.put(tmp_path, original)
    with pytest.raises(RunCacheError):
        store.put(tmp_path, threading.Lock())
    assert _temps(tmp_path) == []
    assert sorted(tmp_path.iterdir()) == [path]
    assert store.same(store.get(tmp_path), original)


def test_failed_columnar_pack_leaves_no_temp(tmp_path):
    path = COLUMNAR.put(tmp_path, COLUMNAR.old())
    with pytest.raises(StorageError):
        with ColumnarWriter(path) as writer:
            writer.add_recipes(COLUMNAR.new())
            writer.add_chunk("KOR", [2], [5, 1], [99])  # unsorted ids
    assert _temps(tmp_path) == []
    assert COLUMNAR.same(COLUMNAR.get(tmp_path), COLUMNAR.old())


def test_failed_columnar_publish_leaves_no_temp(tmp_path, monkeypatch):
    path = COLUMNAR.put(tmp_path, COLUMNAR.old())

    def failing_fsync(_fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        COLUMNAR.put(tmp_path, COLUMNAR.new())
    monkeypatch.undo()
    assert _temps(tmp_path) == []
    assert COLUMNAR.same(COLUMNAR.get(tmp_path), COLUMNAR.old())


def test_atomic_write_keeps_old_file_on_any_exception(tmp_path):
    target = tmp_path / "entry"
    target.write_bytes(b"old")
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(target) as handle:
            handle.write(b"half of the new")
            raise KeyboardInterrupt
    assert target.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [target]
    with atomic_write(target) as handle:
        handle.write(b"new")
    assert target.read_bytes() == b"new"
    assert list(tmp_path.iterdir()) == [target]


def test_sweep_rejects_negative_age(tmp_path):
    with pytest.raises(RunCacheError, match=">= 0"):
        sweep(tmp_path, ["*"], older_than=-1.0)
