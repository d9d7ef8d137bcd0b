"""Snapshot encoding and snapshot keying tests (DESIGN.md §9).

Snapshots name the buffered RNG block by the generator state it was
drawn from instead of carrying it, and carry vectorized recipes as
incremental CSR planes.  These tests pin that encoding: buffer
round trips across refills and full-block bypasses, resumes whose
latest snapshot follows a refill, and the snapshot size.  They also
pin the keying: the dispatcher hands each work item the key it already
computed for the run cache, so workers never fingerprint, and a retried
attempt finds its snapshots under the run's cache key.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

import repro.runtime.cache as cache_module
import repro.runtime.checkpoint as checkpoint_module
import repro.runtime.runner as runner_module
from repro.errors import ExecutionError
from repro.lexicon.categories import Category
from repro.models.batched import BatchedStreams, run_batched
from repro.models.params import CuisineSpec
from repro.models.registry import create_model
from repro.models.state import ArrayEvolutionState
from repro.models.vectorized import BLOCK_SIZE, UniformBuffer
from repro.rng import rng_from_seed
from repro.runtime import (
    CheckpointPolicy,
    CheckpointStore,
    ResumeEvent,
    RunCheckpointer,
    RunRequest,
    RuntimeConfig,
    events,
    execute_runs,
    fingerprint_many,
)
from repro.runtime.checkpoint import arm_kill_at_step
from repro.runtime.runner import execute_request


class Killed(BaseException):
    """Stands in for ``os._exit`` (see test_checkpoint_resume.py)."""


@pytest.fixture
def in_process_kills(monkeypatch):
    monkeypatch.setattr(
        checkpoint_module, "_hard_exit",
        lambda code: (_ for _ in ()).throw(Killed()),
    )


@pytest.fixture(scope="module")
def refill_spec() -> CuisineSpec:
    """A cuisine long enough that every run refills its uniform block."""
    categories = (Category.VEGETABLE, Category.SPICE, Category.DAIRY)
    return CuisineSpec(
        region_code="TST",
        ingredient_ids=tuple(range(120)),
        categories=tuple(categories[i % 3] for i in range(120)),
        avg_recipe_size=6.0,
        n_recipes=3000,
        phi=0.04,
    )


def _signature(run) -> bytes:
    return pickle.dumps(
        (run.transactions, run.final_pool_size, run.initial_recipes,
         run.trace, run.history),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


# ---------------------------------------------------------------------------
# Buffer encoding
# ---------------------------------------------------------------------------


def _draws(buffer: UniformBuffer) -> list[float]:
    """A mixed draw sequence: singles, small takes, full-block bypasses."""
    out: list[float] = []
    for count in (1, 3, 8, 2, 1, 13, 5, 1, 8, 4):
        if count == 1:
            out.append(buffer.one())
        else:
            out.extend(buffer.take(count).tolist())
    return out


def test_uniform_buffer_round_trip_after_refill_before_bypass():
    block = 8
    rng = np.random.default_rng(11)
    buffer = UniformBuffer(rng, block=block)
    buffer.take(6)
    buffer.take(5)  # refills: the snapshot's block is not the first one
    first_origin = buffer.export_state()["origin"]

    payload = pickle.loads(pickle.dumps(buffer.export_state()))
    rng_state = rng.bit_generator.state
    assert "block" not in payload
    assert payload["origin"] == first_origin

    # The next draw is a full-block bypass (13 >= 8 at position 5).
    uninterrupted = _draws(buffer)

    resumed_rng = np.random.default_rng(999)  # state is overwritten
    resumed_rng.bit_generator.state = rng_state
    resumed = UniformBuffer.restore(resumed_rng, payload)
    assert resumed_rng.bit_generator.state == rng_state
    assert _draws(resumed) == uninterrupted
    assert resumed_rng.bit_generator.state == rng.bit_generator.state


def test_batched_streams_round_trip_matches_uninterrupted():
    block = 8
    rngs = [np.random.default_rng(seed) for seed in (3, 4)]
    streams = BatchedStreams(rngs, block=block)
    streams.take_each(2, 3)
    streams.one_each()
    streams.take_each(1, 5)  # both runs refill
    payload = pickle.loads(pickle.dumps(streams.export_state()))
    states = [rng.bit_generator.state for rng in rngs]
    assert "blocks" not in payload

    def walk(s: BatchedStreams) -> list:
        return [
            s.one_each().tolist(),
            s.take_each(2, 3).tolist(),
            s.take_run(0, 1, 9).tolist(),  # full-block bypass
            s.take_each(3, 2).tolist(),
            s.one_each().tolist(),
        ]

    uninterrupted = walk(streams)
    fresh = [np.random.default_rng(0), np.random.default_rng(0)]
    for rng, state in zip(fresh, states):
        rng.bit_generator.state = state
    assert walk(BatchedStreams.restore(fresh, payload)) == uninterrupted


def test_array_state_planes_round_trip_incrementally(tiny_spec):
    rng = rng_from_seed(5)
    fitness = rng.random(len(tiny_spec.ingredient_ids))
    state = ArrayEvolutionState(
        spec=tiny_spec, fitness=fitness, rng=rng,
        initial_pool_size=10, initial_recipes=4,
    )
    first = pickle.loads(pickle.dumps(state.export_state()))
    state.recipes.append([1, 2])
    state.recipes.append([3, 4, 5, 6, 7])
    second = pickle.loads(pickle.dumps(state.export_state()))

    assert first["recipe_lengths"].dtype == np.int32
    assert len(first["recipe_lengths"]) == 4
    assert second["recipe_lengths"].tolist()[-2:] == [2, 5]
    # Rows converted by the first capture are not rewritten.
    assert (
        second["recipe_flat"][: len(first["recipe_flat"])].tolist()
        == first["recipe_flat"].tolist()
    )
    restored = ArrayEvolutionState.restore(tiny_spec, second)
    assert restored.recipes == state.recipes
    assert restored.pool == state.pool
    assert restored.remaining == state.remaining
    assert restored.pool_by_code == state.pool_by_code
    # A restored state keeps capturing incrementally from where it was.
    restored.recipes.append([8])
    third = restored.export_state()
    assert third["recipe_lengths"].tolist() == (
        second["recipe_lengths"].tolist() + [1]
    )


def test_vectorized_snapshot_is_smaller_than_one_block(tiny_spec, tmp_path):
    store = CheckpointStore(tmp_path)
    model = create_model("CM-R")
    model.run(
        tiny_spec, seed=3, checkpointer=RunCheckpointer(store, "run", every=5)
    )
    _step, payload = store.latest("run")
    assert len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)) < (
        BLOCK_SIZE * 8
    )


def _record_origins(monkeypatch, pick) -> list:
    """Wrap ``CheckpointStore.put`` to record each snapshot's origin(s)."""
    seen: list = []
    put = CheckpointStore.put

    def recording_put(self, key, step, payload):
        seen.append(pick(payload))
        return put(self, key, step, payload)

    monkeypatch.setattr(CheckpointStore, "put", recording_put)
    return seen


@pytest.mark.parametrize("model_name", ["CM-R", "CM-M"])
def test_vectorized_resume_after_refill_is_bit_identical(
    refill_spec, tmp_path, monkeypatch, in_process_kills, model_name
):
    model = create_model(model_name)
    seed = 20190408
    uninterrupted = model.run(refill_spec, seed=seed, record_history=True)

    origins = _record_origins(
        monkeypatch, lambda p: p["buffer"]["origin"]["state"]["state"]
    )
    store = CheckpointStore(tmp_path)
    first = RunCheckpointer(store, "run", every=700, kill_at_step=2300)
    with pytest.raises(Killed):
        model.run(
            refill_spec, seed=seed, record_history=True, checkpointer=first
        )
    # The block in use at the newest snapshot came from a refill.
    assert len(set(origins)) >= 2
    second = RunCheckpointer(store, "run", every=700)
    resumed = model.run(
        refill_spec, seed=seed, record_history=True, checkpointer=second
    )
    assert second.resumed_from_step == 2100
    assert _signature(resumed) == _signature(uninterrupted)


def test_batched_resume_after_refill_is_bit_identical(
    refill_spec, tmp_path, monkeypatch, in_process_kills
):
    model = create_model("CM-R", engine="batched")
    rngs = lambda: [rng_from_seed(seed) for seed in (8, 9)]  # noqa: E731
    uninterrupted = run_batched(
        model, refill_spec, rngs(), record_history=True
    )

    origins = _record_origins(
        monkeypatch,
        lambda p: tuple(
            origin["state"]["state"] for origin in p["streams"]["origins"]
        ),
    )
    store = CheckpointStore(tmp_path)
    first = RunCheckpointer(store, "batch", every=40, kill_at_step=170)
    with pytest.raises(Killed):
        run_batched(
            model, refill_spec, rngs(), record_history=True,
            checkpointer=first,
        )
    assert len(set(origins)) >= 2
    second = RunCheckpointer(store, "batch", every=40)
    resumed = run_batched(
        model, refill_spec, rngs(), record_history=True, checkpointer=second
    )
    assert second.resumed_from_step == 160
    assert [_signature(r) for r in resumed] == [
        _signature(r) for r in uninterrupted
    ]


# ---------------------------------------------------------------------------
# Keying: the dispatcher supplies each item's snapshot key
# ---------------------------------------------------------------------------


def _record_puts(monkeypatch) -> list[tuple[str, str]]:
    """Wrap ``CheckpointStore.put`` to record ``(key, file name)``."""
    puts: list[tuple[str, str]] = []
    put = CheckpointStore.put

    def recording_put(self, key, step, payload):
        path = put(self, key, step, payload)
        puts.append((key, path.name))
        return path

    monkeypatch.setattr(CheckpointStore, "put", recording_put)
    return puts


def test_dispatcher_supplies_run_cache_key(tiny_spec, tmp_path, monkeypatch):
    calls = {"total": 0, "in_worker": 0}
    inside = [False]
    real_fingerprint_many = cache_module.fingerprint_many

    def counting_fingerprint_many(*args, **kwargs):
        calls["total"] += 1
        calls["in_worker"] += inside[0]
        return real_fingerprint_many(*args, **kwargs)

    real_execute_work = runner_module._execute_work

    def flagged_execute_work(item):
        inside[0] = True
        try:
            return real_execute_work(item)
        finally:
            inside[0] = False

    monkeypatch.setattr(
        cache_module, "fingerprint_many", counting_fingerprint_many
    )
    monkeypatch.setattr(
        runner_module, "fingerprint_many", counting_fingerprint_many
    )
    monkeypatch.setattr(runner_module, "_execute_work", flagged_execute_work)
    puts = _record_puts(monkeypatch)

    model = create_model("CM-R")
    seeds = [1, 2, 3]
    execute_runs(
        model, tiny_spec, seeds,
        runtime=RuntimeConfig(cache_dir=tmp_path, checkpoint_every=5),
    )
    assert calls == {"total": 1, "in_worker": 0}
    keys = real_fingerprint_many(model, tiny_spec, seeds)
    assert puts, "the runs must have taken snapshots"
    assert {key for key, _name in puts} == set(keys)
    assert all(name.startswith(key + ".s") for key, name in puts)


def test_retried_run_resumes_from_cache_keyed_snapshot(
    tiny_spec, tmp_path, in_process_kills
):
    model = create_model("CM-C")
    seed = 4242
    runtime = RuntimeConfig(cache_dir=tmp_path, checkpoint_every=3)
    plain = model.run(tiny_spec, seed=rng_from_seed(seed))

    arm_kill_at_step(8)
    with pytest.raises(Killed):
        execute_runs(model, tiny_spec, [seed], runtime=runtime)
    (key,) = fingerprint_many(model, tiny_spec, [seed])
    assert CheckpointStore(tmp_path).steps(key) == (6, 3)

    (resumed,) = execute_runs(model, tiny_spec, [seed], runtime=runtime)
    assert [event.key for event in events(ResumeEvent)] == [key]
    assert events(ResumeEvent)[0].step == 6
    assert _signature(resumed) == _signature(plain)
    assert CheckpointStore(tmp_path).steps(key) == ()


def test_batch_snapshot_key_is_digest_of_run_keys(
    tiny_spec, tmp_path, monkeypatch
):
    puts = _record_puts(monkeypatch)
    model = create_model("CM-R", engine="batched")
    seeds = [5, 6, 7]
    execute_runs(
        model, tiny_spec, seeds,
        runtime=RuntimeConfig(cache_dir=tmp_path, checkpoint_every=2),
    )
    keys = fingerprint_many(model, tiny_spec, seeds)
    digest = hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()
    assert puts
    assert {key for key, _name in puts} == {digest}


def test_hand_built_policy_without_key_is_rejected(tiny_spec, tmp_path):
    request = RunRequest(
        model=create_model("CM-R"), spec=tiny_spec, seed=1,
        checkpoint=CheckpointPolicy(directory=str(tmp_path), every=5),
    )
    with pytest.raises(ExecutionError, match="snapshot key"):
        execute_request(request)
