"""Fault-injection tests for the distributed backend (DESIGN.md §8).

The lease protocol earns its keep only under failure, so these tests
*make* workers fail — killed mid-claim, hung past the task timeout,
merely delayed — and assert the two things the contract promises: the
sweep still completes with results **bit-identical** to serial
execution, and every failure shows up in the structured
:class:`~repro.runtime.distributed.TaskAttempt` record with the right
outcome.  Plan plumbing (JSON round-trip through the spool) is covered
here too, because a fault plan that silently fails to load would turn
every test above into a vacuous happy-path run.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError, TaskRetryExhaustedError
from repro.models.registry import create_model
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import (
    DistributedConfig,
    FaultPlan,
    FaultSpec,
    RuntimeConfig,
    execute_runs,
    get_executor,
    task_attempts,
)
from repro.runtime.faults import FAULT_KINDS


def _double(x: int) -> int:
    return x * 2


def _config(plan: FaultPlan | None = None, **overrides) -> RuntimeConfig:
    base = dict(
        local_workers=2,
        poll_interval=0.01,
        heartbeat_interval=0.05,
        lease_timeout=0.4,
        task_timeout=30.0,
        backoff_base=0.02,
        backoff_cap=0.1,
        attach_deadline=5.0,
        fault_plan=plan,
    )
    base.update(overrides)
    return RuntimeConfig(
        backend="distributed", jobs=2, distributed=DistributedConfig(**base)
    )


def _run_signature(runs):
    return [
        (run.transactions, run.final_pool_size, run.initial_recipes,
         run.trace)
        for run in runs
    ]


# ---------------------------------------------------------------------------
# Plan plumbing
# ---------------------------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ExecutionError, match="unknown fault action"):
        FaultSpec(action="explode")
    with pytest.raises(ExecutionError, match="1-based"):
        FaultSpec(action="kill", nth_task=0)
    with pytest.raises(ExecutionError, match=">= 0"):
        FaultSpec(action="delay", seconds=-1.0)


def test_fault_spec_matching():
    spec = FaultSpec(action="kill", nth_task=2, worker="local-1")
    assert spec.matches("local-1", 2)
    assert not spec.matches("local-1", 1)
    assert not spec.matches("local-0", 2)
    # worker=None targets every worker.
    broadcast = FaultSpec(action="kill", nth_task=1)
    assert broadcast.matches("anyone", 1)


def test_fault_plan_first_match_wins_and_round_trips(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(action="delay", nth_task=1, seconds=0.01),
        FaultSpec(action="kill", nth_task=1),
        FaultSpec(action="hang", nth_task=3, worker="w0", seconds=1.0),
    ))
    assert plan.for_task("w0", 1).action == "delay"
    assert plan.for_task("w0", 2) is None
    path = plan.save(tmp_path / "faults.json")
    assert FaultPlan.load(path) == plan


def test_fault_plan_load_failures_are_loud(tmp_path):
    with pytest.raises(ExecutionError, match="no fault plan"):
        FaultPlan.load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ExecutionError, match="unreadable"):
        FaultPlan.load(bad)
    with pytest.raises(ExecutionError, match="'faults' list"):
        FaultPlan.from_payload({"faults": "nope"})


# ---------------------------------------------------------------------------
# Crash, hang, delay — results must not change
# ---------------------------------------------------------------------------


def test_worker_kill_is_reclaimed_and_retried():
    # One worker makes the kill land on every run: local-0's first
    # claim dies, and its replacement (local-1) serves the retry.
    plan = FaultPlan(faults=(
        FaultSpec(action="kill", nth_task=1, worker="local-0"),
    ))
    config = _config(plan, local_workers=1)
    result = get_executor(config).map(_double, list(range(12)))
    assert result == [x * 2 for x in range(12)]
    outcomes = [a.outcome for a in task_attempts()]
    assert "lease_expired" in outcomes  # the kill was noticed...
    expired = next(
        a for a in task_attempts() if a.outcome == "lease_expired"
    )
    assert expired.worker == "local-0"
    # ...and that exact task completed on a later attempt.
    retried = [
        a for a in task_attempts()
        if a.task_index == expired.task_index and a.outcome == "completed"
    ]
    assert retried and retried[0].attempt == expired.attempt + 1


def test_worker_hang_hits_task_timeout():
    # The hung worker's heartbeat keeps beating (it is alive, just
    # stuck), so only the per-task timeout — not lease expiry — may
    # reclaim it.  One worker makes the hang land on every run: its
    # first claim always hangs, and once the sleep ends the same worker
    # serves the requeued attempt and the rest of the map.
    plan = FaultPlan(faults=(
        FaultSpec(action="hang", nth_task=1, worker="local-0", seconds=2.0),
    ))
    config = _config(
        plan, local_workers=1, task_timeout=0.3, lease_timeout=1.0
    )
    result = get_executor(config).map(_double, list(range(8)))
    assert result == [x * 2 for x in range(8)]
    outcomes = [a.outcome for a in task_attempts()]
    assert "timed_out" in outcomes
    assert "lease_expired" not in outcomes


def test_delay_fault_is_benign():
    plan = FaultPlan(faults=(
        FaultSpec(action="delay", nth_task=1, seconds=0.05),
    ))
    result = get_executor(_config(plan)).map(_double, list(range(6)))
    assert result == [x * 2 for x in range(6)]
    assert {a.outcome for a in task_attempts()} == {"completed"}


def test_retry_exhaustion_raises_with_attempt_log():
    # Every worker kills its first claim; with a restart budget big
    # enough to keep supplying fresh victims, some task burns all its
    # attempts and the map must fail loudly instead of hanging.
    plan = FaultPlan(faults=(FaultSpec(action="kill", nth_task=1),))
    config = _config(
        plan, local_workers=1, max_attempts=2, lease_timeout=0.3,
        max_worker_restarts=8,
    )
    with pytest.raises(TaskRetryExhaustedError, match="2 attempts"):
        get_executor(config).map(_double, [1, 2, 3])
    expired = [
        a for a in task_attempts() if a.outcome == "lease_expired"
    ]
    assert len(expired) >= 2  # both attempts of the exhausted task died


# ---------------------------------------------------------------------------
# Bit-identity under every fault kind (the acceptance criterion)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("action", FAULT_KINDS)
def test_simulation_results_bit_identical_under_fault(tiny_spec, action):
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(23), 5)
    serial = execute_runs(model, tiny_spec, seeds)
    plan = FaultPlan(faults=(
        FaultSpec(action=action, nth_task=1, worker="local-0", seconds=30.0)
        if action == "hang"
        else FaultSpec(
            action=action, nth_task=1, worker="local-0", seconds=0.05
        ),
    ))
    config = _config(
        plan,
        task_timeout=1.0 if action == "hang" else 30.0,
        lease_timeout=2.0 if action == "hang" else 0.4,
    )
    faulted = execute_runs(model, tiny_spec, seeds, runtime=config)
    assert _run_signature(faulted) == _run_signature(serial), (
        f"results diverged from serial under injected {action!r}"
    )


# ---------------------------------------------------------------------------
# Mid-run kill + checkpoint resume (DESIGN.md §9 acceptance)
# ---------------------------------------------------------------------------


def test_distributed_kill_at_step_resumes_bit_identical(
    tiny_spec, tmp_path
):
    """A worker killed mid-run is resumed from its snapshot, not replayed.

    ``local-0``'s first claim dies at engine step 4 with snapshots
    every 2 steps; the reclaimed attempt must (a) resume from a
    snapshot — recorded as ``resumed_from_step`` on the completed
    :class:`TaskAttempt` — and (b) still produce results bit-identical
    to an uninterrupted serial run.
    """
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(23), 12)
    serial = execute_runs(model, tiny_spec, seeds)
    plan = FaultPlan(faults=(
        FaultSpec(action="kill_at_step", nth_task=1, worker="local-0",
                  at_step=4),
    ))
    config = RuntimeConfig(
        backend="distributed", jobs=2, cache_dir=tmp_path / "cache",
        # One worker, so local-0 always claims a task (see
        # test_worker_kill_is_reclaimed_and_retried).
        distributed=_config(plan, local_workers=1).distributed,
        checkpoint_every=2,
    )
    faulted = execute_runs(model, tiny_spec, seeds, runtime=config)
    assert _run_signature(faulted) == _run_signature(serial)

    outcomes = [a.outcome for a in task_attempts()]
    assert "lease_expired" in outcomes  # the mid-run death was noticed
    resumed = [
        a for a in task_attempts()
        if a.outcome == "completed" and a.resumed_from_step is not None
    ]
    assert resumed, "no attempt resumed from a snapshot"
    # Snapshot-then-kill at step 4 with every=2: the resume point is
    # the snapshot written at the kill step itself.
    assert resumed[0].resumed_from_step == 4
    # Completed runs discard their snapshots.
    assert not list((tmp_path / "cache").glob("*.ckpt.pkl"))


def test_distributed_kill_at_step_resumes_batched_engine(
    tiny_spec, tmp_path
):
    """Same contract for the batched engine's single stacked task."""
    model = create_model("CM-R", engine="batched")
    seeds = spawn_seeds(ensure_rng(29), 4)
    serial = execute_runs(model, tiny_spec, seeds)
    plan = FaultPlan(faults=(
        FaultSpec(action="kill_at_step", nth_task=1, worker="local-0",
                  at_step=3),
    ))
    # One local worker, so local-0 is guaranteed to claim the single
    # batched task first; its replacement (fresh name) retries it.
    config = RuntimeConfig(
        backend="distributed", jobs=1, cache_dir=tmp_path / "cache",
        distributed=_config(plan, local_workers=1).distributed,
        checkpoint_every=1,
    )
    faulted = execute_runs(model, tiny_spec, seeds, runtime=config)
    assert _run_signature(faulted) == _run_signature(serial)
    resumed = [
        a for a in task_attempts()
        if a.outcome == "completed" and a.resumed_from_step is not None
    ]
    assert resumed and resumed[0].resumed_from_step == 3
    assert not list((tmp_path / "cache").glob("*.ckpt.pkl"))


def test_kill_at_step_without_checkpointing_replays_from_scratch(tiny_spec):
    """With snapshots off the kill still fires; retry replays step 0."""
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(31), 12)
    serial = execute_runs(model, tiny_spec, seeds)
    plan = FaultPlan(faults=(
        FaultSpec(action="kill_at_step", nth_task=1, worker="local-0",
                  at_step=2),
    ))
    config = _config(plan, local_workers=1)  # local-0 always claims
    faulted = execute_runs(model, tiny_spec, seeds, runtime=config)
    assert _run_signature(faulted) == _run_signature(serial)
    outcomes = [a.outcome for a in task_attempts()]
    assert "lease_expired" in outcomes
    # No cache dir, no snapshots: nothing can have resumed.
    assert all(
        a.resumed_from_step is None
        for a in task_attempts()
        if a.outcome == "completed"
    )
