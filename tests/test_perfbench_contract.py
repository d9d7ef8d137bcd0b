"""The names ``perfbench/launch_traced.py`` reaches into must exist.

The traced benchmark wraps functions by dotted name and reads the
runtime event log through the per-kind query functions, all from
outside the program.  A rename would otherwise only fail later, inside
a traced benchmark run.  The file is loaded by path and not edited.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.runtime import (
    BackendDegradation,
    CacheCorruption,
    ResumeEvent,
    TaskAttempt,
)
from repro.runtime.events import record

LAUNCHER = Path(__file__).resolve().parent.parent / "perfbench" / "launch_traced.py"


@pytest.fixture(scope="module")
def launcher():
    spec = importlib.util.spec_from_file_location("launch_traced", LAUNCHER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves(launcher):
    for module_name, targets in launcher.PATCHES.items():
        module = importlib.import_module(module_name)
        for attribute, _layer, _counter in targets:
            owner_name, _, name = attribute.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert callable(getattr(owner, name)), (
                f"{module_name}.{attribute}"
            )


def test_registries_reads_the_event_log(launcher):
    assert launcher._registries() == {
        "pid": launcher.os.getpid(),
        "degradations": [],
        "corruptions": [],
        "attempts": [],
    }
    degradation = BackendDegradation(
        callable_name="m.f", requested="process", effective="thread",
        reason="does not pickle",
    )
    corruption = CacheCorruption(
        store="RunCache", path="x.run.pkl", kind="unreadable-entry",
        detail="EOFError", action="removed",
    )
    attempt = TaskAttempt(
        task_index=3, attempt=2, outcome="completed", worker="local-0",
        elapsed_seconds=0.5, resumed_from_step=200,
    )
    for event in (degradation, ResumeEvent(key="k", step=1), corruption,
                  attempt):
        record(event)
    registries = launcher._registries()
    assert registries["degradations"] == [dataclasses.asdict(degradation)]
    assert registries["corruptions"] == [dataclasses.asdict(corruption)]
    assert registries["attempts"] == [dataclasses.asdict(attempt)]
