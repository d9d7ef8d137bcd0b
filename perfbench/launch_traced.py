"""Run the ``repro`` CLI with layer spans recorded from outside the program.

Usage::

    python3 perfbench/launch_traced.py SPAN_DIR REPRO_ARG...

The launcher installs an import hook before anything from ``repro`` is
imported.  As soon as one of the modules named in :data:`PATCHES`
finishes executing, each listed public function (or method, patched on
its class) is replaced by a wrapper that records a span: layer name,
start, end, parent span and a few counts.  Replacing the name on its
defining module before any other module runs catches call sites that
bind the function with ``from ... import``.

Spans stay in memory and are written as JSON lines to
``SPAN_DIR/spans.<pid>.jsonl``.  Forked workers inherit the wrappers;
they append their finished top-level spans after each one closes
(coordinators stop workers with a signal) and again from ``os._exit``,
which skips ``atexit``.  The main process also writes
``SPAN_DIR/registries.json``: its pid, the time the CLI returned (the
rest of the process's life is interpreter teardown), and the backend
degradations, cache corruptions and distributed task attempts recorded
in-process.

Standard output and the exit code are the CLI's own.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.abc
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path


def _recipes(_args, _kwargs, result) -> dict:
    return {"recipes": len(result)}


def _engine(_args, _kwargs, result) -> dict:
    runs = result if isinstance(result, list) else [result]
    return {"runs": len(runs), "recipes": sum(run.n_recipes for run in runs)}


def _store_get(args, _kwargs, result) -> dict:
    if result is None:
        return {"hit": 0, "bytes": 0}
    store, key = args[0], args[1]
    return {"hit": 1, "bytes": store.path_for(key).stat().st_size}


def _store_put(args, _kwargs, _result) -> dict:
    store, key = args[0], args[1]
    return {"bytes": store.path_for(key).stat().st_size}


def _checkpoint_put(_args, _kwargs, result) -> dict:
    return {"bytes": Path(result).stat().st_size}


#: module -> [(attribute path, layer, counter)].  A dotted attribute is
#: ``Class.method``; the wrapper is installed on that class.
PATCHES: dict[str, list[tuple[str, str, object]]] = {
    "repro.lexicon.builder": [("standard_lexicon", "lexicon", None)],
    "repro.synthesis.worldgen": [
        ("WorldKitchen.generate_dataset", "synthesis", _recipes),
    ],
    "repro.models.params": [("CuisineSpec.from_view", "spec", None)],
    "repro.runtime.runner": [
        ("execute_request", "engine", _engine),
        ("execute_batch", "engine", _engine),
    ],
    "repro.runtime.cache": [
        ("RunCache.get", "run_cache.get", _store_get),
        ("RunCache.put", "run_cache.put", _store_put),
        ("fingerprint_many", "run_cache.key", None),
    ],
    "repro.runtime.curve_cache": [
        ("CurveCache.get", "curve_cache.get", _store_get),
        ("CurveCache.put", "curve_cache.put", _store_put),
        ("transactions_fingerprint", "curve_cache.fingerprint", None),
        ("fingerprint_planes", "curve_cache.fingerprint", None),
    ],
    "repro.analysis.itemsets": [
        ("mine_frequent_itemsets", "mining", None),
    ],
    "repro.models.ensemble": [
        ("mine_curve_task", "mining", None),
        ("ensemble_curves", "aggregate", None),
    ],
    "repro.analysis.model_eval": [("evaluate_models", "aggregate", None)],
    "repro.experiments.table1": [("run_table1", "experiments.table1", None)],
    "repro.experiments.fig1": [("run_fig1", "experiments.fig1", None)],
    "repro.experiments.fig2": [("run_fig2", "experiments.fig2", None)],
    "repro.experiments.fig3": [("run_fig3", "experiments.fig3", None)],
    "repro.runtime.checkpoint": [
        ("CheckpointStore.put", "checkpoint.put", _checkpoint_put),
        ("CheckpointStore.latest", "checkpoint.lookup", None),
        ("CheckpointStore.discard", "checkpoint.lookup", None),
    ],
    "repro.runtime.distributed": [
        ("DistributedExecutor.map", "spool.map", None),
    ],
    "repro.viz.ascii": [
        ("render_table", "viz", None),
        ("render_curves", "viz", None),
    ],
}


class SpanRecorder:
    """In-memory spans of one process, written out as JSON lines.

    A span is ``[layer, start, end, parent, counts]``; ``parent`` is the
    index of the enclosing span in the same process (-1 at top level)
    and times come from ``time.perf_counter``, which reads the
    system-wide monotonic clock, so spans of forked workers share the
    main process's time base.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self.main_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.spans: list[list] = []
        self.flushed = 0
        self.local = threading.local()

    def after_fork(self) -> None:
        self._reset()

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def open(self, layer: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            [layer, time.perf_counter(), None, stack[-1] if stack else -1, None]
        )
        stack.append(index)
        return index

    def close(self, index: int, end: float, counts: dict | None = None):
        span = self.spans[index]
        span[2], span[4] = end, counts
        stack = self._stack()
        stack.pop()
        if not stack and os.getpid() != self.main_pid:
            self.flush()

    def flush(self) -> None:
        """Append every closed span not yet written to this pid's file."""
        end = self.flushed
        while end < len(self.spans) and self.spans[end][2] is not None:
            end += 1
        if end == self.flushed:
            return
        path = self.directory / f"spans.{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for index in range(self.flushed, end):
                handle.write(json.dumps([index, *self.spans[index]]) + "\n")
        self.flushed = end

    def wrap(self, fn, layer: str, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, time.perf_counter())
                raise
            end = time.perf_counter()
            counts = counter(args, kwargs, result) if counter else None
            self.close(index, end, counts)
            return result

        return wrapper


def _patch(module, targets, recorder: SpanRecorder) -> None:
    for attribute, layer, counter in targets:
        owner_name, _, name = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(recorder.wrap(raw.__func__, layer, counter))
        else:
            patched = recorder.wrap(getattr(owner, name), layer, counter)
        setattr(owner, name, patched)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Patches each :data:`PATCHES` module right after it executes."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder

    def find_spec(self, fullname, path, target=None):
        targets = PATCHES.get(fullname)
        if targets is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module
        recorder = self.recorder

        def exec_and_patch(module):
            exec_module(module)
            _patch(module, targets, recorder)

        spec.loader.exec_module = exec_and_patch
        return spec


def _registries() -> dict:
    from repro.runtime.degradation import backend_degradations
    from repro.runtime.distributed import task_attempts
    from repro.runtime.integrity import cache_corruptions

    def records(items):
        return [
            {key: str(value) if isinstance(value, Path) else value
             for key, value in dataclasses.asdict(item).items()}
            for item in items
        ]

    return {
        "pid": os.getpid(),
        "degradations": records(backend_degradations()),
        "corruptions": records(cache_corruptions()),
        "attempts": records(task_attempts()),
    }


def main() -> int:
    span_dir = Path(sys.argv[1])
    argv = sys.argv[2:]
    recorder = SpanRecorder(span_dir)
    sys.meta_path.insert(0, _PatchingFinder(recorder))
    os.register_at_fork(after_in_child=recorder.after_fork)
    real_exit = os._exit

    def flushing_exit(code):
        recorder.flush()
        real_exit(code)

    os._exit = flushing_exit
    try:
        index = recorder.open("import")
        from repro.cli import main as cli_main
        recorder.close(index, time.perf_counter())
        return cli_main(argv)
    finally:
        returned = time.perf_counter()
        sys.stdout.flush()
        recorder.flush()
        (span_dir / "registries.json").write_text(
            json.dumps({**_registries(), "returned": returned}),
            encoding="utf-8",
        )


if __name__ == "__main__":
    sys.exit(main())
