"""End-to-end benchmark of the paper protocol through the ``repro`` CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig4-cold --seed 1 --seconds 10 --trace 0

Each workload in ``perfbench/workloads.json`` is one ``repro`` command
line; ``--seed`` is forwarded to it.  Workload names and "why"
sentences, and metric names and units, are read from ``BENCHMARK.json``.
The load is a closed loop from this single client: each CLI process
starts after the previous one has exited, in a fresh working directory
under ``.perfbench_work/`` (the warm workload reuses the cache its
set-up filled).

``--trace 0`` runs the command untraced until ``--seconds`` have passed
and at least three times and reports the end-to-end metrics as medians:
``wall_s`` (spawn to exit), ``cpu_s`` and ``peak_rss_mib`` (from
``os.wait4`` on that process, so reaped workers are included),
``disk_mib`` (bytes the command left in its working directory) and
``setup_s`` (median of several set-ups: fresh directories plus an
``import repro`` that primes the file and bytecode caches, or for the
warm workload the cache fill).

``--trace 1`` alternates untraced runs with runs under
``launch_traced.py`` and reports the per-layer metrics of the traced
runs (medians), the import split from ``python -X importtime``, the
interpreter teardown after the CLI returned, the share of the traced
wall-clock that top-level spans cover, and the traced minus untraced
wall-clock.  A ``#`` line gives each layer's share of the traced
wall-clock.

Every output is checked: all runs of a command must print the same
digest (stdout and written files, minus timings), the warm run must
match the cold fill, the traced run must match the untraced one, and
the digest must equal the golden one in ``golden.json`` when that file
has one for the seed (a ``#`` line says when it has none, and another
prints the digest, to be added to ``golden.json`` by hand), and no
process may outlive the CLI process.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text("utf-8"))
GOLDEN_PATH = BENCH_DIR / "golden.json"

SETUP_REPS = 3
MIN_SAMPLES = 3
INVOCATION_TIMEOUT_S = 120.0
#: Stop starting new samples after this long, so a run ends within the
#: 180 s a caller allows even when the program slows down.
RUN_BUDGET_S = 140.0
MIB = 1024.0 * 1024.0

#: The metric names and units, and the workload names, come from the file
#: the harness reads, so the two cannot disagree.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}

#: Span layer -> metric summing the spans' self time.
SELF_TIME = {
    "lexicon": "lexicon.build_s",
    "synthesis": "synthesis.generate_s",
    "spec": "spec.build_s",
    "engine": "engine.busy_s",
    "run_cache.get": "run_cache.get_s",
    "run_cache.put": "run_cache.put_s",
    "run_cache.key": "run_cache.key_s",
    "curve_cache.get": "curve_cache.get_s",
    "curve_cache.put": "curve_cache.put_s",
    "curve_cache.fingerprint": "curve_cache.fingerprint_s",
    "mining": "mining.busy_s",
    "aggregate": "aggregate.self_s",
    "experiments.table1": "experiments.table1_s",
    "experiments.fig1": "experiments.fig1_s",
    "experiments.fig2": "experiments.fig2_s",
    "experiments.fig3": "experiments.fig3_s",
    "checkpoint.put": "checkpoint.put_s",
    "checkpoint.lookup": "checkpoint.lookup_s",
    "spool.map": "spool.map_s",
    "viz": "viz.render_s",
}


class BenchSetupError(Exception):
    """The checkout cannot run the benchmark at all (no result printed)."""


@dataclass
class Sample:
    """One CLI process: its costs, its output digest and what went wrong."""

    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    disk_mib: float
    digest: str
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env(tmp_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["TMPDIR"] = str(tmp_dir)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def live_members(pgid: int) -> int:
    """Processes of group ``pgid`` still running (zombies do not count)."""
    alive = 0
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        alive += int(fields[2]) == pgid and fields[0] != "Z"
    return alive


def spawn(cmd: list[str], cwd: Path, logs: Path, env: dict[str, str]):
    """Run ``cmd`` to completion; return (wall s, rusage, exit code, strays).

    The child leads its own process group.  A timeout kills the group;
    after the child exits, ``strays`` counts the group's processes that
    outlived it (their cost is missing from the rusage), and those are
    killed too.
    """
    logs.mkdir(parents=True, exist_ok=True)
    with (logs / "stdout").open("wb") as out, \
            (logs / "stderr").open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out,
            stderr=err, start_new_session=True,
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    strays = live_members(proc.pid)
    _kill_group(proc.pid)
    return wall, usage, proc.returncode, strays


def repro_command(argv: list[str], seed: int) -> list[str]:
    """The ``repro`` console entry point (``repro.cli:main``)."""
    return [
        sys.executable, "-c",
        "import sys; from repro.cli import main; sys.exit(main())",
        *argv, "--seed", str(seed),
    ]


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def tree_digest(directory: Path) -> str:
    hasher = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        hasher.update(str(path.relative_to(directory)).encode() + b"\0")
        hasher.update(hashlib.sha256(path.read_bytes()).digest())
    return hasher.hexdigest()


def output_digest(kind: str, stdout: str, cwd: Path) -> str:
    """Digest of what one command produced, minus its timings."""
    parts = []
    if kind == "fig4":
        parts.append(stdout)
    elif kind == "report":
        parts.append(re.sub(r" \(\d+(\.\d+)?s\)$", "", stdout, flags=re.M))
        markdown = (cwd / "report.md").read_text("utf-8")
        parts.append(
            re.sub(r"^_Generated in .*s\._\n", "", markdown, flags=re.M)
        )
    elif kind == "sweep":
        parts.append(re.sub(
            r"; \d+(\.\d+)?s \([\d.]+ runs/s\)$", "", stdout, flags=re.M
        ))
        parts.append(tree_digest(cwd / "cache"))
    else:
        raise ValueError(f"unknown output kind {kind!r}")
    return hashlib.sha256("\0".join(parts).encode("utf-8")).hexdigest()


def hygiene_errors(cwd: Path) -> list[str]:
    """Leftovers a finished command must not leave in its directory."""
    errors = []
    for pattern in ("*.tmp.*", "*.ckpt.pkl", "*.ckpt.bad"):
        stray = sorted(p.name for p in cwd.rglob(pattern))
        if stray:
            errors.append(f"left {len(stray)} {pattern} files, e.g. {stray[0]}")
    leftovers = list((cwd / "tmp").iterdir())
    if leftovers:
        errors.append(f"left {len(leftovers)} entries in its temp dir")
    return errors


# ---------------------------------------------------------------------------
# One invocation
# ---------------------------------------------------------------------------


class Runner:
    """Fresh directories and invocations for one workload and seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.base = WORK_ROOT / f"{name}-{os.getpid()}"
        self.count = 0

    def fresh_dir(self) -> Path:
        self.count += 1
        cwd = self.base / f"{self.count:03d}" / "cwd"
        (cwd / "tmp").mkdir(parents=True)
        return cwd

    def invoke(self, cwd: Path, traced: bool = False) -> Sample:
        self.count += 1
        logs = cwd.parent / f"logs-{self.count}"
        spans = cwd.parent / f"spans-{self.count}"
        env = child_env(cwd / "tmp")
        command = repro_command(self.spec["argv"], self.seed)
        if traced:
            spans.mkdir()
            command = [
                sys.executable, str(BENCH_DIR / "launch_traced.py"),
                str(spans), *command[3:],
            ]
        wall, usage, code, strays = spawn(command, cwd, logs, env)
        exited = time.perf_counter()
        stdout = (logs / "stdout").read_text("utf-8", errors="replace")
        sample = Sample(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mib=usage.ru_maxrss / 1024.0,
            disk_mib=tree_bytes(cwd) / MIB,
            digest="",
        )
        if strays:
            sample.errors.append(f"left {strays} processes running")
        if code != 0:
            tail = (logs / "stderr").read_text("utf-8", errors="replace")
            sample.errors.append(
                f"exit code {code}: {tail.strip().splitlines()[-1:]}"
            )
            return sample
        try:
            sample.digest = output_digest(self.spec["output"], stdout, cwd)
        except OSError as exc:
            sample.errors.append(f"missing output: {exc}")
        sample.errors.extend(hygiene_errors(cwd))
        if traced:
            registries = json.loads(
                (spans / "registries.json").read_text("utf-8")
            )
            sample.layers = layer_metrics(spans, registries, wall)
            sample.layers["exit.teardown_s"] = exited - registries["returned"]
            sample.errors.extend(self.trace_errors(registries, sample.layers))
        return sample

    def trace_errors(
        self, registries: dict, layers: dict[str, float]
    ) -> list[str]:
        errors = []
        for kind in ("degradations", "corruptions"):
            if registries[kind]:
                errors.append(f"{kind}: {registries[kind]}")
        for metric in self.spec["trace_nonzero"]:
            if not layers[metric] > 0:
                errors.append(f"traced {metric} is {layers[metric]}, not > 0")
        for metric, expected in self.spec["trace_equal"].items():
            if layers[metric] != expected:
                errors.append(
                    f"traced {metric} is {layers[metric]}, not {expected}"
                )
        return errors

    def setup_once(self) -> tuple[float, Path, Sample | None]:
        """One set-up: (seconds, directory for the measured runs, fill)."""
        start = time.perf_counter()
        cwd = self.fresh_dir()
        if self.spec["setup"] == "fill":
            fill = self.invoke(cwd)
            return time.perf_counter() - start, cwd, fill
        prime = [sys.executable, "-c",
                 "import repro, sys; sys.stdout.write(repro.__file__)"]
        logs = cwd.parent / "logs-prime"
        _, _, code, _ = spawn(prime, cwd, logs, child_env(cwd / "tmp"))
        elapsed = time.perf_counter() - start
        where = (logs / "stdout").read_text("utf-8", errors="replace")
        if code != 0 or not Path(where).resolve().is_relative_to(SRC):
            raise BenchSetupError(
                f"cannot import repro from {SRC}: exit {code}, got {where!r}"
            )
        return elapsed, cwd, None

    def measured_dir(self, setup_dir: Path) -> Path:
        return setup_dir if self.spec["setup"] == "fill" else self.fresh_dir()

    def cleanup(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Trace analysis
# ---------------------------------------------------------------------------


def load_spans(directory: Path) -> dict[int, dict[int, list]]:
    """pid -> {span index: [layer, start, end, parent, counts]}."""
    processes: dict[int, dict[int, list]] = {}
    for path in directory.glob("spans.*.jsonl"):
        pid = int(path.name.split(".")[1])
        spans = processes.setdefault(pid, {})
        for line in path.read_text("utf-8").splitlines():
            index, *span = json.loads(line)
            spans[index] = span
    return processes


def union_seconds(intervals: list[tuple[float, float]]) -> float:
    total, covered_to = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > covered_to:
            total += end - max(start, covered_to)
            covered_to = end
    return total


def layer_metrics(
    directory: Path, registries: dict, traced_wall: float
) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (span self times)."""
    metrics = dict.fromkeys(SELF_TIME.values(), 0.0)
    metrics.update({
        "mining.calls": 0.0, "trace.coverage": 0.0,
        "engine.recipes_per_s": 0.0, "curve_cache.hit_ratio": 0.0,
    })
    counts: dict[str, float] = {}

    def count(key: str, value: float = 1.0) -> None:
        counts[key] = counts.get(key, 0.0) + value

    for pid, spans in load_spans(directory).items():
        child_time = dict.fromkeys(spans, 0.0)
        for span in spans.values():
            if span[3] in child_time:
                child_time[span[3]] += span[2] - span[1]
        for index, (layer, start, end, parent, extra) in spans.items():
            if layer in SELF_TIME:
                metrics[SELF_TIME[layer]] += end - start - child_time[index]
            extra = extra or {}
            for key, value in extra.items():
                count(f"{layer}.{key}", value)
            count(f"{layer}.calls")
            if layer == "mining" and spans.get(parent, [None])[0] != "mining":
                metrics["mining.calls"] += 1
        if pid == registries["pid"]:
            top = [(s[1], s[2]) for s in spans.values() if s[3] == -1]
            metrics["trace.coverage"] = union_seconds(top) / traced_wall

    metrics["synthesis.recipes"] = counts.get("synthesis.recipes", 0.0)
    metrics["engine.runs"] = counts.get("engine.runs", 0.0)
    if metrics["engine.busy_s"] > 0:
        metrics["engine.recipes_per_s"] = (
            counts.get("engine.recipes", 0.0) / metrics["engine.busy_s"]
        )
    gets = counts.get("run_cache.get.calls", 0.0)
    metrics["run_cache.hits"] = counts.get("run_cache.get.hit", 0.0)
    metrics["run_cache.misses"] = gets - metrics["run_cache.hits"]
    metrics["run_cache.bytes_read"] = counts.get("run_cache.get.bytes", 0.0)
    metrics["run_cache.bytes_written"] = counts.get("run_cache.put.bytes", 0.0)
    curve_gets = counts.get("curve_cache.get.calls", 0.0)
    if curve_gets:
        metrics["curve_cache.hit_ratio"] = (
            counts.get("curve_cache.get.hit", 0.0) / curve_gets
        )
    metrics["checkpoint.puts"] = counts.get("checkpoint.put.calls", 0.0)
    metrics["checkpoint.bytes_written"] = counts.get(
        "checkpoint.put.bytes", 0.0
    )
    attempts = registries["attempts"]
    metrics["spool.attempts"] = float(len(attempts))
    metrics["spool.retries"] = float(sum(a["attempt"] > 1 for a in attempts))
    metrics["spool.task_busy_s"] = sum(
        a["elapsed_seconds"] or 0.0 for a in attempts
    )
    return metrics


def import_split(runner: Runner) -> dict[str, float]:
    """``import.repro_s`` and ``import.scipy_s`` from ``-X importtime``.

    Lines are printed when an import finishes, children first, so the
    reversed list visits each parent before its children; a scipy
    module counts unless a scipy module encloses it.
    """
    cwd = runner.fresh_dir()
    logs = cwd.parent / "logs-importtime"
    command = [sys.executable, "-X", "importtime", "-c", "import repro"]
    _, _, code, _ = spawn(command, cwd, logs, child_env(cwd / "tmp"))
    if code != 0:
        raise BenchSetupError(f"python -X importtime exited {code}")
    repro_us = scipy_us = 0
    ancestors: list[str] = []
    lines = (logs / "stderr").read_text("utf-8").splitlines()
    for line in reversed(lines):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        del ancestors[depth:]
        top = name.split(".")[0]
        if name == "repro" and depth == 0:
            repro_us += int(cumulative)
        if top == "scipy" and not any(
            a.split(".")[0] == "scipy" for a in ancestors
        ):
            scipy_us += int(cumulative)
        ancestors.append(name)
    return {"import.repro_s": repro_us / 1e6, "import.scipy_s": scipy_us / 1e6}


# ---------------------------------------------------------------------------
# Workload run
# ---------------------------------------------------------------------------


def golden_digests() -> dict:
    if GOLDEN_PATH.exists():
        return json.loads(GOLDEN_PATH.read_text("utf-8"))
    return {}


def environment() -> dict:
    """Host context, from the repository's bench helper plus our extras."""
    sys.path.insert(0, str(ROOT))
    try:
        from benchmarks._results import bench_environment
    finally:
        sys.path.pop(0)
    import multiprocessing

    try:
        from importlib.metadata import version
        scipy_version = version("scipy")
    except ImportError:
        scipy_version = None
    return {
        **bench_environment(),
        "scipy": scipy_version,
        "start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
    }


def print_shares(metrics: dict[str, float], traced_wall: float) -> None:
    """Each layer's time as a share of the median traced wall-clock.

    Self times are summed over all processes, so with workers the shares
    can add up to more than 1.
    """
    timed = ["import.repro_s", *SELF_TIME.values(), "exit.teardown_s"]
    shares = {
        key: metrics[key] / traced_wall
        for key in dict.fromkeys(timed) if metrics.get(key, 0.0) > 0
    }
    print("# share of traced wall_s: " + ", ".join(
        f"{key} {share:.3f}"
        for key, share in sorted(shares.items(), key=lambda kv: -kv[1])
    ))


def run_workload(args: argparse.Namespace) -> dict:
    began = time.perf_counter()
    runner = Runner(args.workload, args.seed)
    failures: list[str] = []
    attempted = 0
    digests: set[str] = set()
    print("# workload " + json.dumps({
        "why": WHY[args.workload], "argv": runner.spec["argv"],
        "stresses": runner.spec["stresses"],
        "bypasses": runner.spec["bypasses"],
    }))
    golden = golden_digests().get(runner.spec["output"], {}).get(str(args.seed))
    if golden is None:
        print(f"# no golden digest for seed {args.seed}")

    def record(sample: Sample, label: str) -> None:
        nonlocal attempted
        attempted += 1
        print(
            f"# {label}: wall {sample.wall_s:.3f} s, cpu {sample.cpu_s:.3f} s,"
            f" peak rss {sample.peak_rss_mib:.1f} MiB", flush=True,
        )
        if sample.digest:
            digests.add(sample.digest)
        if golden and sample.digest and sample.digest != golden:
            sample.errors.append("output digest differs from golden.json")
        if sample.errors:
            failures.append(f"{label}: {'; '.join(sample.errors)}")

    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            seconds, setup_dir, fill = runner.setup_once()
            setup_times.append(seconds)
            if fill is not None:
                record(fill, "set-up fill")
        measure_start = time.perf_counter()
        untraced: list[Sample] = []
        traced: list[Sample] = []

        def more() -> bool:
            now = time.perf_counter()
            return not untraced or now - began < RUN_BUDGET_S and (
                len(untraced) < MIN_SAMPLES
                or now - measure_start < args.seconds
            )

        while more():
            sample = runner.invoke(runner.measured_dir(setup_dir))
            record(sample, f"run {len(untraced) + 1}")
            untraced.append(sample)
            if args.trace:
                sample = runner.invoke(
                    runner.measured_dir(setup_dir), traced=True
                )
                record(sample, f"traced run {len(traced) + 1}")
                traced.append(sample)
        if len(digests) > 1:
            failures.append(
                f"{len(digests)} different outputs across runs of one command"
            )
        if args.trace:
            layered = [s.layers for s in traced if s.layers]
            metrics = {
                key: statistics.median(layers[key] for layers in layered)
                for key in (layered[0] if layered else ())
            }
            metrics.update(import_split(runner))
            traced_wall = statistics.median(s.wall_s for s in traced)
            metrics["trace.overhead_s"] = traced_wall - statistics.median(
                s.wall_s for s in untraced
            )
            print_shares(metrics, traced_wall)
            units = PER_LAYER
        else:
            metrics = {
                key: statistics.median(getattr(s, key) for s in untraced)
                for key in ("wall_s", "cpu_s", "peak_rss_mib", "disk_mib")
            }
            metrics["setup_s"] = statistics.median(setup_times)
            units = END_TO_END
    finally:
        runner.cleanup()

    missing, extra = units.keys() - metrics.keys(), metrics.keys() - units
    if extra or missing and not failures:
        raise BenchSetupError(
            f"metrics differ from BENCHMARK.json: missing {sorted(missing)},"
            f" not listed {sorted(extra)}"
        )
    for digest in sorted(digests):
        print(f"# output digest, {runner.spec['output']} seed {args.seed}:"
              f" {digest}")
    for failure in failures:
        print(f"# FAILED {failure}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if not (SRC / "repro" / "cli.py").is_file():
            raise BenchSetupError(f"no repro sources under {SRC}")
        if WHY.keys() != WORKLOADS.keys():
            raise BenchSetupError(
                "workloads.json and BENCHMARK.json name different workloads"
            )
        print("# environment " + json.dumps(environment(), sort_keys=True))
        result = run_workload(args)
    except (BenchSetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
