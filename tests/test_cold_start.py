"""The package imports from its declared dependencies, and imports fast.

``pyproject.toml`` declares numpy as the only runtime dependency.  Both
tests run a fresh interpreter, since this process has long since imported
whatever the rest of the suite pulled in.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Best-of-three cumulative ``import repro`` time allowed, in seconds.
#: numpy plus the package measure ~0.45 s on a 2-vCPU x86-64 host; the
#: bound leaves room for that host's ~1.7x run-to-run drift.
IMPORT_BUDGET_S = 1.0

# Blocks scipy outright, then reports the top-level modules that
# ``import repro.cli`` and ``--help`` add on top of numpy.  numpy 2 loads
# ``numpy.random`` lazily, and its Cython extensions register top-level
# helper modules (``cython_runtime``), so the snapshot includes it.
_DECLARED_DEPS_SNIPPET = """
import json, sys
sys.modules["scipy"] = None
import numpy, numpy.random
before = {name.partition(".")[0] for name in sys.modules}
import repro.cli
try:
    code = repro.cli.main(["--help"])
except SystemExit as exc:
    code = exc.code
after = {name.partition(".")[0] for name in sys.modules}
print(json.dumps({"code": code, "new": sorted(after - before)}))
"""


def _run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if part
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


def test_cli_imports_and_runs_from_declared_dependencies():
    result = _run_python("-c", _DECLARED_DEPS_SNIPPET)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    # ``__mp_main__`` is the stdlib multiprocessing's alias of ``__main__``.
    allowed = set(sys.stdlib_module_names) | {"__mp_main__", "repro"}
    undeclared = set(report["new"]) - allowed
    assert not undeclared, f"import repro.cli pulls in {sorted(undeclared)}"


def _import_repro_seconds() -> float:
    result = _run_python("-X", "importtime", "-c", "import repro")
    assert result.returncode == 0, result.stderr
    # Lines read "import time: <self us> | <cumulative us> | <module>".
    match = re.search(r"^import time:\s*\d+ \|\s*(\d+) \| repro$",
                      result.stderr, re.MULTILINE)
    assert match, result.stderr[-2000:]
    return int(match.group(1)) / 1e6


def test_import_time_budget():
    best = min(_import_repro_seconds() for _ in range(3))
    assert best <= IMPORT_BUDGET_S, (
        f"import repro took {best:.2f} s (budget {IMPORT_BUDGET_S} s)"
    )
