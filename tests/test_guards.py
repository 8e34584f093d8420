"""Tree-wide guards on the campaign decision loop's hot-path idioms.

- Uniform draws from a sequence use ``seq[int(rng.integers(len(seq)))]``:
  it consumes the generator exactly as ``Generator.choice`` does, at a
  fraction of its per-call cost.  Any ``.choice(`` call in ``src/repro``
  fails here.
- Importing the simulator does not import ``scipy.stats``: nothing in
  ``repro`` needs it, and importing it adds to every process's start-up
  time and resident memory.
- Every world has one metrics registry, ``sim.metrics``: a
  ``MetricsRegistry(`` call in ``src/repro`` outside the kernel and the
  scale runner's merged view fails here, and so does
  the name of the deleted dict-view class anywhere in ``src/`` or
  ``tests/``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _choice_calls():
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "choice"):
                yield f"{rel}:{node.lineno}"


def test_no_generator_choice_calls():
    assert list(_choice_calls()) == []


def test_simulator_imports_leave_scipy_stats_out():
    code = ("import sys\n"
            "import repro, repro.testbed, repro.methods.acquisition\n"
            "import repro.service.service\n"
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ,
                               "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr


#: Where a ``MetricsRegistry`` may be built: one per world in the kernel
#: and the cross-process merge in the scale runner.
REGISTRY_HOMES = ("sim/kernel.py", "scale/runner.py")
#: Assembled so this file does not match its own search.
DELETED_VIEW = "Stats" + "Dict"


def _registry_constructions():
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        if rel.startswith(REGISTRY_HOMES):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, (ast.Name, ast.Attribute))
                    and getattr(node.func, "id",
                                getattr(node.func, "attr", None))
                    == "MetricsRegistry"):
                yield f"{rel}:{node.lineno}"


def test_metrics_registries_are_built_only_by_their_homes():
    assert list(_registry_constructions()) == []


def test_deleted_stats_view_is_not_named():
    hits = [str(path.relative_to(ROOT))
            for top in ("src", "tests")
            for path in sorted((ROOT / top).rglob("*.py"))
            if DELETED_VIEW in path.read_text()]
    assert hits == []
