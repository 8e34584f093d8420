"""Tree-wide guards on the campaign decision loop's hot-path idioms.

- Uniform draws from a sequence use ``seq[int(rng.integers(len(seq)))]``:
  it consumes the generator exactly as ``Generator.choice`` does, at a
  fraction of its per-call cost.  Any ``.choice(`` call in ``src/repro``
  fails here; the frozen ``repro/perf/legacy*.py`` copies are exempt.
- Importing the simulator does not import ``scipy.stats``: nothing in
  ``repro`` needs it, and importing it adds to every process's start-up
  time and resident memory.
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
        if rel.parts[0] == "perf" and rel.name.startswith("legacy"):
            continue
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
