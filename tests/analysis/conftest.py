"""Shared analyzer fixtures."""

from pathlib import Path

import pytest

from repro.analysis import analyze, load_exclude

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def repo_report(tmp_path_factory):
    """One full-tree run, configured as ``python -m repro.analysis`` is
    from the repo root; shared because a cold scan takes seconds."""
    return analyze(
        [REPO_ROOT / "src"],
        refs=[REPO_ROOT / p for p in ("tests", "benchmarks", "examples")],
        baseline_path=REPO_ROOT / "analysis_baseline.json",
        cache_path=tmp_path_factory.mktemp("analysis") / "cache.json",
        exclude=load_exclude(REPO_ROOT))
