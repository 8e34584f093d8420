"""The analyzer: one parse, determinism rules D001–D006 and contract
rules C001–C004.

:func:`analyze` parses the program tree (``src``) and the read-only
reference trees (tests/benchmarks/examples) once each into a
:class:`~repro.analysis.contracts.project.ProjectIndex`, with an
mtime+content-hash incremental cache.  Each file's facts carry both its
per-file determinism violations and what the cross-module rules need:
the *string contracts* that wire the layers together — bus topic
literals against bind patterns, metric names against their read sites,
resilience call sites against deadline hygiene, and per-shard classes
against the merge protocol.

Every finding rides one ``# detlint: ignore[...]`` pragma mechanism.  A
committed baseline (``analysis_baseline.json``) ratchets pre-existing
contract debt, so CI fails only on *new* C-findings; D-findings are
never baselined and fail the run whenever unsuppressed.

Entry points: ``python -m repro.analysis`` (CLI) or :func:`analyze`
(library).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.contracts.facts import (FACTS_VERSION, ClassFact,
                                            MetricFact, ModuleFacts,
                                            ResilienceFact, TopicFact,
                                            extract_facts)
from repro.analysis.contracts.project import (DEFAULT_CACHE, ProjectIndex,
                                              build_project, load_exclude)
from repro.analysis.contracts.report import (DEFAULT_BASELINE, Baseline,
                                             Report, to_sarif)
from repro.analysis.contracts.rules import (PARSE_ERROR_CODE, RULE_TABLE,
                                            Finding, run_rules,
                                            template_matches)

__all__ = [
    "FACTS_VERSION", "ModuleFacts", "TopicFact", "MetricFact",
    "ResilienceFact", "ClassFact", "extract_facts",
    "ProjectIndex", "build_project", "load_exclude", "DEFAULT_CACHE",
    "Baseline", "Report", "to_sarif", "DEFAULT_BASELINE",
    "PARSE_ERROR_CODE", "RULE_TABLE", "Finding", "run_rules",
    "template_matches", "analyze",
]


def analyze(paths: Sequence[str | Path],
            refs: Sequence[str | Path] = (),
            baseline_path: Optional[str | Path] = None,
            cache_path: Optional[str | Path] = DEFAULT_CACHE,
            select: tuple[str, ...] = (),
            exclude: Sequence[str] = ()) -> Report:
    """One-call analysis: index, every rule, baseline comparison."""
    index = build_project(paths, refs=refs, cache_path=cache_path,
                          exclude=exclude)
    findings = run_rules(index, select=select)
    baseline = None
    if baseline_path is not None and Path(baseline_path).is_file():
        baseline = Baseline.load(baseline_path)
    return Report(
        findings=findings, files_scanned=index.files_scanned,
        cache_hits=index.cache_hits, files_reparsed=index.files_reparsed,
        baseline=baseline)
