"""``repro.analysis`` — determinism and contract tooling (a.k.a. **detlint**).

The repo's claim to AISLE's quantified milestones rests on bit-identical
same-seed simulation.  Reviewer vigilance does not scale to that
contract; this package enforces it with tooling:

- **Static half** (:mod:`repro.analysis.walk`, :mod:`repro.analysis.rules`,
  :mod:`repro.analysis.contracts`): one analyzer that parses and walks
  each file once and runs two rule families over the cached facts — the
  per-file determinism rules D001–D006 (module-global id factories,
  wall-clock reads, process-global randomness, set-order iteration,
  ``id()``/``hash()`` ordering keys, raw process fan-out) and the
  cross-module contract rules C001–C004.  Inline
  ``# detlint: ignore[...]`` pragmas suppress a finding, ``[tool.detlint]
  exclude`` in ``pyproject.toml`` narrows the D-rules' scope, a committed
  baseline ratchets contract debt, and reports come as text, JSON or
  SARIF.  Run it from the repo root with::

      python -m repro.analysis

- **Runtime half** (:mod:`repro.analysis.audit`): an opt-in sim-time race
  auditor that rides the kernel's step/schedule hooks, counting
  same-timestamp ties (and cross-process ones) and catching cross-process
  mutation of shared registries within one timestep — with findings
  exposed as :mod:`repro.obs` counters.
"""

from repro.analysis.audit import AuditFinding, RaceAuditor, WatchedRegistry
from repro.analysis.contracts import (RULE_TABLE, Baseline, Finding, Report,
                                      analyze, load_exclude)
from repro.analysis.rules import Violation

__all__ = [
    "AuditFinding",
    "Baseline",
    "Finding",
    "RaceAuditor",
    "Report",
    "RULE_TABLE",
    "Violation",
    "WatchedRegistry",
    "analyze",
    "load_exclude",
]
