"""Campaign comparison metrics used throughout the benchmarks.

The primary API is :class:`CampaignMetrics` — derive one per campaign
from a :class:`~repro.core.report.CampaignReport` via
:meth:`~repro.core.report.CampaignReport.metrics` and compare arms with
:meth:`~CampaignMetrics.speedup_vs` / :meth:`~CampaignMetrics.reduction_vs`.
Per-campaign quantities such as time-to-target come from the report:
``result.report(target=T).time_to_target``.

All comparisons are ``None``-propagating: a campaign that never reached
its target yields ``None`` (reported as "DNF") rather than a fabricated
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class CampaignMetrics:
    """Derived per-campaign quantities, computed once from a result.

    Attributes
    ----------
    time_to_target:
        Sim-seconds from campaign start until the target was first met
        (``None`` when the campaign never reached it, or no target given).
    experiments_to_target:
        Number of executed experiments until the target was first met.
    duration:
        Total campaign time on the simulated clock.
    n_experiments:
        Executed experiment count.
    best_value:
        Best objective the campaign achieved.
    target:
        The target these metrics were computed against (``None`` when the
        caller supplied none and the spec carried none).
    """

    time_to_target: Optional[float]
    experiments_to_target: Optional[int]
    duration: float
    n_experiments: int
    best_value: Optional[float]
    target: Optional[float] = None

    # -- arm-vs-arm comparisons -------------------------------------------

    def speedup_vs(self, baseline: "CampaignMetrics | float | None",
                   ) -> Optional[float]:
        """baseline time-to-target / ours — the M8-style "3x" metric."""
        base = (baseline.time_to_target
                if isinstance(baseline, CampaignMetrics) else baseline)
        return speedup(base, self.time_to_target)

    def reduction_vs(self, baseline: "CampaignMetrics | float | None",
                     ) -> Optional[float]:
        """1 - ours/baseline in experiments — the M9 ">30% fewer" metric."""
        base = (baseline.experiments_to_target
                if isinstance(baseline, CampaignMetrics) else baseline)
        return reduction_fraction(base, self.experiments_to_target)


def speedup(baseline_time: Optional[float],
            improved_time: Optional[float]) -> Optional[float]:
    """baseline / improved, None-propagating.

    ``None`` in either slot (target never reached) yields ``None`` —
    benchmarks report "DNF" rather than a fabricated ratio.
    """
    if baseline_time is None or improved_time is None:
        return None
    if improved_time <= 0:
        return float("inf")
    return baseline_time / improved_time


def reduction_fraction(baseline: Optional[float],
                       improved: Optional[float]) -> Optional[float]:
    """1 - improved/baseline: the M9-style ">30% fewer" metric."""
    if baseline is None or improved is None or baseline <= 0:
        return None
    return 1.0 - improved / baseline
