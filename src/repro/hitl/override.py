"""Human-in-the-loop override safeguards (milestone M4).

"Robust human-in-the-loop safeguards that allow operators to override
autonomous agents sending laboratory robots out-of-specification
commands."

The :class:`OperatorOverride` sits beside the verification stack: a human
operator reviews a fraction of outgoing plans (vigilance depends on their
trust state), catches out-of-envelope commands with competence-dependent
probability, and vetoes them after a human reaction latency.  It is
deliberately *imperfect* — the point of E2's ablation is that automated
verification plus human oversight beats either alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from repro.agents.planner import ExperimentPlan
from repro.hitl.trust import TrustModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class OperatorOverride:
    """A monitoring human with veto authority over agent plans.

    Parameters
    ----------
    sim:
        Kernel.
    rng:
        Random stream (review sampling and detection rolls).
    trust:
        The operator's trust model (drives vigilance).
    safety_envelope / forbidden:
        The operator's *mental model* of safe operation — possibly
        narrower or staler than the true envelope.
    detection_skill:
        Probability a reviewed unsafe plan is actually recognized.
    review_time_s:
        Human latency per reviewed plan.
    """

    name = "operator-override"

    def __init__(self, sim: "Simulator", rng: np.random.Generator,
                 trust: Optional[TrustModel] = None, *,
                 safety_envelope: Optional[Mapping[str, tuple[float, float]]] = None,
                 detection_skill: float = 0.8,
                 review_time_s: float = 45.0) -> None:
        self.sim = sim
        self.rng = rng
        self.trust = trust or TrustModel()
        self.safety_envelope = dict(safety_envelope or {})
        self.detection_skill = detection_skill
        self.review_time_s = review_time_s
        self.stats = sim.metrics.stats(
            "hitl.override", {"presented": 0, "reviewed": 0, "vetoed": 0,
                              "missed_unsafe": 0})

    def _looks_unsafe(self, plan: ExperimentPlan) -> bool:
        for key, (lo, hi) in self.safety_envelope.items():
            v = plan.params.get(key)
            if isinstance(v, (int, float)) and not lo <= float(v) <= hi:
                return True
        return False

    def validate(self, plan: ExperimentPlan):
        """Generator: maybe review the plan; returns rejection reasons.

        Compatible with the
        :class:`~repro.core.verification.VerificationStack` timed-verifier
        protocol, so an operator can simply be appended to the stack.
        """
        self.stats["presented"] += 1
        if self.rng.random() > self.trust.vigilance():
            # Operator waves it through without looking (complacency).
            if self._looks_unsafe(plan):
                self.stats["missed_unsafe"] += 1
            return []
        self.stats["reviewed"] += 1
        yield self.sim.timeout(self.review_time_s)
        if self._looks_unsafe(plan):
            if self.rng.random() < self.detection_skill:
                self.stats["vetoed"] += 1
                return [f"operator veto: {plan.plan_id} looks "
                        f"out-of-specification"]
            self.stats["missed_unsafe"] += 1
        return []

    def observe_outcome(self, success: bool) -> None:
        """Feed campaign outcomes back into the operator's trust."""
        self.trust.observe(success)

    @property
    def veto_rate(self) -> float:
        return (self.stats["vetoed"] / self.stats["presented"]
                if self.stats["presented"] else 0.0)
