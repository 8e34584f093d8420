"""Tabular Q-learning for dynamic experimental scheduling (§3.3).

"Reinforcement learning for dynamic experimental scheduling."  The
scheduler learns which resource to route the next experiment to (fast/
cheap flow reactor vs. slow/accurate batch robot vs. HPC simulation) from
the campaign state (queue pressure, remaining budget, current confidence).
States and actions are deliberately small and discrete — tabular RL is
the right tool at lab scale, and it is fully deterministic given the RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

import numpy as np

#: Discount on the next state's best Q-value.
GAMMA = 0.9


@dataclass(frozen=True)
class SchedulingState:
    """Discretized campaign state.

    Attributes
    ----------
    queue_pressure:
        0 (idle) / 1 (moderate) / 2 (backed up).
    budget_phase:
        0 (early) / 1 (mid) / 2 (late) in the experiment budget.
    confidence:
        0 (no good candidates yet) / 1 (improving) / 2 (converged-ish).
    """

    queue_pressure: int
    budget_phase: int
    confidence: int

    @staticmethod
    def discretize(queue_length: int, frac_budget_used: float,
                   recent_improvement: float) -> "SchedulingState":
        q = 0 if queue_length == 0 else (1 if queue_length <= 3 else 2)
        b = 0 if frac_budget_used < 0.33 else (
            1 if frac_budget_used < 0.66 else 2)
        c = 2 if recent_improvement < 0.005 else (
            1 if recent_improvement < 0.05 else 0)
        return SchedulingState(q, b, c)


@dataclass(frozen=True)
class MultiTenantSchedulingState:
    """Discretized facility state for multi-tenant slot routing.

    The service-level analogue of :class:`SchedulingState`: instead of
    one campaign's queue/budget/confidence, it captures the whole
    facility's backlog, how uneven the fair-share virtual times have
    become, and how close the nearest deadline is.  Kept deliberately
    tiny (3 x 3 x 3 states) so the tabular agent converges within a
    single busy service run.

    Attributes
    ----------
    backlog:
        0 (drained) / 1 (busy) / 2 (saturated) total queued campaigns.
    imbalance:
        0 (fair) / 1 (drifting) / 2 (skewed) virtual-time spread.
    urgency:
        0 (no deadline near) / 1 (deadline approaching) / 2 (imminent).
    """

    backlog: int
    imbalance: int
    urgency: int

    @staticmethod
    def discretize(total_backlog: int, fairness_debt: float,
                   min_deadline_slack_s: float,
                   ) -> "MultiTenantSchedulingState":
        b = 0 if total_backlog == 0 else (1 if total_backlog <= 16 else 2)
        i = 0 if fairness_debt < 1.0 else (1 if fairness_debt < 8.0 else 2)
        u = 2 if min_deadline_slack_s < 600.0 else (
            1 if min_deadline_slack_s < 3600.0 else 0)
        return MultiTenantSchedulingState(b, i, u)


class QLearningScheduler:
    """Epsilon-greedy tabular Q-learning over (state, action).

    Parameters
    ----------
    actions:
        The routing choices, e.g. ``("flow", "batch", "simulate")``.
    rng:
        Random stream for exploration.
    alpha / epsilon:
        Learning rate and exploration rate; ``epsilon`` decays by
        ``epsilon_decay`` per update.  Future reward is discounted by
        :data:`GAMMA`.
    """

    def __init__(self, actions: Sequence[str], rng: np.random.Generator, *,
                 alpha: float = 0.2, epsilon: float = 0.3, epsilon_decay: float = 0.995,
                 min_epsilon: float = 0.02) -> None:
        if not actions:
            raise ValueError("need at least one action")
        self.actions = tuple(actions)
        self.rng = rng
        self.alpha = alpha
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.min_epsilon = min_epsilon
        self._q: dict[tuple[Hashable, str], float] = {}
        self.stats = {"updates": 0, "explorations": 0}

    def q(self, state: Hashable, action: str) -> float:
        return self._q.get((state, action), 0.0)

    def choose(self, state: Hashable,
               available: Optional[Sequence[str]] = None) -> str:
        """Epsilon-greedy action choice (ties broken at random)."""
        options = self.actions if available is None else tuple(available)
        if not options:
            raise ValueError("no available actions")
        if self.rng.random() < self.epsilon:
            self.stats["explorations"] += 1
            return options[int(self.rng.integers(len(options)))]
        values = np.array([self.q(state, a) for a in options])
        best = np.flatnonzero(values == values.max())
        return options[int(best[int(self.rng.integers(len(best)))])]

    def update(self, state: Hashable, action: str, reward: float,
               next_state: Optional[Hashable] = None) -> None:
        """One-step Q update; pass ``next_state=None`` for terminal steps."""
        self.stats["updates"] += 1
        future = 0.0
        if next_state is not None:
            future = max(self.q(next_state, a) for a in self.actions)
        old = self.q(state, action)
        self._q[(state, action)] = old + self.alpha * (
            reward + GAMMA * future - old)
        self.epsilon = max(self.min_epsilon,
                           self.epsilon * self.epsilon_decay)

    def policy(self, state: Hashable) -> str:
        """Greedy action (no exploration) — for inspection and tests."""
        values = [self.q(state, a) for a in self.actions]
        return self.actions[int(np.argmax(values))]

    def table_size(self) -> int:
        return len(self._q)
