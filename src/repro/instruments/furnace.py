"""Tube furnace for thermal post-processing.

Annealing is a *transform* step: it mutates the sample's true properties
(improving the objective up to an optimal temperature, degrading beyond),
so multi-step workflows (synthesize -> anneal -> characterize) have real
cross-step dependencies for the orchestrator to schedule.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.instruments.base import Instrument, OperationRequest
from repro.labsci.sample import Sample

#: The anneal temperature (C) with the largest improvement factor, and
#: the Gaussian width (C) of the improvement around it.
OPTIMAL_ANNEAL_C = 180.0
WINDOW_C = 60.0

class TubeFurnace(Instrument):
    """Programmable tube furnace."""

    kind = "furnace"
    operations = ("anneal",)

    def __init__(self, sim, name, site, rngs, *,
                 ramp_rate_C_per_s: float = 0.5, **kw: Any) -> None:
        super().__init__(sim, name, site, rngs, **kw)
        self.ramp_rate_C_per_s = ramp_rate_C_per_s

    def operating_envelope(self) -> dict[str, tuple[float, float]]:
        return {"temperature": (25.0, 1200.0), "hold_time": (0.0, 48 * 3600.0)}

    def anneal(self, sample: Sample, temperature: float, hold_time_s: float,
               requester: str = ""):
        """Generator: ramp, hold, cool; mutates the sample's properties.

        The improvement factor peaks at :data:`OPTIMAL_ANNEAL_C`:
        ``factor = 1 + 0.3 * exp(-((T - opt)/window)^2) - overheat``
        with ``window`` = :data:`WINDOW_C` and an overheating penalty
        above ``opt + 2*window``.
        """
        request = OperationRequest(
            operation="anneal",
            params={"temperature": temperature, "hold_time": hold_time_s},
            sample=sample, requester=requester)
        ramp_s = abs(temperature - 25.0) / self.ramp_rate_C_per_s
        duration = 2 * ramp_s + hold_time_s  # heat, hold, cool
        yield from self.operate(request, duration)
        boost = 0.3 * float(np.exp(
            -((temperature - OPTIMAL_ANNEAL_C) / WINDOW_C) ** 2))
        overheat = max(0.0, (temperature - (OPTIMAL_ANNEAL_C + 2 * WINDOW_C))
                       / 400.0)
        factor = max(0.1, 1.0 + boost - overheat)
        for prop in list(sample.true_properties()):
            if prop in ("plqy", "quality", "gfa", "conductivity", "response"):
                sample.apply_transform(prop, factor)
        return factor
