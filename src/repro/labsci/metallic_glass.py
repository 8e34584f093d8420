"""Metallic-glass composition landscape (§1, ref [22]).

Ren et al. accelerated metallic-glass discovery by iterating ML with
high-throughput sputtering across ternary composition spreads.  This
landscape models glass-forming ability (GFA) over a ternary alloy
composition simplex: element fractions must sum to 1, and a handful of
composition islands are glass formers.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.labsci.landscapes import (ContinuousDim, Landscape,
                                     ParameterSpace)
from repro.sim.rng import RngRegistry

#: Glass-forming composition islands on the simplex.
N_ISLANDS = 4


def metallic_glass_space() -> ParameterSpace:
    """Two free fractions (the third is 1 - x - y, enforced on evaluate)."""
    return ParameterSpace([
        ContinuousDim("frac_zr", 0.0, 1.0),
        ContinuousDim("frac_cu", 0.0, 1.0),
        ContinuousDim("cooling_rate", 1.0, 6.0, unit="log10(K/s)"),
    ])


class MetallicGlassLandscape(Landscape):
    """Glass-forming ability over the Zr-Cu-Al ternary simplex.

    ``gfa`` in [0, 1] combines composition islands with a cooling-rate
    sigmoid; ``is_glass`` thresholds it at 0.5 (the classification target
    the original work screened for).  Infeasible compositions
    (``frac_zr + frac_cu > 1``) evaluate to zero GFA rather than raising,
    mirroring a sputter system depositing whatever you ask and the sample
    simply being bad.
    """

    properties = ("gfa", "is_glass")
    objective = "gfa"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(metallic_glass_space())
        self.seed = seed
        rng = RngRegistry(seed).fresh("metallic-glass/islands")
        # Island centers inside the simplex via Dirichlet draws.
        centers = rng.dirichlet((2.0, 2.0, 2.0), size=N_ISLANDS)[:, :2]
        self._centers = centers
        self._widths = rng.uniform(0.04, 0.12, size=N_ISLANDS)
        self._heights = rng.uniform(0.55, 1.0, size=N_ISLANDS)

    def evaluate(self, params: Mapping[str, Any]) -> dict[str, float]:
        self.space.validate(params)
        x = float(params["frac_zr"])
        y = float(params["frac_cu"])
        if x + y > 1.0:
            return {"gfa": 0.0, "is_glass": 0.0}
        pos = np.array([x, y])
        dist2 = np.sum((self._centers - pos) ** 2, axis=1)
        composition_term = float(np.max(
            self._heights * np.exp(-dist2 / (2 * self._widths ** 2))))
        # Faster cooling always helps; saturating sigmoid in log10 rate.
        rate = float(params["cooling_rate"])
        cooling_term = 1.0 / (1.0 + np.exp(-(rate - 3.0)))
        gfa = min(1.0, composition_term * (0.4 + 0.6 * cooling_term))
        return {"gfa": gfa, "is_glass": 1.0 if gfa >= 0.5 else 0.0}

    def evaluate_batch(
            self, params_seq: Sequence[Mapping[str, Any]],
    ) -> dict[str, np.ndarray]:
        for p in params_seq:
            self.space.validate(p)
        n = len(params_seq)
        x = np.fromiter((float(p["frac_zr"]) for p in params_seq),
                        dtype=np.float64, count=n)
        y = np.fromiter((float(p["frac_cu"]) for p in params_seq),
                        dtype=np.float64, count=n)
        rate = np.fromiter((float(p["cooling_rate"]) for p in params_seq),
                           dtype=np.float64, count=n)
        pos = np.stack([x, y], axis=1)
        diff = pos[:, None, :] - self._centers[None, :, :]
        dist2 = np.sum(diff ** 2, axis=2)
        composition_term = np.max(
            self._heights * np.exp(-dist2 / (2 * self._widths ** 2)), axis=1)
        cooling_term = 1.0 / (1.0 + np.exp(-(rate - 3.0)))
        gfa = np.minimum(1.0, composition_term * (0.4 + 0.6 * cooling_term))
        gfa = np.where(x + y > 1.0, 0.0, gfa)
        return {"gfa": gfa, "is_glass": (gfa >= 0.5).astype(np.float64)}
