"""Batch synthesis robot — the classical (slow) way to make samples.

The baseline against which the fluidic SDL's >100x data-acquisition
efficiency is measured (E7): each batch takes tens of minutes and consumes
milliliters of reagent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.instruments.base import Instrument, OperationRequest
from repro.labsci.sample import Sample

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.labsci.landscapes import Landscape


class BatchSynthesisRobot(Instrument):
    """Robotic batch synthesis station.

    Parameters
    ----------
    landscape:
        The ground truth the synthesized samples embody.
    batch_time_s:
        Wall time per synthesis batch (default 30 min: heat-up, reaction,
        cool-down, workup).
    """

    kind = "synthesis-robot"
    operations = ("synthesize",)
    #: Chemical consumption per sample.
    reagent_per_sample_mL = 10.0

    def __init__(self, sim, name, site, rngs, landscape: "Landscape", *,
                 batch_time_s: float = 1800.0, **kw: Any) -> None:
        super().__init__(sim, name, site, rngs, **kw)
        self.landscape = landscape
        self.batch_time_s = batch_time_s
        self.reagent_used_mL = 0.0
        self.samples_made = 0

    def operating_envelope(self) -> dict[str, tuple[float, float]]:
        # Hardware interlock: the heating mantle physically cannot exceed
        # 400 C, and the pumps cannot meter below 1 uL concentrations.
        return {"temperature": (0.0, 400.0), "dopant_conc": (0.0, 10.0)}

    def synthesize(self, params: Mapping[str, Any], requester: str = ""):
        """Generator: run one batch; returns the new :class:`Sample`."""
        request = OperationRequest(operation="synthesize",
                                   params=dict(params), requester=requester)
        yield from self.operate(request, self.batch_time_s)
        self.reagent_used_mL += self.reagent_per_sample_mL
        self.samples_made += 1
        sample = Sample.synthesize(params, self.landscape, site=self.site)
        sample.record(self.sim.now, self.name, "synthesize")
        return sample
