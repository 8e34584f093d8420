"""Automated calibration maintenance (milestone M4).

"Automated calibration protocols that enable instruments to 'plug in'
without manual setup."  The :class:`MaintenanceAgent` watches a fleet's
calibration drift and dispatches automated recalibration whenever an
instrument's bias exceeds tolerance — the keep-it-calibrated half of M4
(the plug-in half is DNS-SD announcement, E5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.instruments.base import Instrument, InstrumentStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

#: Absolute calibration drift beyond which recalibration is dispatched.
BIAS_TOLERANCE = 0.05


class MaintenanceAgent:
    """Periodic drift QA with automated recalibration dispatch.

    Parameters
    ----------
    sim:
        Kernel.
    check_interval_s:
        QA sweep period.

    Recalibration is dispatched once an instrument's absolute drift
    exceeds :data:`BIAS_TOLERANCE`.  The public :attr:`stats` dict is
    registered into ``sim.metrics``.
    """

    def __init__(self, sim: "Simulator", *,
                 check_interval_s: float = 3600.0) -> None:
        self.sim = sim
        self.check_interval_s = check_interval_s
        self._fleet: list[Instrument] = []
        self._in_progress: set[str] = set()
        self.events: list[tuple[float, str, str]] = []
        self.stats = sim.metrics.stats(
            "maintenance", {"sweeps": 0, "calibrations": 0})
        self._proc = None

    def watch(self, instrument: Instrument) -> None:
        if instrument.calibration is None:
            raise ValueError(
                f"{instrument.name} has no calibration model to maintain")
        self._fleet.append(instrument)

    def start(self) -> None:
        if self._proc is not None:
            raise RuntimeError("maintenance agent already started")
        self._proc = self.sim.process(self._run())

    def _run(self):
        while True:
            yield self.sim.timeout(self.check_interval_s)
            self.stats["sweeps"] += 1
            for inst in self._fleet:
                if inst.name in self._in_progress:
                    continue
                if inst.status in (InstrumentStatus.FAULT,
                                   InstrumentStatus.OFFLINE):
                    continue
                if inst.calibration.needs_calibration(BIAS_TOLERANCE):
                    self._in_progress.add(inst.name)
                    self.sim.process(self._recalibrate(inst))

    def _recalibrate(self, inst: Instrument):
        self.events.append((self.sim.now, "dispatch", inst.name))
        try:
            yield from inst.auto_calibrate()
        finally:
            self._in_progress.discard(inst.name)
        self.stats["calibrations"] += 1
        self.events.append((self.sim.now, "calibrated", inst.name))

    def worst_bias(self) -> float:
        """Largest absolute drift currently in the fleet."""
        return max((abs(i.calibration.bias()) for i in self._fleet),
                   default=0.0)
