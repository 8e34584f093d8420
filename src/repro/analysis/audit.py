"""The runtime half of detlint: a sim-time race auditor.

The static rules cannot see *dynamic* determinism hazards: two events
landing on the same simulated timestamp whose relative order is fixed
only by the kernel's insertion sequence number, or two processes mutating
one shared registry within a single timestep.  Both are deterministic
*today* (the kernel tie-breaks on a per-world sequence number), but they
are exactly the places where an innocent refactor — reordering two
``schedule`` calls, moving a registry write across a ``yield`` — changes
behaviour without failing any unit test.

:class:`RaceAuditor` is opt-in and rides the kernel's observability
hooks (``step_hook`` / ``schedule_hook``, added in the PR-1 obs layer),
chaining politely with an installed tracer.  It counts:

- ``audit.same_time_ties`` — consecutive pops at one timestamp (order
  fixed only by the tie-break sequence number);
- ``audit.cross_process_ties`` — ties whose two events were scheduled by
  *different* processes (the risky subset: relative order depends on
  process interleaving, not on any one process's program order; events
  scheduled from kernel/callback context are neutral and never count);
- ``audit.registry_races`` — a watched shared registry mutated by more
  than one writer within one timestep.

Counters live in the audited world's ``sim.metrics``, so audit
results travel with the rest of a run's observability snapshot; bounded
:class:`AuditFinding` records keep enough detail to locate each hazard.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Optional


if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

__all__ = ["AuditFinding", "RaceAuditor", "WatchedRegistry"]


@dataclass(frozen=True)
class AuditFinding:
    """One dynamic determinism hazard observed during a run."""

    kind: str      # "same-time-tie" | "cross-process-tie" | "registry-race"
    time: float    # simulation time at which it was observed
    detail: str


#: Scheduling contexts that carry no process identity; ties between them
#: (or between one of them and a process) are never cross-process.
_NEUTRAL = ("<kernel>", "<unknown>")


class WatchedRegistry(MutableMapping):
    """A dict wrapper that reports every mutation to the auditor.

    Drop-in for shared registries (service catalogs, peer maps, revocation
    lists): reads are pass-through; writes/deletes are noted with the
    current simulation time and the mutating process, so the auditor can
    flag multi-writer timesteps.
    """

    def __init__(self, auditor: "RaceAuditor", name: str,
                 backing: Optional[MutableMapping] = None) -> None:
        self._auditor = auditor
        self.name = name
        self._data: MutableMapping = backing if backing is not None else {}

    # -- mutations (audited) ----------------------------------------------

    def __setitem__(self, key: Any, value: Any) -> None:
        self._auditor._note_registry_write(self.name, key)
        self._data[key] = value

    def __delitem__(self, key: Any) -> None:
        self._auditor._note_registry_write(self.name, key)
        del self._data[key]

    # -- reads (pass-through) ---------------------------------------------

    def __getitem__(self, key: Any) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WatchedRegistry {self.name!r} n={len(self._data)}>"


class RaceAuditor:
    """Detects order-fragile scheduling and shared-registry contention.

    Parameters
    ----------
    sim:
        The world to audit; the three ``audit.*`` counters report into
        its ``sim.metrics``.
    max_findings:
        Cap on retained :class:`AuditFinding` records (counters keep
        exact totals regardless).

    Usage::

        auditor = RaceAuditor(sim)
        auditor.install()
        ...run the campaign...
        auditor.uninstall()
        assert not auditor.findings
    """

    def __init__(self, sim: "Simulator", max_findings: int = 200) -> None:
        self.sim = sim
        self.max_findings = max_findings
        self.ties = sim.metrics.counter("audit.same_time_ties")
        self.cross_ties = sim.metrics.counter("audit.cross_process_ties")
        self.registry_races = sim.metrics.counter("audit.registry_races")
        self.findings: list[AuditFinding] = []
        self._installed = False
        self._prev_step_hook: Any = None
        self._prev_schedule_hook: Any = None
        # Scheduling context per pending event (keyed by identity; entries
        # are popped when the event fires, so the map tracks the queue).
        self._sched_by: dict[int, str] = {}
        # Per-process labels.  Process.name defaults to the generator's
        # __name__, so two processes spawned from one function would be
        # indistinguishable; suffix a first-seen ordinal (deterministic:
        # first-seen order is scheduling order) to tell instances apart.
        self._proc_labels: dict[int, str] = {}
        self._label_counts: dict[str, int] = {}
        self._last_pop_time: Optional[float] = None
        self._last_pop_by: str = "<kernel>"
        # (time, registry) -> set of writers seen in that timestep.
        self._writers_now: dict[str, set[str]] = {}
        self._writers_time: Optional[float] = None
        self._flagged_registries: set[str] = set()

    # -- hook lifecycle ----------------------------------------------------

    def install(self) -> "RaceAuditor":
        """Chain onto the kernel's hooks (composes with a tracer)."""
        if self._installed:
            return self
        self._prev_step_hook = self.sim.step_hook
        self._prev_schedule_hook = self.sim.schedule_hook
        self.sim.step_hook = self._on_step
        self.sim.schedule_hook = self._on_schedule
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Restore whatever hooks were installed before :meth:`install`."""
        if not self._installed:
            return
        self.sim.step_hook = self._prev_step_hook
        self.sim.schedule_hook = self._prev_schedule_hook
        self._prev_step_hook = self._prev_schedule_hook = None
        self._installed = False

    # -- kernel callbacks --------------------------------------------------

    def _process_label(self) -> str:
        proc = self.sim.active_process
        if proc is None:
            return "<kernel>"
        label = self._proc_labels.get(id(proc))
        if label is None:
            base = getattr(proc, "name", None) or "<process>"
            n = self._label_counts.get(base, 0) + 1
            self._label_counts[base] = n
            label = f"{base}#{n}"
            self._proc_labels[id(proc)] = label
        return label

    def _on_schedule(self, at: float, event: Any) -> None:
        self._sched_by[id(event)] = self._process_label()
        if self._prev_schedule_hook is not None:
            self._prev_schedule_hook(at, event)

    def _on_step(self, now: float, event: Any) -> None:
        scheduled_by = self._sched_by.pop(id(event), "<unknown>")
        if self._last_pop_time is not None and now == self._last_pop_time:
            self.ties.inc()
            if (scheduled_by != self._last_pop_by
                    and scheduled_by not in _NEUTRAL
                    and self._last_pop_by not in _NEUTRAL):
                self.cross_ties.inc()
                self._record(
                    "cross-process-tie", now,
                    f"t={now:.6g}: pop order of events scheduled by "
                    f"{self._last_pop_by!r} and {scheduled_by!r} is fixed "
                    f"only by the kernel tie-break sequence")
        self._last_pop_time = now
        self._last_pop_by = scheduled_by
        if self._prev_step_hook is not None:
            self._prev_step_hook(now, event)

    # -- registry watching -------------------------------------------------

    def watch(self, name: str,
              backing: Optional[MutableMapping] = None) -> WatchedRegistry:
        """Wrap (or create) a shared registry under audit as ``name``."""
        return WatchedRegistry(self, name, backing)

    def _note_registry_write(self, registry: str, key: Any) -> None:
        now = self.sim.now
        if now != self._writers_time:
            self._writers_time = now
            self._writers_now.clear()
            self._flagged_registries.clear()
        writers = self._writers_now.setdefault(registry, set())
        writers.add(self._process_label())
        if len(writers) > 1 and registry not in self._flagged_registries:
            self._flagged_registries.add(registry)
            self.registry_races.inc()
            self._record(
                "registry-race", now,
                f"t={now:.6g}: registry {registry!r} mutated by multiple "
                f"writers in one timestep: {sorted(writers)} "
                f"(last key: {key!r})")

    # -- reporting ---------------------------------------------------------

    def _record(self, kind: str, time: float, detail: str) -> None:
        if len(self.findings) < self.max_findings:
            self.findings.append(AuditFinding(kind, time, detail))

    def summary(self) -> dict[str, float]:
        """Counter totals, for assertions and obs snapshots."""
        return {
            "same_time_ties": self.ties.value,
            "cross_process_ties": self.cross_ties.value,
            "registry_races": self.registry_races.value,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<RaceAuditor ties={self.ties.value:.0f} "
                f"cross={self.cross_ties.value:.0f} "
                f"registry={self.registry_races.value:.0f}>")
