"""Distributed service registry with TTL leases and watchers.

Service instances (instruments, agents, data nodes) register typed records
with capability metadata; lookups filter on type and capabilities.
Records lease-expire unless renewed, so crashed services vanish without
explicit deregistration — the substrate for M12's self-discovering agent
networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


@dataclass
class ServiceRecord:
    """One registered service instance.

    Attributes
    ----------
    instance:
        Unique instance name, e.g. ``"xrd-1.ornl"``.
    service_type:
        DNS-SD-style type, e.g. ``"_instrument._aisle"``.
    site:
        Hosting site name.
    endpoint:
        Opaque address (the RPC server name, usually).
    capabilities:
        Capability attributes used in lookups and negotiation.
    ttl_s:
        Lease duration; the record expires ``ttl_s`` after its last renewal.
    """

    instance: str
    service_type: str
    site: str
    endpoint: str = ""
    capabilities: dict[str, Any] = field(default_factory=dict)
    ttl_s: float = 60.0
    registered_at: float = 0.0
    renewed_at: float = 0.0

    def expires_at(self) -> float:
        return self.renewed_at + self.ttl_s

    def matches(self, service_type: Optional[str] = None,
                **capability_filters: Any) -> bool:
        """Type/capability predicate used by lookups.

        A filter value that is callable is applied as a predicate to the
        capability value; otherwise equality is required.  Missing
        capabilities never match.
        """
        if service_type is not None and self.service_type != service_type:
            return False
        for key, want in capability_filters.items():
            if key not in self.capabilities:
                return False
            have = self.capabilities[key]
            if callable(want):
                if not want(have):
                    return False
            elif have != want:
                return False
        return True


class ServiceRegistry:
    """In-memory authoritative registry (one per federation or per site).

    Watchers are callbacks ``(event, record) -> None`` with event in
    ``{"register", "deregister", "expire"}``; they fire synchronously so
    discovery caches can invalidate immediately.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._records: dict[str, ServiceRecord] = {}
        self._watchers: list[tuple[Optional[str], Callable[[str, ServiceRecord], None]]] = []
        self.stats = sim.metrics.stats(
            "service_registry",
            {"registers": 0, "lookups": 0, "expirations": 0})

    # -- mutation ---------------------------------------------------------------

    def register(self, record: ServiceRecord) -> ServiceRecord:
        record.registered_at = self.sim.now
        record.renewed_at = self.sim.now
        self._records[record.instance] = record
        self.stats["registers"] += 1
        self._notify("register", record)
        return record

    def renew(self, instance: str) -> bool:
        """Extend a lease; returns False if the record no longer exists."""
        rec = self._records.get(instance)
        if rec is None or self._expired(rec):
            self._records.pop(instance, None)
            return False
        rec.renewed_at = self.sim.now
        return True

    def deregister(self, instance: str) -> bool:
        rec = self._records.pop(instance, None)
        if rec is None:
            return False
        self._notify("deregister", rec)
        return True

    # -- queries ---------------------------------------------------------------------

    def lookup(self, service_type: Optional[str] = None,
               **capability_filters: Any) -> list[ServiceRecord]:
        """All live records matching type and capability filters."""
        self.stats["lookups"] += 1
        self._sweep()
        return sorted(
            (r for r in self._records.values()
             if r.matches(service_type, **capability_filters)),
            key=lambda r: r.instance)

    def get(self, instance: str) -> Optional[ServiceRecord]:
        rec = self._records.get(instance)
        if rec is not None and self._expired(rec):
            self._expire(rec)
            return None
        return rec

    def types(self) -> list[str]:
        """All distinct live service types."""
        self._sweep()
        return sorted({r.service_type for r in self._records.values()})

    def __len__(self) -> int:
        self._sweep()
        return len(self._records)

    # -- watchers --------------------------------------------------------------------

    def watch(self, callback: Callable[[str, ServiceRecord], None],
              service_type: Optional[str] = None) -> Callable[[], None]:
        """Subscribe to registry changes; returns an unsubscribe handle."""
        entry = (service_type, callback)
        self._watchers.append(entry)

        def unsubscribe() -> None:
            if entry in self._watchers:
                self._watchers.remove(entry)
        return unsubscribe

    def _notify(self, event: str, record: ServiceRecord) -> None:
        for stype, cb in list(self._watchers):
            if stype is None or stype == record.service_type:
                cb(event, record)

    # -- expiry ---------------------------------------------------------------------------

    def _expired(self, rec: ServiceRecord) -> bool:
        return self.sim.now >= rec.expires_at()

    def _expire(self, rec: ServiceRecord) -> None:
        self._records.pop(rec.instance, None)
        self.stats["expirations"] += 1
        self._notify("expire", rec)

    def _sweep(self) -> None:
        for rec in [r for r in self._records.values() if self._expired(r)]:
            self._expire(rec)
