"""Automatic failover across replicated endpoints (milestone M11).

A :class:`FailoverGroup` fronts a primary RPC server and ordered standbys.
Health tracking is a shared :class:`~repro.resilience.CircuitBreaker` per
endpoint: the heartbeat monitor records probe outcomes into the current
primary's breaker and promotes the next healthy standby when it trips;
client calls routed through the group prefer endpoints whose breaker
admits traffic and transparently retry against the rest.  E4 measures the
resulting recovery time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.comm.rpc import RpcClient, RpcServer, RpcTimeout, ServerDown
from repro.net.transport import NetworkError
from repro.resilience import CircuitBreaker, CircuitState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

#: Consecutive missed probes that trip an endpoint's breaker.
HEARTBEAT_MISSES = 2


class NoHealthyReplica(Exception):
    """Every replica in the group is down."""


class FailoverGroup:
    """Primary/standby replica set with breaker-driven promotion.

    Parameters
    ----------
    sim:
        Kernel.
    replicas:
        Servers in promotion order; ``replicas[0]`` starts as primary.
    heartbeat_interval_s:
        Monitor probe period — the dominant term in failover latency.

    A replica's breaker trips after :data:`HEARTBEAT_MISSES` consecutive
    missed probes (for the primary, that triggers promotion) and is
    probed again after ten heartbeat intervals.  Breaker counters (trips,
    rejections) report into ``sim.metrics``.
    """

    def __init__(self, sim: "Simulator", replicas: list[RpcServer],
                 heartbeat_interval_s: float = 0.1) -> None:
        if not replicas:
            raise ValueError("need at least one replica")
        self.sim = sim
        self.replicas = list(replicas)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.breakers = {
            replica.name: CircuitBreaker(
                sim, failure_threshold=HEARTBEAT_MISSES,
                recovery_time_s=10.0 * heartbeat_interval_s,
                name=f"failover.{replica.name}")
            for replica in self.replicas}
        self._primary_idx = 0
        self.events: list[tuple[float, str, str]] = []
        self._monitor_proc = None

    @property
    def primary(self) -> RpcServer:
        return self.replicas[self._primary_idx]

    def healthy_replicas(self) -> list[RpcServer]:
        return [r for r in self.replicas if r.alive]

    # -- promotion ------------------------------------------------------------

    def promote_next(self) -> RpcServer:
        """Advance to the next healthy replica (monitor calls this)."""
        for offset in range(1, len(self.replicas) + 1):
            idx = (self._primary_idx + offset) % len(self.replicas)
            if self.replicas[idx].alive:
                self._primary_idx = idx
                self.events.append(
                    (self.sim.now, "promote", self.replicas[idx].name))
                return self.replicas[idx]
        raise NoHealthyReplica("all replicas down")

    # -- heartbeat monitor -----------------------------------------------------------

    def start_monitor(self, client: RpcClient) -> None:
        """Spawn the heartbeat process probing the current primary."""
        self._monitor_proc = self.sim.process(self._monitor(client))

    def _monitor(self, client: RpcClient):
        while True:
            yield self.sim.timeout(self.heartbeat_interval_s)
            primary = self.primary
            breaker = self.breakers[primary.name]
            try:
                # Probe deadline must exceed the WAN round trip even at
                # aggressive cadences, or healthy primaries look dead.
                yield from client.call(
                    primary, "_health", None,
                    deadline_s=max(0.2, self.heartbeat_interval_s),
                    retries=0)
                breaker.record_success()
            except (RpcTimeout, ServerDown, NetworkError, KeyError):
                self.events.append((self.sim.now, "miss", primary.name))
                breaker.record_failure()
                if breaker.state is CircuitState.OPEN:
                    try:
                        self.promote_next()
                    except NoHealthyReplica:
                        self.events.append((self.sim.now, "all-down", ""))
                        return

    @staticmethod
    def install_health_endpoint(server: RpcServer) -> None:
        """Add the ``_health`` probe method replied to by live replicas."""
        server.register("_health", lambda _payload: "ok")

    # -- client-side routing --------------------------------------------------------------

    def _route(self, tried: set[str]) -> Optional[RpcServer]:
        """Next endpoint to try: primary, then admitted healthy standbys,
        then (as a last resort) quarantined-but-alive standbys."""
        primary = self.primary
        if primary.name not in tried:
            return primary
        candidates = [r for r in self.healthy_replicas()
                      if r.name not in tried]
        for replica in candidates:
            if self.breakers[replica.name].allow():
                return replica
        return candidates[0] if candidates else None

    def call(self, client: RpcClient, method: str, payload: Any = None,
             *, deadline_s: float = 5.0):
        """Generator: call through the group, failing over on errors.

        Tries the current primary first, then walks the healthy standbys
        (breaker-admitted ones first), retrying each replica once.  Every outcome is recorded into
        the endpoint's shared breaker.  Raises :class:`NoHealthyReplica`
        when everything is down.
        """
        tried: set[str] = set()
        last_exc: Optional[Exception] = None
        # detlint: ignore[C003] this IS the resilience primitive: each pass tries a different replica, never re-invoking a failed one
        for _ in range(len(self.replicas)):
            target = self._route(tried)
            if target is None:
                break
            tried.add(target.name)
            breaker = self.breakers[target.name]
            try:
                result = yield from client.call(
                    target, method, payload, deadline_s=deadline_s,
                    retries=1)
            except (RpcTimeout, ServerDown, NetworkError) as exc:
                last_exc = exc
                breaker.record_failure()
                self.events.append((self.sim.now, "client-failover",
                                    target.name))
                continue
            breaker.record_success()
            return result
        raise NoHealthyReplica(f"no replica answered {method!r}: {last_exc}")

    def recovery_time(self) -> Optional[float]:
        """Sim-seconds between the last kill-observed miss and promotion."""
        promote_times = [t for t, kind, _ in self.events if kind == "promote"]
        miss_times = [t for t, kind, _ in self.events if kind == "miss"]
        if not promote_times or not miss_times:
            return None
        first_promote = promote_times[0]
        first_miss = min(t for t in miss_times if t <= first_promote)
        return first_promote - first_miss
