"""Instrument microservices: remote instrument control over RPC (M10).

"Deploy containerized agent microservices with standardized gRPC/AMQP
communication protocols across multiple DOE laboratory facilities,
demonstrating cross-vendor instrument control and federated identity
integration."

An :class:`InstrumentService` exposes one site's HAL as an RPC endpoint —
the "containerized microservice" in front of the bench — with every call
passing the zero-trust gateway.  A :class:`RemoteInstrumentClient` gives
agents at *other* sites the same canonical `execute` interface as a local
HAL, so executors can drive instruments across institutional boundaries
without knowing where (or from which vendor) they live.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.comm.rpc import RpcClient, RpcServer
from repro.instruments.base import OperationRequest
from repro.instruments.hal import HardwareAbstractionLayer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.transport import Network
    from repro.sim.kernel import Simulator

#: Lifetime of an :meth:`InstrumentService.announcement` in DNS-SD.
ANNOUNCEMENT_TTL_S = 600.0
#: Per-call deadline of a remote execute.
EXECUTE_DEADLINE_S = 48 * 3600.0

class InstrumentService:
    """One site's instruments, published as an RPC microservice.

    Parameters
    ----------
    sim:
        Kernel.
    hal:
        The HAL holding this site's instruments.
    site:
        Hosting site; the service (and RPC server) is named
        ``instrument-service.<site>``.
    """

    SERVICE_TYPE = "_instrument-service._aisle"

    def __init__(self, sim: "Simulator", hal: HardwareAbstractionLayer,
                 site: str) -> None:
        self.sim = sim
        self.hal = hal
        self.site = site
        self.name = f"instrument-service.{site}"
        self.server = RpcServer(sim, self.name, site)
        self.server.register("execute", self._handle_execute)
        self.server.register("inventory", self._handle_inventory)
        self.stats = sim.metrics.stats("instrument_service",
                                       {"executions": 0, "errors": 0},
                                       site=site)

    # -- handlers -------------------------------------------------------------

    def _handle_execute(self, payload: dict[str, Any]):
        """Generator handler: run a canonical request on a local instrument.

        Payload: ``{"instrument": name, "operation": op, "params": {...},
        "sample": Sample|None, "requester": str}``.
        """
        self.stats["executions"] += 1
        request = OperationRequest(
            operation=payload["operation"],
            params=dict(payload.get("params") or {}),
            sample=payload.get("sample"),
            requester=payload.get("requester", "remote"))
        try:
            result = yield from self.hal.execute(payload["instrument"],
                                                 request)
        except Exception:
            self.stats["errors"] += 1
            raise
        return result

    def _handle_inventory(self, _payload: Any) -> dict[str, Any]:
        return self.hal.describe()

    def announcement(self):
        """A DNS-SD announcement for this service (register via DnsSd),
        valid for :data:`ANNOUNCEMENT_TTL_S`."""
        from repro.comm.discovery import ServiceAnnouncement
        return ServiceAnnouncement(
            instance=self.name, service_type=self.SERVICE_TYPE,
            endpoint=self.name,
            capabilities={"site": self.site,
                          "instruments": sorted(self.hal.describe())},
            ttl_s=ANNOUNCEMENT_TTL_S)


class RemoteInstrumentClient:
    """Drive another site's instruments through its microservice.

    Presents the same generator-based ``execute(instrument, request)``
    surface as a local HAL, so an
    :class:`~repro.agents.executor.ExecutorAgent` can be pointed at a
    remote facility unchanged.

    Parameters
    ----------
    sim, network:
        Kernel and transport.
    site:
        The *caller's* site.
    service:
        The remote :class:`InstrumentService`.
    gateway / token:
        Zero-trust credentials: every remote execute is verified at the
        service's edge (federated identity integration, M10).  Calls are
        stamped with the identity ``remote-agent``.

    Each execute has an :data:`EXECUTE_DEADLINE_S` deadline: instrument
    operations are long.
    """

    def __init__(self, sim: "Simulator", network: "Network", site: str,
                 service: InstrumentService, *, gateway: Any = None,
                 token: Any = None) -> None:
        self.sim = sim
        self.service = service
        self._rpc = RpcClient(sim, network, site, identity="remote-agent",
                              gateway=gateway, token=token)

    @property
    def token(self):
        return self._rpc.token

    @token.setter
    def token(self, value) -> None:
        # Refresh loops assign here (continuous authentication).
        self._rpc.token = value

    def execute(self, instrument_name: str, request: OperationRequest):
        """Generator: run a canonical request on the remote instrument."""
        result = yield from self._rpc.call(
            self.service.server, "execute",
            {"instrument": instrument_name,
             "operation": request.operation,
             "params": dict(request.params),
             "sample": request.sample,
             "requester": request.requester},
            deadline_s=EXECUTE_DEADLINE_S, retries=1)
        return result

    def inventory(self):
        """Generator: list the remote site's instruments."""
        result = yield from self._rpc.call(self.service.server, "inventory",
                                           None, deadline_s=60.0)
        return result
