"""The agent runtime: mailboxes, dispatch, heartbeats, crash semantics.

Agents are stateful simulation processes with an address.  They receive
:class:`~repro.comm.message.Message` objects through a mailbox, dispatch
them to per-performative handlers, and emit periodic heartbeats that the
:class:`~repro.agents.lifecycle.Supervisor` watches.  Crash/restart is a
first-class operation because E11 injects agent failures.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.comm.message import Message, Performative
from repro.sim.process import Interrupt
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.transport import Network
    from repro.sim.kernel import Simulator


class AgentState(enum.Enum):
    INIT = "init"
    RUNNING = "running"
    CRASHED = "crashed"
    STOPPED = "stopped"


class AgentRuntime:
    """Routes messages between agents, modelling cross-site latency.

    One runtime per federation; agents register on start.  Delivery
    between co-located agents is immediate; between sites it rides the
    simulated network.
    """

    def __init__(self, sim: "Simulator",
                 network: Optional["Network"] = None) -> None:
        self.sim = sim
        self.network = network
        self._agents: dict[str, "Agent"] = {}
        self.stats = sim.metrics.stats("runtime",
                                       {"delivered": 0, "dropped": 0})

    def register(self, agent: "Agent") -> None:
        self._agents[agent.name] = agent

    def agent(self, name: str) -> "Agent":
        return self._agents[name]

    def agents(self) -> list["Agent"]:
        return [self._agents[k] for k in sorted(self._agents)]

    def deliver(self, message: Message):
        """Generator: route a message to its recipient's mailbox."""
        recipient = self._agents.get(message.recipient)
        sender = self._agents.get(message.sender)
        if recipient is None:
            self.stats["dropped"] += 1
            return False
        if (self.network is not None and sender is not None
                and sender.site != recipient.site):
            yield self.network.send(sender.site, recipient.site,
                                    message.size_bytes())
        recipient.mailbox.put(message)
        self.stats["delivered"] += 1
        return True


class Agent:
    """Base class for all AISLE agents.

    Subclasses register handlers with :meth:`on` (or override
    :meth:`handle`) and may override :meth:`setup` for start-time state.

    Parameters
    ----------
    sim, name, site:
        Identity.
    runtime:
        The shared :class:`AgentRuntime`.
    heartbeat_interval_s:
        Period of liveness beacons (0 disables).
    """

    role = "agent"

    def __init__(self, sim: "Simulator", name: str, site: str,
                 runtime: AgentRuntime,
                 heartbeat_interval_s: float = 5.0) -> None:
        self.sim = sim
        self.name = name
        self.site = site
        self.runtime = runtime
        self.heartbeat_interval_s = heartbeat_interval_s
        self.mailbox: Store = Store(sim)
        self.state = AgentState.INIT
        self.last_heartbeat = -1.0
        self.heartbeat_listeners: list[Callable[["Agent", float], None]] = []
        self._handlers: dict[Performative, Callable[[Message], Any]] = {}
        self._procs: list[Any] = []
        self.stats = sim.metrics.stats(
            "agent", {"handled": 0, "sent": 0, "crashes": 0, "restarts": 0},
            agent=name, site=site)
        runtime.register(self)

    # -- lifecycle ------------------------------------------------------------

    def setup(self) -> None:
        """Hook for subclass start-time initialization."""

    def start(self) -> "Agent":
        if self.state is AgentState.RUNNING:
            raise RuntimeError(f"{self.name} is already running")
        self.setup()
        self.state = AgentState.RUNNING
        # A fresh start earns a full heartbeat interval of grace —
        # otherwise the supervisor immediately re-flags a just-restarted
        # agent whose last beacon predates its crash.
        self.last_heartbeat = self.sim.now
        self._procs = [self.sim.process(self._message_loop())]
        if self.heartbeat_interval_s > 0:
            self._procs.append(self.sim.process(self._heartbeat_loop()))
        return self

    def crash(self) -> None:
        """Kill the agent abruptly (fault injection)."""
        if self.state is not AgentState.RUNNING:
            return
        self.state = AgentState.CRASHED
        self.stats["crashes"] += 1
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("crash")
        self._procs = []

    def stop(self) -> None:
        """Graceful shutdown."""
        if self.state is not AgentState.RUNNING:
            return
        self.state = AgentState.STOPPED
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("stop")
        self._procs = []

    def restart(self) -> None:
        """Bring a crashed/stopped agent back (fresh mailbox loop)."""
        if self.state is AgentState.RUNNING:
            return
        self.stats["restarts"] += 1
        self.state = AgentState.INIT
        self.start()

    @property
    def alive(self) -> bool:
        return self.state is AgentState.RUNNING

    # -- messaging -----------------------------------------------------------------

    def on(self, performative: Performative,
           handler: Callable[[Message], Any]) -> None:
        """Register a handler; generator handlers get their own process."""
        self._handlers[performative] = handler

    def send(self, recipient: str, performative: Performative,
             payload: Any = None):
        """Generator: send a message through the runtime."""
        msg = Message(performative=performative, sender=self.name,
                      recipient=recipient, payload=payload,
                      reply_to=self.name)
        self.stats["sent"] += 1
        ok = yield from self.runtime.deliver(msg)
        return ok

    def handle(self, message: Message) -> Any:
        """Default dispatch; subclasses may override entirely."""
        handler = self._handlers.get(message.performative)
        if handler is not None:
            return handler(message)
        return None

    def _message_loop(self):
        try:
            while True:
                message: Message = yield self.mailbox.get()
                self.stats["handled"] += 1
                result = self.handle(message)
                if hasattr(result, "send") and hasattr(result, "throw"):
                    # Generator handler: run it as a sub-process so slow
                    # handlers do not block the mailbox.
                    self.sim.process(result)
        except Interrupt:
            return

    def _heartbeat_loop(self):
        try:
            while True:
                yield self.sim.timeout(self.heartbeat_interval_s)
                self.last_heartbeat = self.sim.now
                for listener in self.heartbeat_listeners:
                    listener(self, self.sim.now)
        except Interrupt:
            return

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}@{self.site} {self.state.value}>"
