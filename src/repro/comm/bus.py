"""AMQP-style message-oriented middleware.

Brokers live at sites; publishers send envelopes to a broker over the
simulated WAN; the broker fans messages out to queues whose *bindings*
match the topic (AMQP topic-exchange semantics: ``*`` matches one
dot-separated segment, ``#`` matches any number).  Consumers pull from
queues with explicit ack/nack and at-least-once redelivery — the
"reliable message delivery" the paper's §3.4 research priorities call for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.comm.message import Envelope, Message
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.transport import Network
    from repro.sim.kernel import Simulator

#: Broker-side routing cost per published message.
ROUTING_DELAY_S = 0.0005


class BrokerDown(Exception):
    """The broker targeted by a publish/consume is offline."""


def topic_matches(pattern: str, topic: str) -> bool:
    """AMQP topic matching: ``*`` = one segment, ``#`` = zero or more.

    Implemented as an iterative NFA simulation over pattern positions —
    O(len(pattern) * len(topic)) worst case, where the old backtracking
    recursion blew up exponentially on patterns with several ``#``
    segments (``#.#.#...`` against a long non-matching topic).

    >>> topic_matches("lab.*.xrd", "lab.ornl.xrd")
    True
    >>> topic_matches("lab.#", "lab.ornl.xrd.scan")
    True
    >>> topic_matches("lab.*", "lab.ornl.xrd")
    False
    """
    pat = pattern.split(".")
    n_pat = len(pat)

    def close(states: set[int]) -> set[int]:
        # Epsilon closure: a '#' consumes zero segments by advancing past.
        frontier = list(states)
        while frontier:
            pi = frontier.pop()
            if pi < n_pat and pat[pi] == "#" and pi + 1 not in states:
                states.add(pi + 1)
                frontier.append(pi + 1)
        return states

    states = close({0})
    for seg in topic.split("."):
        nxt: set[int] = set()
        for pi in states:
            if pi >= n_pat:
                continue
            p = pat[pi]
            if p == "#":
                nxt.add(pi)          # '#' consumes the segment and stays
            elif p == "*" or p == seg:
                nxt.add(pi + 1)
        if not nxt:
            return False
        states = close(nxt)
    return n_pat in states


class _TrieNode:
    """One node of the compiled subscription trie."""

    __slots__ = ("edges", "star", "hash", "is_hash", "queues")

    def __init__(self, is_hash: bool = False) -> None:
        self.edges: dict[str, _TrieNode] = {}   # exact-segment children
        self.star: Optional[_TrieNode] = None   # '*' child (one segment)
        self.hash: Optional[_TrieNode] = None   # '#' child (zero or more)
        self.is_hash = is_hash
        # (binding order, queue name) terminals ending at this node.
        self.queues: list[tuple[int, str]] = []


class RouteIndex:
    """Compiled segment-trie over a broker's bindings.

    Built once from the binding list (exact segments, ``*`` and ``#``
    edges), then matched by simulating the resulting NFA over the topic's
    segments — one pass, no recursion, cost proportional to the live
    state set instead of the full binding list.  ``route()`` used to scan
    every binding and run :func:`topic_matches` per pattern; with
    thousands of subscriptions that linear scan dominated publish cost.

    The index is *routing-equivalent* to the scan by contract:
    :meth:`match` returns exactly the queues the oracle scan would push
    to, deduplicated, in first-binding order (covered exhaustively in
    tests/comm/test_bus_index.py).
    """

    def __init__(self, bindings: "list[tuple[str, str]]") -> None:
        self._root = _TrieNode()
        for order, (pattern, qname) in enumerate(bindings):
            self._insert(pattern.split("."), qname, order)

    def _insert(self, segments: list[str], qname: str, order: int) -> None:
        node = self._root
        for seg in segments:
            if seg == "*":
                if node.star is None:
                    node.star = _TrieNode()
                node = node.star
            elif seg == "#":
                if node.hash is None:
                    node.hash = _TrieNode(is_hash=True)
                node = node.hash
            else:
                child = node.edges.get(seg)
                if child is None:
                    child = node.edges[seg] = _TrieNode()
                node = child
        node.queues.append((order, qname))

    @staticmethod
    def _closure(nodes: "list[_TrieNode]") -> "list[_TrieNode]":
        """Nodes plus everything reachable through zero-width ``#`` hops."""
        out: list[_TrieNode] = []
        seen: set[int] = set()
        stack = list(nodes)
        while stack:
            node = stack.pop()
            marker = id(node)  # membership only, never an ordering key
            if marker in seen:
                continue
            seen.add(marker)
            out.append(node)
            if node.hash is not None:
                stack.append(node.hash)
        return out

    def match(self, topic: str) -> "tuple[str, ...]":
        """Queue names bound to ``topic``, deduplicated, in first-binding
        order (exactly the oracle scan's delivery set)."""
        active = self._closure([self._root])
        for seg in topic.split("."):
            nxt: list[_TrieNode] = []
            for node in active:
                child = node.edges.get(seg)
                if child is not None:
                    nxt.append(child)
                if node.star is not None:
                    nxt.append(node.star)
                if node.is_hash:
                    nxt.append(node)    # '#' consumes the segment in place
            if not nxt:
                return ()
            active = self._closure(nxt)
        first_order: dict[str, int] = {}
        for node in active:
            for order, qname in node.queues:
                prev = first_order.get(qname)
                if prev is None or order < prev:
                    first_order[qname] = order
        return tuple(q for _, q in
                     sorted((o, q) for q, o in first_order.items()))


class Queue:
    """A named broker-side queue with ack/nack redelivery semantics.

    A nacked message is redelivered immediately, the classic AMQP
    behaviour, until ``max_attempts`` deliveries dead-letter it.
    """

    def __init__(self, sim: "Simulator", name: str,
                 max_attempts: int = 5, site: str = "") -> None:
        if max_attempts < 1:
            raise ValueError("need max_attempts >= 1")
        self.sim = sim
        self.name = name
        self.max_attempts = max_attempts
        self._store: Store = Store(sim)
        self._unacked: dict[int, Envelope] = {}
        self.dead_letters: list[Envelope] = []
        labels = {"queue": name}
        if site:
            labels["site"] = site
        self.stats = sim.metrics.stats(
            "bus.queue",
            {"delivered": 0, "acked": 0, "nacked": 0, "dead": 0}, **labels)
        self._depth = sim.metrics.gauge("bus.queue.depth", **labels)

    def __len__(self) -> int:
        return len(self._store)

    def push(self, envelope: Envelope) -> None:
        self._store.put(envelope)
        self._depth.set(len(self._store))

    def get(self):
        """Event yielding the next envelope (must later be acked/nacked)."""
        ev = self._store.get()
        ev.callbacks.append(self._on_delivery)
        return ev

    def _on_delivery(self, event) -> None:
        if event._ok:
            env: Envelope = event.value
            self._unacked[env.message.msg_id] = env
            self.stats["delivered"] += 1
            self._depth.set(len(self._store))

    def ack(self, envelope: Envelope) -> None:
        """Confirm processing; the message will not be redelivered."""
        self._unacked.pop(envelope.message.msg_id, None)
        self.stats["acked"] += 1

    def nack(self, envelope: Envelope, requeue: bool = True) -> None:
        """Reject; requeue for redelivery (or dead-letter after too many)."""
        self._unacked.pop(envelope.message.msg_id, None)
        self.stats["nacked"] += 1
        if not requeue or envelope.attempt >= self.max_attempts:
            self.dead_letters.append(envelope)
            self.stats["dead"] += 1
            return
        envelope.attempt += 1
        self._requeue(envelope)

    def _requeue(self, envelope: Envelope) -> None:
        self._store.put(envelope)
        self._depth.set(len(self._store))

    @property
    def unacked_count(self) -> int:
        return len(self._unacked)


class Broker:
    """A message broker hosted at one site."""

    def __init__(self, sim: "Simulator", name: str, site: str) -> None:
        self.sim = sim
        self.name = name
        self.site = site
        self.alive = True
        self.queues: dict[str, Queue] = {}
        self._bindings: list[tuple[str, str]] = []  # (pattern, queue name)
        # Compiled lazily on first route after any (re)bind or liveness
        # change; None means "rebuild before next use".
        self._index: Optional[RouteIndex] = None
        self.stats = sim.metrics.stats(
            "bus.broker", {"published": 0, "routed": 0, "unroutable": 0},
            broker=name, site=site)
        self._index_hits = sim.metrics.counter(
            "bus.route_index_hits", broker=name, site=site)
        self._index_rebuilds = sim.metrics.counter(
            "bus.route_index_rebuilds", broker=name, site=site)

    def declare_queue(self, name: str, max_attempts: int = 5) -> Queue:
        if name not in self.queues:
            self.queues[name] = Queue(self.sim, name, max_attempts,
                                      site=self.site)
        return self.queues[name]

    def bind(self, queue_name: str, pattern: str) -> None:
        if queue_name not in self.queues:
            raise KeyError(f"no queue {queue_name!r} on broker {self.name!r}")
        self._bindings.append((pattern, queue_name))
        self._index = None  # invalidate: recompiled on next route

    def route(self, topic: str, envelope: Envelope) -> int:
        """Fan an envelope out to all queues bound to ``topic``."""
        if not self.alive:
            raise BrokerDown(self.name)
        self.stats["published"] += 1
        index = self._index
        if index is None:
            index = self._index = RouteIndex(self._bindings)
            self._index_rebuilds.inc()
        else:
            self._index_hits.inc()
        matched = 0
        for qname in index.match(topic):
            self.queues[qname].push(envelope)
            matched += 1
        if matched:
            self.stats["routed"] += matched
        else:
            self.stats["unroutable"] += 1
        return matched

    def kill(self) -> None:
        """Simulate broker crash (used by failover experiments)."""
        self.alive = False
        self._index = None  # conservative: recompile after a crash

    def revive(self) -> None:
        self.alive = True
        self._index = None


class MessageBus:
    """Client-facing facade over one or more brokers.

    Parameters
    ----------
    sim, network:
        Kernel and transport.
    gateway:
        Optional zero-trust gateway; when present every publish/consume is
        verified (see :mod:`repro.security.zerotrust`).

    Every broker and queue reports into ``sim.metrics``.
    """

    def __init__(self, sim: "Simulator", network: "Network",
                 gateway: Any = None) -> None:
        self.sim = sim
        self.network = network
        self.gateway = gateway
        self.brokers: dict[str, Broker] = {}

    def add_broker(self, name: str, site: str) -> Broker:
        if name in self.brokers:
            raise ValueError(f"duplicate broker {name!r}")
        broker = Broker(self.sim, name, site)
        self.brokers[name] = broker
        return broker

    def publish(self, broker_name: str, src_site: str, topic: str,
                message: Message, token: Optional[str] = None):
        """Generator: publish ``message`` to ``topic`` via ``broker_name``.

        Returns the number of queues the message was routed to.  Raises
        :class:`BrokerDown`, network errors, or security errors.
        """
        broker = self.brokers[broker_name]
        env = Envelope(message=message, src_site=src_site,
                       dst_site=broker.site, token=token,
                       enqueued_at=self.sim.now)
        yield self.network.send(src_site, broker.site, env.size_bytes())
        if not broker.alive:
            raise BrokerDown(broker_name)
        if self.gateway is not None:
            delay = self.gateway.verify(env, action="publish")
            if delay > 0:
                yield self.sim.timeout(delay)
        yield self.sim.timeout(ROUTING_DELAY_S)
        return broker.route(topic, env)

    def consume(self, broker_name: str, queue_name: str,
                consumer_site: str, token: Optional[str] = None):
        """Generator: pull the next envelope from a queue.

        Models the delivery leg from the broker's site to the consumer's
        site.  The caller must :meth:`Queue.ack`/:meth:`Queue.nack` the
        returned envelope.
        """
        broker = self.brokers[broker_name]
        if not broker.alive:
            raise BrokerDown(broker_name)
        queue = broker.queues[queue_name]
        env: Envelope = yield queue.get()
        if not broker.alive:
            # The broker died between delivery and handoff: requeue so the
            # message is redelivered after recovery (at-least-once).
            queue.nack(env)
            raise BrokerDown(broker_name)
        if self.gateway is not None:
            delay = self.gateway.verify(env, action="consume")
            if delay > 0:
                yield self.sim.timeout(delay)
        yield self.network.send(broker.site, consumer_site, env.size_bytes())
        return env
