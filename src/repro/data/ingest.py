"""Telemetry ingest: instruments -> message bus -> data mesh.

Connects dimension 4's middleware to dimension 2's fabric, as Fig. 1
draws it: instruments publish measurements to AMQP-style topics
(``telemetry.<site>.<instrument-kind>``); a :class:`MeshIngestor` at the
data node consumes its queue, lifts envelopes into
:class:`~repro.data.record.DataRecord` objects, and hands them to the
stream-processing layer (quality assessment + intelligent reduction)
before they land in the mesh.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.comm.bus import BrokerDown, MessageBus
from repro.comm.message import Message, Performative
from repro.data.record import DataRecord
from repro.data.streams import StreamProcessor
from repro.instruments.base import Measurement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator


class TelemetryPublisher:
    """Instrument-side: publish measurements onto the bus."""

    def __init__(self, sim: "Simulator", bus: MessageBus, broker: str,
                 site: str, token=None) -> None:
        self.sim = sim
        self.bus = bus
        self.broker = broker
        self.site = site
        self.token = token
        self.stats = sim.metrics.stats(
            "ingest.publisher", {"published": 0, "failed": 0}, site=site)

    @staticmethod
    def topic_for(measurement: Measurement) -> str:
        return f"telemetry.{measurement.site}.{measurement.kind}"

    def publish(self, measurement: Measurement):
        """Generator: ship one measurement to the broker."""
        msg = Message(performative=Performative.INFORM,
                      sender=measurement.instrument,
                      recipient=self.topic_for(measurement),
                      payload=measurement)
        try:
            routed = yield from self.bus.publish(
                self.broker, self.site, self.topic_for(measurement), msg,
                token=self.token)
        except BrokerDown:
            self.stats["failed"] += 1
            return 0
        self.stats["published"] += 1
        return routed


class MeshIngestor:
    """Data-node side: drain a telemetry queue into the stream processor.

    Parameters
    ----------
    sim, bus, broker, queue:
        Where to consume from.
    site / institution:
        Identity stamped onto ingested records.
    stream:
        The quality/reduction pipeline records flow through (its sink is
        typically the site's mesh node).
    """

    def __init__(self, sim: "Simulator", bus: MessageBus, broker: str,
                 queue: str, site: str, institution: str,
                 stream: StreamProcessor, token=None) -> None:
        self.sim = sim
        self.bus = bus
        self.broker = broker
        self.queue_name = queue
        self.site = site
        self.institution = institution
        self.stream = stream
        self.token = token
        self.stats = sim.metrics.stats(
            "ingest.consumer", {"consumed": 0, "malformed": 0}, site=site)
        self._proc = None

    def start(self) -> None:
        if self._proc is not None:
            raise RuntimeError("ingestor already running")
        self._proc = self.sim.process(self._run())

    def _run(self):
        queue = self.bus.brokers[self.broker].queues[self.queue_name]
        # detlint: ignore[C003] consumer drain loop, not a retry: each pass takes a fresh envelope; BrokerDown parks until revival
        while True:
            try:
                envelope = yield from self.bus.consume(
                    self.broker, self.queue_name, consumer_site=self.site,
                    token=self.token)
            except BrokerDown:
                # Broker outage: back off and retry (at-least-once overall).
                yield self.sim.timeout(5.0)
                continue
            payload = envelope.message.payload
            if isinstance(payload, Measurement):
                record = DataRecord.from_measurement(
                    payload, institution=self.institution)
                self.stream.submit(record)
                self.stats["consumed"] += 1
                queue.ack(envelope)
            else:
                self.stats["malformed"] += 1
                # Malformed telemetry is not requeued; it dead-letters.
                queue.nack(envelope, requeue=False)


def wire_site_telemetry(sim: "Simulator", bus: MessageBus, broker_name: str,
                        site: str, institution: str,
                        stream: StreamProcessor, token=None,
                        ) -> tuple[TelemetryPublisher, MeshIngestor]:
    """Declare the queue/binding and return a (publisher, ingestor) pair."""
    broker = bus.brokers[broker_name]
    queue = f"telemetry.{site}"
    broker.declare_queue(queue)
    broker.bind(queue, f"telemetry.{site}.#")
    publisher = TelemetryPublisher(sim, bus, broker_name, site, token=token)
    ingestor = MeshIngestor(sim, bus, broker_name, queue, site, institution,
                            stream, token=token)
    return publisher, ingestor
