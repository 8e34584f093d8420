"""Unified observability: deterministic tracing and metrics (§3.3, M8/M11).

The paper's milestones are quantitative — M8's 3x orchestration speedup,
M9's >30% experiment reduction, M11's sub-second zero-trust latency — so
the reproduction needs a way to see *inside* a run without perturbing it.
This package provides that instrumentation layer:

- :mod:`repro.obs.trace` — a :class:`~repro.obs.trace.Tracer` emitting
  structured, sim-timestamped :class:`~repro.obs.trace.TraceEvent`\\ s
  with span helpers for the orchestrator's plan/verify/execute/evaluate
  phases.  Zero wall-clock reads: two seeded runs export byte-identical
  traces.
- :mod:`repro.obs.metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`
  of counters, gauges, and streaming histograms (p50/p95/p99 without
  storing samples) that reads every component's ``stats`` dict; each
  world has one, on ``sim.metrics``.
- :mod:`repro.obs.export` — JSON-lines trace export and per-site metrics
  snapshots used by the benchmarks.

Untraced runs pay ~nothing: the kernel hooks default to ``None`` and the
orchestrator's default tracer is the no-op :data:`NULL_TRACER`.
"""

from repro.obs.export import (TraceSpillWriter, load_jsonl, metrics_snapshot,
                              to_jsonl, write_jsonl)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.rollup import WindowedCounter
from repro.obs.trace import NULL_TRACER, NullTracer, TraceEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "TraceSpillWriter",
    "Tracer",
    "WindowedCounter",
    "load_jsonl",
    "metrics_snapshot",
    "to_jsonl",
    "write_jsonl",
]
