#!/usr/bin/env python
"""Observability tour: traced campaigns, span trees, and metrics.

Runs a two-site federated campaign with the full :mod:`repro.obs` stack
wired in — a :class:`~repro.obs.trace.Tracer` turning the orchestrator's
plan/verify/execute/evaluate loop into a span tree, and the world's
:class:`~repro.obs.metrics.MetricsRegistry` (``built.metrics``, the
kernel's ``sim.metrics``) collecting counters and streaming latency
histograms from every layer (agents, LLM, verification, instruments,
HAL, transport, fault tolerance, campaign loop).

Everything is stamped with *simulation* time and a deterministic
sequence number: the exported JSON-lines trace is byte-identical across
runs from the same seed.

Run:  python examples/observability_tour.py
"""

import os
import tempfile

from repro import Testbed
from repro.core import CampaignSpec
from repro.labsci import QuantumDotLandscape
from repro.obs import load_jsonl, metrics_snapshot, write_jsonl

SEED = 11


def build():
    return (Testbed(seed=SEED)
            .with_tracing()          # span-tree tracing of every campaign
            .with_knowledge()        # cross-site knowledge sharing (M9)
            .site("site-0", landscape=QuantumDotLandscape(seed=7))
            .with_instruments(vendor="kelvin-sci")
            .site("site-1", landscape=QuantumDotLandscape(seed=8))
            .build())


def show_tree(node, depth=0):
    pad = "  " * depth
    attrs = {k: v for k, v in node["attrs"].items() if k != "error"}
    extra = f"  {attrs}" if attrs else ""
    print(f"{pad}{node['name']:<12} t+{node['start']:>9.1f}s  "
          f"dur {node['duration'] or 0.0:>8.1f}s{extra}")
    for child in node["children"]:
        show_tree(child, depth + 1)


def main() -> None:
    built = build()
    spec = CampaignSpec(name="obs-tour", objective_key="plqy", target=0.85,
                        max_experiments=12)
    result = built.run(spec, site="site-0")

    print("=== campaign ===")
    print(f"  {result.n_experiments} experiments, "
          f"best PLQY {result.best_value:.3f}, "
          f"stopped: {result.stop_reason}")

    # -- 1. the span tree: the campaign loop, replayed ---------------------
    print("\n=== span tree (first experiment) ===")
    campaign = built.tracer.span_tree()[0]
    show_tree({**campaign, "children": campaign["children"][:1]})

    # -- 2. JSON-lines export: same seed, same bytes -----------------------
    path = os.path.join(tempfile.gettempdir(), "obs_tour_trace.jsonl")
    n = write_jsonl(built.tracer, path)
    print(f"\n=== trace export ===\n  {n} events -> {path}")
    roundtrip = load_jsonl(path)
    assert [e.seq for e in roundtrip] == [e.seq for e in built.tracer.events]
    second = build()
    second.run(spec, site="site-0")
    path2 = os.path.join(tempfile.gettempdir(), "obs_tour_trace2.jsonl")
    write_jsonl(second.tracer, path2)
    with open(path, "rb") as a, open(path2, "rb") as b:
        identical = a.read() == b.read()
    print(f"  re-run from seed {SEED}: byte-identical = {identical}")
    assert identical, "determinism contract violated"

    # -- 3. the metrics registry: every layer, one snapshot ----------------
    print("\n=== metrics snapshot (site-0) ===")
    snap = metrics_snapshot(built.metrics, site="site-0")
    for name, value in snap["counters"].items():
        if value:
            print(f"  {name:<60} {value:g}")
    print("\n=== latency histograms ===")
    for name, summary in snap["histograms"].items():
        if summary["count"]:
            print(f"  {name}: n={summary['count']} "
                  f"p50={summary['p50']:.2f}s p95={summary['p95']:.2f}s "
                  f"p99={summary['p99']:.2f}s")


if __name__ == "__main__":
    main()
