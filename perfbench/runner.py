"""Closed-loop timed phases and the metrics computed from them.

One client, one process, no threads: the next op is issued only after
the previous one returns.  An untraced run reports the end-to-end
metrics; a traced run issues every episode twice, untraced and then
under :class:`~perfbench.tracing.Tracing`, and reports per-layer metrics,
the tracing overhead between the two, and whether both produced the same
digest.
"""

from __future__ import annotations

import functools
import itertools
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import numpy as np

from perfbench import tracing
from perfbench.clock import wall_clock
from perfbench.workloads import WORKLOADS
from repro.scale.hashing import combine_hashes, decision_hash

#: Fresh-interpreter imports, and world builds plus warm-up ops, timed
#: for ``setup_s``; the median of each counts.
SETUP_REPS = 3
#: A timed phase stops after this long even if it is short of samples,
#: so a run always exits well within its time limit.
HARD_CAP_S = 120.0
#: A reported top percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: Samples a p90 needs: ten beyond it.
P90_SAMPLES = 100


@dataclass
class Phase:
    """What one timed phase measured."""

    n_ops: int = 0
    failed: int = 0
    experiments: int = 0
    busy_s: float = 0.0  # sum of op latencies
    op_s: list[float] = field(default_factory=list)
    samples: dict[str, list[float]] = field(
        default_factory=lambda: {"read": [], "write": []})
    hashes: list[str] = field(default_factory=list)

    def issue(self, op: Any,
              rec: Optional[tracing.SpanRecorder] = None) -> None:
        """Time one op (inside a root span when traced), then check it
        and hash its output."""
        if rec is not None:
            rec.op = self.n_ops
            span = rec.open(tracing.OP_SPAN, tracing.OP_LAYER)
        t0 = wall_clock()
        try:
            out = op.call()
            error = None
        except Exception as exc:  # an op that raises is a failed op
            out, error = None, exc
        latency = wall_clock() - t0
        if rec is not None:
            rec.close(span)
        if error is None:
            ok, payload, experiments = op.check(out)
        else:
            ok, payload, experiments = False, f"error: {error!r}", 0
            print(f"op {self.n_ops} raised {error!r}")
        self.n_ops += 1
        self.failed += not ok
        self.experiments += experiments
        self.busy_s += latency
        self.op_s.append(latency)
        if op.kind in self.samples:
            self.samples[op.kind].append(latency)
        self.hashes.append(decision_hash(payload))

    def episode(self, ops: Iterator[Any],
                rec: Optional[tracing.SpanRecorder] = None) -> None:
        """Issue ops up to and including the next episode end."""
        while True:
            op = next(ops)
            self.issue(op, rec)
            if op.episode_end:
                return


def tail_ok(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least ten beyond quantile ``q``
    (a fraction: ``n * (1 - q)`` samples lie beyond it)."""
    return n * (1.0 - q) >= MIN_TAIL_SAMPLES - 1e-9


def _timer(fn: Callable, sink: list[float]) -> Callable:
    @functools.wraps(fn)
    def timed(*args: Any, **kwargs: Any) -> Any:
        t0 = wall_clock()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(wall_clock() - t0)
    return timed


def install_probes(workload: Any) -> dict[str, list[float]]:
    """Time the workload's read and write entry points on every call,
    for the rest of the process.

    Returns the sample lists; the runner empties them per phase.
    """
    sinks: dict[str, list[float]] = {"read": [], "write": []}
    patcher = tracing.Patcher()
    for kind, (module, cls_name, meth) in workload.probes.items():
        cls = tracing.resolve(module, cls_name)
        patcher.patch(cls, meth, _timer(cls.__dict__[meth], sinks[kind]))
    return sinks


def run_phase(workload: Any, seed: int, probes: dict[str, list[float]], *,
              seconds: float, min_ops: int,
              n_ops: Optional[int] = None) -> Phase:
    """Issue whole episodes until ``seconds`` have passed and ``min_ops``
    are done; with ``n_ops``, issue exactly that many ops instead."""
    for sink in probes.values():
        sink.clear()
    phase = Phase()
    ops = workload.ops(seed)
    start = wall_clock()
    if n_ops is not None:
        for op in itertools.islice(ops, n_ops):
            phase.issue(op)
    else:
        while True:
            phase.episode(ops)
            elapsed = wall_clock() - start
            if (elapsed >= seconds and phase.n_ops >= min_ops) \
                    or elapsed >= HARD_CAP_S:
                break
    for kind, sink in probes.items():
        phase.samples[kind].extend(sink)
    return phase


def run_traced(workload: Any, seed: int, *, seconds: float, min_ops: int,
               ) -> "tuple[Phase, Phase, tracing.SpanRecorder]":
    """Issue each episode twice, untraced and traced, from two streams
    of the same seed, until ``seconds`` have passed and ``min_ops``
    untraced ops are done.

    Pairing the episodes in time keeps slow drifts of the host's speed
    out of the traced-to-untraced comparison; alternating which of the
    pair goes first cancels any advantage of going second.
    """
    rec = tracing.SpanRecorder(wall_clock)
    tracer = tracing.Tracing(rec)
    plain, traced = Phase(), Phase()
    plain_ops, traced_ops = workload.ops(seed), workload.ops(seed)
    start = wall_clock()
    for pair in itertools.count():
        if pair % 2 == 0:
            plain.episode(plain_ops)
        tracer.install()
        try:
            traced.episode(traced_ops, rec)
        finally:
            tracer.uninstall()
        rec.harvest()
        if pair % 2 == 1:
            plain.episode(plain_ops)
        elapsed = wall_clock() - start
        if (elapsed >= seconds and plain.n_ops >= min_ops) \
                or elapsed >= HARD_CAP_S:
            return plain, traced, rec


def environment() -> dict[str, Any]:
    """The box the numbers came from; compare runs only when it matches."""
    import networkx
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "machine": platform.machine(),
    }


def time_imports(root: Path) -> float:
    """Median host time for a fresh interpreter to start and import the
    benchmark and the simulator (a second import in this process would
    cost nothing)."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root), str(root / "src")]))
    times = []
    for _ in range(SETUP_REPS):
        start = wall_clock()
        subprocess.run([sys.executable, "-c", "import perfbench.runner"],
                       cwd=root, env=env, check=True, timeout=120)
        times.append(wall_clock() - start)
    return statistics.median(times)


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def _ms_quantile(samples: list[float], q: float) -> float:
    """Linear-interpolated quantile in ms; 0 for a layer never called."""
    return 1e3 * float(np.quantile(samples, q)) if samples else 0.0


def end_to_end(phase: Phase, setup_s: float) -> dict[str, dict[str, Any]]:
    """Host-time metrics of one untraced phase."""
    m = {"setup_s": _metric(setup_s, "s"),
         "experiments_per_s": _metric(phase.experiments / phase.busy_s, "1/s"),
         "op_ms_p50": _metric(_ms_quantile(phase.op_s, 0.5), "ms"),
         "op_ms_p90": _metric(_ms_quantile(phase.op_s, 0.9), "ms"),
         "ops_per_s": _metric(phase.n_ops / phase.busy_s, "1/s")}
    for kind in ("read", "write"):
        for q in (50, 90):
            m[f"{kind}_ms_p{q}"] = _metric(
                _ms_quantile(phase.samples[kind], q / 100), "ms")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m["peak_rss_mb"] = _metric(peak_kb / 1024.0, "MB")
    return m


def _p50_ms(rec: tracing.SpanRecorder, *names: str) -> float:
    return _ms_quantile(tracing.outer_durations(rec, names), 0.5)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rec: tracing.SpanRecorder, untraced: Phase,
              traced: Phase) -> dict[str, dict[str, Any]]:
    """Per-op layer metrics of a traced phase and its untraced twin."""
    n = traced.n_ops
    op_time = sum(tracing.outer_durations(rec, [tracing.OP_SPAN]))
    own = tracing.self_time_by_layer(rec)
    calls = tracing.calls_by_layer(rec)
    m: dict[str, dict[str, Any]] = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.calls"] = _metric(calls.get(layer, 0) / n, "1/op")
        m[f"{layer}.self_ms"] = _metric(1e3 * own.get(layer, 0.0) / n,
                                        "ms/op")
        m[f"{layer}.share"] = _metric(_ratio(own.get(layer, 0.0), op_time),
                                      "ratio")
    c, s = rec.calls, rec.stats
    m["sim.events"] = _metric(rec.events / n, "1/op")
    m["sim.host_us_per_event"] = _metric(
        _ratio(1e6 * untraced.busy_s, rec.events), "us")
    m["methods.asks"] = _metric(c["BayesianOptimizer.ask"] / n, "1/op")
    m["methods.ask_ms_p50"] = _metric(
        _p50_ms(rec, "BayesianOptimizer.ask"), "ms")
    m["methods.tell_ms_p50"] = _metric(
        _p50_ms(rec, "BayesianOptimizer.tell"), "ms")
    m["labsci.evals"] = _metric(rec.evals / n, "1/op")
    plans = s["VerificationStack.plans"]
    m["core.plan_accept_ratio"] = _metric(
        _ratio(plans - s["VerificationStack.rejected"], plans), "ratio")
    m["net.sends"] = _metric(c["Network.send"] / n, "1/op")
    m["net.route_ms_p50"] = _metric(_p50_ms(rec, "Network.route"), "ms")
    transfers = s["Network.transfers"]
    m["net.delivered_ratio"] = _metric(_ratio(
        transfers - s["Network.lost"] - s["Network.unreachable"],
        transfers), "ratio")
    m["data.query_ms_p50"] = _metric(
        _p50_ms(rec, "ShardedDiscoveryIndex.query"), "ms")
    m["data.ingest_ms_p50"] = _metric(_p50_ms(rec, "DataMeshNode.ingest"),
                                      "ms")
    hits = s["ShardedDiscoveryIndex.index_hits"]
    m["data.index_hit_ratio"] = _metric(_ratio(
        hits, hits + s["ShardedDiscoveryIndex.index_misses"]), "ratio")
    m["service.selects"] = _metric(c["FairShareScheduler.select"] / n,
                                   "1/op")
    submits = c["CampaignService.submit"]
    m["service.admit_ratio"] = _metric(_ratio(
        submits - rec.raised["CampaignService.submit"], submits), "ratio")
    m["obs.events"] = _metric((c["Tracer.span"] + c["Tracer.instant"]) / n,
                              "1/op")
    m["trace.overhead_frac"] = _metric(
        traced.busy_s / untraced.busy_s - 1.0, "ratio")
    return m


def _report(name: str, metric: dict[str, Any], note: str = "") -> None:
    print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}{note}")


def run(name: str, seed: int, seconds: float, trace: bool, *,
        root: Path) -> dict[str, Any]:
    """Run one workload and return the result object the CLI prints."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name]
    probes = install_probes(workload)
    reps = []
    for rep in range(SETUP_REPS):
        start = wall_clock()
        op = next(workload.ops(seed + 7919 * (rep + 1)))
        op.check(op.call())
        reps.append(wall_clock() - start)
    import_s = time_imports(root)
    setup_s = import_s + statistics.median(reps)
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"  env {environment()}")
    print(f"  setup: start and imports {import_s:.3f} s + world build and "
          f"warm-up op {statistics.median(reps):.3f} s (medians of "
          f"{SETUP_REPS})")

    problems = []
    if not trace:
        phase = run_phase(workload, seed, probes, seconds=seconds,
                          min_ops=max(workload.digest_ops, P90_SAMPLES))
        metrics = end_to_end(phase, setup_s)
        for label, samples in (("op", phase.op_s),
                               ("read", phase.samples["read"]),
                               ("write", phase.samples["write"])):
            if not tail_ok(len(samples), 0.9):
                problems.append(f"{label}_ms_p90 has only {len(samples)} "
                                f"samples")
        counts = {"op": len(phase.op_s), "read": len(phase.samples["read"]),
                  "write": len(phase.samples["write"])}
        for key, metric in metrics.items():
            kind = key.split("_ms_")[0] if "_ms_" in key else ""
            _report(key, metric, f"  (n={counts[kind]})" if kind else "")
        attempted, failed = phase.n_ops, phase.failed
    else:
        untraced, phase, rec = run_traced(workload, seed, seconds=seconds,
                                          min_ops=workload.digest_ops)
        if phase.hashes != untraced.hashes:
            problems.append("traced digest differs from untraced digest")
        metrics = per_layer(rec, untraced, phase)
        for key, metric in metrics.items():
            _report(key, metric)
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{name}-seed{seed}.npz"
        rec.dump(str(spans_path))
        print(f"  spans: {len(rec)} written to {spans_path}")
        attempted = untraced.n_ops + phase.n_ops
        failed = untraced.failed + phase.failed
    digest = combine_hashes(phase.hashes[:workload.digest_ops])
    print(f"  digest {digest} (first {workload.digest_ops} ops); "
          f"all {phase.n_ops} ops {combine_hashes(phase.hashes)}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for problem in problems:
        print(f"  NOT CORRECT: {problem}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}
