"""Per-layer attribution by wrapping public ``repro`` entry points.

Nothing in ``src/`` knows it is being measured: :class:`Tracing` swaps
class attributes for timing wrappers at run time and puts the originals
back on :meth:`Tracing.uninstall`.

- A plain entry point becomes one span per call.
- A generator entry point returns a :class:`GenProxy`, which opens one
  span per resume (``send``/``throw``/``next``), so simulated waits are
  never counted as host time.
- ``Simulator.process`` wraps the generator it is handed in a proxy
  attributed to the layer whose module defines the generator, so service
  and orchestrator loops are not counted as kernel time.

A span has a name, layer, start, end, parent (the index of the enclosing
span, ``-1`` for none) and the benchmark op it belongs to.  Spans nest
strictly because the simulator is one thread, so a layer's self time is
its span time minus its children's.  numpy, scipy and networkx are never
wrapped: their time stays with the calling layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterable

import numpy as np

#: Layers with a workload that stresses them.
MEASURED_LAYERS = ("sim", "methods", "labsci", "instruments", "agents",
                   "core", "net", "data", "service", "obs")
#: Layers under 1 % of host time everywhere; reported where they appear.
MINOR_LAYERS = ("comm", "security", "resilience", "hitl")
LAYERS = MEASURED_LAYERS + MINOR_LAYERS

#: Root span around each benchmark op; its self time is the driver's.
OP_SPAN = "op"
OP_LAYER = "bench"

# (module, class, methods) — every subclass override is wrapped too.
ENTRY_POINTS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("repro.sim.kernel", "Simulator", ("run",)),
    ("repro.methods.bayesopt", "BayesianOptimizer", ("ask", "tell")),
    ("repro.methods.gp", "GaussianProcess",
     ("fit", "observe", "predict", "fit_hyperparameters")),
    ("repro.labsci.landscapes", "ParameterSpace",
     ("sample", "sample_batch", "encode_batch")),
    ("repro.labsci.landscapes", "Landscape",
     ("evaluate", "evaluate_batch", "objective_value", "objective_batch")),
    ("repro.instruments.base", "Instrument", ("operate",)),
    ("repro.instruments.hal", "HardwareAbstractionLayer", ("execute",)),
    ("repro.agents.planner", "PlannerAgent", ("next_plan",)),
    ("repro.agents.executor", "ExecutorAgent", ("execute",)),
    ("repro.agents.evaluator", "EvaluatorAgent", ("evaluate",)),
    ("repro.core.verification", "VerificationStack", ("verify",)),
    ("repro.core.orchestrator", "HierarchicalOrchestrator",
     ("run_campaign",)),
    ("repro.core.knowledge", "KnowledgeBase", ("publish", "sync")),
    ("repro.net.transport", "Network", ("send", "route")),
    ("repro.net.topology", "Topology", ("path",)),
    ("repro.data.mesh", "DataMeshNode", ("ingest", "fetch")),
    ("repro.data.mesh", "FederatedDataMesh", ("discover", "fetch")),
    ("repro.data.shard", "ShardedDiscoveryIndex",
     ("publish", "query", "get")),
    ("repro.data.fair", "FairGovernor", ("audit",)),
    ("repro.data.provenance", "ProvenanceGraph",
     ("entity", "activity", "agent", "was_generated_by",
      "was_associated_with", "was_derived_from")),
    ("repro.service.service", "CampaignService", ("submit",)),
    ("repro.service.scheduler", "FairShareScheduler", ("select", "enqueue")),
    ("repro.obs.trace", "Tracer", ("span", "instant")),
    ("repro.obs.metrics", "MetricsRegistry",
     ("counter", "gauge", "histogram", "stats")),
    ("repro.obs.metrics", "Histogram", ("observe",)),
    ("repro.comm.bus", "MessageBus", ("publish",)),
    ("repro.comm.rpc", "RpcClient", ("call",)),
    ("repro.security.zerotrust", "ZeroTrustGateway",
     ("verify", "verify_resource")),
    ("repro.resilience.policy", "CircuitBreaker", ("allow",)),
    ("repro.hitl.override", "OperatorOverride", ("validate",)),
)

#: Landscape calls whose rows count as evaluations (outermost call only).
_EVAL_ROWS: dict[str, Callable[[tuple], int]] = {
    "Landscape.evaluate": lambda args: 1,
    "Landscape.objective_value": lambda args: 1,
    "Landscape.evaluate_batch": lambda args: len(args[1]),
    "Landscape.objective_batch": lambda args: len(args[1]),
}

#: Instances whose own counters feed the ratio metrics, harvested per
#: episode: (module, class, stats keys).
_STATS_SOURCES = (
    ("repro.core.verification", "VerificationStack", ("plans", "rejected")),
    ("repro.net.transport", "Network", ("transfers", "lost", "unreachable")),
    ("repro.data.shard", "ShardedDiscoveryIndex",
     ("index_hits", "index_misses")),
)


def layer_of_module(module: str) -> str:
    """``repro.<layer>...`` -> layer; the benchmark's own code -> bench."""
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    if parts[0] == "perfbench":
        return OP_LAYER
    return "other"


def resolve(module: str, name: str) -> type:
    return getattr(importlib.import_module(module), name)


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every subclass, in a deterministic order."""
    seen = {cls: None}
    todo = [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen[sub] = None
                todo.append(sub)
    return list(seen)


def import_layers() -> None:
    """Import every module of every layer, so subclasses can be found."""
    for layer in LAYERS:
        pkg = importlib.import_module(f"repro.{layer}")
        for info in pkgutil.walk_packages(pkg.__path__, f"repro.{layer}."):
            importlib.import_module(info.name)


class SpanRecorder:
    """Span store plus the counters the wrappers bump.

    Spans live in parallel typed arrays (about 30 bytes each), so a
    traced phase of millions of resumes stays small in memory.
    ``kinds`` maps a span's kind id to its ``(name, layer)``.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.kinds: list[tuple[str, str]] = []
        self._kind_id: dict[tuple[str, str], int] = {}
        self.kind = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self._stack: list[int] = []
        self.op = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.raised: dict[str, int] = defaultdict(int)
        self.layer_of: dict[str, str] = {}
        self.evals = 0
        self._eval_depth = 0
        self.events = 0
        self.stats: dict[str, float] = defaultdict(float)
        self._instances: list[tuple[str, Any, tuple[str, ...]]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def open(self, name: str, layer: str) -> int:
        key = (name, layer)
        kid = self._kind_id.get(key)
        if kid is None:
            kid = self._kind_id[key] = len(self.kinds)
            self.kinds.append(key)
        idx = len(self.starts)
        self.kind.append(kid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def count_event(self, _time: float, _event: Any) -> None:
        """``Simulator.step_hook``: one call per processed event."""
        self.events += 1

    def harvest(self) -> None:
        """Fold the counters of instances built this episode, then drop
        them so finished worlds can be freed."""
        for name, obj, keys in self._instances:
            for key in keys:
                self.stats[f"{name}.{key}"] += obj.stats[key]
        self._instances.clear()

    def dump(self, path: str) -> None:
        """Write the span columns to an ``.npz`` file; ``kinds`` holds
        ``layer:name`` per kind id."""
        np.savez(path, kinds=np.array([f"{layer}:{name}"
                                       for name, layer in self.kinds]),
                 kind=np.frombuffer(self.kind, dtype=np.int32),
                 start=np.frombuffer(self.starts), end=np.frombuffer(self.ends),
                 parent=np.frombuffer(self.parents, dtype=np.int32),
                 op=np.frombuffer(self.ops, dtype=np.int32))


class GenProxy:
    """Pass-through generator that opens one span per resume.

    Supports everything ``yield from`` and the simulator's ``Process``
    use: iteration, ``send``, ``throw`` and ``close``; the wrapped
    generator's return value arrives unchanged in ``StopIteration``.
    """

    __slots__ = ("_gen", "_rec", "_name", "_layer")

    def __init__(self, gen: Any, rec: SpanRecorder, name: str,
                 layer: str) -> None:
        self._gen = gen
        self._rec = rec
        self._name = name
        self._layer = layer

    @property
    def __name__(self) -> str:
        return getattr(self._gen, "__name__", self._name)

    def __iter__(self) -> "GenProxy":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        rec = self._rec
        idx = rec.open(self._name, self._layer)
        try:
            return self._gen.send(value)
        finally:
            rec.close(idx)

    def throw(self, *exc: Any) -> Any:
        rec = self._rec
        idx = rec.open(self._name, self._layer)
        try:
            return self._gen.throw(*exc)
        finally:
            rec.close(idx)

    def close(self) -> None:
        self._gen.close()


def _span_wrapper(fn: Callable, rec: SpanRecorder, name: str,
                  layer: str) -> Callable:
    rec.layer_of[name] = layer
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_entry(*args: Any, **kwargs: Any) -> GenProxy:
            rec.calls[name] += 1
            return GenProxy(fn(*args, **kwargs), rec, name, layer)
        return gen_entry

    rows = _EVAL_ROWS.get(name)

    @functools.wraps(fn)
    def entry(*args: Any, **kwargs: Any) -> Any:
        rec.calls[name] += 1
        if rows is not None:
            if rec._eval_depth == 0:
                rec.evals += rows(args)
            rec._eval_depth += 1
        idx = rec.open(name, layer)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec.raised[name] += 1
            raise
        finally:
            rec.close(idx)
            if rows is not None:
                rec._eval_depth -= 1
    return entry


class Patcher:
    """Replaces class attributes and restores them in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, Any]] = []

    def patch(self, cls: type, attr: str, wrapper: Any) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)


class Tracing:
    """Installs span wrappers on :data:`ENTRY_POINTS` into one recorder."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._patcher = Patcher()
        import_layers()

    def install(self) -> None:
        rec = self.rec
        for module, cls_name, methods in ENTRY_POINTS:
            base = resolve(module, cls_name)
            layer = layer_of_module(module)
            for cls in _subclasses(base):
                for meth in methods:
                    if meth in cls.__dict__:
                        self._patcher.patch(cls, meth, _span_wrapper(
                            cls.__dict__[meth], rec, f"{cls_name}.{meth}",
                            layer))
        self._install_kernel_hooks()
        for module, cls_name, keys in _STATS_SOURCES:
            self._collect_instances(resolve(module, cls_name), keys)

    def _install_kernel_hooks(self) -> None:
        from repro.sim.kernel import Simulator
        rec = self.rec
        init = Simulator.__init__
        process = Simulator.process
        rec.layer_of["Simulator.process"] = "sim"

        @functools.wraps(init)
        def counting_init(sim: Any, *args: Any, **kwargs: Any) -> None:
            init(sim, *args, **kwargs)
            sim.step_hook = rec.count_event

        @functools.wraps(process)
        def attributed_process(sim: Any, generator: Any) -> Any:
            rec.calls["Simulator.process"] += 1
            if not isinstance(generator, GenProxy):
                frame = getattr(generator, "gi_frame", None)
                layer = layer_of_module(
                    frame.f_globals.get("__name__", "") if frame else "")
                generator = GenProxy(
                    generator, rec,
                    getattr(generator, "__qualname__", "process"), layer)
            idx = rec.open("Simulator.process", "sim")
            try:
                return process(sim, generator)
            finally:
                rec.close(idx)

        self._patcher.patch(Simulator, "__init__", counting_init)
        self._patcher.patch(Simulator, "process", attributed_process)

    def _collect_instances(self, cls: type, keys: tuple[str, ...]) -> None:
        rec = self.rec
        init = cls.__init__

        @functools.wraps(init)
        def collecting_init(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            rec._instances.append((cls.__name__, obj, keys))

        self._patcher.patch(cls, "__init__", collecting_init)

    def uninstall(self) -> None:
        self._patcher.restore()


# -- offline analysis ---------------------------------------------------------


def self_times(rec: SpanRecorder) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    starts, ends, parents = rec.starts, rec.ends, rec.parents
    own = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    return own


def self_time_by_layer(rec: SpanRecorder) -> dict[str, float]:
    """Total self seconds per layer."""
    totals: dict[str, float] = defaultdict(float)
    kinds = rec.kinds
    for kid, own in zip(rec.kind, self_times(rec)):
        totals[kinds[kid][1]] += own
    return dict(totals)


def outer_durations(rec: SpanRecorder, names: Iterable[str]) -> list[float]:
    """Durations of spans named in ``names`` not nested in another such
    span (a subclass override calling ``super()`` is counted once)."""
    wanted = {kid for kid, (name, _) in enumerate(rec.kinds) if name in names}
    kind, parents = rec.kind, rec.parents

    def nested(i: int) -> bool:
        parent = parents[i]
        while parent >= 0:
            if kind[parent] in wanted:
                return True
            parent = parents[parent]
        return False

    return [rec.ends[i] - rec.starts[i] for i, kid in enumerate(kind)
            if kid in wanted and not nested(i)]


def calls_by_layer(rec: SpanRecorder) -> dict[str, int]:
    totals: dict[str, int] = defaultdict(int)
    for name, n in rec.calls.items():
        totals[rec.layer_of.get(name, "other")] += n
    return dict(totals)
