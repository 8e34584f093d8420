"""Counters, gauges, and streaming histograms for every AISLE layer.

Every simulated world has exactly one :class:`MetricsRegistry`, owned by
the kernel as ``sim.metrics``.  Components that hold a ``sim`` register
their public ``.stats`` mapping — a plain ``dict`` — once, in their
constructor, through :meth:`MetricsRegistry.stats`; the registry reads
those dicts whenever it is snapshotted, so one registry sees the whole
federation and the benchmarks can snapshot it per site.

Histograms are *streaming*: fixed geometric buckets give p50/p95/p99
estimates (bounded relative error) without storing samples, so a
million-transfer campaign costs O(buckets), not O(samples).
"""

from __future__ import annotations

import math
from typing import Any, Optional

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically-increasing (by convention) numeric metric."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def merge_from(self, other: "Counter") -> None:
        """Shard-merge: tallies add."""
        self.value += other.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {render_name(self.name, self.labels)}={self.value}>"


class Gauge:
    """A point-in-time numeric metric (queue depth, backlog, ...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def merge_from(self, other: "Gauge") -> None:
        """Shard-merge: gauges *sum* — per-shard queue depths, backlogs,
        and ring sizes aggregate into the federation-wide quantity."""
        self.value += other.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {render_name(self.name, self.labels)}={self.value}>"


class Histogram:
    """Streaming histogram with geometric buckets.

    Bucket ``i >= 1`` covers ``(lo * growth**(i-1), lo * growth**i]``;
    bucket 0 covers ``[0, lo]``.  Quantiles interpolate inside the
    landing bucket and clamp to the observed min/max, so the estimate's
    relative error is bounded by ``growth - 1`` (default ~15%, plenty for
    the order-of-magnitude latency claims in E1/E4).

    Parameters
    ----------
    lo:
        Upper edge of the first bucket; observations at or below land
        there.  Default 1 microsecond — below any simulated latency.
    growth:
        Geometric ratio between consecutive bucket edges.
    """

    __slots__ = ("name", "labels", "lo", "growth", "_log_growth", "_counts",
                 "count", "total", "_min", "_max")

    def __init__(self, name: str, labels: LabelKey = (), *,
                 lo: float = 1e-6, growth: float = 1.15) -> None:
        if lo <= 0 or growth <= 1:
            raise ValueError("need lo > 0 and growth > 1")
        self.name = name
        self.labels = labels
        self.lo = lo
        self.growth = growth
        self._log_growth = math.log(growth)
        self._counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, x: float) -> None:
        x = float(x)
        if x <= self.lo:
            idx = 0
        else:
            idx = 1 + int(math.log(x / self.lo) / self._log_growth)
        self._counts[idx] = self._counts.get(idx, 0) + 1
        self.count += 1
        self.total += x
        self._min = min(self._min, x)
        self._max = max(self._max, x)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) of observations."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self.count:
            return 0.0
        rank = q * self.count
        cum = 0
        for idx in sorted(self._counts):
            n = self._counts[idx]
            if cum + n >= rank:
                lower = 0.0 if idx == 0 else self.lo * self.growth ** (idx - 1)
                upper = self.lo * self.growth ** idx
                frac = (rank - cum) / n
                est = lower + (upper - lower) * frac
                return min(max(est, self._min), self._max)
            cum += n
        return self._max

    def merge_from(self, other: "Histogram") -> None:
        """Shard-merge: bucket-wise addition (a mergeable sketch).

        Geometric buckets make the sketch closed under merge — two
        shards' histograms with the same ``(lo, growth)`` combine
        exactly, with the same bounded relative error as one histogram
        observing both streams.
        """
        if (self.lo, self.growth) != (other.lo, other.growth):
            raise ValueError(
                f"cannot merge histograms with different bucket geometry: "
                f"(lo={self.lo}, growth={self.growth}) vs "
                f"(lo={other.lo}, growth={other.growth})")
        for idx, n in other._counts.items():
            self._counts[idx] = self._counts.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def bucket_state(self) -> dict[str, Any]:
        """Plain-data sketch state (picklable; see ``Registry.state``)."""
        return {"lo": self.lo, "growth": self.growth,
                "counts": {int(i): int(self._counts[i])
                           for i in sorted(self._counts)},
                "count": self.count, "total": self.total,
                "min": self._min, "max": self._max}

    def merge_bucket_state(self, state: dict[str, Any]) -> None:
        """Merge a :meth:`bucket_state` dump (cross-process shard path)."""
        if (self.lo, self.growth) != (state["lo"], state["growth"]):
            raise ValueError(
                "cannot merge histogram state with different geometry")
        for idx, n in state["counts"].items():
            idx = int(idx)
            self._counts[idx] = self._counts.get(idx, 0) + int(n)
        self.count += state["count"]
        self.total += state["total"]
        self._min = min(self._min, state["min"])
        self._max = max(self._max, state["max"])

    def percentiles(self) -> dict[str, float]:
        """The p50/p95/p99 trio the milestone claims are stated in."""
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}

    def summary(self) -> dict[str, float]:
        out = {"count": self.count, "mean": self.mean,
               "min": self._min if self.count else 0.0,
               "max": self._max if self.count else 0.0}
        out.update(self.percentiles())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Histogram {render_name(self.name, self.labels)} "
                f"n={self.count}>")


def render_name(name: str, labels: LabelKey) -> str:
    """Prometheus-ish rendering: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create registry of every metric in one simulated world.

    Metrics are keyed by ``(name, sorted labels)``; asking twice returns
    the same object, so components in one world aggregate naturally.
    Registered ``stats`` dicts stay owned by their component: each keeps
    its own tally, and the registry folds them in as counters when read.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        self._stats: list[tuple[str, LabelKey, dict[str, float]]] = []

    # -- factories ---------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter(name, key[1])
        return c

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge(name, key[1])
        return g

    def histogram(self, name: str, *, lo: float = 1e-6,
                  growth: float = 1.15, **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(name, key[1], lo=lo,
                                                  growth=growth)
        return h

    def stats(self, prefix: str, initial: dict[str, float],
              **labels: Any) -> dict[str, float]:
        """A component's plain ``stats`` dict, read as counters.

        Returns a fresh dict holding ``initial``; every key in it —
        including keys the component adds later — appears in
        :meth:`snapshot` and :meth:`state` as counter ``prefix.<key>``
        with ``labels``.  Dicts registered under the same prefix and
        labels each keep their own tally; the registry reports the sum.
        """
        counters = dict(initial)
        self._stats.append((prefix, _label_key(labels), counters))
        return counters

    def _counter_values(self) -> dict[tuple[str, LabelKey], float]:
        """Every counter's value, registered ``stats`` dicts folded in."""
        values = {key: c.value for key, c in self._counters.items()}
        for prefix, labels, counters in self._stats:
            for key, value in counters.items():
                full = (f"{prefix}.{key}", labels)
                if full in values:
                    value += values[full]
                values[full] = value
        return values

    # -- introspection -----------------------------------------------------

    def _selected(self, metrics: dict, site: Optional[str]):
        for (name, labels), metric in sorted(metrics.items()):
            if site is not None and ("site", site) not in labels:
                continue
            yield render_name(name, labels), metric

    def snapshot(self, site: Optional[str] = None) -> dict[str, Any]:
        """Plain-data dump of every metric (optionally one site's).

        Deterministically ordered, JSON-serializable; the shape the
        benchmarks and :func:`repro.obs.export.metrics_snapshot` consume.
        """
        return {
            "counters": dict(self._selected(self._counter_values(), site)),
            "gauges": {n: g.value
                       for n, g in self._selected(self._gauges, site)},
            "histograms": {n: h.summary()
                           for n, h in self._selected(self._histograms, site)},
        }

    # -- shard merging -----------------------------------------------------

    def state(self) -> dict[str, Any]:
        """Lossless plain-data dump: picklable and mergeable.

        Unlike :meth:`snapshot` (which summarizes histograms), ``state``
        carries full bucket sketches, so a worker process can ship its
        per-shard registry back and :meth:`merge_state` reassembles the
        global view exactly — the one reporting path
        :mod:`repro.scale` workers and :mod:`repro.service` tenants
        share.
        """
        return {
            "counters": [[name, [list(kv) for kv in labels], value]
                         for (name, labels), value in
                         sorted(self._counter_values().items())],
            "gauges": [[name, [list(kv) for kv in labels], g.value]
                       for (name, labels), g in sorted(self._gauges.items())],
            "histograms": [[name, [list(kv) for kv in labels],
                            h.bucket_state()]
                           for (name, labels), h in
                           sorted(self._histograms.items())],
        }

    def merge_state(self, state: dict[str, Any]) -> "MetricsRegistry":
        """Merge a :meth:`state` dump into this registry (in place)."""
        for name, labels, value in state.get("counters", ()):
            self.counter(name, **dict(labels)).inc(value)
        for name, labels, value in state.get("gauges", ()):
            self.gauge(name, **dict(labels)).inc(value)
        for name, labels, bucket_state in state.get("histograms", ()):
            h = self.histogram(name, lo=bucket_state["lo"],
                               growth=bucket_state["growth"], **dict(labels))
            h.merge_bucket_state(bucket_state)
        return self

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Merge another (per-shard) registry into this one, in place.

        Counters and gauges add; histograms merge bucket-wise.  Metric
        identity is ``(name, labels)``, so per-site labelled metrics
        land side by side while unlabelled ones aggregate.
        """
        return self.merge_state(other.state())
