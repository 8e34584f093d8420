"""Bucketed calendar event queue — the kernel's scheduling structure.

The pre-PR kernel kept one binary heap of ``(time, seq, event)`` tuples:
every schedule and every pop paid ``O(log n)`` on a heap whose size is
the *entire* pending horizon, and thousands of identical instrument-poll
timeouts each tick were thousands of separate heap entries.  This module
replaces it with a two-band calendar queue:

- **near band** — a dict of *buckets* keyed by exact fire time, plus a
  small heap of the distinct bucket times.  Scheduling into an existing
  bucket is an O(1) list append (*timeout coalescing*: simultaneous
  timeouts share one bucket and one heap entry), and popping drains a
  whole bucket with O(1) list indexing, paying one heap pop per
  *distinct* time instead of one per event.
- **far band** — events at or beyond the rolling horizon go to a plain
  ``(time, seq, event)`` heap fallback.  When the near band drains, the
  horizon advances and the due prefix of the far heap migrates into
  buckets in one batch.  Far-future deadlines and watchdogs therefore
  never inflate the near band's heap.

The horizon span adapts deterministically: it *doubles on every
migration*.  Any migration is evidence the near window was too narrow to
have captured those events at push time, so the window widens until
migrations become rare and the far band is left holding only genuinely
far-future work (deadlines, watchdogs).  Growth is monotone and
self-limiting — once the span covers the workload's active timescale,
the near band stops draining and migrations (hence doublings) stop.  The
worst case (span overshoots and everything lands near) degenerates to
exactly the old one-heap behavior plus O(1) coalescing, never worse.

**Determinism contract.**  Pops are globally ordered by ``(time, seq)``
— byte-identical to the old binary heap (see
``tests/sim/test_calendar.py`` for the property test).  The argument:

- near bucket lists are appended in schedule order, and ``seq`` is
  assigned monotonically, so within a bucket list order *is* seq order;
- far-band migration drains the far heap in ``(time, seq)`` order and
  every migrated entry predates (in seq) any later direct append to the
  same bucket, so migration preserves bucket seq order;
- band assignment is an invariant, not a race: near times are always
  strictly below the horizon at push time, far times at or above it,
  and the horizon only moves forward — so the near band always holds
  the global minimum while it is non-empty.

Span adaptation affects *performance only*: no code path consults the
span when ordering events.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import Event

_INFINITY = float("inf")
#: Initial width of the near-horizon window (it adapts thereafter).
INITIAL_SPAN = 1.0


class CalendarQueue:
    """Two-band bucketed event queue with deterministic (time, seq) order.

    Parameters
    ----------
    start:
        Initial clock value; the first horizon is
        ``start + INITIAL_SPAN``.
    """

    __slots__ = ("_buckets", "_times", "_far", "_horizon", "_span",
                 "_active", "_active_time", "_active_idx", "_size",
                 "coalesced", "far_deferred", "migrated", "buckets_opened")

    def __init__(self, start: float = 0.0) -> None:
        # near band: exact fire time -> events appended in seq order
        self._buckets: dict[float, list] = {}
        self._times: list[float] = []          # heap of distinct near times
        self._far: list[tuple] = []            # heap of (time, seq, event)
        self._span = INITIAL_SPAN
        self._horizon = float(start) + INITIAL_SPAN
        # The bucket currently being drained.  It stays in ``_buckets``
        # (same-time schedules during the drain append to it live) and
        # its time is absent from ``_times`` until it is retired.
        self._active: Optional[list] = None
        self._active_time = 0.0
        self._active_idx = 0
        self._size = 0
        # Structure counters (exported via Simulator.queue_stats()).
        self.coalesced = 0       # pushes that shared an existing bucket
        self.far_deferred = 0    # pushes that landed in the far band
        self.migrated = 0        # far entries migrated into buckets
        self.buckets_opened = 0  # distinct near times materialized

    # -- scheduling ---------------------------------------------------------

    def push(self, at: float, seq: int, event: "Event") -> None:
        """Schedule ``event`` at time ``at`` with tie-break rank ``seq``.

        ``seq`` values must be pushed in increasing order (the kernel's
        monotone sequence counter guarantees this); near-band bucket
        lists rely on append order *being* seq order.
        """
        if at < self._horizon:
            bucket = self._buckets.get(at)
            if bucket is None:
                self._buckets[at] = [event]
                _heappush(self._times, at)
                self.buckets_opened += 1
            else:
                bucket.append(event)
                self.coalesced += 1
        else:
            _heappush(self._far, (at, seq, event))
            self.far_deferred += 1
        self._size += 1

    # -- popping ------------------------------------------------------------

    def pop_due(self, stop_at: float) -> Optional[Any]:
        """Pop the earliest event if its time is ``<= stop_at``.

        Returns ``None`` when the queue is empty or the next event lies
        beyond ``stop_at``.  After a successful pop, ``_active_time``
        holds the popped event's fire time (the kernel reads it to
        advance the clock once per bucket).
        """
        while True:
            bucket = self._active
            if bucket is not None:
                t = self._active_time
                if t > stop_at:
                    return None
                i = self._active_idx
                if i < len(bucket):
                    self._active_idx = i + 1
                    self._size -= 1
                    return bucket[i]
                # Drained (including anything appended mid-drain): retire.
                del self._buckets[t]
                self._active = None
                continue
            times = self._times
            if times:
                t = times[0]
                if t > stop_at:
                    # Do NOT activate: an earlier time may still be
                    # scheduled before the next run() call, and a
                    # pending active bucket would shadow it.
                    return None
                _heappop(times)
                self._active = self._buckets[t]
                self._active_time = t
                self._active_idx = 0
                continue
            far = self._far
            if far:
                if far[0][0] > stop_at:
                    return None
                self._advance_horizon()
                continue
            return None

    def next_time(self) -> float:
        """Time of the earliest pending event, or ``inf`` when empty."""
        while True:
            bucket = self._active
            if bucket is not None:
                if self._active_idx < len(bucket):
                    return self._active_time
                del self._buckets[self._active_time]
                self._active = None
                continue
            if self._times:
                return self._times[0]
            if self._far:
                return self._far[0][0]
            return _INFINITY

    # -- internals ----------------------------------------------------------

    def _advance_horizon(self) -> None:
        """Migrate the due prefix of the far band into near buckets.

        Only called when the near band is completely empty, so every
        migrated time is a fresh bucket (no interleaving with live near
        state).  The far heap pops in ``(time, seq)`` order, which keeps
        each bucket's append order equal to its seq order.
        """
        far = self._far
        t0 = far[0][0]
        horizon = t0 + self._span
        buckets = self._buckets
        times = self._times
        n = 0
        while far:
            at = far[0][0]
            # The ``== t0`` arm guarantees progress even if ``t0 + span``
            # rounds down to ``t0`` at large magnitudes.
            if at >= horizon and at != t0:
                break
            entry = _heappop(far)
            event = entry[2]
            bucket = buckets.get(at)
            if bucket is None:
                buckets[at] = [event]
                _heappush(times, at)
            else:
                bucket.append(event)
            n += 1
        self._horizon = horizon if horizon > t0 else t0
        self.migrated += n
        # Deterministic span adaptation (performance only; see module
        # doc): double on every migration.  A migration means the window
        # missed these events at push time; widening is monotone and
        # self-limiting, and depends only on the (seeded) event history.
        self._span *= 2.0

    # -- introspection ------------------------------------------------------

    def stats(self) -> dict:
        """Structure counters as plain data (for obs export)."""
        return {
            "pending": self._size,
            "coalesced": self.coalesced,
            "far_deferred": self.far_deferred,
            "migrated": self.migrated,
            "buckets_opened": self.buckets_opened,
        }

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CalendarQueue pending={self._size} "
                f"horizon={self._horizon:.6g} span={self._span:.6g}>")
