"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on by
``yield``-ing it.  Events move through three states:

``pending`` --(succeed/fail)--> ``triggered`` --(kernel pops it)--> ``processed``

Once triggered an event carries a *value* (or an exception) that is
delivered to every waiting process.  Composite events (:class:`AllOf`,
:class:`AnyOf`) let a process wait on several events at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Simulator

_PENDING = object()


class Event:
    """A one-shot occurrence on the simulation timeline.

    Parameters
    ----------
    sim:
        Owning :class:`~repro.sim.kernel.Simulator`.

    Notes
    -----
    ``callbacks`` is a list of single-argument callables invoked (with the
    event itself) when the kernel processes the event.  After processing,
    ``callbacks`` is set to ``None``; appending to a processed event is a
    programming error and raises immediately rather than silently dropping
    the waiter.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool | None = None
        # A failed event whose exception was delivered to (or intercepted
        # by) someone is "defused"; undefused failures crash the run so
        # errors can never be silently lost.
        self._defused = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the kernel has delivered the event to its waiters."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event succeeded with (or its exception)."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None, *, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``.

        The event is scheduled on the kernel queue ``delay`` time units
        from now (default: immediately, i.e. at the current simulation
        time but after currently running code yields control).
        """
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, *, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception delivered to all waiters."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror the outcome of another (triggered) event onto this one."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition ------------------------------------------------------

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated time units in the future.

    Timeouts are the single hottest allocation in every AISLE experiment
    (instrument polls, sampling intervals, deadlines), so ``__init__``
    writes the :class:`Event` slots directly instead of chaining through
    ``Event.__init__`` — one frame instead of two per timeout.  The slot
    set must stay in sync with :class:`Event`.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = None
        self._defused = False
        self.delay = float(delay)
        sim._schedule(self, delay)


class ConditionValue:
    """Ordered mapping of child event -> value for composite conditions."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key.value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict[Event, Any]:
        return {ev: ev.value for ev in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self.todict()!r}>"


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = tuple(events)
        self._count = 0
        for ev in self._events:
            if ev.sim is not sim:
                raise ValueError("all events must belong to the same Simulator")
        if not self._events:
            self.succeed(ConditionValue())
            return
        for ev in self._events:
            if ev.processed:
                self._check(ev)
            elif ev.callbacks is not None:
                ev.callbacks.append(self._check)

    def _evaluate(self, done: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._count, len(self._events)):
            value = ConditionValue()
            value.events = [ev for ev in self._events if ev.processed and ev._ok]
            self.succeed(value)


class AllOf(_Condition):
    """Succeeds when *every* child event has succeeded.

    Fails fast with the first child failure.
    """

    __slots__ = ()

    def _evaluate(self, done: int, total: int) -> bool:
        return done == total


class AnyOf(_Condition):
    """Succeeds as soon as *any* child event succeeds."""

    __slots__ = ()

    def _evaluate(self, done: int, total: int) -> bool:
        return done > 0
