"""resilient_call: the one attempt loop every reliability layer shares."""

import pytest

from repro.obs.trace import Tracer
from repro.resilience import (CircuitBreaker, CircuitOpen, Deadline,
                              DeadlineExceeded, RetriesExhausted, RetryPolicy,
                              resilient_call)


class Flaky(Exception):
    pass


def run(sim, gen):
    proc = sim.process(gen)
    return sim.run(until=proc)


def flaky_then_ok(sim, fail_times, *, duration_s=0.0,
                  exc_type=Flaky, attempts_seen=None):
    """Attempt factory failing the first ``fail_times`` tries."""

    def attempt(n):
        if attempts_seen is not None:
            attempts_seen.append((sim.now, n))
        if duration_s > 0:
            yield sim.timeout(duration_s)
        if n <= fail_times:
            raise exc_type(f"attempt {n}")
        return f"ok@{n}"
        yield  # pragma: no cover - make non-delayed variants generators

    return attempt


def test_retry_then_succeed_with_backoff(sim):
    seen = []
    policy = RetryPolicy(5, base_delay_s=1.0, multiplier=2.0)

    def driver():
        result = yield from resilient_call(
            sim, flaky_then_ok(sim, 2, attempts_seen=seen), policy=policy)
        return result

    assert run(sim, driver()) == "ok@3"
    # Attempts at t=0, t=1 (base), t=3 (base*2 later).
    assert seen == [(0.0, 1), (1.0, 2), (3.0, 3)]


def test_non_retryable_exception_propagates(sim):
    policy = RetryPolicy(5, base_delay_s=0.0)

    def driver():
        yield from resilient_call(
            sim, flaky_then_ok(sim, 99, exc_type=KeyError), policy=policy,
            retry_on=(Flaky,))

    with pytest.raises(KeyError):
        run(sim, driver())


def test_retries_exhausted_carries_last_error(sim):
    policy = RetryPolicy(3, base_delay_s=0.0)

    def driver():
        yield from resilient_call(
            sim, flaky_then_ok(sim, 99), policy=policy, name="doomed")

    with pytest.raises(RetriesExhausted) as ei:
        run(sim, driver())
    assert ei.value.attempts == 3
    assert isinstance(ei.value.last_error, Flaky)
    assert "doomed" in str(ei.value)


def test_deadline_interrupts_in_flight_attempt(sim):
    policy = RetryPolicy(1)

    def driver():
        yield from resilient_call(
            sim, flaky_then_ok(sim, 0, duration_s=10.0), policy=policy,
            deadline=Deadline(sim, 0.5))

    with pytest.raises(DeadlineExceeded):
        run(sim, driver())
    assert sim.now == pytest.approx(0.5)


def test_deadline_caps_backoff_and_stops_loop(sim):
    seen = []
    policy = RetryPolicy(100, base_delay_s=4.0)

    def driver():
        yield from resilient_call(
            sim, flaky_then_ok(sim, 99, duration_s=0.25, attempts_seen=seen),
            policy=policy, deadline=Deadline(sim, 1.0))

    with pytest.raises(RetriesExhausted):
        run(sim, driver())
    # First attempt at 0 (fails at 0.25); backoff clamped to the remaining
    # 0.75 budget, after which the deadline closes the loop.
    assert seen == [(0.0, 1)]
    assert sim.now == pytest.approx(1.0)


def test_open_breaker_short_circuits(sim):
    breaker = CircuitBreaker(sim, failure_threshold=1, recovery_time_s=60.0)
    breaker.record_failure()  # trip it
    calls = []

    def driver():
        yield from resilient_call(
            sim, flaky_then_ok(sim, 0, attempts_seen=calls),
            policy=RetryPolicy(3), breaker=breaker)

    with pytest.raises(CircuitOpen):
        run(sim, driver())
    assert calls == []  # never attempted


def test_breaker_records_outcomes(sim):
    breaker = CircuitBreaker(sim, failure_threshold=10)

    def driver():
        result = yield from resilient_call(
            sim, flaky_then_ok(sim, 2), policy=RetryPolicy(5, base_delay_s=0),
            breaker=breaker)
        return result

    assert run(sim, driver()) == "ok@3"
    assert breaker.stats["failures"] == 2
    assert breaker.stats["successes"] == 1


def test_recover_hook_runs_before_each_retry(sim):
    recovered = []

    def recover(exc, next_attempt):
        recovered.append((sim.now, str(exc), next_attempt))
        yield sim.timeout(5.0)

    def driver():
        result = yield from resilient_call(
            sim, flaky_then_ok(sim, 1),
            policy=RetryPolicy(3, base_delay_s=0.0), recover=recover)
        return result

    assert run(sim, driver()) == "ok@2"
    assert recovered == [(0.0, "attempt 1", 2)]
    assert sim.now == pytest.approx(5.0)


def test_registry_counters_and_on_retry(sim):
    retries = []

    def driver():
        result = yield from resilient_call(
            sim, flaky_then_ok(sim, 2),
            policy=RetryPolicy(5, base_delay_s=0.0), name="unit",
            on_retry=lambda n, exc: retries.append(n))
        return result

    run(sim, driver())
    snap = sim.metrics.snapshot()["counters"]
    assert snap["resilience.call.calls{call=unit}"] == 1
    assert snap["resilience.call.attempts{call=unit}"] == 3
    assert snap["resilience.call.retries{call=unit}"] == 2
    assert snap["resilience.call.successes{call=unit}"] == 1
    assert snap["resilience.call.failures{call=unit}"] == 0
    assert retries == [2, 3]


def test_attempts_run_inside_tracer_spans(sim):
    tracer = Tracer(sim, run_id="t")

    def driver():
        yield from resilient_call(
            sim, flaky_then_ok(sim, 1),
            policy=RetryPolicy(3, base_delay_s=0.0), name="traced",
            tracer=tracer)

    run(sim, driver())
    starts = [e for e in tracer.events
              if e.kind == "span-start" and e.name == "resilience.attempt"]
    assert [e.attrs["attempt"] for e in starts] == [1, 2]
    assert all(e.attrs["call"] == "traced" for e in starts)
