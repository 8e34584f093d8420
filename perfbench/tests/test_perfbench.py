"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests
"""

import pytest

from perfbench import tracing
from perfbench.runner import run_phase, run_traced, tail_ok
from perfbench.workloads import WORKLOADS
from repro.sim.kernel import Simulator


def _scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_child_spans():
    # a [0, 10] holds b [1, 5] (which holds c [2, 3]) and d [6, 8].
    rec = tracing.SpanRecorder(_scripted_clock([0, 1, 2, 3, 5, 6, 8, 10]))
    a = rec.open("a", "x")
    b = rec.open("b", "y")
    c = rec.open("c", "x")
    rec.close(c)
    rec.close(b)
    d = rec.open("d", "y")
    rec.close(d)
    rec.close(a)
    assert list(rec.parents) == [-1, a, b, a]
    assert tracing.self_times(rec) == [4, 3, 1, 2]
    assert tracing.self_time_by_layer(rec) == {"x": 5, "y": 5}
    assert tracing.outer_durations(rec, ["a", "c"]) == [10]
    assert tracing.outer_durations(rec, ["b", "d"]) == [4, 2]


def test_gen_proxy_preserves_send_throw_and_return_value():
    def body():
        got = yield 1
        try:
            yield got * 2
        except ValueError:
            yield "caught"
        return "done"

    rec = tracing.SpanRecorder(_scripted_clock(range(100)))
    proxy = tracing.GenProxy(body(), rec, "body", "x")
    assert next(proxy) == 1
    assert proxy.send(5) == 10
    assert proxy.throw(ValueError("boom")) == "caught"
    with pytest.raises(StopIteration) as stop:
        proxy.send(None)
    assert stop.value.value == "done"
    assert len(rec) == 4  # one span per resume

    def outer():
        result = yield from tracing.GenProxy(body(), rec, "body", "x")
        return result

    gen = outer()
    assert next(gen) == 1
    assert gen.send(3) == 6
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "done"


def test_gen_proxy_runs_as_a_simulator_process():
    sim = Simulator()

    def body():
        yield sim.timeout(2.0)
        return sim.now

    rec = tracing.SpanRecorder(_scripted_clock(range(100)))
    proc = sim.process(tracing.GenProxy(body(), rec, "body", "x"))
    assert sim.run(until=proc) == 2.0


@pytest.mark.parametrize("n, q, ok", [(99, 0.9, False), (100, 0.9, True),
                                      (999, 0.99, False), (1000, 0.99, True),
                                      (20, 0.5, True), (19, 0.5, False)])
def test_top_percentile_needs_ten_samples_beyond_it(n, q, ok):
    assert tail_ok(n, q) is ok


def _replay(name, seed, n_ops):
    return run_phase(WORKLOADS[name], seed, {}, seconds=0.0, min_ops=0,
                     n_ops=n_ops)


@pytest.mark.parametrize("name, n_ops", [("campaign", 2), ("service_mix", 3),
                                         ("mesh_fanout", 60)])
def test_same_seed_repeats_op_count_and_digest(name, n_ops):
    first = _replay(name, 11, n_ops)
    again = _replay(name, 11, n_ops)
    other = _replay(name, 12, n_ops)
    assert first.failed == 0 and other.failed == 0
    assert first.n_ops == again.n_ops == n_ops
    assert first.hashes == again.hashes
    assert first.hashes != other.hashes


def test_tracing_changes_no_decision_and_uninstalls():
    from repro.service.service import CampaignService
    submit = CampaignService.__dict__["submit"]
    untraced, traced, rec = run_traced(WORKLOADS["service_mix"], 5,
                                       seconds=0.0, min_ops=2)
    assert CampaignService.__dict__["submit"] is submit
    assert untraced.n_ops == traced.n_ops == 2
    assert traced.hashes == untraced.hashes
    assert untraced.hashes == _replay("service_mix", 5, 2).hashes
    assert rec.calls["CampaignService.submit"] > 0
    assert rec.events > 0
    assert set(tracing.self_time_by_layer(rec)) >= {"bench", "sim", "service"}
