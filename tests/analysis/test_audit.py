"""Runtime race-auditor tests: ties, registry contention, hook chaining."""

from repro.analysis import RaceAuditor, WatchedRegistry
from repro.sim.kernel import Simulator


def make_auditor(sim=None):
    sim = sim or Simulator()
    auditor = RaceAuditor(sim).install()
    return sim, auditor


# -- same-time / cross-process ties -------------------------------------------

def test_no_ties_when_times_differ():
    sim, auditor = make_auditor()
    sim.schedule_callback(1.0, lambda: None)
    sim.schedule_callback(2.0, lambda: None)
    sim.run()
    assert auditor.summary() == {"same_time_ties": 0,
                                 "cross_process_ties": 0,
                                 "registry_races": 0}


def test_same_time_ties_counted():
    sim, auditor = make_auditor()
    for _ in range(3):
        sim.schedule_callback(5.0, lambda: None)
    sim.run()
    # Three pops at t=5: the 2nd and 3rd are ties with their predecessor.
    assert auditor.ties.value == 2
    # All scheduled from kernel context — not cross-process.
    assert auditor.cross_ties.value == 0


def test_cross_process_tie_detected_and_recorded():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(5.0)

    def build():
        # Two *processes* each schedule an event landing at t=5; their
        # relative pop order is fixed only by the kernel tie-break.
        sim.process(worker(sim))
        sim.process(worker(sim))

    sim.schedule_callback(0.0, build)
    auditor = RaceAuditor(sim).install()
    sim.run()
    assert auditor.cross_ties.value >= 1
    kinds = {f.kind for f in auditor.findings}
    assert "cross-process-tie" in kinds
    cross = [f for f in auditor.findings if f.kind == "cross-process-tie"]
    # Both the tied timeouts and the tied process-completion events are
    # reported; every one of them lands at t=5.
    assert cross and all(f.time == 5.0 for f in cross)
    assert "worker#1" in cross[0].detail and "worker#2" in cross[0].detail


def test_single_process_ties_are_not_cross_process():
    sim = Simulator()

    def worker(sim):
        a = sim.timeout(5.0)
        b = sim.timeout(5.0)
        yield sim.all_of([a, b])

    sim.process(worker(sim))
    auditor = RaceAuditor(sim).install()
    sim.run()
    assert auditor.ties.value >= 1
    assert auditor.cross_ties.value == 0


# -- registry watching --------------------------------------------------------

def test_registry_race_flagged_for_two_writers_in_one_timestep():
    sim = Simulator()
    auditor = RaceAuditor(sim).install()
    catalog = auditor.watch("catalog")

    def writer(sim, key):
        yield sim.timeout(3.0)
        catalog[key] = key

    sim.process(writer(sim, "a"))
    sim.process(writer(sim, "b"))
    sim.run()
    assert auditor.registry_races.value == 1
    (finding,) = [f for f in auditor.findings if f.kind == "registry-race"]
    assert "catalog" in finding.detail


def test_single_writer_many_keys_is_clean():
    sim = Simulator()
    auditor = RaceAuditor(sim).install()
    catalog = auditor.watch("catalog")

    def writer(sim):
        yield sim.timeout(3.0)
        catalog["a"] = 1
        catalog["b"] = 2
        del catalog["a"]

    sim.process(writer(sim))
    sim.run()
    assert auditor.registry_races.value == 0
    assert dict(catalog) == {"b": 2}


def test_same_writer_different_timesteps_is_clean():
    sim = Simulator()
    auditor = RaceAuditor(sim).install()
    catalog = auditor.watch("catalog")

    def writer(sim, key, delay):
        yield sim.timeout(delay)
        catalog[key] = key

    sim.process(writer(sim, "a", 1.0))
    sim.process(writer(sim, "b", 2.0))
    sim.run()
    assert auditor.registry_races.value == 0


def test_watched_registry_wraps_existing_backing():
    sim = Simulator()
    auditor = RaceAuditor(sim).install()
    backing = {"seed": 1}
    reg = auditor.watch("peers", backing)
    assert isinstance(reg, WatchedRegistry)
    assert reg["seed"] == 1
    reg["new"] = 2
    assert backing == {"seed": 1, "new": 2}
    assert len(reg) == 2 and set(reg) == {"seed", "new"}


# -- hook lifecycle -----------------------------------------------------------

def test_auditor_chains_with_existing_hooks():
    sim = Simulator()
    stepped, scheduled = [], []
    sim.step_hook = lambda t, ev: stepped.append(t)
    sim.schedule_hook = lambda t, ev: scheduled.append(t)
    auditor = RaceAuditor(sim).install()
    sim.schedule_callback(1.0, lambda: None)
    sim.schedule_callback(1.0, lambda: None)
    sim.run()
    # The pre-existing hooks still fired for every event...
    assert stepped == [1.0, 1.0]
    assert scheduled == [1.0, 1.0]
    # ...and the auditor observed the tie on top.
    assert auditor.ties.value == 1


def test_uninstall_restores_previous_hooks():
    sim = Simulator()
    prev_step = lambda t, ev: None
    sim.step_hook = prev_step
    auditor = RaceAuditor(sim).install()
    assert sim.step_hook is not prev_step
    auditor.uninstall()
    assert sim.step_hook is prev_step
    # Idempotent: a second uninstall is a no-op.
    auditor.uninstall()
    assert sim.step_hook is prev_step


def test_install_is_idempotent():
    sim = Simulator()
    auditor = RaceAuditor(sim)
    assert auditor.install() is auditor.install()
    auditor.uninstall()
    assert sim.step_hook is None


def test_counters_report_into_shared_metrics_registry():
    sim = Simulator()
    auditor = RaceAuditor(sim).install()
    sim.schedule_callback(2.0, lambda: None)
    sim.schedule_callback(2.0, lambda: None)
    sim.run()
    assert sim.metrics.counter("audit.same_time_ties").value == 1
    assert auditor.summary()["same_time_ties"] == 1


def test_findings_are_bounded():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)

    def build():
        for _ in range(8):
            sim.process(worker(sim))

    sim.schedule_callback(0.0, build)
    auditor = RaceAuditor(sim, max_findings=2).install()
    sim.run()
    assert auditor.cross_ties.value > 2
    assert len(auditor.findings) == 2
