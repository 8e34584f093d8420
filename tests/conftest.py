"""Shared fixtures for the AISLE test suite."""

import gc
import sys

import pytest

from repro.net import FaultInjector, Link, Network, Site, Topology
from repro.sim import RngRegistry, Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rngs():
    return RngRegistry(12345)


@pytest.fixture
def two_site_topo():
    topo = Topology()
    topo.add_site(Site.make("a", institution="Lab A"))
    topo.add_site(Site.make("b", institution="Lab B"))
    topo.connect("a", "b", Link(latency_s=0.01, bandwidth_Bps=1e9))
    return topo


@pytest.fixture
def testbed_topo():
    return Topology.national_lab_testbed(5, jitter_s=0.0)


@pytest.fixture
def network(sim, two_site_topo, rngs):
    faults = FaultInjector(sim)
    return Network(sim, two_site_topo, rngs.stream("net"), faults)


@pytest.fixture
def testbed_network(sim, testbed_topo, rngs):
    faults = FaultInjector(sim)
    return Network(sim, testbed_topo, rngs.stream("net"), faults)


@pytest.fixture(scope="session")
def qd_landscape():
    from repro.labsci import QuantumDotLandscape
    return QuantumDotLandscape(seed=3)


@pytest.fixture
def qd_params(qd_landscape):
    import numpy as np
    return qd_landscape.space.sample(np.random.default_rng(0))


def _call_counts(fn):
    """``(python calls, C calls)`` made while running ``fn()``.

    Read with :func:`sys.setprofile`, so the counts depend on the code
    path alone, never on the machine: a work-count test compares them
    between two problem sizes in the same run to show that a cost does
    not grow with the size.  The cyclic collector is paused meanwhile:
    finalizers of earlier tests' garbage would otherwise add calls.
    """
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts["call"], counts["c_call"]


@pytest.fixture
def call_counts():
    return _call_counts
