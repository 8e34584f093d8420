"""Shared fixtures for the AISLE test suite."""

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
