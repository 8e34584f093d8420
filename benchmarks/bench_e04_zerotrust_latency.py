"""E4 (milestone M11): zero-trust communication latency and failover.

Paper target: "zero-trust communication infrastructure supporting
autonomous agent coordination with sub-second latency, automatic
failover, and continuous authentication across institutional boundaries".

Part A sweeps cross-site RPC under continuous per-call verification and
reports mean/p50/p95/p99 latency (sub-second required) straight from the
streaming histogram in the observability registry — no sample array.
Part B kills the primary of a replicated service and measures automatic
failover recovery time, ablated over heartbeat cadence.
"""

from benchmarks.conftest import fmt, report
from repro.comm import FailoverGroup, RpcClient, RpcServer
from repro.net import FaultInjector, Network, Topology
from repro.security import (FederatedIdentityProvider, Identity,
                            PolicyEngine, TrustFabric, ZeroTrustGateway)
from repro.security.abac import allow_all_within_federation
from repro.sim import RngRegistry, Simulator

N_CALLS = 300


def _secured_world(seed=5, n_sites=4):
    sim = Simulator()
    rngs = RngRegistry(seed)
    topo = Topology.national_lab_testbed(n_sites, jitter_s=0.004)
    net = Network(sim, topo, rngs.stream("net"), FaultInjector(sim))
    fabric = TrustFabric()
    site_institution = {}
    for site in topo.sites():
        idp = FederatedIdentityProvider(sim, site.institution)
        idp.enroll(Identity.make(f"agent@{site.institution}",
                                 site.institution, role="agent"))
        fabric.add_provider(idp)
        site_institution[site.name] = site.institution
    fabric.federate()
    gateway = ZeroTrustGateway(sim, fabric, PolicyEngine(
        allow_all_within_federation()), site_institution=site_institution,
        verify_latency_s=0.001)
    return sim, rngs, net, fabric, gateway


def _latency_sweep():
    sim, rngs, net, fabric, gateway = _secured_world()
    server = RpcServer(sim, "svc", site="site-2", handler_delay_s=0.002)
    server.register("act", lambda p: p)
    token = fabric.provider("Lab 0").issue("agent@Lab 0", ttl_s=30.0)
    client = RpcClient(sim, net, site="site-0", gateway=gateway, token=token)
    # Continuous auth: keep the short-lived token refreshed mid-sweep.
    idp = fabric.provider("Lab 0")
    sim.process(gateway.refresh_loop(idp, "agent@Lab 0", client))

    def sweep():
        for i in range(N_CALLS):
            yield from client.call(server, "act", {"i": i})
            yield sim.timeout(0.5)

    proc = sim.process(sweep())
    sim.run(until=proc)
    return client.latency_hist, gateway


def _failover(heartbeat_s: float):
    sim, rngs, net, fabric, gateway = _secured_world(seed=6)
    replicas = []
    for i in range(3):
        srv = RpcServer(sim, f"rep-{i}", site=f"site-{i + 1}")
        srv.register("act", lambda p: p)
        FailoverGroup.install_health_endpoint(srv)
        replicas.append(srv)
    group = FailoverGroup(sim, replicas, heartbeat_interval_s=heartbeat_s)
    monitor_client = RpcClient(sim, net, site="site-0")
    group.start_monitor(monitor_client)

    def killer():
        yield sim.timeout(5.0)
        group.primary.kill()

    sim.process(killer())
    sim.run(until=20.0)
    return group.recovery_time()


def test_e04_zerotrust_latency(bench_once):
    def scenario():
        hist, gateway = _latency_sweep()
        recoveries = {hb: _failover(hb) for hb in (0.05, 0.1, 0.5)}
        return hist, gateway, recoveries

    hist, gateway, recoveries = bench_once(scenario)
    pcts = hist.percentiles()
    rows = [[
        hist.count, fmt(1000 * hist.mean, 1),
        fmt(1000 * pcts["p50"], 1),
        fmt(1000 * pcts["p95"], 1),
        fmt(1000 * pcts["p99"], 1),
        gateway.stats["verified"],
    ]]
    report(
        "E4a: cross-site RPC latency under continuous authentication "
        "(M11 target: sub-second)",
        ["calls", "mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)",
         "verifications"],
        rows)
    report(
        "E4b: automatic failover recovery vs heartbeat cadence",
        ["heartbeat (s)", "recovery (s)"],
        [[hb, fmt(rt, 2)] for hb, rt in sorted(recoveries.items())])

    assert hist.count == N_CALLS  # every call observed by the histogram
    assert pcts["p99"] < 1.0, "M11: sub-second p99"
    assert gateway.stats["verified"] >= N_CALLS  # every call verified
    for hb, rt in recoveries.items():
        assert rt is not None and rt < 1.0 + 4 * hb
    # Faster heartbeats -> faster recovery (the ablation's shape).
    assert recoveries[0.05] <= recoveries[0.5]
