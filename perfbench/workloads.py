"""The three benchmark workloads, each a seeded stream of ops.

A workload's :meth:`ops` yields :class:`Op` objects forever.  The
runner times ``op.call()`` and nothing else: making inputs, building a
mesh world between passes and ``op.check`` are the benchmark's own
bookkeeping.  Inputs come only from the seed, so the same seed gives the
same ops, the same outputs and the same digest.

Each op's ``check`` returns ``(ok, payload, experiments)``: whether the
output is correct, the plain-data simulated output that goes into the
run digest, and the simulated experiments the op completed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.campaign import CampaignSpec
from repro.core.report import CampaignReport
from repro.data.fair import FairGovernor
from repro.data.mesh import FederatedDataMesh
from repro.data.provenance import qualified
from repro.data.record import DataRecord
from repro.data.shard import ShardedDiscoveryIndex
from repro.net.topology import Topology
from repro.net.transport import Network
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.loadgen import LoadGenerator, TenantLoad, synthetic_runner
from repro.service.service import CampaignService, FacilitySlot
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.testbed import Testbed

Check = Callable[[Any], "tuple[bool, Any, int]"]


@dataclass
class Op:
    """One closed-loop operation.

    ``kind`` is ``"op"`` for a whole episode, or ``"read"``/``"write"``
    for a single mesh access.  ``episode_end`` marks the last op of a
    world: runs stop only there, so every run measures whole episodes.
    """

    kind: str
    call: Callable[[], Any]
    check: Check
    episode_end: bool = True


# -- campaign -----------------------------------------------------------------

CAMPAIGN_SITES = ("site-0", "site-1")
CAMPAIGN_BUDGETS = (20, 30, 40)


def campaign_episode(world_seed: int, budgets: list[int]) -> list[dict]:
    """Two verified hierarchical-planner labs sharing knowledge, running
    their campaigns concurrently in one three-site federation."""
    testbed = Testbed(seed=world_seed, n_sites=3).with_knowledge()
    for site in CAMPAIGN_SITES:
        testbed.site(site).with_planner("hierarchical").with_verification()
    built = testbed.build()
    procs = [built.sim.process(built.orchestrator(site).run_campaign(
                 CampaignSpec(name=f"{site}-campaign", objective_key="plqy",
                              max_experiments=budget)))
             for site, budget in zip(CAMPAIGN_SITES, budgets)]
    built.sim.run()
    return [CampaignReport.from_result(p.value,
                                       sim_seconds=built.sim.now).to_dict()
            for p in procs]


def check_campaign(budgets: list[int],
                   reports: list[dict]) -> "tuple[bool, Any, int]":
    """Every lab completes its budget and every decision value is finite.

    Rows are ``[index, objective, started, finished, valid]``; an
    invalid experiment has no objective (NaN) by design.
    """
    ok = len(reports) == len(budgets)
    for report, budget in zip(reports, budgets):
        ok = ok and report["n_experiments"] == budget \
            and report["stop_reason"] == "budget-exhausted" \
            and report["best_value"] is not None \
            and math.isfinite(report["best_value"])
        for row in report["decisions"]:
            checked = row if row[4] == 1.0 else row[:1] + row[2:]
            ok = ok and all(math.isfinite(v) for v in checked)
    return ok, reports, sum(r["n_experiments"] for r in reports)


class CampaignWorkload:
    """One op is a two-lab federation episode (E1/E10 autonomy plus
    E3/M9 knowledge sharing); the budget mix varies the GP size."""

    name = "campaign"
    # KnowledgeBase.sync absorbs peers' observations before each plan
    # (the read); publish shares a measurement with every peer (the write).
    probes = {"read": ("repro.core.knowledge", "KnowledgeBase", "sync"),
              "write": ("repro.core.knowledge", "KnowledgeBase", "publish")}
    digest_ops = 20

    def ops(self, seed: int) -> Iterator[Op]:
        rng = np.random.default_rng(seed)
        while True:
            world_seed = int(rng.integers(2**31 - 1))
            budgets = [int(b) for b in rng.choice(CAMPAIGN_BUDGETS, size=2)]
            yield Op("op", partial(campaign_episode, world_seed, budgets),
                     partial(check_campaign, budgets))


# -- service_mix --------------------------------------------------------------

SERVICE_SLOTS = 8
SERVICE_TENANTS = 8
SERVICE_CAMPAIGNS = (10, 20, 30)
SERVICE_EXPERIMENTS = 8


def service_episode(op_seed: int, campaigns: list[int]) -> dict:
    """A CampaignService with 8 slots under 4 closed-loop tenants
    (concurrency 2) and 4 open-loop Poisson tenants, then one operator
    dashboard read."""
    sim = Simulator()
    runner = synthetic_runner(sim, seed=op_seed, mean_experiment_s=240.0)
    service = CampaignService(
        sim, [FacilitySlot(f"slot-{i}", runner) for i in range(SERVICE_SLOTS)])
    loads = []
    for i, n in enumerate(campaigns):
        if i < SERVICE_TENANTS // 2:
            loads.append(TenantLoad(
                name=f"tenant-{i}", mode="closed", campaigns=n,
                concurrency=2, experiments=SERVICE_EXPERIMENTS,
                share=1.0 + i % 3))
        else:
            loads.append(TenantLoad(
                name=f"tenant-{i}", mode="open", campaigns=n,
                arrival_rate_per_s=1.0 / 300.0,
                experiments=SERVICE_EXPERIMENTS))
    gen = LoadGenerator(service, loads, seed=op_seed)
    summary = gen.run()
    return {"summary": summary,
            "dashboard": service.utilization_report(),
            "log": service.decision_log(),
            "admitted": [h.campaign_id for load in loads
                         for h in gen.handles[load.name]]}


def check_service(out: dict) -> "tuple[bool, Any, int]":
    """Every admitted campaign appears exactly once in the decision log,
    and completed + rejected + cancelled equals submitted."""
    summary, log, admitted = out["summary"], out["log"], out["admitted"]
    logged = [row[0] for row in log]
    statuses = [row[2] for row in log]
    completed = statuses.count("completed")
    cancelled = statuses.count("cancelled")
    rejected = summary["rejections"]
    submitted = len(admitted) + rejected
    experiments = sum(t["experiments"] for t in summary["tenants"].values())
    ok = (sorted(logged) == sorted(admitted)
          and len(set(logged)) == len(logged)
          and completed + rejected + cancelled == submitted
          and experiments == completed * SERVICE_EXPERIMENTS)
    return ok, {"summary": summary, "log": log}, experiments


class ServiceMixWorkload:
    """One op is a multi-tenant CampaignService episode in simulated
    time; campaigns per tenant are drawn from {10, 20, 30}."""

    name = "service_mix"
    # submit is admission plus enqueue (the write); utilization_report
    # is the operator dashboard read after each episode.
    probes = {"read": ("repro.service.service", "CampaignService",
                       "utilization_report"),
              "write": ("repro.service.service", "CampaignService",
                        "submit")}
    digest_ops = 50

    def ops(self, seed: int) -> Iterator[Op]:
        rng = np.random.default_rng(seed)
        while True:
            op_seed = int(rng.integers(2**31 - 1))
            campaigns = [int(c) for c in
                         rng.choice(SERVICE_CAMPAIGNS, size=SERVICE_TENANTS)]
            yield Op("op", partial(service_episode, op_seed, campaigns),
                     check_service)


# -- mesh_fanout --------------------------------------------------------------

MESH_FACILITIES = 200
MESH_SHARDS = 16
MESH_ROUNDS = 250           # rounds per world (one pass)
MESH_PAIRS = 4              # write+read pairs per round
# Rounds with one link failed: exactly a third.  A fixed count keeps the
# share of reads that pay for failover routing independent of the seed,
# and a third (not a quarter) puts the read p90 inside the slowest mode,
# failover discovers at 1/6 of reads, rather than on its edge.
MESH_LINK_DOWN_ROUNDS = MESH_ROUNDS // 3
INDEX_LATENCY_S = 0.5
TECHNIQUES = ("powder-xrd", "uv-vis", "saxs", "xps", "raman", "nmr")


class MeshWorld:
    """A 200-facility mesh on the national-lab ring-plus-chords topology,
    with a 16-shard discovery index, a FAIR governor per node and a
    bounded trace ring."""

    def __init__(self, world_seed: int) -> None:
        self.sim = Simulator()
        rngs = RngRegistry(seed=world_seed)
        self.topology = Topology.national_lab_testbed(MESH_FACILITIES)
        metrics = MetricsRegistry()
        self.net = Network(self.sim, self.topology, rngs.stream("net"),
                           metrics=metrics)
        self.tracer = Tracer(self.sim, run_id=f"mesh-{world_seed}",
                             max_events=4096, metrics=metrics)
        self.index = ShardedDiscoveryIndex(MESH_SHARDS)
        self.mesh = FederatedDataMesh(self.sim, self.net, index=self.index,
                                      index_site="site-0")
        for i in range(MESH_FACILITIES):
            self.mesh.make_node(f"site-{i}", f"Lab {i}",
                                governor=FairGovernor(),
                                index_latency_s=INDEX_LATENCY_S)
        # The benchmark's own ledger, for checking outputs.
        self.tally = {t: 0 for t in TECHNIQUES}
        self.written: list[str] = []
        self.expected: dict[str, tuple[int, dict[str, float]]] = {}
        self.last_at: dict[int, str] = {}

    # -- timed calls ----------------------------------------------------------

    def write(self, site_idx: int, technique: str,
              values: dict[str, float]) -> DataRecord:
        """Ingest one record with provenance edges, then let simulated
        time pass until its index entry has replicated."""
        sim = self.sim
        site = f"site-{site_idx}"
        node = self.mesh.nodes[site]
        record = DataRecord(source=f"instrument-{site_idx}",
                            values=dict(values),
                            metadata={"technique": technique}, time=sim.now)
        prov = node.provenance
        prov.entity(record.record_id)
        act = prov.activity(f"syn-{record.record_id}", started=sim.now,
                            ended=sim.now + 30.0)
        prov.was_generated_by(record.record_id, act)
        prov.was_associated_with(act, prov.agent(f"planner-{site}"))
        neighbour = (site_idx + 1) % MESH_FACILITIES
        if neighbour in self.last_at:
            prov.was_derived_from(
                record.record_id,
                qualified(f"site-{neighbour}", self.last_at[neighbour]),
                cross_shard=True)
        node.ingest(record)
        self.tracer.instant("ingest", site=site, record=record.record_id,
                            technique=technique)
        sim.run(until=sim.timeout(INDEX_LATENCY_S))
        return record

    def discover(self, site_idx: int, technique: str) -> list[dict]:
        proc = self.sim.process(self.mesh.discover(
            f"site-{site_idx}", **{"metadata.technique": technique}))
        entries = self.sim.run(until=proc)
        self.tracer.instant("discover", site=f"site-{site_idx}",
                            technique=technique, results=len(entries))
        return entries

    def fetch(self, record_id: str, to_idx: int) -> DataRecord:
        proc = self.sim.process(self.mesh.fetch(record_id,
                                                to_site=f"site-{to_idx}"))
        record = self.sim.run(until=proc)
        self.tracer.instant("fetch", record=record_id)
        return record

    # -- checks ---------------------------------------------------------------

    def check_write(self, site_idx: int, technique: str,
                    values: dict[str, float],
                    record: DataRecord) -> "tuple[bool, Any, int]":
        rid = record.record_id
        ok = rid in self.index and rid not in self.expected
        self.tally[technique] += 1
        self.written.append(rid)
        self.expected[rid] = (site_idx, values)
        self.last_at[site_idx] = rid
        return ok, ["write", rid, site_idx, technique, self.sim.now], 1

    def check_discover(self, technique: str,
                       entries: list[dict]) -> "tuple[bool, Any, int]":
        ok = len(entries) == self.tally[technique] and all(
            e["metadata"]["technique"] == technique for e in entries)
        ends = [entries[0]["record_id"], entries[-1]["record_id"]] \
            if entries else []
        return ok, ["discover", technique, len(entries), ends,
                    self.sim.now], 0

    def check_fetch(self, record_id: str,
                    record: DataRecord) -> "tuple[bool, Any, int]":
        ok = record.record_id == record_id \
            and record.values == self.expected[record_id][1]
        return ok, ["fetch", record_id, record.size_bytes(), self.sim.now], 0


class MeshFanoutWorkload:
    """Equal numbers of writes and reads at seeded facilities; reads are
    alternately discover-by-technique and cross-site fetch.  The index
    grows over each world's pass; each pass starts a fresh world."""

    name = "mesh_fanout"
    probes: dict[str, tuple[str, str, str]] = {}
    digest_ops = MESH_ROUNDS * MESH_PAIRS * 2

    def ops(self, seed: int) -> Iterator[Op]:
        rng = np.random.default_rng(seed)
        while True:
            world = MeshWorld(int(rng.integers(2**31 - 1)))
            links = [(a, b) for a, b, _ in world.topology.links()]
            failing = set(rng.permutation(MESH_ROUNDS)[:MESH_LINK_DOWN_ROUNDS]
                          .tolist())
            reads = 0
            for round_no in range(MESH_ROUNDS):
                down = None
                if round_no in failing:
                    down = links[int(rng.integers(len(links)))]
                    world.net.faults.fail_link(*down)
                for pair in range(MESH_PAIRS):
                    site = int(rng.integers(MESH_FACILITIES))
                    technique = TECHNIQUES[int(rng.integers(len(TECHNIQUES)))]
                    values = {"plqy": float(rng.random()),
                              "yield_pct": float(100.0 * rng.random())}
                    yield Op("write",
                             partial(world.write, site, technique, values),
                             partial(world.check_write, site, technique,
                                     values),
                             episode_end=False)
                    last = round_no == MESH_ROUNDS - 1 \
                        and pair == MESH_PAIRS - 1
                    if reads % 2 == 0:
                        reader = int(rng.integers(MESH_FACILITIES))
                        technique = TECHNIQUES[
                            int(rng.integers(len(TECHNIQUES)))]
                        yield Op("read",
                                 partial(world.discover, reader, technique),
                                 partial(world.check_discover, technique),
                                 episode_end=last)
                    else:
                        rid = world.written[
                            int(rng.integers(len(world.written)))]
                        home = world.expected[rid][0]
                        to = (home + 1 + int(rng.integers(
                            MESH_FACILITIES - 1))) % MESH_FACILITIES
                        yield Op("read", partial(world.fetch, rid, to),
                                 partial(world.check_fetch, rid),
                                 episode_end=last)
                    reads += 1
                if down is not None:
                    world.net.faults.restore_link(*down)


WORKLOADS = {w.name: w for w in (CampaignWorkload(), MeshFanoutWorkload(),
                                 ServiceMixWorkload())}
