"""Tests for the facility-sharded discovery index."""

import numpy as np
import pytest

from repro.data import mesh
from repro.data import DiscoveryIndex, ShardedDiscoveryIndex, shard_for
from repro.data.shard import ShardedDiscoveryIndex as _Direct


def entry(i, site, technique="powder-xrd", institution="inst-0"):
    return {"record_id": f"rec-{i:04d}", "schema_id": "synthesis@1",
            "site": site, "institution": institution, "source": "spec-1",
            "sensitivity": "open",
            "metadata": {"technique": technique}}


@pytest.fixture
def sharded():
    idx = ShardedDiscoveryIndex(n_shards=4)
    for i in range(20):
        idx.publish(entry(i, f"site-{i % 5}",
                          technique=("powder-xrd" if i % 2 else "uv-vis"),
                          institution=f"inst-{i % 3}"))
    return idx


def test_shard_for_is_deterministic_and_bounded():
    assert shard_for("site-0", 8) == shard_for("site-0", 8)
    for n in (1, 2, 7, 32):
        for i in range(40):
            assert 0 <= shard_for(f"site-{i}", n) < n


def test_shard_for_rejects_bad_count():
    with pytest.raises(ValueError):
        shard_for("site-0", 0)
    with pytest.raises(ValueError):
        ShardedDiscoveryIndex(0)


def test_reexport_is_same_class():
    assert _Direct is ShardedDiscoveryIndex


def test_same_site_lands_on_one_shard(sharded):
    rows = sharded.query(site="site-2")
    shard = sharded.shard_id("site-2")
    for row in rows:
        assert row["record_id"] in sharded.shards[shard]


def test_len_contains_get(sharded):
    assert len(sharded) == 20
    assert "rec-0003" in sharded
    assert "rec-9999" not in sharded
    assert sharded.get("rec-0003")["site"] == "site-3"
    assert sharded.get("rec-9999") is None


def test_query_matches_flat_index(sharded):
    flat = DiscoveryIndex()
    for i in range(20):
        flat.publish(entry(i, f"site-{i % 5}",
                           technique=("powder-xrd" if i % 2 else "uv-vis"),
                           institution=f"inst-{i % 3}"))
    for filters in ({}, {"site": "site-1"},
                    {"metadata.technique": "uv-vis"},
                    {"institution": "inst-2"},
                    {"record_id": "rec-0007"},
                    {"metadata.technique": "powder-xrd",
                     "institution": "inst-1"}):
        assert ([e["record_id"] for e in sharded.query(**filters)]
                == [e["record_id"] for e in flat.query(**filters)])


def test_results_sorted_by_record_id(sharded):
    ids = [e["record_id"] for e in sharded.query()]
    assert ids == sorted(ids)


def test_site_and_pk_queries_route_fanouts_counted(sharded):
    before = dict(sharded.stats)
    sharded.query(site="site-1")
    sharded.query(record_id="rec-0002")
    sharded.query(**{"metadata.technique": "uv-vis"})
    stats = sharded.stats
    assert stats["routed_queries"] == before["routed_queries"] + 2
    assert stats["fanout_queries"] == before["fanout_queries"] + 1


def test_pk_query_for_unknown_record_is_empty(sharded):
    assert sharded.query(record_id="rec-9999") == []


def test_moved_site_republish_drops_stale_copy(sharded):
    moved = entry(3, "site-4")
    old_shard = sharded.shard_id("site-3")
    sharded.publish(moved)
    assert len(sharded) == 20
    assert sharded.get("rec-0003")["site"] == "site-4"
    assert ("rec-0003" in sharded.shards[old_shard]) == (
        old_shard == sharded.shard_id("site-4"))
    assert [e["record_id"] for e in sharded.query(site="site-3")
            if e["record_id"] == "rec-0003"] == []


def test_remove(sharded):
    sharded.remove("rec-0000")
    assert "rec-0000" not in sharded
    assert sharded.get("rec-0000") is None
    sharded.remove("rec-0000")  # idempotent
    assert len(sharded) == 19


def test_stats_aggregate_shard_counters(sharded):
    assert sharded.stats["publishes"] == 20
    sharded.query(site="site-0")
    assert sharded.stats["queries"] >= 1
    assert sharded.stats["index_hits"] >= 1


def test_shard_sizes_cover_all_entries(sharded):
    assert sum(sharded.shard_sizes()) == 20
    assert len(sharded.shard_sizes()) == 4


def test_index_hits_for_secondary_filters(sharded):
    hits_before = sharded.stats["index_hits"]
    misses_before = sharded.stats["index_misses"]
    sharded.query(**{"metadata.technique": "uv-vis"})
    assert sharded.stats["index_hits"] > hits_before
    assert sharded.stats["index_misses"] == misses_before


def test_unindexed_filter_scans(sharded):
    misses_before = sharded.stats["index_misses"]
    rows = sharded.query(**{"metadata.color": "blue"})
    assert rows == []
    assert sharded.stats["index_misses"] > misses_before


# -- shard fan-in (merge protocol) -------------------------------------------


def test_discovery_index_merge_from_combines_entries_and_stats():
    left, right = DiscoveryIndex(), DiscoveryIndex()
    for i in range(4):
        left.publish(entry(i, "site-0"))
    for i in range(4, 7):
        right.publish(entry(i, "site-1"))
    right.query(site="site-1")
    left.merge_from(right)
    assert len(left) == 7
    assert left.get("rec-0005")["site"] == "site-1"
    assert left.stats["publishes"] == 7
    assert left.stats["queries"] == 1
    # Secondary indexes cover the merged entries too.
    assert len(left.query(site="site-1")) == 3


def test_discovery_index_merge_conflict_incoming_wins():
    left, right = DiscoveryIndex(), DiscoveryIndex()
    left.publish(entry(0, "site-0", technique="uv-vis"))
    right.publish(entry(0, "site-0", technique="powder-xrd"))
    left.merge_from(right)
    assert len(left) == 1
    assert left.get("rec-0000")["metadata"]["technique"] == "powder-xrd"
    assert [e["record_id"] for e in
            left.query(**{"metadata.technique": "uv-vis"})] == []


def test_discovery_index_state_is_deterministic_snapshot():
    idx = DiscoveryIndex()
    for i in (3, 1, 2):
        idx.publish(entry(i, "site-0"))
    state = idx.state()
    assert [e["record_id"] for e in state["entries"]] == [
        "rec-0001", "rec-0002", "rec-0003"]
    assert state["stats"]["publishes"] == 3


def test_sharded_merge_matches_single_index(sharded):
    other = ShardedDiscoveryIndex(n_shards=4)
    for i in range(20, 30):
        other.publish(entry(i, f"site-{i % 5}"))
    sharded.merge_from(other)
    assert len(sharded) == 30
    assert sum(sharded.shard_sizes()) == 30
    # Merged entries are query-routable exactly like locally-published ones.
    assert sharded.get("rec-0025")["site"] == "site-0"
    assert any(e["record_id"] == "rec-0025"
               for e in sharded.query(site="site-0"))
    flat_state = sharded.state()
    assert flat_state["n_shards"] == 4
    assert sum(len(s["entries"]) for s in flat_state["shards"]) == 30


def test_sharded_merge_rejects_mismatched_shard_counts(sharded):
    with pytest.raises(ValueError):
        sharded.merge_from(ShardedDiscoveryIndex(n_shards=8))


# -- work counts ----------------------------------------------------------------

TECHNIQUES = ("powder-xrd", "uv-vis", "saxs", "xps", "raman", "nmr")


def _mesh(n_facilities, seed=0, records_per=5):
    """A facility corpus plus a 240-query governance stream: technique
    sweeps, institutional audits, facility listings, primary-key
    fetches."""
    rng = np.random.default_rng(seed)
    entries = [entry(f * records_per + r, f"site-{f}",
                     technique=TECHNIQUES[int(rng.integers(6))],
                     institution=f"inst-{f % 40}")
               for f in range(n_facilities) for r in range(records_per)]
    queries = []
    for _ in range(240):
        shape = rng.random()
        if shape < 0.4:
            queries.append({"metadata.technique":
                            TECHNIQUES[int(rng.integers(6))]})
        elif shape < 0.7:
            queries.append({"institution": f"inst-{int(rng.integers(40))}"})
        elif shape < 0.9:
            queries.append({"site": f"site-{int(rng.integers(n_facilities))}"})
        else:
            queries.append({"record_id": entries[int(
                rng.integers(len(entries)))]["record_id"]})
    return entries, queries


def _unmatched(start, n):
    """Entries that no governance query in :func:`_mesh` selects."""
    return [entry(start + i, f"pad-site-{i % 97}", technique="pad",
                  institution="pad-inst") for i in range(n)]


def _index(entries):
    idx = ShardedDiscoveryIndex(n_shards=32)
    for e in entries:
        idx.publish(e)
    return idx


def test_query_calls_do_not_grow_with_unmatched_entries(call_counts):
    """Queries probe postings, never scan: padding a 1000-facility corpus
    with 3x entries no query matches leaves the calls unchanged."""
    entries, queries = _mesh(1000)
    counts, results = [], []
    for corpus in (entries, entries + _unmatched(len(entries),
                                                 3 * len(entries))):
        idx = _index(corpus)
        counts.append(call_counts(
            lambda: results.append([idx.query(**q) for q in queries])))
    assert counts[0] == counts[1]
    assert results[0] == results[1]


def test_postings_only_queries_skip_the_entry_filter(monkeypatch):
    """A query answered wholly from postings (no residual filter, no
    predicate) returns its sorted candidates without re-checking each
    entry, and the same entries a predicate-carrying query returns."""
    entries, queries = _mesh(1000)
    idx = _index(entries)
    postings_only = [q for q in queries if "record_id" not in q]
    everything = [idx.query(predicate=lambda e: True, **q)
                  for q in postings_only]
    checked = []
    real = mesh._entry_matches
    monkeypatch.setattr(mesh, "_entry_matches",
                        lambda *args: checked.append(1) or real(*args))
    assert [idx.query(**q) for q in postings_only] == everything
    assert checked == []


def test_publish_calls_do_not_grow_with_index_size(call_counts):
    """Publishing the same 100 entries costs the same calls into a
    250-facility index as into a 1000-facility one."""
    probe = _unmatched(10_000, 100)
    counts = []
    for n_facilities in (250, 1000):
        idx = _index(_mesh(n_facilities)[0])
        counts.append(call_counts(lambda: [idx.publish(e) for e in probe]))
    assert counts[0] == counts[1]
