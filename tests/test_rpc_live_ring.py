"""Acceptance tests for the live transport at the system layer: a D2-ring
running over real asyncio TCP servers must make the *same dedup decisions* —
the same unique-chunk fingerprint set, the same ratio — as the in-process
engine on the same seeded dataset, with and without injected faults."""

import pytest

from repro.cli import main as cli_main
from repro.rpc import FaultInjector
from repro.system.config import EFDedupConfig
from repro.system.reference import seeded_pool_workload
from repro.system.ring import D2Ring

MEMBERS = ["edge-0", "edge-1", "edge-2"]


def make_config(transport: str, **overrides) -> EFDedupConfig:
    base = dict(
        chunk_size=4096,
        replication_factor=2,
        lookup_batch=16,
        transport=transport,
        rpc_timeout_s=0.3,
        rpc_attempts=5,
    )
    base.update(overrides)
    return EFDedupConfig(**base)


def workload(files_per_node: int = 2, file_kb: int = 16, seed: int = 7):
    return seeded_pool_workload(len(MEMBERS), files_per_node, file_kb, seed)


def run_ring(config: EFDedupConfig, fault_injector=None, data=None):
    """Ingest the seeded workload; return (unique fingerprints, stats)."""
    with D2Ring(
        "ring-0", MEMBERS, config=config, fault_injector=fault_injector
    ) as ring:
        ring.ingest_workloads(data if data is not None else workload())
        return frozenset(ring.store.unique_keys()), ring.combined_stats()


class TestLiveRingMatchesInProcess:
    def test_identical_dedup_decisions_without_faults(self):
        """The acceptance criterion: byte-identical unique-chunk fingerprint
        sets between the asyncio cluster and the in-process engine."""
        ref_unique, ref_stats = run_ring(make_config("inproc"))
        live_unique, live_stats = run_ring(make_config("asyncio"))
        assert live_unique == ref_unique
        assert live_stats.unique_chunks == ref_stats.unique_chunks
        assert live_stats.dedup_ratio == ref_stats.dedup_ratio
        assert live_stats.raw_chunks == ref_stats.raw_chunks
        assert live_stats.unique_bytes == ref_stats.unique_bytes

    def test_identical_dedup_decisions_with_injected_faults(self):
        """Dropped and delayed frames are masked by retries — decisions
        cannot drift under transport faults."""
        ref_unique, ref_stats = run_ring(make_config("inproc"))
        injector = FaultInjector(seed=3)
        injector.drop_requests(times=3)
        injector.delay_requests(0.002)
        live_unique, live_stats = run_ring(
            make_config("asyncio"), fault_injector=injector
        )
        assert injector.stats.dropped_requests == 3  # the faults really fired
        assert injector.stats.delayed_requests > 0
        assert live_unique == ref_unique
        assert live_stats.dedup_ratio == ref_stats.dedup_ratio

    def test_identical_decisions_with_agent_caches(self):
        """A presence cache changes where lookups are answered, never what
        they answer."""
        ref_unique, ref_stats = run_ring(make_config("inproc"))
        live_unique, live_stats = run_ring(
            make_config("asyncio", cache_capacity=256)
        )
        assert live_unique == ref_unique
        assert live_stats.dedup_ratio == ref_stats.dedup_ratio

    def test_replica_failure_and_recovery_preserve_decisions(self):
        """γ=2 rides out one down member; hints replay on recovery."""
        data = workload(files_per_node=3)
        ref_unique, ref_stats = run_ring(make_config("inproc"), data=data)
        with D2Ring("ring-0", MEMBERS, config=make_config("asyncio")) as ring:
            per_round = {
                nid: [files[i] for i in range(3)] for nid, files in data.items()
            }
            ring.ingest_workloads({n: [fs[0]] for n, fs in per_round.items()})
            ring.fail_node("edge-1")
            ring.ingest_workloads({n: [fs[1]] for n, fs in per_round.items()})
            ring.recover_node("edge-1")
            ring.ingest_workloads({n: [fs[2]] for n, fs in per_round.items()})
            assert ring.store.stats.hints_replayed == ring.store.stats.hints_stored
            assert frozenset(ring.store.unique_keys()) == ref_unique
            assert ring.combined_stats().dedup_ratio == ref_stats.dedup_ratio


class TestRingTransportWiring:
    def test_inproc_ring_rejects_fault_injector(self):
        with pytest.raises(ValueError):
            D2Ring("r", MEMBERS, config=make_config("inproc"),
                   fault_injector=FaultInjector())

    def test_live_ring_exposes_its_cluster_and_closes_idempotently(self):
        ring = D2Ring("r", MEMBERS, config=make_config("asyncio"))
        try:
            assert ring.is_live
            assert ring.live_cluster is not None
            assert set(ring.store.ping_all()) == set(MEMBERS)
        finally:
            ring.close()
        ring.close()  # second close is a no-op

    def test_inproc_ring_is_not_live_and_close_is_noop(self):
        ring = D2Ring("r", MEMBERS, config=make_config("inproc"))
        assert not ring.is_live
        assert ring.live_cluster is None
        ring.close()

    def test_live_ring_membership_grows_and_shrinks(self):
        """Live rings now support membership changes over the wire: a
        newcomer boots a real server and bootstraps its key ranges; a
        departing member streams its shard out before stopping."""
        with D2Ring("r", MEMBERS, config=make_config("asyncio")) as ring:
            ring.ingest_workloads(workload())
            before = frozenset(ring.store.unique_keys())
            ring.add_member("edge-9")
            assert "edge-9" in ring.agents
            assert set(ring.store.ping_all()) == set(MEMBERS) | {"edge-9"}
            assert frozenset(ring.store.unique_keys()) == before
            ring.remove_member("edge-0")
            assert "edge-0" not in ring.agents
            assert "edge-0" not in ring.ring_indexes
            assert set(ring.store.ping_all()) == {"edge-1", "edge-2", "edge-9"}
            # Every fingerprint survives both the bootstrap and the leave.
            assert frozenset(ring.store.unique_keys()) == before
            # And the index still answers duplicates identically afterwards.
            stats_before = ring.combined_stats()
            ring.ingest_workloads(workload())
            assert ring.combined_stats().unique_chunks == stats_before.unique_chunks

    def test_cache_metrics_report_canonical_names(self):
        config = make_config("asyncio", cache_capacity=64)
        with D2Ring("r", MEMBERS, config=config) as ring:
            ring.ingest_workloads(workload())
            metrics = ring.cache_metrics()
            assert metrics["hits"] > 0
            assert 0.0 < metrics["hit_rate"] <= 1.0
            assert {n for n in ring.metrics_hub().collect() if n.startswith("cache.")} == {
                "cache.hits", "cache.misses", "cache.admissions",
                "cache.rejections", "cache.evictions", "cache.invalidations",
                "cache.hit_rate",
            }
            # cache hits shrink the wire traffic but not the decisions
            assert ring.local_lookup_fraction() >= 0.0

    def test_cacheless_ring_reports_no_cache_metrics(self):
        with D2Ring("r", MEMBERS, config=make_config("inproc")) as ring:
            ring.ingest_workloads(workload())
            assert ring.cache_metrics() == {}


class TestLiveCli:
    ARGS = ["--nodes", "3", "--files", "2", "--file-kb", "16", "--check"]

    def test_repro_live_check_passes(self, capsys):
        assert cli_main(["live"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "check: PASS" in out
        assert "rpc: calls=" in out

    def test_repro_live_check_passes_under_faults(self, capsys):
        args = self.ARGS + [
            "--drop-first", "3", "--delay-ms", "1",
            "--attempts", "6", "--timeout-ms", "150",
        ]
        assert cli_main(["live"] + args) == 0
        out = capsys.readouterr().out
        assert "check: PASS" in out
        assert "faults.dropped_requests=3" in out

    def test_repro_serve_is_an_alias_with_cache(self, capsys):
        assert cli_main(["serve"] + self.ARGS + ["--cache", "128"]) == 0
        out = capsys.readouterr().out
        assert "check: PASS" in out
        assert "cache.hit_rate=" in out
