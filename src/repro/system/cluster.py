"""EFDedupCluster: the public facade tying everything together.

The end-to-end workflow of the paper in one object:

1. describe the edge fleet (a :class:`~repro.network.topology.Topology`) and
   each node's data statistics (a :class:`~repro.core.model.ChunkPoolModel`,
   typically fitted with :class:`~repro.core.estimation.CharacteristicEstimator`);
2. :meth:`plan` — solve SNOD2 with a chosen partitioner to get the D2-rings;
3. :meth:`deploy` — instantiate a distributed index per ring and a Dedup
   Agent per node, all forwarding unique chunks to one central cloud store;
4. ingest data at the edge nodes; read the dedup/cost outcome.

Example:
    >>> cluster = EFDedupCluster(topology, problem)
    >>> cluster.plan(SmartPartitioner(n_rings=5))
    >>> cluster.deploy()
    >>> cluster.ingest("edge-0", payload)
    >>> cluster.report()["dedup_ratio"]  # doctest: +SKIP
"""

from __future__ import annotations

from typing import Optional

from repro.core.costs import Partition, SNOD2Problem
from repro.core.partitioning.base import Partitioner
from repro.dedup.engine import DedupResult
from repro.dedup.stats import DedupStats
from repro.network.topology import Topology
from repro.obs.hub import MetricsHub, series
from repro.system.cloud import CentralCloudStore
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring


class ClusterClosedError(RuntimeError):
    """A durable cluster was asked to deploy after its shutdown closed the
    refcount journal and content plane its rings would write through."""


class EFDedupCluster:
    """A planned-and-deployed EF-dedup system over an edge topology.

    Args:
        topology: the edge fleet; node order must match the problem's source
            indexes (source i ↔ ``topology.nodes[i]``).
        problem: the SNOD2 instance describing data statistics and costs.
        config: system tunables.
    """

    def __init__(
        self,
        topology: Topology,
        problem: SNOD2Problem,
        config: Optional[EFDedupConfig] = None,
    ) -> None:
        if problem.n_sources != len(topology.nodes):
            raise ValueError(
                f"problem has {problem.n_sources} sources but topology has "
                f"{len(topology.nodes)} nodes"
            )
        self.topology = topology
        self.problem = problem
        self.config = config if config is not None else EFDedupConfig()
        self.cloud = CentralCloudStore()
        # Payload data plane; None on the accounting-only base cluster.
        # Subclasses set it before deploy() so rings grow content stores.
        self.content_plane = None
        # Deployment-shared secure tier (convergent encryption + PoW +
        # hot key index); built by DurableEFDedupCluster when
        # config.secure is set — it needs the payload plane.
        self.secure = None
        self.partition: Optional[Partition] = None
        self.rings: list[D2Ring] = []
        self._ring_of: dict[str, D2Ring] = {}
        # Stats of agents torn down by live migration (their nodes moved
        # rings); merged into combined_stats so accounting never resets.
        self._carryover_stats = DedupStats()
        # Dissolved rings whose stores must outlive the cutover to serve
        # the dual-lookup window; drained by LiveMigrator.close_window or,
        # failing that, by shutdown().
        self._retired_rings: list[D2Ring] = []
        self.last_migration = None  # the most recent MigrationReport

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #

    def plan(self, partitioner: Partitioner) -> Partition:
        """Solve SNOD2 and remember the resulting D2-ring partition."""
        self.partition = partitioner.partition_checked(self.problem)
        return self.partition

    def planned_cost(self) -> dict[str, float]:
        """Model-predicted storage/network/aggregate cost of the plan."""
        if self.partition is None:
            raise RuntimeError("call plan() before planned_cost()")
        return self.problem.cost_breakdown(self.partition)

    def node_rings(self) -> list[list[str]]:
        """The plan expressed in topology node ids."""
        if self.partition is None:
            raise RuntimeError("call plan() before node_rings()")
        ids = self.topology.node_ids
        return [[ids[i] for i in ring] for ring in self.partition]

    # ------------------------------------------------------------------ #
    # deployment and ingestion
    # ------------------------------------------------------------------ #

    def deploy(self) -> None:
        """Instantiate the planned rings (index stores + agents)."""
        if self.partition is None:
            raise RuntimeError("call plan() before deploy()")
        if self.config.secure and self.secure is None:
            raise RuntimeError(
                "config.secure requires a payload data plane — deploy a "
                "DurableEFDedupCluster"
            )
        self.rings = [
            D2Ring(
                ring_id=f"ring-{i}",
                members=members,
                cloud=self.cloud,
                config=self.config,
                content_plane=self.content_plane,
                secure=self.secure,
            )
            for i, members in enumerate(self.node_rings())
        ]
        self._ring_of = {nid: ring for ring in self.rings for nid in ring.members}

    def shutdown(self) -> None:
        """Close every deployed ring's transport.

        Required when ``config.transport == "asyncio"`` (live rings hold
        sockets and an event-loop thread); a harmless no-op for in-process
        rings. This cluster can be re-deployed afterwards; a durable
        cluster's shutdown is final (:meth:`DurableEFDedupCluster.shutdown`).

        Nothing the cluster built is left in a reference cycle: once the
        last outside reference is dropped, reference counting frees the
        cluster, its rings, their stores, replicas and node servers at
        once, without waiting for the cyclic collector.
        """
        for ring in self.rings:
            ring.close()
        for ring in self._retired_rings:
            ring.close()
        self._retired_rings.clear()

    def __enter__(self) -> "EFDedupCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def ring_for(self, node_id: str) -> D2Ring:
        try:
            return self._ring_of[node_id]
        except KeyError:
            raise KeyError(
                f"node {node_id!r} has no deployed ring — was deploy() called?"
            ) from None

    def ingest(self, node_id: str, data: bytes) -> DedupResult:
        """Deduplicate ``data`` arriving at ``node_id``."""
        return self.ring_for(node_id).ingest(node_id, data)

    # ------------------------------------------------------------------ #
    # live migration
    # ------------------------------------------------------------------ #

    def migrate(self, target, problem=None, tracer=None):
        """Apply a :class:`~repro.system.replanner.ReplanDecision` (or raw
        partition) to the deployed rings without stopping ingest.

        Returns the :class:`~repro.system.migration.LiveMigrator` in its
        DUAL_LOOKUP state; call ``close_window()`` on it to commit once
        in-flight traffic has drained. See
        :class:`~repro.system.migration.LiveMigrator` for the cutover
        protocol.
        """
        from repro.system.migration import LiveMigrator

        migrator = LiveMigrator(self, tracer=tracer)
        migrator.migrate(target, problem=problem)
        return migrator

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def combined_stats(self) -> DedupStats:
        total = self._carryover_stats
        for ring in self.rings:
            total = total.merge(ring.combined_stats())
        return total

    def report(self) -> dict[str, float]:
        """System-wide outcome: dedup ratio, WAN traffic, cloud storage."""
        stats = self.combined_stats()
        return {
            "dedup_ratio": stats.dedup_ratio,
            "raw_mb": stats.raw_bytes / 1e6,
            "wan_mb": self.cloud.received_bytes / 1e6,
            "cloud_stored_mb": self.cloud.stored_bytes / 1e6,
            "n_rings": float(len(self.rings)),
        }

    def metrics_hub(self) -> MetricsHub:
        """One hub spanning the whole deployment: every ring's registries
        under its ring id (``ring-0.dedup.*``, ``ring-0.kvstore.*``, …) plus
        the shared cloud store under ``cloud.*``."""
        if not self.rings:
            raise RuntimeError("call deploy() before metrics_hub()")
        hub = MetricsHub()
        for ring in self.rings:
            ring.register_metrics(hub, prefix=f"{ring.ring_id}.")
        cloud = self.cloud
        hub.register(
            "cloud",
            lambda: {
                "received_bytes": float(cloud.received_bytes),
                "received_chunks": float(cloud.received_chunks),
                "redundant_bytes": float(cloud.redundant_bytes),
                "stored_bytes": float(cloud.stored_bytes),
                "stored_chunks": float(cloud.stored_chunks),
            },
        )
        hub.register("migration", self.migration_metrics)
        return hub

    def migration_metrics(self) -> dict[str, float]:
        """The most recent live migration's counters plus its state's index
        and the number of nodes it moved (empty before any migration)."""
        from repro.system.migration import MIGRATION_STATES

        report = self.last_migration
        if report is None:
            return {}
        return {
            **series(report),
            "state": MIGRATION_STATES.index(report.state),
            "nodes_moved": report.n_moved,
        }


class DurableEFDedupCluster(EFDedupCluster):
    """An EF-dedup cluster with a real payload data plane.

    Unique-chunk payloads land on ring-local content stores (the member
    owning the fingerprint, over the live transport when
    ``config.transport == "asyncio"``), spill to an erasure-coded cloud
    tier (RS(k, m) striping across failure zones), and are reclaimed by a
    refcount GC once no recipe references them. Restores come from edge
    shelves when possible and k-of-n reconstruction otherwise, so every
    file stays byte-recoverable with up to m zones failed and any number
    of edge nodes gone.

    Recipes and refcounts are **cluster-scoped** (not per ring): live
    migration dissolves rings wholesale, and restorability must survive
    the swap.

    Args:
        journal_dir: when set, refcounts are WAL-journaled under this
            directory and survive a crash-restart of the control process.
    """

    def __init__(self, topology, problem, config=None, journal_dir=None) -> None:
        super().__init__(topology, problem, config=config)
        from repro.content import ContentPlane, RefcountGC
        from repro.dedup.recipes import RecipeStore
        from repro.erasure.striped_store import ErasureCodedChunkStore

        cfg = self.config
        self.tier = ErasureCodedChunkStore(
            data_shards=cfg.ec_data_shards,
            parity_shards=cfg.ec_parity_shards,
        )
        self.gc = RefcountGC(journal_dir=journal_dir)
        self.content_plane = ContentPlane(
            self.tier, gc=self.gc, spill_mode=cfg.spill_mode
        )
        self.recipes = RecipeStore()
        self._shut_down = False
        if cfg.secure:
            from repro.secure import SecureTier

            self.secure = SecureTier(
                hot_index_size=cfg.hot_index_size, wan_rtt_s=cfg.wan_rtt_s
            )

    # ------------------------------------------------------------------ #
    # file lifecycle
    # ------------------------------------------------------------------ #

    def ingest_file(self, node_id: str, file_id: str, data: bytes):
        """Deduplicate ``data`` at ``node_id``, record its recipe in the
        cluster catalog, and reference-count its chunks — one pass, see
        :meth:`~repro.system.ring.D2Ring.ingest_file`."""
        return self.ring_for(node_id).ingest_file(
            node_id, file_id, data, recipes=self.recipes
        )

    def restore_file(self, file_id: str) -> bytes:
        """Reassemble a file through the content plane (edge shelves, then
        k-of-n tier reconstruction); verifies every chunk fingerprint —
        one body, see :meth:`~repro.system.ring.D2Ring.restore_file`. Every
        ring shares this cluster's plane and secure tier, so any ring
        reads the cluster catalog's recipe alike."""
        return self.rings[0].restore_file(file_id, recipes=self.recipes)

    def delete_file(self, file_id: str) -> int:
        """Drop a file's recipe and dereference its chunks; returns how
        many chunk refcounts hit zero (reclaimable by the next
        :meth:`gc_sweep`). Bytes are not freed here — sweeping is separate
        so batches of deletes amortize one sweep."""
        from collections import Counter

        recipe = self.recipes.remove(file_id)
        zeroed = 0
        for fingerprint, refs in Counter(
            entry.fingerprint for entry in recipe.entries
        ).items():
            if self.gc.decr(fingerprint, refs) == 0:
                zeroed += 1
        return zeroed

    def gc_sweep(self, include_unreferenced: bool = True):
        """Reclaim all zero-ref chunks (and, by default, untracked
        orphans) from every layer; returns the
        :class:`~repro.content.plane.SweepReport`."""
        return self.content_plane.sweep(
            cloud=self.cloud, include_unreferenced=include_unreferenced
        )

    # ------------------------------------------------------------------ #
    # secure tier: hot-index partial migration
    # ------------------------------------------------------------------ #

    def migrate_hot_index(self):
        """Stream the hot slice of the secure key index to the edge and
        open the dual-lookup window (ingest may continue throughout);
        returns the :class:`~repro.secure.hotindex.HotMigrationReport`.
        Call :meth:`close_hot_index_window` to commit."""
        if self.secure is None:
            raise RuntimeError(
                "hot-index migration requires config.secure=True"
            )
        return self.secure.migrate_hot_slice()

    def close_hot_index_window(self):
        """Delta-restream in-window key inserts and commit the hot slice."""
        if self.secure is None:
            raise RuntimeError(
                "hot-index migration requires config.secure=True"
            )
        return self.secure.close_hot_window()

    # ------------------------------------------------------------------ #
    # cloud-tier zone faults
    # ------------------------------------------------------------------ #

    def fail_zone(self, zone: int) -> None:
        self.tier.fail_zone(zone)

    def recover_zone(self, zone: int) -> int:
        """Recover a tier zone; returns shards rebuilt by the backfill."""
        return self.tier.recover_zone(zone)

    # ------------------------------------------------------------------ #
    # lifecycle and observability
    # ------------------------------------------------------------------ #

    def deploy(self) -> None:
        if self._shut_down:
            journal = self.gc.wal
            where = "in memory" if journal is None else str(journal.log_path)
            raise ClusterClosedError(
                f"this durable cluster is shut down and its refcount journal "
                f"({where}) is closed; build a new DurableEFDedupCluster "
                "(over the same journal_dir to carry on)"
            )
        super().deploy()

    def shutdown(self) -> None:
        """Flush the payload plane, close every ring, then close the plane
        and its refcount journal.

        Final, unlike the accounting-only cluster's: :meth:`deploy`
        afterwards raises :class:`ClusterClosedError` naming the closed
        journal (reopen ``journal_dir`` in a new cluster to carry on). The
        freeing contract is the base class's: the plane, the tier and the
        rings go with the last reference to the cluster. Idempotent.
        """
        self.content_plane.flush()
        super().shutdown()
        self.content_plane.close()
        self._shut_down = True

    def metrics_hub(self) -> MetricsHub:
        hub = super().metrics_hub()
        hub.register("content.cloud_tier", self.tier.metrics)
        hub.register("content.gc", self.gc.metrics)
        hub.register("content.plane", self.content_plane.metrics)
        if self.secure is not None:
            hub.register("secure", self.secure.metrics)
        return hub

