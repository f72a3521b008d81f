"""Plan migration analysis: what changing D2-rings actually costs.

:class:`~repro.system.replanner.RingReplanner` gates re-ringing on a
migration cost. This module computes that cost from the plans themselves
instead of a hand-picked constant:

- :func:`diff_plans` aligns old and new rings (maximum-overlap matching)
  and reports which nodes actually move;
- :func:`estimate_migration_cost` prices the move in the same
  chunk-equivalent units as the SNOD2 objective: every moved node leaves a
  ring whose index must re-shard (its share of hashes re-streams to the
  remaining members) and joins a ring that must bootstrap it (its share of
  the destination index streams in).

The estimate uses the model's expected unique-chunk counts (Theorem 1), so
it needs no deployed system — it prices a *planned* migration, which is
exactly when the replanner asks.

The execution half, :class:`LiveMigrator`, applies an accepted
:class:`~repro.system.replanner.ReplanDecision` to a deployed
:class:`~repro.system.cluster.EFDedupCluster` without stopping ingest. The
cutover walks four states::

    PLANNED ── diff the partitions, snapshot each moved node's token ranges
    STREAMING ── carried shards stream between ring stores; membership
                 changes apply (removals stream to survivors, additions
                 bootstrap over the wire on live rings)
    DUAL_LOOKUP ── the new topology serves ingest; a fingerprint the new
                 ring calls fresh is double-checked against the source
                 rings before being declared unique, so claims made to the
                 old topology during streaming never miss. The probe is
                 timestamp-bounded at the cutover tick: claims a surviving
                 source ring keeps accepting afterwards belong to its own
                 topology and never leak into the destination's verdicts
    COMMITTED ── :meth:`LiveMigrator.close_window` re-streams the moved
                 ranges once more (the delta pass, bounded by the same
                 cutover tick), unwraps the agents, and closes dissolved
                 rings

The carried shard is a moved node's *primary token ranges* in its old
ring — γ·U_old/|P_old| entries in expectation, exactly what
:func:`estimate_migration_cost` prices. Fingerprints the node claimed that
hash to other members' ranges stay behind in the source ring; the
dual-lookup window is what keeps those answering duplicates during the
cutover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from repro.core.costs import Partition, SNOD2Problem, validate_partition
from repro.core.dedup_ratio import expected_unique_chunks
from repro.dedup.index import DedupIndex
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:
    from repro.system.cluster import EFDedupCluster
    from repro.system.replanner import ReplanDecision
    from repro.system.ring import D2Ring


@dataclass(frozen=True)
class PlanDiff:
    """The structural difference between two D2-ring plans.

    Attributes:
        moved_nodes: nodes whose ring assignment changes.
        stable_nodes: nodes that stay with (the bulk of) their old ring.
        ring_pairs: (old ring index, new ring index) alignment used; new
            rings with no aligned old ring map from -1 and vice versa.
    """

    moved_nodes: tuple[int, ...]
    stable_nodes: tuple[int, ...]
    ring_pairs: tuple[tuple[int, int], ...]

    @property
    def n_moved(self) -> int:
        return len(self.moved_nodes)

    @property
    def is_noop(self) -> bool:
        return not self.moved_nodes


def diff_plans(old: Partition, new: Partition, n_sources: int) -> PlanDiff:
    """Align ``new`` rings to ``old`` rings by maximum member overlap and
    report which nodes must move.

    Greedy alignment (largest overlap first) is exact enough here: the
    purpose is a cost estimate, and ties only shuffle which identical-cost
    assignment is reported.
    """
    validate_partition(old, n_sources)
    validate_partition(new, n_sources)
    old_sets = [set(r) for r in old]
    new_sets = [set(r) for r in new]
    overlaps = [
        (len(old_sets[i] & new_sets[j]), i, j)
        for i in range(len(old_sets))
        for j in range(len(new_sets))
    ]
    overlaps.sort(reverse=True)
    used_old: set[int] = set()
    used_new: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for overlap, i, j in overlaps:
        if overlap == 0 or i in used_old or j in used_new:
            continue
        pairs.append((i, j))
        used_old.add(i)
        used_new.add(j)
    for j in range(len(new_sets)):
        if j not in used_new:
            pairs.append((-1, j))
    for i in range(len(old_sets)):
        if i not in used_old:
            pairs.append((i, -1))

    aligned_new_of_old = {i: j for i, j in pairs if i >= 0 and j >= 0}
    moved: list[int] = []
    stable: list[int] = []
    node_old_ring = {v: i for i, ring in enumerate(old) for v in ring}
    node_new_ring = {v: j for j, ring in enumerate(new) for v in ring}
    for v in range(n_sources):
        i = node_old_ring[v]
        j = node_new_ring[v]
        if aligned_new_of_old.get(i) == j:
            stable.append(v)
        else:
            moved.append(v)
    return PlanDiff(
        moved_nodes=tuple(moved),
        stable_nodes=tuple(stable),
        ring_pairs=tuple(pairs),
    )


def estimate_migration_cost(
    problem: SNOD2Problem,
    old: Partition,
    new: Partition,
    gamma: int | None = None,
) -> float:
    """Chunk-equivalents of index data a migration re-streams.

    For each moved node: leaving a ring re-streams its stored share of the
    old ring's index (γ·U_old / |old ring| entries) to the survivors, and
    joining bootstraps its share of the new ring's index (γ·U_new / |new
    ring|). Both are one-time transfers priced in chunks, the same unit as
    the SNOD2 storage term, so the result plugs directly into
    :class:`~repro.system.replanner.RingReplanner`'s ``migration_cost``.
    """
    diff = diff_plans(old, new, problem.n_sources)
    if diff.is_noop:
        return 0.0
    g = gamma if gamma is not None else problem.gamma
    node_old_ring = {v: ring for ring in old for v in ring}
    node_new_ring = {v: ring for ring in new for v in ring}
    old_unique = {
        id(ring): expected_unique_chunks(problem.model, ring, problem.duration)
        for ring in old
    }
    new_unique = {
        id(ring): expected_unique_chunks(problem.model, ring, problem.duration)
        for ring in new
    }
    total = 0.0
    for v in diff.moved_nodes:
        src = node_old_ring[v]
        dst = node_new_ring[v]
        total += g * old_unique[id(src)] / len(src)
        total += g * new_unique[id(dst)] / len(dst)
    return total


# --------------------------------------------------------------------- #
# live execution
# --------------------------------------------------------------------- #

#: Cutover states of one live migration, in order.
MIGRATION_STATES = ("PLANNED", "STREAMING", "DUAL_LOOKUP", "COMMITTED")


@dataclass(frozen=True)
class NodeMove:
    """One node's reassignment, resolved to deployed ring positions."""

    node: int
    node_id: str
    src_ring: int  # index into the old partition
    dst_ring: int  # index into the new partition


@dataclass
class MigrationReport:
    """What one live migration did; the numeric fields are the
    ``migration.*`` series of the same name.

    ``entries_streamed`` counts carried-shard rows applied at cutover;
    ``entries_restreamed`` counts the delta pass at
    :meth:`LiveMigrator.close_window`. ``dual_lookup_probes`` /
    ``dual_lookup_hits`` measure the window's overhead and the in-flight
    claims it saved. ``payloads_carried`` counts edge chunk payloads
    re-homed out of dissolving rings' content shelves at cutover.
    """

    state: str = "PLANNED"
    moves: tuple[NodeMove, ...] = ()
    cost_estimate: float = 0.0
    rings_created: int = 0
    rings_dissolved: int = 0
    entries_streamed: int = 0
    entries_restreamed: int = 0
    payloads_carried: int = 0
    dual_lookup_probes: int = 0
    dual_lookup_hits: int = 0
    stream_wall_s: float = 0.0
    close_wall_s: float = 0.0

    @property
    def n_moved(self) -> int:
        return len(self.moves)


class DualLookupIndex(DedupIndex):
    """Cutover-window wrapper around a destination ring's index.

    Lookups are answered by the new ring (``primary``) as usual, but a
    fingerprint the new ring calls *fresh* is double-checked against the
    migration's source rings (``fallback``, a batched membership probe)
    before being declared unique. A hit flips the verdict to duplicate —
    the chunk's bytes already reached the central cloud through the old
    topology — while the primary's insert stands, so the fingerprint is
    backfilled into the new index and later lookups need no probe.

    The probe is read-only on the source rings; its cost is the window's
    overhead and is reported as ``migration.dual_lookup_probes``.
    """

    def __init__(
        self,
        primary: DedupIndex,
        fallback: Callable[[list[str]], list[bool]],
        report: MigrationReport,
    ) -> None:
        self.primary = primary
        self.fallback = fallback
        self.report = report

    def _confirm_fresh(self, fingerprints: list[str], verdicts: list[bool]) -> list[bool]:
        fresh = [fp for fp, is_new in zip(fingerprints, verdicts) if is_new]
        if not fresh:
            return verdicts
        self.report.dual_lookup_probes += len(fresh)
        carried_over = {
            fp for fp, present in zip(fresh, self.fallback(fresh)) if present
        }
        self.report.dual_lookup_hits += len(carried_over)
        return [
            is_new and fp not in carried_over
            for fp, is_new in zip(fingerprints, verdicts)
        ]

    def lookup_and_insert_many(
        self, fingerprints: Iterable[str], metadata: Optional[str] = None
    ) -> list[bool]:
        fps = list(fingerprints)
        return self._confirm_fresh(
            fps, self.primary.lookup_and_insert_many(fps, metadata=metadata)
        )

    def __len__(self) -> int:
        return len(self.primary)

    def fingerprints(self) -> Iterator[str]:
        return self.primary.fingerprints()


class LiveMigrator:
    """Applies a new partition to a deployed cluster without stopping ingest.

    One migrator drives one migration through the
    :data:`MIGRATION_STATES`. :meth:`migrate` runs PLANNED → STREAMING →
    DUAL_LOOKUP and returns with the cluster already serving the new
    topology; ingest may continue throughout. :meth:`close_window` runs the
    delta re-stream and commits. The caller chooses how long the window
    stays open (typically: until the next ingest quiesce point).

    Works for both transports: in-process rings stream shard-to-shard,
    live rings stream over ``fetch_range``/``multi_put`` RPCs and boot or
    stop real node servers on membership changes.
    """

    def __init__(self, cluster: "EFDedupCluster", tracer=None) -> None:
        self.cluster = cluster
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.state = "PLANNED"
        self.report = MigrationReport()
        self._window: list[tuple] = []  # (agent, wrapped index)
        self._dissolved: list["D2Ring"] = []
        # (move, old-topology token ranges, carried rows, source store,
        #  cutover tick of that store's write clock)
        self._pending: list[tuple] = []

    # -- helpers --------------------------------------------------------- #

    @staticmethod
    def _as_partition(target) -> Partition:
        candidate = getattr(target, "candidate_partition", None)
        return candidate if candidate is not None else target

    def _fresh_ring_id(self, taken: set[str]) -> str:
        k = 0
        while f"ring-{k}" in taken:
            k += 1
        taken.add(f"ring-{k}")
        return f"ring-{k}"

    @staticmethod
    def _make_fallback(probes) -> Callable[[list[str]], list[bool]]:
        """``probes`` is a list of (store, cutover tick): each store only
        vouches for claims stamped at or before its tick — anything newer
        is the source ring's own post-cutover traffic."""

        def probe(fingerprints: list[str]) -> list[bool]:
            present = [False] * len(fingerprints)
            for store, ts_bound in probes:
                if all(present):
                    break
                hits = store.contains_many(fingerprints, ts_bound=ts_bound)
                present = [a or b for a, b in zip(present, hits)]
            return present

        return probe

    # -- the cutover ------------------------------------------------------ #

    def migrate(
        self,
        target: "Union[ReplanDecision, Partition]",
        problem: Optional[SNOD2Problem] = None,
    ) -> MigrationReport:
        """Stream, re-ring, and cut over to ``target``.

        ``target`` is a :class:`~repro.system.replanner.ReplanDecision`
        (its candidate partition and priced migration cost are used) or a
        raw partition. Returns the report with the cluster in the
        DUAL_LOOKUP state — call :meth:`close_window` to commit.
        """
        if self.state != "PLANNED":
            raise RuntimeError(
                f"migrator already ran (state {self.state!r}); use a fresh one"
            )
        cluster = self.cluster
        if cluster.partition is None or not cluster.rings:
            raise RuntimeError("cluster must be planned and deployed before migrating")
        new_partition = self._as_partition(target)
        problem = problem if problem is not None else cluster.problem
        validate_partition(new_partition, problem.n_sources)
        old_partition = cluster.partition
        ids = cluster.topology.node_ids
        diff = diff_plans(old_partition, new_partition, problem.n_sources)
        priced = getattr(target, "migration_cost", None)
        self.report.cost_estimate = (
            float(priced)
            if priced is not None
            else estimate_migration_cost(problem, old_partition, new_partition)
        )
        node_old = {v: i for i, ring in enumerate(old_partition) for v in ring}
        node_new = {v: j for j, ring in enumerate(new_partition) for v in ring}
        self.report.moves = tuple(
            NodeMove(v, ids[v], node_old[v], node_new[v]) for v in diff.moved_nodes
        )
        new_of_old = {i: j for i, j in diff.ring_pairs if i >= 0}
        old_of_new = {j: i for i, j in diff.ring_pairs if j >= 0}

        old_rings = list(cluster.rings)
        if diff.is_noop:
            # Pure relabeling: ring memberships are unchanged, only their
            # order in the partition may differ. Swap the map atomically.
            cluster.rings = [old_rings[old_of_new[j]] for j in range(len(new_partition))]
            cluster.partition = new_partition
            cluster._ring_of = {
                nid: ring for ring in cluster.rings for nid in ring.members
            }
            self.state = self.report.state = "COMMITTED"
            return self.report

        started = time.perf_counter()
        self.state = self.report.state = "STREAMING"
        with self.tracer.span("migration.stream", moves=len(self.report.moves)):
            # Snapshot each moved node's carried shard (and remember the
            # token ranges — they describe the *old* topology, which the
            # delta pass at close_window re-reads after the node has left).
            # Each source store's write clock is ticked once, right after
            # its snapshot: everything stamped later is post-cutover traffic
            # of the surviving ring, invisible to the window and the delta.
            cutover_ts: dict[int, int] = {}
            for mv in self.report.moves:
                src = old_rings[mv.src_ring]
                ranges = src.store.ring.primary_token_ranges(mv.node_id)
                carried = src.store.stream_ranges(ranges)
                if id(src.store) not in cutover_ts:
                    cutover_ts[id(src.store)] = src.store.clock_now()
                self._pending.append(
                    (mv, ranges, carried, src.store, cutover_ts[id(src.store)])
                )

            # Stats of agents about to be torn down survive on the cluster.
            for mv in self.report.moves:
                agent = old_rings[mv.src_ring].agents[mv.node_id]
                cluster._carryover_stats = cluster._carryover_stats.merge(agent.stats)

            # Dissolving rings lose every member; their stores must outlive
            # the cutover to serve the dual-lookup window, so they skip
            # member-by-member teardown and close at close_window.
            dissolving = {
                i for i in range(len(old_partition)) if new_of_old.get(i, -1) == -1
            }
            for mv in self.report.moves:
                if mv.src_ring not in dissolving:
                    old_rings[mv.src_ring].remove_member(mv.node_id)

            # Assemble the new ring list: aligned rings carry over, the
            # rest deploy fresh (their members are all movers).
            taken = {
                old_rings[i].ring_id
                for i in range(len(old_partition))
                if i not in dissolving
            }
            from repro.system.ring import D2Ring

            new_rings: list["D2Ring"] = []
            for j, members in enumerate(new_partition):
                i = old_of_new.get(j, -1)
                if i >= 0:
                    new_rings.append(old_rings[i])
                else:
                    self.report.rings_created += 1
                    new_rings.append(
                        D2Ring(
                            ring_id=self._fresh_ring_id(taken),
                            members=[ids[v] for v in members],
                            cloud=cluster.cloud,
                            config=cluster.config,
                            content_plane=cluster.content_plane,
                            secure=cluster.secure,
                        )
                    )
            for mv in self.report.moves:
                dst = new_rings[mv.dst_ring]
                if mv.node_id not in dst.agents:
                    dst.add_member(mv.node_id)

            # Carried shards land in the destination stores.
            for mv, _ranges, carried, _src_store, _ts in self._pending:
                self.report.entries_streamed += new_rings[mv.dst_ring].store.ingest_entries(
                    carried
                )
        self.report.stream_wall_s = time.perf_counter() - started

        with self.tracer.span("migration.cutover"):
            # Atomic switchover: one assignment each, no partial routing.
            self._dissolved = [old_rings[i] for i in sorted(dissolving)]
            self.report.rings_dissolved = len(self._dissolved)
            cluster.partition = new_partition
            cluster.rings = new_rings
            cluster._ring_of = {
                nid: ring for ring in new_rings for nid in ring.members
            }
            cluster._retired_rings.extend(self._dissolved)

            # Dissolving rings take their content shelves with them when
            # they close, so edge payloads re-home to each member's new
            # ring now, while the source transports are still up. The
            # cloud tier is untouched — this only preserves edge locality.
            for ring in self._dissolved:
                if ring.content is None:
                    continue
                for member, shelf in ring.content.drain_by_member().items():
                    dst = cluster._ring_of[member]
                    if dst.content is None:
                        continue
                    for fp, data in shelf.items():
                        dst.content.put_chunk(fp, data)
                        self.report.payloads_carried += 1
                    dst.content.flush()

            # Open the dual-lookup window: every agent of a ring that
            # received movers probes those movers' source-ring stores,
            # bounded at each store's cutover tick.
            src_stores_of_dst: dict[int, list] = {}
            for mv in self.report.moves:
                probes = src_stores_of_dst.setdefault(mv.dst_ring, [])
                store = old_rings[mv.src_ring].store
                if all(s is not store for s, _ in probes):
                    probes.append((store, cutover_ts[id(store)]))
            for j, probes in src_stores_of_dst.items():
                fallback = self._make_fallback(probes)
                for agent in new_rings[j].agents.values():
                    wrapped = DualLookupIndex(agent.engine.index, fallback, self.report)
                    agent.engine.index = wrapped
                    self._window.append((agent, wrapped))
        self.state = self.report.state = "DUAL_LOOKUP"
        cluster.last_migration = self.report
        return self.report

    def close_window(self, re_stream: bool = True) -> MigrationReport:
        """Commit the migration: delta-re-stream the moved ranges (catching
        in-flight claims that reached the source rings up to the cutover
        tick but after the carried snapshot — never the surviving ring's
        own later traffic), unwrap the agents, and close dissolved rings'
        transports."""
        if self.state != "DUAL_LOOKUP":
            raise RuntimeError(f"no dual-lookup window open (state {self.state!r})")
        started = time.perf_counter()
        with self.tracer.span("migration.close"):
            if re_stream:
                for mv, ranges, _carried, src_store, ts_bound in self._pending:
                    delta = [
                        row
                        for row in src_store.stream_ranges(ranges)
                        if row[2] <= ts_bound
                    ]
                    dst = self.cluster._ring_of[mv.node_id]
                    self.report.entries_restreamed += dst.store.ingest_entries(delta)
            for agent, wrapped in self._window:
                if agent.engine.index is wrapped:
                    agent.engine.index = wrapped.primary
            self._window.clear()
            for ring in self._dissolved:
                ring.close()
                if ring in self.cluster._retired_rings:
                    self.cluster._retired_rings.remove(ring)
            self._dissolved.clear()
        self.report.close_wall_s = time.perf_counter() - started
        self.state = self.report.state = "COMMITTED"
        return self.report


def auto_migration_replanner(
    partitioner,
    horizon_intervals: float = 10.0,
):
    """A :class:`RingReplanner` whose migration bar is computed per decision
    from the actual plan diff rather than a constant.

    Convenience spelling of ``RingReplanner(partitioner,
    migration_cost="auto", ...)`` — the churn-aware pricing now lives in the
    replanner itself.
    """
    from repro.system.replanner import RingReplanner

    return RingReplanner(
        partitioner, migration_cost="auto", horizon_intervals=horizon_intervals
    )
