"""D2-rings: a partition cell with its distributed index and agents.

A :class:`D2Ring` owns one index store spanning its member nodes (one
Cassandra cluster per ring in the paper) and one
:class:`~repro.system.agent.DedupAgent` per member. Unique chunks flow
to the shared central cloud store.

The store comes in two transports, chosen by ``config.transport``:

- ``"inproc"`` (default) — the analytic
  :class:`~repro.kvstore.store.DistributedKVStore`;
- ``"asyncio"`` — a :class:`~repro.rpc.cluster.LiveKVCluster`: each member
  runs its replica behind a real TCP server on localhost and every index
  operation crosses the wire with timeouts, retries, and (optionally)
  injected faults. Live rings hold sockets and a loop thread — use the
  ring as a context manager or call :meth:`D2Ring.close`.

Failure behaviour mirrors Sec. IV: with replication factor γ ≥ 2 a ring
keeps deduplicating while a member is down (writes to the down replica turn
into hints), and the member catches up on recovery.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from typing import Iterable, Optional, Sequence

from repro.dedup.cache import LRUCacheIndex
from repro.dedup.recipes import FileRecipe, RecipeEntry, RecipeError, RecipeStore
from repro.dedup.stats import DedupStats
from repro.kvstore.store import DistributedKVStore
from repro.obs.histogram import Histogram
from repro.obs.hub import MetricsHub, series
from repro.system.agent import DedupAgent, RingIndex
from repro.system.cloud import CentralCloudStore
from repro.system.config import EFDedupConfig


class D2Ring:
    """One deduplication ring: members + index store + agents.

    Args:
        ring_id: label (e.g. "ring-0").
        members: the edge-node ids in this ring.
        cloud: the central cloud store unique chunks are forwarded to.
        config: system tunables.
        cloud_of_member: optional node → edge-cloud mapping; when given, the
            ring's index uses cloud-aware placement (γ replicas in distinct
            edge clouds where possible) instead of plain ring order.
        fault_injector: live transport only — a
            :class:`~repro.rpc.faults.FaultInjector` consulted on every
            message between agents and replicas.
        tracer: live transport only — a :class:`~repro.obs.trace.Tracer`
            shared by the ring's rpc client, node servers, and coordinator
            store, so one ingest batch traces client→coordinator→replica.
        content_plane: optional
            :class:`~repro.content.plane.ContentPlane`; when given, the
            ring grows a :class:`~repro.content.ring_store.RingContentStore`
            (unique-chunk payloads land on the member owning the
            fingerprint, then spill to the plane's erasure-coded cloud
            tier) and restores fetch through the plane instead of the
            accounting cloud.
        secure: optional deployment-shared
            :class:`~repro.secure.tier.SecureTier`; when given, unique
            chunks first *claim* against the tier's key index (a proven
            cross-ring hit skips the WAN upload), payloads are sealed
            with convergent encryption before storage, and restores
            decrypt. Requires ``content_plane`` — the accounting-only
            cloud path has nowhere to keep ciphertext.
    """

    def __init__(
        self,
        ring_id: str,
        members: Sequence[str],
        cloud: Optional[CentralCloudStore] = None,
        config: Optional[EFDedupConfig] = None,
        cloud_of_member: Optional[dict[str, str]] = None,
        fault_injector=None,
        tracer=None,
        content_plane=None,
        secure=None,
    ) -> None:
        if not members:
            raise ValueError(f"ring {ring_id!r} needs at least one member")
        self.ring_id = ring_id
        self.members = list(members)
        self.cloud = cloud if cloud is not None else CentralCloudStore()
        self.config = config if config is not None else EFDedupConfig()
        strategy = None
        if cloud_of_member is not None:
            from repro.kvstore.topology_strategy import CloudAwareReplicationStrategy

            strategy = CloudAwareReplicationStrategy(
                self.config.replication_factor, cloud_of_member
            )
        if fault_injector is not None and self.config.transport != "asyncio":
            raise ValueError("fault_injector requires transport='asyncio'")
        if tracer is not None and self.config.transport != "asyncio":
            raise ValueError(
                "tracer requires transport='asyncio' (spans instrument the rpc hops)"
            )
        self.tracer = tracer
        self._live = None
        if self.config.transport == "asyncio":
            from repro.rpc.cluster import LiveKVCluster

            self._live = LiveKVCluster(
                [self.config.node_spec(node_id) for node_id in self.members],
                self.config.call_policy(),
                strategy=strategy,
                fault_injector=fault_injector,
                tracer=tracer,
            )
            self.store = self._live.store
        else:
            self.store = DistributedKVStore(
                node_ids=self.members,
                replication_factor=self.config.replication_factor,
                vnodes=self.config.vnodes,
                default_consistency=self.config.consistency,
                strategy=strategy,
            )
        if secure is not None and content_plane is None:
            raise ValueError(
                "secure tier requires a content plane (ciphertext payloads "
                "need somewhere to live — use DurableEFDedupCluster)"
            )
        self.secure = secure
        self.recipes = RecipeStore()
        self._content_plane = content_plane
        self.content = None
        if content_plane is not None:
            from repro.content.ring_store import RingContentStore

            self.content = RingContentStore(
                self.ring_id, self.store, batch_size=self.config.content_batch
            )
            content_plane.register_ring(self)
        self.agents: dict[str, DedupAgent] = {}
        self.ring_indexes: dict[str, RingIndex] = {}
        self.brownouts: dict[str, "BrownoutIndex"] = {}
        for node_id in self.members:
            self._make_agent(node_id)

    def _store_unique_chunks(self, batch) -> None:
        """Content-plane unique sink, once per lookup batch: per chunk,
        account the WAN upload on the cloud (the chaos invariants compare
        unique claims against its counters) and buffer the payload for the
        owning ring member; then spill the batch to the erasure-coded tier
        in one encode pass and shelve it in one scatter.

        With a secure tier, a *ring*-unique chunk first claims against
        the deployment-wide key index: a proven hit means another ring
        already uploaded the identical ciphertext, so the whole upload is
        skipped (cross-ring dedup instead of redundant WAN bytes). On a
        miss the payload is sealed — convergent encryption, so identical
        plaintexts still produce identical stored bytes — and its key is
        published for later claimants once the batch is stored.
        """
        stored = []
        for chunk, fingerprint in batch:
            data = chunk.data
            if self.secure is not None:
                if self.secure.claim(fingerprint, data):
                    continue
                data = self.secure.seal(fingerprint, data)
            self.cloud.receive_chunk(chunk, fingerprint)
            self.content.put_chunk(fingerprint, data)
            stored.append((fingerprint, data))
        self._content_plane.spill_many(stored)
        if self.secure is not None:
            for fingerprint, _ in stored:
                self.secure.register(fingerprint)
        self.content.flush()

    def _make_agent(self, node_id: str) -> None:
        ring_index = RingIndex(
            self.store, local_node=node_id, consistency=self.config.consistency
        )
        self.ring_indexes[node_id] = ring_index
        index = ring_index
        # The accounting sink is the cloud's own method: a sink bound to the
        # ring would make every ring a reference cycle, which outlives its
        # shutdown until the cyclic collector runs.
        sink = (
            self.cloud.receive_chunks if self.content is None else self._store_unique_chunks
        )
        if self.config.brownout:
            # Brownout wraps the *ring* index (the trippable hop); the LRU
            # cache stacks above it, so cached duplicates keep answering
            # locally during a brownout and write-through verdicts populate
            # the cache like real ones.
            from repro.dedup.brownout import BrownoutIndex
            from repro.kvstore.errors import UnavailableError
            from repro.rpc.errors import (
                CircuitOpenError,
                DeadlineExceededError,
                RpcOverloadError,
                RpcTimeoutError,
            )

            # UnavailableError belongs in the trip set too: under overload
            # a shed/timed-out replica write surfaces as a failed ack
            # quorum, which is pushback, not data loss.
            brownout = BrownoutIndex(
                ring_index,
                trip_on=(
                    RpcOverloadError,
                    CircuitOpenError,
                    RpcTimeoutError,
                    DeadlineExceededError,
                    UnavailableError,
                ),
            )
            self.brownouts[node_id] = brownout
            index = brownout

            if self.content is None:
                # The shared cloud store is ground truth for uniqueness:
                # ingest is serial and every "unique" verdict uploads
                # synchronously, so receive_chunk returning False means
                # this occurrence was a false unique — whether from a
                # write-through verdict or from an index replica that
                # missed a partially-acked write under overload. Repair
                # the engine's accounting on the spot; the journal replay
                # then only has to repair the *index*.
                def sink_with_lengths(batch, _b=brownout, _nid=node_id):
                    for chunk, fingerprint in batch:
                        _b.note_length(fingerprint, chunk.length)
                        if self.cloud.receive_chunk(chunk, fingerprint) is False:
                            stats = self.agents[_nid].engine.stats
                            stats.unique_chunks -= 1
                            stats.unique_bytes -= chunk.length
                            stats.duplicate_chunks += 1
                            _b.stats.corrected_chunks += 1
                            _b.stats.corrected_bytes += chunk.length
            else:
                # Content-plane sinks have no authoritative duplicate
                # signal; accounting repair waits for the journal replay.
                def sink_with_lengths(batch, _sink=sink, _b=brownout):
                    # Lengths captured at the sink repair the accounting
                    # later: identical fingerprint ⇒ identical content ⇒
                    # one length.
                    for chunk, fingerprint in batch:
                        _b.note_length(fingerprint, chunk.length)
                    _sink(batch)

            sink = sink_with_lengths
        if self.config.cache_capacity > 0:
            # A presence cache answers hot duplicates at the agent instead of
            # crossing (what may be) the wire; decisions are unchanged.
            index = LRUCacheIndex(index, capacity=self.config.cache_capacity)
        self.agents[node_id] = DedupAgent(
            node_id=node_id,
            index=index,
            config=self.config,
            unique_sink=sink,
        )

    # ------------------------------------------------------------------ #
    # lifecycle (live transport holds sockets and a loop thread)
    # ------------------------------------------------------------------ #

    @property
    def is_live(self) -> bool:
        """True when the ring's index runs over the asyncio transport."""
        return self._live is not None

    @property
    def live_cluster(self):
        """The :class:`~repro.rpc.cluster.LiveKVCluster` behind a live ring
        (None for in-process rings)."""
        return self._live

    def close(self) -> None:
        """Shut down the live transport (no-op for in-process rings)."""
        if self.content is not None:
            self.content.flush()
        if self._content_plane is not None:
            self._content_plane.forget_ring(self.ring_id)
        if self._live is not None:
            self._live.close()

    def __enter__(self) -> "D2Ring":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.members)

    def agent(self, node_id: str) -> DedupAgent:
        try:
            return self.agents[node_id]
        except KeyError:
            raise KeyError(f"node {node_id!r} is not in ring {self.ring_id!r}") from None

    def ingest(self, node_id: str, data: bytes):
        """Deduplicate ``data`` at ``node_id`` against the ring's index."""
        return self.agent(node_id).ingest(data)

    def ingest_file(
        self,
        node_id: str,
        file_id: str,
        data: bytes,
        recipes: Optional[RecipeStore] = None,
    ):
        """Deduplicate ``data`` and record its recipe for later restore, in
        one pass: the recipe and the chunk references are taken from the
        lookup batches of the dedup run itself, so the file is chunked and
        hashed once.

        Each batch's references are journaled — one group commit per batch
        — before the batch reaches the index, hence before any of its
        chunks is stored (count before
        store: a crash leaves counted-but-unstored references, which a
        sweep forgets, never stored-but-uncounted chunks, which it would
        reclaim under a live file). The call is all-or-nothing for the
        catalog: a ``file_id`` already present is refused before the index
        is touched, and when the ingest raises part-way no recipe is
        recorded and exactly the references taken are released — the
        chunks and index entries it left behind are then zero-ref and go
        with the next sweep.

        Needs somewhere the payload bytes actually live: a content plane,
        or a ring cloud that keeps payloads
        (``CentralCloudStore(keep_payloads=True)``) — otherwise the recipe
        would point at chunks whose bytes were dropped.

        Args:
            recipes: the catalog the recipe goes into; the ring's own by
                default (a durable cluster passes its cluster-scoped one).
        """
        if self.content is None and not self.cloud.keep_payloads:
            raise RuntimeError(
                "restore needs a content plane or "
                "CentralCloudStore(keep_payloads=True); this ring's cloud "
                "only keeps accounting"
            )
        recipes = recipes if recipes is not None else self.recipes
        if file_id in recipes:
            raise RecipeError(f"recipe for {file_id!r} already stored")
        gc = self._content_plane.gc if self._content_plane is not None else None
        journal = gc.batch if gc is not None else nullcontext
        entries: list[RecipeEntry] = []

        def record(fingerprints, chunks) -> None:
            with journal():
                for fingerprint, chunk in zip(fingerprints, chunks):
                    if gc is not None:
                        gc.incr(fingerprint)
                    entries.append(RecipeEntry(fingerprint, chunk.length))

        try:
            report = self.agent(node_id).ingest(data, label=file_id, observer=record)
        except BaseException:
            if gc is not None:
                taken = Counter(entry.fingerprint for entry in entries)
                for fingerprint, refs in taken.items():
                    gc.decr(fingerprint, refs)
            raise
        recipes.put(FileRecipe(file_id=file_id, entries=tuple(entries)))
        return report

    def restore_file(self, file_id: str, recipes: Optional[RecipeStore] = None) -> bytes:
        """Reassemble a previously-ingested file; with a content plane the
        chunks come from edge shelves or k-of-n tier reconstruction, else
        from the payload-keeping cloud. Every chunk's fingerprint is
        verified.

        Args:
            recipes: the catalog to read the recipe from; the ring's own by
                default (a durable cluster passes its cluster-scoped one).
        """
        # Looked up at call time, so a wrapper installed on the module
        # (the perf ledger's tracer) sees every restore.
        from repro.dedup.recipes import restore_file

        recipe = (recipes if recipes is not None else self.recipes).get(file_id)
        if self._content_plane is not None:
            prefetched = self._content_plane.fetch_many(
                [entry.fingerprint for entry in recipe.entries]
            )
            if self.secure is not None:
                # Stored bytes are ciphertext; decrypt before reassembly
                # so restore_file's fingerprint verification sees the
                # plaintext the recipe was cut from.
                prefetched = {
                    fp: self.secure.open(fp, sealed)
                    for fp, sealed in prefetched.items()
                }
            return restore_file(recipe, prefetched.__getitem__)
        return restore_file(recipe, self.cloud.get_chunk)

    def ingest_workloads(self, workloads: dict[str, Iterable[bytes]]) -> None:
        """Feed per-node file streams through the ring, interleaved round-
        robin so the shared index sees the same arrival mix a live ring
        would (file order across nodes is otherwise irrelevant to totals)."""
        iters = {nid: iter(files) for nid, files in workloads.items() if nid in self.agents}
        while iters:
            finished = []
            for nid, it in iters.items():
                data = next(it, None)
                if data is None:
                    finished.append(nid)
                else:
                    self.agent(nid).ingest(data)
            for nid in finished:
                del iters[nid]

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def combined_stats(self) -> DedupStats:
        """Ring-wide dedup accounting (agents share one index, so additive)."""
        total = DedupStats()
        for agent in self.agents.values():
            total = total.merge(agent.stats)
        return total

    @property
    def dedup_ratio(self) -> float:
        return self.combined_stats().dedup_ratio

    def _agent_caches(self, node_id: Optional[str] = None):
        """Every LRU presence cache in the agents' index wrapper stacks.

        An agent's ``engine.index`` may be wrapped arbitrarily deep (cache
        over brownout over ring index, a migration window's
        ``DualLookupIndex`` over all of that), so walk the known wrapper
        attributes instead of assuming the cache is outermost. The step
        down tests ``is not None``, never truthiness: an index's ``bool`` is
        its ``__len__``, which on a ring index counts the store's unique
        keys (a whole-shard dump per member over the wire) and is False
        while the index is empty.
        """
        agents = (
            [self.agents[node_id]] if node_id is not None else self.agents.values()
        )
        for agent in agents:
            index = agent.engine.index
            seen: set[int] = set()
            while index is not None and id(index) not in seen:
                seen.add(id(index))
                if isinstance(index, LRUCacheIndex):
                    yield index
                for wrapped in ("primary", "backing", "inner"):
                    below = getattr(index, wrapped, None)
                    if below is not None:
                        break
                index = below

    def invalidate_cached_presence(self, fingerprints: Iterable[str]) -> int:
        """Drop fingerprints from every agent's presence cache.

        Called whenever presence stops being true beneath the caches — a
        GC sweep reclaimed the chunks, or reconciliation is about to
        re-derive their verdicts. Without it a stale cache hit marks a
        re-ingested chunk "duplicate" although its payload is gone, and
        the file is unrestorable. Returns entries actually dropped.
        """
        fps = list(fingerprints)
        if not fps:
            return 0
        dropped = 0
        for cache in self._agent_caches():
            dropped += cache.discard_many(fps)
        if self.secure is not None:
            # The shared tier's vault and key indexes must also forget
            # reclaimed chunks — a stale key would grant a dedup claim
            # for a payload that no longer exists. forget() is
            # idempotent, so every ring of the deployment may call it.
            self.secure.forget(fps)
        return dropped

    def reconcile_brownouts(self) -> dict:
        """Replay every agent's brownout journal against the (recovered)
        ring index and repair the engines' unique/duplicate accounting.

        Returns a merged report; after it, :attr:`dedup_ratio` equals what
        an unloaded run over the same inputs would have produced (the
        brownout only ever mis-*classified* chunks, it never lost one).
        Safe to call when nothing tripped (an empty journal is a no-op).

        Cloud-sink rings repair the accounting *at the sink* (the cloud's
        duplicate signal is authoritative), so the replay here only lands
        the write-through claims in the index; content-plane rings repair
        the engines' stats from the replay verdicts instead.
        """
        report = {
            "replayed": 0,
            "corrected_chunks": 0,
            "corrected_bytes": 0,
            "missing_lengths": 0,
        }
        for node_id, brownout in self.brownouts.items():
            # Journaled fingerprints may sit in this agent's presence cache
            # with a provisional write-through verdict behind them; drop
            # them so post-reconcile lookups re-consult the repaired index
            # instead of a cache entry that predates the repair.
            journaled = {fp for fp, _ in brownout.journal}
            if journaled:
                for cache in self._agent_caches(node_id):
                    cache.discard_many(journaled)
            part = brownout.reconcile(
                stats=(
                    None
                    if self.content is None
                    else self.agents[node_id].engine.stats
                )
            )
            for key in report:
                report[key] += part[key]
        return report

    def brownout_metrics(self) -> dict[str, int]:
        """Brownout counters summed across agents, plus how many wrappers
        are active and the total journal depth (empty when disabled)."""
        brownouts = self.brownouts.values()
        if not brownouts:
            return {}
        return {
            **series(*(b.stats for b in brownouts)),
            "active": sum(1 for b in brownouts if b.active),
            "journal_depth": sum(len(b.journal) for b in brownouts),
        }

    def local_lookup_fraction(self) -> float:
        """Observed fraction of lookups served locally — compare with the
        model's γ/|P| (Eq. 2)."""
        return self.lookup_metrics().get("local_fraction", 0.0)

    def cache_metrics(self) -> dict[str, float]:
        """Agent presence-cache counters summed over every cache in the
        agents' wrapper stacks — wherever it sits, so a migration window's
        ``DualLookupIndex`` on top hides nothing — plus the ring-wide
        ``hit_rate`` (empty when ``cache_capacity`` is 0)."""
        merged = series(*(cache.stats for cache in self._agent_caches()))
        if merged:
            looked_up = merged["hits"] + merged["misses"]
            merged["hit_rate"] = merged["hits"] / looked_up if looked_up else 0.0
        return merged

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def lookup_metrics(self) -> dict[str, float]:
        """Agent index-traffic counters summed over the ring, plus the
        ring-wide ``local_fraction``."""
        merged = series(*(idx.lookups for idx in self.ring_indexes.values()))
        if merged:
            total = merged["local"] + merged["remote"]
            merged["local_fraction"] = merged["local"] / total if total else 0.0
        return merged

    def _merged_engine_latency(self) -> dict:
        merged = Histogram("engine.lookup_s")
        for agent in self.agents.values():
            merged.merge_from(agent.engine.lookup_latency)
        return merged.snapshot()

    def register_metrics(self, hub: MetricsHub, prefix: str = "") -> None:
        """Mount every registry of this ring on ``hub``.

        Each mount names a stats dataclass (its fields are the series), a
        histogram, or a callable that spreads ``series(...)`` beside its
        component's derived gauges; the prefix is added here and nowhere
        else.

        Transport-independent names (identical for inproc and asyncio rings):
        ``dedup.*`` (merged agent accounting), ``lookups.*`` (locality and
        batching), ``cache.*`` (merged agent presence caches),
        ``kvstore.*`` (StoreStats counters), ``kvstore.batch_s`` and
        ``engine.lookup_s`` (latency histograms). Live rings additionally
        export ``rpc.*`` client counters, the ``rpc.rtt_s`` histogram, and
        per-replica ``rpc.server.<node>.*`` counters with
        ``rpc.server.<node>.handle_s`` histograms.

        Sources are the live component registries themselves (or callables
        over them), so each :meth:`MetricsHub.collect` sees current values.
        ``prefix`` namespaces multi-ring deployments (e.g. ``"ring-0."``).

        Failure-handling series are conditional and live-only (and so stay
        under the ``rpc.`` namespace the parity check carves out):
        ``rpc.failure.*`` (heartbeat prober + phi detector transitions,
        when ``heartbeat_interval_s`` > 0) and ``rpc.wal.*`` (summed
        durability counters, when ``data_dir`` is set).
        """
        hub.register(f"{prefix}dedup", lambda: self.combined_stats().as_dict())
        hub.register(f"{prefix}lookups", self.lookup_metrics)
        hub.register(f"{prefix}cache", self.cache_metrics)
        hub.register(f"{prefix}kvstore", self.store.stats)
        hub.register(f"{prefix}kvstore.batch_s", self.store.batch_latency)
        hub.register(f"{prefix}engine.lookup_s", self._merged_engine_latency)
        if self.content is not None:
            # Conditional like rpc.*: only content-plane deployments export
            # it, and then on both transports identically.
            hub.register(f"{prefix}content", self.content.snapshot)
        if self.brownouts:
            hub.register(f"{prefix}brownout", self.brownout_metrics)
        if self._live is not None:
            live = self._live
            client = live.client
            if client.breakers is not None:
                breakers = client.breakers
                hub.register(
                    f"{prefix}rpc.breakers",
                    lambda: {"open": float(breakers.open_count)},
                )
            hub.register(f"{prefix}rpc", client.stats)
            hub.register(f"{prefix}rpc.rtt_s", client.rtt)
            if live.heartbeats is not None:
                hub.register(f"{prefix}rpc.failure", live.heartbeats.snapshot)
            if live.wals:
                hub.register(
                    f"{prefix}rpc.wal",
                    lambda: series(*(wal.stats for wal in live.wals.values())),
                )
            for node_id, server in live.servers.items():
                hub.register(f"{prefix}rpc.server.{node_id}", server.stats)
                hub.register(
                    f"{prefix}rpc.server.{node_id}.handle_s", server.handle_latency
                )

    def metrics_hub(self) -> MetricsHub:
        """A fresh hub with this ring's registries mounted (no prefix)."""
        hub = MetricsHub()
        self.register_metrics(hub)
        return hub

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def add_member(self, node_id: str) -> None:
        """Grow the ring by one edge node.

        The index store re-streams affected key ranges to the newcomer
        (Cassandra-style bootstrap), and a fresh agent starts on the node.
        On live rings this boots a real TCP server for the newcomer and
        streams its ranges over the wire.
        """
        if node_id in self.agents:
            raise ValueError(f"node {node_id!r} is already in ring {self.ring_id!r}")
        if self._live is not None:
            self._live.add_node(self.config.node_spec(node_id))
        else:
            self.store.add_node(node_id)
        self.members.append(node_id)
        self._make_agent(node_id)

    def remove_member(self, node_id: str) -> None:
        """Decommission a member; its index shard streams to the remaining
        replicas before it leaves. At least one member must remain. On live
        rings the departing member's server stops afterwards."""
        if node_id not in self.agents:
            raise KeyError(f"node {node_id!r} is not in ring {self.ring_id!r}")
        if len(self.members) == 1:
            raise ValueError(f"cannot remove the last member of ring {self.ring_id!r}")
        if self.content is not None:
            # Before the index forgets the node: payload rehoming needs the
            # departing member's shelf (live: its still-running server).
            self.content.rehome_member(node_id)
        if self._live is not None:
            self._live.remove_node(node_id)
        else:
            self.store.remove_node(node_id)
        self.members.remove(node_id)
        del self.agents[node_id]
        del self.ring_indexes[node_id]
        self.brownouts.pop(node_id, None)

    # ------------------------------------------------------------------ #
    # failure injection
    # ------------------------------------------------------------------ #

    def fail_node(self, node_id: str) -> None:
        """Take a member's index replica offline (the agent itself keeps
        running — Sec. IV's resilience scenario)."""
        self.store.mark_down(node_id)

    def recover_node(self, node_id: str) -> None:
        """Bring a member back; buffered hints replay automatically."""
        self.store.mark_up(node_id)

    def crash_node(self, node_id: str, mark_down: bool = True) -> None:
        """Live rings only: actually crash a member's replica process (its
        TCP server stops; the in-memory shard is gone, the WAL survives).
        Harsher than :meth:`fail_node`, which only flips a flag."""
        if self._live is None:
            raise RuntimeError("crash_node requires transport='asyncio'")
        self._live.kill_node(node_id, mark_down=mark_down)

    def restart_node(self, node_id: str, repair: bool = True) -> None:
        """Live rings only: restart a crashed member — WAL reload, hint
        replay, recovery read-repair, and (by default) a Merkle
        anti-entropy catch-up pass."""
        if self._live is None:
            raise RuntimeError("restart_node requires transport='asyncio'")
        self._live.restart_node(node_id, repair=repair)
