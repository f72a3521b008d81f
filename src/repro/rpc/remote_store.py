"""RemoteKVStore: the DistributedKVStore operation surface over real RPC.

This is the live-transport twin of
:class:`~repro.kvstore.store.DistributedKVStore`. Coordination stays where
the in-process store keeps it — replica placement from the same
:class:`~repro.kvstore.hashring.ConsistentHashRing`, consistency levels,
hinted handoff, last-write-wins merges, and the per-round-trip contact
accounting in :class:`~repro.kvstore.store.StoreStats` — but every replica
touch is a framed RPC to that node's
:class:`~repro.rpc.server.NodeServer` instead of a method call.

Batching matches PR 1's accounting: :meth:`put_if_absent_many` scatters
**one in-flight batch message per contacted replica** per phase (a
``multi_get`` covering every key the node is consulted for, then a
``multi_put`` covering every new key it owns), gathers the responses
concurrently, and records one contact per distinct coordinator→replica
pair — so ``remote_contacts``/``batch_rounds`` mean the same thing for a
live ring as for a simulated one.

Synchronous facade: the store is driven by ordinary (non-async) callers —
``RingIndex``/``DedupAgent`` work unchanged — and bridges into the cluster's
event-loop thread with ``run_coroutine_threadsafe``. Calling it *from* the
loop thread would deadlock and raises immediately.

Divergence from the in-process store, by design:

- ``put_if_absent_many`` validates aliveness for *all* keys before applying
  any write (the in-process loop applies keys before the failing one);
- membership changes stream over the wire: ``add_node`` bootstraps a newly
  booted server from every reachable peer's dump, ``remove_node``
  re-pushes the departing member's entries to their new replica sets;
- a call whose retries run dry raises
  :class:`~repro.rpc.errors.RpcTimeoutError` — a failure mode the
  in-process store cannot have.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.errors import NodeDownError, NoSuchNodeError, UnavailableError
from repro.kvstore.hashring import ConsistentHashRing
from repro.kvstore.hints import Hint, HintBuffer
from repro.kvstore.node import VersionedValue
from repro.kvstore.replication import SimpleReplicationStrategy
from repro.kvstore.store import StoreStats
from repro.obs.histogram import Histogram
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rpc.client import RpcClient
from repro.rpc.errors import RpcError
from repro.rpc.framing import BLOB_BUDGET_BYTES

# Hints replayed per multi_put during recovery: bounded so one failed
# frame forfeits at most this much progress (the rest is re-buffered).
_HINT_REPLAY_BATCH = 256


def _entry_from_wire(row) -> Optional[VersionedValue]:
    if row is None:
        return None
    value, timestamp, tombstone = row
    return VersionedValue(value=value, timestamp=int(timestamp), tombstone=bool(tombstone))


@dataclass(frozen=True)
class RemoteNodeHandle:
    """Client-side view of one ring member: its address and aliveness.

    ``is_up`` reflects the *coordinator's* aliveness set (what hints key
    off), not a probe of the process.
    """

    node_id: str
    host: str
    port: int
    _down: frozenset = frozenset()  # replaced per lookup; see RemoteKVStore.nodes

    @property
    def is_up(self) -> bool:
        return self.node_id not in self._down


class _NodesView(dict):
    """``store.nodes`` compatible mapping: node id → RemoteNodeHandle."""

    def __init__(self, store: "RemoteKVStore") -> None:
        super().__init__()
        self._store = store

    def __getitem__(self, node_id: str) -> RemoteNodeHandle:
        host, port = super().__getitem__(node_id)
        return RemoteNodeHandle(
            node_id, host, port, _down=frozenset(self._store._down)
        )


class RemoteKVStore:
    """A replicated, partitioned KV store whose replicas live behind RPC.

    Args:
        client: transport to the ring's node servers (addresses define
            membership).
        loop: the event loop (running in its own thread) the client's
            connections belong to.
        replication_factor: γ — copies of each key.
        vnodes: virtual nodes per member.
        default_consistency: level used when an operation names none.
        strategy: replica-placement override; defaults to SimpleStrategy.
        max_hints_per_node: hinted-handoff window per down replica.
        tracer: optional :class:`~repro.obs.trace.Tracer`; each batched
            check-and-set opens a coordinator-side ``store.put_if_absent_many``
            span whose scatter-gather RPC spans nest underneath.
    """

    def __init__(
        self,
        client: RpcClient,
        loop: asyncio.AbstractEventLoop,
        replication_factor: int = 2,
        vnodes: int = 16,
        default_consistency: ConsistencyLevel = ConsistencyLevel.ONE,
        strategy=None,
        max_hints_per_node: int = 100_000,
        tracer: Optional[Tracer] = None,
    ) -> None:
        ids = list(client.addresses)
        if not ids:
            raise ValueError("a KV store needs at least one node")
        self._client = client
        self._loop = loop
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.strategy = (
            strategy if strategy is not None else SimpleReplicationStrategy(replication_factor)
        )
        self.default_consistency = default_consistency
        self.nodes = _NodesView(self)
        for node_id in ids:
            self.ring.add_node(node_id)
            host, port = client.addresses[node_id]
            dict.__setitem__(self.nodes, node_id, (host, port))
        self.hints = HintBuffer(max_hints_per_node=max_hints_per_node)
        self.stats = StoreStats()
        self.batch_latency = Histogram("kvstore.batch_s")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._timestamps = itertools.count(1)
        self._down: set[str] = set()
        # Keys routed while one of their replicas was down ("served below
        # full replication"): on that replica's recovery they get a
        # targeted read-repair pass, covering writes the hint window
        # dropped or that pre-date this coordinator. Bounded per node by
        # the hint window.
        self._degraded: dict[str, set[str]] = {}

    # ------------------------------------------------------------------ #
    # sync ↔ async bridge
    # ------------------------------------------------------------------ #

    def _sync(self, coro):
        running = None
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            pass
        if running is self._loop:
            raise RuntimeError(
                "RemoteKVStore's synchronous API must not be called from the "
                "transport's own event-loop thread (it would deadlock)"
            )
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # ------------------------------------------------------------------ #
    # membership and failure injection
    # ------------------------------------------------------------------ #

    def _check_member(self, node_id: str) -> None:
        if node_id not in self.nodes:
            raise NoSuchNodeError(f"node {node_id!r} is not in the cluster")

    def mark_down(self, node_id: str) -> None:
        """Fail ``node_id``: its server refuses data ops and the coordinator
        turns its writes into hints.

        The server-side notification is best-effort: a node that is marked
        down because it *crashed* (socket refused, detector suspicion) is
        unreachable by definition, and the coordinator-side aliveness flip
        is the part that matters — writes become hints either way.
        """
        self._check_member(node_id)
        self._sync(self._a_mark_down(node_id))

    async def _a_mark_down(self, node_id: str) -> None:
        self._down.add(node_id)
        try:
            await self._client.call(node_id, "set_down", {"down": True})
        except RpcError:
            pass  # unreachable (crashed / partitioned): local flip suffices

    def mark_up(self, node_id: str) -> None:
        """Recover ``node_id``: replay its buffered hints over the wire,
        then read-repair every key that was served below full replication
        while it was down (``stats.recovery_repairs`` counts the entries
        actually pushed)."""
        self._check_member(node_id)
        self._sync(self._a_mark_up(node_id))

    async def _a_mark_up(self, node_id: str) -> None:
        await self._client.call(node_id, "set_down", {"down": False})
        self._down.discard(node_id)
        hints = self.hints.take_for(node_id)
        # Replay in bounded batches and only count a batch delivered once
        # its multi_put acked. If a batch fails (timeout, overload shed,
        # re-crash), the undelivered tail is re-buffered so the next
        # recovery retries it — a failed replay must not lose the writes
        # the hints were buffering.
        delivered = 0
        try:
            while delivered < len(hints):
                batch = hints[delivered : delivered + _HINT_REPLAY_BATCH]
                entries = [[h.key, h.value, h.timestamp, h.tombstone] for h in batch]
                await self._client.call(node_id, "multi_put", {"entries": entries})
                delivered += len(batch)
                self.stats.hints_replayed += len(batch)
        except RpcError:
            self.hints.restore(node_id, hints[delivered:])
            self.stats.replay_failures += 1
            raise
        await self._a_recovery_repair(node_id)

    async def _a_recovery_repair(self, node_id: str) -> None:
        """Push the newest copy of each degraded-read key to the recovered
        replica. Hints cover writes this coordinator *saw* while the node
        was down; this pass covers keys it merely *served* under-replicated
        (hint-window overflow, pre-existing data). Only entries the node's
        own copy is missing or older than are pushed."""
        keys = [
            k
            for k in sorted(self._degraded.pop(node_id, ()))
            if node_id in self.replicas_for(k)
        ]
        if not keys:
            return
        groups: dict[str, list[str]] = {node_id: list(keys)}
        for key in keys:
            for replica in self.replicas_for(key):
                if replica != node_id and replica not in self._down:
                    groups.setdefault(replica, []).append(key)
        by_node = await self._scatter_get(groups, None)
        own = by_node.get(node_id, {})
        rows: list[list] = []
        for key in keys:
            best: Optional[VersionedValue] = None
            for replica, entries in by_node.items():
                if replica == node_id:
                    continue
                found = entries.get(key)
                if found is not None and found.newer_than(best):
                    best = found
            if best is None:
                continue
            mine = own.get(key)
            if mine is None or best.newer_than(mine):
                rows.append([key, best.value, best.timestamp, best.tombstone])
        if rows:
            await self._client.call(node_id, "multi_put", {"entries": rows})
            self.stats.recovery_repairs += len(rows)

    def alive_nodes(self) -> list[str]:
        return [nid for nid in self.nodes if nid not in self._down]

    def add_node(self, node_id: str, address: Optional[tuple[str, int]] = None) -> None:
        """Grow the live ring by one member whose server is already running.

        The caller (normally :meth:`~repro.rpc.cluster.LiveKVCluster.add_node`)
        boots the :class:`~repro.rpc.server.NodeServer` first and passes its
        ``(host, port)`` here (or registers it on the client beforehand).
        Keys whose replica set now includes the newcomer are streamed to it
        from every reachable peer — the same bootstrap semantics as
        :meth:`~repro.kvstore.store.DistributedKVStore.add_node`, but over
        ``dump``/``multi_put`` RPCs.
        """
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already in the cluster")
        if address is not None:
            self._client.addresses[node_id] = (address[0], int(address[1]))
        if node_id not in self._client.addresses:
            raise NoSuchNodeError(
                f"node {node_id!r} has no address; boot its server and pass "
                "address=(host, port)"
            )
        self._sync(self._a_add_node(node_id))

    async def _a_add_node(self, node_id: str) -> None:
        peers = [n for n in self.nodes if n not in self._down]
        host, port = self._client.addresses[node_id]
        self.ring.add_node(node_id)
        dict.__setitem__(self.nodes, node_id, (host, port))
        newest: dict[str, VersionedValue] = {}
        for shard in await asyncio.gather(
            *(self._client.call(n, "dump") for n in peers)
        ):
            for key, row in shard["entries"].items():
                entry = _entry_from_wire(row)
                if (
                    entry is not None
                    and node_id in self.replicas_for(key)
                    and entry.newer_than(newest.get(key))
                ):
                    newest[key] = entry
        rows = [
            [key, e.value, e.timestamp, e.tombstone]
            for key, e in sorted(newest.items())
        ]
        if rows:
            await self._client.call(node_id, "multi_put", {"entries": rows})

    def remove_node(self, node_id: str) -> None:
        """Decommission ``node_id``, streaming its keys to their new replicas
        (mirrors :meth:`~repro.kvstore.store.DistributedKVStore.remove_node`;
        an unreachable member is dropped without streaming and anti-entropy
        restores replication from the survivors)."""
        self._check_member(node_id)
        if len(self.nodes) <= 1:
            raise ValueError("cannot remove the last member of the ring")
        self._sync(self._a_remove_node(node_id))

    async def _a_remove_node(self, node_id: str) -> None:
        departing: dict[str, VersionedValue] = {}
        if node_id not in self._down:
            try:
                result = await self._client.call(node_id, "dump")
            except RpcError:
                pass  # crashed mid-decommission: survivors repair later
            else:
                for key, row in result["entries"].items():
                    entry = _entry_from_wire(row)
                    if entry is not None:
                        departing[key] = entry
        self.ring.remove_node(node_id)
        dict.__delitem__(self.nodes, node_id)
        self._down.discard(node_id)
        self._degraded.pop(node_id, None)
        self.hints.take_for(node_id)  # hints for a gone member are void
        groups: dict[str, list[list]] = {}
        for key, entry in sorted(departing.items()):
            for replica in self.replicas_for(key):
                if replica not in self._down:
                    groups.setdefault(replica, []).append(
                        [key, entry.value, entry.timestamp, entry.tombstone]
                    )
        if groups:
            await self._scatter_put(groups, None)

    # ------------------------------------------------------------------ #
    # migration streaming (operator flow)
    # ------------------------------------------------------------------ #

    def stream_ranges(
        self, ranges: "Iterable[tuple[int, int]]"
    ) -> list[tuple[str, str, int, bool]]:
        """Collect every entry whose key token falls in the half-open
        ``[lo, hi)`` token ``ranges`` — the live twin of
        :meth:`~repro.kvstore.store.DistributedKVStore.stream_ranges`. Each
        reachable member is asked for the ranges over the ``fetch_range``
        RPC (token bounds travel as decimal strings: they overflow msgpack's
        64-bit integers) and the newest version per key wins.
        """
        return self._sync(self._a_stream_ranges(list(ranges)))

    async def _a_stream_ranges(
        self, ranges: list[tuple[int, int]]
    ) -> list[tuple[str, str, int, bool]]:
        wire_ranges = [[str(lo), str(hi)] for lo, hi in ranges]
        peers = [n for n in self.nodes if n not in self._down]

        async def one(node_id: str):
            try:
                result = await self._client.call(
                    node_id, "fetch_range", {"ranges": wire_ranges}
                )
            except RpcError:
                return []  # unreachable mid-migration: replicas cover it
            return result["entries"]

        newest: dict[str, VersionedValue] = {}
        for shard in await asyncio.gather(*(one(n) for n in peers)):
            for key, value, timestamp, tombstone in shard:
                entry = VersionedValue(value, int(timestamp), bool(tombstone))
                if entry.newer_than(newest.get(key)):
                    newest[key] = entry
        return [
            (key, e.value, e.timestamp, e.tombstone)
            for key, e in sorted(newest.items())
        ]

    def ingest_entries(self, entries: "Iterable[tuple[str, str, int, bool]]") -> int:
        """Apply migrated rows to their replica sets at the original
        timestamps (down replicas get hints); advances the timestamp clock
        past them. The live twin of
        :meth:`~repro.kvstore.store.DistributedKVStore.ingest_entries`.
        """
        return self._sync(self._a_ingest_entries(list(entries)))

    async def _a_ingest_entries(
        self, entries: list[tuple[str, str, int, bool]]
    ) -> int:
        groups: dict[str, list[list]] = {}
        max_ts = 0
        for key, value, timestamp, tombstone in entries:
            timestamp = int(timestamp)
            max_ts = max(max_ts, timestamp)
            row = [key, value, timestamp, bool(tombstone)]
            for replica in self.replicas_for(key):
                if replica not in self._down:
                    groups.setdefault(replica, []).append(row)
                elif self.hints.add(
                    Hint(
                        target_node=replica,
                        key=key,
                        value=value,
                        timestamp=timestamp,
                        tombstone=bool(tombstone),
                    )
                ):
                    self.stats.hints_stored += 1
        if groups:
            await self._scatter_put(groups, None)
        if entries:
            tick = next(self._timestamps)
            self._timestamps = itertools.count(max(tick, max_ts + 1))
        return len(entries)

    # ------------------------------------------------------------------ #
    # placement queries
    # ------------------------------------------------------------------ #

    def replicas_for(self, key: str) -> list[str]:
        """Ordered replica list for ``key`` (primary first)."""
        return self.strategy.replicas_for_key(self.ring, key)

    def is_local(self, key: str, node_id: str) -> bool:
        return node_id in self.replicas_for(key)

    def _required_acks(self, consistency: Optional[ConsistencyLevel]) -> int:
        level = consistency if consistency is not None else self.default_consistency
        return level.required_acks(self.strategy.effective_factor(self.ring))

    def _route(
        self, key: str, consistency: Optional[ConsistencyLevel], coordinator: Optional[str]
    ) -> tuple[list[str], list[str], list[str]]:
        """(replicas, alive, consulted) for one key; raises UnavailableError."""
        replicas = self.replicas_for(key)
        required = self._required_acks(consistency)
        alive = [r for r in replicas if r not in self._down]
        if len(alive) < required:
            self.stats.unavailable_errors += 1
            raise UnavailableError(required=required, alive=len(alive), key=key)
        for replica in replicas:
            if replica in self._down:
                bucket = self._degraded.setdefault(replica, set())
                if len(bucket) < self.hints.max_hints_per_node:
                    bucket.add(key)
        ordered = alive
        if coordinator is not None and coordinator in alive:
            ordered = [coordinator] + [r for r in alive if r != coordinator]
        return replicas, alive, ordered[:required]

    # ------------------------------------------------------------------ #
    # scatter-gather primitives — one message per contacted node
    # ------------------------------------------------------------------ #

    async def _scatter_get(
        self, groups: dict[str, list[str]], coordinator: Optional[str]
    ) -> dict[str, dict[str, Optional[VersionedValue]]]:
        async def one(node_id: str, keys: list[str]):
            result = await self._client.call(
                node_id, "multi_get", {"keys": keys}, src=coordinator
            )
            return node_id, {
                key: _entry_from_wire(row) for key, row in result["entries"].items()
            }

        return dict(await asyncio.gather(*(one(n, ks) for n, ks in groups.items())))

    async def _scatter_put(
        self, groups: dict[str, list[list]], coordinator: Optional[str]
    ) -> None:
        async def one(node_id: str, entries: list[list]):
            await self._client.call(
                node_id, "multi_put", {"entries": entries}, src=coordinator
            )

        await asyncio.gather(*(one(n, es) for n, es in groups.items()))

    async def _scatter_put_tolerant(
        self, groups: dict[str, list[list]], coordinator: Optional[str]
    ) -> dict[str, Optional[Exception]]:
        """Like :meth:`_scatter_put`, but per-node failures are returned
        (node id → error or None) instead of raised, so write paths can
        count acks and decide availability themselves. A missed ack is a
        transport failure (``RpcError``) or the replica refusing because
        it marked itself down before this coordinator noticed
        (``NodeDownError``); anything else still propagates."""

        async def one(node_id: str, entries: list[list]):
            await self._client.call(
                node_id, "multi_put", {"entries": entries}, src=coordinator
            )

        return await self._gather_acks(groups, one)

    @staticmethod
    async def _gather_acks(groups: dict, one) -> dict[str, Optional[Exception]]:
        outcomes = await asyncio.gather(
            *(one(n, es) for n, es in groups.items()), return_exceptions=True
        )
        acked: dict[str, Optional[Exception]] = {}
        for node_id, outcome in zip(groups, outcomes):
            if isinstance(outcome, BaseException) and not isinstance(
                outcome, (RpcError, NodeDownError)
            ):
                raise outcome
            acked[node_id] = (
                outcome if isinstance(outcome, (RpcError, NodeDownError)) else None
            )
        return acked

    # ------------------------------------------------------------------ #
    # chunk payloads (content plane)
    # ------------------------------------------------------------------ #
    #
    # Payload bytes travel raw in the frame's blob section (see
    # repro.rpc.framing): the params name the fingerprints, the blobs
    # follow in the same order. Unreachable or down replicas are
    # tolerated — the edge copy is a locality cache and the
    # erasure-coded cloud tier is the durable tier, so a skipped node is
    # a miss, not a failure.

    def scatter_put_chunks(
        self, groups: dict[str, list[tuple[str, bytes]]]
    ) -> dict[str, Optional[Exception]]:
        """One batched ``put_chunks`` message per target node (the payload
        sibling of the ``put_if_absent_many`` scatter; a batch above the
        frame budget goes as several); returns node id → error-or-None."""
        return self._sync(self._a_scatter_put_chunks(groups))

    async def _a_scatter_put_chunks(
        self, groups: dict[str, list[tuple[str, bytes]]]
    ) -> dict[str, Optional[Exception]]:
        async def one(node_id: str, entries: list[tuple[str, bytes]]):
            start, size = 0, 0
            for end, (_, data) in enumerate(entries):
                if end > start and size + len(data) > BLOB_BUDGET_BYTES:
                    await put(node_id, entries[start:end])
                    start, size = end, 0
                size += len(data)
            await put(node_id, entries[start:])

        async def put(node_id: str, entries: list[tuple[str, bytes]]):
            await self._client.call(
                node_id,
                "put_chunks",
                {"fingerprints": [fp for fp, _ in entries]},
                blobs=tuple(data for _, data in entries),
            )

        return await self._gather_acks(groups, one)

    def scatter_get_chunks(
        self, groups: dict[str, list[str]]
    ) -> dict[str, dict[str, Optional[bytes]]]:
        """One batched ``get_chunks`` per node; an unreachable node yields
        an empty mapping (every fingerprint a miss)."""
        return self._sync(self._a_scatter_get_chunks(groups))

    async def _a_scatter_get_chunks(
        self, groups: dict[str, list[str]]
    ) -> dict[str, dict[str, Optional[bytes]]]:
        async def one(node_id: str, fingerprints: list[str]):
            try:
                return node_id, await self._fetch_chunks(
                    node_id, "get_chunks", fingerprints
                )
            except (RpcError, NodeDownError):
                return node_id, {}

        return dict(await asyncio.gather(*(one(n, fs) for n, fs in groups.items())))

    async def _fetch_chunks(
        self, node_id: str, method: str, fingerprints: list[str]
    ) -> dict[str, Optional[bytes]]:
        """Fingerprint → payload (None when absent) from one node. A reply
        stops at the server's frame budget and says how far down the list
        it got; the rest is asked for again, so one call is the rule and a
        shelf of any size still arrives."""
        out: dict[str, Optional[bytes]] = dict.fromkeys(fingerprints)
        while fingerprints:
            reply = await self._client.request(
                node_id, method, {"fingerprints": fingerprints}
            )
            out.update(zip(reply.result["found"], reply.blobs))
            fingerprints = fingerprints[reply.result["scanned"] :]
        return out

    def scatter_delete_chunks(
        self, node_ids: "Iterable[str]", fingerprints: "Iterable[str]"
    ) -> tuple[int, int]:
        """Drop fingerprints from every named node; returns (copies
        deleted, bytes freed) across reachable nodes."""
        return self._sync(
            self._a_scatter_delete_chunks(list(node_ids), list(fingerprints))
        )

    async def _a_scatter_delete_chunks(
        self, node_ids: list[str], fingerprints: list[str]
    ) -> tuple[int, int]:
        async def one(node_id: str):
            try:
                return await self._client.call(
                    node_id, "delete_chunks", {"fingerprints": fingerprints}
                )
            except (RpcError, NodeDownError):
                return {"deleted": 0, "bytes": 0}

        results = await asyncio.gather(*(one(n) for n in node_ids))
        return (
            sum(r["deleted"] for r in results),
            sum(r["bytes"] for r in results),
        )

    def node_chunk_keys(self, node_id: str) -> list[str]:
        """Fingerprints shelved on one node (control-plane: served while
        the replica is down; [] when the process is unreachable)."""

        async def go():
            try:
                result = await self._client.call(node_id, "chunk_keys")
            except RpcError:
                return []
            return list(result["fingerprints"])

        return self._sync(go())

    def node_chunk_dump(self, node_id: str) -> dict[str, bytes]:
        """Full payload shelf of one node, paged under the frame limit
        (operator flow for rehoming and migration carry: served while the
        replica is down; {} when the process is unreachable)."""

        async def go():
            try:
                keys = (await self._client.call(node_id, "chunk_keys"))["fingerprints"]
                shelf = await self._fetch_chunks(node_id, "chunk_dump", keys)
            except RpcError:
                return {}
            return {fp: data for fp, data in shelf.items() if data is not None}

        return self._sync(go())

    # ------------------------------------------------------------------ #
    # client operations (synchronous facade over the async core)
    # ------------------------------------------------------------------ #

    def put(
        self,
        key: str,
        value: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> None:
        """Write ``key`` to its replica set (hints for down replicas)."""
        self._sync(self._a_put(key, value, consistency, coordinator))

    async def _a_put(
        self,
        key: str,
        value: str,
        consistency: Optional[ConsistencyLevel],
        coordinator: Optional[str],
        contacts: Optional[set[tuple[str, str]]] = None,
        tombstone: bool = False,
    ) -> None:
        replicas, alive, _ = self._route(key, consistency, coordinator)
        required = self._required_acks(consistency)
        ts = next(self._timestamps)
        if not tombstone:
            # Tombstone scatters mirror DistributedKVStore.delete, which
            # counts only its embedded read — not the write or its contacts.
            self.stats.writes += 1
        groups: dict[str, list[list]] = {}
        for replica in replicas:
            if replica in self._down:
                continue  # hinted below, once the write is known durable
            groups[replica] = [[key, value, ts, tombstone]]
            if coordinator is not None and not tombstone:
                if contacts is not None:
                    contacts.add((coordinator, replica))
                else:
                    self.stats.record_contact(coordinator, replica)
        failures = await self._scatter_put_tolerant(groups, coordinator)
        acked = sum(1 for exc in failures.values() if exc is None)
        if acked < required:
            # Partial write: the routing check passed but the wire did not
            # deliver enough acks. No hints were buffered yet, so the
            # caller can retry without double-buffering.
            self.stats.unavailable_errors += 1
            raise UnavailableError(required=required, alive=acked, key=key)
        for replica in replicas:
            if replica in self._down or failures.get(replica) is not None:
                if self.hints.add(
                    Hint(
                        target_node=replica, key=key, value=value,
                        timestamp=ts, tombstone=tombstone,
                    )
                ):
                    self.stats.hints_stored += 1

    def get(
        self,
        key: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> Optional[str]:
        """Read ``key``: newest value among the consulted replicas."""
        return self._sync(self._a_get(key, consistency, coordinator))

    async def _a_get(
        self,
        key: str,
        consistency: Optional[ConsistencyLevel],
        coordinator: Optional[str],
        contacts: Optional[set[tuple[str, str]]] = None,
    ) -> Optional[str]:
        _, _, consulted = self._route(key, consistency, coordinator)
        self.stats.reads += 1
        if coordinator is not None:
            if coordinator in consulted:
                self.stats.local_reads += 1
            else:
                self.stats.remote_reads += 1
            for replica in consulted:
                if contacts is not None:
                    contacts.add((coordinator, replica))
                else:
                    self.stats.record_contact(coordinator, replica)
        by_node = await self._scatter_get({n: [key] for n in consulted}, coordinator)
        best: Optional[VersionedValue] = None
        for node_id in consulted:
            found = by_node[node_id].get(key)
            if found is not None and found.newer_than(best):
                best = found
        if best is not None and len(consulted) > 1:
            # Read repair: push the winner to consulted replicas that
            # returned a stale or missing copy. Best-effort — a failed
            # push is not counted and does not fail the read.
            stale = {
                node_id: [[key, best.value, best.timestamp, best.tombstone]]
                for node_id in consulted
                if (found := by_node[node_id].get(key)) is None or best.newer_than(found)
            }
            if stale:
                outcomes = await self._scatter_put_tolerant(stale, coordinator)
                self.stats.read_repairs += sum(
                    1 for exc in outcomes.values() if exc is None
                )
        if best is None or best.tombstone:
            return None
        return best.value

    def contains(
        self,
        key: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> bool:
        return self.get(key, consistency=consistency, coordinator=coordinator) is not None

    def contains_many(
        self,
        keys: Iterable[str],
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
        ts_bound: Optional[int] = None,
    ) -> list[bool]:
        """Batched membership check: one ``multi_get`` per consulted node,
        no writes, no read repair. The read-only sibling of
        :meth:`put_if_absent_many` (the migration dual-lookup window uses it
        to probe the old ring without mutating it).

        With ``ts_bound``, a key only counts when some alive replica holds a
        non-tombstone version stamped at or before the bound, and every
        alive replica is consulted — the exactness contract of the cutover
        window (claims the source ring accepts *after* the cutover must not
        leak into the destination's verdicts).
        """
        return self._sync(
            self._a_contains_many(list(keys), consistency, coordinator, ts_bound)
        )

    def clock_now(self) -> int:
        """Advance and return the coordinator's logical write clock (every
        later write is stamped strictly later); the migration cutover
        records it as the old-topology/new-topology boundary."""
        return next(self._timestamps)

    async def _a_contains_many(
        self,
        keys: list[str],
        consistency: Optional[ConsistencyLevel],
        coordinator: Optional[str],
        ts_bound: Optional[int] = None,
    ) -> list[bool]:
        routes = {
            key: self._route(key, consistency, coordinator)
            for key in dict.fromkeys(keys)
        }
        if ts_bound is not None:
            # Exactness over the fast path: consult every alive replica.
            routes = {
                key: (replicas, alive, alive)
                for key, (replicas, alive, _) in routes.items()
            }
        read_groups: dict[str, list[str]] = {}
        for key, (_, _, consulted) in routes.items():
            for node_id in consulted:
                read_groups.setdefault(node_id, []).append(key)
        by_node = await self._scatter_get(read_groups, coordinator)
        present: dict[str, bool] = {}
        contacts: set[tuple[str, str]] = set()
        for key, (_, _, consulted) in routes.items():
            best: Optional[VersionedValue] = None
            for node_id in consulted:
                found = by_node[node_id].get(key)
                if found is None or not found.newer_than(best):
                    continue
                if ts_bound is not None and found.timestamp > ts_bound:
                    continue
                best = found
            present[key] = best is not None and not best.tombstone
            if coordinator is not None:
                contacts.update((coordinator, node_id) for node_id in consulted)
        for key in keys:
            self.stats.reads += 1
            if coordinator is not None:
                if coordinator in routes[key][2]:
                    self.stats.local_reads += 1
                else:
                    self.stats.remote_reads += 1
        for pair_coordinator, replica in sorted(contacts):
            self.stats.record_contact(pair_coordinator, replica)
        self.stats.batch_rounds += 1
        return [present[key] for key in keys]

    def put_if_absent(
        self,
        key: str,
        value: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> bool:
        """Insert ``key`` unless present; True if it was new."""
        return self._sync(self._a_put_if_absent(key, value, consistency, coordinator))

    async def _a_put_if_absent(
        self,
        key: str,
        value: str,
        consistency: Optional[ConsistencyLevel],
        coordinator: Optional[str],
    ) -> bool:
        if await self._a_get(key, consistency, coordinator) is not None:
            return False
        await self._a_put(key, value, consistency, coordinator)
        return True

    def put_if_absent_many(
        self,
        keys: Iterable[str],
        value: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> list[bool]:
        """Batched check-and-set: scatter-gather with one in-flight batch
        message per contacted replica.

        Key-level results are identical to calling :meth:`put_if_absent`
        once per key in order (intra-batch repeats included); the network
        sends each contacted node one ``multi_get`` for every key it is
        consulted for and one ``multi_put`` for every new key it owns, all
        replicas in flight concurrently. Contacts are recorded once per
        distinct coordinator→replica pair; ``batch_rounds`` counts calls.
        """
        return self._sync(
            self._a_put_if_absent_many(list(keys), value, consistency, coordinator)
        )

    def submit_put_if_absent_many(
        self,
        keys: Iterable[str],
        value: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> "concurrent.futures.Future[list[bool]]":
        """Open-loop submission: schedule the batched check-and-set on the
        transport's loop and return its future *without waiting*.

        This is what a load generator needs to keep an arrival process
        honest — the caller fires batches on its schedule regardless of how
        far behind the cluster is, and each in-flight batch pipelines over
        the client's multiplexed per-node connections. Semantics per batch
        are identical to :meth:`put_if_absent_many`; a call whose retries
        run dry resolves the future with
        :class:`~repro.rpc.errors.RpcTimeoutError`.
        """
        return asyncio.run_coroutine_threadsafe(
            self._a_put_if_absent_many(list(keys), value, consistency, coordinator),
            self._loop,
        )

    async def _a_put_if_absent_many(
        self,
        keys: list[str],
        value: str,
        consistency: Optional[ConsistencyLevel],
        coordinator: Optional[str],
    ) -> list[bool]:
        started = time.perf_counter()
        # The scatter-gather client-call spans nest under this one: gather()
        # creates its tasks while the context points here.
        with self.tracer.span(
            "store.put_if_absent_many", node=coordinator, keys=len(keys)
        ):
            try:
                return await self._a_put_if_absent_many_inner(
                    keys, value, consistency, coordinator
                )
            finally:
                self.batch_latency.observe(time.perf_counter() - started)

    async def _a_put_if_absent_many_inner(
        self,
        keys: list[str],
        value: str,
        consistency: Optional[ConsistencyLevel],
        coordinator: Optional[str],
    ) -> list[bool]:
        # Route every key first: no write is applied if any key is
        # unavailable at the requested level.
        routes = {key: self._route(key, consistency, coordinator) for key in dict.fromkeys(keys)}
        # Phase 1 — batched reads: one multi_get per consulted node.
        read_groups: dict[str, list[str]] = {}
        for key, (_, _, consulted) in routes.items():
            for node_id in consulted:
                read_groups.setdefault(node_id, []).append(key)
        by_node = await self._scatter_get(read_groups, coordinator)
        present: dict[str, bool] = {}
        for key, (_, _, consulted) in routes.items():
            best: Optional[VersionedValue] = None
            for node_id in consulted:
                found = by_node[node_id].get(key)
                if found is not None and found.newer_than(best):
                    best = found
            present[key] = best is not None and not best.tombstone
        # Phase 2 — per-key decisions in input order, writes queued per node.
        contacts: set[tuple[str, str]] = set()
        write_groups: dict[str, list[list]] = {}
        results: list[bool] = []
        inserted: dict[str, int] = {}  # key → timestamp of its write
        for key in keys:
            replicas, _, consulted = routes[key]
            self.stats.reads += 1
            if coordinator is not None:
                if coordinator in consulted:
                    self.stats.local_reads += 1
                else:
                    self.stats.remote_reads += 1
                contacts.update((coordinator, node_id) for node_id in consulted)
            if present[key] or key in inserted:
                results.append(False)
                continue
            ts = next(self._timestamps)
            inserted[key] = ts
            results.append(True)
            self.stats.writes += 1
            for replica in replicas:
                if replica in self._down:
                    continue  # hinted below, once the batch is known durable
                write_groups.setdefault(replica, []).append([key, value, ts, False])
                if coordinator is not None:
                    contacts.add((coordinator, replica))
        failures = await self._scatter_put_tolerant(write_groups, coordinator)
        failed = {n for n, exc in failures.items() if exc is not None}
        required = self._required_acks(consistency)
        for key in inserted:
            acked = sum(
                1
                for r in routes[key][0]
                if r not in self._down and r not in failed
            )
            if acked < required:
                # Partial batch: some replica message failed after the
                # routing check passed. Hints are buffered only on the
                # all-keys-acked path below, so the caller's retry of the
                # whole batch cannot double-buffer.
                self.stats.unavailable_errors += 1
                raise UnavailableError(required=required, alive=acked, key=key)
        for key, ts in inserted.items():
            for replica in routes[key][0]:
                if replica in self._down or replica in failed:
                    if self.hints.add(
                        Hint(target_node=replica, key=key, value=value, timestamp=ts)
                    ):
                        self.stats.hints_stored += 1
        for pair_coordinator, replica in sorted(contacts):
            self.stats.record_contact(pair_coordinator, replica)
        self.stats.batch_rounds += 1
        return results

    def delete(
        self,
        key: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> bool:
        """Delete ``key`` by writing a tombstone to its replica set."""
        return self._sync(self._a_delete(key, consistency, coordinator))

    async def _a_delete(
        self,
        key: str,
        consistency: Optional[ConsistencyLevel],
        coordinator: Optional[str],
    ) -> bool:
        was_live = await self._a_get(key, consistency, coordinator) is not None
        await self._a_put(key, "", consistency, coordinator, tombstone=True)
        return was_live

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def unique_keys(self) -> set[str]:
        """The logical key set across all replicas (operator view: includes
        down nodes via the control-plane dump)."""
        return self._sync(self._a_unique_keys())

    async def _a_unique_keys(self) -> set[str]:
        async def one(node_id: str):
            result = await self._client.call(node_id, "dump")
            return {key: _entry_from_wire(row) for key, row in result["entries"].items()}

        newest: dict[str, VersionedValue] = {}
        for shard in await asyncio.gather(*(one(n) for n in self.nodes)):
            for key, stored in shard.items():
                if stored is not None and stored.newer_than(newest.get(key)):
                    newest[key] = stored
        return {key for key, stored in newest.items() if not stored.tombstone}

    def total_stored_entries(self) -> int:
        """Sum of per-node entry counts (≈ unique_keys · γ when healthy)."""

        async def count_all():
            async def one(node_id: str):
                return (await self._client.call(node_id, "key_count"))["count"]

            return sum(await asyncio.gather(*(one(n) for n in self.nodes)))

        return self._sync(count_all())

    def ping_all(self) -> dict[str, float]:
        """Round-trip every member once; node id → RTT seconds."""

        async def ping_every():
            rtts = await asyncio.gather(*(self._client.ping(n) for n in self.nodes))
            return dict(zip(self.nodes, rtts))

        return self._sync(ping_every())

    def transport_snapshot(self) -> dict:
        """Client transport counters (calls, retries, timeouts, RTTs)."""
        snap = self._client.stats.snapshot()
        if self._client.rtt.count:
            snap["rpc.rtt_mean_s"] = self._client.rtt.mean
            snap["rpc.rtt_p99_s"] = self._client.rtt.percentile(99)
        return snap

    def __len__(self) -> int:
        return len(self.unique_keys())
