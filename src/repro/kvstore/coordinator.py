"""The quorum coordinator: one copy of routing, acks, hints and repair.

Ties together the ring, replica placement, consistency levels and hinted
handoff into the client-facing API. Any cluster member can coordinate any
request (as in Cassandra); the EF-dedup agent on node X always coordinates
from X, which is what makes the local/remote lookup split of Eq. 2
observable in :class:`StoreStats`.

The client surface is the batch: :meth:`~QuorumCoordinator.put_if_absent_many`
(the dedup claim), :meth:`~QuorumCoordinator.contains_many` and
:meth:`~QuorumCoordinator.delete_many` (the GC sweep's tombstones), each one
read round and at most one write round however many keys it carries.
``contains`` and ``delete`` are those batches at one key. Replicas converge
through hinted handoff, the recovery repair of :meth:`~QuorumCoordinator.mark_up`
and Merkle anti-entropy (:mod:`repro.kvstore.repair`); a read never writes.

The coordinator reaches replicas only through a
:class:`~repro.kvstore.transport.ReplicaTransport`, so the same code — and
therefore the same counters — runs whether a replica is an object in this
process or a socket. Its core is ordinary ``async def`` code; each public
verb is that coroutine behind :func:`driven`, and the two concrete stores
differ only in how they drive it (``drive``):
:class:`~repro.kvstore.store.DistributedKVStore` steps the coroutine to
completion in the caller, :class:`~repro.rpc.remote_store.RemoteKVStore`
runs it on the transport's event-loop thread. All coordinator state is
mutated by whichever thread drives.

Failure semantics:

- A write succeeds if at least ``consistency.required_acks(rf)`` replicas
  acknowledged it; replicas that are down, or whose ack was missed, receive
  hints — buffered only once the level is met, so a failed write can be
  retried without double-buffering — replayed when they recover.
- A read succeeds under the same aliveness rule and answers from the
  newest-timestamp version among the replicas consulted (last-write-wins).
- If too few replicas are alive, :class:`UnavailableError` is raised —
  callers see an explicit failure, never silent data loss. A batch routes
  every key before it writes any: a batch with one unavailable key applies
  nothing.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.errors import NoSuchNodeError, UnavailableError
from repro.kvstore.hashring import ConsistentHashRing
from repro.kvstore.hints import Hint, HintBuffer
from repro.kvstore.node import Entry, Row, merge_newest, newer
from repro.kvstore.replication import SimpleReplicationStrategy
from repro.kvstore.transport import ReplicaTransport
from repro.obs.histogram import Histogram
from repro.obs.trace import NO_SPAN, NULL_TRACER, Tracer

# Hints replayed per multi_put during recovery: bounded so one failed
# message forfeits at most this much progress (the rest is re-buffered).
_HINT_REPLAY_BATCH = 256

# One put_chunks message's (fingerprint, payload) entries.
Payloads = list[tuple[str, bytes]]

# How one key is served: (replicas, alive, consulted) — its placement, the
# members of it the coordinator believes up, and those a read asks.
Route = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]


@dataclass
class StoreStats:
    """Operation counters, split by whether the coordinator held a replica."""

    reads: int = 0
    writes: int = 0
    local_reads: int = 0
    remote_reads: int = 0
    hints_stored: int = 0
    hints_replayed: int = 0
    replay_failures: int = 0
    unavailable_errors: int = 0
    remote_contacts: int = 0
    batch_rounds: int = 0
    read_repairs: int = 0  # no verb read-repairs; kept as an exported series
    recovery_repairs: int = 0
    per_pair_contacts: dict[tuple[str, str], int] = field(default_factory=dict)

    def record_contact(self, coordinator: str, replica: str) -> None:
        """Count one coordinator→replica message (for network-cost accounting)."""
        if coordinator == replica:
            return
        self.remote_contacts += 1
        pair = (coordinator, replica)
        self.per_pair_contacts[pair] = self.per_pair_contacts.get(pair, 0) + 1


def driven(coro_fn):
    """The synchronous face of a coroutine method: same signature and
    docstring, run to completion by ``self.drive``. The coroutine itself
    stays reachable as ``.coro`` for callers already inside one."""

    @functools.wraps(coro_fn)
    def sync(self, *args, **kwargs):
        return self.drive(coro_fn(self, *args, **kwargs))

    sync.coro = coro_fn
    return sync


def _newest_of(
    by_node: dict[str, dict[str, Optional[Entry]]],
    nodes: Iterable[str],
    key: str,
    ts_bound: Optional[int] = None,
) -> Optional[Entry]:
    """Last-write-wins among the named nodes' answers for ``key`` (only
    versions stamped at or before ``ts_bound``, when given)."""
    best: Optional[Entry] = None
    for node_id in nodes:
        found = by_node[node_id].get(key)
        if found is not None and newer(found, best):
            _, timestamp, _ = found
            if ts_bound is None or timestamp <= ts_bound:
                best = found
    return best


class QuorumCoordinator:
    """A replicated, partitioned key-value store over a replica transport.

    Args:
        transport: how replicas are reached.
        nodes: ordered membership, member id → the concrete store's handle
            for it (the coordinator only uses the ids). Placement comes
            from token hashing, so the same ids always give the same layout.
        replication_factor: γ — copies of each key.
        vnodes: virtual nodes per member (load-smoothing).
        default_consistency: level used when an operation names none.
        strategy: replica-placement override (e.g.
            :class:`~repro.kvstore.topology_strategy.CloudAwareReplicationStrategy`);
            defaults to SimpleStrategy at ``replication_factor``.
        max_hints_per_node: hinted-handoff window per down replica.
        tracer: optional :class:`~repro.obs.trace.Tracer`; each batched
            check-and-set opens a coordinator-side ``store.put_if_absent_many``
            span whose scatter-gather transport spans nest underneath.
    """

    def __init__(
        self,
        transport: ReplicaTransport,
        nodes: dict[str, Any],
        replication_factor: int = 2,
        vnodes: int = 16,
        default_consistency: ConsistencyLevel = ConsistencyLevel.ONE,
        strategy=None,
        max_hints_per_node: int = 100_000,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not nodes:
            raise ValueError("a KV store needs at least one node")
        self.transport = transport
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.strategy = (
            strategy if strategy is not None else SimpleReplicationStrategy(replication_factor)
        )
        self.default_consistency = default_consistency
        self.nodes = nodes
        for node_id in nodes:
            self.ring.add_node(node_id)
        self.hints = HintBuffer(max_hints_per_node=max_hints_per_node)
        self.stats = StoreStats()
        # One batched check-and-set round, whatever the transport.
        self.batch_latency = Histogram("kvstore.batch_s")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._timestamps = itertools.count(1)
        # The coordinator's aliveness verdicts (what routing and hints key
        # off), not a probe of the replica.
        self._down: set[str] = set()
        # Keys routed while one of their replicas was down ("served below
        # full replication"): on that replica's recovery they get a
        # targeted read-repair pass, covering writes the hint window
        # dropped or that pre-date this coordinator. Bounded per node by
        # the hint window.
        self._degraded: dict[str, set[str]] = {}
        # (required acks, coordinator) → placement → its Route: nothing else
        # but _down decides one, and membership or _down changes empty it.
        self._route_table: dict[tuple[int, Optional[str]], dict[tuple[str, ...], Route]] = {}
        # The shelf directory: fingerprint → the member a put_chunks message
        # carried it to, or a set of members for the rare fingerprint shelved
        # on several. See "chunk payloads" below for why it is a superset.
        self._shelved: dict[str, str | set[str]] = {}

    def drive(self, coro):
        """Run one coordinator coroutine to completion from synchronous
        code and return its result (each concrete store knows how)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # membership and failure injection
    # ------------------------------------------------------------------ #

    def _check_member(self, node_id: str) -> None:
        if node_id not in self.nodes:
            raise NoSuchNodeError(f"node {node_id!r} is not in the cluster")

    def is_up(self, node_id: str) -> bool:
        """The coordinator's aliveness verdict for one member."""
        self._check_member(node_id)
        return node_id not in self._down

    def alive_nodes(self) -> list[str]:
        return [nid for nid in self.nodes if nid not in self._down]

    @driven
    async def mark_down(self, node_id: str) -> None:
        """Fail ``node_id``: the replica refuses data ops and the
        coordinator turns its writes into hints.

        Telling the replica is best-effort: a node that is marked down
        because it *crashed* is unreachable by definition, and the
        coordinator-side flip is the part that matters.
        """
        self._check_member(node_id)
        self._down.add(node_id)
        self._route_table.clear()
        try:
            await self.transport.set_down(node_id, True)
        except self.transport.missed_ack:
            pass  # unreachable (crashed / partitioned): local flip suffices

    @driven
    async def mark_up(self, node_id: str) -> None:
        """Recover ``node_id``: replay its buffered hints, then read-repair
        every key that was served below full replication while it was down
        (``stats.recovery_repairs`` counts the entries actually pushed).

        Hints are replayed in bounded batches and only consumed once their
        delivery was confirmed: if a batch is a missed ack, the undelivered
        tail is re-buffered (counted in ``stats.replay_failures``) and the
        error raised, so the next recovery retries it instead of silently
        losing the writes the hints were buffering.
        """
        self._check_member(node_id)
        await self.transport.set_down(node_id, False)
        self._down.discard(node_id)
        self._route_table.clear()
        hints = self.hints.take_for(node_id)
        delivered = 0
        try:
            while delivered < len(hints):
                batch = hints[delivered : delivered + _HINT_REPLAY_BATCH]
                await self.transport.multi_put(
                    node_id, [(h.key, h.value, h.timestamp, h.tombstone) for h in batch]
                )
                delivered += len(batch)
                self.stats.hints_replayed += len(batch)
        except self.transport.missed_ack:
            self.hints.restore(node_id, hints[delivered:])
            self.stats.replay_failures += 1
            raise
        await self._recovery_repair(node_id)

    async def _recovery_repair(self, node_id: str) -> None:
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
        own = by_node.pop(node_id)
        rows: list[Row] = []
        for key in keys:
            best = _newest_of(by_node, by_node, key)
            if best is not None and newer(best, own.get(key)):
                rows.append((key, *best))
        if rows:
            await self.transport.multi_put(node_id, rows)
            self.stats.recovery_repairs += len(rows)

    async def _join(self, node_id: str, handle: Any) -> None:
        """Add ``node_id`` (already reachable through the transport) and
        stream it every key whose replica set now includes it, newest
        version across the reachable peers (Cassandra's bootstrap). The
        concrete store's ``add_node`` makes it reachable first."""
        peers = self.alive_nodes()
        self.ring.add_node(node_id)
        self.nodes[node_id] = handle
        self._route_table.clear()
        shards = await self.transport.gather(*(self.transport.dump(n) for n in peers))
        rows = [
            (key, *entry)
            for key, entry in sorted(merge_newest(shards).items())
            if node_id in self.replicas_for(key)
        ]
        if rows:
            await self.transport.multi_put(node_id, rows)

    @driven
    async def remove_node(self, node_id: str) -> None:
        """Decommission ``node_id``, streaming its keys to their new
        replicas. An unreachable member is dropped without streaming
        (anti-entropy restores replication from the survivors); the last
        member cannot leave."""
        self._check_member(node_id)
        if len(self.nodes) <= 1:
            raise ValueError("cannot remove the last member of the ring")
        departing: dict[str, Entry] = {}
        if node_id not in self._down:
            try:
                departing = await self.transport.dump(node_id)
            except self.transport.missed_ack:
                pass  # crashed mid-decommission: survivors repair later
        rows = [(key, *entry) for key, entry in sorted(departing.items())]
        self.ring.remove_node(node_id)
        del self.nodes[node_id]
        self._down.discard(node_id)
        self._route_table.clear()
        self._degraded.pop(node_id, None)
        self.hints.take_for(node_id)  # hints for a gone member are void
        self._unshelve(node_id, list(self._shelved))  # its shelf left with it
        await self._place(rows, hint_down=False)

    @driven
    async def probe_members(self) -> dict[str, Optional[bool]]:
        """Ping every member once, concurrently: node id → the replica's
        own up flag, or None when it did not answer (liveness evidence for
        a failure detector)."""
        return await self._gather_or(None, {n: self.transport.ping(n) for n in self.nodes})

    # ------------------------------------------------------------------ #
    # migration streaming (operator flow)
    # ------------------------------------------------------------------ #

    @driven
    async def stream_ranges(self, ranges: Iterable[tuple[int, int]]) -> list[Row]:
        """Collect every entry whose key token falls in the half-open
        ``[lo, hi)`` token ``ranges``, newest version winning across the
        reachable members (an unreachable one is skipped: its replicas
        cover it).

        This is the unit live ring migration streams between D2-rings: the
        caller computes a moved node's primary ranges with
        :meth:`~repro.kvstore.hashring.ConsistentHashRing.primary_token_ranges`
        and feeds the rows to the destination store's
        :meth:`ingest_entries`.
        """
        ranges = list(ranges)
        shards = await self._gather_or(
            {}, {n: self.transport.fetch_range(n, ranges) for n in self.alive_nodes()}
        )
        return [(key, *entry) for key, entry in sorted(merge_newest(shards.values()).items())]

    @driven
    async def ingest_entries(self, entries: Iterable[Row]) -> int:
        """Apply migrated entries (rows from another ring's
        :meth:`stream_ranges`) to their replica sets at the original
        timestamps; down replicas receive hints. The local timestamp clock
        is advanced past the ingested entries so later writes still win
        last-write-wins against them. Returns the number of rows applied.
        """
        rows = [(key, value, int(ts), bool(tombstone)) for key, value, ts, tombstone in entries]
        await self._place(rows, hint_down=True)
        if rows:
            tick = next(self._timestamps)
            self._timestamps = itertools.count(max(tick, 1 + max(ts for _, _, ts, _ in rows)))
        return len(rows)

    async def _place(self, rows: list[Row], hint_down: bool) -> None:
        """Write ``rows`` to the alive members of their replica sets, one
        message per member."""
        groups: dict[str, list[Row]] = {}
        for entry in rows:
            for replica in self.replicas_for(entry[0]):
                if replica not in self._down:
                    groups.setdefault(replica, []).append(entry)
                elif hint_down:
                    self._hint(replica, *entry)
        await self.transport.gather(
            *(self.transport.multi_put(n, entries) for n, entries in groups.items())
        )

    # ------------------------------------------------------------------ #
    # placement and routing
    # ------------------------------------------------------------------ #

    def replicas_for(self, key: str) -> list[str]:
        """Ordered replica list for ``key`` (primary first)."""
        return self.strategy.replicas_for_key(self.ring, key)

    def _required_acks(self, consistency: Optional[ConsistencyLevel]) -> int:
        level = consistency if consistency is not None else self.default_consistency
        return level.required_acks(self.strategy.effective_factor(self.ring))

    def _routes(
        self, keys: list[str], required: int, coordinator: Optional[str], tally=None
    ) -> dict[str, Route]:
        """Each distinct key's :data:`Route` at ``required`` acks
        (:meth:`_required_acks`, once per operation). Every key is placed
        once, then routed in order; the first key too few replicas serve
        raises UnavailableError.

        Reads prefer the coordinator's own replica, then ring order: at
        level ONE a coordinator that holds a replica is served locally —
        the γ/|P| fast path of Eq. 2. ``tally`` (any object with int
        ``local`` and ``remote``) counts each of ``keys`` by whether the
        coordinator holds one of its replicas, before routing: a batch that
        raises is counted too.
        """
        distinct = list(dict.fromkeys(keys))
        placed = dict(zip(distinct, self.ring.placements(distinct, self.strategy.select)))
        if tally is not None:
            local = sum(1 for key in keys if coordinator in placed[key])
            tally.local += local
            tally.remote += len(keys) - local
        table = self._route_table.setdefault((required, coordinator), {})
        routes: dict[str, Route] = {}
        for key, replicas in placed.items():
            route = table.get(replicas)
            if route is None:
                alive = tuple(r for r in replicas if r not in self._down)
                consulted = alive
                if coordinator in alive:
                    consulted = (coordinator,) + tuple(r for r in alive if r != coordinator)
                route = table[replicas] = (replicas, alive, consulted[:required])
            alive = route[1]
            if len(alive) < required:
                self.stats.unavailable_errors += 1
                raise UnavailableError(required=required, alive=len(alive), key=key)
            if len(alive) < len(replicas):
                for replica in replicas:
                    if replica in self._down:
                        bucket = self._degraded.setdefault(replica, set())
                        if len(bucket) < self.hints.max_hints_per_node:
                            bucket.add(key)
            routes[key] = route
        return routes

    def _hint(self, replica: str, key: str, value: str, timestamp: int, tombstone: bool) -> None:
        if self.hints.add(Hint(replica, key, value, timestamp, tombstone)):
            self.stats.hints_stored += 1

    def _count_reads(
        self, keys: list[str], routes: dict[str, Route], coordinator: Optional[str]
    ) -> None:
        """One read per requested key; local when the coordinator is among
        the replicas it consulted."""
        self.stats.reads += len(keys)
        if coordinator is not None:
            local = sum(1 for key in keys if coordinator in routes[key][2])
            self.stats.local_reads += local
            self.stats.remote_reads += len(keys) - local

    def _record_contacts(self, contacts: set[tuple[str, str]]) -> None:
        """Batched accounting: one contact per distinct coordinator→replica
        pair of the round, however many keys rode in each message."""
        for coordinator, replica in sorted(contacts):
            self.stats.record_contact(coordinator, replica)
        self.stats.batch_rounds += 1

    # ------------------------------------------------------------------ #
    # scatter-gather primitives — one message per contacted node
    # ------------------------------------------------------------------ #

    async def _gather_or(self, default: Any, calls: dict[str, Any]) -> dict[str, Any]:
        """One call per node; a missed ack reads as ``default``."""
        outcomes = await self.transport.gather_outcomes(calls)
        return {
            n: default if isinstance(outcome, BaseException) else outcome
            for n, outcome in outcomes.items()
        }

    async def _scatter_get(
        self, groups: dict[str, list[str]], coordinator: Optional[str]
    ) -> dict[str, dict[str, Optional[Entry]]]:
        shards = await self.transport.gather(
            *(self.transport.multi_get(n, keys, coordinator) for n, keys in groups.items())
        )
        return dict(zip(groups, shards))

    async def _write(
        self,
        routes: dict[str, Route],
        stamped: dict[str, int],
        value: str,
        tombstone: bool,
        consistency: Optional[ConsistencyLevel],
        coordinator: Optional[str],
    ) -> Iterable[str]:
        """The write half of every client operation: send each stamped
        key (key → timestamp) to the alive members of its replica set, one
        message per member, and count acks per key; returns the members
        written to. A key below its level
        raises :class:`UnavailableError` with **no hint buffered for any
        key** — the routing check passed but the transport lost acks, and
        an unacknowledged write must not be handed off, so the caller can
        retry the whole call without double-buffering. Only once every key
        met its level do down replicas and missed acks get their hints."""
        if not stamped:
            return ()  # an all-duplicates batch writes nothing
        groups: dict[str, list[Row]] = {}
        for key, ts in stamped.items():
            for replica in routes[key][1]:
                groups.setdefault(replica, []).append((key, value, ts, tombstone))
        outcomes = await self.transport.gather_outcomes(
            {n: self.transport.multi_put(n, rows, coordinator) for n, rows in groups.items()}
        )
        missed = {n for n, outcome in outcomes.items() if outcome is not None}
        if missed:
            required = self._required_acks(consistency)
            for key in stamped:
                acked = sum(1 for r in routes[key][1] if r not in missed)
                if acked < required:
                    self.stats.unavailable_errors += 1
                    raise UnavailableError(required=required, alive=acked, key=key)
        if missed or self._down:
            for key, ts in stamped.items():
                for replica in routes[key][0]:
                    if replica in self._down or replica in missed:
                        self._hint(replica, key, value, ts, tombstone)
        return groups

    # ------------------------------------------------------------------ #
    # chunk payloads (content plane)
    # ------------------------------------------------------------------ #
    #
    # Unreachable or down replicas are tolerated — the edge copy is a
    # locality cache and the erasure-coded cloud tier is the durable tier,
    # so a skipped node is a miss, not a failure.
    #
    # Every shelf write goes through scatter_put_chunks, so the coordinator
    # keeps the shelf directory and a read asks only the members it lists
    # (chunk_holders). The directory lists a superset of the members that
    # hold a copy: a member is added when a message to it is *sent*, acked
    # or not (a timed-out message may still have landed), and dropped only
    # when it *acknowledges* a delete, when its shelf is gone
    # (forget_shelf: a crash empties the in-memory shelf) or when it leaves
    # the ring. A fingerprint it does not list is therefore on no member.
    #
    # Writes run on the driving thread like all coordinator state; the
    # caller thread reads it in chunk_holders, as it reads _down in
    # alive_nodes. That is race-free because the caller that reads is the
    # one that drives: every write happens while it waits in drive(), whose
    # completed future orders the write before the read, and no verb run
    # from elsewhere (heartbeats, open-loop claims) touches the directory.

    def _shelve(self, node_id: str, fingerprints: Iterable[str]) -> None:
        shelved = self._shelved
        for fingerprint in fingerprints:
            held = shelved.setdefault(fingerprint, node_id)
            if held == node_id:
                continue
            if isinstance(held, str):
                shelved[fingerprint] = {held, node_id}
            else:
                held.add(node_id)

    def _unshelve(self, node_id: str, fingerprints: Iterable[str]) -> None:
        shelved = self._shelved
        for fingerprint in fingerprints:
            held = shelved.get(fingerprint)
            if held == node_id:
                del shelved[fingerprint]
            elif isinstance(held, set) and node_id in held:
                held.discard(node_id)
                if len(held) == 1:
                    shelved[fingerprint] = held.pop()

    def chunk_holders(self, fingerprints: Iterable[str]) -> dict[str, list[str]]:
        """Alive member → the fingerprints the shelf directory lists on it,
        in request order; members in membership order, none without one.
        A fingerprint held by several members is asked of each."""
        groups: dict[str, list[str]] = {n: [] for n in self.nodes if n not in self._down}
        shelved = self._shelved
        for fingerprint in fingerprints:
            held = shelved.get(fingerprint)
            if held is None:
                continue
            for node_id in (held,) if isinstance(held, str) else held:
                wanted = groups.get(node_id)
                if wanted is not None:
                    wanted.append(fingerprint)
        return {n: wanted for n, wanted in groups.items() if wanted}

    @driven
    async def forget_shelf(self, node_id: str) -> None:
        """Drop ``node_id`` from the shelf directory: its shelf is gone (a
        crashed member restarts with an empty one)."""
        self._unshelve(node_id, list(self._shelved))

    @driven
    async def scatter_put_chunks(
        self,
        groups: dict[str, Payloads] | list[tuple[str, Payloads]],
    ) -> dict[str, Optional[Exception]] | list[Optional[Exception]]:
        """Batched ``put_chunks`` messages, all in flight together (the
        payload sibling of the ``put_if_absent_many`` scatter). A dict is
        one message per node and is answered node id → error-or-None; a
        list of ``(node_id, entries)`` messages may name a node more than
        once and is answered with error-or-None per message, in order."""
        messages = list(groups.items()) if isinstance(groups, dict) else groups
        for node_id, entries in messages:
            self._shelve(node_id, (fingerprint for fingerprint, _ in entries))
        outcomes = await self.transport.gather_outcomes(
            {i: self.transport.put_chunks(n, entries) for i, (n, entries) in enumerate(messages)}
        )
        failures = list(outcomes.values())
        return dict(zip(groups, failures)) if isinstance(groups, dict) else failures

    @driven
    async def scatter_get_chunks(
        self, groups: dict[str, list[str]]
    ) -> dict[str, dict[str, Optional[bytes]]]:
        """One batched ``get_chunks`` per node; an unreachable node yields
        an empty mapping (every fingerprint a miss)."""
        return await self._gather_or(
            {}, {n: self.transport.get_chunks(n, fps) for n, fps in groups.items()}
        )

    @driven
    async def scatter_delete_chunks(
        self, node_ids: Iterable[str], fingerprints: Iterable[str]
    ) -> tuple[int, int]:
        """Drop fingerprints from every named node; returns (copies
        deleted, bytes freed) across the nodes that acknowledged. Only
        those leave the shelf directory: one that did not answer may still
        hold its copies."""
        fingerprints = list(fingerprints)
        outcomes = await self.transport.gather_outcomes(
            {n: self.transport.delete_chunks(n, fingerprints) for n in node_ids}
        )
        copies = freed = 0
        for node_id, outcome in outcomes.items():
            if isinstance(outcome, BaseException):
                continue
            self._unshelve(node_id, fingerprints)
            copies += outcome[0]
            freed += outcome[1]
        return copies, freed

    @driven
    async def node_chunk_keys(self, node_id: str) -> list[str]:
        """Fingerprints shelved on one node (control-plane: served while
        the replica is down; [] when it is unreachable)."""
        try:
            return list(await self.transport.chunk_keys(node_id))
        except self.transport.missed_ack:
            return []

    @driven
    async def node_chunk_dump(self, node_id: str) -> dict[str, bytes]:
        """Full payload shelf of one node (operator flow for rehoming and
        migration carry: served while the replica is down; {} when it is
        unreachable)."""
        try:
            keys = await self.transport.chunk_keys(node_id)
            shelf = await self.transport.chunk_dump(node_id, keys)
        except self.transport.missed_ack:
            return {}
        return {fp: data for fp, data in shelf.items() if data is not None}

    # ------------------------------------------------------------------ #
    # client operations
    # ------------------------------------------------------------------ #

    def clock_now(self) -> int:
        """Advance and return the store's logical write clock.

        Every write issued after this call is stamped strictly later, so the
        returned tick is a clean boundary: the migration cutover records it
        to separate old-topology claims from writes the ring keeps accepting
        afterwards (see :meth:`contains_many`'s ``ts_bound``).
        """
        return next(self._timestamps)

    async def _read_round(
        self,
        keys: list[str],
        consistency: Optional[ConsistencyLevel],
        coordinator: Optional[str],
        ts_bound: Optional[int] = None,
        tally=None,
    ) -> tuple[dict[str, Route], dict[str, bool], set[tuple[str, str]]]:
        """The read half of a batch: route every distinct key (so nothing
        happens if any is unavailable), send one ``multi_get`` per
        consulted node, count one read per requested key. Returns (routes,
        key → present, contacts)."""
        routes = self._routes(keys, self._required_acks(consistency), coordinator, tally)
        if ts_bound is not None:
            # Exactness over the fast path: consult every alive replica.
            routes = {
                key: (replicas, alive, alive) for key, (replicas, alive, _) in routes.items()
            }
        read_groups: dict[str, list[str]] = {}
        for key, (_, _, consulted) in routes.items():
            for node_id in consulted:
                read_groups.setdefault(node_id, []).append(key)
        by_node = await self._scatter_get(read_groups, coordinator)
        present: dict[str, bool] = {}
        for key, (_, _, consulted) in routes.items():
            if len(consulted) == 1 and ts_bound is None:
                best = by_node[consulted[0]].get(key)
            else:
                best = _newest_of(by_node, consulted, key, ts_bound)
            _, _, tombstone = best or (None, 0, True)  # absent reads as deleted
            present[key] = not tombstone
        self._count_reads(keys, routes, coordinator)
        # Every consulted node heads a read group, whichever key put it there.
        contacts = {(coordinator, n) for n in read_groups} if coordinator is not None else set()
        return routes, present, contacts

    @driven
    async def contains_many(
        self,
        keys: Iterable[str],
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
        ts_bound: Optional[int] = None,
    ) -> list[bool]:
        """Batched membership check: one ``multi_get`` per consulted node,
        no writes. The read-only sibling of
        :meth:`put_if_absent_many` (the migration dual-lookup window uses it
        to probe the old ring without mutating it); contacts are recorded
        once per distinct coordinator→replica pair and ``batch_rounds``
        grows by one.

        With ``ts_bound``, a key only counts when some alive replica holds a
        non-tombstone version stamped at or before the bound, and every
        alive replica is consulted — the exactness contract of the cutover
        window (claims the source ring accepts *after* the cutover belong
        to its own new topology and must not leak into the destination's
        verdicts).
        """
        keys = list(keys)
        _, present, contacts = await self._read_round(keys, consistency, coordinator, ts_bound)
        self._record_contacts(contacts)
        return [present[key] for key in keys]

    @driven
    async def put_if_absent_many(
        self,
        keys: Iterable[str],
        value: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
        tally=None,
    ) -> list[bool]:
        """Insert each key unless present: the dedup hot path, one
        scatter-gather round trip for the lookups and the inserts.

        Key-level results are those of claiming the keys one at a time in
        order (an intra-batch repeat is a duplicate; reads and writes are
        counted per key), but the *network* accounting is per round trip,
        not per key: each contacted node gets one ``multi_get`` for every
        key it is consulted for and one ``multi_put`` for every new key it
        owns, so ``remote_contacts``/``per_pair_contacts`` grow by the
        number of distinct coordinator→replica pairs in the batch — not by
        the number of keys. ``batch_rounds`` counts these calls. Every key
        is routed before any is written: a batch with one unavailable key
        applies nothing. ``tally`` counts the lookups (see :meth:`_routes`).

        Returns:
            One ``True`` (inserted) / ``False`` (already present) per key,
            in input order.
        """
        keys = list(keys)
        started = time.perf_counter()
        # The transport's per-call spans nest under this one: a scatter
        # creates its tasks while the context points here.
        with self.tracer.span(
            "store.put_if_absent_many", node=coordinator, keys=len(keys)
        ) if self.tracer.enabled else NO_SPAN:
            try:
                routes, present, contacts = await self._read_round(
                    keys, consistency, coordinator, tally=tally
                )
                # Per-key decisions in input order.
                inserted: dict[str, int] = {}  # key → timestamp of its write
                results: list[bool] = []
                for key in keys:
                    new = not present[key] and key not in inserted
                    results.append(new)
                    if new:
                        inserted[key] = next(self._timestamps)
                self.stats.writes += len(inserted)
                written = await self._write(
                    routes, inserted, value, False, consistency, coordinator
                )
                if coordinator is not None:
                    contacts.update((coordinator, n) for n in written)
                self._record_contacts(contacts)
                return results
            finally:
                self.batch_latency.observe(time.perf_counter() - started)

    @driven
    async def delete_many(
        self,
        keys: Iterable[str],
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> int:
        """Tombstone every live key of ``keys`` in one round trip: the read
        half of :meth:`put_if_absent_many`, then one ``multi_put`` of
        tombstones per replica of a live key. Returns how many keys were
        live.

        A tombstone's timestamp supersedes earlier writes everywhere —
        including replicas that are down right now, which receive it as a
        hint — so a delete can never be undone by a stale hint replay or
        anti-entropy sync. Every key is routed before any is written: a
        batch with one unavailable key applies nothing.
        """
        keys = list(keys)
        routes, present, contacts = await self._read_round(keys, consistency, coordinator)
        live = {key: next(self._timestamps) for key in dict.fromkeys(keys) if present[key]}
        self.stats.writes += len(live)
        written = await self._write(routes, live, "", True, consistency, coordinator)
        if coordinator is not None:
            contacts.update((coordinator, n) for n in written)
        self._record_contacts(contacts)
        return len(live)

    # Batches of one, for callers that name the single-key verbs.
    def contains(self, key: str, consistency: Optional[ConsistencyLevel] = None) -> bool:
        return self.contains_many([key], consistency)[0]

    def delete(self, key: str, consistency: Optional[ConsistencyLevel] = None) -> bool:
        return self.delete_many([key], consistency) == 1

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @driven
    async def unique_keys(self) -> set[str]:
        """The logical (live) key set: keys whose newest version across all
        members — up or down; this is an operator view — is not a tombstone."""
        shards = await self.transport.gather(*(self.transport.dump(n) for n in self.nodes))
        return {key for key, (_, _, tombstone) in merge_newest(shards).items() if not tombstone}

    @driven
    async def total_stored_entries(self) -> int:
        """Sum of per-node entry counts (≈ unique_keys · γ when healthy)."""
        return sum(
            await self.transport.gather(*(self.transport.key_count(n) for n in self.nodes))
        )

    def __len__(self) -> int:
        return len(self.unique_keys())
