"""Ring-local content store: payloads live on the node that owns the hash.

Every unique chunk's payload is shelved on the ring member that the
consistent-hash ring names as the fingerprint's primary — the same
placement the fingerprint index uses, so the node answering "is this
chunk new?" is also the node holding its bytes (PM-Dedup's
payloads-at-the-edge locality argument). One copy per ring, on purpose:
the edge shelf is the *fast* tier; durability belongs to the
erasure-coded cloud tier behind
:class:`~repro.content.plane.ContentPlane`.

Writes are buffered and flushed as **batched messages per target node**,
at most ``batch_size`` payloads each and all in flight in one scatter (the
payload sibling of ``put_if_absent_many``). Reads go to holders, not to
every alive member: the index store's coordinator keeps a shelf directory
(fingerprint → the member a ``put_chunks`` message carried it to), and a
read sends each alive holder one batched ``get_chunks`` of its own
fingerprints. The directory lists a *superset* of the members holding a
copy — a member enters when a message to it is sent, acknowledged or not,
and leaves only when it acknowledges a delete, crashes (the shelf is in
memory) or leaves the ring — so a fingerprint it lists nowhere is a miss
with no message sent, exactly the miss a broadcast would have found. After
``clear()`` a restore therefore sends no edge RPC at all. Only a
fingerprint several members returned is placed, so the primary's copy
wins. Down or unreachable members are misses, never errors.

This class only routes. The shelves belong to the members' replicas
(:class:`~repro.kvstore.replica.Replica`) and are reached through the
index store's chunk scatters, which every
:class:`~repro.kvstore.coordinator.QuorumCoordinator` has — over a live
ring a ``put_chunks`` is one RPC whose payloads ride raw in the frame's
blob section (:mod:`repro.rpc.framing`), in-process it is a method call.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

from repro.content.base import ContentStats
from repro.obs.hub import series


class RingContentStore:
    """Edge payload shelf for one D2-ring.

    Args:
        ring_id: owning ring (labels metrics).
        store: the ring's fingerprint-index store; provides placement
            (``replicas_for``), membership (``nodes``, ``is_up``) and the
            chunk scatters.
        batch_size: most payloads per ``put_chunks`` message.
    """

    def __init__(self, ring_id: str, store, batch_size: int = 16) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        self.ring_id = ring_id
        self.store = store
        self.batch_size = batch_size
        self.stats = ContentStats()
        self._pending: dict[str, bytes] = {}

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #

    def members(self) -> list[str]:
        return list(self.store.nodes)

    def _target(self, fingerprint: str, exclude: Optional[str] = None) -> Optional[str]:
        """First alive replica in placement order (primary-first), or None
        when the whole replica set is down. When ``exclude`` leaves no
        replica (a departing member was the sole owner), any other alive
        member serves — the shelf directory records wherever a copy lands,
        so it stays findable there."""
        for node_id in self.store.replicas_for(fingerprint):
            if node_id == exclude:
                continue
            if self.store.is_up(node_id):
                return node_id
        if exclude is not None:
            for node_id in self.store.alive_nodes():
                if node_id != exclude:
                    return node_id
        return None

    def _by_target(
        self, payloads: dict[str, bytes], exclude: Optional[str] = None
    ) -> dict[str, list[tuple[str, bytes]]]:
        """Payloads grouped by the member that should shelve them; one with
        no alive target is counted in ``dropped_puts`` and left out."""
        groups: dict[str, list[tuple[str, bytes]]] = {}
        for fingerprint, data in payloads.items():
            target = self._target(fingerprint, exclude)
            if target is None:
                self.stats.dropped_puts += 1
            else:
                groups.setdefault(target, []).append((fingerprint, data))
        return groups

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def put_chunk(self, fingerprint: str, data: bytes) -> bool:
        """Buffer one payload until :meth:`flush`. Placement is decided at
        flush time, so membership changes between put and flush are safe."""
        self._pending.setdefault(fingerprint, bytes(data))
        return True

    def flush(self) -> int:
        """Push buffered payloads: each target member's share as messages
        of at most ``batch_size`` payloads, every message in flight in one
        scatter.

        Chunks whose replica set is entirely down are dropped (counted in
        ``dropped_puts``) — the cloud tier holds the durable copy and a
        later orphan sweep or re-ingest restores edge locality. So are the
        payloads of a message that fails, and only those.
        """
        if not self._pending:
            return 0
        pending, self._pending = self._pending, {}
        step = self.batch_size
        messages = [
            (node_id, entries[start : start + step])
            for node_id, entries in self._by_target(pending).items()
            for start in range(0, len(entries), step)
        ]
        flushed = 0
        failures = self.store.scatter_put_chunks(messages)
        for (_, entries), failure in zip(messages, failures):
            if failure is None:
                self.stats.puts += len(entries)
                self.stats.put_bytes += sum(len(data) for _, data in entries)
                flushed += len(entries)
            else:
                self.stats.dropped_puts += len(entries)
        self.stats.batch_flushes += len(messages)
        return flushed

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def get_chunk(self, fingerprint: str) -> bytes:
        """Fetch one payload from the ring (KeyError when no alive member
        holds a copy)."""
        found = self.get_many([fingerprint]).get(fingerprint)
        if found is None:
            raise KeyError(f"ring {self.ring_id!r} holds no chunk {fingerprint!r}")
        return found

    def get_many(self, fingerprints: list[str]) -> dict[str, bytes]:
        """Batched fetch: one ``get_chunks`` message per alive member the
        shelf directory lists as holding some of them, all in flight
        concurrently; returns only the fingerprints found. A fingerprint no
        member is listed for is a miss without a message."""
        self.flush()
        wanted = list(dict.fromkeys(fingerprints))
        self.stats.gets += len(wanted)
        groups = self.store.chunk_holders(wanted)
        found: dict[str, bytes] = {}
        if groups:
            by_node = self.store.scatter_get_chunks(groups)
            copies: dict[str, dict[str, bytes]] = {}  # fingerprint -> holder -> bytes
            for node_id in groups:
                for fingerprint, data in by_node.get(node_id, {}).items():
                    if data is not None:
                        copies.setdefault(fingerprint, {})[node_id] = data
            for fingerprint in wanted:
                held = copies.get(fingerprint, {})
                if len(held) > 1:
                    # Contested: the primary's copy wins, then any alive holder.
                    replicas = self.store.replicas_for(fingerprint)
                    held = {n: held[n] for n in chain(replicas, groups) if n in held}
                if held:
                    found[fingerprint] = next(iter(held.values()))
        self.stats.hits += len(found)
        self.stats.misses += len(wanted) - len(found)
        return found

    def has_chunk(self, fingerprint: str) -> bool:
        if fingerprint in self._pending:
            return True
        return fingerprint in self.get_many([fingerprint])

    # ------------------------------------------------------------------ #
    # deletes and eviction
    # ------------------------------------------------------------------ #

    def delete_chunk(self, fingerprint: str) -> tuple[int, int]:
        return self.delete_many([fingerprint])

    def delete_many(self, fingerprints: list[str]) -> tuple[int, int]:
        """Drop payload copies from every member; returns (copies deleted,
        bytes freed). A down member keeps its copy — unreferenced shelf
        bytes are re-swept once it serves again, or die with a crash."""
        self.flush()
        for fingerprint in fingerprints:
            self._pending.pop(fingerprint, None)
        copies, freed = self.store.scatter_delete_chunks(self.members(), fingerprints)
        self.stats.deletes += copies
        self.stats.deleted_bytes += freed
        return copies, freed

    def clear(self) -> int:
        """Evict every edge copy (degraded-restore drills: forces the read
        path through k-of-n reconstruction at the cloud tier)."""
        self.flush()
        evicted = 0
        for node_id in self.members():
            keys = self.store.node_chunk_keys(node_id)
            if keys:
                copies, _ = self.store.scatter_delete_chunks([node_id], keys)
                evicted += copies
        return evicted

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def rehome_member(self, node_id: str) -> int:
        """Move a departing member's payloads to their new owners (called
        before the node leaves the index ring, so placement still knows
        it). Unreachable member → nothing to move; the cloud tier covers
        its chunks."""
        self.flush()
        groups = self._by_target(self.store.node_chunk_dump(node_id), exclude=node_id)
        rehomed = sum(len(entries) for entries in groups.values())
        self.store.scatter_put_chunks(groups)
        self.stats.rehomed_chunks += rehomed
        return rehomed

    def drain_by_member(self) -> dict[str, dict[str, bytes]]:
        """Every member's shelf contents (operator flow; migration carry
        uses it to move a dissolving ring's payloads to the new topology)."""
        self.flush()
        return {nid: self.store.node_chunk_dump(nid) for nid in self.members()}

    def fingerprints(self) -> frozenset[str]:
        out: set[str] = set(self._pending)
        for node_id in self.members():
            out.update(self.store.node_chunk_keys(node_id))
        return frozenset(out)

    def snapshot(self) -> dict[str, int]:
        return {**series(self.stats), "pending": len(self._pending)}
