"""One ring member's replica: its index shard plus its chunk shelf.

:class:`Replica` is the whole *replica-local* operation surface — every
verb a coordinator may ask of one member — as typed method calls: batched
index reads and writes against the member's shard (key →
:data:`~repro.kvstore.node.Entry`, rebuilt from its write-ahead log on
construction), the chunk-payload shelf (PM-Dedup's locality argument: the
node answering "is this chunk new?" also holds the bytes), and the
operator views (dump, Merkle tree, range scans) that keep working while
the replica refuses data traffic.

A replica knows nothing about placement, consistency levels, hints or
other members; that is the coordinator's
(:class:`~repro.kvstore.coordinator.QuorumCoordinator`). It is reached
through a :class:`~repro.kvstore.transport.ReplicaTransport`: by method
call in-process, or behind a :class:`~repro.rpc.server.NodeServer` socket,
whose ops (:data:`~repro.rpc.ops.OPS`) check a request and serve it here.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from repro.kvstore.errors import NodeDownError
from repro.kvstore.merkle import MerkleTree, _bucket_of, merkle_from_items
from repro.kvstore.node import Entry, Row
from repro.kvstore.tokens import key_token


class Replica:
    """One member of a KV cluster: its index shard and chunk shelf behind
    an availability flag, with the batched verbs.

    Data-plane verbs are refused (``NodeDownError``) while the node is
    down. Operator views read the shard directly, so a replica that is
    marked down can still be inspected, compared and drained.

    Args:
        node_id: this member's id.
        wal: optional :class:`~repro.kvstore.wal.WriteAheadLog`. When given,
            the shard is rebuilt from it on construction (the crash-restart
            path) and every accepted write is logged before it is applied —
            so a replica that dies with the process comes back with its
            pre-crash keys.
    """

    def __init__(self, node_id: str, wal=None) -> None:
        self.node_id = node_id
        self.wal = wal
        self._data: dict[str, Entry] = wal.load() if wal is not None else {}
        self._up = True
        # Chunk-payload shelf for the content plane: fingerprint → raw
        # bytes. In-memory on purpose — the edge copy is a locality cache;
        # the erasure-coded cloud tier is the durable tier, so a crashed
        # node losing its shelf is recoverable by reconstruction.
        self.chunks: dict[str, bytes] = {}
        self.chunk_bytes = 0

    @property
    def is_up(self) -> bool:
        return self._up

    def _check_up(self) -> None:
        if not self._up:
            raise NodeDownError(f"node {self.node_id!r} is down")

    def _apply(self, rows: Iterable[Row]) -> None:
        """Keep the newest write per key (tombstones included — a newer
        delete must shadow older writes), logging each accepted one."""
        data, wal = self._data, self.wal
        for key, value, timestamp, tombstone in rows:
            existing = data.get(key)
            if existing is None or timestamp > existing[1]:  # newer()
                if wal is not None:
                    # Log before apply: a crash after the append replays the
                    # record, a crash before it never claimed the write.
                    wal.append(key, value, timestamp, tombstone)
                data[key] = (value, timestamp, tombstone)

    # ------------------------------------------------------------------ #
    # data plane
    # ------------------------------------------------------------------ #

    def multi_get(self, keys: Iterable[str]) -> dict[str, Optional[Entry]]:
        """Stored version (tombstones included) of each key, None if absent."""
        self._check_up()
        data = self._data
        return {key: data.get(key) for key in keys}

    def multi_put(self, rows: Iterable[Row]) -> None:
        """Apply rows at their own timestamps (newest write per key wins);
        their WAL records share one flush, before anyone acknowledges them,
        and only after it does the log get its one snapshot check."""
        self._check_up()
        wal = self.wal
        if wal is None:
            self._apply(rows)
            return
        with wal.batch():
            self._apply(rows)
        wal.maybe_snapshot(self._data)

    def put_chunks(self, entries: Iterable[tuple[str, bytes]]) -> tuple[int, int]:
        """Shelve (fingerprint, payload) pairs; returns (new fingerprints,
        their bytes)."""
        self._check_up()
        stored = 0
        stored_bytes = 0
        for fingerprint, data in entries:
            if fingerprint not in self.chunks:
                self.chunk_bytes += len(data)
                stored += 1
                stored_bytes += len(data)
            else:
                self.chunk_bytes += len(data) - len(self.chunks[fingerprint])
            self.chunks[fingerprint] = data
        return stored, stored_bytes

    def get_chunks(
        self, fingerprints: list[str], budget: Optional[int] = None
    ) -> tuple[dict[str, bytes], int]:
        """:meth:`chunk_dump` as a data op: refused while down."""
        self._check_up()
        return self.chunk_dump(fingerprints, budget)

    def delete_chunks(self, fingerprints: Iterable[str]) -> tuple[int, int]:
        """Drop payloads; returns (copies deleted, bytes freed)."""
        self._check_up()
        deleted = 0
        freed = 0
        for fingerprint in fingerprints:
            data = self.chunks.pop(fingerprint, None)
            if data is not None:
                deleted += 1
                freed += len(data)
                self.chunk_bytes -= len(data)
        return deleted, freed

    # ------------------------------------------------------------------ #
    # control plane (served while down)
    # ------------------------------------------------------------------ #

    def ping(self) -> bool:
        return self._up

    def set_down(self, down: bool) -> None:
        """Crash or partition the node (it stops serving data verbs), or
        bring it back with its shard intact (a crash, not a wipe)."""
        self._up = not down

    def key_count(self) -> int:
        """Number of keys stored locally (an operator view)."""
        return len(self._data)

    def dump(self) -> Mapping[str, Entry]:
        """The whole shard: a read-only view, not a snapshot."""
        return MappingProxyType(self._data)

    def merkle_tree(self, depth: int) -> MerkleTree:
        return merkle_from_items(
            ((key, *entry) for key, entry in self._data.items()), depth
        )

    def repair_range(self, depth: int, buckets: Iterable[int]) -> dict[str, Entry]:
        """Entries under the given Merkle buckets (anti-entropy streaming)."""
        wanted = set(buckets)
        return {
            key: entry
            for key, entry in self._data.items()
            if _bucket_of(key, depth) in wanted
        }

    def fetch_range(self, ranges: Iterable[tuple[int, int]]) -> dict[str, Entry]:
        """Entries whose key token falls in the half-open ``[lo, hi)``
        ``ranges`` — the ring-migration sibling of :meth:`repair_range`."""
        bounds = list(ranges)
        out: dict[str, Entry] = {}
        for key, entry in self._data.items():
            token = key_token(key)
            if any(lo <= token < hi for lo, hi in bounds):
                out[key] = entry
        return out

    def chunk_keys(self) -> list[str]:
        """Shelved fingerprints: works while down, so a decommission or GC
        sweep can still enumerate what a refusing replica holds."""
        return sorted(self.chunks)

    def chunk_dump(
        self, fingerprints: list[str], budget: Optional[int] = None
    ) -> tuple[dict[str, bytes], int]:
        """Batched payload read: (found fingerprint → payload, how many of
        the asked fingerprints were scanned). With a byte ``budget`` the
        reply stops filling there and the caller asks again for the rest;
        of the scanned fingerprints, one not found is absent (a cache miss,
        not an error). :meth:`get_chunks` is the data op; under this name
        it is the operator's, so a refusing replica's shelf can be rehomed."""
        found: dict[str, bytes] = {}
        scanned = 0
        for fingerprint in fingerprints:
            data = self.chunks.get(fingerprint)
            if data is not None:
                if budget is not None:
                    if found and len(data) > budget:
                        break  # full; a lone oversize blob still travels alone
                    budget -= len(data)
                found[fingerprint] = data
            scanned += 1
        return found, scanned

    def __repr__(self) -> str:
        state = "up" if self._up else "down"
        return f"Replica({self.node_id!r}, {state}, keys={len(self._data)})"
