"""A single storage node of the distributed KV store.

Each node holds its local shard of the key space in memory and has an
up/down flag driven by failure injection. Values carry a logical timestamp
so replicas can reconcile with last-write-wins, Cassandra-style.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.kvstore.errors import NodeDownError


# One index entry as it is written: (key, value, timestamp, tombstone).
Row = tuple[str, str, int, bool]


def check_row(row) -> Row:
    """``row`` as a :data:`Row` — exactly (str, str, int, bool), what a
    Merkle leaf hashes and the WAL writes back — else ``ValueError``."""
    if (type(row) is list or type(row) is tuple) and len(row) == 4:
        key, value, timestamp, tombstone = row
        if type(key) is str and type(value) is str and type(timestamp) is int:
            if type(tombstone) is bool:
                return key, value, timestamp, tombstone
    raise ValueError(f"a row is [str, str, int, bool], got {row!r:.80}")


@dataclass(frozen=True)
class VersionedValue:
    """A stored value plus its last-write-wins timestamp.

    A *tombstone* records a deletion: it participates in last-write-wins
    reconciliation like any write (so a delete beats older writes even when
    it reaches a replica late, via hints or anti-entropy) but reads treat
    it as absence.
    """

    value: str
    timestamp: int
    tombstone: bool = False

    def newer_than(self, other: Optional["VersionedValue"]) -> bool:
        return other is None or self.timestamp > other.timestamp

    def row(self, key: str) -> Row:
        return (key, self.value, self.timestamp, self.tombstone)


def merge_newest(
    shards: Iterable[dict[str, VersionedValue]],
) -> dict[str, VersionedValue]:
    """Last-write-wins union of per-replica shards."""
    newest: dict[str, VersionedValue] = {}
    for shard in shards:
        for key, stored in shard.items():
            if stored.newer_than(newest.get(key)):
                newest[key] = stored
    return newest


class StorageNode:
    """One member of a KV cluster: a local store with an availability flag.

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
        self._data: dict[str, VersionedValue] = (
            wal.load() if wal is not None else {}
        )
        self._up = True

    @property
    def is_up(self) -> bool:
        return self._up

    def mark_down(self) -> None:
        """Simulate a crash or partition: the node stops serving requests."""
        self._up = False

    def mark_up(self) -> None:
        """Bring the node back; its local data is intact (crash, not wipe)."""
        self._up = True

    def _check_up(self) -> None:
        if not self._up:
            raise NodeDownError(f"node {self.node_id!r} is down")

    def local_put(
        self, key: str, value: str, timestamp: int, tombstone: bool = False
    ) -> None:
        """Store ``key`` locally, keeping the newest write per key
        (tombstones included — a newer delete must shadow older writes)."""
        self._check_up()
        self._write([(key, value, timestamp, tombstone)])

    def _write(self, rows: Iterable[Row]) -> None:
        """Apply one message's rows, past the up check (a batched verb
        checks once per message). Their WAL records share one flush, and
        only after it does the log get its one snapshot check."""
        wal = self.wal
        if wal is None:
            self._apply(rows)
            return
        with wal.batch():
            self._apply(rows)
        wal.maybe_snapshot(self._data)

    def _apply(self, rows: Iterable[Row]) -> None:
        """:meth:`local_put` of each row, keeping the newest write per key."""
        data, wal = self._data, self.wal
        for key, value, timestamp, tombstone in rows:
            existing = data.get(key)
            if existing is None or timestamp > existing.timestamp:  # newer_than
                if wal is not None:
                    # Log before apply: a crash after the append replays the
                    # record, a crash before it never claimed the write.
                    wal.append(key, value, timestamp, tombstone)
                data[key] = VersionedValue(value, timestamp, tombstone)

    def local_get(self, key: str) -> Optional[VersionedValue]:
        """Read ``key`` from the local shard (None if absent)."""
        self._check_up()
        return self._data.get(key)

    def local_contains(self, key: str) -> bool:
        """True when a live (non-tombstone) value is stored locally."""
        self._check_up()
        stored = self._data.get(key)
        return stored is not None and not stored.tombstone

    def local_delete(self, key: str) -> bool:
        """Delete ``key`` locally. Returns True if it was present."""
        self._check_up()
        return self._data.pop(key, None) is not None

    def local_keys(self) -> Iterator[str]:
        """Iterate keys in the local shard (node must be up)."""
        self._check_up()
        return iter(list(self._data))

    def key_count(self) -> int:
        """Number of keys stored locally (allowed even while down — this is
        an operator-view metric, not a client request)."""
        return len(self._data)

    def __repr__(self) -> str:
        state = "up" if self._up else "down"
        return f"StorageNode({self.node_id!r}, {state}, keys={len(self._data)})"
