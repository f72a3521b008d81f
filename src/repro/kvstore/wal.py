"""Per-node durability: append-only write-ahead log + amortised snapshots.

A :class:`~repro.kvstore.replica.Replica`'s shard is in-memory; a crashed
replica of a *live* ring (its :class:`~repro.rpc.server.NodeServer` process
dying) would otherwise lose its shard and come back empty, leaning entirely
on hints and anti-entropy to rebuild. Cassandra solves this with a commit
log plus SSTable flushes; we reproduce the same shape at our scale:

- every write a replica accepts appends one record to an append-only JSONL
  log **before** the write is considered durable (the records of one
  replica message share a flush, :meth:`WriteAheadLog.batch`);
- once the log has outgrown the shard — the appends since the last
  snapshot reach ``max(snapshot_every, entries the snapshot would write)``
  (:meth:`WriteAheadLog.due_for_snapshot`) — the full shard is written to a
  snapshot file (atomic ``os.replace``) and the log is truncated. The
  rewrite is paid for by the appends since the last one, so logging stays
  amortised O(1) per write at any shard size, and a restart reads at most
  the snapshot plus a log of ``max(snapshot_every, shard)`` records —
  about twice the shard;
- on restart, :meth:`WriteAheadLog.load` reads the snapshot and replays
  the log on top, and compacts the two when the log it replayed had
  already outgrown the shard by the same rule. A record is a
  newline-terminated line: an unterminated tail (the classic mid-append
  crash) was never acknowledged, so it is dropped and cut off the file
  before anything is appended after it; a bit-damaged line is dropped,
  never propagated.

Records are ``[key, value, timestamp, tombstone]`` JSON arrays — the same
row the wire protocol ships — so the log is greppable and codec-free; the
snapshot maps each key to its ``[value, timestamp, tombstone]`` entry.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _quote
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

from repro.kvstore.node import Entry, check_row, newer

_SNAP_SUFFIX = ".snap.json"
_LOG_SUFFIX = ".wal.jsonl"


@dataclass
class WalStats:
    """Durability accounting for one node's log."""

    appends: int = 0
    flushes: int = 0  # commits: appends / flushes is records per commit
    fsyncs: int = 0
    snapshots: int = 0
    snapshot_entries_loaded: int = 0
    log_entries_replayed: int = 0
    torn_records_dropped: int = 0


class WriteAheadLog:
    """Append-only log + snapshot pair for one node's local shard.

    Args:
        directory: where this node's two files live (created if missing).
        node_id: names the files (``<node_id>.wal.jsonl`` / ``.snap.json``).
        snapshot_every: fewest appends between snapshots; a shard larger
            than this waits for as many appends as it has entries (see
            :meth:`due_for_snapshot`). A snapshot rewrites the full shard
            and truncates the log. ``0`` disables automatic snapshots (the
            log grows until :meth:`write_snapshot` is called explicitly).
        fsync: when True, every commit is fsync'd and a snapshot fsyncs
            its file and then the directory before the log is truncated, so
            acknowledged records survive power loss on a file system that
            honours fsync; slow. The default (False) flushes to the OS on each
            commit (one append, or one :meth:`batch` of them), which
            survives *process* crashes (the failure mode the chaos harness
            injects) without the per-write fsync cost.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        node_id: str,
        snapshot_every: int = 1024,
        fsync: bool = False,
    ) -> None:
        if snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every!r}")
        if not node_id or "/" in node_id or os.sep in node_id:
            raise ValueError(f"node_id must be a plain name, got {node_id!r}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.node_id = node_id
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        self.stats = WalStats()
        self.log_path = self.directory / f"{node_id}{_LOG_SUFFIX}"
        self.snap_path = self.directory / f"{node_id}{_SNAP_SUFFIX}"
        self._fh = None
        self._appends_since_snapshot = 0
        self._closed = False
        self._batching = False
        self._uncommitted = False

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #

    def load(self) -> dict[str, Entry]:
        """Rebuild the shard: snapshot first, then replay the log on top.

        Last-write-wins per key, exactly as a live replica applies records,
        so replaying is idempotent. A damaged line — bit-flipped, or no
        ``check_row`` row — is dropped (and counted), not raised; the
        records before it always load. An unterminated final line, torn by
        a crash mid-append, is dropped too and cut off the file (fsync'd
        with ``fsync=True``), so the next append starts on a fresh line.
        A replayed log that has outgrown the shard by the rule of
        :meth:`due_for_snapshot` is compacted before the shard is returned:
        appends are counted per instance, so a node restarted more often
        than it fills a snapshot would otherwise replay an ever longer log.
        """
        data: dict[str, Entry] = {}
        replayed = 0
        if self.snap_path.exists():
            with open(self.snap_path, encoding="utf-8") as fh:
                raw = json.load(fh)
            for key, (value, ts, tombstone) in raw.items():
                data[key] = (value, int(ts), bool(tombstone))
            self.stats.snapshot_entries_loaded += len(data)
        if self.log_path.exists():
            # Bytes, not text: a flipped high bit must fail this record's
            # decode inside the ``try``, not the file iterator outside it.
            with open(self.log_path, "r+b") as fh:
                whole = 0  # bytes through the last newline
                for line in fh:
                    if not line.endswith(b"\n"):
                        # Torn append: never acknowledged. Cut it, or the
                        # next append would be glued onto it and lost too.
                        self.stats.torn_records_dropped += 1
                        fh.truncate(whole)
                        if self.fsync:
                            os.fsync(fh.fileno())
                        break
                    whole += len(line)
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        key, value, ts, tombstone = check_row(json.loads(line.decode("utf-8")))
                    except ValueError:
                        self.stats.torn_records_dropped += 1  # damaged in place
                        continue
                    entry = (value, ts, tombstone)
                    if newer(entry, data.get(key)):
                        data[key] = entry
                    replayed += 1
            self.stats.log_entries_replayed += replayed
        if self.snapshot_every and replayed >= max(self.snapshot_every, len(data)):
            self.write_snapshot(data)
        return data

    # ------------------------------------------------------------------ #
    # logging
    # ------------------------------------------------------------------ #

    def _handle(self):
        if self._closed:
            raise ValueError(f"WAL for {self.node_id!r} is closed")
        if self._fh is None:
            self._fh = open(self.log_path, "a", encoding="utf-8")
        return self._fh

    def append(self, key: str, value: str, timestamp: int, tombstone: bool) -> None:
        """Record one accepted write. Called *by* the replica on every write
        it accepts; returns after the record reaches the OS (or the disk,
        with ``fsync=True``) — inside a :meth:`batch`, the batch's exit does."""
        if type(key) is type(value) is str and type(timestamp) is int and type(tombstone) is bool:
            # What json.dumps writes for these types, without building an encoder.
            flag = "true" if tombstone else "false"
            line = f"[{_quote(key)}, {_quote(value)}, {timestamp}, {flag}]\n"
        else:
            line = json.dumps([key, value, timestamp, tombstone]) + "\n"
        (self._fh or self._handle()).write(line)
        self._uncommitted = True
        if not self._batching:
            self._commit()
        self.stats.appends += 1
        self._appends_since_snapshot += 1

    def _commit(self) -> None:
        # A snapshot since the last append closed the handle, which flushed it.
        if self._uncommitted and self._fh is not None:
            self._fh.flush()
            self.stats.flushes += 1
            if self.fsync:
                os.fsync(self._fh.fileno())
                self.stats.fsyncs += 1
        self._uncommitted = False

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Group commit: appends inside the scope share one flush (and one
        fsync) at exit — also when the scope raises, so whatever was applied
        is logged. The caller acknowledges nothing before the scope closes:
        a crash inside it loses only records nobody was told are durable."""
        self._batching = True
        try:
            yield
        finally:
            self._batching = False
            self._commit()

    def due_for_snapshot(self, size: int) -> bool:
        """True once the appends since the last snapshot reach
        ``max(snapshot_every, size)``, where ``size`` is the number of
        entries the snapshot would write. A snapshot rewrites the whole
        shard, so it waits until the log has grown by as many records: the
        rewrite is then paid for by the appends it absorbs, and the log a
        restart replays is never longer than ``max(snapshot_every, size)``."""
        return (
            self.snapshot_every > 0
            and self._appends_since_snapshot >= max(self.snapshot_every, size)
        )

    def write_snapshot(self, data: dict[str, Entry]) -> None:
        """Write the full shard atomically, then truncate the log.

        Crash ordering is safe at every point: the snapshot lands via
        ``os.replace`` (old snapshot visible until the new one is complete)
        and the log is only truncated *after* the replace — a crash between
        the two replays log records onto the new snapshot, which LWW makes
        a no-op. With ``fsync=True`` the directory is fsync'd between the
        two: until then the rename may not be on disk, and a power loss
        could keep the truncate but lose the rename.
        """
        tmp = self.snap_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            # One C-encoder call (json.dump streams in Python); an entry
            # tuple encodes as its JSON array.
            fh.write(json.dumps(data))
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, self.snap_path)
        if self.fsync:
            dir_fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        open(self.log_path, "w", encoding="utf-8").close()  # truncate
        self.stats.snapshots += 1
        self._appends_since_snapshot = 0

    def maybe_snapshot(self, data: dict[str, Entry]) -> bool:
        """Snapshot ``data`` if :meth:`due_for_snapshot` says it's time.
        Returns True if a snapshot was written."""
        if self.due_for_snapshot(len(data)):
            self.write_snapshot(data)
            return True
        return False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Flush and close the log handle. Idempotent; the files remain —
        a closed WAL can be reopened by a fresh instance (the restart
        path)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
