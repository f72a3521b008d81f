"""Hot-index partial migration: the popular slice of the cloud index, at the edge.

In the secure tier every cross-ring dedup claim consults a *cloud* key
index (fingerprint → convergent key) before uploading — a WAN round trip
per ring-unique chunk. PM-Dedup's observation is that claim popularity is
zipf-skewed (the same assumption the loadgen's
:class:`~repro.loadgen.workload.ZipfWorkload` encodes), so migrating just
the hot slice of that index to the edge answers most claims locally.

The migration reuses the cutover discipline of
:class:`~repro.system.migration.LiveMigrator`, with the same four states::

    PLANNED ── popularity tracker picks the hot slice
    STREAMING ── hot entries present in the cloud index copy to the edge
    DUAL_LOOKUP ── claims consult the edge copy first and fall through to
                the cloud on a miss; ingest continues throughout. The
                cloud's logical write clock is read at cutover
    COMMITTED ── :meth:`HotIndexManager.close_window` delta-restreams
                planned entries whose cloud insert landed during the
                window (timestamp-bounded, like the migrator's delta
                pass), then the edge copy serves hot claims permanently

Correctness is by construction: the edge copy only ever holds entries the
cloud index also holds, so a claim answered at the edge returns exactly
what the cloud would have returned — the dedup ratio with and without
migration is bit-for-bit identical, only the latency moves. The chaos
scenario (``repro chaos hot-index``) gates on exactly that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.obs.hub import series

#: Cutover states of one hot-slice migration, in order (mirrors
#: :data:`repro.system.migration.MIGRATION_STATES`).
HOT_MIGRATION_STATES = ("PLANNED", "STREAMING", "DUAL_LOOKUP", "COMMITTED")


class PopularityTracker:
    """Per-fingerprint claim counters; the hot slice is the top-N.

    Popularity is a *workload* property, not a storage property: counts
    survive GC sweeps (a reclaimed chunk that stays popular will be
    re-uploaded and should re-enter the hot slice), which is also what
    creates the delta-restream case — a planned-hot fingerprint whose
    cloud entry only (re)appears during the dual-lookup window.
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def observe(self, fingerprint: str) -> None:
        self._counts[fingerprint] = self._counts.get(fingerprint, 0) + 1

    def hottest(self, n: int) -> list[str]:
        """Top-``n`` fingerprints by claim count (fingerprint breaks ties,
        so the slice is deterministic for identical histories)."""
        if n <= 0:
            return []
        ranked = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [fp for fp, _count in ranked[:n]]

    def count(self, fingerprint: str) -> int:
        return self._counts.get(fingerprint, 0)

    def __len__(self) -> int:
        return len(self._counts)


class SecureCloudIndex:
    """The cloud-side key index: fingerprint → (convergent key, insert tick).

    Lookups model the WAN hop — when ``rtt_s`` > 0 each one sleeps that
    long, so edge-vs-cloud benchmarks measure honest wall-clock. Inserts
    are stamped with a logical write clock (monotonic tick per mutation),
    which is what lets the hot-slice migration bound its delta pass the
    same way :class:`~repro.system.migration.LiveMigrator` bounds its
    re-stream: an entry's tick tells *when* it landed relative to the
    cutover, with no wall-clock agreement needed.
    """

    def __init__(self, rtt_s: float = 0.0) -> None:
        if rtt_s < 0:
            raise ValueError(f"rtt_s must be >= 0, got {rtt_s!r}")
        self.rtt_s = float(rtt_s)
        self._entries: dict[str, tuple[str, int]] = {}
        self._clock = 0
        self.lookups = 0
        self.inserts = 0

    def clock_now(self) -> int:
        """Current logical write tick (inserts stamp ticks > this)."""
        return self._clock

    def insert(self, fingerprint: str, key_hex: str) -> bool:
        """Register a key; the first insert wins and stamps the tick."""
        if fingerprint in self._entries:
            return False
        self._clock += 1
        self._entries[fingerprint] = (key_hex, self._clock)
        self.inserts += 1
        return True

    def lookup(self, fingerprint: str) -> Optional[str]:
        """The WAN lookup: key if present, else None; pays ``rtt_s``."""
        self.lookups += 1
        if self.rtt_s:
            time.sleep(self.rtt_s)
        entry = self._entries.get(fingerprint)
        return entry[0] if entry is not None else None

    def peek(self, fingerprint: str) -> Optional[tuple[str, int]]:
        """Bulk-stream read: (key, tick) without the per-lookup RTT —
        migration streams batch entries, they don't pay a round trip each."""
        return self._entries.get(fingerprint)

    def drop(self, fingerprint: str) -> bool:
        return self._entries.pop(fingerprint, None) is not None

    def fingerprints(self) -> Iterator[str]:
        return iter(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class EdgeHotIndex:
    """The edge-resident copy of the hot slice (plain dict, no RTT)."""

    def __init__(self) -> None:
        self._entries: dict[str, str] = {}

    def lookup(self, fingerprint: str) -> Optional[str]:
        return self._entries.get(fingerprint)

    def install(self, fingerprint: str, key_hex: str) -> None:
        self._entries[fingerprint] = key_hex

    def discard_many(self, fingerprints: Iterable[str]) -> int:
        dropped = 0
        for fingerprint in fingerprints:
            if self._entries.pop(fingerprint, None) is not None:
                dropped += 1
        return dropped

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class HotMigrationReport:
    """What one hot-slice migration did; the numeric fields are the
    ``hotindex.*`` series of the same name."""

    state: str = "PLANNED"
    planned: int = 0
    entries_streamed: int = 0
    entries_restreamed: int = 0
    cutover_ts: int = 0
    close_ts: int = 0
    planned_fingerprints: tuple[str, ...] = field(default=(), repr=False)


class HotIndexManager:
    """Tracks claim popularity and migrates the hot slice cloud → edge.

    One manager serves a whole deployment (rings share it the way they
    share the central cloud). Lookups go edge-first once a window is open
    or committed; a miss always falls through to the cloud, so verdicts
    never depend on migration state — only latency does.
    """

    def __init__(self, cloud: SecureCloudIndex, hot_size: int = 0) -> None:
        if hot_size < 0:
            raise ValueError(f"hot_size must be >= 0, got {hot_size!r}")
        self.cloud = cloud
        self.hot_size = int(hot_size)
        self.edge = EdgeHotIndex()
        self.tracker = PopularityTracker()
        self.state = "PLANNED"
        self.report = HotMigrationReport()
        self.edge_hits = 0
        self.cloud_hits = 0
        self.misses = 0

    # -- claim path ------------------------------------------------------ #

    def observe(self, fingerprint: str) -> None:
        """Feed the popularity tracker (called once per dedup claim)."""
        self.tracker.observe(fingerprint)

    def lookup(self, fingerprint: str) -> Optional[str]:
        """Resolve a claim to its convergent key, or None (true unique).

        Edge-first once migrated; the cloud lookup (and its simulated WAN
        RTT) only happens on an edge miss — that differential is the
        latency win ``benchmarks/bench_secure.py`` measures.
        """
        if self.state in ("DUAL_LOOKUP", "COMMITTED"):
            key = self.edge.lookup(fingerprint)
            if key is not None:
                self.edge_hits += 1
                return key
        key = self.cloud.lookup(fingerprint)
        if key is not None:
            self.cloud_hits += 1
        else:
            self.misses += 1
        return key

    def insert(self, fingerprint: str, key_hex: str) -> bool:
        """Register a freshly uploaded chunk's key in the cloud index."""
        return self.cloud.insert(fingerprint, key_hex)

    # -- the cutover ----------------------------------------------------- #

    def begin_migration(self) -> HotMigrationReport:
        """Stream the hot slice to the edge and open the lookup window.

        Runs PLANNED/COMMITTED → STREAMING → DUAL_LOOKUP (a committed
        manager may re-migrate as popularity drifts; the fresh slice
        replaces the old edge copy). Entries the cloud does not hold yet
        stay *planned*: if their upload lands during the window,
        :meth:`close_window`'s delta pass installs them.
        """
        if self.state not in ("PLANNED", "COMMITTED"):
            raise RuntimeError(
                f"hot-index migration already streaming (state {self.state!r})"
            )
        self.state = "STREAMING"
        report = HotMigrationReport(state="STREAMING")
        planned = self.tracker.hottest(self.hot_size)
        report.planned = len(planned)
        report.planned_fingerprints = tuple(planned)
        self.edge = EdgeHotIndex()  # a re-migration replaces the slice
        for fingerprint in planned:
            entry = self.cloud.peek(fingerprint)
            if entry is not None:
                self.edge.install(fingerprint, entry[0])
                report.entries_streamed += 1
        report.cutover_ts = self.cloud.clock_now()
        self.state = report.state = "DUAL_LOOKUP"
        self.report = report
        return report

    def close_window(self) -> HotMigrationReport:
        """Commit: delta-restream planned entries that landed in-window.

        The bound is the cloud clock read at close — a planned
        fingerprint whose insert tick is newer than the streaming
        snapshot but at or before the bound is copied now (the analogue
        of :meth:`LiveMigrator.close_window`'s bounded re-stream); inserts
        after the bound belong to the committed regime and are served
        from the cloud until the next migration.
        """
        if self.state != "DUAL_LOOKUP":
            raise RuntimeError(f"no hot-index window open (state {self.state!r})")
        report = self.report
        report.close_ts = ts_bound = self.cloud.clock_now()
        for fingerprint in report.planned_fingerprints:
            if fingerprint in self.edge:
                continue
            entry = self.cloud.peek(fingerprint)
            if entry is not None and entry[1] <= ts_bound:
                self.edge.install(fingerprint, entry[0])
                report.entries_restreamed += 1
        self.state = report.state = "COMMITTED"
        return report

    # -- GC integration --------------------------------------------------- #

    def invalidate(self, fingerprints: Iterable[str]) -> int:
        """Forget reclaimed fingerprints in both index copies.

        Called from the GC sweep path: a swept chunk's key must stop
        answering claims (the payload is gone — a granted hit would lose
        data at restore). Popularity counts survive on purpose; see
        :class:`PopularityTracker`.
        """
        fps = list(fingerprints)
        dropped = self.edge.discard_many(fps)
        for fingerprint in fps:
            if self.cloud.drop(fingerprint):
                dropped += 1
        return dropped

    # -- observability ----------------------------------------------------#

    def metrics(self) -> dict[str, int]:
        """The last migration report's counters plus the manager's own
        state, sizes and lookup tallies (bare names; the tier mounts them
        as ``hotindex.*``)."""
        return {
            **series(self.report),
            "state": HOT_MIGRATION_STATES.index(self.state),
            "hot_size": self.hot_size,
            "edge_entries": len(self.edge),
            "cloud_entries": len(self.cloud),
            "tracked": len(self.tracker),
            "edge_hits": self.edge_hits,
            "cloud_hits": self.cloud_hits,
            "misses": self.misses,
            "cloud_lookups": self.cloud.lookups,
        }
