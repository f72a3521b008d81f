"""Erasure-coded chunk storage for the central cloud.

Applies the RS(k, m) code to every stored chunk, striping the shards across
``k + m`` failure zones (disks, racks, or availability zones). Compared to
keeping r full replicas:

- replication r=2 tolerates 1 loss at 2.0× storage;
- RS(4, 2)       tolerates 2 losses at 1.5× storage —

the "save more storage space" + "more reliable" combination the paper's
future work points at.

Zone failures are crashes, not wipes: a downed zone keeps its shard data
and serves it again after :meth:`ErasureCodedChunkStore.recover_zone`.
Writes during an outage skip the down zones, leaving the stripe
*under-replicated* (fewer than k+m shards stored); recovery backfills the
missing shards so redundancy is restored without operator action. Deletes
during an outage are queued as pending drops and applied on recovery, so
``stored_shard_bytes`` always equals the bytes actually held in zones.

The batch is the unit of the arithmetic: ``put_chunks`` encodes a batch in
one pass, and ``get_chunks`` hands each stripe's k lowest-indexed reachable
shards, as bytes read from the zone maps, to the code's decode core
(:meth:`~repro.erasure.reedsolomon.ReedSolomonCode.decode_chosen`), one
pass per survivor set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.erasure.reedsolomon import ReedSolomonCode, Shard


class ZoneFailedError(Exception):
    """An operation needed a failure zone that is currently down."""


def _only(outcomes: list):
    """The one outcome of a batch of one, raised when it is an error."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass
class _StripeMeta:
    payload_length: int
    shard_zone: dict[int, int]  # shard index -> zone id


class ErasureCodedChunkStore:
    """Chunk store striping every chunk over failure zones with RS(k, m).

    Args:
        data_shards: k of the code.
        parity_shards: m of the code.
        n_zones: failure zones available; must be >= k + m so a stripe
            never places two shards in one zone.
    """

    def __init__(self, data_shards: int = 4, parity_shards: int = 2, n_zones: int | None = None) -> None:
        self.code = ReedSolomonCode(data_shards, parity_shards)
        zones = n_zones if n_zones is not None else self.code.total_shards
        if zones < self.code.total_shards:
            raise ValueError(
                f"need at least k+m={self.code.total_shards} zones, got {zones!r}"
            )
        self.n_zones = zones
        self._zones: list[dict[tuple[str, int], bytes]] = [dict() for _ in range(zones)]
        self._zone_up = [True] * zones
        self._meta: dict[str, _StripeMeta] = {}
        self.stored_shard_bytes = 0
        self.payload_bytes = 0
        self._next_zone = 0
        # Stripes with fewer than k+m shards stored (degraded writes, or a
        # repair that could not find enough live zones). recover_zone()
        # sweeps this set and rebuilds.
        self._under_replicated: set[str] = set()
        # Shard entries that could not be dropped because their zone was
        # down at the time (deletes, and stale copies left by repair):
        # zone -> [(fingerprint, shard index), ...], applied on recovery.
        self._pending_drops: dict[int, list[tuple[str, int]]] = {}

    # ------------------------------------------------------------------ #
    # zone management
    # ------------------------------------------------------------------ #

    def fail_zone(self, zone: int) -> None:
        """Take a zone offline; its shards become unreadable."""
        self._check_zone(zone)
        self._zone_up[zone] = False

    def recover_zone(self, zone: int) -> int:
        """Bring a zone back (its shard data is intact — crash, not wipe).

        Recovery also restores the store's redundancy invariant: pending
        drops (deletes that arrived while the zone was dark, stale copies
        left behind by :meth:`repair_chunk`) are applied, and every stripe
        that went under-replicated during the outage has its missing
        shards rebuilt onto live zones. Returns the number of shards
        rebuilt by the backfill pass.
        """
        self._check_zone(zone)
        self._zone_up[zone] = True
        for fingerprint, idx in self._pending_drops.pop(zone, []):
            shard_data = self._zones[zone].pop((fingerprint, idx), None)
            if shard_data is not None:
                self.stored_shard_bytes -= len(shard_data)
        rebuilt = 0
        for fingerprint in sorted(self._under_replicated):
            try:
                rebuilt += self.repair_chunk(fingerprint)
            except ZoneFailedError:
                continue  # still too few live zones; a later recovery retries
        return rebuilt

    def _check_zone(self, zone: int) -> None:
        if not 0 <= zone < self.n_zones:
            raise ValueError(f"zone {zone!r} out of range [0, {self.n_zones})")

    @property
    def zones_down(self) -> list[int]:
        return [z for z in range(self.n_zones) if not self._zone_up[z]]

    # ------------------------------------------------------------------ #
    # chunk I/O
    # ------------------------------------------------------------------ #

    def put_chunk(self, fingerprint: str, data: bytes) -> bool:
        """Store ``data`` under ``fingerprint`` (dedup: returns False and
        stores nothing when the fingerprint is already present)."""
        return _only(self.put_chunks([(fingerprint, data)]))

    def put_chunks(self, entries: list[tuple[str, bytes]]) -> list[bool | ZoneFailedError]:
        """Store ``(fingerprint, data)`` pairs with one encode pass. Per
        entry, in order: True (stored), False (already present, or earlier
        in the batch), or the ``ZoneFailedError`` of a stripe with fewer
        than k zones up. The zone rotation advances as per-entry puts would."""
        k, total, n_zones, up = self.code.k, self.code.total_shards, self.n_zones, self._zone_up
        outcomes: list[bool | ZoneFailedError] = []
        accepted: dict[str, tuple[bytes, dict[int, int]]] = {}
        for fingerprint, data in entries:
            if fingerprint in self._meta or fingerprint in accepted:
                outcomes.append(False)
                continue
            # Rotate the zone assignment per stripe so load spreads evenly.
            offset = self._next_zone
            self._next_zone = (offset + 1) % n_zones
            # Writes during a zone outage skip the zone; the stripe is
            # still decodable as long as losses stay within m.
            zones = ((offset + index) % n_zones for index in range(total))
            placement = {index: zone for index, zone in enumerate(zones) if up[zone]}
            if len(placement) < k:  # not enough live zones to make it durable
                outcomes.append(
                    ZoneFailedError(f"only {len(placement)} zones up; need {k} to store a chunk")
                )
                continue
            outcomes.append(True)
            accepted[fingerprint] = (data, placement)
        encoded = self.code.encode_many([data for data, _ in accepted.values()])
        for (fingerprint, (data, placement)), shards in zip(accepted.items(), encoded):
            for index, zone in placement.items():
                self._zones[zone][(fingerprint, index)] = shards[index].data
            self.stored_shard_bytes += len(shards[0].data) * len(placement)
            self.payload_bytes += len(data)
            self._meta[fingerprint] = _StripeMeta(payload_length=len(data), shard_zone=placement)
            if len(placement) < total:
                self._under_replicated.add(fingerprint)
        return outcomes

    def has_chunk(self, fingerprint: str) -> bool:
        return fingerprint in self._meta

    def chunk_length(self, fingerprint: str) -> int:
        """Payload length of a stored chunk (KeyError if unknown)."""
        return self._meta[fingerprint].payload_length

    def fingerprints(self) -> frozenset[str]:
        """The set of stored chunk fingerprints."""
        return frozenset(self._meta)

    def get_chunk(self, fingerprint: str) -> bytes:
        """Read a chunk back, decoding around any failed zones.

        Raises:
            KeyError: unknown fingerprint.
            ZoneFailedError: fewer than k shards reachable.
        """
        return _only(self.get_chunks([fingerprint]))

    def get_chunks(self, fingerprints: list[str]) -> list[bytes | KeyError | ZoneFailedError]:
        """Per fingerprint, in order: its bytes, or the error ``get_chunk``
        would raise. Each stripe's k lowest-indexed reachable shards go
        straight from the zone maps to the code's decode core, one pass
        per survivor set."""
        k, zones = self.code.k, self._zones
        outcomes: list = []
        stripes: list[tuple[tuple[int, ...], list[bytes], int]] = []
        for fingerprint in fingerprints:
            try:
                meta, live = self._live_shards(fingerprint)
            except (KeyError, ZoneFailedError) as exc:
                outcomes.append(exc)
                continue
            live.sort()  # a backfill appends its indexes out of order
            survivors = tuple(live[:k])
            placement = meta.shard_zone
            blocks = [zones[placement[index]][(fingerprint, index)] for index in survivors]
            outcomes.append(None)
            stripes.append((survivors, blocks, meta.payload_length))
        decoded = iter(self.code.decode_chosen(stripes))
        return [next(decoded) if outcome is None else outcome for outcome in outcomes]

    def _live_shards(self, fingerprint: str) -> tuple[_StripeMeta, list[int]]:
        """A stripe's metadata and the indexes of its shards in live zones
        (at least k, or the same errors as :meth:`get_chunk`)."""
        meta = self._meta.get(fingerprint)
        if meta is None:
            raise KeyError(f"no chunk {fingerprint!r}")
        up = self._zone_up
        live = [index for index, zone in meta.shard_zone.items() if up[zone]]
        if len(live) < self.code.k:
            raise ZoneFailedError(
                f"chunk {fingerprint!r}: {len(live)} shards reachable, "
                f"need {self.code.k}"
            )
        return meta, live

    def _reachable_shards(self, fingerprint: str) -> tuple[_StripeMeta, list[Shard]]:
        """A stripe's metadata and its shards in live zones (at least k,
        or the same errors as :meth:`get_chunk`)."""
        meta, live = self._live_shards(fingerprint)
        zones = self._zones
        return meta, [Shard(idx, zones[meta.shard_zone[idx]][(fingerprint, idx)]) for idx in live]

    def delete_chunk(self, fingerprint: str) -> bool:
        """Drop a chunk's stripe from every zone. Returns True if it was
        stored.

        Shards in live zones are removed immediately; shards stuck in down
        zones are queued as pending drops and reclaimed the moment the
        zone recovers — so ``stored_shard_bytes`` stays exact (it counts
        bytes still physically held, including those awaiting a drop) and
        ``payload_bytes`` reflects the logical deletion immediately.
        """
        meta = self._meta.pop(fingerprint, None)
        if meta is None:
            return False
        for idx, zone in meta.shard_zone.items():
            if self._zone_up[zone]:
                shard_data = self._zones[zone].pop((fingerprint, idx), None)
                if shard_data is not None:
                    self.stored_shard_bytes -= len(shard_data)
            else:
                self._pending_drops.setdefault(zone, []).append((fingerprint, idx))
        self.payload_bytes -= meta.payload_length
        self._under_replicated.discard(fingerprint)
        return True

    def repair_chunk(self, fingerprint: str) -> int:
        """Re-create missing shards of one stripe onto live zones.

        Covers both loss modes: shards never written (a degraded write)
        and shards marooned in a down zone (re-homed to a live zone; the
        stale copy is queued for drop when its zone recovers). Each missing
        shard is rebuilt on its own from the reachable ones — the payload
        is never decoded and the surviving shards are never re-encoded.
        Returns the number of shards rebuilt.
        """
        meta, available = self._reachable_shards(fingerprint)
        live_zones = [z for z in range(self.n_zones) if self._zone_up[z]]
        used = {zone for idx, zone in meta.shard_zone.items() if self._zone_up[zone]}
        rebuilt = 0
        for index in range(self.code.total_shards):
            zone = meta.shard_zone.get(index)
            if zone is not None and self._zone_up[zone]:
                continue  # shard alive where it should be
            target = next((z for z in live_zones if z not in used), None)
            if target is None:
                break
            if zone is not None:
                # Re-homing away from a down zone: its copy is stale now.
                self._pending_drops.setdefault(zone, []).append(
                    (fingerprint, index)
                )
            shard = self.code.reconstruct_shard(available, index, meta.payload_length)
            self._zones[target][(fingerprint, index)] = shard.data
            self.stored_shard_bytes += len(shard.data)
            meta.shard_zone[index] = target
            used.add(target)
            rebuilt += 1
        if len(meta.shard_zone) == self.code.total_shards:
            self._under_replicated.discard(fingerprint)
        return rebuilt

    def inconsistent_stripes(self) -> list[str]:
        """Stripes whose held shards (down zones included) differ from a
        fresh ``encode`` of their decoded payload, or share a zone — one
        stripe at a time, so a batch pass cannot agree with itself here."""
        bad = []
        for fingerprint, meta in sorted(self._meta.items()):
            held = [
                Shard(index, self._zones[zone].get((fingerprint, index), b""))
                for index, zone in meta.shard_zone.items()
            ]
            try:
                fresh = self.code.encode(self.code.decode(held, meta.payload_length))
                consistent = all(fresh[shard.index] == shard for shard in held)
            except ValueError:  # a shard missing or cut short
                consistent = False
            if not consistent or len(set(meta.shard_zone.values())) < len(held):
                bad.append(fingerprint)
        return bad

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    @property
    def stored_chunks(self) -> int:
        return len(self._meta)

    @property
    def under_replicated_stripes(self) -> int:
        """Stripes currently holding fewer than k+m shards (degraded
        writes not yet backfilled)."""
        return len(self._under_replicated)

    @property
    def storage_overhead(self) -> float:
        """Actual stored bytes per payload byte."""
        if self.payload_bytes == 0:
            return 0.0
        return self.stored_shard_bytes / self.payload_bytes

    def metrics(self) -> dict[str, float]:
        """Flat counters for the observability layer."""
        return {
            "stored_chunks": float(self.stored_chunks),
            "payload_bytes": float(self.payload_bytes),
            "stored_shard_bytes": float(self.stored_shard_bytes),
            "storage_overhead": float(self.storage_overhead),
            "under_replicated_stripes": float(self.under_replicated_stripes),
            "zones_down": float(len(self.zones_down)),
            "gf_walk_bytes": float(self.code.walk_bytes),
        }
