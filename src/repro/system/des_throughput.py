"""Discrete-event cross-validation of the throughput model.

The harness in :mod:`repro.system.throughput` charges per-operation times
analytically and treats unique-chunk uploads as fixed-latency synchronous
PUTs. That is accurate while the WAN uplink is uncontended — but when many
nodes upload simultaneously, real transfers slow each other down.

This module re-runs the EF-dedup strategy as a true discrete-event
simulation: each node is a sequential process on the shared
:class:`~repro.sim.events.EventEngine`, and uploads move actual bytes
through a processor-shared :class:`~repro.sim.bandwidth.SharedLink`. Where
the analytic model and the DES agree, the figures' conclusions don't hinge
on the simplification; where they diverge (saturated uplink), the DES is
the reference. The ablation benchmark quantifies both regimes.

Determinism: identical inputs produce identical event schedules, so results
are exactly reproducible.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.chunking.base import Chunk
from repro.network.topology import Topology
from repro.sim.bandwidth import SharedLink
from repro.sim.events import EventEngine
from repro.system.cloud import CentralCloudStore
from repro.system.config import EFDedupConfig
from repro.system.throughput import (
    UPLOAD_RTTS,
    NodeClaims,
    ThroughputReport,
    Workloads,
    deploy_rings,
    finish_report,
    ring_member_claims,
)


class _NodeProcess:
    """One edge node as a sequential simulation process.

    Per chunk: hashing CPU and lookup service time, then the shared claim
    step (:class:`~repro.system.throughput.NodeClaims` — the same one the
    analytic run adds up). When the open batch closes the node waits its
    scatter-gather round trip (the slowest contacted peer), then uploads
    the batch's unique chunks synchronously, one at a time — each handshake
    costs RTTs and the bytes move through the shared WAN link at whatever
    rate contention leaves.
    """

    def __init__(
        self,
        claims: NodeClaims,
        cloud: CentralCloudStore,
        topology: Topology,
        config: EFDedupConfig,
        engine: EventEngine,
        wan: SharedLink,
    ) -> None:
        self.claims = claims
        self.cloud = cloud
        self.topology = topology
        self.config = config
        self.engine = engine
        self.wan = wan
        # The open batch's unique chunks, awaiting upload at its close.
        self._batch_uploads: list[tuple[Chunk, str]] = []

    def start(self) -> None:
        self.engine.schedule_in(0.0, self._next_chunk)

    # -- pipeline stages ------------------------------------------------ #

    def _next_chunk(self) -> None:
        chunk = next(self.claims.chunks, None)
        if chunk is None:
            if self.claims.open_keys:
                self._close_batch(final=True)  # flush the final partial batch
            else:
                self.claims.timing.completion_s = self.engine.clock.now
            return
        delay = self.config.hash_time_s(chunk.length) + self.config.lookup_service_s
        self.engine.schedule_in(delay, lambda: self._after_lookup(chunk))

    def _after_lookup(self, chunk: Chunk) -> None:
        fp, is_new = self.claims.claim(chunk)
        if is_new:
            self._batch_uploads.append((chunk, fp))
        if self.claims.batch_full:
            self._close_batch(final=False)
        else:
            self._next_chunk()

    def _close_batch(self, final: bool) -> None:
        """End the open batch: wait out its round trip if any key went
        remote, then drain its uploads."""
        wait = self.claims.close()
        uploads = self._batch_uploads
        self._batch_uploads = []
        if wait > 0.0:
            self.engine.schedule_in(wait, lambda: self._upload_next(uploads, final))
        else:
            self._upload_next(uploads, final)

    def _upload_next(self, uploads: list[tuple[Chunk, str]], final: bool) -> None:
        """Synchronously upload the batch's unique chunks, then move on."""
        if not uploads:
            if final:
                self.claims.timing.completion_s = self.engine.clock.now
            else:
                self._next_chunk()
            return
        chunk, fp = uploads.pop(0)
        self.cloud.receive_chunk(chunk, fp)
        handshake = UPLOAD_RTTS * self.topology.wan_rtt_s() / self.config.lookup_batch
        transfer_id = self.wan.start_transfer(self.engine.clock.now, float(chunk.length))
        self.engine.schedule_in(handshake, lambda: self._poll_upload(transfer_id, uploads, final))

    def _poll_upload(self, transfer_id: int, uploads: list[tuple[Chunk, str]], final: bool) -> None:
        now = self.engine.clock.now
        if self.wan.is_done(now, transfer_id):
            self._upload_next(uploads, final)
            return
        # Re-check when the link expects its next completion (a new transfer
        # starting earlier just triggers another poll — still exact).
        eta = self.wan.estimate_finish_time(now)
        wait = max(1e-9, (eta - now) if eta is not None else 1e-9)
        self.engine.schedule_in(wait, lambda: self._poll_upload(transfer_id, uploads, final))


def run_edge_rings_des(
    topology: Topology,
    partition: Sequence[Sequence[str]],
    workloads: Workloads,
    config: Optional[EFDedupConfig] = None,
) -> ThroughputReport:
    """Event-driven counterpart of
    :func:`repro.system.throughput.run_edge_rings` (EF-dedup strategy only):
    the same validation, rings, chunk streams and claim step, on an event
    clock. ``extras["events_executed"]`` counts the events the run took.
    """
    config = config if config is not None else EFDedupConfig()
    engine = EventEngine()
    wan = SharedLink(name="wan-uplink", capacity_bytes_per_s=topology.wan_bandwidth_bytes_per_s)
    cloud, _, ring_of = deploy_rings(topology, partition, workloads, config)
    report = ThroughputReport("ef-dedup-des")
    for nid, files in workloads.items():
        claims = ring_member_claims(report, topology, ring_of[nid], nid, files)
        _NodeProcess(claims, cloud, topology, config, engine, wan).start()
    engine.run()
    report.extras["events_executed"] = float(engine.executed)
    return finish_report(report, topology)
