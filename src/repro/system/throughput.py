"""Throughput experiments: the measurement harness behind Figs. 5 and 6.

Runs real data through the real components — chunkers, fingerprints, the
ring's distributed KV index or the cloud index — while *charging* simulated
time for each operation from the topology's latencies and bandwidths. The
byte- and chunk-level accounting is therefore exact (it is the actual dedup
outcome on the actual data); only the clock is modeled.

Timing model (per edge node), mirroring the prototype's data path:

- chunk + fingerprint CPU: bytes / ``hash_mb_per_s``;
- index lookups are issued in batches of ``lookup_batch`` fingerprints and
  charged *per round trip*, not per key: every key pays the lookup service
  time, and a batch containing remote keys pays one scatter-gather round —
  the coordinator messages each contacted peer once and waits for the
  slowest (the latency charge is the max RTT over the batch's distinct
  remote primaries; the network cost sums one RTT per contacted peer).
  Cloud-assisted pays one WAN RTT per batch instead. With
  ``lookup_batch=1`` this degenerates to the classic one-RTT-per-remote-key
  model;
- unique-chunk upload: a synchronous small-object PUT over the WAN —
  :data:`UPLOAD_RTTS` round trips, amortized by the same pipelining depth
  ``lookup_batch``. This is what makes higher dedup ratios buy throughput
  (fewer uploads), the effect behind Fig. 6(b)'s ring-size sweet spot;
- Cloud-only forwards raw bytes: each node streams at its TCP-window-limited
  per-stream rate (``tcp_window_bytes`` / WAN RTT, capped by the link rate),
  and all streams share the uplink capacity — the paper's bottleneck.

A node's completion is its pipeline time (uploads are synchronous, so they
are already inside it); for Cloud-only it is the larger of its own stream
time and the shared-uplink drain. Aggregate throughput = total raw bytes /
makespan, the paper's "data processed per second" metric.

What happens to a chunk does not depend on the clock, so it is written
once: :func:`deploy_rings` (validation + one D2-ring per cell) and
:class:`NodeClaims` (a node's chunk stream from the agents' own chunker and
its claim step with the open lookup batch). The analytic strategies here
*add up* the durations the step models;
:mod:`repro.system.des_throughput` *schedules* the same durations on an
event clock, and both fill the same :class:`NodeTiming` /
:class:`ThroughputReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from repro.chunking.base import Chunk
from repro.chunking.hashing import default_fingerprint
from repro.dedup.stats import DedupStats
from repro.network.topology import Topology
from repro.obs.histogram import Histogram
from repro.system.cloud import CentralCloudStore, CloudDedupService
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring

Workloads = dict[str, list[bytes]]

# WAN round trips per synchronous unique-chunk upload (request +
# acknowledged data transfer).
UPLOAD_RTTS = 2.0


@dataclass
class NodeTiming:
    """Per-node outcome of a throughput run.

    ``completion_s`` is on whichever clock ran: the sum of the modeled
    components for the analytic strategies, the event clock for the
    discrete-event run (which leaves ``upload_s`` at zero — under link
    contention an upload's share of the wait is not separable).
    """

    node_id: str
    raw_bytes: int = 0
    chunks: int = 0
    cpu_s: float = 0.0
    lookup_s: float = 0.0
    upload_s: float = 0.0
    local_lookups: int = 0
    remote_lookups: int = 0
    # Lookup batches that crossed the network (>= 1 remote key). Bounded by
    # ceil(chunks / lookup_batch) — the per-round-trip accounting guarantee.
    round_trips: int = 0
    uploaded_bytes: int = 0
    completion_s: float = 0.0

    @property
    def pipeline_s(self) -> float:
        return self.cpu_s + self.lookup_s + self.upload_s

    @property
    def throughput_mb_s(self) -> float:
        if self.completion_s <= 0:
            return 0.0
        return self.raw_bytes / 1e6 / self.completion_s


@dataclass
class ThroughputReport:
    """Outcome of one strategy run, on either clock. Claim steps fill it
    as they go; :func:`finish_report` derives the run-level figures."""

    strategy: str
    per_node: dict[str, NodeTiming] = field(default_factory=dict)
    dedup_stats: DedupStats = field(default_factory=DedupStats)
    wan_bytes: int = 0
    wan_drain_s: float = 0.0
    makespan_s: float = 0.0
    network_cost_s: float = 0.0  # Σ RTT over remote index lookups (empirical V)
    lookup_latency: Histogram = field(default_factory=lambda: Histogram("lookup_latency_s"))
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def aggregate_throughput_mb_s(self) -> float:
        """Total raw bytes / makespan — the Fig. 5(a) series."""
        total = sum(t.raw_bytes for t in self.per_node.values())
        if self.makespan_s <= 0:
            return 0.0
        return total / 1e6 / self.makespan_s

    @property
    def mean_node_throughput_mb_s(self) -> float:
        timings = list(self.per_node.values())
        if not timings:
            return 0.0
        return sum(t.throughput_mb_s for t in timings) / len(timings)

    @property
    def dedup_ratio(self) -> float:
        return self.dedup_stats.dedup_ratio

    def summary(self) -> dict[str, float]:
        out = {
            "aggregate_throughput_mb_s": self.aggregate_throughput_mb_s,
            "mean_node_throughput_mb_s": self.mean_node_throughput_mb_s,
            "dedup_ratio": self.dedup_ratio,
            "wan_mb": self.wan_bytes / 1e6,
            "makespan_s": self.makespan_s,
            "network_cost_s": self.network_cost_s,
        }
        if self.lookup_latency.count:
            out["lookup_p50_us"] = self.lookup_latency.percentile(50) * 1e6
            out["lookup_p99_us"] = self.lookup_latency.percentile(99) * 1e6
        return out


def _validate_workloads(topology: Topology, workloads: Workloads) -> None:
    for node_id in workloads:
        topology.node(node_id)  # raises on unknown node
    if not workloads:
        raise ValueError("workloads must cover at least one node")


def finish_report(report: ThroughputReport, topology: Topology) -> ThroughputReport:
    """Derive the run-level figures once every node's ``completion_s`` is
    set (every byte a node uploaded crossed the WAN, so ``wan_bytes`` is
    their sum)."""
    timings = report.per_node.values()
    report.wan_bytes = sum(t.uploaded_bytes for t in timings)
    report.wan_drain_s = report.wan_bytes / topology.wan_bandwidth_bytes_per_s
    report.makespan_s = max((t.completion_s for t in timings), default=0.0)
    return report


def _upload_time_s(topology: Topology, config: EFDedupConfig) -> float:
    """Pipeline time charged per unique-chunk synchronous WAN upload."""
    serialization = config.chunk_size / topology.wan_bandwidth_bytes_per_s
    return (UPLOAD_RTTS * topology.wan_rtt_s() + serialization) / config.lookup_batch


def deploy_rings(
    topology: Topology,
    partition: Sequence[Sequence[str]],
    workloads: Workloads,
    config: EFDedupConfig,
) -> tuple[CentralCloudStore, list[D2Ring], dict[str, D2Ring]]:
    """Validate ``partition`` against ``workloads`` and deploy one D2-ring
    per non-empty cell onto a fresh cloud; returns the cloud, the rings and
    the node → ring map."""
    _validate_workloads(topology, workloads)
    covered = [nid for ring in partition for nid in ring]
    if len(set(covered)) != len(covered):
        raise ValueError("partition assigns a node to more than one ring")
    missing = set(workloads) - set(covered)
    if missing:
        raise ValueError(f"nodes {sorted(missing)!r} have workloads but no ring")
    cloud = CentralCloudStore()
    rings = [
        D2Ring(ring_id=f"ring-{i}", members=list(members), cloud=cloud, config=config)
        for i, members in enumerate(partition)
        if members
    ]
    return cloud, rings, {nid: ring for ring in rings for nid in ring.members}


class NodeClaims:
    """One node's clock-free claim step and its open lookup batch.

    :meth:`claim` is what happens to a chunk whatever clock is running:
    fingerprint → locate the key's primary → check-and-set → account.
    Claims are chunk-grained even when lookups are batched — a batched
    check-and-set is not atomic across its keys (each key races at its own
    replica) — while the *latency* is per scatter-gather round:
    :meth:`close` ends the open batch, in which each distinct remote
    primary was messaged once; the node waits on the slowest peer and the
    network pays the sum. Modeled lookup time lands in ``timing.lookup_s``
    and the report's network cost; the caller's clock adds the rest up
    (analytic) or schedules the same durations (discrete-event).

    Args:
        report: the run's report; the node's :class:`NodeTiming` is
            registered in it and run-wide accounting goes to it.
        chunker, files: the node's input; chunks stream lazily, accounting
            raw bytes and hashing CPU as each file enters the pipeline.
        locate: fingerprint → ``(peer, rtt_s)`` of the remote primary the
            lookup must reach, or None when the node holds a replica.
        check_and_set: fingerprint → True when this claim is the first.
    """

    def __init__(
        self,
        report: ThroughputReport,
        node_id: str,
        chunker,
        files: list[bytes],
        locate: Callable[[str], Optional[tuple[str, float]]],
        check_and_set: Callable[[str], bool],
        config: EFDedupConfig,
    ) -> None:
        self.timing = report.per_node[node_id] = NodeTiming(node_id=node_id)
        self.chunks = self._stream(chunker, files)
        self._report = report
        self._locate = locate
        self._check_and_set = check_and_set
        self._config = config
        # Open-batch state: keys so far, and RTT per distinct remote
        # primary those keys contacted.
        self.open_keys = 0
        self._peer_rtts: dict[str, float] = {}

    def _stream(self, chunker, files) -> Iterator[Chunk]:
        for data in files:
            self.timing.raw_bytes += len(data)
            self.timing.cpu_s += self._config.hash_time_s(len(data))
            yield from chunker.chunk(data)

    @property
    def batch_full(self) -> bool:
        return self.open_keys >= self._config.lookup_batch

    def claim(self, chunk: Chunk) -> tuple[str, bool]:
        """Claim one chunk (one lookup's service time); returns its
        fingerprint and whether it is unique — the caller uploads it."""
        timing, service_s = self.timing, self._config.lookup_service_s
        fp = default_fingerprint(chunk.data)
        remote = self._locate(fp)
        timing.lookup_s += service_s
        if remote is None:
            timing.local_lookups += 1
            self._report.lookup_latency.observe(service_s)
        else:
            peer, rtt = remote
            timing.remote_lookups += 1
            self._peer_rtts[peer] = rtt
            self._report.lookup_latency.observe(service_s + rtt)
        is_new = self._check_and_set(fp)
        self._report.dedup_stats.record_chunk(chunk.length, is_new)
        timing.chunks += 1
        if is_new:
            timing.uploaded_bytes += chunk.length
        self.open_keys += 1
        return fp, is_new

    def close(self) -> float:
        """End the open batch; returns how long its scatter-gather round
        makes the node wait (0.0 when every key was local)."""
        rtts = self._peer_rtts
        wait = 0.0
        if rtts:
            wait = max(rtts.values())
            self.timing.lookup_s += wait
            self.timing.round_trips += 1
            self._report.network_cost_s += sum(rtts.values())
            rtts.clear()
        self.open_keys = 0
        return wait


def ring_member_claims(
    report: ThroughputReport,
    topology: Topology,
    ring: D2Ring,
    nid: str,
    files: list[bytes],
) -> NodeClaims:
    """Ring member ``nid``'s claim step: a key locates to its primary
    replica in the ring's store (local when ``nid`` holds one) and claims
    through the store's check-and-set; chunks come from the member agent's
    own chunker."""

    def locate(fp: str) -> Optional[tuple[str, float]]:
        replicas = ring.store.replicas_for(fp)
        if nid in replicas:
            return None
        return replicas[0], topology.rtt_s(nid, replicas[0])

    return NodeClaims(
        report, nid, ring.agent(nid).engine.chunker, files, locate,
        lambda fp: ring.store.put_if_absent_many([fp], nid, coordinator=nid)[0],
        ring.config,
    )


def _run_claims(
    report: ThroughputReport,
    topology: Topology,
    config: EFDedupConfig,
    claims: list[NodeClaims],
    upload: Callable[[Chunk, str], object],
) -> ThroughputReport:
    """The analytic clock: per-node time is the sum of what its claim step
    modeled plus a fixed latency per synchronous upload.

    Nodes deduplicate in parallel in the real system, so chunks are
    processed round-robin across nodes: without interleaving, the first
    node of a ring would absorb every upload and the later members none,
    which no live deployment exhibits.
    """
    upload_time = _upload_time_s(topology, config)
    active = claims
    while active:
        unfinished = []
        for node in active:
            chunk = next(node.chunks, None)
            if chunk is None:
                if node.open_keys:
                    node.close()  # flush the final partial batch
                continue
            fp, is_new = node.claim(chunk)
            if is_new:
                upload(chunk, fp)
                node.timing.upload_s += upload_time
            if node.batch_full:
                node.close()
            unfinished.append(node)
        active = unfinished
    for timing in report.per_node.values():
        timing.completion_s = timing.pipeline_s
    return finish_report(report, topology)


# ---------------------------------------------------------------------- #
# EF-dedup (edge D2-rings)
# ---------------------------------------------------------------------- #


def run_edge_rings(
    topology: Topology,
    partition: Sequence[Sequence[str]],
    workloads: Workloads,
    config: Optional[EFDedupConfig] = None,
) -> ThroughputReport:
    """Run the EF-dedup strategy: one D2-ring (with its own distributed
    index) per partition cell; lookups stay within the ring.

    Args:
        partition: node-id rings (e.g. from a partitioner's output mapped
            through ``topology.node_ids``).
        workloads: per-node list of file payloads.
    """
    config = config if config is not None else EFDedupConfig()
    cloud, rings, ring_of = deploy_rings(topology, partition, workloads, config)
    report = ThroughputReport("ef-dedup")
    claims = [
        ring_member_claims(report, topology, ring_of[nid], nid, files)
        for nid, files in workloads.items()
    ]
    _run_claims(report, topology, config, claims, cloud.receive_chunk)
    report.extras.update(
        n_rings=float(len(rings)),
        stored_index_entries=float(sum(r.store.total_stored_entries() for r in rings)),
    )
    return report


# ---------------------------------------------------------------------- #
# Cloud-assisted (index in the cloud, lookups over the WAN)
# ---------------------------------------------------------------------- #


def run_cloud_assisted(
    topology: Topology,
    workloads: Workloads,
    config: Optional[EFDedupConfig] = None,
) -> ThroughputReport:
    """Cloud-assisted baseline: edges chunk and hash locally but every index
    lookup crosses the WAN to the central cloud; only unique chunks upload.

    The same claim step with the cloud as every key's only peer: each
    batch of ``lookup_batch`` keys shares one WAN round trip to the cloud
    index, and concurrent nodes still race there key by key.
    """
    config = config if config is not None else EFDedupConfig()
    _validate_workloads(topology, workloads)
    service = CloudDedupService()
    chunker = config.make_chunker()
    via_wan = ("cloud", topology.wan_rtt_s())
    report = ThroughputReport("cloud-assisted")
    claims = [
        NodeClaims(
            report, nid, chunker, files, lambda fp: via_wan,
            lambda fp: not service.lookup(fp), config,
        )
        for nid, files in workloads.items()
    ]
    return _run_claims(
        report, topology, config, claims, service.ingest_unique_chunk
    )


# ---------------------------------------------------------------------- #
# Cloud-only (raw forwarding, dedup happens in the cloud)
# ---------------------------------------------------------------------- #


def run_cloud_only(
    topology: Topology,
    workloads: Workloads,
    config: Optional[EFDedupConfig] = None,
) -> ThroughputReport:
    """Cloud-only baseline: edges forward raw data; the cloud dedups on
    arrival.

    Each node's stream is limited by its TCP window over the WAN RTT
    (``config.tcp_window_bytes``) and by the link rate; the streams together
    cannot exceed the uplink capacity — the paper's bottleneck.
    """
    config = config if config is not None else EFDedupConfig()
    _validate_workloads(topology, workloads)
    service = CloudDedupService()
    chunker = config.make_chunker()
    timings = {nid: NodeTiming(node_id=nid) for nid in workloads}
    wan_bytes = 0

    stream_rate = min(
        topology.wan_bandwidth_bytes_per_s,
        config.tcp_window_bytes / max(topology.wan_rtt_s(), 1e-9),
    )
    for nid, files in workloads.items():
        timing = timings[nid]
        for data in files:
            timing.raw_bytes += len(data)
            timing.uploaded_bytes += len(data)
            wan_bytes += len(data)
            for chunk in chunker.chunk(data):
                fp = default_fingerprint(chunk.data)
                service.ingest_raw_chunk(chunk, fp)
                timing.chunks += 1

    link_drain = wan_bytes / topology.wan_bandwidth_bytes_per_s
    for timing in timings.values():
        timing.upload_s = timing.raw_bytes / stream_rate
        timing.completion_s = max(timing.upload_s, link_drain)

    # The cloud's post-arrival dedup outcome is the reported ratio.
    return finish_report(
        ThroughputReport("cloud-only", timings, service.stats), topology
    )
