"""EF-dedup system configuration.

Collects every tunable of the prototype in one place: chunking, index
replication and consistency, and the performance constants the throughput
simulator charges for CPU work and lookups. Defaults approximate the paper's
testbed VMs (4 VCPUs / 8 GB) — absolute values only set the scale; the
comparisons in the figures depend on the ratios between edge RTT, WAN RTT
and bandwidths, which come from the topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.kvstore.consistency import ConsistencyLevel

if TYPE_CHECKING:
    from repro.rpc.settings import CallPolicy, NodeSpec

_CHUNKING_ALGOS = ("fixed", "gear", "fastcdc", "ae", "ram")


@dataclass(frozen=True)
class EFDedupConfig:
    """Tunables of the EF-dedup prototype.

    Attributes:
        chunk_size: dedup block size in bytes (duperemove default is 128 KiB).
            For content-defined algorithms this is the target *average*
            chunk size (gear/fastcdc require a power of two).
        chunking_algo: how agents split streams — ``"fixed"`` (duperemove
            behavior, the default), or one of the content-defined
            algorithms ``"gear"``, ``"fastcdc"``, ``"ae"``, ``"ram"``.
            ``rabin`` is deliberately absent: it is a reference oracle the
            engine refuses for live ingest.
        replication_factor: γ — index copies per chunk hash within a ring.
        consistency: read/write level of the ring's KV store.
        vnodes: virtual nodes per member on the index ring.
        hash_mb_per_s: chunking + hashing CPU throughput of an edge node
            (MB/s). Charged per chunk in the throughput simulation.
        lookup_service_s: CPU time per index lookup at the serving node.
        lookup_batch: fingerprints per batched index round trip — the
            agent's :class:`~repro.dedup.engine.DedupEngine` accumulates
            this many chunks and issues one ``lookup_and_insert_many`` call,
            and the throughput simulations charge one RTT per batch (so
            per-chunk remote latency is RTT/batch). The default of 1 models
            duperemove's serial per-block queries, each chunk claimed as a
            batch of one; the scaled-down experiments (4 KiB chunks instead
            of 128 KiB) raise it to 80 to keep the latency-per-byte of the
            prototype.
        upload_rtts: WAN round trips per synchronous unique-chunk upload
            (request + acknowledged data transfer).
        tcp_window_bytes: per-stream TCP window for Cloud-only raw
            forwarding; the per-node stream rate is window/RTT capped by the
            link rate.
        transport: how a ring's index store runs — ``"inproc"`` (the
            analytic in-process :class:`~repro.kvstore.store.DistributedKVStore`)
            or ``"asyncio"`` (a real localhost TCP cluster,
            :class:`~repro.rpc.cluster.LiveKVCluster`, one server per
            member). Both expose the same operation surface and produce
            identical dedup decisions; remember to ``close()`` live rings.
        rpc_timeout_s, rpc_codec: live transport only — the
            :class:`~repro.rpc.settings.CallPolicy` ``timeout_s`` and
            ``codec``.
        rpc_attempts: live transport only — total tries per call (1 = no
            retries) of the policy's default
            :class:`~repro.rpc.retry.RetryPolicy` schedule.
        cache_capacity: when > 0, each agent fronts its ring index with an
            LRU presence cache of this many fingerprints
            (:class:`~repro.dedup.cache.LRUCacheIndex`) — hot duplicates
            answer locally instead of hitting the (possibly remote) store.
        data_dir: live transport only — every member's
            :class:`~repro.rpc.settings.NodeSpec` ``data_dir``.
        heartbeat_interval_s: live transport only — the
            :class:`~repro.rpc.settings.CallPolicy` knob of that name.
        ec_data_shards: content plane — k of the cloud tier's RS(k, m)
            erasure code (data shards per stripe).
        ec_parity_shards: content plane — m of the code; the tier
            tolerates m simultaneous zone failures.
        spill_mode: content plane — ``"sync"`` stripes each unique chunk
            to the cloud tier inside the ingest call; ``"async"`` spills
            on a background thread (``ContentPlane.flush()`` joins it).
        content_batch: content plane — buffered payload writes per batched
            ``put_chunks`` message to a ring member (the payload analogue
            of ``lookup_batch``). A lookup batch's unique payloads are
            shelved in one scatter of such messages.
        rpc_deadline_s: live transport only — the
            :class:`~repro.rpc.settings.CallPolicy` ``deadline_s``.
        admission_queue, service_workers: live transport only — every
            member's :class:`~repro.rpc.settings.NodeSpec` knobs of those
            names.
        breaker_failures, breaker_cooldown_s, retry_budget: live transport
            only — the :class:`~repro.rpc.settings.CallPolicy` knobs of
            those names.
        brownout: live transport only — when True, each agent's ring index
            is wrapped in a :class:`~repro.dedup.brownout.BrownoutIndex`:
            if the index ring sheds or breaks, ingest falls back to
            write-through (chunk stored without a dedup verdict, the
            fingerprint journaled) and
            :meth:`~repro.system.ring.D2Ring.reconcile_brownouts` later
            replays the journal to restore exact dedup accounting.
        secure: when True, the cluster grows a
            :class:`~repro.secure.tier.SecureTier`: chunk payloads are
            convergently encrypted before upload, cross-ring dedup hits
            are gated on proof of ownership, and uploads first *claim*
            against a deployment-wide key index (a proven hit skips the
            WAN upload). Requires a payload data plane
            (:class:`~repro.system.cluster.DurableEFDedupCluster`).
        hot_index_size: secure tier only — fingerprints in the hot slice
            of the cloud key index that
            :meth:`~repro.secure.tier.SecureTier.migrate_hot_slice`
            partially migrates to the edge; 0 keeps all claims on the
            cloud index.
        wan_rtt_s: secure tier only — simulated WAN round trip each
            *cloud* key-index lookup pays (a real sleep, so latency
            benchmarks measure the edge-hot win honestly); 0 disables.
    """

    chunk_size: int = 128 * 1024
    chunking_algo: str = "fixed"
    replication_factor: int = 2
    consistency: ConsistencyLevel = field(default=ConsistencyLevel.ONE)
    vnodes: int = 16
    hash_mb_per_s: float = 400.0
    lookup_service_s: float = 20e-6
    lookup_batch: int = 1
    upload_rtts: float = 2.0
    tcp_window_bytes: int = 128 * 1024
    transport: str = "inproc"
    rpc_timeout_s: float = 0.25
    rpc_attempts: int = 4
    rpc_codec: str | None = None
    cache_capacity: int = 0
    data_dir: str | None = None
    heartbeat_interval_s: float = 0.0
    ec_data_shards: int = 4
    ec_parity_shards: int = 2
    spill_mode: str = "sync"
    content_batch: int = 16
    rpc_deadline_s: float | None = None
    admission_queue: int = 0
    service_workers: int = 1
    breaker_failures: int = 0
    breaker_cooldown_s: float = 0.25
    retry_budget: float = 0.0
    brownout: bool = False
    secure: bool = False
    hot_index_size: int = 0
    wan_rtt_s: float = 0.0

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size!r}")
        if self.chunking_algo not in _CHUNKING_ALGOS:
            raise ValueError(
                f"chunking_algo must be one of {sorted(_CHUNKING_ALGOS)}, "
                f"got {self.chunking_algo!r}"
            )
        if self.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {self.replication_factor!r}"
            )
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes!r}")
        if self.hash_mb_per_s <= 0:
            raise ValueError(f"hash_mb_per_s must be positive, got {self.hash_mb_per_s!r}")
        if self.lookup_service_s < 0:
            raise ValueError(
                f"lookup_service_s must be non-negative, got {self.lookup_service_s!r}"
            )
        if self.lookup_batch < 1:
            raise ValueError(f"lookup_batch must be >= 1, got {self.lookup_batch!r}")
        if self.upload_rtts < 0:
            raise ValueError(f"upload_rtts must be non-negative, got {self.upload_rtts!r}")
        if self.tcp_window_bytes <= 0:
            raise ValueError(
                f"tcp_window_bytes must be positive, got {self.tcp_window_bytes!r}"
            )
        if self.transport not in ("inproc", "asyncio"):
            raise ValueError(
                f"transport must be 'inproc' or 'asyncio', got {self.transport!r}"
            )
        if self.cache_capacity < 0:
            raise ValueError(
                f"cache_capacity must be >= 0, got {self.cache_capacity!r}"
            )
        if self.ec_data_shards < 1:
            raise ValueError(
                f"ec_data_shards must be >= 1, got {self.ec_data_shards!r}"
            )
        if self.ec_parity_shards < 0:
            raise ValueError(
                f"ec_parity_shards must be >= 0, got {self.ec_parity_shards!r}"
            )
        if self.spill_mode not in ("sync", "async"):
            raise ValueError(
                f"spill_mode must be 'sync' or 'async', got {self.spill_mode!r}"
            )
        if self.content_batch < 1:
            raise ValueError(
                f"content_batch must be >= 1, got {self.content_batch!r}"
            )
        if self.hot_index_size < 0:
            raise ValueError(
                f"hot_index_size must be >= 0, got {self.hot_index_size!r}"
            )
        if self.wan_rtt_s < 0:
            raise ValueError(f"wan_rtt_s must be >= 0, got {self.wan_rtt_s!r}")
        if not self.secure:
            for knob in ("hot_index_size", "wan_rtt_s"):
                if getattr(self, knob):
                    raise ValueError(f"{knob} requires secure=True")
        if self.transport == "asyncio":
            # Each live knob is checked once, by the value that carries it;
            # building the values here fails a bad one with the config.
            self.call_policy()
            self.node_spec("-")
        else:
            if self.data_dir is not None:
                raise ValueError("data_dir requires transport='asyncio'")
            if self.heartbeat_interval_s:
                raise ValueError(
                    "heartbeat_interval_s requires transport='asyncio'"
                )
            for knob in (
                "rpc_deadline_s", "admission_queue", "breaker_failures",
                "retry_budget", "brownout",
            ):
                if getattr(self, knob):
                    raise ValueError(f"{knob} requires transport='asyncio'")

    def call_policy(self) -> CallPolicy:
        """The :class:`~repro.rpc.settings.CallPolicy` a live ring's client
        and coordinator call with."""
        from repro.rpc.retry import RetryPolicy
        from repro.rpc.settings import CallPolicy

        return CallPolicy(
            replication_factor=self.replication_factor,
            vnodes=self.vnodes,
            consistency=self.consistency,
            codec=self.rpc_codec,
            timeout_s=self.rpc_timeout_s,
            retry=RetryPolicy(attempts=self.rpc_attempts),
            deadline_s=self.rpc_deadline_s,
            breaker_failures=self.breaker_failures,
            breaker_cooldown_s=self.breaker_cooldown_s,
            retry_budget=self.retry_budget,
            heartbeat_interval_s=self.heartbeat_interval_s,
        )

    def node_spec(self, node_id: str) -> NodeSpec:
        """The :class:`~repro.rpc.settings.NodeSpec` live member
        ``node_id`` serves with."""
        from repro.rpc.settings import NodeSpec

        return NodeSpec(
            node_id,
            data_dir=self.data_dir,
            admission_queue=self.admission_queue,
            service_workers=self.service_workers,
        )

    def hash_time_s(self, nbytes: int) -> float:
        """CPU time to chunk + fingerprint ``nbytes`` of input."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes!r}")
        return nbytes / (self.hash_mb_per_s * 1e6)

    def make_chunker(self):
        """Build the chunker selected by :attr:`chunking_algo`.

        One factory so every component that splits streams — agents, the
        cloud-side strategies, the throughput harnesses — agrees on the
        algorithm and the ``chunk_size`` target (a chunk-boundary mismatch
        between nodes silently destroys cross-node dedup).
        """
        from repro.chunking import (
            AEChunker,
            FastCDCChunker,
            FixedSizeChunker,
            GearChunker,
            RAMChunker,
        )

        if self.chunking_algo == "fixed":
            return FixedSizeChunker(self.chunk_size)
        if self.chunking_algo == "gear":
            return GearChunker(avg_size=self.chunk_size)
        if self.chunking_algo == "fastcdc":
            return FastCDCChunker(avg_size=self.chunk_size)
        if self.chunking_algo == "ae":
            return AEChunker(avg_size=self.chunk_size)
        return RAMChunker(avg_size=self.chunk_size)
