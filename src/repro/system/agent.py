"""The Dedup Agent (Sec. IV).

Each edge node runs a Dedup Agent: it splits incoming files into chunks,
fingerprints them, consults the D2-ring's distributed index (check-and-set),
and forwards only unique chunks to the central cloud. The paper built this
by patching duperemove to talk to Cassandra; here the agent composes our
:class:`~repro.dedup.engine.DedupEngine` with a
:class:`RingIndex` adapter over the ring's
:class:`~repro.kvstore.store.DistributedKVStore`.

The adapter also records, per lookup, whether the coordinator held a replica
(local, the γ/|P| case of Eq. 2) or had to contact a peer (remote) — the raw
material for network-cost accounting and the throughput simulation. The
store counts them while it places the keys, so each key is placed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.chunking.base import Chunker
from repro.dedup.engine import (
    BatchObserver,
    DedupEngine,
    DedupResult,
    UniqueChunkSink,
)
from repro.dedup.index import DedupIndex
from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.store import DistributedKVStore
from repro.system.config import EFDedupConfig

if TYPE_CHECKING:  # the live-transport twin; imported lazily to keep the
    # in-process path free of the rpc package
    from repro.rpc.remote_store import RemoteKVStore

# Any store exposing the DistributedKVStore operation surface: the
# in-process analytic store or the asyncio-transport RemoteKVStore.
IndexStore = Union[DistributedKVStore, "RemoteKVStore"]


@dataclass
class LookupRecord:
    """Counters for one agent's index traffic, exported as ``lookups.*``.

    ``local``/``remote`` count *keys* (so per-chunk invariants like
    "lookups == chunks" hold regardless of batching) by whether the agent's
    node holds a replica; the store fills them as the ``tally`` of each
    call. ``batch_rounds`` counts batched index calls — the unit the
    network actually charges when lookups are pipelined.
    """

    local: int = 0
    remote: int = 0
    batch_rounds: int = 0

    @property
    def total_lookups(self) -> int:
        return self.local + self.remote

    @property
    def remote_fraction(self) -> float:
        total = self.total_lookups
        return self.remote / total if total else 0.0


class RingIndex(DedupIndex):
    """DedupIndex backed by a D2-ring's distributed KV store.

    All operations coordinate from ``local_node`` (the agent's own node), so
    locality statistics reflect that agent's position on the index ring.
    The store may be the in-process :class:`DistributedKVStore` or the
    asyncio transport's :class:`~repro.rpc.remote_store.RemoteKVStore` —
    both expose the same operation surface, so the agent pipeline is
    transport-agnostic.
    """

    def __init__(
        self,
        store: IndexStore,
        local_node: str,
        consistency: ConsistencyLevel = ConsistencyLevel.ONE,
    ) -> None:
        if local_node not in store.nodes:
            raise ValueError(f"{local_node!r} is not a member of this ring's store")
        self.store = store
        self.local_node = local_node
        self.consistency = consistency
        self.lookups = LookupRecord()

    def lookup_and_insert_many(
        self, fingerprints: Iterable[str], metadata: Optional[str] = None
    ) -> list[bool]:
        """Batched check-and-set: one ring round trip per contacted node.

        Per-key locality counters are still recorded (they count keys); the
        store's network accounting collapses the batch into one contact per
        distinct coordinator→replica pair (see
        :meth:`~repro.kvstore.store.DistributedKVStore.put_if_absent_many`).
        """
        self.lookups.batch_rounds += 1
        return self.store.put_if_absent_many(
            list(fingerprints),
            metadata if metadata is not None else "",
            consistency=self.consistency,
            coordinator=self.local_node,
            tally=self.lookups,
        )

    def __len__(self) -> int:
        return len(self.store)

    def fingerprints(self):
        return iter(self.store.unique_keys())


class DedupAgent:
    """The per-node dedup pipeline of the EF-dedup prototype.

    Args:
        node_id: the edge node this agent runs on.
        index: the ring's index (a :class:`RingIndex`, or any DedupIndex for
            the cloud-based strategies).
        config: system tunables (chunk size etc.).
        unique_sink: invoked once per lookup batch with its unique chunks
            (:data:`~repro.dedup.engine.UniqueChunkSink`) — the ring wires
            it to the central cloud and, with a content plane, the shelves
            and the erasure tier.
        chunker: override the chunker (defaults to the algorithm selected
            by ``config.chunking_algo`` at ``config.chunk_size``, via
            :meth:`~repro.system.config.EFDedupConfig.make_chunker`).
    """

    def __init__(
        self,
        node_id: str,
        index: DedupIndex,
        config: Optional[EFDedupConfig] = None,
        unique_sink: Optional[UniqueChunkSink] = None,
        chunker: Optional[Chunker] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config if config is not None else EFDedupConfig()
        self.engine = DedupEngine(
            index=index,
            chunker=chunker if chunker is not None else self.config.make_chunker(),
            unique_sink=unique_sink,
            # lookup_batch is the agent's pipeline depth: chunks per index
            # round trip (1 = duperemove's serial per-chunk queries).
            batch_size=self.config.lookup_batch,
        )

    @property
    def index(self) -> DedupIndex:
        return self.engine.index

    @property
    def stats(self):
        """Cumulative dedup accounting for this agent."""
        return self.engine.stats

    def ingest(
        self,
        data: bytes,
        label: Optional[str] = None,
        observer: Optional[BatchObserver] = None,
    ) -> DedupResult:
        """Deduplicate one file's bytes (unique chunks flow to the sink);
        ``observer`` sees each lookup batch first (see
        :meth:`~repro.dedup.engine.DedupEngine.dedup_bytes`)."""
        return self.engine.dedup_bytes(
            data,
            source=label if label is not None else self.node_id,
            observer=observer,
        )

    def ingest_files(self, files: Iterable[bytes]) -> list[DedupResult]:
        """Deduplicate a sequence of files, in order."""
        return [self.ingest(data) for data in files]
