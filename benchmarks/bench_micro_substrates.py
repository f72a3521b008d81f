"""Micro-benchmarks of the hot substrate paths.

Unlike the figure benchmarks (single-shot experiment reproductions), these
use pytest-benchmark's repeated timing to track the throughput of the
operations every experiment leans on: chunking, fingerprinting, KV
check-and-set, Theorem-1 evaluation, and greedy planning. Regressions here
silently inflate every experiment's wall time.
"""

import numpy as np
import pytest

from repro.chunking.fixed import FixedSizeChunker
from repro.chunking.gear import GearChunker
from repro.chunking.hashing import default_fingerprint
from repro.core.costs import SNOD2Problem
from repro.core.dedup_ratio import expected_unique_chunks
from repro.core.model import ChunkPoolModel, grouped_sources
from repro.core.partitioning import SmartPartitioner
from repro.dedup.engine import DedupEngine
from repro.kvstore.store import DistributedKVStore
from repro.network.costmatrix import latency_cost_matrix
from repro.network.topology import build_testbed

PAYLOAD = np.random.default_rng(0).integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()


def test_micro_fixed_chunking(benchmark):
    chunker = FixedSizeChunker(4096)
    result = benchmark(lambda: sum(1 for _ in chunker.chunk(PAYLOAD)))
    assert result == 256


def test_micro_gear_chunking(benchmark):
    chunker = GearChunker(avg_size=4096)
    count = benchmark(lambda: sum(1 for _ in chunker.chunk(PAYLOAD)))
    assert count > 50


def test_micro_fingerprint(benchmark):
    chunk = PAYLOAD[:4096]
    fp = benchmark(lambda: default_fingerprint(chunk))
    assert len(fp) == 32


def test_micro_dedup_engine(benchmark):
    def run():
        engine = DedupEngine(chunker=FixedSizeChunker(4096))
        engine.dedup_bytes(PAYLOAD)
        return engine.stats.raw_chunks

    assert benchmark(run) == 256


def test_micro_kv_put_if_absent(benchmark):
    store = DistributedKVStore([f"n{i}" for i in range(4)], replication_factor=2)
    counter = iter(range(10**9))

    def run():
        i = next(counter)
        return store.put_if_absent_many([f"fp-{i}"], "v", coordinator="n0")

    assert benchmark(run) in ([True], [False])


def test_micro_theorem1(benchmark):
    model = ChunkPoolModel(
        [500.0] * 8,
        grouped_sources([i % 4 for i in range(20)], np.eye(4, 8).tolist(), 100.0),
    )
    value = benchmark(lambda: expected_unique_chunks(model, list(range(20)), 5.0))
    assert value > 0


def test_micro_smart_partitioning(benchmark):
    model = ChunkPoolModel(
        [300.0] * 5,
        grouped_sources(
            [i % 5 for i in range(40)], np.eye(5).tolist(), 100.0
        ),
    )
    topology = build_testbed(40, 8)
    problem = SNOD2Problem(
        model=model, nu=latency_cost_matrix(topology), duration=2.0, gamma=2, alpha=10.0
    )
    partition = benchmark(lambda: SmartPartitioner(8).partition(problem))
    assert sum(len(r) for r in partition) == 40
