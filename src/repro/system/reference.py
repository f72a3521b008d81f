"""The seeded reference deployment every harness outside the paper's
figures runs against.

The chaos scenarios, the ``repro secure`` / ``restore`` / ``replan`` /
``live`` commands and the legacy ``benchmarks/bench_*.py`` scripts all need
the same three things: a deterministic workload with real cross-node
redundancy, the order in which a ring sees it, and a small cluster deployed
onto a *hand-written* partition (the planner is not under test there, so
its input is pinned). They live here, once, so a constant changed for one
harness cannot silently fork the others' baselines.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.core.costs import SNOD2Problem
from repro.core.model import ChunkPoolModel, grouped_sources
from repro.network.costmatrix import latency_cost_matrix
from repro.network.topology import build_testbed
from repro.system.cluster import DurableEFDedupCluster, EFDedupCluster
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring

Schedule = list[tuple[str, bytes]]


def seeded_pool_workload(
    n_nodes: int,
    files_per_node: int,
    file_kb: int,
    seed: int,
    block_size: int = 4096,
    pool_blocks: int = 24,
) -> dict[str, list[bytes]]:
    """Deterministic per-node file streams with real cross-node redundancy:
    files draw blocks from one shared pool, so different nodes hold
    duplicate chunks — the workload shape collaborative dedup exists for."""
    rng = random.Random(seed)
    pool = [rng.randbytes(block_size) for _ in range(pool_blocks)]
    blocks_per_file = max(1, (file_kb * 1024) // block_size)
    return {
        f"edge-{n}": [
            b"".join(rng.choice(pool) for _ in range(blocks_per_file))
            for _ in range(files_per_node)
        ]
        for n in range(n_nodes)
    }


def round_robin(workloads: dict[str, list[bytes]]) -> Schedule:
    """Flatten per-node streams into the interleaved arrival order
    :meth:`~repro.system.ring.D2Ring.ingest_workloads` uses."""
    iters = {nid: iter(files) for nid, files in workloads.items()}
    schedule: Schedule = []
    while iters:
        finished = []
        for nid, it in iters.items():
            data = next(it, None)
            if data is None:
                finished.append(nid)
            else:
                schedule.append((nid, data))
        for nid in finished:
            del iters[nid]
    return schedule


def reference_ring(
    members: Sequence[str], schedule: Schedule, config: EFDedupConfig
) -> D2Ring:
    """``schedule`` pushed through a fresh ring built from ``config`` as
    given — pass the in-process, protection-free form of whatever the run
    under test uses. Its ``dedup_ratio`` is the baseline a faulted,
    overloaded or live run of the same schedule must reproduce bit for
    bit."""
    ring = D2Ring("ref-0", list(members), config=config)
    for node_id, data in schedule:
        ring.agent(node_id).ingest(data)
    return ring


def reference_cluster(
    nodes: int,
    partition: Sequence[Sequence[int]],
    durable: bool = False,
    journal_dir: Optional[str] = None,
    **config_overrides,
) -> EFDedupCluster:
    """A deployed cluster of ``nodes`` edge nodes on the hand-written
    ``partition`` (rings as lists of node indexes).

    The statistics are pinned: two 150-chunk pools, odd and even nodes
    leaning 0.9/0.1 toward opposite pools at 80 chunks/interval, the
    testbed topology over ``min(3, nodes)`` edge clouds, ``alpha=50`` over
    a 2-interval horizon. ``config_overrides`` are
    :class:`~repro.system.config.EFDedupConfig` fields on top of 4 KiB
    chunks, γ = 2 and 16-fingerprint lookup batches; the problem's γ
    follows the config's. ``durable`` deploys a
    :class:`~repro.system.cluster.DurableEFDedupCluster` (payload plane,
    refcount journal under ``journal_dir``). The cluster is a context
    manager; leaving it shuts the rings down.
    """
    config = EFDedupConfig(
        **{
            "chunk_size": 4096,
            "replication_factor": 2,
            "lookup_batch": 16,
            **config_overrides,
        }
    )
    model = ChunkPoolModel(
        [150.0, 150.0],
        grouped_sources(
            [i % 2 for i in range(nodes)], [[0.9, 0.1], [0.1, 0.9]], 80.0
        ),
    )
    topology = build_testbed(nodes, min(3, nodes))
    problem = SNOD2Problem(
        model=model,
        nu=latency_cost_matrix(topology),
        duration=2.0,
        gamma=config.replication_factor,
        alpha=50.0,
    )
    if durable:
        cluster: EFDedupCluster = DurableEFDedupCluster(
            topology, problem, config=config, journal_dir=journal_dir
        )
    else:
        cluster = EFDedupCluster(topology, problem, config=config)
    cluster.partition = [list(ring) for ring in partition]
    cluster.deploy()
    return cluster
