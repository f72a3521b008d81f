"""Shared fixtures for the EF-dedup test suite."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.core.costs import SNOD2Problem
from repro.core.model import ChunkPoolModel, SourceSpec, grouped_sources
from repro.network.costmatrix import latency_cost_matrix
from repro.network.topology import build_testbed
from repro.rpc import CallPolicy, LiveKVCluster, NodeSpec, RetryPolicy

# Members of the live rings the transport tests boot.
NODE_IDS = ["n0", "n1", "n2"]
# Quick, jitter-free retries for tests that drop or delay on purpose.
FAST_RETRY = RetryPolicy(attempts=3, base_delay_s=0.005, max_delay_s=0.02, jitter=0.0)
_SPEC_KNOBS = {f.name for f in fields(NodeSpec)} - {"node_id"}


def live_cluster(
    node_ids=NODE_IDS, *, strategy=None, fault_injector=None, tracer=None, **knobs
) -> LiveKVCluster:
    """A live ring for tests, γ = 2 with 0.2 s attempts unless ``knobs``
    say otherwise. A knob names a :class:`NodeSpec` field (every member
    alike) or a :class:`CallPolicy` field."""
    spec = {name: knobs.pop(name) for name in list(knobs) if name in _SPEC_KNOBS}
    policy = CallPolicy(**{"replication_factor": 2, "timeout_s": 0.2, **knobs})
    return LiveKVCluster(
        [NodeSpec(node_id, **spec) for node_id in node_ids],
        policy,
        strategy=strategy,
        fault_injector=fault_injector,
        tracer=tracer,
    )


@pytest.fixture
def two_pool_model() -> ChunkPoolModel:
    """Four sources over two pools: sources 0/2 prefer pool 0, 1/3 pool 1."""
    return ChunkPoolModel(
        pool_sizes=[300.0, 500.0],
        sources=grouped_sources(
            group_of_source=[0, 1, 0, 1],
            group_vectors=[[0.8, 0.2], [0.2, 0.8]],
            rates=100.0,
        ),
    )


@pytest.fixture
def small_problem(two_pool_model: ChunkPoolModel) -> SNOD2Problem:
    """A 4-source SNOD2 instance over the paper's testbed topology."""
    topology = build_testbed(n_nodes=4, n_edge_clouds=2)
    return SNOD2Problem(
        model=two_pool_model,
        nu=latency_cost_matrix(topology),
        duration=2.0,
        gamma=2,
        alpha=10.0,
    )


@pytest.fixture
def medium_problem() -> SNOD2Problem:
    """An 8-source instance with three groups and nontrivial ν structure."""
    model = ChunkPoolModel(
        pool_sizes=[200.0, 400.0, 300.0],
        sources=grouped_sources(
            group_of_source=[0, 1, 2, 0, 1, 2, 0, 1],
            group_vectors=[
                [0.7, 0.2, 0.1],
                [0.1, 0.7, 0.2],
                [0.2, 0.1, 0.7],
            ],
            rates=[80.0, 120.0, 100.0, 90.0, 110.0, 100.0, 95.0, 105.0],
        ),
    )
    topology = build_testbed(n_nodes=8, n_edge_clouds=4)
    return SNOD2Problem(
        model=model,
        nu=latency_cost_matrix(topology),
        duration=3.0,
        gamma=2,
        alpha=25.0,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
