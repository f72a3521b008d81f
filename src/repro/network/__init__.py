"""Network substrate: edge/cloud topology (its builders' latencies are the
evaluation's NetEm knobs) and ν_ij cost matrices."""

from repro.network.costmatrix import (
    bandwidth_cost_matrix,
    latency_cost_matrix,
    normalized_cost_matrix,
    validate_cost_matrix,
)
from repro.network.topology import (
    DEFAULT_INTER_CLOUD_LATENCY_S,
    EDGE_BANDWIDTH_BYTES_PER_S,
    INTRA_CLOUD_LATENCY_S,
    WAN_BANDWIDTH_BYTES_PER_S,
    WAN_LATENCY_S,
    EdgeNode,
    Topology,
    build_custom,
    build_testbed,
    build_uniform_random,
    latency_matrix,
)

__all__ = [
    "DEFAULT_INTER_CLOUD_LATENCY_S",
    "EDGE_BANDWIDTH_BYTES_PER_S",
    "EdgeNode",
    "INTRA_CLOUD_LATENCY_S",
    "Topology",
    "WAN_BANDWIDTH_BYTES_PER_S",
    "WAN_LATENCY_S",
    "bandwidth_cost_matrix",
    "build_custom",
    "build_testbed",
    "build_uniform_random",
    "latency_cost_matrix",
    "latency_matrix",
    "normalized_cost_matrix",
    "validate_cost_matrix",
]
