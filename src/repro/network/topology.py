"""Edge/cloud topology.

Models the paper's testbed: N edge nodes grouped into edge clouds (the paper
groups 20 VMs into 10 "geographical groups"), a central cloud reachable over
a WAN uplink, and per-pair latencies. Bandwidths and latencies default to the
measured values reported in Sec. V:

- edge↔edge:   1.726 Gbps, 0.85 ms average latency (intra edge cloud)
- edge↔cloud:  0.377 Gbps, 12.2 ms average latency
- inter edge-cloud latency is injected (NetEm) — 5 ms default in Sec. V-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.sim.bandwidth import gbps
from repro.sim.rng import SeedLike, make_rng

# Measured constants from Sec. V of the paper.
EDGE_BANDWIDTH_BYTES_PER_S = gbps(1.726)
WAN_BANDWIDTH_BYTES_PER_S = gbps(0.377)
INTRA_CLOUD_LATENCY_S = 0.85e-3
WAN_LATENCY_S = 12.2e-3
DEFAULT_INTER_CLOUD_LATENCY_S = 5e-3


@dataclass(frozen=True)
class EdgeNode:
    """An edge node (a VM in some edge cloud)."""

    node_id: str
    edge_cloud: str

    def __str__(self) -> str:
        return self.node_id


@dataclass
class Topology:
    """A set of edge nodes grouped into edge clouds, plus a central cloud.

    Attributes:
        nodes: all edge nodes, in a stable order (index = paper's source i).
        intra_cloud_latency_s: one-way latency between nodes of one cloud.
        inter_cloud_latency_s: one-way latency between nodes of different
            clouds (the NetEm-injected value, sweepable in Fig. 6).
        wan_latency_s: one-way latency from any edge node to the central cloud.
        edge_bandwidth_bytes_per_s / wan_bandwidth_bytes_per_s: link capacities (bytes/second).
        pair_latency_overrides: optional explicit per-pair latencies (used by
            the Fig. 7 simulations with uniform-random latencies); symmetric.
    """

    nodes: list[EdgeNode]
    intra_cloud_latency_s: float = INTRA_CLOUD_LATENCY_S
    inter_cloud_latency_s: float = DEFAULT_INTER_CLOUD_LATENCY_S
    wan_latency_s: float = WAN_LATENCY_S
    edge_bandwidth_bytes_per_s: float = EDGE_BANDWIDTH_BYTES_PER_S
    wan_bandwidth_bytes_per_s: float = WAN_BANDWIDTH_BYTES_PER_S
    pair_latency_overrides: dict[frozenset[str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in topology: {ids!r}")
        for value, name in [
            (self.intra_cloud_latency_s, "intra_cloud_latency_s"),
            (self.inter_cloud_latency_s, "inter_cloud_latency_s"),
            (self.wan_latency_s, "wan_latency_s"),
        ]:
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        for value, name in [
            (self.edge_bandwidth_bytes_per_s, "edge_bandwidth_bytes_per_s"),
            (self.wan_bandwidth_bytes_per_s, "wan_bandwidth_bytes_per_s"),
        ]:
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        self._by_id = {n.node_id: n for n in self.nodes}

    # ------------------------------------------------------------------ #

    @property
    def node_ids(self) -> list[str]:
        return [n.node_id for n in self.nodes]

    @property
    def edge_clouds(self) -> list[str]:
        seen: list[str] = []
        for n in self.nodes:
            if n.edge_cloud not in seen:
                seen.append(n.edge_cloud)
        return seen

    def node(self, node_id: str) -> EdgeNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id!r} in topology") from None

    def cloud_members(self, edge_cloud: str) -> list[EdgeNode]:
        return [n for n in self.nodes if n.edge_cloud == edge_cloud]

    def same_cloud(self, a: str, b: str) -> bool:
        return self.node(a).edge_cloud == self.node(b).edge_cloud

    def latency_s(self, a: str, b: str) -> float:
        """One-way latency between edge nodes ``a`` and ``b`` in seconds."""
        if a == b:
            return 0.0
        override = self.pair_latency_overrides.get(frozenset((a, b)))
        if override is not None:
            return override
        if self.same_cloud(a, b):
            return self.intra_cloud_latency_s
        return self.inter_cloud_latency_s

    def rtt_s(self, a: str, b: str) -> float:
        """Round-trip time between two edge nodes."""
        return 2.0 * self.latency_s(a, b)

    def wan_rtt_s(self) -> float:
        """Round-trip time from an edge node to the central cloud."""
        return 2.0 * self.wan_latency_s


# ---------------------------------------------------------------------- #
# builders
# ---------------------------------------------------------------------- #


def build_testbed(
    n_nodes: int = 20,
    n_edge_clouds: int = 10,
    inter_cloud_latency_s: float = DEFAULT_INTER_CLOUD_LATENCY_S,
    wan_latency_s: float = WAN_LATENCY_S,
) -> Topology:
    """The paper's testbed: ``n_nodes`` VMs spread round-robin over
    ``n_edge_clouds`` edge clouds (20 nodes / 10 groups in Sec. V-B)."""
    if n_nodes <= 0:
        raise ValueError(f"n_nodes must be positive, got {n_nodes!r}")
    if not 0 < n_edge_clouds <= n_nodes:
        raise ValueError(
            f"need 0 < n_edge_clouds <= n_nodes, got {n_edge_clouds!r} for {n_nodes!r} nodes"
        )
    nodes = [
        EdgeNode(node_id=f"edge-{i}", edge_cloud=f"cloud-{i % n_edge_clouds}")
        for i in range(n_nodes)
    ]
    return Topology(
        nodes=nodes,
        inter_cloud_latency_s=inter_cloud_latency_s,
        wan_latency_s=wan_latency_s,
    )


def build_uniform_random(
    n_nodes: int,
    max_latency_s: float = 0.1,
    seed: SeedLike = None,
) -> Topology:
    """The Fig. 7 simulation topology: every node its own edge cloud, with
    symmetric inter-node latencies drawn uniformly from [0, max_latency_s]."""
    if n_nodes <= 0:
        raise ValueError(f"n_nodes must be positive, got {n_nodes!r}")
    if max_latency_s < 0:
        raise ValueError(f"max_latency_s must be non-negative, got {max_latency_s!r}")
    rng = make_rng(seed)
    nodes = [EdgeNode(node_id=f"edge-{i}", edge_cloud=f"cloud-{i}") for i in range(n_nodes)]
    overrides: dict[frozenset[str], float] = {}
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            overrides[frozenset((nodes[i].node_id, nodes[j].node_id))] = float(
                rng.uniform(0.0, max_latency_s)
            )
    return Topology(nodes=nodes, pair_latency_overrides=overrides)


def build_custom(
    cloud_sizes: Iterable[int],
    inter_cloud_latency_s: float = DEFAULT_INTER_CLOUD_LATENCY_S,
    wan_latency_s: float = WAN_LATENCY_S,
    intra_cloud_latency_s: float = INTRA_CLOUD_LATENCY_S,
) -> Topology:
    """Arbitrary grouping: ``cloud_sizes[c]`` nodes in edge cloud ``c``."""
    nodes: list[EdgeNode] = []
    idx = 0
    for c, size in enumerate(cloud_sizes):
        if size <= 0:
            raise ValueError(f"cloud sizes must be positive, got {size!r} at index {c}")
        for _ in range(size):
            nodes.append(EdgeNode(node_id=f"edge-{idx}", edge_cloud=f"cloud-{c}"))
            idx += 1
    if not nodes:
        raise ValueError("topology needs at least one node")
    return Topology(
        nodes=nodes,
        inter_cloud_latency_s=inter_cloud_latency_s,
        wan_latency_s=wan_latency_s,
        intra_cloud_latency_s=intra_cloud_latency_s,
    )


def latency_matrix(topology: Topology) -> np.ndarray:
    """Symmetric N×N matrix of one-way latencies (seconds), node order as
    ``topology.nodes``."""
    ids = topology.node_ids
    n = len(ids)
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            lat = topology.latency_s(ids[i], ids[j])
            mat[i, j] = lat
            mat[j, i] = lat
    return mat

