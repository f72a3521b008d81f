"""Tests for topologies and cost matrices."""

import numpy as np
import pytest

from repro.network.costmatrix import (
    latency_cost_matrix,
    normalized_cost_matrix,
    validate_cost_matrix,
)
from repro.network.topology import (
    EdgeNode,
    Topology,
    build_custom,
    build_testbed,
    build_uniform_random,
    latency_matrix,
)


class TestBuilders:
    def test_testbed_default_is_paper_setup(self):
        topo = build_testbed()
        assert len(topo.nodes) == 20
        assert len(topo.edge_clouds) == 10
        assert topo.wan_latency_s == pytest.approx(12.2e-3)
        assert topo.intra_cloud_latency_s == pytest.approx(0.85e-3)

    def test_testbed_round_robin_grouping(self):
        topo = build_testbed(n_nodes=6, n_edge_clouds=3)
        assert topo.node("edge-0").edge_cloud == topo.node("edge-3").edge_cloud

    def test_testbed_invalid_args(self):
        with pytest.raises(ValueError):
            build_testbed(n_nodes=0)
        with pytest.raises(ValueError):
            build_testbed(n_nodes=4, n_edge_clouds=5)

    def test_uniform_random_pair_latencies_in_range(self):
        topo = build_uniform_random(10, max_latency_s=0.1, seed=1)
        for i, a in enumerate(topo.node_ids):
            for b in topo.node_ids[i + 1 :]:
                assert 0.0 <= topo.latency_s(a, b) <= 0.1

    def test_uniform_random_deterministic(self):
        a = build_uniform_random(6, seed=42)
        b = build_uniform_random(6, seed=42)
        assert a.pair_latency_overrides == b.pair_latency_overrides

    def test_custom_cloud_sizes(self):
        topo = build_custom([3, 2, 1])
        assert len(topo.nodes) == 6
        assert len(topo.cloud_members("cloud-0")) == 3
        assert len(topo.cloud_members("cloud-2")) == 1

    def test_custom_invalid_size(self):
        with pytest.raises(ValueError):
            build_custom([2, 0])

    def test_custom_empty(self):
        with pytest.raises(ValueError):
            build_custom([])


class TestTopology:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Topology(nodes=[EdgeNode("a", "c0"), EdgeNode("a", "c1")])

    def test_latency_self_is_zero(self):
        topo = build_testbed(4, 2)
        assert topo.latency_s("edge-0", "edge-0") == 0.0

    def test_latency_intra_vs_inter(self):
        topo = build_testbed(n_nodes=4, n_edge_clouds=2, inter_cloud_latency_s=5e-3)
        # edge-0 and edge-2 share cloud-0; edge-0 and edge-1 differ.
        assert topo.latency_s("edge-0", "edge-2") == pytest.approx(0.85e-3)
        assert topo.latency_s("edge-0", "edge-1") == pytest.approx(5e-3)

    def test_latency_symmetric(self):
        topo = build_uniform_random(5, seed=3)
        for a in topo.node_ids:
            for b in topo.node_ids:
                assert topo.latency_s(a, b) == topo.latency_s(b, a)

    def test_rtt_is_twice_latency(self):
        topo = build_testbed(4, 2)
        assert topo.rtt_s("edge-0", "edge-1") == pytest.approx(
            2 * topo.latency_s("edge-0", "edge-1")
        )

    def test_wan_rtt(self):
        topo = build_testbed(4, 2)
        assert topo.wan_rtt_s() == pytest.approx(2 * 12.2e-3)

    def test_pair_override_wins(self):
        topo = build_testbed(4, 2)
        topo.pair_latency_overrides[frozenset(("edge-0", "edge-1"))] = 0.5
        assert topo.latency_s("edge-0", "edge-1") == 0.5

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            build_testbed(4, 2).node("ghost")

    def test_negative_latency_rejected_at_build(self):
        with pytest.raises(ValueError):
            Topology(nodes=[EdgeNode("a", "c")], wan_latency_s=-1.0)


class TestCostMatrix:
    def test_latency_cost_matrix_structure(self):
        topo = build_testbed(6, 3)
        nu = latency_cost_matrix(topo)
        validate_cost_matrix(nu)

    def test_cost_is_rtt(self):
        topo = build_testbed(4, 2)
        nu = latency_cost_matrix(topo)
        assert nu[0, 1] == pytest.approx(topo.rtt_s("edge-0", "edge-1"))

    def test_normalized_max_is_one(self):
        nu = normalized_cost_matrix(build_testbed(6, 3))
        assert nu.max() == pytest.approx(1.0)

    def test_normalized_all_zero_stays_zero(self):
        topo = Topology(
            nodes=[EdgeNode("a", "c"), EdgeNode("b", "c")],
            intra_cloud_latency_s=0.0,
        )
        assert normalized_cost_matrix(topo).max() == 0.0

    def test_validate_rejects_asymmetric(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            validate_cost_matrix(bad)

    def test_validate_rejects_nonzero_diagonal(self):
        bad = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            validate_cost_matrix(bad)

    def test_validate_rejects_negative(self):
        bad = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="negative"):
            validate_cost_matrix(bad)

    def test_validate_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            validate_cost_matrix(np.zeros((2, 3)))

    def test_latency_matrix_helper(self):
        topo = build_testbed(4, 2)
        mat = latency_matrix(topo)
        assert mat.shape == (4, 4)
        assert mat[0, 1] == pytest.approx(topo.latency_s("edge-0", "edge-1"))


class TestBandwidthCostMatrix:
    def test_structure(self):
        from repro.network.costmatrix import bandwidth_cost_matrix

        topo = build_testbed(5, 3)
        nu = bandwidth_cost_matrix(topo, lookup_bytes=512)
        validate_cost_matrix(nu)
        assert nu[0, 1] == pytest.approx(2 * 512 / topo.edge_bandwidth_bytes_per_s)

    def test_scales_with_lookup_size(self):
        from repro.network.costmatrix import bandwidth_cost_matrix

        topo = build_testbed(4, 2)
        small = bandwidth_cost_matrix(topo, lookup_bytes=256)
        large = bandwidth_cost_matrix(topo, lookup_bytes=1024)
        assert large[0, 1] == pytest.approx(4 * small[0, 1])

    def test_invalid_size(self):
        from repro.network.costmatrix import bandwidth_cost_matrix

        with pytest.raises(ValueError):
            bandwidth_cost_matrix(build_testbed(4, 2), lookup_bytes=0)
