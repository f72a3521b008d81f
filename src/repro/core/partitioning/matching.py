"""Matching-based accelerated SMART (Sec. III-C, second half).

The greedy can be computed "via a sequence of minimum-weight matchings":
treat each current partition as a super-node, weight a pair of partitions by
the aggregate cost of their union, compute a minimum-weight perfect matching,
and merge only the θ-fraction of matched pairs with the lightest weights.
Each round shrinks the number of partitions by up to a factor (1 − θ/2), so
the algorithm converges in O(log(N/M)) rounds.

We use networkx's ``min_weight_matching`` (blossom algorithm) on the
complete graph over current partitions. networkx is imported where the graph
is built, so loading the partitioners does not load it.
"""

from __future__ import annotations

from repro.core.costs import Partition, SNOD2Problem
from repro.core.partitioning.base import Partitioner


class MatchingPartitioner(Partitioner):
    """Iterated minimum-weight-matching partitioner.

    Args:
        n_rings: target number of D2-rings M (merging stops at M partitions).
        theta: fraction of each round's matched pairs to merge, in (0, 1].
            θ = 1 merges every matched pair per round (fastest convergence);
            smaller θ merges only the cheapest pairs, tracking the greedy
            more closely.
    """

    def __init__(self, n_rings: int, theta: float = 0.5) -> None:
        if n_rings < 1:
            raise ValueError(f"n_rings must be >= 1, got {n_rings!r}")
        if not 0.0 < theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {theta!r}")
        self.n_rings = n_rings
        self.theta = theta
        self.name = f"matching[M={n_rings},theta={theta}]"

    def partition(self, problem: SNOD2Problem) -> Partition:
        partitions: Partition = [[i] for i in range(problem.n_sources)]
        while len(partitions) > self.n_rings:
            merged = self._merge_round(problem, partitions)
            if len(merged) == len(partitions):
                # No merge improved anything this round (all pairs matched
                # but the budget floor kicked in) — force the single
                # cheapest merge so the algorithm always terminates at M.
                merged = self._force_cheapest_merge(problem, partitions)
            partitions = merged
        return partitions

    # ------------------------------------------------------------------ #

    def _union_cost(self, problem: SNOD2Problem, a: list[int], b: list[int]) -> float:
        return problem.ring_cost(a + b)

    def _merge_round(self, problem: SNOD2Problem, partitions: Partition) -> Partition:
        """One matching round: match, keep the θ-lightest pairs, merge them."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(len(partitions)))
        for i in range(len(partitions)):
            for j in range(i + 1, len(partitions)):
                graph.add_edge(i, j, weight=self._union_cost(problem, partitions[i], partitions[j]))
        matching = nx.min_weight_matching(graph)
        if not matching:
            return partitions
        ranked = sorted(
            matching, key=lambda pair: graph.edges[pair]["weight"]
        )
        # Merge the lightest θ-fraction, but never drop below M partitions.
        max_merges_budget = max(1, int(len(ranked) * self.theta))
        max_merges_floor = len(partitions) - self.n_rings
        n_merges = min(max_merges_budget, max_merges_floor)
        to_merge = ranked[:n_merges]
        merged_away: set[int] = set()
        result: Partition = []
        for i, j in to_merge:
            result.append(partitions[i] + partitions[j])
            merged_away.update((i, j))
        for idx, part in enumerate(partitions):
            if idx not in merged_away:
                result.append(part)
        return result

    def _force_cheapest_merge(
        self, problem: SNOD2Problem, partitions: Partition
    ) -> Partition:
        best: tuple[float, int, int] | None = None
        for i in range(len(partitions)):
            for j in range(i + 1, len(partitions)):
                cost = self._union_cost(problem, partitions[i], partitions[j])
                if best is None or cost < best[0]:
                    best = (cost, i, j)
        assert best is not None
        _, i, j = best
        result = [partitions[i] + partitions[j]]
        result.extend(p for k, p in enumerate(partitions) if k not in (i, j))
        return result
