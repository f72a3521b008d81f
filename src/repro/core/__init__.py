"""EF-dedup core: the chunk-pool source model, Theorem 1 dedup ratios, the
SNOD2 cost model, Algorithm 1 estimation, Algorithm 2 partitioning, and the
Theorem 2 NP-hardness reduction.

The package exports what the data path uses and nothing that needs scipy or
networkx: Algorithm 1's estimator is imported from ``repro.core.estimation``
and the Theorem 2 reduction from ``repro.core.nphard``.
"""

from repro.core.costs import Partition, SNOD2Problem, validate_partition
from repro.core.dedup_ratio import (
    dedup_ratio,
    expected_ratio_for_draws,
    expected_unique_chunks,
    raw_chunks,
)
from repro.core.model import ChunkPoolModel, SourceSpec, grouped_sources, uniform_sources
from repro.core.profiling import PoolLibrary, PoolProfile, SourceMatch, profile_sources
from repro.core.similarity import (
    LSHIndex,
    MinHasher,
    MinHashSignature,
    estimate_pair_ratio,
    estimate_union_size,
    similarity_matrix,
)

__all__ = [
    "ChunkPoolModel",
    "LSHIndex",
    "MinHashSignature",
    "MinHasher",
    "Partition",
    "PoolLibrary",
    "PoolProfile",
    "SNOD2Problem",
    "SourceMatch",
    "SourceSpec",
    "dedup_ratio",
    "estimate_pair_ratio",
    "estimate_union_size",
    "expected_ratio_for_draws",
    "expected_unique_chunks",
    "grouped_sources",
    "profile_sources",
    "raw_chunks",
    "similarity_matrix",
    "uniform_sources",
    "validate_partition",
]
