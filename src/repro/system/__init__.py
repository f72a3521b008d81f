"""The EF-dedup prototype (Sec. IV): Dedup Agents, D2-rings over a
distributed index, the central cloud, deployment strategies, and the
throughput experiment harness."""

from repro.system.agent import DedupAgent, LookupRecord, RingIndex
from repro.system.cloud import CentralCloudStore, CloudDedupService
from repro.system.cluster import EFDedupCluster
from repro.system.des_throughput import run_edge_rings_des
from repro.system.config import EFDedupConfig
from repro.system.migration import (
    PlanDiff,
    auto_migration_replanner,
    diff_plans,
    estimate_migration_cost,
)
from repro.system.replanner import ReplanDecision, RingReplanner, drift_model
from repro.system.ring import D2Ring
from repro.system.strategies import Strategy, run_strategy
from repro.system.throughput import (
    NodeTiming,
    ThroughputReport,
    Workloads,
    run_cloud_assisted,
    run_cloud_only,
    run_edge_rings,
)

__all__ = [
    "CentralCloudStore",
    "CloudDedupService",
    "D2Ring",
    "DedupAgent",
    "EFDedupCluster",
    "EFDedupConfig",
    "LookupRecord",
    "NodeTiming",
    "PlanDiff",
    "ReplanDecision",
    "RingReplanner",
    "RingIndex",
    "Strategy",
    "ThroughputReport",
    "Workloads",
    "auto_migration_replanner",
    "diff_plans",
    "drift_model",
    "estimate_migration_cost",
    "run_cloud_assisted",
    "run_cloud_only",
    "run_edge_rings",
    "run_edge_rings_des",
    "run_strategy",
]
