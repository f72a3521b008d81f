"""Migrate-under-faults: live ring migration with a node crash mid-window.

The other chaos scenarios stress a *static* ring. This one stresses the
cutover protocol itself: a deployed :class:`EFDedupCluster` ingests a
seeded segment, live-migrates to a new partition, and then — while the
dual-lookup window is open — a surviving member of a *source* ring is
killed and later restarted, with ingest continuing throughout.

The acceptance check mirrors :mod:`repro.chaos.runner`: the final dedup
ratio must match a fault-free run of the *identical* migration (same
seeds, same plans, no kill) bit-for-bit. That holds because the
timestamp-bounded dual-lookup probe reads *all* alive replicas of each
key, so with replication factor gamma >= 2 a single crashed source node
never changes a verdict — faults may cost latency, never correctness.

Exposed as ``repro chaos migrate-under-faults`` on the CLI and measured
by ``benchmarks/bench_replan_migration.py``.
"""

from __future__ import annotations

import time

from repro.chaos.report import ScenarioReport
from repro.system.reference import (
    reference_cluster,
    round_robin,
    seeded_pool_workload,
)


def default_migration_partitions(nodes: int) -> tuple[list[list[int]], list[list[int]]]:
    """Two balanced rings, then move the last member of ring-0 to ring-1.

    For 6 nodes: ``[[0,1,2],[3,4,5]] -> [[0,1],[2,3,4,5]]`` — one node
    moves, both rings survive, and ring-0 keeps a member to kill.
    """
    if nodes < 4:
        raise ValueError(f"migrate-under-faults needs >= 4 nodes, got {nodes}")
    half = nodes // 2
    old = [list(range(half)), list(range(half, nodes))]
    new = [list(range(half - 1)), list(range(half - 1, nodes))]
    return old, new


def _run_migration(
    nodes: int,
    files_per_node: int,
    file_kb: int,
    seed: int,
    gamma: int,
    lookup_batch: int,
    inject: bool,
    events: list[str],
) -> tuple[float, dict]:
    """One full ingest → migrate → (maybe crash) → commit pass; returns the
    final dedup ratio and what the pass measured.

    The kill target is the first member of the ring that loses a node
    (a *surviving* source-ring member, so its store keeps serving
    timestamp-bounded dual-lookup probes while one replica is dark).
    """
    old, new = default_migration_partitions(nodes)
    kill_node = f"edge-{old[0][0]}"

    def segment(offset: int):
        return round_robin(
            seeded_pool_workload(nodes, files_per_node, file_kb, seed=seed + offset)
        )

    recovery_s = 0.0
    with reference_cluster(
        nodes,
        old,
        replication_factor=gamma,
        lookup_batch=lookup_batch,
        transport="asyncio",
        rpc_timeout_s=0.5,
        rpc_attempts=5,
    ) as cluster:
        for nid, data in segment(0):
            cluster.ingest(nid, data)

        migrator = cluster.migrate(new)
        ring = cluster.ring_for(kill_node)
        if inject:
            ring.crash_node(kill_node)
            events.append(f"kill:{kill_node}@window-open")

        window = segment(1)
        restart_at = len(window) // 2
        for i, (nid, data) in enumerate(window):
            if inject and i == restart_at:
                started = time.perf_counter()
                ring.restart_node(kill_node)
                recovery_s = time.perf_counter() - started
                events.append(f"restart:{kill_node}@window-mid")
            cluster.ingest(nid, data)
        migrator.close_window()

        for nid, data in segment(2):
            cluster.ingest(nid, data)

        return cluster.combined_stats().dedup_ratio, {
            "state": migrator.state,
            "recovery_time_s": recovery_s,
            "migration": cluster.migration_metrics(),
        }


def run_migration_scenario(
    nodes: int = 6,
    files_per_node: int = 2,
    file_kb: int = 8,
    seed: int = 7,
    gamma: int = 2,
    lookup_batch: int = 16,
) -> ScenarioReport:
    """Run the migrate-under-faults scenario and its fault-free twin."""
    if gamma < 2:
        raise ValueError(
            f"migrate-under-faults needs gamma >= 2 to survive the crash, "
            f"got {gamma}"
        )
    shape = (nodes, files_per_node, file_kb, seed, gamma, lookup_batch)
    report = ScenarioReport(
        "migrate-under-faults", seed, nodes, nodes * files_per_node * 3
    )
    ratio, measured = _run_migration(*shape, True, report.events_fired)
    baseline, twin = _run_migration(*shape, False, [])
    report.record_ratio(ratio, baseline, "fault-free migration")
    report.record(
        "committed",
        measured["state"] == "COMMITTED",
        f"migration ended in state {measured['state']}, not COMMITTED",
    )
    moved = measured["migration"]["nodes_moved"]
    report.record(
        "nodes_moved", moved > 0, f"migration.nodes_moved={moved:g}: no node moved"
    )
    report.measurements.update(measured, baseline_migration=twin["migration"])
    return report
