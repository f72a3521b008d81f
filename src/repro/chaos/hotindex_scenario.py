"""Hot-index partial migration under live ingest (the secure tier's
cutover protocol, stressed the way :mod:`migration_scenario` stresses
ring migration).

A two-ring secure :class:`DurableEFDedupCluster` ingests a seeded segment
on ring 0, then migrates the hot slice of the cloud key index to the
edge and — while the dual-lookup window is open — ring 1 re-ingests the
same content (the cross-ring claims the hot slice exists to serve),
a file is deleted and GC-swept mid-window (invalidating edge and cloud
copies of its keys), and the same content is re-uploaded so the
timestamp-bounded delta pass at :meth:`close_hot_index_window` has real
work to do. A third segment lands after commit.

The acceptance check mirrors the other chaos scenarios: the final dedup
ratio must match a migration-free run of the *identical* schedule (same
seeds, same delete, same sweep) bit-for-bit. That holds by construction
— the edge hot index only ever holds entries the cloud index also holds,
so migration may move lookups, never verdicts.

Exposed as ``repro chaos hot-index`` on the CLI and measured by
``benchmarks/bench_secure.py``.
"""

from __future__ import annotations

from repro.chaos.report import ScenarioReport
from repro.system.reference import (
    reference_cluster,
    round_robin,
    seeded_pool_workload,
)


def _run_hotindex(
    nodes: int,
    files_per_node: int,
    file_kb: int,
    seed: int,
    hot_size: int,
    migrate: bool,
    events: list[str],
) -> tuple[float, dict]:
    """One full ingest → migrate → (sweep mid-window) → commit pass;
    returns the final dedup ratio and what the pass measured."""
    half = nodes // 2
    # No simulated WAN round trip (wan_rtt_s stays 0): the scenario gates
    # on verdicts, and benchmarks/bench_secure.py measures the latency win.
    with reference_cluster(
        nodes,
        [range(half), range(half, nodes)],
        durable=True,
        secure=True,
        hot_index_size=hot_size,
    ) as cluster:
        # Segment 1: ring 0 uploads — every unique chunk is claimed
        # (popularity observed), sealed, and key-registered. One extra
        # file of workload-unique bytes is the mid-window GC victim.
        seg1 = round_robin(
            seeded_pool_workload(half, files_per_node, file_kb, seed=seed)
        )
        for i, (nid, data) in enumerate(seg1):
            cluster.ingest_file(nid, f"s1-{i}", data)
        victim_data = seeded_pool_workload(1, 1, file_kb, seed=seed + 7)[
            "edge-0"
        ][0]
        cluster.ingest_file("edge-0", "victim", victim_data)

        streamed = 0
        if migrate:
            report = cluster.migrate_hot_index()
            streamed = report.entries_streamed
            events.append("migrate:window-open")

        # Window: ring 1 re-ingests segment 1 (cross-ring claims land on
        # the migrated hot slice). Mid-window, the victim is deleted and
        # swept — its keys vanish from vault, cloud index, and edge copy —
        # then re-uploaded, so commit must delta-restream them.
        mid = len(seg1) // 2
        for i, (nid, data) in enumerate(seg1):
            if i == mid:
                cluster.delete_file("victim")
                cluster.gc_sweep()
                events.append("sweep:victim@window-mid")
                cluster.ingest_file("edge-0", "victim-again", victim_data)
                events.append("reupload:victim@window-mid")
            peer = f"edge-{int(nid.split('-')[1]) + half}"
            cluster.ingest_file(peer, f"s2-{i}", data)

        restreamed = 0
        if migrate:
            report = cluster.close_hot_index_window()
            restreamed = report.entries_restreamed
            events.append("close:window-commit")

        # Segment 3: every node, fresh seed — post-commit steady state.
        for i, (nid, data) in enumerate(
            round_robin(seeded_pool_workload(nodes, 1, file_kb, seed=seed + 2))
        ):
            cluster.ingest_file(nid, f"s3-{i}", data)

        return cluster.combined_stats().dedup_ratio, {
            "state": cluster.secure.hotindex.state,
            "edge_hits": cluster.secure.hotindex.edge_hits,
            "entries_streamed": streamed,
            "entries_restreamed": restreamed,
            "secure": cluster.secure.metrics(),
        }


def run_hotindex_scenario(
    nodes: int = 4,
    files_per_node: int = 2,
    file_kb: int = 8,
    seed: int = 7,
    hot_size: int = 64,
) -> ScenarioReport:
    """Run the hot-index migration scenario and its migration-free twin."""
    if nodes < 4 or nodes % 2:
        raise ValueError(f"hot-index scenario needs an even node count >= 4, got {nodes}")
    shape = (nodes, files_per_node, file_kb, seed, hot_size)
    report = ScenarioReport(
        "hot-index", seed, nodes, (nodes // 2) * files_per_node * 2 + 2 + nodes
    )
    ratio, measured = _run_hotindex(*shape, True, report.events_fired)
    baseline, twin = _run_hotindex(*shape, False, [])
    report.record_ratio(ratio, baseline, "migration-free")
    report.record(
        "committed",
        measured["state"] == "COMMITTED",
        f"hot-index window ended in state {measured['state']}, not COMMITTED",
    )
    report.record(
        "edge_served_lookups",
        measured["edge_hits"] > 0,
        f"edge_hits={measured['edge_hits']}: the migrated hot slice answered "
        f"no claim",
    )
    report.record(
        "delta_pass_fired",
        measured["entries_restreamed"] > 0,
        f"entries_restreamed={measured['entries_restreamed']}: the keys swept "
        f"and re-uploaded mid-window were not re-streamed at commit",
    )
    report.measurements.update(measured, baseline_secure=twin["secure"])
    return report
