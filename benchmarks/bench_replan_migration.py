"""Live-migration benchmark: what does a replan cutover cost a running
cluster?

Two entry points:

- under pytest (``pytest benchmarks/ --benchmark-only``) it times one
  seeded live migration end to end — a smoke check that the cutover
  protocol holds together at benchmark scale;
- as a script (``python benchmarks/bench_replan_migration.py``) it
  deploys an asyncio cluster on one plan, ingests a segment, live-migrates
  to a new plan, and measures the migration wall time (carried-shard
  stream + delta close) plus the dual-lookup window's ingest-throughput
  overhead versus the committed steady state. It also runs the
  migrate-under-faults chaos scenario so the JSON records crash recovery
  mid-window. Writes ``BENCH_replan.json`` at the repo root; every row
  must preserve dedup exactness or the script exits nonzero. ``--quick``
  shrinks the workload for CI.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.chaos import run_migration_scenario
from repro.chaos.migration_scenario import default_migration_partitions
from repro.system.cluster import EFDedupCluster
from repro.system.reference import (
    reference_cluster,
    round_robin,
    seeded_pool_workload,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _timed_ingest(cluster: EFDedupCluster, schedule) -> tuple[float, int]:
    started = time.perf_counter()
    total = 0
    for node_id, data in schedule:
        cluster.ingest(node_id, data)
        total += len(data)
    return time.perf_counter() - started, total


def _mb_s(seconds: float, nbytes: int) -> float:
    return nbytes / 1e6 / seconds if seconds > 0 else 0.0


def bench_live_migration(
    nodes: int, files_per_node: int, file_kb: int, seed: int, gamma: int = 2
) -> dict:
    """One seeded ingest → migrate → window → commit pass, phase-timed."""
    old, new = default_migration_partitions(nodes)
    live = dict(
        replication_factor=gamma, transport="asyncio",
        rpc_timeout_s=0.5, rpc_attempts=5,
    )

    def segment(offset: int):
        return round_robin(
            seeded_pool_workload(nodes, files_per_node, file_kb, seed=seed + offset)
        )

    with reference_cluster(nodes, old, **live) as cluster:
        pre_s, pre_b = _timed_ingest(cluster, segment(0))
        migrator = cluster.migrate(new)
        at_cutover = cluster.combined_stats()
        window_s, window_b = _timed_ingest(cluster, segment(1))
        migrator.close_window()
        post_s, post_b = _timed_ingest(cluster, segment(2))
        mig = migrator.report
        ratio = cluster.combined_stats().dedup_ratio
        end = cluster.combined_stats()
        live_unique = end.unique_chunks - at_cutover.unique_chunks
        live_raw = end.raw_chunks - at_cutover.raw_chunks

    # The exactness bar: everything ingested AFTER the cutover must dedup
    # exactly as a fresh deployment of the new plan would. (Pre-migration
    # traffic deduped under the old plan by design — rings differ, so the
    # all-time totals legitimately do too.)
    with reference_cluster(nodes, new, **live) as fresh:
        for offset in (1, 2):
            for node_id, data in segment(offset):
                fresh.ingest(node_id, data)
        fstats = fresh.combined_stats()
        exact = (
            fstats.unique_chunks == live_unique and fstats.raw_chunks == live_raw
        )

    window_mb_s = _mb_s(window_s, window_b)
    post_mb_s = _mb_s(post_s, post_b)
    overhead = (
        (post_mb_s - window_mb_s) / post_mb_s * 100.0 if post_mb_s > 0 else 0.0
    )
    return {
        "nodes": nodes,
        "nodes_moved": mig.n_moved,
        "entries_streamed": mig.entries_streamed,
        "entries_restreamed": mig.entries_restreamed,
        "stream_wall_ms": round(mig.stream_wall_s * 1e3, 2),
        "close_wall_ms": round(mig.close_wall_s * 1e3, 2),
        "migration_wall_ms": round((mig.stream_wall_s + mig.close_wall_s) * 1e3, 2),
        "dual_lookup_probes": mig.dual_lookup_probes,
        "dual_lookup_hits": mig.dual_lookup_hits,
        "pre_migration_mb_s": round(_mb_s(pre_s, pre_b), 2),
        "window_mb_s": round(window_mb_s, 2),
        "post_commit_mb_s": round(post_mb_s, 2),
        "dual_lookup_overhead_pct": round(overhead, 1),
        "dedup_ratio": round(ratio, 6),
        "post_cutover_unique_chunks": live_unique,
        "post_cutover_raw_chunks": live_raw,
        "fresh_deploy_unique_chunks": fstats.unique_chunks,
        "fresh_deploy_raw_chunks": fstats.raw_chunks,
        "exact": exact,
    }


def run(nodes: int, files_per_node: int, file_kb: int, seed: int) -> dict:
    row = bench_live_migration(nodes, files_per_node, file_kb, seed)
    print(f"live-migration  : wall {row['migration_wall_ms']:7.1f}ms "
          f"(stream {row['stream_wall_ms']:.1f} + close {row['close_wall_ms']:.1f})  "
          f"window {row['window_mb_s']:6.1f} MB/s vs "
          f"post-commit {row['post_commit_mb_s']:6.1f} MB/s "
          f"({row['dual_lookup_overhead_pct']:+.1f}% overhead)  "
          f"{'EXACT' if row['exact'] else 'DRIFTED'}")
    chaos = run_migration_scenario(
        nodes=nodes, files_per_node=files_per_node, file_kb=file_kb, seed=seed
    )
    chaos_row = {
        "passed": chaos.passed,
        "recovery_time_ms": round(chaos.measurements["recovery_time_s"] * 1e3, 2),
        "dedup_ratio": round(chaos.dedup_ratio, 6),
        "baseline_ratio": round(chaos.baseline_ratio, 6),
        "dual_lookup_probes": chaos.measurements["migration"]["dual_lookup_probes"],
    }
    print(f"under-faults    : recovery {chaos_row['recovery_time_ms']:7.1f}ms  "
          f"{'PASS' if chaos.passed else 'FAIL — ' + '; '.join(chaos.violations)}")
    return {
        "nodes": nodes,
        "replication_factor": 2,
        "files_per_node": files_per_node,
        "file_kb": file_kb,
        "seed": seed,
        "live_migration": row,
        "migrate_under_faults": chaos_row,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small workload, no JSON output unless --out is given (CI smoke)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"output JSON path (default: {REPO_ROOT / 'BENCH_replan.json'})",
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    files = 2 if args.quick else 6
    file_kb = 8 if args.quick else 64
    report = run(nodes=6, files_per_node=files, file_kb=file_kb, seed=args.seed)

    problems = []
    if not report["live_migration"]["exact"]:
        problems.append("live migration diverged from a fresh deployment")
    if not report["migrate_under_faults"]["passed"]:
        problems.append("migrate-under-faults failed (its FAIL line says why)")
    if problems:
        raise SystemExit(f"benchmark regression: {'; '.join(problems)}")

    out = args.out
    if out is None and not args.quick:
        out = REPO_ROOT / "BENCH_replan.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")


# -- pytest-benchmark smoke (collected with the other micro benchmarks) -- #


def test_live_migration_cutover(benchmark):
    def one_run():
        return bench_live_migration(nodes=6, files_per_node=2, file_kb=8, seed=7)

    row = benchmark.pedantic(one_run, rounds=1, iterations=1)
    assert row["exact"]
    assert row["nodes_moved"] > 0


if __name__ == "__main__":
    main()
