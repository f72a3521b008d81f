"""Restore-path benchmark: what the durable data plane costs to read back.

Two entry points:

- under pytest (``pytest benchmarks/ --benchmark-only``) it times one
  seeded restore-under-zone-failure chaos ladder end to end;
- as a script (``python benchmarks/bench_restore.py``) it boots a
  :class:`DurableEFDedupCluster` on the asyncio transport, ingests a
  seeded workload, and measures three read-path regimes:

  * **healthy** — every restore served from the ring-local payload
    shelves (edge locality);
  * **degraded** — edge copies evicted and ``m`` cloud-tier zones failed,
    so every byte comes from k-of-n Reed–Solomon reconstruction;
  * **gc sweep** — delete half the files and time the refcount sweep
    (index tombstones + tier reclaim).

  Every restored file must be byte-identical to what was ingested and the
  sweep must orphan nothing — the script exits nonzero otherwise, and
  ``--quick`` additionally enforces conservative throughput floors so CI
  catches an order-of-magnitude read-path regression. Writes
  ``BENCH_restore.json`` at the repo root (skipped under ``--quick``
  unless ``--out`` is given).
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.system.reference import (
    reference_cluster,
    round_robin,
    seeded_pool_workload,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

# --quick floors: an order of magnitude under observed localhost numbers,
# so CI flags a collapsed read path without flaking on slow runners.
QUICK_HEALTHY_FLOOR_MB_S = 1.0
QUICK_DEGRADED_FLOOR_MB_S = 0.5


def _timed_restore_pass(cluster, files: dict[str, bytes]) -> tuple[float, int]:
    """Restore every file; return (MB/s, mismatches)."""
    mismatches = 0
    total = 0
    t0 = time.perf_counter()
    for fid, data in files.items():
        out = cluster.restore_file(fid)
        total += len(out)
        if out != data:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    return (total / 1e6) / max(elapsed, 1e-9), mismatches


def run(
    nodes: int, files_per_node: int, file_kb: int, seed: int,
    k: int = 3, m: int = 2, gamma: int = 2,
) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cluster = reference_cluster(
            nodes,
            [range(nodes)],
            durable=True,
            journal_dir=tmp,
            replication_factor=gamma,
            transport="asyncio",
            rpc_timeout_s=0.5,
            rpc_attempts=5,
            ec_data_shards=k,
            ec_parity_shards=m,
        )
        try:
            # Two segments from *different* pools: "hot" files share chunks
            # with each other (the dedup-friendly working set) while "cold"
            # files bring their own — deleting the cold segment later gives
            # the GC sweep real zero-ref chunks to reclaim.
            files: dict[str, bytes] = {}
            doomed: list[str] = []
            t0 = time.perf_counter()
            for tag, seg_seed in (("hot", seed), ("cold", seed + 1)):
                schedule = round_robin(
                    seeded_pool_workload(
                        nodes, files_per_node, file_kb, seed=seg_seed
                    )
                )
                for i, (nid, data) in enumerate(schedule):
                    fid = f"{tag}-{i}"
                    files[fid] = data
                    if tag == "cold":
                        doomed.append(fid)
                    cluster.ingest_file(nid, fid, data)
            ingest_s = time.perf_counter() - t0
            logical_mb = sum(len(d) for d in files.values()) / 1e6

            healthy_mb_s, healthy_bad = _timed_restore_pass(cluster, files)

            # Degrade: no edge copies, m zones dark — pure k-of-n reads.
            evicted = sum(r.content.clear() for r in cluster.rings)
            for z in range(m):
                cluster.fail_zone(z)
            degraded_mb_s, degraded_bad = _timed_restore_pass(cluster, files)
            for z in range(m):
                cluster.recover_zone(z)

            # GC: delete the cold segment and time the sweep.
            for fid in doomed:
                cluster.delete_file(fid)
                del files[fid]
            t1 = time.perf_counter()
            sweep = cluster.gc_sweep()
            sweep_s = time.perf_counter() - t1
            _, survivor_bad = _timed_restore_pass(cluster, files)

            return {
                "nodes": nodes,
                "files": len(files) + len(doomed),
                "file_kb": file_kb,
                "logical_mb": round(logical_mb, 3),
                "rs_k": k,
                "rs_m": m,
                "replication_factor": gamma,
                "seed": seed,
                "ingest_mb_s": round(logical_mb / max(ingest_s, 1e-9), 2),
                "healthy_restore_mb_s": round(healthy_mb_s, 2),
                "degraded_restore_mb_s": round(degraded_mb_s, 2),
                "edge_copies_evicted": evicted,
                "mismatches": healthy_bad + degraded_bad + survivor_bad,
                "files_deleted": len(doomed),
                "sweep_s": round(sweep_s, 4),
                "sweep_chunks": sweep.swept,
                "sweep_chunks_per_s": round(sweep.swept / max(sweep_s, 1e-9), 1),
                "sweep_reclaimed_bytes": sweep.reclaimed_payload_bytes,
                "sweep_orphans": sweep.orphans_adopted,
                "under_replicated_after_recover":
                    cluster.tier.under_replicated_stripes,
            }
        finally:
            cluster.shutdown()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small workload with CI throughput floors; no JSON output "
        "unless --out is given",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"output JSON path (default: {REPO_ROOT / 'BENCH_restore.json'})",
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    files = 3 if args.quick else 8
    file_kb = 16 if args.quick else 64
    report = run(nodes=3, files_per_node=files, file_kb=file_kb, seed=args.seed)

    print(f"ingest   {report['ingest_mb_s']:7.1f} MB/s  "
          f"({report['files']} files, {report['logical_mb']} MB logical)")
    print(f"restore  {report['healthy_restore_mb_s']:7.1f} MB/s healthy "
          f"(edge shelves)")
    print(f"restore  {report['degraded_restore_mb_s']:7.1f} MB/s degraded "
          f"(edge evicted, {report['rs_m']} zones down, "
          f"k-of-n reconstruction)")
    print(f"gc sweep {report['sweep_chunks']} chunks in {report['sweep_s']}s "
          f"({report['sweep_chunks_per_s']:.0f} chunks/s, "
          f"{report['sweep_reclaimed_bytes']} bytes reclaimed)")

    if report["mismatches"]:
        raise SystemExit(
            f"benchmark regression: {report['mismatches']} restored file(s) "
            "differed from what was ingested"
        )
    if report["sweep_orphans"] or report["under_replicated_after_recover"]:
        raise SystemExit(
            f"benchmark regression: sweep_orphans={report['sweep_orphans']} "
            f"under_replicated={report['under_replicated_after_recover']}"
        )
    if args.quick:
        if report["healthy_restore_mb_s"] < QUICK_HEALTHY_FLOOR_MB_S:
            raise SystemExit(
                f"benchmark regression: healthy restore "
                f"{report['healthy_restore_mb_s']} MB/s under floor "
                f"{QUICK_HEALTHY_FLOOR_MB_S}"
            )
        if report["degraded_restore_mb_s"] < QUICK_DEGRADED_FLOOR_MB_S:
            raise SystemExit(
                f"benchmark regression: degraded restore "
                f"{report['degraded_restore_mb_s']} MB/s under floor "
                f"{QUICK_DEGRADED_FLOOR_MB_S}"
            )

    out = args.out
    if out is None and not args.quick:
        out = REPO_ROOT / "BENCH_restore.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")


# -- pytest-benchmark smoke (collected with the other micro benchmarks) -- #


def test_restore_under_zone_failure(benchmark):
    from repro.chaos import run_restore_scenario

    def one_run():
        return run_restore_scenario(nodes=3, files_per_node=2, file_kb=16, seed=7)

    report = benchmark.pedantic(one_run, rounds=1, iterations=1)
    assert report.passed


if __name__ == "__main__":
    main()
