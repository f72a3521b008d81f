"""Restore-under-zone-failure: the data plane's durability contract, live.

The other chaos scenarios verify that *index* state survives faults. This
one verifies the *payload* path: a :class:`DurableEFDedupCluster` ingests
a seeded workload over the asyncio transport, then the scenario walks the
full failure ladder —

1. healthy restores (edge shelves serve, byte-exact);
2. fail ``m`` cloud-tier zones, keep ingesting (degraded stripes, no
   parity), evict every edge shelf, and restore again — every byte now
   comes from k-of-n Reed–Solomon reconstruction;
3. recover the zones and require the backfill to clear
   ``under_replicated_stripes`` to zero and every stripe to match a fresh encode;
4. delete half the files, run the refcount GC sweep, and require the
   survivors to still restore byte-exactly (no premature deletion), zero
   orphaned tier chunks, and the post-sweep ring invariants
   (``no_unique_chunk_lost`` holds because the sweep tombstones the index
   and drops the cloud copy together).

Exposed as ``repro chaos restore-under-zone-failure`` on the CLI and
measured by ``benchmarks/bench_restore.py``.
"""

from __future__ import annotations

import tempfile
import time

from repro.chaos.invariants import check_invariants
from repro.chaos.report import ScenarioReport
from repro.system.reference import (
    reference_cluster,
    round_robin,
    seeded_pool_workload,
)

# The cloud tier's code, RS(k=3, m=2) as `repro restore` defaults to; the
# ladder fails m zones — as many as the code tolerates.
EC_DATA_SHARDS = 3
EC_PARITY_SHARDS = 2


def run_restore_scenario(
    nodes: int = 3,
    files_per_node: int = 4,
    file_kb: int = 32,
    seed: int = 7,
    gamma: int = 2,
    lookup_batch: int = 16,
    data_dir: str | None = None,
) -> ScenarioReport:
    """Drive one full ingest → zone-failure → restore → GC ladder.

    ``data_dir`` overrides the refcount journal location (default: a
    temp dir, removed afterwards). Deterministic for a given seed.
    """
    events: list[str] = []
    started = time.perf_counter()
    # One ring: the ladder stresses the payload plane, not partitioning,
    # and the post-sweep invariant check is ring-scoped.
    with tempfile.TemporaryDirectory() as tmp, reference_cluster(
        nodes,
        [range(nodes)],
        durable=True,
        journal_dir=data_dir if data_dir is not None else tmp,
        replication_factor=gamma,
        lookup_batch=lookup_batch,
        transport="asyncio",
        rpc_timeout_s=0.5,
        rpc_attempts=5,
        ec_data_shards=EC_DATA_SHARDS,
        ec_parity_shards=EC_PARITY_SHARDS,
    ) as cluster:
        files: dict[str, bytes] = {}

        def ingest_segment(tag: str, n_files: int, seg_seed: int) -> None:
            schedule = round_robin(
                seeded_pool_workload(nodes, n_files, file_kb, seed=seg_seed)
            )
            for i, (nid, data) in enumerate(schedule):
                fid = f"{tag}-{i}"
                files[fid] = data
                cluster.ingest_file(nid, fid, data)

        def count_mismatches() -> int:
            return sum(
                1 for fid, data in files.items()
                if cluster.restore_file(fid) != data
            )

        # 1. Healthy: edge shelves serve every restore.
        ingest_segment("a", files_per_node, seed)
        healthy_mismatches = count_mismatches()
        events.append(f"ingest:{len(files)}-files")

        # 2. Fail m zones, ingest more (degraded stripes), evict the
        # edge, and restore purely from k-of-n reconstruction.
        down = list(range(EC_PARITY_SHARDS))
        for z in down:
            cluster.fail_zone(z)
        events.append(f"fail-zones:{down}")
        ingest_segment("b", max(1, files_per_node // 2), seed + 1)
        degraded_stripes_seen = cluster.tier.under_replicated_stripes
        for ring in cluster.rings:
            ring.content.clear()
        events.append("evict-edge")
        degraded_mismatches = count_mismatches()

        # 3. Recover: the backfill must rebuild every degraded stripe.
        for z in down:
            cluster.recover_zone(z)
        events.append(f"recover-zones:{down}")
        under_replicated = cluster.tier.under_replicated_stripes
        inconsistent = cluster.tier.inconsistent_stripes()

        # 4. Delete half, sweep, and the survivors must be untouched.
        doomed = sorted(files)[: len(files) // 2]
        for fid in doomed:
            cluster.delete_file(fid)
            del files[fid]
        sweep = cluster.gc_sweep()
        events.append(f"delete:{len(doomed)}-files+sweep")
        premature = 0
        post_sweep_mismatches = 0
        for fid, data in files.items():
            try:
                if cluster.restore_file(fid) != data:
                    post_sweep_mismatches += 1
            except Exception:
                premature += 1

        report = ScenarioReport(
            "restore-under-zone-failure", seed, nodes,
            len(files) + len(doomed), events,
        )
        for name, mismatches, served_by in (
            ("healthy_restores_exact", healthy_mismatches, "the edge shelves"),
            ("degraded_restores_exact", degraded_mismatches,
             f"k-of-n reconstruction with zones {down} down"),
            ("post_sweep_restores_exact", post_sweep_mismatches,
             "the tier after the GC sweep"),
        ):
            report.record(
                name,
                mismatches == 0,
                f"{mismatches} file(s) restored from {served_by} differed "
                f"from what was ingested",
            )
        report.record(
            "no_premature_deletion",
            premature == 0,
            f"{premature} surviving file(s) could not be restored after "
            f"the sweep: chunks they still reference were reclaimed",
        )
        report.record(
            "ingested_degraded",
            degraded_stripes_seen > 0,
            f"no stripe was written degraded with zones {down} down, so "
            f"the backfill check below proves nothing",
        )
        report.record(
            "backfill_complete",
            under_replicated == 0,
            f"{under_replicated} stripe(s) still under-replicated after "
            f"zones {down} recovered",
        )
        report.record(
            "stripes_match_fresh_encode",
            not inconsistent,
            f"{len(inconsistent)} stripe(s) differ from a fresh encode or "
            f"share a zone, first {inconsistent[:3]}",
        )
        report.record(
            "no_orphans_adopted",
            sweep.orphans_adopted == 0,
            f"the sweep found {sweep.orphans_adopted} tier chunk(s) no "
            f"refcount knew about",
        )
        report.merge(check_invariants(cluster.rings[0]))
        report.measurements.update(
            healthy_mismatches=healthy_mismatches,
            degraded_mismatches=degraded_mismatches,
            post_sweep_mismatches=post_sweep_mismatches,
            premature_deletions=premature,
            under_replicated_after_recover=under_replicated,
            inconsistent_stripes=len(inconsistent),
            degraded_stripes_seen=degraded_stripes_seen,
            files_deleted=len(doomed),
            chunks_swept=sweep.swept,
            reclaimed_payload_bytes=sweep.reclaimed_payload_bytes,
            orphans_adopted=sweep.orphans_adopted,
            elapsed_s=time.perf_counter() - started,
            metrics={
                name: value
                for name, value in cluster.metrics_hub().collect().items()
                if name.startswith("content.")
            },
        )
        return report
