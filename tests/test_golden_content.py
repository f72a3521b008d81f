"""Golden content counters: one seeded durable run, recorded once, replayed
exactly.

Six nodes in two rings of three over an RS(3, 2) cloud tier. The script
ingests healthy, with one zone down (under-replicated stripes) and with
three down (every spill deferred), recovers and flushes, then fails two
zones, clears every edge shelf and restores every file — so each stripe
is decoded through one of the five survivor sets those two zones leave
under the tier's zone rotation — and finally recovers, deletes half the
files and sweeps. Every ``content.*`` and ``ring-*.content.*`` series
after each step, the sha256 of every restored file, the sweep report's
counts and a digest of every shard the tier holds must equal
``golden_content.json``, which was recorded before the tier encoded and
decoded a batch at a time — so a counter, a placement or a shard byte
that drifts with that change fails here.

Regenerate (only when a counter's meaning changes on purpose)::

    PYTHONPATH=src python tests/test_golden_content.py > tests/golden_content.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.dedup.recipes import RecipeError
from repro.system.reference import reference_cluster, seeded_pool_workload

GOLDEN = Path(__file__).with_name("golden_content.json")
NODES = 6
FILES_PER_STEP = 2
# Not in the recorded file: counted since the tier went batch-wise.
UNRECORDED = ("content.cloud_tier.gf_walk_bytes",)


def content_series(cluster) -> dict:
    out = {}
    for name, value in cluster.metrics_hub().collect().items():
        parts = name.split(".")
        if parts[0] == "content" or parts[1] == "content":
            if name not in UNRECORDED:
                out[name] = value["count"] if isinstance(value, dict) else value
    return dict(sorted(out.items()))


def tier_digest(tier) -> str:
    """sha256 over the tier's sorted (fingerprint, shard index, zone,
    shard bytes)."""
    held = sorted(
        (fingerprint, index, zone, data)
        for zone, shards in enumerate(tier._zones)
        for (fingerprint, index), data in shards.items()
    )
    digest = hashlib.sha256()
    for fingerprint, index, zone, data in held:
        digest.update(f"{fingerprint}:{index}:{zone}:{len(data)}:".encode())
        digest.update(data)
    return digest.hexdigest()


def run_script() -> dict:
    """The seeded run; returns everything the golden file pins."""
    workloads = seeded_pool_workload(NODES, 3 * FILES_PER_STEP, 24, seed=30, pool_blocks=96)
    files: dict[str, bytes] = {}
    steps: dict[str, dict] = {}
    with reference_cluster(
        NODES,
        [[0, 1, 2], [3, 4, 5]],
        durable=True,
        ec_data_shards=3,
        ec_parity_shards=2,
    ) as cluster:

        def ingest(step: int) -> None:
            for node, stream in workloads.items():
                for i in range(step * FILES_PER_STEP, (step + 1) * FILES_PER_STEP):
                    file_id = f"{node}/{i}"
                    # Trimmed so each file's last chunk is short: stripes
                    # of several lengths share the tier's batches.
                    data = stream[i][: len(stream[i]) - 211 * i - 1]
                    files[file_id] = data
                    cluster.ingest_file(node, file_id, data)

        ingest(0)
        steps["1-ingest"] = content_series(cluster)
        cluster.fail_zone(0)
        ingest(1)
        steps["2-one-zone-down"] = content_series(cluster)
        cluster.fail_zone(1)
        cluster.fail_zone(2)
        ingest(2)
        steps["3-three-zones-down"] = content_series(cluster)
        for zone in (0, 1, 2):
            cluster.recover_zone(zone)
        cluster.content_plane.flush()
        steps["4-recovered"] = content_series(cluster)
        digest_recovered = tier_digest(cluster.tier)
        # No read yet: every walk so far is a stored stripe's encode, k·s.
        walks = {
            "measured": cluster.tier.metrics()["gf_walk_bytes"],
            "k_s_per_stored_stripe": sum(
                3 * max(1, -(-meta.payload_length // 3))
                for meta in cluster.tier._meta.values()
            ),
        }
        cluster.fail_zone(1)
        cluster.fail_zone(3)
        for ring in cluster.rings:
            ring.content.clear()
        restored = {}
        for file_id in files:
            try:
                out = cluster.restore_file(file_id)
            except (RecipeError, ValueError) as exc:  # recorded, so the digests still compare
                restored[file_id] = type(exc).__name__
            else:
                restored[file_id] = hashlib.sha256(out).hexdigest()
        steps["5-degraded-restore"] = content_series(cluster)
        cluster.recover_zone(1)
        cluster.recover_zone(3)
        steps["6-recovered"] = content_series(cluster)
        for file_id in sorted(files)[::2]:
            cluster.delete_file(file_id)
        sweep = cluster.gc_sweep().as_dict()
        del sweep["elapsed_s"]
        steps["7-swept"] = content_series(cluster)
        digest_swept = tier_digest(cluster.tier)
    return {
        "series": steps,
        "restored_sha256": dict(sorted(restored.items())),
        "sweep": sweep,
        "tier_digest": {"recovered": digest_recovered, "swept": digest_swept},
        "gf_walk_bytes": walks,
    }


@pytest.fixture(scope="module")
def result() -> dict:
    return run_script()


def test_content_counters_equal_the_golden_file(result):
    golden = json.loads(GOLDEN.read_text())
    assert result["series"] == golden["series"]
    assert result["sweep"] == golden["sweep"]


def test_restored_files_and_tier_shards_equal_the_golden_file(result):
    golden = json.loads(GOLDEN.read_text())
    assert result["tier_digest"] == golden["tier_digest"]
    assert result["restored_sha256"] == golden["restored_sha256"]


def test_gf_walk_bytes_is_k_s_per_stored_stripe(result):
    walks = result["gf_walk_bytes"]
    assert walks["measured"] == walks["k_s_per_stored_stripe"] > 0


def test_the_run_exercises_every_path(result):
    series = result["series"]
    assert series["2-one-zone-down"]["content.cloud_tier.under_replicated_stripes"] > 0
    assert series["3-three-zones-down"]["content.plane.deferred_pending"] > 0
    assert series["4-recovered"]["content.plane.deferred_pending"] == 0
    assert series["4-recovered"]["content.cloud_tier.under_replicated_stripes"] == 0
    degraded = series["5-degraded-restore"]
    assert degraded["content.plane.tier_hits"] > 0
    assert degraded["content.plane.edge_hits"] == series["4-recovered"]["content.plane.edge_hits"]
    assert result["sweep"]["swept"] > 0


if __name__ == "__main__":
    recorded = run_script()
    del recorded["gf_walk_bytes"]  # asserted on its own, never recorded
    json.dump(recorded, sys.stdout, indent=1)
    sys.stdout.write("\n")
