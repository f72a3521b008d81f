"""Safety invariants a D2-ring must hold after faults heal.

The checks encode what "survived the chaos" means for a dedup system:

- **claims conserved** — every raw chunk was classified exactly once:
  ``raw = unique + duplicate``, for counts and bytes;
- **uploads match claims** — every unique claim produced exactly one cloud
  upload (re-uploads after lost index state show up as redundant traffic,
  which is a cost, not a safety violation — but *missing* uploads are);
- **no unique chunk lost** — the ring index's key set and the cloud's
  stored fingerprint set are identical: an index claim without cloud bytes
  would break restore, a cloud chunk without an index entry means dedup
  state was silently dropped;
- **replicas converged** — after heal + repair, no key is under-replicated
  on alive nodes and a fresh anti-entropy pass streams zero keys.

Works against both transports (the one
:class:`~repro.kvstore.repair.ReplicaRepairer` verifies through whichever
the ring's store runs on).
"""

from __future__ import annotations

from repro.chaos.report import ScenarioReport
from repro.kvstore.repair import ReplicaRepairer
from repro.system.ring import D2Ring


def check_invariants(ring: D2Ring) -> ScenarioReport:
    """Verify the post-heal safety invariants of ``ring``.

    Call after every injected fault has healed (all members up); the
    convergence check runs its own anti-entropy pass first, so the caller
    does not need to repair beforehand. A scenario that runs the sweep as
    one of its steps :meth:`~ScenarioReport.merge`\\ s the result into its
    own report.
    """
    report = ScenarioReport("ring-invariants", nodes=len(ring.members))
    stats = ring.combined_stats()
    cloud = ring.cloud

    report.record(
        "chunk_claims_conserved",
        stats.raw_chunks == stats.unique_chunks + stats.duplicate_chunks,
        f"raw={stats.raw_chunks} != unique={stats.unique_chunks} "
        f"+ duplicate={stats.duplicate_chunks}",
    )
    report.record(
        "byte_claims_conserved",
        stats.unique_bytes <= stats.raw_bytes and stats.lookups == stats.raw_chunks,
        f"unique_bytes={stats.unique_bytes} > raw_bytes={stats.raw_bytes} "
        f"or lookups={stats.lookups} != raw_chunks={stats.raw_chunks}",
    )
    report.record(
        "uploads_match_unique_claims",
        stats.unique_chunks == cloud.received_chunks,
        f"unique claims={stats.unique_chunks} but cloud received "
        f"{cloud.received_chunks} uploads",
    )

    index_keys = frozenset(ring.store.unique_keys())
    cloud_keys = cloud.fingerprints()
    dangling = index_keys - cloud_keys
    dropped = cloud_keys - index_keys
    report.record(
        "no_unique_chunk_lost",
        not dangling and not dropped,
        f"{len(dangling)} index keys missing from the cloud, "
        f"{len(dropped)} cloud chunks missing from the index",
    )

    # Convergence: one pass to mop up, then a second pass must find every
    # pair of replicas already identical.
    repairer = ReplicaRepairer(ring.store)
    repairer.repair_all()
    verify = ReplicaRepairer(ring.store)
    second = verify.repair_all()
    report.record(
        "replicas_converged",
        second.synced_keys == 0,
        f"second anti-entropy pass still streamed {second.synced_keys} keys",
    )
    missing = verify.verify_replication()
    report.record(
        "fully_replicated",
        not missing,
        f"{len(missing)} keys under-replicated on alive nodes "
        f"(e.g. {missing[:3]})",
    )
    return report
