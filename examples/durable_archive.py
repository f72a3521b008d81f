"""Durable edge-to-cloud archive: erasure coding, failure detection, repair.

Exercises the reproduction's "operations" subsystems — the paper's
future-work items built out in this library:

1. an edge D2-ring dedups camera frames and ships unique chunks to a cloud
   archive that stripes every chunk RS(4,2) across 8 failure zones
   (1.5× storage for 2-loss tolerance, vs 2× for 1-loss replication);
2. two zones burn down; the archive keeps serving and then re-protects
   itself with shard repair;
3. on the edge side, a phi-accrual failure detector notices a silent ring
   member, the store routes around it, and Merkle anti-entropy re-syncs the
   member when it returns.

Run:  python examples/durable_archive.py
"""

from repro.datasets import TrafficVideoSource
from repro.erasure import ErasureCodedChunkStore
from repro.kvstore import HeartbeatMonitor, PhiAccrualDetector, ReplicaRepairer
from repro.system import D2Ring, EFDedupConfig


def main() -> None:
    config = EFDedupConfig(chunk_size=4096, replication_factor=2)
    ring = D2Ring("cams", ["cam-0", "cam-1", "cam-2", "cam-3"], config=config)
    archive = ErasureCodedChunkStore(data_shards=4, parity_shards=2, n_zones=8)

    # --- 1. dedup at the edge, erasure-code in the cloud ----------------- #
    cameras = [TrafficVideoSource(camera=i, fleet_seed=0) for i in range(4)]
    fingerprints: list[str] = []
    for cam, node in zip(cameras, ring.members):
        for frame_idx in range(4):
            result = ring.ingest(node, cam.generate_file(frame_idx).data)
            fingerprints.extend(result.unique_fingerprints)
    # Forward the ring's unique chunks into the erasure-coded archive.
    for fp, size in list(ring.cloud._chunks.items()):
        archive.put_chunk(fp, b"\x00" * size)  # content placeholder per chunk

    stats = ring.combined_stats()
    print(f"Edge ring deduped {stats.raw_bytes / 1e6:.1f} MB down to "
          f"{stats.unique_bytes / 1e6:.2f} MB ({stats.dedup_ratio:.1f}x)")
    print(f"Archive stores {archive.stored_chunks} chunks at "
          f"{archive.storage_overhead:.2f}x overhead "
          f"(replication r=2 would cost 2.00x)\n")

    # --- 2. two zones fail; archive survives and repairs ----------------- #
    print("Zones 0 and 1 fail...")
    archive.fail_zone(0)
    archive.fail_zone(1)
    probe = fingerprints[0]
    readable = archive.get_chunk(probe) is not None
    print(f"  chunk {probe[:12]}… still readable: {readable}")
    rebuilt = sum(archive.repair_chunk(fp) for fp in fingerprints[:50])
    print(f"  repair rebuilt {rebuilt} shards onto the surviving zones\n")

    # --- 3. silent ring member: detect, route around, re-sync ------------ #
    print("cam-3 goes silent at the edge...")
    monitor = HeartbeatMonitor(ring.store, PhiAccrualDetector(threshold=8))
    for t in range(40):
        for node in ring.members:
            if node != "cam-3" or t < 10:  # cam-3 stops beating at t=10
                monitor.observe(node, float(t))
    monitor.sweep(40.0)
    print(f"  detector verdicts: down={[n for n in ring.members if not ring.store.is_up(n)]}")

    # The ring keeps working while cam-3 is out.
    result = ring.ingest("cam-0", cameras[0].generate_file(99).data)
    print(f"  ring still dedups: {result.stats.raw_chunks} chunks processed")

    # cam-3 returns; anti-entropy closes any gap hints missed.
    monitor.observe("cam-3", 41.0)
    monitor.sweep(41.5)
    repairer = ReplicaRepairer(ring.store)
    repairer.repair_all()
    missing = repairer.verify_replication()
    print(f"  cam-3 back; under-replicated keys after anti-entropy: {len(missing)}")
    print(f"  (synced {repairer.stats.synced_keys} keys via "
          f"{repairer.stats.buckets_streamed} dirty Merkle buckets)")


if __name__ == "__main__":
    main()
