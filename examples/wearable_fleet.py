"""Wearable IoT fleet: the full estimation → partitioning workflow.

The paper's first workload: accelerometer traces from wearables, collected
at edge gateways. This example runs the pipeline a real operator would:

1. sample a few files from two gateways and *measure* ground-truth dedup
   ratios with the real engine (Algorithm 1's input),
2. fit the chunk-pool model (K, s_k, characteristic vectors) to those
   measurements and check the error against the paper's <4% claim,
3. use the fitted model's ratios to predict what collaborative dedup would
   save, then verify by deploying rings and ingesting for real.

Run:  python examples/wearable_fleet.py
"""

from repro.chunking import FixedSizeChunker
from repro.core.estimation import CharacteristicEstimator, observe_combinations
from repro.datasets import AccelerometerSource
from repro.dedup import DedupEngine
from repro.system import D2Ring, EFDedupConfig

CHUNK = 4096


def main() -> None:
    gateways = [
        AccelerometerSource(participant=0, size_jitter=0.4),
        AccelerometerSource(participant=1, size_jitter=0.4),
    ]

    # --- Step 1: measure ground truth on sampled files ------------------- #
    files_by_source = [[f.data for f in gw.files(4)] for gw in gateways]
    observations = observe_combinations(files_by_source, chunker=FixedSizeChunker(CHUNK))
    print(f"Measured {len(observations)} subset dedup ratios "
          f"(singles + cross-gateway pairs)")

    # --- Step 2: fit the chunk-pool model (Algorithm 1) ------------------ #
    estimator = CharacteristicEstimator(
        n_sources=2, n_pools=3, error_threshold=0.3, restarts=4, seed=42
    )
    fit = estimator.fit(observations)
    print(f"Fitted K={fit.n_pools} pools, sizes "
          f"{tuple(round(s) for s in fit.pool_sizes)}")
    print(f"Characteristic vectors:")
    for i, vec in enumerate(fit.vectors):
        print(f"  gateway-{i}: {tuple(round(p, 3) for p in vec)}")
    print(f"MSE = {fit.mse:.4f}  (paper threshold: 0.3)")
    print(f"Mean relative error = {fit.mean_relative_error * 100:.2f}%  "
          f"(paper: < 4%)\n")

    # --- Step 3: predict, then verify by running the system -------------- #
    # Prediction: how much would pairing the two gateways into one D2-ring
    # dedupe a day's upload (6 files each)?
    day_files = [[f.data for f in gw.files(6, start=4)] for gw in gateways]
    draws = [
        sum(len(data) // CHUNK for data in files) for files in day_files
    ]
    predicted = fit.predicted_ratio([draws[0], draws[1]])
    print(f"Model predicts a joint dedup ratio of {predicted:.2f}x "
          f"for tomorrow's {draws[0] + draws[1]} chunks")

    # Verification: deploy a 2-node ring and ingest for real.
    ring = D2Ring(
        "gateway-ring",
        ["gw-0", "gw-1"],
        config=EFDedupConfig(chunk_size=CHUNK, replication_factor=2),
    )
    for node, files in zip(ring.members, day_files):
        for data in files:
            ring.ingest(node, data)
    measured = ring.dedup_ratio
    error = abs(predicted - measured) / measured * 100
    print(f"Deployed ring measured {measured:.2f}x  "
          f"(prediction off by {error:.1f}%)")

    # Compare with NOT collaborating (each gateway dedups alone).
    solo_unique = 0
    solo_raw = 0
    for files in day_files:
        engine = DedupEngine(chunker=FixedSizeChunker(CHUNK))
        for data in files:
            engine.dedup_bytes(data)
        solo_unique += engine.stats.unique_bytes
        solo_raw += engine.stats.raw_bytes
    ring_unique = ring.combined_stats().unique_bytes
    saved = (solo_unique - ring_unique) / 1e6
    print(f"\nCollaboration saves {saved:.2f} MB of WAN traffic vs "
          f"per-gateway dedup ({solo_unique / 1e6:.2f} -> {ring_unique / 1e6:.2f} MB "
          f"on {solo_raw / 1e6:.2f} MB raw)")


if __name__ == "__main__":
    main()
