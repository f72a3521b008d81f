"""Secure-tier benchmark: hot-index latency win and crypto overhead.

Two entry points:

- under pytest (``pytest benchmarks/ --benchmark-only``) it runs one
  short pass — a smoke check that the secure stack (convergent
  encryption, PoW claims, hot-index migration) holds together at
  benchmark scale;
- as a script (``python benchmarks/bench_secure.py``) it measures three
  things and writes ``BENCH_secure.json`` at the repo root:

  1. **hot-hash latency** — a zipf claim stream against the key index
     with a simulated WAN RTT on every cloud lookup, before and after
     the hot slice is migrated to the edge; the gate requires the
     migrated p50 to beat cloud-only (hot claims stop paying the RTT);
  2. **ratio exactness** — the full hot-index chaos scenario (migrate
     under ingest, GC sweep mid-window) must report a dedup ratio
     bit-for-bit equal to its migration-free twin;
  3. **crypto overhead** — end-to-end ingest MB/s of a secure cluster
     vs an identical plain one, plus the raw seal (convergent-encrypt)
     throughput; the gate floors secure ingest at 1 MB/s so a
     pathological crypto regression fails loudly.

The latency gate is relative and the throughput floor deliberately
loose, so both are machine-independent; the honest regression signal is
the speedup and overhead-ratio trend across checked-in
``BENCH_secure.json`` revisions.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path
from statistics import median

from repro.chaos import run_hotindex_scenario
from repro.secure import HotIndexManager, SecureCloudIndex, encrypt_convergent
from repro.system.reference import (
    reference_cluster,
    round_robin,
    seeded_pool_workload,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _zipf_stream(n_keys: int, length: int, s: float, seed: int) -> list[str]:
    """A zipf-popular fingerprint stream: rank-r key drawn ~ 1/r^s."""
    rng = random.Random(seed)
    fps = [f"fp-{i:06d}" for i in range(n_keys)]
    weights = [1.0 / (rank + 1) ** s for rank in range(n_keys)]
    return rng.choices(fps, weights=weights, k=length)


def bench_hot_latency(
    n_keys: int, stream_len: int, hot_size: int, wan_rtt_ms: float, seed: int
) -> dict:
    """p50/p95 lookup latency: cloud-only vs migrated hot slice."""
    stream = _zipf_stream(n_keys, stream_len, s=1.1, seed=seed)
    results = {}
    for mode in ("cloud-only", "edge-hot"):
        mgr = HotIndexManager(
            SecureCloudIndex(rtt_s=wan_rtt_ms / 1e3), hot_size=hot_size
        )
        for i in range(n_keys):
            mgr.insert(f"fp-{i:06d}", key_hex=f"{i:064x}")
        for fp in stream:
            mgr.observe(fp)  # popularity from the same zipf law
        if mode == "edge-hot":
            mgr.begin_migration()
            mgr.close_window()
        lat = []
        for fp in stream:
            t0 = time.perf_counter()
            mgr.lookup(fp)
            lat.append(time.perf_counter() - t0)
        lat.sort()
        results[mode] = {
            "p50_ms": median(lat) * 1e3,
            "p95_ms": lat[int(len(lat) * 0.95)] * 1e3,
            "total_s": sum(lat),
            "edge_hits": mgr.edge_hits,
            "cloud_lookups": mgr.cloud.lookups,
        }
    cloud, edge = results["cloud-only"], results["edge-hot"]
    speedup = cloud["p50_ms"] / max(edge["p50_ms"], 1e-9)
    print(
        f"latency: cloud-only p50={cloud['p50_ms']:.3f}ms "
        f"p95={cloud['p95_ms']:.3f}ms | edge-hot p50={edge['p50_ms']:.3f}ms "
        f"p95={edge['p95_ms']:.3f}ms ({edge['edge_hits']}/{len(stream)} "
        f"hot hits, p50 speedup {speedup:.1f}x)"
    )
    return {
        "n_keys": n_keys,
        "stream_len": stream_len,
        "hot_size": hot_size,
        "wan_rtt_ms": wan_rtt_ms,
        "zipf_s": 1.1,
        "cloud_only": cloud,
        "edge_hot": edge,
        "p50_speedup": speedup,
    }


def bench_crypto_overhead(files_per_node: int, file_kb: int, seed: int) -> dict:
    """End-to-end ingest MB/s, plain vs secure cluster, plus raw seal rate."""
    nodes = 4
    results = {}
    for mode in ("plain", "secure"):
        cluster = reference_cluster(
            nodes,
            [[0, 1], [2, 3]],
            durable=True,
            secure=(mode == "secure"),
            hot_index_size=64 if mode == "secure" else 0,
        )
        try:
            schedule = round_robin(
                seeded_pool_workload(nodes, files_per_node, file_kb, seed=seed)
            )
            total_mb = sum(len(d) for _, d in schedule) / 1e6
            t0 = time.perf_counter()
            for i, (nid, data) in enumerate(schedule):
                cluster.ingest_file(nid, f"f-{i}", data)
            elapsed = time.perf_counter() - t0
            results[mode] = {"mb": total_mb, "s": elapsed, "mb_s": total_mb / elapsed}
        finally:
            cluster.shutdown()

    # Raw seal throughput: keystream derivation + XOR, no cluster around it.
    rng = random.Random(seed)
    chunks = [rng.randbytes(4096) for _ in range(1024)]
    t0 = time.perf_counter()
    for chunk in chunks:
        encrypt_convergent(chunk)
    seal_s = time.perf_counter() - t0
    seal_mb_s = (len(chunks) * 4096 / 1e6) / seal_s

    plain, secure = results["plain"], results["secure"]
    overhead = plain["mb_s"] / max(secure["mb_s"], 1e-9)
    print(
        f"crypto: plain ingest {plain['mb_s']:.1f} MB/s, secure "
        f"{secure['mb_s']:.1f} MB/s (overhead {overhead:.2f}x), "
        f"raw seal {seal_mb_s:.0f} MB/s"
    )
    return {
        "plain_ingest_mb_s": plain["mb_s"],
        "secure_ingest_mb_s": secure["mb_s"],
        "overhead_ratio": overhead,
        "seal_mb_s": seal_mb_s,
        "ingested_mb": secure["mb"],
    }


def run_secure(quick: bool, seed: int) -> dict:
    latency = bench_hot_latency(
        n_keys=256 if quick else 512,
        stream_len=1000 if quick else 4000,
        hot_size=64,
        wan_rtt_ms=0.2 if quick else 1.0,
        seed=seed,
    )
    scenario = run_hotindex_scenario(seed=seed)
    measured = scenario.measurements
    print(
        f"scenario: state={measured['state']} edge_hits={measured['edge_hits']} "
        f"delta={measured['entries_restreamed']} "
        f"ratio={scenario.dedup_ratio:.6f} "
        f"baseline={scenario.baseline_ratio:.6f} "
        f"match={scenario.ratio_matches_baseline}"
    )
    crypto = bench_crypto_overhead(
        files_per_node=2 if quick else 4,
        file_kb=32 if quick else 128,
        seed=seed,
    )
    return {
        "benchmark": "secure",
        "seed": seed,
        "quick": quick,
        "latency": latency,
        "scenario": scenario.as_dict(),
        "crypto": crypto,
    }


def check_gates(report: dict) -> list[str]:
    """Regression gates over a secure report; returns failure messages."""
    failures = []
    lat = report["latency"]
    if lat["edge_hot"]["p50_ms"] >= lat["cloud_only"]["p50_ms"]:
        failures.append(
            f"hot-index migration did not beat cloud-only p50 "
            f"({lat['edge_hot']['p50_ms']:.3f}ms >= "
            f"{lat['cloud_only']['p50_ms']:.3f}ms)"
        )
    if lat["edge_hot"]["edge_hits"] <= 0:
        failures.append("no lookup was answered by the edge hot index")
    failures.extend(report["scenario"]["violations"])
    crypto = report["crypto"]
    if crypto["secure_ingest_mb_s"] < 1.0:
        failures.append(
            f"secure ingest {crypto['secure_ingest_mb_s']:.2f} MB/s "
            f"below the 1 MB/s floor"
        )
    if crypto["seal_mb_s"] < 10.0:
        failures.append(
            f"raw seal throughput {crypto['seal_mb_s']:.1f} MB/s "
            f"below the 10 MB/s floor"
        )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="short streams for CI; no JSON output unless --out is given",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"output JSON path (default: {REPO_ROOT / 'BENCH_secure.json'})",
    )
    args = parser.parse_args()

    report = run_secure(quick=args.quick, seed=args.seed)
    failures = check_gates(report)
    if failures:
        raise SystemExit("benchmark regression:\n  " + "\n  ".join(failures))

    out = args.out
    if out is None and not args.quick:
        out = REPO_ROOT / "BENCH_secure.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")


# -- pytest-benchmark smoke (collected with the other micro benchmarks) -- #


def test_secure_quick(benchmark):
    def one_run():
        return run_secure(quick=True, seed=7)

    report = benchmark.pedantic(one_run, rounds=1, iterations=1)
    assert check_gates(report) == []


if __name__ == "__main__":
    main()
