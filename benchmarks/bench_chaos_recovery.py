"""Recovery benchmark: crash a live ring member mid-ingest and measure
how expensive coming back is.

Two entry points:

- under pytest (``pytest benchmarks/ --benchmark-only``) it times one
  seeded crash-restart scenario end to end — a smoke check that the chaos
  harness holds together at benchmark scale;
- as a script (``python benchmarks/bench_chaos_recovery.py``) it runs the
  crash-restart and partition-heal scenarios against a WAL-backed ring,
  reports per-scenario recovery time (kill → serving again, including WAL
  reload, hint replay and Merkle catch-up) and degraded-mode versus
  healthy ingest throughput, then writes ``BENCH_chaos.json`` at the repo
  root. Every scenario must pass the safety invariants and reproduce the
  fault-free dedup ratio — the script exits nonzero otherwise.
  ``--quick`` shrinks the workload for CI.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.chaos import run_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("crash-restart", "partition-heal")


def bench_scenario(
    name: str, files_per_node: int, file_kb: int, seed: int
) -> dict:
    """Run one seeded scenario and flatten the report for the JSON table."""
    report = run_scenario(
        name, nodes=3, files_per_node=files_per_node, file_kb=file_kb, seed=seed
    )
    measured = report.measurements
    recovery_times_s = measured["recovery_times_s"]
    return {
        "scenario": name,
        "passed": report.passed,
        "violations": list(report.violations),
        "dedup_ratio": round(report.dedup_ratio, 6),
        "baseline_ratio": round(report.baseline_ratio, 6),
        "recovery_times_ms": [round(t * 1e3, 2) for t in recovery_times_s],
        "worst_recovery_ms": round(max(recovery_times_s) * 1e3, 2)
        if recovery_times_s else 0.0,
        "degraded_throughput_mb_s": round(measured["degraded_throughput_mb_s"], 2),
        "healthy_throughput_mb_s": round(measured["healthy_throughput_mb_s"], 2),
        "hints_replayed": measured["store_stats"]["hints_replayed"],
        "wal_entries_restored": measured["wal_entries_restored"],
    }


def run(files_per_node: int, file_kb: int, seed: int) -> dict:
    rows = []
    for name in SCENARIOS:
        entry = bench_scenario(name, files_per_node, file_kb, seed)
        rows.append(entry)
        print(f"{name:16s}: recovery {entry['worst_recovery_ms']:7.1f}ms  "
              f"degraded {entry['degraded_throughput_mb_s']:6.1f} MB/s  "
              f"healthy {entry['healthy_throughput_mb_s']:6.1f} MB/s  "
              f"{'PASS' if entry['passed'] else 'FAIL'}")
    return {
        "nodes": 3,
        "replication_factor": 2,
        "files_per_node": files_per_node,
        "file_kb": file_kb,
        "seed": seed,
        "scenarios": rows,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small workload, no JSON output unless --out is given (CI smoke)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"output JSON path (default: {REPO_ROOT / 'BENCH_chaos.json'})",
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    files = 4 if args.quick else 10
    file_kb = 16 if args.quick else 64
    report = run(files_per_node=files, file_kb=file_kb, seed=args.seed)

    failed = [r["scenario"] for r in report["scenarios"] if not r["passed"]]
    if failed:
        raise SystemExit(f"benchmark regression: scenario(s) failed recovery "
                         f"invariants: {', '.join(failed)}")

    out = args.out
    if out is None and not args.quick:
        out = REPO_ROOT / "BENCH_chaos.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")


# -- pytest-benchmark smoke (collected with the other micro benchmarks) -- #


def test_crash_restart_recovery(benchmark):
    def one_run():
        return run_scenario(
            "crash-restart", nodes=3, files_per_node=3, file_kb=16, seed=7
        )

    report = benchmark.pedantic(one_run, rounds=1, iterations=1)
    assert report.passed


if __name__ == "__main__":
    main()
