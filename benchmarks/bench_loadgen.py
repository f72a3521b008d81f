"""Saturation benchmark: open-loop knee curves over the live transport.

Two entry points:

- under pytest (``pytest benchmarks/ --benchmark-only``) it drives one
  short open-loop step over a 3-node cluster — a smoke check that the
  loadgen stack works at benchmark scale;
- as a script (``python benchmarks/bench_loadgen.py``) it runs the full
  offered-load staircase (Poisson arrivals, zipf-skewed sources, >= 5
  seeded trials per step), finds the throughput-vs-offered-load knee, and
  writes ``BENCH_load.json`` at the repo root. The script exits nonzero
  when the curve regresses: fewer than 3 steps, a missing p999, trials
  below the floor, or knee goodput under the floor. ``--quick`` shrinks
  steps/trials/duration for CI and skips the JSON unless ``--out`` is
  given.

The floors are deliberately conservative (CI machines are noisy); the
honest regression signal is the knee trend across checked-in
``BENCH_load.json`` revisions.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from conftest import trial_interval

from repro.loadgen import SweepConfig, SweepDriver
from repro.rpc.cluster import LiveKVCluster
from repro.rpc.retry import RetryPolicy
from repro.rpc.settings import CallPolicy, NodeSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
NODE_IDS = ["edge-0", "edge-1", "edge-2"]

# Floor gates: a 3-node localhost ring pipelines well past 300 req/s
# open-loop even on throttled CI runners (dev machines measure ~800-1000).
KNEE_GOODPUT_FLOOR_RPS = 80.0
QUICK_KNEE_GOODPUT_FLOOR_RPS = 40.0
MIN_STEPS = 3
MIN_TRIALS = 5
QUICK_MIN_TRIALS = 2


def _cluster() -> LiveKVCluster:
    return LiveKVCluster(
        [NodeSpec(node_id) for node_id in NODE_IDS],
        CallPolicy(replication_factor=2, timeout_s=2.0, retry=RetryPolicy(attempts=3)),
    )


def run_sweep(steps: list[float], config: SweepConfig) -> dict:
    with _cluster() as cluster:
        driver = SweepDriver(
            cluster.store.submit_put_if_absent_many, NODE_IDS, config
        )
        report = driver.run(steps)
    for step in report.steps:
        print(
            f"offered {step.offered_rps:7.0f} req/s: goodput "
            f"{step.goodput.mean:7.1f} ±{step.goodput.half_width:6.1f} "
            f"(eff {step.efficiency:.3f})  "
            f"p50 {step.p50_s.mean * 1e3:7.2f}ms  "
            f"p99 {step.p99_s.mean * 1e3:7.2f}ms  "
            f"p999 {step.p999_s.mean * 1e3:7.2f}ms  "
            f"skew {step.hotspot_skew:.2f}"
        )
    print(
        f"knee: {report.knee_offered_rps:.0f} offered -> "
        f"{report.knee_goodput_rps:.1f} goodput req/s "
        f"(saturated={report.saturated})"
    )
    return report.as_dict()


def check_floors(report: dict, quick: bool) -> list[str]:
    """Regression gates over a sweep report; returns failure messages."""
    failures = []
    steps = report.get("steps", [])
    min_trials = QUICK_MIN_TRIALS if quick else MIN_TRIALS
    floor = QUICK_KNEE_GOODPUT_FLOOR_RPS if quick else KNEE_GOODPUT_FLOOR_RPS
    if len(steps) < MIN_STEPS:
        failures.append(f"knee curve has {len(steps)} steps, need >= {MIN_STEPS}")
    for step in steps:
        for pct in ("latency_p50_s", "latency_p99_s", "latency_p999_s"):
            if pct not in step or step[pct].get("n", 0) < min_trials:
                failures.append(
                    f"step {step.get('offered_rps')}: {pct} missing or "
                    f"fewer than {min_trials} trials"
                )
        if step.get("goodput_rps", {}).get("n", 0) < min_trials:
            failures.append(
                f"step {step.get('offered_rps')}: goodput over fewer than "
                f"{min_trials} trials"
            )
    knee = report.get("knee", {})
    if knee.get("goodput_rps", 0.0) < floor:
        failures.append(
            f"knee goodput {knee.get('goodput_rps')} below floor {floor} req/s"
        )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="short steps/trials for CI; no JSON output unless --out is given",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"output JSON path (default: {REPO_ROOT / 'BENCH_load.json'})",
    )
    args = parser.parse_args()

    if args.quick:
        steps = [100.0, 200.0, 400.0]
        config = SweepConfig(
            n_agents=2_000, n_sources=24, batch=4,
            duration_s=0.3, trials=QUICK_MIN_TRIALS, seed=7,
        )
    else:
        steps = [250.0, 500.0, 1000.0, 2000.0, 4000.0]
        config = SweepConfig(
            n_agents=10_000, n_sources=48, batch=8,
            duration_s=1.0, trials=MIN_TRIALS, seed=7,
        )

    report = run_sweep(steps, config)
    failures = check_floors(report, quick=args.quick)
    if failures:
        raise SystemExit("benchmark regression:\n  " + "\n  ".join(failures))

    out = args.out
    if out is None and not args.quick:
        out = REPO_ROOT / "BENCH_load.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")


# -- pytest-benchmark smoke (collected with the other micro benchmarks) -- #


def test_open_loop_step_over_live_cluster(benchmark):
    config = SweepConfig(
        n_agents=500, n_sources=12, batch=4, duration_s=0.2, trials=1, seed=7
    )

    def one_step():
        with _cluster() as cluster:
            driver = SweepDriver(
                cluster.store.submit_put_if_absent_many, NODE_IDS, config
            )
            return driver._trial(0, 0, 200.0)

    result = benchmark.pedantic(one_step, rounds=1, iterations=1)
    assert result.arrivals == result.completed + result.failed
    assert result.completed > 0


def test_trial_interval_matches_loadgen_stats():
    ci = trial_interval([10.0, 12.0, 11.0, 9.0, 13.0])
    assert ci.n == 5
    assert ci.lo < ci.mean < ci.hi


if __name__ == "__main__":
    main()
