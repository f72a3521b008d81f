"""Overload benchmark: graceful degradation past the saturation knee.

Two entry points:

- under pytest (``pytest benchmarks/ --benchmark-only``) it runs one
  short overload scenario — a smoke check that the protection stack
  (admission control, breakers, brownout, reconciliation) holds together
  at benchmark scale;
- as a script (``python benchmarks/bench_overload.py``) it runs the full
  :func:`repro.chaos.run_overload_scenario` — an at-knee reference step,
  then a 2x-knee step under a fleet-wide gray slowdown while the ring's
  own agents ingest through the shedding index — and writes
  ``BENCH_overload.json`` at the repo root. The script exits nonzero
  when protection regresses: nothing shed past the knee, shed accounting
  not conserved, p99-of-admitted beyond the bound, or a post-reconcile
  dedup ratio that is not bit-for-bit the unloaded baseline. ``--quick``
  shrinks the load windows for CI and skips the JSON unless ``--out`` is
  given.

The latency gate is relative (p99-of-admitted at 2x knee within 10x of
the floored at-knee p99), so it is machine-independent; the honest
regression signal is the shed fraction and admitted-p99 trend across
checked-in ``BENCH_overload.json`` revisions.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.chaos import run_overload_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_overload(quick: bool, seed: int) -> dict:
    report = run_overload_scenario(
        seed=seed,
        duration_s=0.3 if quick else 0.6,
        files_per_node=3 if quick else 4,
    )
    measured = report.measurements
    knee, over = measured["knee_step"], measured["overload_step"]
    print(
        f"knee   @ {measured['knee_rps']:7.0f} req/s: "
        f"completed={knee['completed']} shed={knee['shed']} "
        f"failed={knee['failed']} p99={knee['latency_p99_s'] * 1e3:7.2f}ms"
    )
    print(
        f"beyond @ {measured['overload_rps']:7.0f} req/s: "
        f"completed={over['completed']} shed={over['shed']} "
        f"failed={over['failed']} p99={over['latency_p99_s'] * 1e3:7.2f}ms "
        f"(shed fraction {measured['shed_fraction']:.2f})"
    )
    b = measured["brownout"]
    print(
        f"brownout: trips={b['trips']} "
        f"journaled={b['journaled']} "
        f"corrected={b['corrected_chunks']}  "
        f"ratio={report.dedup_ratio:.6f} "
        f"baseline={report.baseline_ratio:.6f}"
    )
    for name, ok in report.checks.items():
        print(f"  {'ok ' if ok else 'FAIL'} {name}")
    return report.as_dict()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="short load windows for CI; no JSON output unless --out is given",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"output JSON path (default: {REPO_ROOT / 'BENCH_overload.json'})",
    )
    args = parser.parse_args()

    report = run_overload(quick=args.quick, seed=args.seed)
    if report["violations"]:
        raise SystemExit(
            "benchmark regression:\n  " + "\n  ".join(report["violations"])
        )

    out = args.out
    if out is None and not args.quick:
        out = REPO_ROOT / "BENCH_overload.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")


# -- pytest-benchmark smoke (collected with the other micro benchmarks) -- #


def test_overload_scenario_quick(benchmark):
    def one_run():
        return run_overload_scenario(
            seed=7, duration_s=0.3, files_per_node=3
        )

    report = benchmark.pedantic(one_run, rounds=1, iterations=1)
    assert report.passed, report.violations


if __name__ == "__main__":
    main()
