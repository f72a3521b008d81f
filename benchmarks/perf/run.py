"""The repo's one performance command.

    python3 benchmarks/perf/run.py --seed 7 [--trace] [--quick] [--out FILE]
        every workload, each in a fresh interpreter, one result file
    python3 benchmarks/perf/run.py --workload NAME --seed 7 --seconds 10 --trace 0|1
        one workload in this interpreter (what the benchmark driver runs)

Inputs are generated from the seed, every output is checked, every
metric is printed by name with its unit, and the exit code is nonzero on
any correctness failure. In single-workload mode the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) named in ``BENCHMARK.json``.

End-to-end metrics are always measured with tracing off. The traced run
measures untraced repetitions first (for the overhead figure), then
repetitions with the wrappers of ``spans.py`` installed, then the layer
probes and the waterfall of ``probes.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from measure import (
    CONTRACT,
    REPO_ROOT,
    peak_rss_mb,
    percentile,
    provenance,
    repeat_for,
    summary,
)

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: the program under test (src/repro) is not under {REPO_ROOT}")
sys.path.insert(0, str(REPO_ROOT / "src"))

import probes  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Deployment, Rep, Workload, no_request  # noqa: E402

SETUP_ROUNDS = 3
BOTH = 2  # --trace without a value: the untraced and the traced run


def _flatten(counters: dict) -> dict[str, float]:
    """Hub output as plain numbers: histograms become .sum and .count."""
    flat: dict[str, float] = {}
    for name, value in counters.items():
        if isinstance(value, dict):
            flat[f"{name}.sum"] = float(value["sum"])
            flat[f"{name}.count"] = float(value["count"])
        else:
            flat[name] = float(value)
    return flat


class Runner:
    """Drives one workload: set-up rounds, timed repetitions, gates."""

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work_root = OUT_DIR / "work"
        self.work_root.mkdir(parents=True, exist_ok=True)
        self.dep: Deployment | None = None
        self.setup_samples: list[float] = []
        self.failures: list[str] = []

    def close(self) -> None:
        if self.dep is not None:
            self.dep.close()
            self.dep = None

    def set_up(self, rounds: int) -> None:
        """Each round is everything that happens before the first timed
        operation: generate the inputs and the expected outputs, boot the
        cluster, pre-populate it, and one discarded warm-up repetition
        (lazy imports, first connections, allocator growth)."""
        for _ in range(rounds):
            started = time.perf_counter()
            self.w.prepare(self.seed)
            self.boot()
            self.w.rep(self.dep)
            self.setup_samples.append(time.perf_counter() - started)

    def boot(self) -> None:
        self.close()
        self.dep = self.w.boot(self.work_root)
        self.w.populate(self.dep)

    def rep(self, request=no_request) -> Rep:
        """One repetition on the cluster that is up."""
        gc.collect()
        rep = self.w.rep(self.dep, request)
        self.failures += rep.problems
        return rep

    def one_rep(self) -> Rep:
        self.boot()
        return self.rep()

    def gate(self, reps: list[Rep]) -> None:
        """Correctness gates that need the whole run."""
        ratios = {rep.metrics["dedup_ratio"] for rep in reps}
        if len(ratios) != 1:
            self.failures.append(f"dedup_ratio differs between repetitions: {ratios}")
        failed = sum(rep.failed for rep in reps)
        if failed:
            self.failures.append(f"failed_ops_fraction != 0 ({failed} operations)")
        self.failures += self.w.verify(self.dep)


# Interference on a shared box only ever slows a repetition: the timing
# metrics report the quartile of the repetitions on the fast side, which
# holds between runs where the median does not (within one run the
# samples sit under a ceiling and dip for seconds at a time). Median, min,
# max and every sample stay in the result file.
FAST_SIDE = {"throughput_mb_s": 75.0, "op_p50_ms": 25.0}


def _across_reps(reps: list[Rep]) -> dict[str, dict]:
    return {
        name: summary(
            [rep.metrics[name] for rep in reps], FAST_SIDE.get(name, 50.0)
        )
        for name in reps[0].metrics
    }


def run_end_to_end(runner: Runner) -> dict:
    runner.set_up(SETUP_ROUNDS)
    reps = repeat_for(runner.one_rep, runner.seconds)
    runner.gate(reps)
    metrics = _across_reps(reps)
    metrics["setup_s"] = summary(runner.setup_samples)
    metrics["peak_rss_mb"] = {"value": peak_rss_mb()}
    pooled = [ms for rep in reps for ms in rep.op_ms]
    return {
        "metrics": metrics,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "repetitions": len(reps),
        "op_latency_ms": {
            "n": len(pooled),
            "p50": percentile(pooled, 50),
            "p99": percentile(pooled, 99),
        },
    }


def _layer_counts(delta: defaultdict[str, float], rep: Rep) -> dict[str, float]:
    """One repetition's worth of the program's public counters, under
    the per-layer names; a layer the workload never touches reads 0."""
    get = delta.__getitem__
    wall = rep.wall_s
    reads = get("kvstore.reads")
    rounds = get("kvstore.batch_rounds")
    chunks = get("dedup.raw_chunks")
    busy = sum(v for k, v in delta.items() if k.endswith(".handle_s.sum"))
    return {
        "chunking.chunks": chunks,
        "chunking.mean_chunk_bytes": get("dedup.raw_bytes") / chunks if chunks else 0.0,
        "dedup.lookup_rounds": get("lookups.batch_rounds"),
        "dedup.unique_chunks": get("dedup.unique_chunks"),
        "dedup.duplicate_chunks": get("dedup.duplicate_chunks"),
        "kvstore.batch_rounds": rounds,
        "kvstore.remote_contacts": get("kvstore.remote_contacts"),
        "kvstore.local_read_fraction": get("kvstore.local_reads") / reads if reads else 0.0,
        "kvstore.wal_appends": get("rpc.wal.appends"),
        "kvstore.hints_stored": get("kvstore.hints_stored"),
        "kvstore.unavailable_errors": get("kvstore.unavailable_errors"),
        "rpc.calls": get("rpc.calls"),
        "rpc.calls_per_claim_batch": (
            (get("rpc.by_method.multi_get") + get("rpc.by_method.multi_put")) / rounds
            if rounds else 0.0
        ),
        "rpc.retries": get("rpc.retries"),
        "rpc.timeouts": get("rpc.timeouts"),
        "rpc.failed_calls": get("rpc.failed_calls"),
        "rpc.rtt_sum_share": get("rpc.rtt_s.sum") / wall,
        "rpc.server_busy_share": busy / wall,
        "content.puts": get("content.puts"),
        "content.batch_flushes": get("content.batch_flushes"),
        "content.edge_hits": get("content.plane.edge_hits"),
        "content.tier_hits": get("content.plane.tier_hits"),
        "content.gc_journal_appends": get("content.gc.journal_appends"),
    }


def run_traced(runner: Runner, quick: bool) -> dict:
    runner.set_up(1)
    budget = runner.seconds * 0.4

    # Untraced repetitions: the base of the overhead figure, and — on the
    # last one — the program's own counters for exactly one repetition.
    plain = repeat_for(runner.one_rep, budget, min_reps=2)
    runner.boot()
    before = _flatten(runner.dep.counters())
    counted = runner.rep()
    after = _flatten(runner.dep.counters())
    delta = defaultdict(
        float, {k: v - before.get(k, 0.0) for k, v in after.items()}
    )

    recorder = spans.Recorder()
    caller = threading.get_ident()
    self_s: list[dict[str, float]] = []
    wal_loop_s: list[float] = []

    def traced_rep() -> Rep:
        runner.boot()
        # Drop the untimed pre-population, and every earlier repetition:
        # the Chrome trace holds the last one only.
        recorder.clear()
        rep = runner.rep(recorder.request)
        self_s.append(spans.self_seconds_by(recorder.spans, caller, "layer"))
        wal_loop_s.append(
            spans.off_thread_seconds(recorder.spans, caller, "WriteAheadLog.append")
        )
        return rep

    with spans.tracing(recorder):
        traced = repeat_for(traced_rep, budget, min_reps=1)
    trace_path = OUT_DIR / f"trace-{runner.w.name}-seed{runner.seed}.json"
    trace_path.write_text(json.dumps(recorder.chrome_trace()))

    runner.gate(plain + [counted] + traced)

    per_layer: dict[str, dict] = {
        name: {"value": value}
        for name, value in _layer_counts(delta, counted).items()
    }
    walls = [rep.wall_s for rep in traced]
    for layer in spans.LAYERS:
        secs = [selfs.get(layer, 0.0) for selfs in self_s]
        per_layer[f"self_s.{layer}"] = summary(secs)
        per_layer[f"self_share.{layer}"] = summary(
            [x / wall for x, wall in zip(secs, walls)]
        )
    per_layer["system.unattributed_share"] = summary(
        [
            1.0 - sum(selfs.get(layer, 0.0) for layer in spans.LAYERS) / wall
            for selfs, wall in zip(self_s, walls)
        ]
    )
    per_layer["kvstore.wal_loop_share"] = summary(
        [s / wall for s, wall in zip(wal_loop_s, walls)]
    )
    per_layer["obs.trace_overhead_pct"] = {
        "value": (
            statistics.median(walls)
            / statistics.median(rep.wall_s for rep in plain)
            - 1.0
        )
        * 100.0
    }
    for key in ("claim_batches_s", "claim_keys_s", "claim_new_fraction"):
        per_layer[f"loadgen.{key}"] = {
            "value": statistics.median(rep.extras.get(key, 0.0) for rep in plain)
        }
    per_layer["loadgen.claim_p99_ms"] = {
        "value": (
            percentile([ms for rep in plain for ms in rep.op_ms], 99)
            if runner.w.name == "claims" else 0.0
        )
    }

    runner.close()
    per_layer.update(probes.Probes(runner.seed, runner.work_root, quick).run())
    everything = plain + [counted] + traced
    return {
        "metrics": per_layer,
        "attempted": sum(rep.attempted for rep in everything),
        "failed": sum(rep.failed for rep in everything),
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "waterfall": probes.waterfall_rows(per_layer),
        # Which entry points hold the last traced repetition's time.
        "hot_spans": [
            {"name": name, "self_s": secs, "share": secs / traced[-1].wall_s}
            for name, secs in sorted(
                spans.self_seconds_by(recorder.spans, caller, "name").items(),
                key=lambda item: -item[1],
            )[:8]
        ],
        "chrome_trace": str(trace_path.relative_to(REPO_ROOT)),
        "spans_in_last_repetition": len(recorder.spans),
    }


# --------------------------------------------------------------------- #
# output
# --------------------------------------------------------------------- #


def contract_line(result: dict, declared: list[dict], correct: bool) -> dict:
    """The driver's last line: exactly the declared metrics, with units."""
    got = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in got]
    extra = sorted(set(got) - {m["name"] for m in declared})
    if missing or extra:
        raise SystemExit(
            f"run.py: metrics out of step with BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}"
        )
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": got[m["name"]]["value"], "unit": m["unit"]}
            for m in declared
        },
    }


def print_metrics(workload: str, result: dict, declared: list[dict]) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    print(f"== {workload} ==")
    for name, cell in result["metrics"].items():
        spread = (
            f"  [{cell['min']:.6g} .. {cell['max']:.6g}, n={cell['n']}]"
            if "min" in cell else ""
        )
        print(f"{name:38s} {cell['value']:>14.6g} {units.get(name, ''):6s}{spread}")
    for hot in result.get("hot_spans", ()):
        print(f"  hot span {hot['name']:40s} {hot['self_s']:8.4f} s  {hot['share']:6.1%}")
    for row in result.get("waterfall", ()):
        print(
            f"  waterfall {row['rung']:42s} {row['mb_s']:8.1f} MB/s "
            f"[{row['min']:.1f} .. {row['max']:.1f}]  {row['s_per_gb']:8.2f} s/GB "
            f"(+{row['marginal_s_per_gb']:.2f})"
            f"{'' if row['non_increasing'] else '  ABOVE PREVIOUS RUNG'}"
        )


def run_single(args) -> int:
    workload = WORKLOADS[args.workload](args.quick, args.plant_corruption)
    runner = Runner(workload, args.seed, args.seconds)
    try:
        if args.trace:
            result = run_traced(runner, args.quick)
            declared = CONTRACT["per_layer"]
        else:
            result = run_end_to_end(runner)
            declared = CONTRACT["end_to_end"]
    finally:
        runner.close()
        shutil.rmtree(runner.work_root, ignore_errors=True)
    failures = list(dict.fromkeys(runner.failures))  # once per name
    correct = not failures
    result.update(
        workload=args.workload,
        why=workload.why,
        traced=bool(args.trace),
        inputs=workload.inputs(),
        correct=correct,
        failures=failures,
        provenance=provenance(args.seed, args.seconds, args.quick),
    )
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    print_metrics(args.workload, result, declared)
    for failure in failures:
        print(f"CORRECTNESS FAILURE: {failure}")
    print(json.dumps(contract_line(result, declared, correct)))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, so warm state and peak RSS
    do not leak from one into the next."""
    OUT_DIR.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    combined = {
        "provenance": provenance(args.seed, args.seconds, args.quick),
        "workloads": {},
    }
    status = 0
    for name in names:
        entry = combined["workloads"][name] = {}
        for traced in (0, 1) if args.trace == BOTH else (args.trace or 0,):
            part = OUT_DIR / f"part-{name}-{traced}.json"
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(traced), "--out", str(part),
            ]
            cmd += ["--quick"] if args.quick else []
            cmd += ["--plant-corruption"] if args.plant_corruption else []
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            # All but the child's last line (the driver's JSON) is for people.
            print(done.stdout.rsplit("\n", 2)[0])
            status = status or done.returncode
            if part.exists():
                entry["per_layer" if traced else "end_to_end"] = json.loads(
                    part.read_text()
                )
                part.unlink()
    out = args.out or OUT_DIR / f"result-seed{args.seed}.json"
    out.write_text(json.dumps(combined, indent=1) + "\n")
    print(f"wrote {out}" + ("" if status == 0 else "  (with CORRECTNESS FAILURES)"))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="time budget of one run's timed section "
        f"(default: {CONTRACT['run_seconds']}, or 1 with --quick)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1, BOTH), const=BOTH,
        help="0 measures the end-to-end metrics (default), 1 the per-layer "
        "metrics, bare --trace both; with --workload and an explicit 0 or 1 "
        "the run happens in this interpreter",
    )
    parser.add_argument("--quick", action="store_true", help="tiny constant sizes")
    parser.add_argument(
        "--plant-corruption", action="store_true",
        help="self-test: corrupt one restored byte; the run must exit nonzero",
    )
    parser.add_argument("--out", type=Path, help="result file")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(CONTRACT["run_seconds"])
    if args.workload and args.trace in (0, 1):
        return run_single(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
