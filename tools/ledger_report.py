"""Verdicts from a directory of ledger pairs.

A pair file holds one JSON line per alternating pair of the perf ledger's
single-workload form (``benchmarks/perf/run.py --workload W --seed S
--seconds 10 --trace T``), parent commit against a change:
``{"pair": i, "first": side, "parent": contract, "change": contract}``,
where a contract is the JSON line the run printed last (``correct``,
``attempted``, ``failed``, ``metrics``). Older files carry ``workload``,
``seed`` and ``trace`` on every line too; newer ones keep them only in the
file name, ``<workload>-seed<S>[-<tag>].jsonl``. Both read alike.

    python tools/ledger_report.py benchmarks/results/ledger/batched-tier

prints, per workload × seed, for each judged end-to-end metric: wins /
pairs, each side's median and quartiles, the median shift as a percentage
and as a multiple of the parent's interquartile range, whether the exact
metrics are identical in every pair, and a verdict. ``gain`` (or
``loss``) is the claim rule: at least 9 of 10 pairs won (lost) and the
median shift larger than the parent's IQR; anything else is ``-``.
Tagged files (``-trace``, and any other ``--trace 1`` variant) get a second table: pairs whose count-valued
metrics differ, ``rpc.calls`` and each layer's ``self_s``, as medians.
Quartiles are linear-interpolated (``statistics.quantiles``, inclusive).
Exits 1 when the directory holds no pair file or a run was incorrect.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

# End-to-end metrics judged pair by pair (BENCHMARK.json's bounded ones),
# and which way is better.
JUDGED = (
    ("throughput_mb_s", "higher"),
    ("op_p50_ms", "lower"),
    ("setup_s", "lower"),
    ("peak_rss_mb", "lower"),
)
# Metrics that must not move at all.
EXACT = ("dedup_ratio", "stored_bytes_per_logical_byte")
LAYERS = ("chunking", "dedup", "kvstore", "rpc", "content", "erasure", "system")
NAME = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)(?:-(?P<tag>[a-z]+))?\.jsonl$")


def load(path: Path) -> tuple[str, int, str, list[dict]]:
    """(workload, seed, tag, pairs) of one pair file; the tag is "" for
    ``--trace 0`` files."""
    match = NAME.match(path.name)
    if match is None:
        raise ValueError(f"{path}: not a <workload>-seed<S>[-tag].jsonl pair file")
    pairs = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    for pair in pairs:
        for key, value in (("workload", match["workload"]), ("seed", int(match["seed"]))):
            if pair.get(key, value) != value:
                raise ValueError(f"{path}: pair {pair.get('pair')} names {key} {pair[key]!r}")
    return match["workload"], int(match["seed"]), match["tag"] or "", pairs


def value(contract: dict, metric: str):
    cell = contract["metrics"].get(metric)
    return None if cell is None else cell["value"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(pairs: list[dict], metric: str, better: str) -> dict | None:
    """The claim arithmetic for one metric over one file's pairs."""
    rows = [(value(p["parent"], metric), value(p["change"], metric)) for p in pairs]
    rows = [(a, b) for a, b in rows if a is not None and b is not None]
    if not rows:
        return None
    sign = 1 if better == "higher" else -1
    parent = quartiles([a for a, _ in rows])
    change = quartiles([b for _, b in rows])
    wins = sum(sign * (b - a) > 0 for a, b in rows)
    losses = sum(sign * (b - a) < 0 for a, b in rows)
    iqr = parent[2] - parent[0]
    shift = change[1] - parent[1]
    shift_iqr = abs(shift) / iqr if iqr > 0 else float("inf")
    verdict = "-"
    if len(rows) >= 10 and shift_iqr > 1:
        if 10 * wins >= 9 * len(rows) and sign * shift > 0:
            verdict = "gain"
        elif 10 * losses >= 9 * len(rows) and sign * shift < 0:
            verdict = "loss"
    return {
        "pairs": len(rows),
        "wins": wins,
        "parent": parent,
        "change": change,
        "shift_pct": 100.0 * shift / parent[1] if parent[1] else float("nan"),
        "shift_iqr": shift_iqr,
        "verdict": verdict,
    }


def exact_identical(pairs: list[dict]) -> bool:
    seen = {
        tuple(value(p[side], m) for m in EXACT) for p in pairs for side in ("parent", "change")
    }
    return len(seen) == 1


def counts_differ(pairs: list[dict]) -> list[str]:
    """Count-valued metrics whose two sides differ in some pair."""
    differ = set()
    for pair in pairs:
        for name, cell in pair["parent"]["metrics"].items():
            other = pair["change"]["metrics"].get(name)
            if cell["unit"] == "count" and (other is None or other["value"] != cell["value"]):
                differ.add(name)
    return sorted(differ)


def _fmt(x: float) -> str:
    return f"{x:.4g}" if abs(x) < 100 else f"{x:.1f}"


def _median(pairs: list[dict], side: str, metric: str) -> float | None:
    values = [v for v in (value(p[side], metric) for p in pairs) if v is not None]
    return statistics.median(values) if values else None


def report(directory: Path) -> tuple[list[str], bool]:
    files = sorted(directory.glob("*.jsonl"))
    loaded = [load(path) for path in files]
    ok = bool(loaded)
    lines = [
        f"Pairs in `{directory.as_posix().rstrip('/')}/`, parent vs change; "
        "medians with [Q1 .. Q3]; shift = change median − parent median.",
        "",
        "| workload | seed | tag | metric | wins | parent | change | shift | ÷ parent IQR | exact | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    traced = []
    for workload, seed, tag, pairs in loaded:
        ok &= all(p[side]["correct"] and not p[side]["failed"] for p in pairs for side in ("parent", "change"))
        if tag:
            traced.append((workload, seed, tag, pairs))
            continue
        exact = "identical" if exact_identical(pairs) else "DIFFER"
        for metric, better in JUDGED:
            row = judge(pairs, metric, better)
            if row is None:
                continue
            p, c = row["parent"], row["change"]
            lines.append(
                f"| {workload} | {seed} | {tag or '-'} "
                f"| {metric} | {row['wins']}/{row['pairs']} "
                f"| {_fmt(p[1])} [{_fmt(p[0])} .. {_fmt(p[2])}] "
                f"| {_fmt(c[1])} [{_fmt(c[0])} .. {_fmt(c[2])}] "
                f"| {row['shift_pct']:+.1f} % | {row['shift_iqr']:.1f}× | {exact} | {row['verdict']} |"
            )
    if traced:
        lines += [
            "",
            "Traced pairs (`--trace 1`): medians, parent → change.",
            "",
            "| workload | seed | tag | pairs | count metrics that differ | rpc.calls | self_s by layer (s) |",
            "|---|---|---|---|---|---|---|",
        ]
        for workload, seed, tag, pairs in traced:
            differ = counts_differ(pairs)
            calls = [_median(pairs, side, "rpc.calls") for side in ("parent", "change")]
            layers = []
            for layer in LAYERS:
                a, b = (_median(pairs, side, f"self_s.{layer}") for side in ("parent", "change"))
                if a or b:
                    layers.append(f"{layer} {a or 0:.4f} → {b or 0:.4f}")
            lines.append(
                f"| {workload} | {seed} | {tag} | {len(pairs)} | {', '.join(differ) or 'none'} "
                f"| {calls[0] or 0:g} → {calls[1] or 0:g} | {'; '.join(layers)} |"
            )
    return lines, ok


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/ledger_report.py DIR", file=sys.stderr)
        return 2
    lines, ok = report(Path(argv[0]))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
