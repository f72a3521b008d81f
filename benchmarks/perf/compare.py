"""Compare two result files of ``run.py``: base A, candidate B.

    python3 benchmarks/perf/compare.py A.json B.json

One row per (end-to-end metric, workload): both reported values, both
min..max spreads over the run's repetitions, the ratio B/A (A is the
base), and a verdict against the bound ``BENCHMARK.json`` fixes:

- ``within-bound``  B's value is no worse than A's by more than the bound;
- ``regression``    it is worse by more than the bound;
- ``unresolved``    a side's interquartile spread is wider than the bound
                    and the two runs interleave, so two values cannot
                    settle it;
- ``identical`` / ``DIFFERS`` for the exact metrics (the dedup ratio,
  stored bytes per logical byte, and every per-layer count when both
  files hold a traced run), which must not move at all on equal inputs.

Exits nonzero on a regression, a differing exact metric, a correctness
failure recorded in either file, or inputs that are not the same.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from measure import CONTRACT

EXACT = ("dedup_ratio", "stored_bytes_per_logical_byte")


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``a`` and ``b`` are metric cells: the reported value, and the
    quartiles when the metric was taken over repetitions. Spread is the
    interquartile range: on a shared box one slow repetition in sixteen
    makes min..max wider than any bound."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    lo_a, hi_a = a.get("q25", a["value"]), a.get("q75", a["value"])
    lo_b, hi_b = b.get("q25", b["value"]), b.get("q75", b["value"])
    widest = max((hi_a - lo_a) / a["value"], (hi_b - lo_b) / b["value"])
    if widest > bound and lo_a <= hi_b and lo_b <= hi_a:
        return "unresolved"
    return "regression" if worse_by > bound else "within-bound"


def compare(a: dict, b: dict) -> tuple[list[list[str]], list[str]]:
    rows: list[list[str]] = []
    problems: list[str] = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            problems.append(f"{name}: missing from B")
            continue
        side_a = a["workloads"][name]["end_to_end"]
        side_b = b["workloads"][name]["end_to_end"]
        if side_a["inputs"] != side_b["inputs"]:
            problems.append(f"{name}: the two runs did not ingest the same inputs")
        for label, side in (("A", side_a), ("B", side_b)):
            if not side["correct"]:
                problems.append(f"{name}: {label} recorded {side['failures']}")
        for metric in CONTRACT["end_to_end"]:
            key = metric["name"]
            cell_a, cell_b = side_a["metrics"][key], side_b["metrics"][key]
            if key in EXACT:
                result = "identical" if cell_a["value"] == cell_b["value"] else "DIFFERS"
            else:
                result = verdict(cell_a, cell_b, metric["better"], metric["bound"])
            if result in ("regression", "DIFFERS"):
                problems.append(f"{name}: {key} {result}")
            rows.append(
                [
                    name, key, metric["unit"],
                    _cell(cell_a), _cell(cell_b),
                    f"{cell_b['value'] / cell_a['value']:.3f}x of A",
                    f"{metric['bound']:.0%} {metric['better']}", result,
                ]
            )
        layers_a = a["workloads"][name].get("per_layer")
        layers_b = b["workloads"][name].get("per_layer")
        if layers_a and layers_b:
            for metric in CONTRACT["per_layer"]:
                if metric["unit"] != "count":
                    continue
                key = metric["name"]
                va = layers_a["metrics"][key]["value"]
                vb = layers_b["metrics"][key]["value"]
                if va != vb:
                    problems.append(f"{name}: count {key} DIFFERS ({va} vs {vb})")
    return rows, problems


def _cell(cell: dict) -> str:
    if "min" not in cell:
        return f"{cell['value']:.5g}"
    return f"{cell['value']:.5g} [{cell['min']:.5g}..{cell['max']:.5g}]"


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    for key in ("seed", "quick", "seconds_per_run"):
        if a["provenance"][key] != b["provenance"][key]:
            sys.exit(
                f"compare.py: {key} differs "
                f"({a['provenance'][key]!r} vs {b['provenance'][key]!r})"
            )
    for label, doc in (("A", a), ("B", b)):
        p = doc["provenance"]
        print(
            f"{label}: commit {p['git_commit']} dirty={p['git_dirty']} "
            f"python {p['python']} numpy {p['numpy']} {p['cpu_model']} x{p['nproc']}"
        )
    rows, problems = compare(a, b)
    header = ["workload", "metric", "unit", "A value [min..max]",
              "B value [min..max]", "B/A", "bound", "verdict"]
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
