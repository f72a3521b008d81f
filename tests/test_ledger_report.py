"""``tools/ledger_report.py`` over the committed ledger pairs reproduces the
claims recorded with them, and reads both pair-file schemas."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "benchmarks" / "results" / "ledger"

spec = importlib.util.spec_from_file_location("ledger_report", ROOT / "tools" / "ledger_report.py")
ledger_report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger_report)


def claim(directory: str, name: str) -> dict:
    _, _, _, pairs = ledger_report.load(LEDGER / directory / name)
    return ledger_report.judge(pairs, "throughput_mb_s", "higher")


@pytest.mark.parametrize(
    "directory, name, shift_pct, shift_iqr",
    [
        # Per-line workload/seed/trace keys (the older schema).
        ("index-lookup-floor", "edge-inproc-seed7.jsonl", 14.4, 8.0),
        ("index-lookup-floor", "edge-inproc-seed11.jsonl", 12.3, 5.3),
        # Workload and seed in the file name only.
        ("batched-tier", "restore-degraded-seed7.jsonl", 34.0, 6.6),
        ("batched-tier", "restore-degraded-seed11.jsonl", 23.5, 3.6),
    ],
)
def test_reproduces_the_stated_claims(directory, name, shift_pct, shift_iqr):
    row = claim(directory, name)
    assert (row["wins"], row["pairs"]) == (10, 10)
    assert round(row["shift_pct"], 1) == shift_pct
    assert round(row["shift_iqr"], 1) == shift_iqr
    assert row["verdict"] == "gain"


def test_every_committed_directory_reports_and_every_run_was_correct():
    directories = sorted({path.parent for path in LEDGER.rglob("*.jsonl")})
    assert directories
    for directory in directories:
        lines, ok = ledger_report.report(directory)
        assert ok, directory
        assert len(lines) > 4, directory  # at least one row under the header


def test_verdict_needs_nine_of_ten_and_a_shift_past_the_parent_iqr():
    def pairs(parent, change):
        return [
            {"parent": {"metrics": {"m": {"value": a}}}, "change": {"metrics": {"m": {"value": b}}}}
            for a, b in zip(parent, change)
        ]

    base = [100.0, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    assert ledger_report.judge(pairs(base, [v + 10 for v in base]), "m", "higher")["verdict"] == "gain"
    assert ledger_report.judge(pairs(base, [v + 10 for v in base]), "m", "lower")["verdict"] == "loss"
    # Every pair won, but by less than the parent's spread.
    assert ledger_report.judge(pairs(base, [v + 1 for v in base]), "m", "higher")["verdict"] == "-"
    # Eight of ten is not a claim, whatever the shift.
    eight = [v + 50 for v in base[:8]] + [v - 1 for v in base[8:]]
    assert ledger_report.judge(pairs(base, eight), "m", "higher")["verdict"] == "-"
    # Fewer than ten pairs is not a claim either.
    assert ledger_report.judge(pairs(base[:9], [v + 50 for v in base[:9]]), "m", "higher")["verdict"] == "-"
