"""The one outcome type of the chaos harness.

Every scenario — and the ring invariant sweep they share — returns a
:class:`ScenarioReport`. What PASS means is decided in exactly one way:
the scenario calls :meth:`ScenarioReport.record` once per *named* check,
a failed check leaves a ``"<name>: <detail>"`` violation, and the report
passed iff no violation was left. The CLI, the benchmarks and CI read
that verdict (and the reason for a FAIL) from the report; none of them
re-derives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class ScenarioReport:
    """Header, named checks and measurements of one run.

    Attributes:
        scenario/seed/nodes/total_files/events_fired: what ran.
        checks: check name → held, in the order they were recorded.
        violations: one ``"<name>: <detail>"`` line per failed check.
        dedup_ratio: the run's final ratio, when the scenario dedups.
        baseline_ratio: the ratio of the scenario's undisturbed twin (the
            same seeded schedule with no fault, load or migration); None
            when the scenario has no twin — no ratio check is recorded
            then, rather than one that compares a run with itself.
        measurements: JSON-ready scenario-specific values (timings,
            counters, nested metric snapshots); never part of the verdict.
    """

    scenario: str
    seed: int = 0
    nodes: int = 0
    total_files: int = 0
    events_fired: list[str] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    dedup_ratio: Optional[float] = None
    baseline_ratio: Optional[float] = None
    measurements: dict[str, Any] = field(default_factory=dict)

    def record(self, name: str, ok: bool, detail: str) -> None:
        """Note the outcome of check ``name``; ``detail`` says what was
        observed and is kept only when the check failed."""
        self.checks[name] = bool(ok)
        if not ok:
            self.violations.append(f"{name}: {detail}")

    def record_ratio(self, ratio: float, baseline: float, twin: str) -> None:
        """Set both ratios and record the headline check: the run must
        reproduce its ``twin``'s dedup ratio bit for bit."""
        self.dedup_ratio, self.baseline_ratio = ratio, baseline
        self.record(
            "ratio_matches_baseline",
            self.ratio_matches_baseline,
            f"ratio {ratio!r} != {twin} baseline {baseline!r}",
        )

    def merge(self, other: "ScenarioReport") -> None:
        """Adopt the checks and violations of ``other`` (the ring invariant
        sweep, run as one step of a larger scenario)."""
        self.checks.update(other.checks)
        self.violations.extend(other.violations)

    @property
    def ratio_matches_baseline(self) -> Optional[bool]:
        if self.dedup_ratio is None or self.baseline_ratio is None:
            return None
        return abs(self.dedup_ratio - self.baseline_ratio) < 1e-12

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        """The one JSON shape: the same top-level keys for every scenario."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "nodes": self.nodes,
            "total_files": self.total_files,
            "events_fired": list(self.events_fired),
            "passed": self.passed,
            "checks": dict(self.checks),
            "violations": list(self.violations),
            "dedup_ratio": self.dedup_ratio,
            "baseline_ratio": self.baseline_ratio,
            "ratio_matches_baseline": self.ratio_matches_baseline,
            "measurements": dict(self.measurements),
        }
