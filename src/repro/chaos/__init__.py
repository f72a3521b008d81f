"""Chaos harness: seeded fault scenarios against live D2-rings.

Jepsen-style testing scaled to this repo: a
:class:`~repro.chaos.scenarios.ChaosScenario` declares *what* breaks and
*when* (as fractions of ingest progress, so runs are deterministic for a
given seed), :func:`~repro.chaos.runner.run_scenario` drives a real
asyncio ring through the schedule while deduplicating a seeded workload,
and :func:`~repro.chaos.invariants.check_invariants` verifies afterwards
that no unique chunk was lost, dedup accounting is conserved, and the
replicas converged. Four ladder scenarios (migration, restore, overload,
hot-index) stress one protocol each the same way.
:data:`~repro.chaos.table.SCENARIO_TABLE` names all nine, and every one
returns a :class:`~repro.chaos.report.ScenarioReport` whose named checks
are the verdict. Exposed as ``repro chaos`` on the CLI and measured by
``benchmarks/bench_chaos_recovery.py``.
"""

from repro.chaos.hotindex_scenario import run_hotindex_scenario
from repro.chaos.invariants import check_invariants
from repro.chaos.migration_scenario import run_migration_scenario
from repro.chaos.overload_scenario import run_overload_scenario
from repro.chaos.report import ScenarioReport
from repro.chaos.restore_scenario import run_restore_scenario
from repro.chaos.runner import run_scenario
from repro.chaos.scenarios import (
    SCENARIOS,
    ChaosScenario,
    FaultEvent,
    crash_restart,
    flapping,
    get_scenario,
    partition_heal,
    rolling_restart,
    slow_node,
)
from repro.chaos.table import SCENARIO_TABLE, Scenario

__all__ = [
    "ChaosScenario",
    "FaultEvent",
    "SCENARIOS",
    "SCENARIO_TABLE",
    "Scenario",
    "ScenarioReport",
    "check_invariants",
    "crash_restart",
    "flapping",
    "get_scenario",
    "partition_heal",
    "rolling_restart",
    "run_hotindex_scenario",
    "run_migration_scenario",
    "run_overload_scenario",
    "run_restore_scenario",
    "run_scenario",
    "slow_node",
]
