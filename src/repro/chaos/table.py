"""The scenario table: every chaos scenario by name.

One row per scenario — its run function and a one-line summary. Nothing
else is written down twice: the sizes a scenario defaults to and the
options it reads are its run function's own keyword parameters
(:attr:`Scenario.defaults`), so ``repro chaos``, the contract test and
CI's smoke loop all follow the function, and a flag a scenario does not
read cannot be silently accepted for it.

A new scenario is a run function that returns a
:class:`~repro.chaos.report.ScenarioReport` it ``record()``\\ ed its checks
on, plus one row here.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.chaos.hotindex_scenario import run_hotindex_scenario
from repro.chaos.migration_scenario import run_migration_scenario
from repro.chaos.overload_scenario import run_overload_scenario
from repro.chaos.report import ScenarioReport
from repro.chaos.restore_scenario import run_restore_scenario
from repro.chaos.runner import run_scenario
from repro.chaos.scenarios import SCENARIOS


@dataclass(frozen=True)
class Scenario:
    """One row of the table."""

    run: Callable[..., ScenarioReport]
    summary: str

    @property
    def defaults(self) -> dict[str, Any]:
        """Keyword → default of every parameter ``run`` accepts."""
        return {
            name: param.default
            for name, param in inspect.signature(self.run).parameters.items()
        }


_FAULT_SCHEDULE_SUMMARIES = {
    "crash-restart": "kill one member mid-ingest and restart it from its WAL",
    "rolling-restart": "restart every member in turn, one at a time",
    "flapping": "one member crashes and rejoins repeatedly",
    "partition-heal": "isolate one member from every peer, then heal",
    "slow-node": "one member turns gray (alive but lognormally slow) mid-ingest",
}

SCENARIO_TABLE: dict[str, Scenario] = {
    **{
        name: Scenario(partial(run_scenario, name), _FAULT_SCHEDULE_SUMMARIES[name])
        for name in SCENARIOS
    },
    "migrate-under-faults": Scenario(
        run_migration_scenario,
        "crash a source-ring node while a live migration's dual-lookup "
        "window is open; the ratio must equal the fault-free migration's",
    ),
    "restore-under-zone-failure": Scenario(
        run_restore_scenario,
        "fail m cloud-tier zones, evict the edge shelves, and require "
        "byte-exact k-of-n restores plus a clean GC sweep",
    ),
    "overload": Scenario(
        run_overload_scenario,
        "drive an open-loop generator past the knee and require bounded "
        "admitted latency, exact shed accounting and a reconciled ratio "
        "equal to the unloaded baseline",
    ),
    "hot-index": Scenario(
        run_hotindex_scenario,
        "migrate the secure tier's hot key slice to the edge under live "
        "ingest with a GC sweep mid-window; the ratio must equal the "
        "migration-free twin's",
    ),
}
