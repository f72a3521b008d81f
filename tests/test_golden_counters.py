"""Golden counters: one seeded in-process run, recorded once, replayed exactly.

Two rings of three members at γ = 2; agents ``edge-0`` and ``edge-1``
ingest from a shared block pool. Mid-run ``edge-2`` is marked down (routes
degrade, writes become hints), a batch at consistency ALL must raise
``UnavailableError`` and apply nothing, and ``edge-2`` is marked up again
(hint replay, recovery repair). Every ``lookups.*``, ``kvstore.*`` and
``dedup.*`` series, each agent's per-key verdicts and the hint count must
equal ``golden_counters.json``, which was recorded before the claim path
placed, routed and counted keys per batch — so any counter that drifts
with that change fails here.

Regenerate (only when a counter's meaning changes on purpose)::

    PYTHONPATH=src python tests/test_golden_counters.py > tests/golden_counters.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.errors import UnavailableError
from repro.system.reference import reference_cluster, seeded_pool_workload

GOLDEN = Path(__file__).with_name("golden_counters.json")
AGENTS = ("edge-0", "edge-1")
VICTIM = "edge-2"
LAYERS = ("lookups", "kvstore", "dedup")


def run_script() -> dict:
    """The seeded run; returns everything the golden file pins."""
    workloads = seeded_pool_workload(6, 6, 96, seed=27, pool_blocks=160)
    verdicts: dict[str, list[bool]] = {agent: [] for agent in AGENTS}
    with reference_cluster(6, [[0, 1, 2], [3, 4, 5]]) as cluster:
        ring = cluster.ring_for(AGENTS[0])
        for agent in AGENTS:
            index = ring.ring_indexes[agent]
            claim = index.lookup_and_insert_many

            def recording(fps, metadata=None, _claim=claim, _out=verdicts[agent]):
                answers = _claim(fps, metadata)
                _out.extend(answers)
                return answers

            index.lookup_and_insert_many = recording

        def ingest(files: slice) -> None:
            for agent in AGENTS:
                for data in workloads[agent][files]:
                    cluster.ingest(agent, data)

        ingest(slice(0, 2))
        ring.store.mark_down(VICTIM)
        ingest(slice(2, 4))
        before = ring.store.unique_keys()
        probe = [f"all-{i}" for i in range(16)]
        with pytest.raises(UnavailableError):
            ring.store.put_if_absent_many(
                probe, "", consistency=ConsistencyLevel.ALL, coordinator=AGENTS[0]
            )
        assert ring.store.unique_keys() == before  # applied nothing
        hints = ring.store.hints.total_pending
        ring.store.mark_up(VICTIM)
        ingest(slice(4, 6))
        series = {
            name: value["count"] if isinstance(value, dict) else value
            for name, value in cluster.metrics_hub().collect().items()
            if name.split(".")[1] in LAYERS
        }
    return {
        "series": dict(sorted(series.items())),
        "verdicts": {
            agent: "".join("n" if new else "d" for new in answers)
            for agent, answers in verdicts.items()
        },
        "hints_pending_at_mark_up": hints,
    }


@pytest.fixture(scope="module")
def result() -> dict:
    return run_script()


def test_counters_equal_the_golden_file(result):
    golden = json.loads(GOLDEN.read_text())
    assert result["series"] == golden["series"]
    assert result["verdicts"] == golden["verdicts"]
    assert result["hints_pending_at_mark_up"] == golden["hints_pending_at_mark_up"] > 0


def test_the_run_exercises_every_path(result):
    series = result["series"]
    assert series["ring-0.kvstore.unavailable_errors"] == 1
    assert series["ring-0.kvstore.hints_replayed"] == result["hints_pending_at_mark_up"]
    assert series["ring-0.lookups.local"] > 0 and series["ring-0.lookups.remote"] > 0
    for answers in result["verdicts"].values():
        assert "n" in answers and "d" in answers


@pytest.mark.parametrize("ring", ["ring-0", "ring-1"])
def test_counter_identities(result, ring):
    series = result["series"]
    assert series[f"{ring}.lookups.local"] + series[f"{ring}.lookups.remote"] == (
        series[f"{ring}.dedup.lookups"]
    )
    # Every read of the run is coordinated, so each is local or remote.
    assert series[f"{ring}.kvstore.reads"] == (
        series[f"{ring}.kvstore.local_reads"] + series[f"{ring}.kvstore.remote_reads"]
    )


if __name__ == "__main__":
    json.dump(run_script(), sys.stdout, indent=1)
    sys.stdout.write("\n")
