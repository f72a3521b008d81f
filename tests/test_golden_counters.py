"""Golden counters: one seeded run, recorded once, replayed exactly.

Two rings of three members; agents ``edge-0`` and ``edge-1`` ingest from a
shared block pool. Mid-run ``edge-2`` is marked down (routes degrade,
writes become hints), a batch at consistency ALL must raise
``UnavailableError`` and apply nothing, and ``edge-2`` is marked up again
(hint replay, recovery repair).

``golden_counters.json`` pins the in-process run at 16-key lookup batches
and γ = 2: every ``lookups.*``, ``kvstore.*`` and ``dedup.*`` series, each
agent's per-key verdicts and the hint count. It was recorded before the
claim path placed, routed and counted keys per batch.

``golden_counters_batch1.json`` pins the same script at ``lookup_batch =
1`` (the paper's serial per-chunk queries), at ONE over γ = 2 and at
QUORUM over γ = 3, with every count-valued ``lookups.*``, ``kvstore.*``,
``dedup.*`` and ``rpc.*`` series of the asyncio transport. It was recorded
while a batch of one still went through a per-key claim verb; three
counters have since taken their batched meaning and are checked by
identity instead (:data:`BATCH_ONE_MOVED`). The in-process run must equal
the asyncio run on every series the two share.

Regenerate (only when a counter's meaning changes on purpose)::

    PYTHONPATH=src python tests/test_golden_counters.py > tests/golden_counters.json
    PYTHONPATH=src python tests/test_golden_counters.py batch1 > tests/golden_counters_batch1.json
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
GOLDEN_BATCH_ONE = Path(__file__).with_name("golden_counters_batch1.json")
AGENTS = ("edge-0", "edge-1")
VICTIM = "edge-2"
LAYERS = ("lookups", "kvstore", "dedup")
# Consistency level → replication factor of the lookup_batch = 1 runs.
# QUORUM needs γ = 3 to keep a quorum while the victim is down.
BATCH_ONE_LEVELS = {"ONE": 2, "QUORUM": 3}
# The counters a batch of one moves when it is claimed as a batch: a round
# per chunk, and remote contacts per round instead of per get and per put.
BATCH_ONE_MOVED = ("lookups.batch_rounds", "kvstore.batch_rounds", "kvstore.remote_contacts")


def verdicts_of(engine, data: bytes, unique: tuple[str, ...]) -> str:
    """Per-key verdicts of one ingest: ``n`` for each chunk whose
    fingerprint is the ingest's next unique one, ``d`` for the rest."""
    pending = iter(unique)
    head = next(pending, None)
    out = []
    for chunk in engine.chunker.chunk_views(data):
        if engine.fingerprint(chunk.data) == head:
            out.append("n")
            head = next(pending, None)
        else:
            out.append("d")
    return "".join(out)


def run_script(layers=LAYERS, counts_only: bool = False, **overrides) -> dict:
    """The seeded run; returns everything the golden files pin.

    ``overrides`` are :class:`~repro.system.config.EFDedupConfig` fields
    on top of :func:`reference_cluster`'s. ``counts_only`` drops the
    histogram series (timings) from the record.
    """
    workloads = seeded_pool_workload(6, 6, 96, seed=27, pool_blocks=160)
    verdicts = {agent: "" for agent in AGENTS}
    with reference_cluster(6, [[0, 1, 2], [3, 4, 5]], **overrides) as cluster:
        ring = cluster.ring_for(AGENTS[0])

        def ingest(files: slice) -> None:
            for agent in AGENTS:
                for data in workloads[agent][files]:
                    result = cluster.ingest(agent, data)
                    engine = ring.agents[agent].engine
                    verdicts[agent] += verdicts_of(engine, data, result.unique_fingerprints)

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
            if name.split(".")[1] in layers
            and not (counts_only and isinstance(value, dict))
        }
    return {
        "series": dict(sorted(series.items())),
        "verdicts": verdicts,
        "hints_pending_at_mark_up": hints,
    }


def run_batch_one(level: str, transport: str) -> dict:
    return run_script(
        layers=LAYERS + ("rpc",),
        counts_only=True,
        lookup_batch=1,
        transport=transport,
        consistency=ConsistencyLevel[level],
        replication_factor=BATCH_ONE_LEVELS[level],
    )


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


@pytest.fixture(scope="module", params=sorted(BATCH_ONE_LEVELS))
def batch_one(request) -> dict:
    return {t: run_batch_one(request.param, t) for t in ("inproc", "asyncio")} | {
        "golden": json.loads(GOLDEN_BATCH_ONE.read_text())[request.param]
    }


def test_batch_one_transports_agree(batch_one):
    inproc, live = batch_one["inproc"], batch_one["asyncio"]
    shared = inproc["series"].keys() & live["series"].keys()
    assert shared == inproc["series"].keys()
    assert {n: inproc["series"][n] for n in shared} == {n: live["series"][n] for n in shared}
    assert inproc["verdicts"] == live["verdicts"]


@pytest.mark.parametrize("transport", ["inproc", "asyncio"])
def test_batch_one_equals_the_golden_file(batch_one, transport):
    run, golden = batch_one[transport], batch_one["golden"]
    assert run["verdicts"] == golden["verdicts"]
    assert run["hints_pending_at_mark_up"] == golden["hints_pending_at_mark_up"] > 0
    moved = {n for n in run["series"] if n.split(".", 1)[1] in BATCH_ONE_MOVED}
    assert len(moved) == 2 * len(BATCH_ONE_MOVED)
    assert {n: v for n, v in run["series"].items() if n not in moved} == {
        n: golden["series"][n] for n in run["series"] if n not in moved
    }
    series = run["series"]
    for ring in ("ring-0", "ring-1"):
        # One claim round per chunk, counted once by the agent and once
        # by the store.
        assert series[f"{ring}.lookups.batch_rounds"] == (
            series[f"{ring}.kvstore.batch_rounds"]
        ) == series[f"{ring}.dedup.lookups"]
    # A round contacts each replica once for its read and its write.
    assert 0 < series["ring-0.kvstore.remote_contacts"] < (
        golden["series"]["ring-0.kvstore.remote_contacts"]
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["batch1"]:
        record = {level: run_batch_one(level, "asyncio") for level in sorted(BATCH_ONE_LEVELS)}
    else:
        record = run_script()
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")
