"""Tests for the chaos harness: scenario construction, the invariant
checker, the one report contract every scenario in the table honours, the
``repro chaos`` command built on it, and full seeded runs against live
rings."""

import json

import pytest

import repro.cli
from repro.chaos import (
    ChaosScenario,
    FaultEvent,
    SCENARIOS,
    SCENARIO_TABLE,
    ScenarioReport,
    check_invariants,
    crash_restart,
    flapping,
    get_scenario,
    partition_heal,
    rolling_restart,
    run_migration_scenario,
    run_scenario,
)
from repro.chaos.migration_scenario import default_migration_partitions
from repro.cli import main as cli_main
from repro.system.config import EFDedupConfig
from repro.system.reference import seeded_pool_workload
from repro.system.ring import D2Ring


class TestScenarios:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="at_fraction"):
            FaultEvent(1.0, "kill", 0)
        with pytest.raises(ValueError, match="action"):
            FaultEvent(0.5, "explode", 0)
        with pytest.raises(ValueError, match="node_index"):
            FaultEvent(0.5, "kill", -1)

    def test_events_must_be_ordered(self):
        with pytest.raises(ValueError, match="ordered"):
            ChaosScenario(
                "bad", "out of order",
                (FaultEvent(0.6, "restart", 0), FaultEvent(0.2, "kill", 0)),
            )

    def test_min_nodes_tracks_highest_index(self):
        assert crash_restart(node_index=1).min_nodes == 2
        assert rolling_restart(4).min_nodes == 4
        assert flapping().min_nodes == 2
        assert partition_heal().min_nodes == 2

    def test_every_builtin_heals_what_it_breaks(self):
        for name in SCENARIOS:
            scenario = get_scenario(name, 4)
            downs = sum(1 for e in scenario.events if e.action in ("kill", "isolate"))
            ups = sum(1 for e in scenario.events if e.action in ("restart", "heal"))
            assert downs == ups, name

    def test_get_scenario_rejects_unknown_and_small_rings(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("meteor-strike", 3)
        with pytest.raises(ValueError, match="nodes"):
            get_scenario("rolling-restart", 1)

    def test_flapping_cycle_count(self):
        assert len(flapping(cycles=4).events) == 8
        with pytest.raises(ValueError):
            flapping(cycles=0)


class TestWorkload:
    def test_deterministic_per_seed(self):
        a = seeded_pool_workload(3, 2, 8, seed=7)
        b = seeded_pool_workload(3, 2, 8, seed=7)
        c = seeded_pool_workload(3, 2, 8, seed=8)
        assert a == b
        assert a != c

    def test_shape(self):
        w = seeded_pool_workload(2, 3, 8, seed=1)
        assert sorted(w) == ["edge-0", "edge-1"]
        assert all(len(files) == 3 for files in w.values())
        assert all(len(f) == 8 * 1024 for files in w.values() for f in files)


class TestInvariantChecker:
    def test_clean_inproc_run_passes(self):
        workload = seeded_pool_workload(3, 2, 8, seed=3)
        ring = D2Ring(
            "t-0", sorted(workload),
            config=EFDedupConfig(chunk_size=4096, lookup_batch=8),
        )
        for node_id, files in workload.items():
            for data in files:
                ring.agent(node_id).ingest(data)
        report = check_invariants(ring)
        assert report.passed
        assert report.violations == []
        assert set(report.checks) >= {
            "chunk_claims_conserved",
            "no_unique_chunk_lost",
            "replicas_converged",
            "fully_replicated",
        }

    def test_lost_upload_is_caught(self):
        ring = D2Ring(
            "t-0", ["a", "b"],
            config=EFDedupConfig(chunk_size=4096),
        )
        ring.agent("a").ingest(b"x" * 8192)
        ring.cloud._chunks.popitem()  # silently lose one stored chunk
        report = check_invariants(ring)
        assert not report.passed
        assert any("no_unique_chunk_lost" in v for v in report.violations)

    def test_report_serializes(self):
        ring = D2Ring("t-0", ["a", "b"], config=EFDedupConfig(chunk_size=4096))
        doc = check_invariants(ring).as_dict()
        assert doc["passed"] is True
        assert isinstance(doc["checks"], dict)


class TestRunScenario:
    def test_seeded_crash_restart_passes_and_matches_baseline(self, tmp_path):
        report = run_scenario(
            "crash-restart", nodes=3, files_per_node=3, file_kb=16,
            seed=11, data_dir=tmp_path,
        )
        assert report.passed
        assert report.violations == []
        assert report.dedup_ratio == report.baseline_ratio > 1.0
        assert report.events_fired == [
            "kill:edge-1@0.25", "restart:edge-1@0.60",
        ]
        assert len(report.measurements["recovery_times_s"]) == 1
        assert report.checks["recoveries_timed"]
        # The killed member really came back from its WAL.
        wal = report.measurements["wal_stats"]["edge-1"]
        assert wal["log_entries_replayed"] + wal["snapshot_entries_loaded"] > 0
        assert report.checks["wal_reloaded"]
        doc = report.as_dict()
        assert doc["passed"] is True
        assert doc["scenario"] == "crash-restart"

    def test_custom_scenario_and_node_floor(self):
        lone = ChaosScenario(
            "solo", "kill the fourth member",
            (FaultEvent(0.2, "kill", 3), FaultEvent(0.8, "restart", 3)),
        )
        with pytest.raises(ValueError, match="nodes"):
            run_scenario(lone, nodes=3)

    def test_unhealed_faults_are_auto_healed(self):
        """A scenario that only kills must still end with every member up
        (the safety net restarts it) and pass the invariants."""
        kill_only = ChaosScenario(
            "kill-only", "crash without restart",
            (FaultEvent(0.3, "kill", 1),),
        )
        report = run_scenario(
            kill_only, nodes=3, files_per_node=2, file_kb=8, seed=5,
        )
        assert report.passed
        assert any(e.startswith("auto-restart:") for e in report.events_fired)


class TestMigrationScenario:
    def test_default_partitions_move_one_node(self):
        old, new = default_migration_partitions(6)
        assert old == [[0, 1, 2], [3, 4, 5]]
        assert new == [[0, 1], [2, 3, 4, 5]]
        with pytest.raises(ValueError, match="nodes"):
            default_migration_partitions(3)

    def test_migrate_under_faults_matches_fault_free_migration(self):
        report = run_migration_scenario(seed=7)
        assert report.passed
        assert report.measurements["state"] == "COMMITTED"
        assert report.checks["committed"] and report.checks["nodes_moved"]
        assert report.dedup_ratio == report.baseline_ratio > 1.0
        assert report.events_fired == [
            "kill:edge-0@window-open", "restart:edge-0@window-mid",
        ]
        assert report.measurements["recovery_time_s"] > 0
        migration = report.measurements["migration"]
        assert migration["nodes_moved"] == 1.0
        assert migration["entries_streamed"] > 0
        doc = report.as_dict()
        assert doc["passed"] is True
        assert doc["scenario"] == "migrate-under-faults"

    def test_gamma_floor_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            run_migration_scenario(gamma=1)


class TestHotIndexScenario:
    def test_hot_slice_migration_matches_migration_free_twin(self):
        from repro.chaos import run_hotindex_scenario

        report = run_hotindex_scenario(seed=7)
        assert report.passed
        measured = report.measurements
        assert measured["state"] == "COMMITTED"
        assert report.dedup_ratio == report.baseline_ratio > 1.0
        assert measured["edge_hits"] > 0  # hot claims answered at the edge
        assert measured["entries_streamed"] > 0
        assert measured["entries_restreamed"] > 0  # swept-then-reuploaded keys
        assert report.checks == {
            "ratio_matches_baseline": True,
            "committed": True,
            "edge_served_lookups": True,
            "delta_pass_fired": True,
        }
        assert report.events_fired == [
            "migrate:window-open",
            "sweep:victim@window-mid",
            "reupload:victim@window-mid",
            "close:window-commit",
        ]
        doc = report.as_dict()
        assert doc["passed"] is True
        assert doc["scenario"] == "hot-index"

    def test_node_count_validated(self):
        from repro.chaos import run_hotindex_scenario

        with pytest.raises(ValueError, match="even node count"):
            run_hotindex_scenario(nodes=3)


# Small sizes for the sweeps below: every scenario once, in seconds.
SMALL = {"files_per_node": 2, "file_kb": 8, "seed": 7, "duration_s": 0.3}


def run_small(name: str) -> ScenarioReport:
    entry = SCENARIO_TABLE[name]
    return entry.run(**{k: v for k, v in SMALL.items() if k in entry.defaults})


class TestScenarioTable:
    def test_table_covers_every_fault_schedule(self):
        assert set(SCENARIOS) < set(SCENARIO_TABLE)
        assert len(SCENARIO_TABLE) == 9

    def test_defaults_come_from_the_run_function(self):
        assert SCENARIO_TABLE["hot-index"].defaults == {
            "nodes": 4, "files_per_node": 2, "file_kb": 8, "seed": 7,
            "hot_size": 64,
        }
        crash = SCENARIO_TABLE["crash-restart"].defaults
        assert "scenario" not in crash  # bound by the table row
        assert (crash["nodes"], crash["files_per_node"], crash["file_kb"]) == (3, 6, 32)

    def test_docs_name_every_scenario(self):
        """The CLI docstring lists the table; run_scenario's lists the
        fault schedules it accepts by name."""
        for name in SCENARIO_TABLE:
            assert name in repro.cli.__doc__, name
        for name in SCENARIOS:
            assert f"``{name}``" in run_scenario.__doc__, name

    @pytest.mark.parametrize("name", list(SCENARIO_TABLE))
    def test_one_report_contract(self, name):
        report = run_small(name)
        assert type(report) is ScenarioReport
        assert report.scenario == name
        assert report.seed == 7 and report.total_files > 0
        doc = json.loads(json.dumps(report.as_dict()))
        assert set(doc) == {
            "scenario", "seed", "nodes", "total_files", "events_fired",
            "passed", "checks", "violations", "dedup_ratio",
            "baseline_ratio", "ratio_matches_baseline", "measurements",
        }
        assert report.passed == (report.violations == []) == doc["passed"]
        assert report.checks, "a scenario that checks nothing proves nothing"
        for check, ok in report.checks.items():
            assert ok or any(v.startswith(f"{check}: ") for v in report.violations)
        # No twin, no ratio check — never a run compared with itself.
        assert (report.baseline_ratio is None) == (
            "ratio_matches_baseline" not in report.checks
        )
        # Every verdict is seeded but one: overload's admitted-latency bound
        # reads the wall clock, so a noisy box may miss it.
        assert [
            v for v in report.violations
            if not v.startswith("admitted_latency_bounded: ")
        ] == []


class TestReport:
    def test_failed_check_leaves_a_named_violation(self):
        report = ScenarioReport("demo")
        report.record("held", True, "never shown")
        report.record("broke", False, "3 != 4")
        assert report.checks == {"held": True, "broke": False}
        assert report.violations == ["broke: 3 != 4"]
        assert not report.passed

    def test_ratio_check_needs_a_twin(self):
        report = ScenarioReport("demo")
        assert report.ratio_matches_baseline is None
        report.record_ratio(2.0, 2.5, "fault-free")
        assert report.ratio_matches_baseline is False
        assert report.violations == [
            "ratio_matches_baseline: ratio 2.0 != fault-free baseline 2.5"
        ]

    def test_merge_adopts_checks_and_violations(self):
        sweep = ScenarioReport("ring-invariants")
        sweep.record("replicas_converged", False, "7 keys streamed")
        report = ScenarioReport("demo")
        report.record("committed", True, "")
        report.merge(sweep)
        assert list(report.checks) == ["committed", "replicas_converged"]
        assert report.violations == ["replicas_converged: 7 keys streamed"]


# (scenario, a flag that scenario does not read)
FOREIGN_FLAGS = [
    ("hot-index", "--gamma", "3"),
    ("hot-index", "--batch", "4"),
    ("hot-index", "--data-dir", "/tmp/x"),
    ("migrate-under-faults", "--codec", "json"),
    ("migrate-under-faults", "--data-dir", "/tmp/x"),
    ("restore-under-zone-failure", "--heartbeat-ms", "50"),
    ("overload", "--hot-size", "8"),
    ("overload", "--data-dir", "/tmp/x"),
    ("crash-restart", "--knee-rps", "9"),
    ("slow-node", "--duration-s", "1"),
    ("partition-heal", "--hot-size", "8"),
]


class TestChaosCommand:
    @pytest.mark.parametrize("scenario,flag,value", FOREIGN_FLAGS)
    def test_flag_the_scenario_does_not_read_is_rejected(
        self, capsys, scenario, flag, value
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["chaos", scenario, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and scenario in err

    def test_prints_every_check_and_one_json_shape(self, capsys, tmp_path):
        path = tmp_path / "chaos.json"
        rc = cli_main([
            "chaos", "partition-heal", "--files", "2", "--file-kb", "8",
            "--heartbeat-ms", "50", "--json", str(path),
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "heartbeat_interval_s=0.05" in out
        assert "events: isolate:edge-1@0.25, heal:edge-1@0.60" in out
        doc = json.loads(path.read_text())
        for check in doc["checks"]:
            assert f"  ok  {check}\n" in out
        assert "match=True" in out and "chaos: PASS" in out

    def test_migration_fail_names_the_failed_check(self, capsys, monkeypatch):
        """A window that never closes: the run ends in DUAL_LOOKUP and the
        FAIL line says so by check name, not with a generic message."""
        from repro.system.migration import LiveMigrator

        monkeypatch.setattr(LiveMigrator, "close_window", lambda self: None)
        rc = cli_main(["chaos", "migrate-under-faults"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "  FAIL committed\n" in captured.out
        assert "chaos: FAIL" in captured.err
        assert "committed: migration ended in state DUAL_LOOKUP" in captured.err

    def test_restore_fail_names_the_failed_check(self, capsys, monkeypatch):
        """One file comes back corrupt once the edge shelves are gone: the
        FAIL line names the degraded-restore check and its count."""
        from repro.system.cluster import DurableEFDedupCluster

        real_restore = DurableEFDedupCluster.restore_file

        def corrupt_b0(self, file_id):
            data = real_restore(self, file_id)
            return data[:-1] + b"\x00" if file_id == "b-0" else data

        monkeypatch.setattr(DurableEFDedupCluster, "restore_file", corrupt_b0)
        rc = cli_main([
            "chaos", "restore-under-zone-failure", "--files", "2",
            "--file-kb", "8",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "  FAIL degraded_restores_exact\n" in captured.out
        assert "  ok  healthy_restores_exact\n" in captured.out
        assert "degraded_restores_exact: 1 file(s) restored from k-of-n" in captured.err
