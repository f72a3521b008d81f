"""Tests for the adaptive ring replanner and the CLI."""

import numpy as np
import pytest

from repro.core.costs import SNOD2Problem
from repro.core.model import ChunkPoolModel, grouped_sources
from repro.core.partitioning import SmartPartitioner
from repro.network.costmatrix import latency_cost_matrix
from repro.network.topology import build_testbed
from repro.system.replanner import RingReplanner, drift_model
from repro.cli import main as cli_main


def problem_for(model: ChunkPoolModel, alpha: float = 10.0) -> SNOD2Problem:
    topo = build_testbed(model.n_sources, min(4, model.n_sources))
    return SNOD2Problem(
        model=model, nu=latency_cost_matrix(topo), duration=2.0, gamma=2, alpha=alpha
    )


def base_model(n: int = 8) -> ChunkPoolModel:
    return ChunkPoolModel(
        [100.0, 100.0],
        grouped_sources([i % 2 for i in range(n)], [[0.9, 0.1], [0.1, 0.9]], 80.0),
    )


class TestDriftModel:
    def test_zero_drift_identity(self):
        model = base_model()
        drifted = drift_model(model, 0.0)
        for a, b in zip(model.sources, drifted.sources):
            assert a.vector == pytest.approx(b.vector)

    def test_drift_changes_vectors(self):
        model = base_model()
        drifted = drift_model(model, 0.5, seed=1)
        assert drifted.sources[0].vector != model.sources[0].vector

    def test_drifted_vectors_still_normalized(self):
        drifted = drift_model(base_model(), 0.7, seed=2)
        for src in drifted.sources:
            assert sum(src.vector) == pytest.approx(1.0)

    def test_drift_validation(self):
        with pytest.raises(ValueError):
            drift_model(base_model(), 1.5)


class TestRingReplanner:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            RingReplanner(SmartPartitioner(2), migration_cost=-1.0)
        with pytest.raises(ValueError):
            RingReplanner(SmartPartitioner(2), horizon_intervals=0.0)

    def test_first_observation_always_plans(self):
        replanner = RingReplanner(SmartPartitioner(2))
        decision = replanner.observe(problem_for(base_model()))
        assert decision.replan
        assert decision.reason == "initial plan"
        assert replanner.current_partition is not None

    def test_stable_statistics_no_replan_with_migration_cost(self):
        replanner = RingReplanner(
            SmartPartitioner(2), migration_cost=1e6, horizon_intervals=10
        )
        problem = problem_for(base_model())
        replanner.observe(problem)
        decision = replanner.observe(problem)  # same statistics again
        assert not decision.replan
        assert decision.saving_per_interval <= 1e-6

    def test_zero_migration_cost_replans_on_any_improvement(self):
        replanner = RingReplanner(SmartPartitioner(2), migration_cost=0.0)
        replanner.observe(problem_for(base_model()))
        # Heavy drift: the old partition is now wrong.
        drifted = drift_model(base_model(), 0.9, seed=3)
        decision = replanner.observe(problem_for(drifted))
        # Either it found a strictly better plan (replan) or the greedy
        # landed on the same cost; assert the decision is coherent.
        if decision.replan:
            assert decision.candidate_cost < decision.current_cost
        else:
            assert decision.candidate_cost >= decision.current_cost - 1e-9

    def test_migration_cost_gates_small_savings(self):
        cheap = RingReplanner(SmartPartitioner(2), migration_cost=0.0)
        expensive = RingReplanner(
            SmartPartitioner(2), migration_cost=1e9, horizon_intervals=1
        )
        for replanner in (cheap, expensive):
            replanner.observe(problem_for(base_model()))
            replanner.observe(problem_for(drift_model(base_model(), 0.6, seed=4)))
        assert not expensive.history[-1].replan  # saving can't beat 1e9

    def test_membership_change_forces_replan(self):
        replanner = RingReplanner(SmartPartitioner(2), migration_cost=1e9)
        replanner.observe(problem_for(base_model(8)))
        decision = replanner.observe(problem_for(base_model(10)))
        assert decision.replan
        assert decision.reason == "fleet membership changed"

    def test_history_recorded(self):
        replanner = RingReplanner(SmartPartitioner(2))
        problem = problem_for(base_model())
        replanner.observe(problem)
        replanner.observe(problem)
        assert len(replanner.history) == 2

    def test_history_bounded_keeps_most_recent(self):
        """A long-lived control loop must not grow history without bound."""
        replanner = RingReplanner(SmartPartitioner(2), history_limit=3)
        problem = problem_for(base_model())
        for _ in range(7):
            replanner.observe(problem)
        assert len(replanner.history) == 3
        # The retained records are the most recent ones: only the very first
        # observation is the "initial plan".
        assert all(d.reason != "initial plan" for d in replanner.history)

    def test_history_limit_validated(self):
        with pytest.raises(ValueError):
            RingReplanner(SmartPartitioner(2), history_limit=0)


class TestCLI:
    def test_plan_command(self, capsys):
        assert cli_main(["plan", "--nodes", "8", "--clouds", "4", "--rings", "2"]) == 0
        out = capsys.readouterr().out
        assert "SMART plan" in out
        assert "ring-0" in out
        assert "aggregate=" in out

    def test_simulate_command(self, capsys):
        assert cli_main(["simulate", "--nodes", "40", "--rings", "5"]) == 0
        out = capsys.readouterr().out
        assert "SMART" in out and "Network-Only" in out and "Dedup-Only" in out

    def test_estimate_command(self, capsys):
        assert cli_main(["estimate", "--files", "2", "--pools", "2"]) == 0
        out = capsys.readouterr().out
        assert "mse=" in out and "pool sizes" in out

    def test_figures_subset(self, capsys):
        assert cli_main(["figures", "fig6a"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6a" in out

    def test_unknown_figure_rejected(self, capsys):
        assert cli_main(["figures", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main([])

    def test_secure_command_check(self, capsys, tmp_path):
        metrics = tmp_path / "secure_metrics.json"
        rc = cli_main(["secure", "--check", "--metrics-json", str(metrics)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "hotindex: streamed" in out
        assert "pow: challenges=" in out
        assert "secure: PASS" in out
        assert metrics.exists()

    def test_secure_rejects_odd_node_count(self, capsys):
        assert cli_main(["secure", "--nodes", "5"]) == 2
        assert "even count" in capsys.readouterr().err

    def test_chaos_hotindex_command(self, capsys, tmp_path):
        report = tmp_path / "hotindex.json"
        rc = cli_main(["chaos", "hot-index", "--json", str(report)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "state=COMMITTED" in out
        assert "chaos: PASS" in out
        assert report.exists()

    def test_replan_command_check(self, capsys, tmp_path):
        metrics = tmp_path / "replan_metrics.json"
        rc = cli_main(
            [
                "replan",
                "--restarts",
                "1",
                "--fit-iters",
                "400",
                "--workers",
                "2",
                "--seed",
                "11",
                "--check",
                "--metrics-json",
                str(metrics),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "migrated:" in out
        assert "window closed:" in out
        assert "check: PASS" in out
        assert metrics.exists()

    def test_replan_check_fails_when_the_cutover_never_commits(
        self, capsys, monkeypatch
    ):
        from repro.system.migration import LiveMigrator

        monkeypatch.setattr(LiveMigrator, "close_window", lambda self: self.report)
        rc = cli_main(
            ["replan", "--restarts", "1", "--fit-iters", "400", "--workers", "2",
             "--seed", "11", "--check"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "check: FAIL" in err
        assert "migration ended DUAL_LOOKUP, not COMMITTED" in err

    def test_secure_check_fails_when_the_edge_served_no_lookup(self, capsys):
        # An empty hot slice commits but can answer nothing from the edge.
        rc = cli_main(["secure", "--check", "--hot-size", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "secure: FAIL" in err and "edge_hits=0" in err
        assert "committed=True" in err

