"""Batched acquisition (``batch_k``).

The contract under test: ``batch_k=1`` (the default) is the paper's
sequential Algorithm 1, bit for bit; ``batch_k > 1`` trades some
sample-efficiency fidelity for wall-clock but must stay seed-
deterministic and observe at most ``batch_k`` candidates per BO round.
"""

from __future__ import annotations

import pytest

from conftest import make_node
from repro.core import CLITEConfig, CLITEEngine
from repro.telemetry import Telemetry
from test_core_termination_engine import small_engine_config


def trajectory(mini_server, *, seed=0, telemetry=None, **overrides):
    node = make_node(
        mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.01, seed=seed
    )
    config = small_engine_config(seed=seed, telemetry=telemetry, **overrides)
    result = CLITEEngine(node, config).optimize()
    return [
        (
            sample.config.as_array().tobytes(),
            sample.score,
            sample.expected_improvement,
        )
        for sample in result.samples
    ]


class TestBatchConfigValidation:
    def test_batch_k_must_be_positive(self, mini_server):
        node = make_node(mini_server)
        with pytest.raises(ValueError, match="batch_k"):
            CLITEEngine(node, small_engine_config(batch_k=0))


class TestSequentialFidelity:
    def test_explicit_batch_k_1_matches_default(self, mini_server):
        """Passing batch_k=1 explicitly changes nothing."""
        assert trajectory(mini_server) == trajectory(mini_server, batch_k=1)


class TestBatchDeterminism:
    def test_same_seed_same_trajectory(self, mini_server):
        kwargs = dict(batch_k=4)
        assert trajectory(mini_server, **kwargs) == trajectory(
            mini_server, **kwargs
        )

    def test_different_seeds_differ(self, mini_server):
        assert trajectory(mini_server, seed=0, batch_k=4) != trajectory(
            mini_server, seed=1, batch_k=4
        )


class TestBatchBudget:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_max_samples_respected(self, mini_server, k):
        """A batch never overshoots the total observation budget, even
        when the budget is not a multiple of k."""
        node = make_node(
            mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.01
        )
        config = small_engine_config(
            max_samples=11,
            max_iterations=50,
            post_qos_iterations=10**6,
            batch_k=k,
        )
        result = CLITEEngine(node, config).optimize()
        assert len(result.samples) <= 11

    def test_equal_budget_same_observation_count(self, mini_server):
        """With EI termination disabled, every k exhausts the budget."""
        counts = set()
        for k in (1, 4):
            node = make_node(
                mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.01
            )
            config = small_engine_config(
                max_samples=16,
                max_iterations=10**6,
                post_qos_iterations=10**6,
                batch_k=k,
            )
            counts.add(len(CLITEEngine(node, config).optimize().samples))
        assert len(counts) == 1


class TestBatchRoundCap:
    @pytest.mark.parametrize("k", [2, 4])
    def test_round_observes_at_most_k_windows(self, mini_server, k):
        """Each BO round observes at most ``batch_k`` search windows.

        Counted per ``engine.observe`` (phase=search) span: every
        ``node.observe`` span it parents is one window of that round.
        """
        telemetry = Telemetry.enabled()
        node = make_node(
            mini_server, lc_loads=(0.4, 0.3), n_bg=1, noise=0.01
        )
        config = small_engine_config(
            telemetry=telemetry,
            max_samples=40,
            max_iterations=10**6,
            post_qos_iterations=10**6,
            batch_k=k,
        )
        CLITEEngine(node, config).optimize()
        spans = telemetry.tracer.finished()
        rounds = {
            span.span_id: 0
            for span in spans
            if span.name == "engine.observe"
            and span.attributes.get("phase") == "search"
        }
        for span in spans:
            if span.name == "node.observe" and span.parent_id in rounds:
                rounds[span.parent_id] += 1
        assert rounds
        assert max(rounds.values()) == k
        assert min(rounds.values()) >= 1
