"""Unit tests for the constrained acquisition optimizer (Eqs. 4-6)."""

import numpy as np
import pytest

from repro.core import (
    AcquisitionOptimizer,
    DropoutDecision,
    GaussianProcess,
    ScoreFunction,
    run_bootstrap,
)


@pytest.fixture
def fitted(quiet_node):
    """A GP fit on the bootstrap samples of the quiet node."""
    fn = ScoreFunction()
    result = run_bootstrap(quiet_node, fn)
    x = np.array([quiet_node.space.to_unit_cube(c) for c in result.configs])
    y = np.array(result.scores)
    gp = GaussianProcess().fit(x, y)
    sampled = {c.flat() for c in result.configs}
    best = max(result.scores)
    incumbent = result.configs[int(np.argmax(result.scores))]
    return gp, sampled, best, incumbent


class TestPropose:
    def test_candidates_valid_and_unseen(self, quiet_node, fitted):
        gp, sampled, best, incumbent = fitted
        opt = AcquisitionOptimizer(quiet_node.space, rng=np.random.default_rng(0))
        proposal = opt.propose(gp, best, sampled, incumbent=incumbent)
        assert proposal.candidates
        for candidate in proposal.candidates:
            quiet_node.space.validate(candidate.config)
            assert candidate.config.flat() not in sampled

    def test_candidates_ranked_descending(self, quiet_node, fitted):
        gp, sampled, best, incumbent = fitted
        opt = AcquisitionOptimizer(quiet_node.space, rng=np.random.default_rng(0))
        proposal = opt.propose(gp, best, sampled, incumbent=incumbent)
        values = [c.acquisition_value for c in proposal.candidates]
        assert values == sorted(values, reverse=True)

    def test_max_acquisition_nonnegative(self, quiet_node, fitted):
        gp, sampled, best, incumbent = fitted
        opt = AcquisitionOptimizer(quiet_node.space, rng=np.random.default_rng(0))
        proposal = opt.propose(gp, best, sampled, incumbent=incumbent)
        assert proposal.max_acquisition >= 0.0

    def test_deterministic_given_seed(self, quiet_node, fitted):
        gp, sampled, best, incumbent = fitted
        a = AcquisitionOptimizer(quiet_node.space, rng=np.random.default_rng(5))
        b = AcquisitionOptimizer(quiet_node.space, rng=np.random.default_rng(5))
        pa = a.propose(gp, best, sampled, incumbent=incumbent)
        pb = b.propose(gp, best, sampled, incumbent=incumbent)
        assert [c.config for c in pa.candidates] == [c.config for c in pb.candidates]

    def test_pool_disabled_still_works(self, quiet_node, fitted):
        gp, sampled, best, incumbent = fitted
        opt = AcquisitionOptimizer(
            quiet_node.space, pool_size=0, rng=np.random.default_rng(0)
        )
        proposal = opt.propose(gp, best, sampled, incumbent=incumbent)
        assert proposal.max_acquisition >= 0.0

    def test_invalid_construction(self, quiet_node):
        with pytest.raises(ValueError):
            AcquisitionOptimizer(quiet_node.space, n_restarts=0)
        with pytest.raises(ValueError):
            AcquisitionOptimizer(quiet_node.space, pool_size=-1)


class TestDropoutPinning:
    def test_pinned_row_preserved(self, quiet_node, fitted):
        gp, sampled, best, incumbent = fitted
        opt = AcquisitionOptimizer(quiet_node.space, rng=np.random.default_rng(0))
        pin_row = incumbent.job_allocation(0)
        dropout = DropoutDecision(job_index=0, allocation=pin_row)
        proposal = opt.propose(gp, best, sampled, incumbent=incumbent, dropout=dropout)
        for candidate in proposal.candidates:
            assert candidate.config.job_allocation(0) == pin_row

    def test_greedy_pin_is_shrunk_to_fit(self, quiet_node, fitted):
        """A pinned max-allocation row must leave one unit for others."""
        gp, sampled, best, incumbent = fitted
        opt = AcquisitionOptimizer(quiet_node.space, rng=np.random.default_rng(0))
        greedy = quiet_node.space.max_allocation(1)
        dropout = DropoutDecision(job_index=1, allocation=greedy.job_allocation(1))
        proposal = opt.propose(gp, best, sampled, incumbent=incumbent, dropout=dropout)
        for candidate in proposal.candidates:
            quiet_node.space.validate(candidate.config)


class TestUpperCaps:
    def test_caps_respected(self, quiet_node, fitted):
        gp, sampled, best, incumbent = fitted
        opt = AcquisitionOptimizer(quiet_node.space, rng=np.random.default_rng(0))
        units = [r.units for r in quiet_node.spec.resources]
        caps = np.array(
            [
                [2, 2, 2],  # lc0 capped low
                [u - quiet_node.n_jobs + 1 for u in units],
                [u - quiet_node.n_jobs + 1 for u in units],
            ],
            dtype=float,
        )
        proposal = opt.propose(
            gp, best, sampled, incumbent=incumbent, upper_caps=caps
        )
        for candidate in proposal.candidates:
            for r in range(quiet_node.space.n_resources):
                assert candidate.config.get(0, r) <= 2

    def test_caps_keep_configs_valid(self, quiet_node, fitted):
        gp, sampled, best, incumbent = fitted
        opt = AcquisitionOptimizer(quiet_node.space, rng=np.random.default_rng(1))
        caps = np.full((3, 3), 3.0)
        proposal = opt.propose(
            gp, best, sampled, incumbent=incumbent, upper_caps=caps
        )
        for candidate in proposal.candidates:
            quiet_node.space.validate(candidate.config)
