"""Constrained acquisition maximization (Eqs. 4-6).

Each BO iteration must find the partition maximizing the acquisition
function subject to the allocation constraints: at least one unit of
every resource per job (Eq. 5) and column sums equal to each resource's
capacity (Eq. 6).  Following the paper, the continuous relaxation is
solved with Sequential Least Squares Programming (SLSQP) from multiple
starts, then projected back onto the integer lattice.  When a
dropout-copy decision pins one job's allocation, those coordinates are
frozen via degenerate bounds and the projection preserves the pinned
row exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Set, Tuple

import numpy as np
from scipy.optimize import minimize

from ..resources.allocation import (
    Configuration,
    ConfigurationSpace,
    _round_columns_batch,
)
from ..resources.contracts import proposal_contract
from ..telemetry.tracer import NULL_TRACER, Tracer
from .acquisition import AcquisitionFunction, ExpectedImprovement
from .dropout import DropoutDecision
from .gp import GaussianProcess
from .rng import RNGLike, resolve_rng
from .units import Fraction

#: Infinity-norm of the finite-difference gradient below which a start is
#: considered dead-flat: SLSQP cannot move from it, so the (expensive)
#: solver call is skipped and the start itself stands as the solution.
_FLAT_GRAD_TOL = 1e-12

#: Forward-difference step for the acquisition gradient.
_FD_EPS = 1e-6


@dataclass(frozen=True)
class Candidate:
    """A proposed next sample with its acquisition value."""

    config: Configuration
    acquisition_value: float


@dataclass(frozen=True)
class Proposal:
    """Result of one acquisition-optimization round.

    Attributes:
        candidates: Unseen configurations ranked by acquisition value,
            best first.  May be empty if every optimum rounds onto an
            already-sampled point.
        max_acquisition: Largest acquisition value over the
            *continuous* SLSQP optima and the screened lattice pool —
            the "expected improvement" signal the termination condition
            watches.  Taking it before the unseen filter, rather than
            over the ranked candidates, keeps the signal from collapsing
            just because the optima round onto already-sampled
            configurations.
    """

    candidates: Tuple[Candidate, ...]
    max_acquisition: float

    #: Seed for the running maximum: ``-inf`` rather than 0 so custom
    #: acquisition functions whose values can go negative still produce
    #: a faithful termination signal instead of a silent 0 floor.
    EMPTY_MAX: ClassVar[float] = float("-inf")


class AcquisitionOptimizer:
    """SLSQP-based maximizer of the acquisition over valid partitions.

    Args:
        space: The configuration space being searched.
        acquisition: Acquisition function (default: EI with ζ = 0.01).
        n_restarts: Number of random multi-start points in addition to
            the incumbent, the equal partition, and the best points of
            the screening pool.
        pool_size: Size of the random screening pool.  The pool is a
            cheap vectorized EI evaluation over valid lattice points;
            its best entries both seed SLSQP restarts and stand as
            candidates themselves, which makes the search robust in the
            high-dimensional spaces where gradient steps stall.
        rng: Random generator shared with the engine, or an explicit
            integer seed.  Required: an unseeded fallback would make
            the multi-start screening non-reproducible (RPL101).
        tracer: Optional :class:`repro.telemetry.Tracer`; each
            :meth:`propose` call is wrapped in an ``optimizer.propose``
            span.  Defaults to the shared no-op tracer.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        acquisition: Optional[AcquisitionFunction] = None,
        n_restarts: int = 8,
        pool_size: int = 256,
        rng: Optional[RNGLike] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if n_restarts < 1:
            raise ValueError("need at least one restart")
        if pool_size < 0:
            raise ValueError("pool size must be >= 0")
        self.space = space
        self.acquisition = (
            acquisition if acquisition is not None else ExpectedImprovement()
        )
        self.n_restarts = n_restarts
        self.pool_size = pool_size
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._rng = resolve_rng(rng, owner="AcquisitionOptimizer")
        self._spans = np.array(
            [r.units - space.n_jobs for r in space.spec.resources], dtype=float
        )

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def _column_targets(self) -> np.ndarray:
        """Per-resource sum each cube column must hit (1, or 0 if rigid)."""
        return (self._spans > 0).astype(float)

    def _constraints(self) -> List[dict]:
        n_jobs, n_res = self.space.n_jobs, self.space.n_resources
        targets = self._column_targets()
        constraints = []
        for r in range(n_res):
            idx = [j * n_res + r for j in range(n_jobs)]
            normal = np.zeros(n_jobs * n_res)
            normal[idx] = 1.0
            constraints.append(
                {
                    "type": "eq",
                    "fun": (lambda z, idx=idx, t=targets[r]: np.sum(z[idx]) - t),
                    # The constraints are linear; handing SLSQP their
                    # exact normals avoids per-iteration finite
                    # differencing, which otherwise dominates runtime.
                    "jac": (lambda z, normal=normal: normal),
                }
            )
        return constraints

    def _bounds(
        self,
        dropout: Optional[DropoutDecision],
        upper_caps: Optional[np.ndarray],
    ) -> List[Tuple[float, float]]:
        n_jobs, n_res = self.space.n_jobs, self.space.n_resources
        bounds: List[Tuple[float, float]] = [(0.0, 1.0)] * (n_jobs * n_res)
        if upper_caps is not None:
            for j in range(n_jobs):
                for r in range(n_res):
                    if self._spans[r] > 0:
                        ub = (upper_caps[j, r] - 1.0) / self._spans[r]
                        bounds[j * n_res + r] = (0.0, min(max(ub, 0.0), 1.0))
        for r in range(n_res):
            if self._spans[r] <= 0:  # resource fully pinned by the floor
                for j in range(n_jobs):
                    bounds[j * n_res + r] = (0.0, 0.0)
        if dropout is not None and dropout.job_index is not None:
            pinned = self._pinned_cube_row(dropout)
            for r in range(n_res):
                value = pinned[r]
                bounds[dropout.job_index * n_res + r] = (value, value)
        return bounds

    def _repair_caps(
        self,
        config: Configuration,
        upper_caps: Optional[np.ndarray],
        dropout: Optional[DropoutDecision],
    ) -> Configuration:
        """Push units over a job's cap to jobs with headroom.

        The dropout-pinned job is exempt on both sides: its row is
        neither trimmed nor grown.
        """
        if upper_caps is None:
            return config
        matrix = config.as_array()
        pin = dropout.job_index if dropout and dropout.job_index is not None else None
        n_jobs = self.space.n_jobs
        for r in range(self.space.n_resources):
            for j in range(n_jobs):
                if j == pin:
                    continue
                excess = matrix[j, r] - int(upper_caps[j, r])
                while excess > 0:
                    headroom = [
                        k
                        for k in range(n_jobs)
                        if k != j
                        and k != pin
                        and matrix[k, r] < int(upper_caps[k, r])
                    ]
                    if not headroom:
                        break
                    target = max(
                        headroom,
                        key=lambda k: int(upper_caps[k, r]) - matrix[k, r],
                    )
                    matrix[j, r] -= 1
                    matrix[target, r] += 1
                    excess -= 1
        return Configuration.from_matrix(matrix)

    def _pinned_cube_row(self, dropout: DropoutDecision) -> np.ndarray:
        row = np.asarray(dropout.allocation, dtype=float)
        cube = np.zeros(self.space.n_resources)
        positive = self._spans > 0
        cube[positive] = (row[positive] - 1.0) / self._spans[positive]
        return cube

    def _project_feasible(
        self, z: np.ndarray, dropout: Optional[DropoutDecision]
    ) -> np.ndarray:
        """Rescale each cube column so the start point satisfies Eq. 6."""
        n_jobs, n_res = self.space.n_jobs, self.space.n_resources
        z = z.reshape(n_jobs, n_res).copy()
        pin = dropout.job_index if dropout and dropout.job_index is not None else None
        if pin is not None:
            z[pin] = self._pinned_cube_row(dropout)
        targets = self._column_targets()
        for r in range(n_res):
            if self._spans[r] <= 0:
                z[:, r] = 0.0
                continue
            free = [j for j in range(n_jobs) if j != pin]
            budget = targets[r] - (z[pin, r] if pin is not None else 0.0)
            budget = max(budget, 0.0)
            total = z[free, r].sum()
            if total <= 0:
                z[free, r] = budget / len(free)
            else:
                z[free, r] *= budget / total
        return np.clip(z.reshape(-1), 0.0, 1.0)

    def _round(
        self, z: np.ndarray, dropout: Optional[DropoutDecision]
    ) -> Configuration:
        """Project a cube vector onto the lattice, honoring a pinned row."""
        vec = np.asarray(z, dtype=float).reshape(1, -1)
        return Configuration.from_matrix(self._round_batch(vec, dropout)[0])

    def _round_batch(
        self, z: np.ndarray, dropout: Optional[DropoutDecision]
    ) -> np.ndarray:
        """Vectorized :meth:`_round`: (n, n_dims) cube -> (n, j, r) ints."""
        z = np.asarray(z, dtype=float)
        if dropout is None or dropout.job_index is None:
            return self.space.from_unit_cube_batch(z)
        n_jobs, n_res = self.space.n_jobs, self.space.n_resources
        vec = np.clip(z.reshape(len(z), n_jobs, n_res), 0.0, 1.0)
        pin = dropout.job_index
        free = [j for j in range(n_jobs) if j != pin]
        out = np.empty((len(z), n_jobs, n_res), dtype=int)
        for r, resource in enumerate(self.space.spec.resources):
            pinned_units = int(dropout.allocation[r])
            remaining = resource.units - pinned_units
            if remaining < len(free):
                # The pinned row is too greedy for this column; shrink it.
                pinned_units = resource.units - len(free)
                remaining = len(free)
            out[:, pin, r] = pinned_units
            if free:
                out[:, free, r] = _round_columns_batch(
                    vec[:, free, r], remaining
                )
        return out

    def _repair_caps_batch(
        self,
        mats: np.ndarray,
        upper_caps: Optional[np.ndarray],
        dropout: Optional[DropoutDecision],
    ) -> np.ndarray:
        """Vectorized :meth:`_repair_caps` over a (n, j, r) stack.

        Implements the same per-unit waterfall — each excess unit moves
        to the not-pinned job with the most headroom, first index on
        ties — but steps all configurations of the batch at once, so the
        Python-level loop runs O(max excess) times instead of O(batch).
        """
        if upper_caps is None or len(mats) == 0:
            return mats
        caps = np.asarray(upper_caps).astype(int)
        pin = (
            dropout.job_index
            if dropout is not None and dropout.job_index is not None
            else None
        )
        mats = mats.copy()
        n_jobs = self.space.n_jobs
        for r in range(self.space.n_resources):
            col = mats[:, :, r]
            capr = caps[:, r]
            for j in range(n_jobs):
                if j == pin:
                    continue
                excess = col[:, j] - capr[j]
                active = excess > 0
                while active.any():
                    headroom = capr[None, :] - col
                    eligible = headroom > 0
                    eligible[:, j] = False
                    if pin is not None:
                        eligible[:, pin] = False
                    movable = active & eligible.any(axis=1)
                    if not movable.any():
                        break
                    masked = np.where(
                        eligible, headroom, np.iinfo(headroom.dtype).min
                    )
                    target = np.argmax(masked, axis=1)
                    rows = np.nonzero(movable)[0]
                    col[rows, j] -= 1
                    col[rows, target[rows]] += 1
                    excess[rows] -= 1
                    # Rows whose excess remains but have no headroom left
                    # stay over cap, like the scalar version's break.
                    active = movable & (excess > 0)
        return mats

    # ------------------------------------------------------------------
    # The optimization itself
    # ------------------------------------------------------------------
    def _start_points(
        self,
        incumbent: Optional[Configuration],
        dropout: Optional[DropoutDecision],
    ) -> List[np.ndarray]:
        starts = [self.space.to_unit_cube(self.space.equal_partition())]
        if incumbent is not None:
            starts.append(self.space.to_unit_cube(incumbent))
        if self.n_restarts:
            starts.extend(
                self.space.to_unit_cube_batch(
                    self.space.random_batch(self.n_restarts, self._rng)
                )
            )
        return [self._project_feasible(z, dropout) for z in starts]

    @proposal_contract
    def propose(
        self,
        gp: GaussianProcess,
        best_score: Fraction,
        sampled: Set[Tuple[int, ...]],
        incumbent: Optional[Configuration] = None,
        dropout: Optional[DropoutDecision] = None,
        upper_caps: Optional[np.ndarray] = None,
    ) -> Proposal:
        """Maximize the acquisition and return ranked unseen candidates.

        Args:
            gp: The fitted surrogate.
            best_score: Incumbent objective score (Eq. 2's ``x̂``).
            sampled: Flattened unit tuples of already-sampled configs.
            incumbent: Best configuration so far (used as a start).
            dropout: Optional dropout-copy pin for this round.
            upper_caps: Optional ``(n_jobs, n_resources)`` per-job unit
                caps — the paper's "constrained execution" pruning of
                likely-to-be-sub-optimal partitions (Eqs. 4-6 with
                individual per-job, per-resource constraints).
        """
        with self._tracer.span("optimizer.propose") as span:
            proposal = self._propose_impl(
                gp,
                best_score,
                sampled,
                incumbent=incumbent,
                dropout=dropout,
                upper_caps=upper_caps,
            )
            span.set("candidates", len(proposal.candidates))
            span.set("max_acquisition", proposal.max_acquisition)
        return proposal

    def _propose_impl(
        self,
        gp: GaussianProcess,
        best_score: Fraction,
        sampled: Set[Tuple[int, ...]],
        incumbent: Optional[Configuration] = None,
        dropout: Optional[DropoutDecision] = None,
        upper_caps: Optional[np.ndarray] = None,
    ) -> Proposal:
        acq_fn = self.acquisition
        space = self.space
        pinned = dropout is not None and dropout.job_index is not None

        def fun_and_grad(z: np.ndarray) -> Tuple[float, np.ndarray]:
            # One batched GP predict per SLSQP iteration — value plus
            # forward differences in a single (d+1)-point call; this is
            # where the solver spends its time.
            points = np.vstack([z, z + _FD_EPS * np.eye(len(z))])
            mean, std = gp.predict(points)
            values = -acq_fn(mean, std, best_score)
            return float(values[0]), (values[1:] - values[0]) / _FD_EPS

        def batch_acq(cube: np.ndarray) -> np.ndarray:
            mean, std = gp.predict(cube)
            return np.asarray(acq_fn(mean, std, best_score), dtype=float)

        # Stage 1: screen a pool of valid lattice points — random samples
        # for coverage plus the incumbent's single-unit-transfer
        # neighborhood, which is where the post-QoS "reshuffle resources
        # toward the BG jobs" refinement happens.  The whole pool is
        # generated, (with dropout) re-projected so the pinned row
        # holds, cap-repaired, and scored as batched numpy arrays — no
        # per-configuration Python round trips.
        int_blocks: List[np.ndarray] = []
        cube_blocks: List[np.ndarray] = []
        if self.pool_size:
            int_blocks.append(space.random_batch(self.pool_size, self._rng))
        if incumbent is not None:
            neighbors = space.neighbor_matrices(incumbent)
            if len(neighbors):
                int_blocks.append(neighbors)
            # Line-search candidates: blends between the incumbent and
            # each job's maximum-allocation extremum.  These cut across
            # the resource-equivalence ridges (e.g. "shift everything
            # spare toward the BG job") that single-unit moves cross
            # only one step per sample.
            z_inc = space.to_unit_cube(incumbent)
            blends = np.array(
                [
                    (1 - t) * z_inc
                    + t * space.to_unit_cube(space.max_allocation(j))
                    for j in range(space.n_jobs)
                    for t in (0.25, 0.5, 0.75)
                ]
            )
            cube_blocks.append(blends)
        if int_blocks or cube_blocks:
            if pinned:
                cube_all = np.concatenate(
                    [space.to_unit_cube_batch(m) for m in int_blocks]
                    + cube_blocks
                )
                pool_mats = self._round_batch(cube_all, dropout)
            else:
                pool_mats = np.concatenate(
                    int_blocks
                    + [
                        self._round_batch(c, None)
                        for c in cube_blocks
                    ]
                )
            pool_mats = self._repair_caps_batch(pool_mats, upper_caps, dropout)
            pool_cube = space.to_unit_cube_batch(pool_mats)
            pool_acq = batch_acq(pool_cube)
            top = np.argsort(-pool_acq)[: max(self.n_restarts // 2, 2)]
        else:
            pool_mats = np.empty((0, space.n_jobs, space.n_resources), dtype=int)
            pool_cube = np.empty((0, space.n_dims))
            pool_acq = np.empty(0)
            top = np.empty(0, dtype=int)

        # Stage 2: SLSQP from informed starts plus the pool's best.
        starts = self._start_points(incumbent, dropout)
        starts.extend(pool_cube[i] for i in top)
        unique: dict = {}
        for z in starts:
            unique.setdefault(np.round(z, 9).tobytes(), np.asarray(z))
        starts = list(unique.values())

        # Probe every start's finite-difference gradient in one batched
        # predict; dead-flat starts (zero gradient, typical once EI has
        # collapsed everywhere) cannot move under SLSQP, so the solver
        # call is skipped and the start stands as its own optimum.
        d = space.n_dims
        eye = _FD_EPS * np.eye(d)
        probe = np.vstack([np.vstack([z, z + eye]) for z in starts])
        probe_acq = batch_acq(probe).reshape(len(starts), d + 1)
        grads = (probe_acq[:, 1:] - probe_acq[:, :1]) / _FD_EPS
        grad_flat = np.max(np.abs(grads), axis=1) < _FLAT_GRAD_TOL

        bounds = self._bounds(dropout, upper_caps)
        constraints = self._constraints()
        solutions: List[np.ndarray] = []
        for x0, flat in zip(starts, grad_flat):
            if flat:
                solutions.append(x0)
                continue
            result = minimize(
                fun_and_grad,
                x0,
                jac=True,
                method="SLSQP",
                bounds=bounds,
                constraints=constraints,
                options={"maxiter": 40, "ftol": 1e-8},
            )
            solutions.append(result.x if result.success else x0)

        # Evaluate the continuous optima (the termination signal) and
        # their lattice projections in two batched predicts.
        sol_cube = np.clip(np.array(solutions), 0.0, 1.0)
        sol_acq = batch_acq(sol_cube)
        sol_mats = self._repair_caps_batch(
            self._round_batch(sol_cube, dropout), upper_caps, dropout
        )
        sol_values = batch_acq(space.to_unit_cube_batch(sol_mats))

        max_acq = Proposal.EMPTY_MAX
        if len(sol_acq):
            max_acq = max(max_acq, float(sol_acq.max()))
        if len(pool_acq):
            max_acq = max(max_acq, float(pool_acq.max()))

        best_by_config: dict = {}

        def consider(mat: np.ndarray, value: float) -> None:
            key = tuple(v for row in mat.tolist() for v in row)
            if key in sampled:
                return
            entry = best_by_config.get(key)
            if entry is None or value > entry[1]:
                best_by_config[key] = (mat, value)

        for mat, value in zip(sol_mats, sol_values):
            consider(mat, float(value))
        for mat, value in zip(pool_mats, pool_acq):
            consider(mat, float(value))

        ranked = sorted(
            best_by_config.values(), key=lambda pair: pair[1], reverse=True
        )
        candidates = tuple(
            Candidate(config=Configuration.from_matrix(m), acquisition_value=v)
            for m, v in ranked
        )
        return Proposal(candidates=candidates, max_acquisition=max_acq)
