"""Seeded job streams for the three benchmark workloads.

The benchmark owns its inputs: jobs are built here through the public
constructors (``lc_workload``/``bg_workload``, ``LoadSchedule.steps``,
``WarehouseJob.lc``/``.bg``) and never through
``repro.warehouse.scenario``, so a change to the scenario synthesizer
cannot move what the benchmark measures.  A plan is a pure function of
``(workload, seed, stream, shape)``.

Every event time in a plan is distinct and off the re-check grid, so
the replay can advance the clock to just before an arrival and then
time that one arrival on its own.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.workloads import (
    BG_NAMES,
    LC_NAMES,
    LoadSchedule,
    bg_workload,
    lc_workload,
)
from repro.warehouse import WarehouseJob

WORKLOADS = ("bo-admit", "lc-churn", "bg-churn")


@dataclass(frozen=True)
class Shape:
    """Fleet and stream parameters of one workload at one scale."""

    n_shards: int  # 0 = a single WarehouseService, else a federation
    nodes: int  # per shard for a federation
    probe: str
    n_jobs: int
    lc_fraction: float
    mean_gap_s: float  # mean of the exponential inter-arrival gaps
    mean_life_s: float  # lifetimes uniform in 0.5x..1.5x of this
    recheck_s: float = 60.0
    max_jobs_per_node: int = 4
    max_probe_nodes: int = 8
    min_load: float = 0.1  # LC phase loads are drawn from this range;
    max_load: float = 0.5  # low enough that nodes pack four deep
    n_phases: int = 3
    streams: int = 1  # independent job streams replayed per pass


#: Full-size shapes.  Each stream overloads its fleet on purpose, so a
#: steady share of arrivals is refused and ``reject_frac`` is nonzero.
SHAPES = {
    # Full-BO admission.  Every node packs four deep, so the fleet's 24
    # slots bound each stream exactly and its last three arrivals are
    # refused.  Two probes per arrival (not eight) and six short streams
    # keep a pass near a quarter minute while averaging over six fleets'
    # co-location mixes.
    "bo-admit": Shape(
        n_shards=0, nodes=6, probe="clite", n_jobs=27, lc_fraction=0.5,
        mean_gap_s=4.0, mean_life_s=300.0, max_probe_nodes=2, streams=6,
    ),
    # Quick-probe churn.  Lifetimes short against the horizon and offered
    # load 1.25x the 800 slots, so the fleet sits saturated for most of
    # the stream and the refused share is an Erlang-loss steady state,
    # not a race to fill.
    "lc-churn": Shape(
        n_shards=2, nodes=100, probe="quick", n_jobs=3000, lc_fraction=0.5,
        mean_gap_s=0.06, mean_life_s=60.0,
    ),
    # Structural admission only: offered load ~9% above the slots.
    "bg-churn": Shape(
        n_shards=0, nodes=2000, probe="quick", n_jobs=100_000,
        lc_fraction=0.0, mean_gap_s=0.08, mean_life_s=700.0,
    ),
}

#: Tiny shapes for the smoke tests: same structure, seconds to run.
TINY = {
    "bo-admit": Shape(
        n_shards=0, nodes=2, probe="clite", n_jobs=6, lc_fraction=0.5,
        mean_gap_s=20.0, mean_life_s=150.0, max_probe_nodes=2, streams=2,
    ),
    "lc-churn": Shape(
        n_shards=2, nodes=8, probe="quick", n_jobs=150, lc_fraction=0.5,
        mean_gap_s=1.0, mean_life_s=60.0,
    ),
    "bg-churn": Shape(
        n_shards=0, nodes=20, probe="quick", n_jobs=600,
        lc_fraction=0.0, mean_gap_s=0.5, mean_life_s=50.0,
    ),
}


@dataclass(frozen=True)
class PlannedJob:
    """One job of the stream: when it arrives and when it asks to leave."""

    arrival_s: float
    departure_s: float
    job: WarehouseJob


@dataclass(frozen=True)
class Plan:
    """Everything one replay needs: the fleet shape and the job stream."""

    workload: str
    seed: int
    stream: int
    shape: Shape
    jobs: Tuple[PlannedJob, ...]  # ascending, distinct arrival times
    #: The seed the service threads through every probe.  Each stream
    #: draws its own, so a run averages over several BO trajectories
    #: instead of replaying one seed's luck in every probe.
    service_seed: int

    @property
    def horizon_s(self) -> float:
        """The replay stops at the last arrival; later departures and
        ticks stay queued (their jobs are "running at the horizon")."""
        return self.jobs[-1].arrival_s

    def fingerprint(self) -> str:
        """A digest of the generated inputs (equal plans, equal digests)."""
        h = hashlib.sha256(repr((
            self.workload, self.seed, self.stream, self.shape, self.service_seed
        )).encode())
        for planned in self.jobs:
            job = planned.job
            phases = (
                () if job.schedule is None
                else tuple((p.start_s, p.load_fraction) for p in job.schedule.phases)
            )
            h.update(
                repr((planned.arrival_s, planned.departure_s, job.name,
                      job.workload.name, phases)).encode()
            )
        return h.hexdigest()


#: Jobs per block of the stratified LC/BG assignment.
_BLOCK = 10


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform draws on [0, 1), one in each interval ``[i/n, (i+1)/n)``."""
    return (rng.permutation(n) + rng.random(n)) / n


def generate(
    workload: str, seed: int, stream: int = 0, shape: Optional[Shape] = None
) -> Plan:
    """Job stream ``stream`` of ``workload`` for ``seed`` (a pure function).

    Draws are stratified so that a short stream already has the shape of
    a long one: every block of ten jobs holds exactly its share of LC
    jobs, each class cycles through its catalog evenly, and arrival
    gaps (exponential), lifetimes and phase loads are Latin-hypercube
    samples of their distributions.  The seed decides the order within
    each block, which catalog entry lands where, and every value drawn.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    shape = shape if shape is not None else SHAPES[workload]
    if not 0 <= stream < shape.streams:
        raise ValueError(f"stream {stream} outside 0..{shape.streams - 1}")
    tag = WORKLOADS.index(workload)
    kinds = np.random.default_rng(np.random.SeedSequence((tag, stream)))
    rng = np.random.default_rng(np.random.SeedSequence((seed, tag, stream)))
    n = shape.n_jobs
    is_lc = np.zeros(n, dtype=bool)
    for first in range(0, n, _BLOCK):
        size = min(_BLOCK, n - first)
        picks = kinds.permutation(size)[: round(shape.lc_fraction * size)]
        is_lc[first + picks] = True
    n_lc = int(is_lc.sum())
    lc_pool = [lc_workload(name) for name in LC_NAMES]
    bg_pool = [bg_workload(name) for name in BG_NAMES]
    lc_kinds = kinds.permutation(np.arange(n_lc) % len(lc_pool))
    bg_kinds = kinds.permutation(np.arange(n - n_lc) % len(bg_pool))
    arrivals = np.cumsum(-shape.mean_gap_s * np.log1p(-_stratified(rng, n)))
    lives = (0.5 + _stratified(rng, n)) * shape.mean_life_s
    loads = shape.min_load + (shape.max_load - shape.min_load) * np.column_stack(
        [_stratified(rng, n) for _ in range(shape.n_phases)]
    )
    jobs = []
    n_seen_lc = 0
    for k in range(n):
        arrival = float(arrivals[k])
        life = float(lives[k])
        if is_lc[k]:
            workload_lc = lc_pool[int(lc_kinds[n_seen_lc])]
            n_seen_lc += 1
            steps = [(0.0, float(loads[k, 0]))]
            steps.extend(
                (arrival + life * i / shape.n_phases, float(loads[k, i]))
                for i in range(1, shape.n_phases)
            )
            job = WarehouseJob.lc(
                workload_lc, LoadSchedule.steps(steps),
                name=f"lc-{k:06d}-{workload_lc.name}",
            )
        else:
            workload_bg = bg_pool[int(bg_kinds[k - n_seen_lc])]
            job = WarehouseJob.bg(workload_bg, name=f"bg-{k:06d}-{workload_bg.name}")
        jobs.append(PlannedJob(arrival, arrival + life, job))
    _check_distinct(jobs, shape.recheck_s)
    return Plan(workload=workload, seed=seed, stream=stream, shape=shape,
                jobs=tuple(jobs), service_seed=int(rng.integers(1 << 31)))


def _check_distinct(jobs, recheck_s: float) -> None:
    """Refuse a stream whose arrivals could share an instant with
    another event: the replay times each arrival on its own."""
    times = [j.arrival_s for j in jobs] + [j.departure_s for j in jobs]
    if len(set(times)) != len(times):
        raise ValueError("generated event times collide")
    for planned in jobs:
        ticks = planned.arrival_s / recheck_s
        if math.isclose(ticks, round(ticks), rel_tol=0.0, abs_tol=1e-9):
            raise ValueError("an arrival falls on a re-check tick")
