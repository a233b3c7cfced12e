"""One closed-loop replay of a plan through the public warehouse surface.

Set-up builds the fleet (and, for ``probe="clite"``, an empty
observation store in a fresh directory), then schedules every arrival
and departure with ``submit``/``depart``.  The drain walks the arrivals
in time order: ``run_until`` just short of the arrival handles every
departure and re-check tick before it, then a second ``run_until``
handles the arrival alone, so its host time is one admission decision.
The next event is handled only when the previous one has finished.

While draining, the timelines are polled by cursor (the service keeps
only the last 65,536 entries) into a :class:`Ledger` that replays every
placement change.  The ledger checks that each arrival is decided
exactly once, that no node ever holds more than ``max_jobs_per_node``
jobs, that admitted jobs are accounted for at the horizon, and that the
replayed placements equal the service's own; it also yields the
simulated outcomes and a digest of every decision.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.server.obstore import ObservationStore
from repro.warehouse import WarehouseFederation, WarehouseService

from gen import Plan

#: Poll the timelines once any of them has grown by this many entries,
#: well before the 65,536-entry deque could drop one we have not read.
POLL_LAG = 16384
#: Arrivals between two lag checks.  Between checks the timelines may
#: grow by 65,536 - POLL_LAG entries, several hundred per arrival.
LAG_EVERY = 64


class CheckFailed(Exception):
    """A correctness check of the replay failed."""


_KERNEL_ARRAY = np.linspace(0.0, 1.0, 12)


def _kernel() -> float:
    """A fixed mix of dict/arithmetic bytecode and small numpy calls,
    like the program's own hot paths."""
    table: Dict[int, int] = {}
    acc = 0.0
    for i in range(1500):
        key = i & 127
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    a = _KERNEL_ARRAY
    for _ in range(80):
        a = np.sqrt(a * a + 0.5) - 0.1
        acc += float(a.max())
    return acc


class HostSpeed:
    """How slow the host runs right now, from a fixed reference kernel.

    The host's speed moves in steps of up to ~50% for seconds at a time
    (CPU interference from co-tenants): a pure Python loop swings as much
    as the program does.  Timing the same kernel next to each stretch of
    program work gives the local slowdown, and dividing by it reports
    the time that work takes at nominal speed — the speed at which the
    kernel's best of three runs takes :data:`NOMINAL_S`.
    """

    #: The kernel's best-of-three time on an uncontended reference box
    #: (2-core x86_64 VM, CPython 3.11, numpy 2.4).
    NOMINAL_S = 0.55e-3
    #: Seconds of program work between two samples.
    INTERVAL_S = 0.1

    def __init__(self) -> None:
        self.last = 0.0

    def factor(self) -> float:
        """Current slowdown: kernel time over nominal (1.0 = nominal)."""
        perf = time.perf_counter
        best = math.inf
        for _ in range(3):
            start = perf()
            _kernel()
            best = min(best, perf() - start)
        self.last = perf()
        return best / self.NOMINAL_S


@dataclass
class Fleet:
    """The system under test plus the store directory it owns."""

    target: object  # WarehouseService or WarehouseFederation
    store: Optional[ObservationStore]
    store_dir: Optional[Path]

    @property
    def shards(self) -> List[WarehouseService]:
        if isinstance(self.target, WarehouseFederation):
            return list(self.target.shards)
        return [self.target]

    def close(self) -> None:
        if isinstance(self.target, WarehouseFederation):
            self.target.close()
        if self.store is not None:
            self.store.close()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


def build(plan: Plan, scratch: Path) -> Tuple[Fleet, Dict[str, int]]:
    """Build the fleet and schedule every event; returns the arrival seqs."""
    shape = plan.shape
    store = store_dir = None
    if shape.n_shards:
        target: object = WarehouseFederation(
            shape.n_shards,
            shape.nodes,
            routing="least-loaded",
            concurrent_probes=False,
            probe=shape.probe,
            seed=plan.service_seed,
            max_jobs_per_node=shape.max_jobs_per_node,
            recheck_period_s=shape.recheck_s,
            max_probe_nodes=shape.max_probe_nodes,
        )
    else:
        if shape.probe == "clite":
            store_dir = Path(tempfile.mkdtemp(prefix="obstore-", dir=scratch))
            store = ObservationStore(store_dir / "observations.jsonl")
        target = WarehouseService(
            shape.nodes,
            probe=shape.probe,
            seed=plan.service_seed,
            max_jobs_per_node=shape.max_jobs_per_node,
            recheck_period_s=shape.recheck_s,
            store=store,
            max_probe_nodes=shape.max_probe_nodes,
        )
    seqs = {}
    for planned in plan.jobs:
        seqs[planned.job.name] = target.submit(planned.job, planned.arrival_s)
        target.depart(planned.job.name, planned.departure_s)
    return Fleet(target, store, store_dir), seqs


class Ledger:
    """Replays polled timeline entries into placements and outcomes."""

    def __init__(self, fleet: Fleet, cap: int) -> None:
        self.fleet = fleet
        self.federated = isinstance(fleet.target, WarehouseFederation)
        self.shards = fleet.shards
        self.cap = cap
        n = len(self.shards)
        self.cursors = [0] * n
        self.routed_cursor = 0
        self.hashes = [hashlib.sha256() for _ in range(n + 1)]
        self.decisions: Dict[str, List[str]] = {}
        self.where: Dict[str, Tuple[int, int]] = {}
        self.load: Dict[Tuple[int, int], int] = {}
        self.departed = 0
        self.dropped = 0
        self.violations = 0
        # Per-shard time integrals of running jobs and occupied nodes.
        self.last_t = [0.0] * n
        self.jobs_now = [0] * n
        self.used_now = [0] * n
        self.jobs_area = [0.0] * n
        self.used_area = [0.0] * n

    def lag(self) -> int:
        lags = [s.timeline_len - c for s, c in zip(self.shards, self.cursors)]
        if self.federated:
            lags.append(self.fleet.target.routed_len - self.routed_cursor)
        return max(lags)

    def poll(self) -> None:
        if self.federated:
            fed = self.fleet.target
            routed = fed.routed_since(self.routed_cursor)
            if len(routed) != fed.routed_len - self.routed_cursor:
                raise CheckFailed("routed entries aged out before polling")
            for entry in routed:
                self.hashes[-1].update(repr(entry).encode())
                if entry.kind in ("route", "reject"):
                    self.decisions.setdefault(entry.job, []).append(entry.kind)
            self.routed_cursor = fed.routed_len
        for i, shard in enumerate(self.shards):
            entries = shard.timeline_since(self.cursors[i])
            if len(entries) != shard.timeline_len - self.cursors[i]:
                raise CheckFailed("timeline entries aged out before polling")
            for entry in entries:
                self.hashes[i].update(repr(entry).encode())
                self._apply(i, entry)
            self.cursors[i] = shard.timeline_len

    def _advance(self, shard: int, t: float) -> None:
        dt = t - self.last_t[shard]
        self.jobs_area[shard] += self.jobs_now[shard] * dt
        self.used_area[shard] += self.used_now[shard] * dt
        self.last_t[shard] = t

    def _add(self, shard: int, node: int, job: str) -> None:
        if job in self.where:
            raise CheckFailed(f"{job} placed twice")
        key = (shard, node)
        count = self.load.get(key, 0) + 1
        if count > self.cap:
            raise CheckFailed(f"node {key} holds {count} > {self.cap} jobs")
        self.load[key] = count
        self.where[job] = key
        self.jobs_now[shard] += 1
        if count == 1:
            self.used_now[shard] += 1

    def _remove(self, shard: int, job: str) -> None:
        key = self.where.pop(job, None)
        if key is None or key[0] != shard:
            raise CheckFailed(f"{job} removed but not placed on shard {shard}")
        self.load[key] -= 1
        self.jobs_now[shard] -= 1
        if self.load[key] == 0:
            del self.load[key]
            self.used_now[shard] -= 1

    def _apply(self, shard: int, entry) -> None:
        kind = entry.kind
        if kind in ("admit", "reject") and not self.federated:
            self.decisions.setdefault(entry.job, []).append(kind)
        if kind == "violation":
            self.violations += 1
        if kind not in ("admit", "depart", "migrate", "drop"):
            return
        if kind == "depart" and entry.node < 0:
            return  # the job was never admitted, or was dropped earlier
        self._advance(shard, entry.time_s)
        if kind == "admit":
            self._add(shard, entry.node, entry.job)
        elif kind == "depart":
            self._remove(shard, entry.job)
            self.departed += 1
        elif kind == "drop":
            self._remove(shard, entry.job)
            self.dropped += 1
        else:  # migrate: entry.node is the landing node
            self._remove(shard, entry.job)
            self._add(shard, entry.node, entry.job)

    def finish(self, horizon_s: float) -> None:
        self.poll()
        for shard in range(len(self.shards)):
            self._advance(shard, horizon_s)

    def digest(self) -> str:
        return hashlib.sha256(
            "".join(h.hexdigest() for h in self.hashes).encode()
        ).hexdigest()


@dataclass
class Round:
    """The outcomes, checks and measurements of one replay.

    Times prefixed ``norm_`` are divided by the host slowdown measured
    next to them (see :class:`HostSpeed`); the others are as measured.
    """

    stream: int
    arrivals: int
    failed: int
    rejected: int
    qos_checks: int
    qos_failures: int
    migrations: int
    violations: int
    job_seconds: float  # simulated time integral of running jobs
    node_seconds: float  # ... and of occupied nodes
    digest: str
    store_bytes: int = 0
    events: int = 0
    setup_s: List[float] = field(default_factory=list)
    norm_setup_s: List[float] = field(default_factory=list)
    drain_s: float = 0.0
    drain_cpu_s: float = 0.0
    admit_ms: List[float] = field(default_factory=list)
    norm_drain_s: float = 0.0
    norm_cpu_s: float = 0.0
    norm_admit_ms: List[float] = field(default_factory=list)
    slowdown: float = 1.0


def drain(
    plan: Plan,
    fleet: Fleet,
    seqs: Dict[str, int],
    step_span: Optional[Callable[[int], object]] = None,
) -> Round:
    """Replay the arrivals one at a time, then run the correctness checks.

    Program time is accumulated per stretch between two host-speed
    samples and normalized by the mean of the samples around it.
    ``step_span(seq)`` (traced runs only) returns a context manager that
    records the arrival step as the root span of event ``seq``.
    """
    target = fleet.target
    ledger = Ledger(fleet, plan.shape.max_jobs_per_node)
    speed = HostSpeed()
    factors = [speed.factor()]
    wall: List[float] = []  # program wall time per stretch
    cpu: List[float] = []  # process CPU time (all threads) per stretch
    admit_ms: List[float] = []
    stretch_of: List[int] = []
    events = 0
    perf, cpu_now = time.perf_counter, time.process_time
    wall_mark, cpu_mark = perf(), cpu_now()

    def close_stretch() -> None:
        wall.append(perf() - wall_mark)
        cpu.append(cpu_now() - cpu_mark)
        factors.append(speed.factor())

    for k, planned in enumerate(plan.jobs, 1):
        t = planned.arrival_s
        events += target.run_until(math.nextafter(t, -math.inf))
        if step_span is None:
            start = perf()
            handled = target.run_until(t)
            end = perf()
        else:
            with step_span(seqs[planned.job.name]):
                start = perf()
                handled = target.run_until(t)
                end = perf()
        if handled != 1:
            raise CheckFailed(f"arrival at t={t} shared its instant")
        events += handled
        admit_ms.append((end - start) * 1e3)
        stretch_of.append(len(wall))
        if k % LAG_EVERY == 0:
            # Reading the timelines is the benchmark's work, not the program's.
            poll_wall, poll_cpu = perf(), cpu_now()
            if ledger.lag() > POLL_LAG:
                ledger.poll()
            wall_mark += perf() - poll_wall
            cpu_mark += cpu_now() - poll_cpu
        if end - speed.last >= HostSpeed.INTERVAL_S:
            close_stretch()
            wall_mark, cpu_mark = perf(), cpu_now()
    close_stretch()
    scale = [(factors[i] + factors[i + 1]) / 2 for i in range(len(wall))]
    ledger.finish(plan.horizon_s)
    result = _check(plan, fleet, ledger)
    result.events = events
    result.drain_s = sum(wall)
    result.drain_cpu_s = sum(cpu)
    result.admit_ms = admit_ms
    result.norm_drain_s = sum(w / f for w, f in zip(wall, scale))
    result.norm_cpu_s = sum(c / f for c, f in zip(cpu, scale))
    result.norm_admit_ms = [ms / scale[i] for ms, i in zip(admit_ms, stretch_of)]
    result.slowdown = statistics.median(factors)
    return result


def _check(plan: Plan, fleet: Fleet, ledger: Ledger) -> Round:
    names = [planned.job.name for planned in plan.jobs]
    failed = sum(1 for name in names if len(ledger.decisions.get(name, ())) != 1)
    if len(ledger.decisions) != len(names):
        raise CheckFailed("decisions recorded for jobs that never arrived")
    admitted = sum(1 for name in names if ledger.decisions.get(name) in (
        ["admit"], ["route"]))
    statuses = [shard.status() for shard in fleet.shards]
    running = sum(s["jobs_running"] for s in statuses)
    counted = {
        key: sum(s[key] for s in statuses)
        for key in ("admitted", "dropped", "qos_checks", "qos_check_failures",
                    "migrations")
    }
    if counted["admitted"] != admitted:
        raise CheckFailed(
            f"status admitted={counted['admitted']} but timeline {admitted}")
    if counted["dropped"] != ledger.dropped:
        raise CheckFailed("status and timeline disagree on drops")
    if admitted != ledger.departed + ledger.dropped + running:
        raise CheckFailed(
            f"{admitted} admitted != {ledger.departed} departed + "
            f"{ledger.dropped} dropped + {running} running")
    placements = {}
    for i, shard in enumerate(fleet.shards):
        for name, node in shard.placements().items():
            placements[name] = (i, node)
    if placements != ledger.where:
        raise CheckFailed("replayed placements differ from the service's")
    store_bytes = 0
    if fleet.store is not None:
        fleet.store.flush()
        store_bytes = fleet.store.path.stat().st_size
    return Round(
        stream=plan.stream,
        arrivals=len(names),
        failed=failed,
        rejected=len(names) - admitted + ledger.dropped,
        qos_checks=counted["qos_checks"],
        qos_failures=counted["qos_check_failures"],
        migrations=counted["migrations"],
        violations=ledger.violations,
        job_seconds=sum(ledger.jobs_area),
        node_seconds=sum(ledger.used_area),
        digest=ledger.digest(),
        store_bytes=store_bytes,
    )
