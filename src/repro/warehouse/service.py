"""The long-lived, event-driven cluster scheduler service.

:class:`WarehouseService` owns one :class:`~repro.cluster.state.Cluster`
and runs it as a *service* over simulated time instead of a batch
``place(requests)`` call:

* **arrivals** pass admission control — candidate nodes densest-first,
  each probed with an :class:`~.admission.AdmissionProbe` on the
  tentative job set, fresh machine as fallback, rejection as last
  resort (the paper's "schedule it elsewhere", continuously);
* **departures** free their node's share and trigger re-verification of
  the survivors — and of nobody else;
* periodic **re-check ticks** re-verify exactly the nodes whose
  effective LC load vector (each job's
  :class:`~repro.workloads.loadgen.LoadSchedule` sampled at the tick)
  changed since their last verification, migrating jobs off nodes that
  can no longer meet QoS (see :mod:`.migration`).

The incremental discipline — *only displaced or load-shifted nodes are
ever re-verified* — is what makes warehouse scale affordable: an event
touches one node (arrival, departure) or the load-shifted subset (tick),
never the whole fleet, and the shared
:class:`~repro.server.obstore.ObservationStore` makes repeated probes of
recurring job sets near-free.  Every decision lands on the timeline as a
:class:`TimelineEntry`, timestamped on the simulated clock; two
same-seed runs produce bit-identical timelines.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import (
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

from ..cluster.state import Cluster, ClusterNode, JobRequest
from ..core.engine import CLITEConfig
from ..core.units import Seconds
from ..resources.spec import ServerSpec
from ..sanitizer.hooks import register_shared
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..telemetry.clock import SimulatedClock
from ..server.obstore import ObservationStore
from .admission import AdmissionProbe, resolve_probe
from .events import (
    Arrival,
    Departure,
    EventLoop,
    Payload,
    Recheck,
    WarehouseJob,
)
from .migration import MigrationModel, MigrationRecord

#: Engine settings for full-CLITE admission probes: smaller than the
#: batch :data:`~repro.cluster.scheduler.PLACEMENT_ENGINE` because a
#: service probes continuously, and a warm observation store shoulders
#: most of the cost anyway.
PROBE_ENGINE = CLITEConfig(
    max_iterations=12,
    post_qos_iterations=3,
    refine_budget=4,
    confirm_top=1,
    n_restarts=2,
)

#: Timeline entries kept per service (a deque, so an unbounded scenario
#: cannot grow memory without bound; tests use far fewer).
TIMELINE_LIMIT = 65536


@dataclass(frozen=True)
class TimelineEntry:
    """One scheduling decision at one instant of simulated time.

    Attributes:
        time_s: Simulated time of the decision.
        seq: The event's deterministic sequence id.
        kind: ``admit``, ``reject``, ``depart``, ``migrate``, ``drop``,
            ``recheck``, or ``violation``.
        job: Job name the decision concerns (empty for re-check ticks).
        node: Node index involved (-1 when none is).
        detail: Short human-readable qualifier (rejection reason,
            re-check tally, migration source).
        verified: Node indices re-verified while making this decision —
            the incremental-re-verification contract, asserted in tests.
    """

    time_s: Seconds
    seq: int
    kind: str
    job: str = ""
    node: int = -1
    detail: str = ""
    verified: Tuple[int, ...] = ()


@dataclass
class _Placed:
    """Book-keeping for one admitted job."""

    job: WarehouseJob
    node: int
    admitted_s: Seconds


def _request_at(job: WarehouseJob, t: Seconds) -> JobRequest:
    """The point-in-time placement request for ``job`` at time ``t``."""
    return JobRequest(job.workload, job.load_at(t), name=job.name)


class WarehouseService:
    """An event-driven scheduler over one cluster (or one shard of one).

    Args:
        n_nodes: Fleet size.
        spec: Homogeneous node spec (default: the paper's testbed).
        specs: Per-node specs for a heterogeneous fleet.
        probe: Admission probe — ``"quick"`` (noise-free candidate
            screen, the scale default), ``"clite"`` (full BO
            verification), or any :class:`~.admission.AdmissionProbe`.
        engine_config: Engine settings for ``"clite"`` probes
            (default :data:`PROBE_ENGINE`).
        seed: Seed threaded through every probe — one seed, one
            timeline.
        max_jobs_per_node: Co-location cap per node.
        recheck_period_s: Simulated seconds between QoS re-check ticks
            (None disables ticks).
        migration: Cost model and victim selection for QoS-driven moves.
        clock: The simulated clock to drive (shared with a federation
            root or a telemetry context; a fresh one by default).
        telemetry: Optional telemetry context; every event is wrapped in
            a ``warehouse.event`` span and counted on ``warehouse.*``
            metrics.
        store: Optional shared observation store for ``"clite"`` probes.
        max_probe_nodes: Densest-first candidate nodes probed per
            admission before falling back to a fresh machine (the
            power-of-k-choices bound that keeps admission O(1) in fleet
            size).

    The service itself is single-threaded by design — determinism comes
    from processing events in ``(time, seq)`` order — but its state is
    registered with ``repro-san`` because federation probes read it from
    pool workers.
    """

    def __init__(
        self,
        n_nodes: int,
        spec: Optional[ServerSpec] = None,
        specs: Optional[List[ServerSpec]] = None,
        probe: "AdmissionProbe | str" = "quick",
        engine_config: Optional[CLITEConfig] = None,
        seed: Optional[int] = 0,
        max_jobs_per_node: int = 4,
        recheck_period_s: Optional[Seconds] = None,
        migration: Optional[MigrationModel] = None,
        clock: Optional[SimulatedClock] = None,
        telemetry: Optional[Telemetry] = None,
        store: Optional[ObservationStore] = None,
        max_probe_nodes: int = 8,
    ) -> None:
        if max_jobs_per_node < 1:
            raise ValueError("max_jobs_per_node must be >= 1")
        if max_probe_nodes < 1:
            raise ValueError("max_probe_nodes must be >= 1")
        if spec is not None and specs is not None:
            raise ValueError("give spec or specs, not both")
        if specs is not None:
            self.cluster = Cluster(n_nodes=n_nodes, specs=specs)
        elif spec is not None:
            self.cluster = Cluster(n_nodes=n_nodes, spec=spec)
        else:
            self.cluster = Cluster(n_nodes=n_nodes)
        self.probe = resolve_probe(
            probe, engine_config if engine_config is not None else PROBE_ENGINE
        )
        self.seed = seed
        self.max_jobs_per_node = max_jobs_per_node
        self.max_probe_nodes = max_probe_nodes
        self.migration = migration if migration is not None else MigrationModel()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.store = store
        self.probe.attach(store, self.telemetry)
        self.loop = EventLoop(clock=clock, recheck_period_s=recheck_period_s)
        self._jobs: Dict[str, _Placed] = {}
        #: node index -> the LC load vector in force at last verification.
        self._last_verified: Dict[int, Tuple[float, ...]] = {}
        #: Density index: bucket ``d`` holds the sorted indices of nodes
        #: running ``d`` jobs (bucket 0 is the free pool).  Maintained by
        #: :meth:`_sync_index` at every commit point so admission walks
        #: buckets densest-first instead of scanning the fleet.
        self._by_density: List[List[int]] = [list(range(n_nodes))] + [
            [] for _ in range(max_jobs_per_node)
        ]
        self._density_of: List[int] = [0] * n_nodes
        #: Sorted indices of nodes hosting a phased-load LC job — the
        #: only nodes whose QoS can drift without a placement change.
        self._volatile_nodes: List[int] = []
        #: Nodes whose job set changed since their last recheck visit.
        self._recheck_dirty: Set[int] = set()
        self._timeline: Deque[TimelineEntry] = deque(maxlen=TIMELINE_LIMIT)
        self._timeline_dropped = 0
        self._migrations: Deque[MigrationRecord] = deque(maxlen=TIMELINE_LIMIT)
        self._counts: Dict[str, int] = {
            "arrivals": 0,
            "admitted": 0,
            "rejections": 0,
            "departures": 0,
            "migrations": 0,
            "dropped": 0,
            "rechecks": 0,
            "recheck_failures": 0,
            "qos_checks": 0,
            "qos_check_failures": 0,
        }
        self.migration_cost_s: float = 0.0
        register_shared(
            self,
            name=f"WarehouseService@{id(self):x}",
            container_attrs=(
                "_jobs",
                "_last_verified",
                "_by_density",
                "_density_of",
                "_volatile_nodes",
                "_recheck_dirty",
            ),
        )

    # ------------------------------------------------------------------
    # Public service surface
    # ------------------------------------------------------------------
    @property
    def now_s(self) -> Seconds:
        """Current simulated time."""
        return self.loop.now_s

    @property
    def timeline(self) -> Tuple[TimelineEntry, ...]:
        """Every decision taken so far, oldest first."""
        return tuple(self._timeline)

    @property
    def timeline_len(self) -> int:
        """Total decisions ever recorded, including aged-out entries."""
        return self._timeline_dropped + len(self._timeline)

    def timeline_since(self, cursor: int) -> Tuple[TimelineEntry, ...]:
        """Entries recorded at or after absolute position ``cursor``.

        ``cursor`` is a prior :attr:`timeline_len` reading; entries that
        aged out of the bounded deque before ``cursor`` are gone either
        way, so rolling reports can poll incrementally instead of
        re-copying the whole timeline every slice.
        """
        start = max(cursor - self._timeline_dropped, 0)
        return tuple(islice(self._timeline, start, None))

    @property
    def migrations(self) -> Tuple[MigrationRecord, ...]:
        return tuple(self._migrations)

    def submit(self, job: WarehouseJob, at: Seconds) -> int:
        """Schedule an arrival; returns its deterministic sequence id."""
        return self.loop.schedule(at, Arrival(job))

    def depart(self, name: str, at: Seconds) -> int:
        """Schedule a departure of the named job."""
        return self.loop.schedule(at, Departure(name))

    def run_until(self, t: Seconds) -> int:
        """Process every event with time <= ``t``; returns the count."""
        return self.loop.run_until(t, self.handle_event)

    @property
    def jobs_running(self) -> int:
        return len(self._jobs)

    def has_job(self, name: str) -> bool:
        return name in self._jobs

    def run_to_completion(self) -> Dict[str, object]:
        """Drain every queued event, then report :meth:`status`."""
        last = self.loop.queue.last_time()
        if last is not None:
            self.run_until(last)
        return self.status()

    @property
    def nodes_used(self) -> int:
        """Occupied-node count, O(1) off the density index."""
        return len(self.cluster.nodes) - len(self._by_density[0])

    def status(self) -> Dict[str, object]:
        """A JSON-able operational snapshot (the ``GET /status`` body)."""
        used = self.nodes_used
        total = len(self.cluster.nodes)
        checks = self._counts["qos_checks"]
        failures = self._counts["qos_check_failures"]
        lc_jobs = sum(1 for p in self._jobs.values() if p.job.is_lc)
        return {
            "time_s": self.now_s,
            "nodes_total": total,
            "nodes_used": used,
            "utilization": used / total,
            "jobs_running": len(self._jobs),
            "lc_jobs": lc_jobs,
            "bg_jobs": len(self._jobs) - lc_jobs,
            "pending_events": len(self.loop.queue),
            "qos_met_fraction": (
                1.0 if checks == 0 else (checks - failures) / checks
            ),
            "migration_cost_s": self.migration_cost_s,
            **self._counts,
        }

    def placements(self) -> Dict[str, int]:
        """Job name -> node index for every running job."""
        return {name: placed.node for name, placed in self._jobs.items()}

    # ------------------------------------------------------------------
    # Federation primitives (side-effect-free probe, separate commit)
    # ------------------------------------------------------------------
    def probe_admit(
        self, job: WarehouseJob, t: Seconds
    ) -> Tuple[Optional[int], Optional[ClusterNode], Tuple[int, ...]]:
        """Find a home for ``job`` at ``t`` without committing anything.

        Returns ``(node_index, tentative_node_state, verified_nodes)``;
        the index is None when no node admits the job.  Pure with
        respect to cluster state, so a federation root may run it for
        sibling shards concurrently on a thread pool.
        """
        if job.name in self._jobs:
            return None, None, ()
        return self._find_target(job, t)

    def commit_admit(
        self,
        job: WarehouseJob,
        t: Seconds,
        seq: int,
        target: int,
        tentative: ClusterNode,
        verified: Tuple[int, ...],
    ) -> None:
        """Apply a successful probe: the job now runs on ``target``."""
        self.cluster.nodes[target] = tentative
        self._jobs[job.name] = _Placed(job=job, node=target, admitted_s=t)
        self._mark_verified(target, self._loads_of(target, t))
        self._sync_index(target)
        self._counts["admitted"] += 1
        self._record(
            TimelineEntry(
                time_s=t,
                seq=seq,
                kind="admit",
                job=job.name,
                node=target,
                verified=verified,
            )
        )

    def reject(self, job: WarehouseJob, t: Seconds, seq: int, reason: str,
               verified: Tuple[int, ...] = ()) -> None:
        """Record a rejection (no node would take the job)."""
        self._counts["rejections"] += 1
        self.telemetry.metrics.counter(
            "warehouse.rejections", reason=reason
        ).add()
        self._record(
            TimelineEntry(
                time_s=t,
                seq=seq,
                kind="reject",
                job=job.name,
                detail=reason,
                verified=verified,
            )
        )

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def handle_event(self, t: Seconds, seq: int, payload: Payload) -> None:
        """Process one event *now* — the loop's (and federation's) hook."""
        tel = self.telemetry
        kind = type(payload).__name__.lower()
        with tel.tracer.span("warehouse.event", kind=kind, seq=seq) as span:
            if isinstance(payload, Arrival):
                self._on_arrival(t, seq, payload.job)
            elif isinstance(payload, Departure):
                self._on_departure(t, seq, payload.name)
            elif isinstance(payload, Recheck):
                self._on_recheck(t, seq)
            span.set("time_s", t)

    def _on_arrival(self, t: Seconds, seq: int, job: WarehouseJob) -> None:
        self._counts["arrivals"] += 1
        self.telemetry.metrics.counter("warehouse.arrivals").add()
        if job.name in self._jobs:
            self.reject(job, t, seq, reason="duplicate-name")
            return
        target, tentative, verified = self._find_target(job, t)
        if target is None or tentative is None:
            self.reject(job, t, seq, reason="capacity", verified=verified)
            return
        self.commit_admit(job, t, seq, target, tentative, verified)

    def _on_departure(self, t: Seconds, seq: int, name: str) -> None:
        self._counts["departures"] += 1
        self.telemetry.metrics.counter("warehouse.departures").add()
        placed = self._jobs.pop(name, None)
        if placed is None:
            self._record(
                TimelineEntry(
                    time_s=t, seq=seq, kind="depart", job=name,
                    detail="unknown",
                )
            )
            return
        index = placed.node
        self.cluster.remove_from(index, name)
        self._sync_index(index)
        verified: Tuple[int, ...] = ()
        survivors = self.cluster.nodes[index]
        if survivors.n_jobs:
            # Only the displaced node is re-verified: the departure
            # changed nobody else's co-runners.
            verified = self._rebalance_node(
                index, t, seq, self._loads_of(index, t)
            )
        else:
            self._last_verified.pop(index, None)
        self._record(
            TimelineEntry(
                time_s=t,
                seq=seq,
                kind="depart",
                job=name,
                node=index,
                verified=verified,
            )
        )

    def _on_recheck(self, t: Seconds, seq: int) -> None:
        self._counts["rechecks"] += 1
        self.telemetry.metrics.counter("warehouse.rechecks").add()
        checked = 0
        failed = 0
        verified_all: List[int] = []
        # Visit only nodes whose QoS could have moved since their last
        # verification: hosts of phased-load LC jobs (volatile) plus
        # nodes whose job set changed since the last tick (dirty) —
        # never the whole fleet.  Ascending index order matches the old
        # full scan, so same-seed timelines stay bit-identical.
        candidates = sorted(set(self._volatile_nodes) | self._recheck_dirty)
        for index in candidates:
            node_state = self.cluster.nodes[index]
            if not node_state.lc_requests:
                self._recheck_dirty.discard(index)
                continue
            loads = self._loads_of(index, t)
            if self._last_verified.get(index) == loads:
                self._recheck_dirty.discard(index)
                continue  # load unchanged since last verification: skip
            checked += 1
            verified = self._rebalance_node(index, t, seq, loads)
            verified_all.extend(verified)
            if self._last_verified.get(index) != loads:
                failed += 1
                # A persistent violation stays on the recheck list: the
                # old full scan revisited it every tick, and so do we.
                self._recheck_dirty.add(index)
            else:
                self._recheck_dirty.discard(index)
        if failed:
            self._counts["recheck_failures"] += failed
        self._record(
            TimelineEntry(
                time_s=t,
                seq=seq,
                kind="recheck",
                detail=f"checked={checked} failed={failed}",
                verified=tuple(verified_all),
            )
        )

    # ------------------------------------------------------------------
    # Admission + re-verification internals
    # ------------------------------------------------------------------
    def _refreshed(self, node_state: ClusterNode, t: Seconds) -> ClusterNode:
        """The node with every LC request's load resampled at ``t``."""
        requests = []
        for request in node_state.requests:
            placed = self._jobs.get(request.request_name)
            if placed is not None and placed.job.is_lc:
                requests.append(_request_at(placed.job, t))
            else:
                requests.append(request)
        return ClusterNode(
            index=node_state.index, spec=node_state.spec, requests=requests
        )

    def _loads_of(self, index: int, t: Seconds) -> Tuple[float, ...]:
        """Current effective LC load vector of one node (request order)."""
        loads = []
        for request in self.cluster.nodes[index].requests:
            placed = self._jobs.get(request.request_name)
            if placed is not None and placed.job.is_lc:
                load = placed.job.load_at(t)
                loads.append(load if load is not None else 0.0)
        return tuple(loads)

    def _mark_verified(self, index: int, loads: Tuple[float, ...]) -> None:
        """Record the load vector a node was just verified at.

        Callers compute ``loads`` exactly once per decision and thread
        it here (the repo's own RPL1004 finding was this method silently
        recomputing ``_loads_of`` a second time per re-check).
        """
        self._last_verified[index] = loads

    def _sync_index(self, index: int) -> None:
        """Re-home one node in the incremental indices after a commit.

        Called wherever a node's job set changes (admission, departure,
        eviction, migration landing).  The two sorted lists are
        bisect-maintained — O(bucket) per commit, see EXPERIMENTS.md —
        which is what lets admission and recheck never scan the fleet.
        """
        node_state = self.cluster.nodes[index]
        density = min(node_state.n_jobs, self.max_jobs_per_node)
        previous = self._density_of[index]
        if density != previous:
            bucket = self._by_density[previous]
            bucket.pop(bisect_left(bucket, index))
            insort(self._by_density[density], index)
            self._density_of[index] = density
        volatile = False
        for request in node_state.requests:
            placed = self._jobs.get(request.request_name)
            if (
                placed is not None
                and placed.job.is_lc
                and not placed.job.has_static_load
            ):
                volatile = True
                break
        pos = bisect_left(self._volatile_nodes, index)
        present = (
            pos < len(self._volatile_nodes)
            and self._volatile_nodes[pos] == index
        )
        if volatile and not present:
            self._volatile_nodes.insert(pos, index)
        elif not volatile and present:
            self._volatile_nodes.pop(pos)
        if node_state.lc_requests:
            self._recheck_dirty.add(index)
        else:
            self._recheck_dirty.discard(index)

    def _check_node(
        self, node_state: ClusterNode, verified_out: List[int]
    ) -> bool:
        """One probe of one (tentative) node state, counted per node."""
        verified_out.append(node_state.index)
        self.telemetry.metrics.counter(
            "warehouse.verify.nodes", node=str(node_state.index)
        ).add()
        return self.probe.check(node_state, self.seed)

    def _find_target(
        self,
        job: WarehouseJob,
        t: Seconds,
        exclude: FrozenSet[int] = frozenset(),
    ) -> Tuple[Optional[int], Optional[ClusterNode], Tuple[int, ...]]:
        """CLITE-style target search: densest occupied first, probed;
        fresh machine as fallback (through ``can_host``); else None.

        The density index makes the walk fleet-size-independent: buckets
        descend from the densest co-location level, each kept sorted by
        node index, so the visit order equals the historical full-fleet
        ``sorted(candidates, key=(-n_jobs, index))`` without ever
        materializing an n_nodes-sized candidate set — the COST family
        budgets this at O(small), and the deterministic bucket order
        keeps the probe sequence a pure function of cluster state (the
        property the PURE family's RPL904 used to pin via sorted()).
        """
        request = _request_at(job, t)
        verified: List[int] = []
        probed = 0
        for density in range(self.max_jobs_per_node - 1, 0, -1):
            for index in self._by_density[density]:
                if index in exclude:
                    continue
                node_state = self.cluster.nodes[index]
                if not node_state.can_host(request):
                    continue
                probed += 1
                tentative = self._refreshed(node_state, t).with_request(
                    request
                )
                if not tentative.lc_requests:
                    # BG-only nodes carry no QoS target: admit
                    # structurally.
                    return index, tentative, tuple(verified)
                if self._check_node(tentative, verified):
                    return index, tentative, tuple(verified)
                if probed >= self.max_probe_nodes:
                    break
            else:
                continue
            break
        for index in self._by_density[0]:
            if index in exclude:
                continue
            node_state = self.cluster.nodes[index]
            if node_state.can_host(request):
                return (
                    index,
                    node_state.with_request(request),
                    tuple(verified),
                )
        return None, None, tuple(verified)

    def _rebalance_node(
        self, index: int, t: Seconds, seq: int, loads: Tuple[float, ...]
    ) -> Tuple[int, ...]:
        """Re-verify one displaced/load-shifted node; migrate if it fails.

        ``loads`` is the node's current effective LC load vector — every
        caller has it in hand already, so it is threaded through instead
        of recomputed here; evictions change the job set, so the loop
        refreshes it after each one.  Returns the node indices verified
        along the way.  On success the node's load vector is recorded in
        ``_last_verified``; on persistent failure (the last survivor
        still violates QoS) a ``violation`` timeline entry is recorded
        instead.
        """
        verified: List[int] = []
        node_state = self._refreshed(self.cluster.nodes[index], t)
        self.cluster.nodes[index] = node_state
        self._counts["qos_checks"] += 1
        ok = (
            self._check_node(node_state, verified)
            if node_state.lc_requests
            else True
        )
        evictions = 0
        while (
            not ok
            and node_state.n_jobs > 1
            and evictions < self.migration.max_evictions_per_check
        ):
            victim = self.migration.select_victim(node_state, t)
            if victim is None:
                break
            evictions += 1
            node_state = node_state.without_request(victim.request_name)
            self.cluster.nodes[index] = node_state
            self._migrate(victim.request_name, index, t, seq, verified)
            loads = self._loads_of(index, t)
            ok = (
                self._check_node(node_state, verified)
                if node_state.lc_requests
                else True
            )
        if evictions:
            self._sync_index(index)
        if ok:
            self._mark_verified(index, loads)
        else:
            self._counts["qos_check_failures"] += 1
            self._last_verified.pop(index, None)
            self._recheck_dirty.add(index)
            self.telemetry.metrics.counter("warehouse.qos.violations").add()
            self._record(
                TimelineEntry(
                    time_s=t,
                    seq=seq,
                    kind="violation",
                    node=index,
                    detail="qos-unmet",
                )
            )
        return tuple(verified)

    def _migrate(
        self,
        name: str,
        source: int,
        t: Seconds,
        seq: int,
        verified_out: List[int],
    ) -> None:
        """Re-admit an evicted job elsewhere, charging the modeled cost."""
        placed = self._jobs[name]
        target, tentative, verified = self._find_target(
            placed.job, t, exclude=frozenset((source,))
        )
        verified_out.extend(verified)
        if target is None or tentative is None:
            # Nowhere to go: the job is dropped and counted with the
            # rejections (reason=migration), like a failed re-admission.
            del self._jobs[name]
            self._counts["dropped"] += 1
            self._counts["rejections"] += 1
            self.telemetry.metrics.counter(
                "warehouse.rejections", reason="migration"
            ).add()
            self._migrations.append(
                MigrationRecord(
                    time_s=t, job=name, from_node=source, to_node=-1,
                    cost_s=0.0,
                )
            )
            self._record(
                TimelineEntry(
                    time_s=t,
                    seq=seq,
                    kind="drop",
                    job=name,
                    node=source,
                    detail="no-target",
                    verified=verified,
                )
            )
            return
        self.cluster.nodes[target] = tentative
        placed.node = target
        self._mark_verified(target, self._loads_of(target, t))
        self._sync_index(target)
        cost = self.migration.cost_s
        self.migration_cost_s += cost
        self._counts["migrations"] += 1
        self.telemetry.metrics.counter("warehouse.migrations").add()
        self.telemetry.metrics.counter("warehouse.migration.cost_s").add(cost)
        self._migrations.append(
            MigrationRecord(
                time_s=t, job=name, from_node=source, to_node=target,
                cost_s=cost,
            )
        )
        self._record(
            TimelineEntry(
                time_s=t,
                seq=seq,
                kind="migrate",
                job=name,
                node=target,
                detail=f"from={source}",
                verified=verified,
            )
        )

    def _record(self, entry: TimelineEntry) -> None:
        if len(self._timeline) == TIMELINE_LIMIT:
            self._timeline_dropped += 1
        self._timeline.append(entry)
