"""Sharded federation: many sub-cluster schedulers behind one router.

A warehouse does not run one scheduler over 10,000 machines — it
partitions the fleet into *shards*, each with its own scheduler loop and
observation store, and routes arrivals between them.  The
:class:`WarehouseFederation` reproduces that shape in simulation: a root
event loop owns the timeline, each shard is a full
:class:`~.service.WarehouseService` sharing the root's simulated clock,
and arrivals are routed by a pluggable policy:

* ``round-robin`` — rotate the first shard tried per arrival;
* ``least-loaded`` — try shards by ascending running-job count;
* ``rejection-retry`` — a stable home shard per job name (CRC32, never
  ``hash()`` — that is salted per process), spilling to siblings on
  rejection.

Whatever the policy, routing degrades gracefully: every shard is tried
in preference order before the federation rejects.

Shard admission probes are side-effect-free (see
:meth:`~.service.WarehouseService.probe_admit`), so the root may fan
them out over a thread pool (``concurrent_probes=True``).  Determinism
survives the concurrency because probe *results* are collected per
shard and committed in preference order — the committed decision is a
pure function of the event, never of thread completion order — which the
serial-vs-concurrent equivalence test pins down.  The side-effect-free
half of that bargain is *proven statically*: ``repro-lint --select PURE``
(the RPL9xx family, :mod:`repro.analysis.pure`) closes the probe entry
points over the call graph and fails CI on any mutation of
pre-existing state, fresh RNG/clock draw, or commit-mutator call in a
probe closure.
"""

from __future__ import annotations

import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Deque, Dict, List, Optional, Tuple, Union

from ..core.engine import CLITEConfig
from ..core.units import Seconds
from ..resources.spec import ServerSpec
from ..sanitizer.hooks import register_shared
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..telemetry.clock import SimulatedClock
from ..server.obstore import ObservationStore
from .events import Arrival, Departure, EventLoop, Payload, Recheck, WarehouseJob
from .migration import MigrationModel
from .service import TIMELINE_LIMIT, TimelineEntry, WarehouseService

ROUTING_POLICIES = ("round-robin", "least-loaded", "rejection-retry")


@dataclass(frozen=True)
class RoutedEntry:
    """One root-level routing decision.

    ``kind`` is ``route`` (admitted on ``shard``/``node``), ``reject``
    (every shard refused), or ``depart``.
    """

    time_s: Seconds
    seq: int
    kind: str
    job: str = ""
    shard: int = -1
    node: int = -1
    detail: str = ""


def home_shard(name: str, n_shards: int) -> int:
    """Stable home shard for a job name (CRC32 — process-independent)."""
    return zlib.crc32(name.encode("utf-8")) % n_shards


class WarehouseFederation:
    """A fleet partitioned into independently scheduled sub-clusters.

    Args:
        n_shards: Number of sub-clusters.
        nodes_per_shard: Fleet size of each shard.
        routing: One of :data:`ROUTING_POLICIES`.
        concurrent_probes: Fan admission probes across shards on a
            thread pool (results are still committed deterministically).
        stores: Optional per-shard observation stores (one each).
        Everything else is forwarded to each shard's
        :class:`~.service.WarehouseService`.

    The federation must be :meth:`close`\\ d (or used as a context
    manager) when ``concurrent_probes`` is on, to shut the pool down.
    """

    def __init__(
        self,
        n_shards: int,
        nodes_per_shard: int,
        routing: str = "least-loaded",
        concurrent_probes: bool = False,
        probe: str = "quick",
        engine_config: Optional[CLITEConfig] = None,
        seed: Optional[int] = 0,
        spec: Optional[ServerSpec] = None,
        max_jobs_per_node: int = 4,
        recheck_period_s: Optional[Seconds] = None,
        migration: Optional[MigrationModel] = None,
        telemetry: Optional[Telemetry] = None,
        stores: Optional[List[Optional[ObservationStore]]] = None,
        max_probe_nodes: int = 8,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("a federation needs at least one shard")
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing {routing!r}; pick one of {ROUTING_POLICIES}"
            )
        if stores is not None and len(stores) != n_shards:
            raise ValueError(
                f"got {len(stores)} stores for {n_shards} shards"
            )
        self.routing = routing
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.clock = clock if clock is not None else SimulatedClock()
        self.loop = EventLoop(
            clock=self.clock, recheck_period_s=recheck_period_s
        )
        self.shards: List[WarehouseService] = [
            WarehouseService(
                nodes_per_shard,
                spec=spec,
                probe=probe,
                engine_config=engine_config,
                seed=seed,
                max_jobs_per_node=max_jobs_per_node,
                recheck_period_s=None,  # the root loop owns the ticks
                migration=migration,
                clock=self.clock,
                telemetry=self.telemetry,
                store=stores[i] if stores is not None else None,
                max_probe_nodes=max_probe_nodes,
            )
            for i in range(n_shards)
        ]
        self._pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=n_shards, thread_name_prefix="warehouse-probe"
            )
            if concurrent_probes and n_shards > 1
            else None
        )
        self._routed: Deque[RoutedEntry] = deque(maxlen=TIMELINE_LIMIT)
        self._routed_dropped = 0
        self._rr_next = 0
        self._counts: Dict[str, int] = {
            "arrivals": 0,
            "routed": 0,
            "rejections": 0,
            "departures": 0,
        }
        register_shared(
            self,
            name=f"WarehouseFederation@{id(self):x}",
            container_attrs=("shards",),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the probe pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "WarehouseFederation":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Public service surface (mirrors WarehouseService)
    # ------------------------------------------------------------------
    @property
    def now_s(self) -> Seconds:
        return self.loop.now_s

    @property
    def routed(self) -> Tuple[RoutedEntry, ...]:
        """Every root routing decision so far, oldest first."""
        return tuple(self._routed)

    @property
    def routed_len(self) -> int:
        """Total routing decisions ever recorded, including aged-out."""
        return self._routed_dropped + len(self._routed)

    def routed_since(self, cursor: int) -> Tuple[RoutedEntry, ...]:
        """Routing decisions at or after absolute position ``cursor``."""
        start = max(cursor - self._routed_dropped, 0)
        return tuple(islice(self._routed, start, None))

    def timeline_cursor(self) -> Tuple[int, ...]:
        """Opaque position marker for :meth:`timeline_since`."""
        return (self.routed_len,) + tuple(
            shard.timeline_len for shard in self.shards
        )

    def timeline_since(
        self, cursor: Tuple[int, ...]
    ) -> Tuple[Union[RoutedEntry, TimelineEntry], ...]:
        """Every decision recorded since ``cursor`` (root + shards).

        The shape matches the historical "routed log then each shard's
        timeline, in shard order" flattening, so a zero cursor yields
        exactly what callers used to rebuild from scratch — and a
        rolling report advancing its cursor per slice copies each entry
        once instead of re-flattening the whole federation every slice.
        """
        entries: List[Union[RoutedEntry, TimelineEntry]] = list(
            self.routed_since(cursor[0])
        )
        for shard, position in zip(self.shards, cursor[1:]):
            entries.extend(shard.timeline_since(position))
        return tuple(entries)

    def submit(self, job: WarehouseJob, at: Seconds) -> int:
        return self.loop.schedule(at, Arrival(job))

    def depart(self, name: str, at: Seconds) -> int:
        return self.loop.schedule(at, Departure(name))

    def run_until(self, t: Seconds) -> int:
        return self.loop.run_until(t, self._handle)

    def run_to_completion(self) -> Dict[str, object]:
        last = self.loop.queue.last_time()
        if last is not None:
            self.run_until(last)
        return self.status()

    def placements(self) -> Dict[str, Tuple[int, int]]:
        """Job name -> (shard index, node index)."""
        out: Dict[str, Tuple[int, int]] = {}
        for shard_index, shard in enumerate(self.shards):
            for name, node in shard.placements().items():
                out[name] = (shard_index, node)
        return out

    def status(self) -> Dict[str, object]:
        """Aggregate snapshot plus every shard's own status."""
        shard_statuses = [shard.status() for shard in self.shards]
        nodes_total = sum(s["nodes_total"] for s in shard_statuses)  # type: ignore[misc]
        nodes_used = sum(s["nodes_used"] for s in shard_statuses)  # type: ignore[misc]
        checks = sum(s["qos_checks"] for s in shard_statuses)  # type: ignore[misc]
        failures = sum(s["qos_check_failures"] for s in shard_statuses)  # type: ignore[misc]
        return {
            "time_s": self.now_s,
            "n_shards": len(self.shards),
            "routing": self.routing,
            "nodes_total": nodes_total,
            "nodes_used": nodes_used,
            "utilization": nodes_used / nodes_total,
            "jobs_running": sum(s.jobs_running for s in self.shards),
            "pending_events": len(self.loop.queue),
            "qos_met_fraction": (
                1.0 if checks == 0 else (checks - failures) / checks
            ),
            "migrations": sum(
                s["migrations"] for s in shard_statuses  # type: ignore[misc]
            ),
            "migration_cost_s": sum(
                shard.migration_cost_s for shard in self.shards
            ),
            **self._counts,
            "shards": shard_statuses,
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _preference(self, job: WarehouseJob) -> List[int]:
        """Shard indices in the order this arrival should try them."""
        n = len(self.shards)
        if self.routing == "round-robin":
            start = self._rr_next
            self._rr_next = (self._rr_next + 1) % n
            return [(start + i) % n for i in range(n)]
        if self.routing == "rejection-retry":
            home = home_shard(job.name, n)
            return [home] + [i for i in range(n) if i != home]
        # least-loaded: ascending running jobs, shard index breaks ties.
        return sorted(range(n), key=lambda i: (self.shards[i].jobs_running, i))

    def _probe_all(
        self, job: WarehouseJob, t: Seconds, order: List[int]
    ) -> Dict[int, Tuple[Optional[int], object, Tuple[int, ...]]]:
        """Probe shards for ``job`` — concurrently when a pool exists.

        Serial mode probes lazily in preference order and stops at the
        first admitting shard; concurrent mode probes every shard and
        keeps all results.  Either way the caller scans ``order`` and
        commits the first hit, so both modes choose identically.
        """
        results: Dict[int, Tuple[Optional[int], object, Tuple[int, ...]]] = {}
        if self._pool is not None:
            futures = {
                i: self._pool.submit(self.shards[i].probe_admit, job, t)
                for i in order
            }
            for i, future in futures.items():
                results[i] = future.result()
            return results
        for i in order:
            outcome = self.shards[i].probe_admit(job, t)
            results[i] = outcome
            if outcome[0] is not None:
                break
        return results

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def _route_record(self, entry: RoutedEntry) -> None:
        if len(self._routed) == TIMELINE_LIMIT:
            self._routed_dropped += 1
        self._routed.append(entry)

    def _handle(self, t: Seconds, seq: int, payload: Payload) -> None:
        with self.telemetry.tracer.span(
            "warehouse.route", kind=type(payload).__name__.lower(), seq=seq
        ):
            if isinstance(payload, Arrival):
                self._route_arrival(t, seq, payload.job)
            elif isinstance(payload, Departure):
                self._route_departure(t, seq, payload.name)
            elif isinstance(payload, Recheck):
                for shard in self.shards:
                    shard.handle_event(t, seq, payload)

    def _route_arrival(self, t: Seconds, seq: int, job: WarehouseJob) -> None:
        self._counts["arrivals"] += 1
        self.telemetry.metrics.counter("warehouse.route.arrivals").add()
        order = self._preference(job)
        if any(shard.has_job(job.name) for shard in self.shards):
            self._counts["rejections"] += 1
            self._route_record(
                RoutedEntry(
                    time_s=t, seq=seq, kind="reject", job=job.name,
                    detail="duplicate-name",
                )
            )
            return
        results = self._probe_all(job, t, order)
        for shard_index in order:
            target, tentative, verified = results.get(
                shard_index, (None, None, ())
            )
            if target is None or tentative is None:
                continue
            self.shards[shard_index].commit_admit(
                job, t, seq, target, tentative, verified  # type: ignore[arg-type]
            )
            self._counts["routed"] += 1
            self.telemetry.metrics.counter(
                "warehouse.route.admitted", shard=str(shard_index)
            ).add()
            self._route_record(
                RoutedEntry(
                    time_s=t, seq=seq, kind="route", job=job.name,
                    shard=shard_index, node=target,
                )
            )
            return
        self._counts["rejections"] += 1
        self.telemetry.metrics.counter("warehouse.route.rejections").add()
        self._route_record(
            RoutedEntry(
                time_s=t, seq=seq, kind="reject", job=job.name,
                detail="capacity",
            )
        )

    def _route_departure(self, t: Seconds, seq: int, name: str) -> None:
        self._counts["departures"] += 1
        for shard_index, shard in enumerate(self.shards):
            if shard.has_job(name):
                shard.handle_event(t, seq, Departure(name))
                self._route_record(
                    RoutedEntry(
                        time_s=t, seq=seq, kind="depart", job=name,
                        shard=shard_index,
                    )
                )
                return
        self._route_record(
            RoutedEntry(
                time_s=t, seq=seq, kind="depart", job=name, detail="unknown"
            )
        )
