"""Deterministic discrete-event core for the warehouse service.

The warehouse promotes placement from a batch call to a *service*: jobs
arrive, live for a while under time-varying load, and depart, and every
scheduling decision happens at a definite instant of simulated time.
This module provides the substrate that keeps those instants
reproducible: a heap-backed :class:`EventQueue` ordered by
``(time, seq)`` — ties broken by submission order, never by payload
contents — and an :class:`EventLoop` that drains it against the
injectable :class:`~repro.telemetry.clock.SimulatedClock`, interleaving
periodic re-check ticks at a fixed cadence.

Two same-seed runs therefore produce bit-identical event timelines: the
heap order is a pure function of what was scheduled, and the clock only
moves when an event is processed (Papadopoulos et al.'s requirement for
reproducible dynamic-allocation experiments).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from ..core.units import Seconds
from ..telemetry.clock import SimulatedClock
from ..workloads.base import BGWorkload, LCWorkload
from ..workloads.loadgen import LoadSchedule

#: Loads handed to admission probes are clamped into this range: a
#: schedule may legitimately dip to 0 (an idle phase) or overshoot 1.0
#: (a flash crowd), but a :class:`~repro.cluster.state.JobRequest`
#: demands a load in (0, 1].
MIN_PROBE_LOAD = 0.01
MAX_PROBE_LOAD = 1.0


@dataclass(frozen=True)
class WarehouseJob:
    """One job as the warehouse sees it: workload + lifetime load shape.

    Unlike a :class:`~repro.cluster.state.JobRequest` (a point-in-time
    placement request at a fixed load), a warehouse job carries its
    whole :class:`~repro.workloads.loadgen.LoadSchedule` — phase starts
    are absolute simulated seconds — so re-check ticks can ask "what is
    this job's load *now*?" long after admission.
    """

    workload: Union[LCWorkload, BGWorkload]
    name: str
    schedule: Optional[LoadSchedule] = None

    def __post_init__(self) -> None:
        if isinstance(self.workload, LCWorkload):
            if self.schedule is None:
                raise ValueError(f"LC job {self.name!r} needs a load schedule")
        elif self.schedule is not None:
            raise ValueError(f"BG job {self.name!r} does not take a schedule")

    @property
    def is_lc(self) -> bool:
        return isinstance(self.workload, LCWorkload)

    @property
    def has_static_load(self) -> bool:
        """True when this job's load can never change between ticks.

        BG jobs carry no schedule and constant schedules never move, so
        neither can invalidate a verified placement on its own; only
        jobs with genuinely phased schedules make their host node
        *volatile* (rechecked every tick even without churn).
        """
        return self.schedule is None or self.schedule.is_constant

    @staticmethod
    def lc(
        workload: LCWorkload,
        schedule: Union[LoadSchedule, float],
        name: Optional[str] = None,
    ) -> "WarehouseJob":
        """An LC job; a bare float becomes a constant schedule."""
        if not isinstance(schedule, LoadSchedule):
            schedule = LoadSchedule.constant(float(schedule))
        return WarehouseJob(
            workload=workload,
            name=name if name is not None else workload.name,
            schedule=schedule,
        )

    @staticmethod
    def bg(workload: BGWorkload, name: Optional[str] = None) -> "WarehouseJob":
        return WarehouseJob(
            workload=workload,
            name=name if name is not None else workload.name,
        )

    def load_at(self, t: Seconds) -> Optional[float]:
        """Effective (probe-clamped) load fraction at time ``t``."""
        if self.schedule is None:
            return None
        raw = self.schedule.load_at(t)
        return min(max(raw, MIN_PROBE_LOAD), MAX_PROBE_LOAD)


@dataclass(frozen=True)
class Arrival:
    """A job asking for admission."""

    job: WarehouseJob


@dataclass(frozen=True)
class Departure:
    """A placed job leaving the cluster."""

    name: str


@dataclass(frozen=True)
class Recheck:
    """A periodic QoS re-verification tick."""


Payload = Union[Arrival, Departure, Recheck]


class EventQueue:
    """A min-heap of ``(time, seq, payload)`` entries.

    ``seq`` is a monotone push counter, so events at equal times pop in
    submission order and payloads are never compared — the heap order is
    deterministic by construction.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Payload]] = []
        self._seq = 0

    def push(self, time_s: Seconds, payload: Payload) -> int:
        """Schedule ``payload`` at ``time_s``; returns its sequence id.

        A NaN or infinite time would break the heap order (and with it
        every later event), so it is refused here, where every scheduled
        event enters the queue.
        """
        at = float(time_s)
        if not math.isfinite(at):
            raise ValueError(f"event time must be finite, got {time_s!r}")
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (at, seq, payload))
        return seq

    def pop(self) -> Tuple[float, int, Payload]:
        return heapq.heappop(self._heap)

    def next_seq(self) -> int:
        """Claim the next sequence id without queueing anything (used to
        stamp lazily synthesized re-check ticks)."""
        seq = self._seq
        self._seq += 1
        return seq

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def last_time(self) -> Optional[float]:
        """Latest scheduled time, or None when empty (O(n) scan)."""
        if not self._heap:
            return None
        return max(entry[0] for entry in self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class EventLoop:
    """Drains an :class:`EventQueue` against a simulated clock.

    Between explicit events the loop synthesizes :class:`Recheck` ticks
    every ``recheck_period_s`` simulated seconds (first tick one full
    period in).  Ticks are generated lazily — they never sit in the
    heap — so an idle service scheduled far into the future costs
    nothing until :meth:`run_until` actually crosses the tick times.

    Ordering discipline: all heap events at time ``T`` are processed
    *before* a re-check tick at the same ``T``, so a tick always sees
    the post-churn cluster state of its instant.
    """

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        recheck_period_s: Optional[Seconds] = None,
    ) -> None:
        if recheck_period_s is not None and recheck_period_s <= 0:
            raise ValueError("recheck_period_s must be positive")
        self.clock = clock if clock is not None else SimulatedClock()
        self.queue = EventQueue()
        self.recheck_period_s = recheck_period_s
        self._next_recheck_s = (
            self.clock.now() + recheck_period_s
            if recheck_period_s is not None
            else None
        )

    @property
    def now_s(self) -> Seconds:
        return self.clock.now()

    def schedule(self, at_s: Seconds, payload: Payload) -> int:
        """Queue ``payload``; the past is not schedulable."""
        if at_s < self.clock.now():
            raise ValueError(
                f"cannot schedule at t={at_s} (clock is at {self.clock.now()})"
            )
        return self.queue.push(at_s, payload)

    def _advance_to(self, t: Seconds) -> None:
        now = self.clock.now()
        if t > now:
            self.clock.tick(t - now)

    def run_until(
        self,
        t: Seconds,
        handler: Callable[[float, int, Payload], None],
    ) -> int:
        """Process every event (and tick) with time <= ``t``; returns count.

        The clock is advanced to each event's time before its handler
        runs and lands exactly on ``t`` afterwards, so a subsequent
        ``run_until`` resumes where this one stopped.
        """
        if t < self.clock.now():
            raise ValueError(
                f"cannot run to t={t} (clock is at {self.clock.now()})"
            )
        processed = 0
        while True:
            head = self.queue.peek_time()
            tick = self._next_recheck_s
            has_event = head is not None and head <= t
            has_tick = tick is not None and tick <= t
            if has_event and (not has_tick or head <= tick):  # type: ignore[operator]
                time_s, seq, payload = self.queue.pop()
                self._advance_to(time_s)
                handler(time_s, seq, payload)
            elif has_tick:
                assert tick is not None and self.recheck_period_s is not None
                self._advance_to(tick)
                self._next_recheck_s = tick + self.recheck_period_s
                handler(tick, self.queue.next_seq(), Recheck())
            else:
                break
            processed += 1
        self._advance_to(t)
        return processed
