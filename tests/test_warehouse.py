"""The warehouse service: event core, admission, migration, determinism."""

from __future__ import annotations

import math

import pytest

from conftest import make_bg, make_lc
from repro.core import CLITEConfig
from repro.telemetry import Telemetry
from repro.telemetry.clock import SimulatedClock
from repro.telemetry.serve import parse_series
from repro.server import ObservationStore
from repro.warehouse import (
    Arrival,
    Departure,
    EventLoop,
    EventQueue,
    MigrationModel,
    QuickProbe,
    Recheck,
    ScenarioConfig,
    WarehouseJob,
    WarehouseService,
    load_into,
    synthesize,
)
from repro.workloads import LoadSchedule

#: Small engine budgets for full-CLITE probes in tests.
FAST_ENGINE = CLITEConfig(
    max_iterations=10,
    post_qos_iterations=3,
    refine_budget=5,
    confirm_top=1,
    n_restarts=3,
)


def lc_job(name, load, qos_latency_ms=10.0):
    return WarehouseJob.lc(
        make_lc(name, qos_latency_ms=qos_latency_ms), load, name
    )


def bg_job(name):
    return WarehouseJob.bg(make_bg(name), name)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(5.0, Departure("b"))
        queue.push(1.0, Departure("a"))
        queue.push(3.0, Departure("c"))
        times = [queue.pop()[0] for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_ties_pop_in_submission_order(self):
        queue = EventQueue()
        first = queue.push(2.0, Departure("first"))
        second = queue.push(2.0, Departure("second"))
        assert second == first + 1
        assert queue.pop()[2] == Departure("first")
        assert queue.pop()[2] == Departure("second")

    def test_peek_and_last_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        assert queue.last_time() is None
        queue.push(4.0, Recheck())
        queue.push(9.0, Recheck())
        assert queue.peek_time() == 4.0
        assert queue.last_time() == 9.0
        assert len(queue) == 2 and bool(queue)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_times(self, bad):
        """A NaN time breaks heap order for every later event."""
        queue = EventQueue()
        with pytest.raises(ValueError, match="finite"):
            queue.push(bad, Departure("x"))
        assert len(queue) == 0


class TestEventLoop:
    def test_rejects_scheduling_in_the_past(self):
        loop = EventLoop()
        loop.clock.tick(10.0)
        with pytest.raises(ValueError, match="cannot schedule"):
            loop.schedule(5.0, Recheck())

    def test_rejects_running_backwards(self):
        loop = EventLoop()
        loop.clock.tick(10.0)
        with pytest.raises(ValueError, match="cannot run"):
            loop.run_until(5.0, lambda *a: None)

    def test_clock_lands_exactly_on_target(self):
        loop = EventLoop()
        loop.schedule(3.0, Recheck())
        loop.run_until(7.5, lambda *a: None)
        assert loop.now_s == 7.5

    def test_recheck_ticks_interleave_after_same_time_events(self):
        loop = EventLoop(recheck_period_s=10.0)
        loop.schedule(10.0, Departure("at-tick-time"))
        loop.schedule(25.0, Departure("later"))
        seen = []
        loop.run_until(30.0, lambda t, seq, p: seen.append((t, type(p).__name__)))
        assert seen == [
            (10.0, "Departure"),  # heap events beat the tick at t=10
            (10.0, "Recheck"),
            (20.0, "Recheck"),
            (25.0, "Departure"),
            (30.0, "Recheck"),
        ]

    def test_clock_advances_monotonically_through_handlers(self):
        loop = EventLoop()
        loop.schedule(2.0, Recheck())
        loop.schedule(6.0, Recheck())
        times = []
        loop.run_until(8.0, lambda t, seq, p: times.append(loop.now_s))
        assert times == [2.0, 6.0]


class TestWarehouseJob:
    def test_lc_requires_schedule(self):
        with pytest.raises(ValueError, match="needs a load schedule"):
            WarehouseJob(make_lc("a"), "a")

    def test_bg_refuses_schedule(self):
        with pytest.raises(ValueError, match="does not take"):
            WarehouseJob(make_bg("b"), "b", LoadSchedule.constant(0.5))

    def test_load_clamped_into_probe_range(self):
        job = WarehouseJob.lc(
            make_lc("a"), LoadSchedule.steps([(0.0, 0.0), (10.0, 1.4)]), "a"
        )
        assert job.load_at(0.0) == pytest.approx(0.01)
        assert job.load_at(10.0) == pytest.approx(1.0)
        assert bg_job("b").load_at(5.0) is None

    def test_float_becomes_constant_schedule(self):
        job = lc_job("a", 0.4)
        assert job.load_at(0.0) == job.load_at(1e6) == pytest.approx(0.4)


class TestMigrationModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MigrationModel(cost_s=-1.0)
        with pytest.raises(ValueError):
            MigrationModel(max_evictions_per_check=0)

    def test_victim_prefers_bg_then_lightest_lc(self, mini_server):
        from repro.cluster.state import ClusterNode, JobRequest

        lc_heavy = JobRequest(make_lc("heavy"), 0.9, name="heavy")
        lc_light = JobRequest(make_lc("light"), 0.2, name="light")
        bg = JobRequest(make_bg("noise"), name="noise")
        model = MigrationModel()
        node = ClusterNode(0, mini_server, [lc_heavy, lc_light, bg])
        assert model.select_victim(node, 0.0).request_name == "noise"
        node = ClusterNode(0, mini_server, [lc_heavy, lc_light])
        assert model.select_victim(node, 0.0).request_name == "light"
        node = ClusterNode(0, mini_server, [lc_heavy])
        assert model.select_victim(node, 0.0) is None


class TestQuickProbe:
    def test_bg_only_node_always_passes(self, mini_server):
        from repro.cluster.state import ClusterNode, JobRequest

        node = ClusterNode(0, mini_server, [JobRequest(make_bg("b"), name="b")])
        assert QuickProbe().check(node, seed=0)

    def test_infeasible_pair_rejected_feasible_singles_pass(self, mini_server):
        from repro.cluster.state import ClusterNode, JobRequest

        probe = QuickProbe()

        def node_of(loads):
            requests = [
                JobRequest(
                    make_lc(f"w{i}", qos_latency_ms=6.0), load, name=f"w{i}"
                )
                for i, load in enumerate(loads)
            ]
            return ClusterNode(0, mini_server, requests)

        assert probe.check(node_of([1.0]), seed=0)
        assert probe.check(node_of([0.85]), seed=0)
        assert not probe.check(node_of([1.0, 0.85]), seed=0)


class TestServiceBasics:
    def test_admit_then_status(self, mini_server):
        service = WarehouseService(4, spec=mini_server)
        service.submit(lc_job("a", 0.4), at=1.0)
        service.submit(bg_job("b"), at=2.0)
        service.run_until(5.0)
        status = service.status()
        assert status["admitted"] == 2
        assert status["jobs_running"] == 2
        assert status["lc_jobs"] == 1 and status["bg_jobs"] == 1
        assert service.has_job("a") and service.jobs_running == 2

    def test_duplicate_name_rejected(self, mini_server):
        service = WarehouseService(4, spec=mini_server)
        service.submit(bg_job("same"), at=1.0)
        service.submit(bg_job("same"), at=2.0)
        service.run_until(3.0)
        assert service.status()["rejections"] == 1
        rejects = [e for e in service.timeline if e.kind == "reject"]
        assert rejects[0].detail == "duplicate-name"

    def test_capacity_rejection(self, mini_server):
        service = WarehouseService(1, spec=mini_server, max_jobs_per_node=1)
        service.submit(bg_job("a"), at=1.0)
        service.submit(bg_job("b"), at=2.0)
        service.run_until(3.0)
        assert service.placements() == {"a": 0}
        assert service.status()["rejections"] == 1

    def test_departure_frees_node_for_reuse(self, mini_server):
        service = WarehouseService(2, spec=mini_server, max_jobs_per_node=1)
        service.submit(bg_job("a"), at=1.0)
        service.submit(bg_job("b"), at=2.0)
        service.depart("a", at=3.0)
        service.submit(bg_job("c"), at=4.0)
        service.run_until(5.0)
        # Node 0 was freed by a's departure and immediately reused.
        assert service.placements() == {"b": 1, "c": 0}
        assert service.status()["departures"] == 1
        assert service.cluster.machines_used() == 2

    def test_unknown_departure_is_recorded_not_fatal(self, mini_server):
        service = WarehouseService(2, spec=mini_server)
        service.depart("ghost", at=1.0)
        service.run_until(2.0)
        departs = [e for e in service.timeline if e.kind == "depart"]
        assert departs[0].detail == "unknown"


class TestMigrationAccounting:
    def _ramping_service(self, mini_server, cost_s=7.5):
        """One node holding a ramping LC pair that must split at t=50."""
        service = WarehouseService(
            3,
            spec=mini_server,
            recheck_period_s=30.0,
            migration=MigrationModel(cost_s=cost_s),
        )
        ramp = WarehouseJob.lc(
            make_lc("rampy", qos_latency_ms=6.0),
            LoadSchedule.steps([(0.0, 0.2), (50.0, 1.0)]),
            "ramp",
        )
        steady = lc_job("steady", 0.85, qos_latency_ms=6.0)
        service.submit(ramp, at=0.0)
        service.submit(steady, at=1.0)
        return service

    def test_failed_recheck_migrates_and_charges_cost(self, mini_server):
        service = self._ramping_service(mini_server)
        service.run_until(40.0)
        # Before the ramp: co-located, nothing moved.
        assert service.placements() == {"ramp": 0, "steady": 0}
        assert service.migration_cost_s == 0.0
        service.run_until(100.0)
        # The t=60 re-check saw (1.0, 0.85) fail and moved the lighter
        # LC job to a fresh machine, charging exactly one migration.
        assert service.placements() == {"ramp": 0, "steady": 1}
        records = service.migrations
        assert len(records) == 1
        record = records[0]
        assert record.succeeded
        assert (record.job, record.from_node, record.to_node) == ("steady", 0, 1)
        assert record.cost_s == pytest.approx(7.5)
        assert service.migration_cost_s == pytest.approx(7.5)
        status = service.status()
        assert status["migrations"] == 1
        assert status["dropped"] == 0
        kinds = [e.kind for e in service.timeline]
        assert "migrate" in kinds and "violation" not in kinds

    def test_unchanged_loads_skip_reverification(self, mini_server):
        service = self._ramping_service(mini_server)
        service.run_until(45.0)
        # The t=30 tick found the loads unchanged since admission and
        # verified nothing (detail says checked=0).
        recheck = [e for e in service.timeline if e.kind == "recheck"][0]
        assert recheck.detail == "checked=0 failed=0"
        assert recheck.verified == ()


class TestDeterminism:
    def test_synthesize_is_a_pure_function_of_config(self):
        config = ScenarioConfig(n_jobs=25, duration_s=300.0, seed=11)
        assert synthesize(config) == synthesize(config)
        other = ScenarioConfig(n_jobs=25, duration_s=300.0, seed=12)
        assert synthesize(other) != synthesize(config)

    def test_same_seed_runs_are_bit_identical(self):
        config = ScenarioConfig(n_jobs=60, duration_s=500.0, seed=5)
        runs = []
        for _ in range(2):
            service = WarehouseService(40, recheck_period_s=60.0, seed=5)
            load_into(service, synthesize(config))
            status = service.run_to_completion()
            runs.append(
                (service.timeline, service.placements(),
                 service.migrations, status)
            )
        assert runs[0] == runs[1]
        # The scenario actually exercised the service.
        timeline, placements, _, status = runs[0]
        assert status["arrivals"] == 60
        assert status["admitted"] > 0 and status["departures"] > 0
        assert len(timeline) >= 60

    def test_mutating_returned_snapshots_cannot_perturb_replay(self):
        """RPL903's contract, end to end: ``status()``/``placements()``
        hand out defensive copies, so trashing them mid-run leaves the
        rest of the replay bit-identical to an undisturbed one."""
        config = ScenarioConfig(n_jobs=60, duration_s=500.0, seed=5)

        def run(disturb):
            service = WarehouseService(40, recheck_period_s=60.0, seed=5)
            load_into(service, synthesize(config))
            if disturb:
                service.run_until(250.0)
                status = service.status()
                placements = service.placements()
                status.clear()
                status["jobs_running"] = -1
                placements.clear()
                placements["ghost"] = 99
            final = service.run_to_completion()
            return (
                service.timeline,
                service.placements(),
                service.migrations,
                final,
            )

        assert run(disturb=False) == run(disturb=True)


class TestIncrementalVerification:
    """Only displaced nodes are re-verified, observed via real counters."""

    def _verified_nodes(self, telemetry):
        nodes = set()
        for series, value in telemetry.snapshot().counters.items():
            name, labels = parse_series(series)
            if name == "cluster.verify.samples" and value > 0:
                nodes.add(int(labels["node"]))
        return nodes

    def test_only_displaced_nodes_probed(self, mini_server, tmp_path):
        clock = SimulatedClock()
        telemetry = Telemetry.enabled(clock=clock)
        with ObservationStore(tmp_path / "obs.jsonl") as store:
            service = WarehouseService(
                3,
                spec=mini_server,
                probe="clite",
                engine_config=FAST_ENGINE,
                max_jobs_per_node=2,
                clock=clock,
                telemetry=telemetry,
                store=store,
            )
            service.submit(lc_job("a", 0.3), at=1.0)  # empty node 0: no probe
            service.submit(lc_job("b", 0.3), at=2.0)  # probes node 0 only
            service.submit(lc_job("c", 0.3), at=3.0)  # node 0 full: node 1
            service.depart("a", at=4.0)  # re-verifies survivor on node 0
            service.run_until(5.0)
            assert service.placements() == {"b": 0, "c": 1}
            # Only node 0 ever gained a job alongside existing ones (or
            # lost one): it alone was BO-verified.  Empty-node admits
            # ("a" on 0, "c" on 1) are structural, and node 2 was never
            # sampled at all.
            assert self._verified_nodes(telemetry) == {0}
            per_event = {
                (e.kind, e.job): e.verified for e in service.timeline
            }
            assert per_event[("admit", "a")] == ()
            assert per_event[("admit", "b")] == (0,)
            assert per_event[("admit", "c")] == ()  # node 0 full: fresh node
            assert per_event[("depart", "a")] == (0,)
            cold_stats = store.stats()
            assert cold_stats.misses > 0

    def test_warm_store_makes_repeat_probes_cheap(self, mini_server, tmp_path):
        def run(store):
            service = WarehouseService(
                2,
                spec=mini_server,
                probe="clite",
                engine_config=FAST_ENGINE,
                store=store,
            )
            service.submit(lc_job("a", 0.3), at=1.0)
            service.submit(lc_job("b", 0.3), at=2.0)
            service.run_until(3.0)
            return service.timeline

        with ObservationStore(tmp_path / "obs.jsonl") as store:
            cold = run(store)
            misses_after_cold = store.stats().misses
            warm = run(store)
            stats = store.stats()
        assert cold == warm  # same decisions either way
        assert stats.hits > 0  # the second run reused stored truths
        assert stats.misses == misses_after_cold  # and added no new physics


class CountingService(WarehouseService):
    """Counts effective-load computations: the incremental recheck's
    one-computation-per-visited-node contract, observed directly."""

    loads_calls = 0

    def _loads_of(self, index, t):
        self.loads_calls += 1
        return super()._loads_of(index, t)


class TestIncrementalRecheck:
    """The recheck walks volatile/dirty candidates, not the fleet, and
    computes each visited node's load vector exactly once."""

    def test_static_fleet_goes_quiet_after_one_tick(self):
        service = CountingService(6, recheck_period_s=10.0, seed=3)
        for i, name in enumerate(("a", "b", "c")):
            service.submit(lc_job(name, 0.2), at=1.0 + i)
        service.run_until(9.5)
        lc_nodes = set(service.placements().values())
        before = service.loads_calls
        service.run_until(10.5)
        # First tick after admission: every admission-dirtied node costs
        # one load computation, matches its verified vector, and drops
        # off the candidate list.
        assert service.loads_calls - before == len(lc_nodes)
        rechecks = [e for e in service.timeline if e.kind == "recheck"]
        assert rechecks and rechecks[-1].detail == "checked=0 failed=0"
        before = service.loads_calls
        service.run_until(30.5)
        # Constant loads leave nothing volatile and nothing dirty: later
        # ticks compute no load vectors at all (the pre-index recheck
        # recomputed one per used node, every tick, forever).
        assert service.loads_calls == before
        assert len([e for e in service.timeline if e.kind == "recheck"]) >= 3

    def test_phased_node_is_checked_with_one_load_computation(self):
        schedule = LoadSchedule.steps([(0.0, 0.2), (15.0, 0.35)])
        service = CountingService(4, recheck_period_s=10.0, seed=3)
        service.submit(
            WarehouseJob.lc(make_lc("p"), schedule, "p"), at=1.0
        )
        service.run_until(9.5)
        assert "p" in service.placements()
        before = service.loads_calls
        service.run_until(10.5)
        # t=10: the load still reads 0.2, equal to the vector verified
        # at admission — one computation, then skip.
        assert service.loads_calls - before == 1
        before = service.loads_calls
        service.run_until(20.5)
        # t=20: the phase shifted to 0.35, so the node is re-verified —
        # and the rebalance reuses the vector already in hand instead of
        # recomputing it (the repo's own RPL1004 finding).
        assert service.loads_calls - before == 1
        rechecks = [e for e in service.timeline if e.kind == "recheck"]
        assert rechecks[-1].detail == "checked=1 failed=0"


class TestTimelineCursor:
    """timeline_len/timeline_since: rolling readers see every entry
    exactly once, including entries later aged out of the ring."""

    def test_rolling_cursor_collects_every_entry_once(self, monkeypatch):
        import repro.warehouse.service as service_mod

        monkeypatch.setattr(service_mod, "TIMELINE_LIMIT", 8)
        service = WarehouseService(20, recheck_period_s=50.0, seed=2)
        load_into(
            service, synthesize(ScenarioConfig(n_jobs=30, duration_s=300.0, seed=2))
        )
        collected = []
        cursor = service.timeline_len
        assert cursor == 0
        for t in range(10, 640, 10):
            service.run_until(float(t))
            fresh = service.timeline_since(cursor)
            # Slices are fine-grained enough that nothing ages out
            # between reads — the invariant rolling reports rely on.
            assert len(fresh) < 8
            collected.extend(fresh)
            cursor = service.timeline_len
        assert service.timeline_len == len(collected) > 8
        assert tuple(collected[-8:]) == service.timeline
        # A zero cursor clamps to whatever the ring still holds.
        assert service.timeline_since(0) == service.timeline
        assert service.timeline_since(cursor) == ()


class IndexFreeService(WarehouseService):
    """The pre-index reference implementation: full-fleet candidate
    scans for admission and recheck (the code RPL1001 flagged),
    adapted only to the threaded-loads ``_rebalance_node`` signature.
    The density-bucket service must stay bit-identical to it."""

    def _probe_order(self, index):
        return (-self.cluster.nodes[index].n_jobs, index)

    def _find_target(self, job, t, exclude=frozenset()):
        from repro.warehouse.service import _request_at

        request = _request_at(job, t)
        verified = []
        candidates = {
            node_state.index
            for node_state in self.cluster.nodes
            if 0 < node_state.n_jobs < self.max_jobs_per_node
            and node_state.index not in exclude
            and node_state.can_host(request)
        }
        occupied = sorted(candidates, key=self._probe_order)
        for index in occupied[: self.max_probe_nodes]:
            node_state = self.cluster.nodes[index]
            tentative = self._refreshed(node_state, t).with_request(request)
            if not tentative.lc_requests:
                return node_state.index, tentative, tuple(verified)
            if self._check_node(tentative, verified):
                return node_state.index, tentative, tuple(verified)
        for node_state in self.cluster.nodes:
            if (
                node_state.n_jobs == 0
                and node_state.index not in exclude
                and node_state.can_host(request)
            ):
                return (
                    node_state.index,
                    node_state.with_request(request),
                    tuple(verified),
                )
        return None, None, tuple(verified)

    def _on_recheck(self, t, seq):
        from repro.warehouse.service import TimelineEntry

        self._counts["rechecks"] += 1
        self.telemetry.metrics.counter("warehouse.rechecks").add()
        checked = 0
        failed = 0
        verified_all = []
        for node_state in self.cluster.used_nodes():
            if not node_state.lc_requests:
                continue
            loads = self._loads_of(node_state.index, t)
            if self._last_verified.get(node_state.index) == loads:
                continue
            checked += 1
            verified = self._rebalance_node(node_state.index, t, seq, loads)
            verified_all.extend(verified)
            if self._last_verified.get(node_state.index) != loads:
                failed += 1
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


class TestIndexEquivalence:
    """The density-bucket/dirty-set service replays bit-identically to
    the scan-everything reference across full scenarios."""

    @pytest.mark.parametrize("seed", [5, 11])
    def test_indexed_service_matches_full_scan_reference(self, seed):
        events = synthesize(
            ScenarioConfig(n_jobs=60, duration_s=500.0, seed=seed)
        )
        runs = []
        for cls in (WarehouseService, IndexFreeService):
            service = cls(40, recheck_period_s=60.0, seed=seed)
            load_into(service, events)
            status = service.run_to_completion()
            runs.append(
                (
                    service.timeline,
                    service.placements(),
                    service.migrations,
                    status,
                )
            )
        assert runs[0] == runs[1]
        status = runs[0][3]
        assert status["admitted"] > 0 and status["rechecks"] > 0
