"""Command-line interface for the warehouse service.

Installed as ``repro-warehouse``.  The single ``run`` subcommand
synthesizes a deterministic arrival/departure scenario and plays it
against a cluster (or a sharded federation), printing a rolling report
as simulated time advances::

    repro-warehouse run --nodes 200 --shards 2 --jobs 120
    repro-warehouse run --nodes 50 --jobs 40 --probe clite --store obs.jsonl
    repro-warehouse run --serve --nodes 100 --jobs 60

``--serve`` mounts the HTTP control plane (``GET /status``,
``GET /metrics``, ``POST /submit``, ``POST /depart``) while the
scenario runs, pacing simulated time against short wall-clock sleeps so
a human (or a test) can poll and inject jobs mid-run.  ``--check`` runs
a small scenario twice and verifies the two timelines are identical,
then replays a clite-probe scenario serially and with concurrent
probes over a shared observation store and diffs those timelines too —
the determinism smoke test CI runs on every push.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Union

from ..core import CLITEConfig
from ..server.obstore import ObservationStore
from ..telemetry import Telemetry
from ..telemetry.clock import SimulatedClock
from .api import ServiceGateway, make_api_server
from .federation import ROUTING_POLICIES, WarehouseFederation
from .migration import MigrationModel
from .scenario import ScenarioConfig, load_into, synthesize
from .service import WarehouseService

Target = Union[WarehouseService, WarehouseFederation]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-warehouse",
        description="Event-driven warehouse-scale scheduler service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="play a synthetic scenario")
    run.add_argument("--nodes", type=int, default=100,
                     help="total nodes (split across shards)")
    run.add_argument("--shards", type=int, default=1,
                     help="sub-clusters (1 = a single service)")
    run.add_argument("--jobs", type=int, default=80,
                     help="jobs submitted over the scenario")
    run.add_argument("--duration", type=float, default=600.0,
                     help="scenario horizon in simulated seconds")
    run.add_argument("--lc-fraction", type=float, default=0.5,
                     help="probability a job is latency-critical")
    run.add_argument("--seed", type=int, default=0,
                     help="one seed for scenario and probes")
    run.add_argument("--probe", choices=("quick", "clite"), default="quick",
                     help="admission probe flavor")
    run.add_argument("--routing", choices=ROUTING_POLICIES,
                     default="least-loaded", help="federation routing policy")
    run.add_argument("--concurrent-probes", action="store_true",
                     help="fan shard probes out on a thread pool")
    run.add_argument("--recheck", type=float, default=60.0,
                     help="QoS re-check period in simulated seconds "
                          "(0 disables ticks)")
    run.add_argument("--migration-cost", type=float, default=5.0,
                     help="simulated seconds charged per migration")
    run.add_argument("--report-every", type=float, default=60.0,
                     help="rolling-report interval in simulated seconds")
    run.add_argument("--store", default=None, metavar="PATH",
                     help="observation store path (clite probes; "
                          "per-shard suffixes are added)")
    run.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the report as JSON instead of text")
    run.add_argument("--serve", action="store_true",
                     help="mount the HTTP control plane while running")
    run.add_argument("--host", default="127.0.0.1", help="API bind host")
    run.add_argument("--port", type=int, default=0,
                     help="API port (0 = ephemeral)")
    run.add_argument("--serve-tick", type=float, default=0.05,
                     help="wall seconds slept per report slice with --serve")
    run.add_argument("--hold", type=float, default=0.0,
                     help="wall seconds to keep serving after completion")
    run.add_argument("--check", action="store_true",
                     help="small fixed scenario, run twice, verify "
                          "determinism; exit non-zero on mismatch")
    return parser


def _build_target(
    args: argparse.Namespace,
    telemetry: Telemetry,
    clock: SimulatedClock,
    stores: Optional[List[Optional[ObservationStore]]],
) -> Target:
    recheck = args.recheck if args.recheck > 0 else None
    migration = MigrationModel(cost_s=args.migration_cost)
    if args.shards > 1:
        return WarehouseFederation(
            n_shards=args.shards,
            nodes_per_shard=args.nodes // args.shards,
            routing=args.routing,
            concurrent_probes=args.concurrent_probes,
            probe=args.probe,
            seed=args.seed,
            recheck_period_s=recheck,
            migration=migration,
            telemetry=telemetry,
            stores=stores,
            clock=clock,
        )
    return WarehouseService(
        args.nodes,
        probe=args.probe,
        seed=args.seed,
        recheck_period_s=recheck,
        migration=migration,
        clock=clock,
        telemetry=telemetry,
        store=stores[0] if stores else None,
    )


def _report_row(status: Dict[str, object]) -> Dict[str, object]:
    keys = (
        "time_s", "jobs_running", "nodes_used", "utilization",
        "rejections", "migrations", "migration_cost_s", "qos_met_fraction",
        "pending_events",
    )
    return {k: status[k] for k in keys if k in status}


def _print_row(row: Dict[str, object]) -> None:
    print(
        "t={time_s:8.1f}s  jobs={jobs_running:4d}  nodes={nodes_used:4d}  "
        "util={utilization:5.1%}  rej={rejections:3d}  mig={migrations:3d}  "
        "migcost={migration_cost_s:6.1f}s  qos={qos_met_fraction:6.1%}".format(
            **row  # type: ignore[arg-type]
        )
    )


def _apply_gateway(target: Target, gateway: ServiceGateway) -> None:
    """Drain queued control-plane commands onto the event loop."""
    now = target.now_s
    for command in gateway.drain():
        at = command.at_s if command.at_s is not None else now
        at = max(at, now)  # the past is not schedulable
        if command.kind == "submit" and command.job is not None:
            target.submit(command.job, at=at)
        elif command.kind == "depart":
            target.depart(command.name, at=at)


def _cursor_of(target: Target) -> Union[int, tuple]:
    """Current timeline position, for incremental :func:`_decisions_since`."""
    if isinstance(target, WarehouseFederation):
        return target.timeline_cursor()
    return target.timeline_len


def _decisions_since(target: Target, cursor: Union[int, tuple]) -> tuple:
    """Decisions recorded since ``cursor`` — each entry copied once per
    run instead of re-flattening the whole federation every slice."""
    return target.timeline_since(cursor)  # type: ignore[arg-type]


def _run_scenario(
    args: argparse.Namespace,
    target: Target,
    gateway: Optional[ServiceGateway],
) -> Dict[str, object]:
    """Advance simulated time in report slices; returns the final status."""
    rows: List[Dict[str, object]] = []
    horizon = args.duration
    step = max(args.report_every, 1e-6)
    t = 0.0
    cursor = _cursor_of(target)
    while t < horizon:
        t = min(t + step, horizon)
        if gateway is not None:
            _apply_gateway(target, gateway)
        target.run_until(t)
        status = target.status()
        if gateway is not None:
            gateway.publish(status)
            time.sleep(args.serve_tick)
        row = _report_row(status)
        row["decisions"] = len(_decisions_since(target, cursor))
        cursor = _cursor_of(target)
        rows.append(row)
        if not args.as_json:
            _print_row(rows[-1])
    # Stragglers scheduled past the horizon (late departures).
    final = target.run_to_completion()
    if gateway is not None:
        gateway.publish(final)
    if args.as_json:
        print(json.dumps({"rows": rows, "final": final}, indent=2))
    else:
        _print_row(_report_row(final))
    return final


def _timeline_of(target: Target) -> tuple:
    if isinstance(target, WarehouseFederation):
        return _decisions_since(
            target, (0,) * (len(target.shards) + 1)
        )
    return target.timeline


def _run_check(args: argparse.Namespace) -> int:
    """Two determinism smoke tests; identical timelines or bust.

    First a small fixed scenario is played twice through the same
    federation shape (same-seed bit-identity).  Then the same shape is
    played once with serial probes and once with ``concurrent_probes``
    under ``--probe clite`` with one observation store shared by both
    shards — the exact configuration whose determinism rests on the
    probe/commit split that ``repro-lint --select PURE`` proves statically.
    """
    config = ScenarioConfig(
        n_jobs=30, duration_s=300.0, lc_fraction=0.5, seed=args.seed
    )
    events = synthesize(config)
    outcomes = []
    for _ in range(2):
        clock = SimulatedClock()
        with WarehouseFederation(
            n_shards=2,
            nodes_per_shard=20,
            routing=args.routing,
            concurrent_probes=args.concurrent_probes,
            seed=args.seed,
            recheck_period_s=30.0,
            clock=clock,
        ) as federation:
            load_into(federation, events)
            status = federation.run_to_completion()
            outcomes.append(
                (
                    _timeline_of(federation),
                    federation.placements(),
                    status["jobs_running"],
                )
            )
    if outcomes[0] != outcomes[1]:
        print("warehouse check: FAILED (same-seed runs diverged)")
        return 1

    clite_config = ScenarioConfig(
        n_jobs=12, duration_s=200.0, lc_fraction=0.5, seed=args.seed
    )
    clite_events = synthesize(clite_config)
    probe_engine = CLITEConfig(
        max_iterations=10,
        post_qos_iterations=3,
        refine_budget=5,
        confirm_top=1,
        n_restarts=3,
    )
    clite_outcomes = []
    with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
        for concurrent in (False, True):
            store_path = f"{tmp}/obs-{'conc' if concurrent else 'serial'}.jsonl"
            with ObservationStore(store_path) as store, WarehouseFederation(
                n_shards=2,
                nodes_per_shard=20,
                routing=args.routing,
                concurrent_probes=concurrent,
                probe="clite",
                engine_config=probe_engine,
                seed=args.seed,
                recheck_period_s=30.0,
                clock=SimulatedClock(),
                stores=[store, store],
            ) as federation:
                load_into(federation, clite_events)
                status = federation.run_to_completion()
                clite_outcomes.append(
                    (
                        _timeline_of(federation),
                        federation.placements(),
                        status["jobs_running"],
                    )
                )
    if clite_outcomes[0] != clite_outcomes[1]:
        print(
            "warehouse check: FAILED "
            "(serial vs concurrent clite probes diverged)"
        )
        return 1

    timeline, placements, running = outcomes[0]
    clite_timeline = clite_outcomes[0][0]
    print(
        f"warehouse check: OK ({len(events)} events, "
        f"{len(timeline)} decisions, {running} jobs still running, "
        f"{len(placements)} placements, bit-identical across runs; "
        f"clite serial == concurrent over a shared store, "
        f"{len(clite_timeline)} decisions)"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.check:
        return _run_check(args)
    if args.nodes < 1 or args.jobs < 1:
        print("need at least one node and one job", file=sys.stderr)
        return 2
    if args.shards < 1 or args.shards > args.nodes:
        print("shards must be in [1, nodes]", file=sys.stderr)
        return 2
    stores: Optional[List[Optional[ObservationStore]]] = None
    if args.store is not None:
        n_stores = max(args.shards, 1)
        stores = [
            ObservationStore(
                args.store if n_stores == 1 else f"{args.store}.shard{i}"
            )
            for i in range(n_stores)
        ]
    clock = SimulatedClock()
    telemetry = Telemetry.enabled(clock=clock)
    target = _build_target(args, telemetry, clock, stores)
    gateway: Optional[ServiceGateway] = None
    server = None
    server_thread = None
    try:
        if args.serve:
            gateway = ServiceGateway()
            gateway.publish(target.status())
            server = make_api_server(
                gateway, telemetry.metrics, host=args.host, port=args.port
            )
            server_thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            server_thread.start()
            print(f"serving on {server.url}  (GET /status, GET /metrics, "
                  "POST /submit, POST /depart)")
        config = ScenarioConfig(
            n_jobs=args.jobs,
            duration_s=args.duration,
            lc_fraction=args.lc_fraction,
            seed=args.seed,
        )
        load_into(target, synthesize(config))
        _run_scenario(args, target, gateway)
        if args.serve and args.hold > 0:
            time.sleep(args.hold)
        return 0
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
        if isinstance(target, WarehouseFederation):
            target.close()
        if stores:
            for store in stores:
                if store is not None:
                    store.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
