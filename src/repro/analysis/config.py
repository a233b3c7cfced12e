"""Linter configuration: built-in defaults plus ``[tool.repro-lint]``.

The defaults encode this repository's own invariants (hot-path modules,
the thread-pool entry point's shared types, which constructors must
carry partition contracts).  A ``[tool.repro-lint]`` table in the
nearest ``pyproject.toml`` overrides any field, so the fixture corpus
and downstream users can retarget the rules without code changes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Tuple

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.9/3.10 fallback
    tomllib = None  # type: ignore[assignment]


@dataclass(frozen=True)
class LintConfig:
    """Everything the rules need to know about the project's shape.

    Attributes:
        select: Rule IDs to run (empty = all registered rules).
        ignore: Rule IDs to skip.
        hot_path: Module-path substrings (posix) marking the BO hot
            path; the numerics family only fires inside them.
        shared_types: Class names whose instances are shared across the
            thread-pool fan-out; functions reachable from a pool entry
            point must not mutate parameters of these types.
        entrypoints: Extra thread-pool entry points as
            ``module.function`` dotted names (``Executor.submit`` targets
            are also discovered automatically).
        placement_bases: Base-class names marking cluster placement
            policies; their ``place`` must carry ``@placement_contract``.
        policy_bases: Base-class names marking node partition policies;
            their ``partition`` must carry ``@policy_contract``.
        optimizer_classes: Class names whose ``propose`` must carry
            ``@proposal_contract``.
        partition_constructors: ``Class.method`` (or bare function) names
            that construct partitions and must carry
            ``@partition_contract``.
        frozen_key_classes: Dataclass names that are used as dict/cache
            keys and therefore must be declared ``frozen=True``.
        guarded_classes: Class names whose instances are shared across
            threads *by design* and protect themselves with an internal
            lock; RPL603 requires every attribute write in their methods
            to hold a lock on all paths.  Distinct from ``shared_types``
            (read-only under the pool, RPL201's domain).
        clock_classes: Extra class names (beyond ``Clock`` subclasses
            discovered structurally) whose instances are sanctioned time
            sources for RPL602.
        flow_blocking_calls: The RPL802 blocking-call registry:
            ``"mod.fn"`` dotted names, ``".method"`` receiver-blind
            method names (``.result``), or ``"Class.method"`` entries
            resolved through the type oracle (physics observation).
        flow_entrypoints: Extra loop/thread entry points for the FLOW
            analyses as ``module.function`` or ``module.Class.method``
            dotted names (``Executor.submit`` and ``Thread(target=...)``
            targets are discovered automatically).
        flow_longlived: Class names whose instances live as long as the
            service; RPL805 tracks growth of their container attributes.
        flow_bounded_containers: ``Owner.attr`` / ``module.NAME``
            container tokens exempt from RPL805 (bounded by
            construction, with the reason documented at the allowlist).
        flow_shared_ok: Class names allowed to cross into worker
            threads without registration (RPL803) — thread-safe by
            composition.
        flow_strict_modules: Path substrings inside which RPL804
            enforces exception-safe release; tests may leak on assert
            failure by design, service code may not.
        flow_resources: Lifecycle registry as ``"Creator=rel1,rel2"``
            entries mapping resource constructors to their release
            methods.
        pure_registry: Dotted names of functions declared pure for
            RPL901 (``module.fn`` / ``module.Class.method``); their
            whole callgraph closure must be free of mutations of
            pre-existing state.  ``@declared_pure``-decorated functions
            join this set automatically.
        pure_probe_entrypoints: Dotted names of probe entry points for
            RPL902 — the speculative, side-effect-free phase of the
            probe-then-commit split.  Nothing reachable from them may
            call a commit mutator or draw fresh RNG/clock state.
        pure_commit_mutators: Dotted names of the commit-tagged
            mutators RPL902 bans from probe paths (cluster placement,
            the service commit/migrate surface, observation-store
            writes).
        pure_snapshot_methods: Method names (bare or ``Class.method``)
            treated as snapshot accessors by RPL903; they must return
            defensive copies, never live internal containers.
        pure_allow_calls: Callees (bare name, ``Class.method``, or full
            dotted path) whose effects are sanctioned-benign on pure
            paths — the lock-guarded telemetry surface, whose lazy
            metric registration is idempotent and replay-invariant.
        cost_budgets: Declared complexity budgets for RPL1001 as
            ``"module.Class.method=expr"`` entries; ``expr`` is a
            ``*``-product of ``const``/``small``/``n_nodes``/
            ``n_jobs``/``n_shards`` factors and caps the N-degree of
            the function's closed symbolic cost.
        cost_hot_entrypoints: Dotted names of the per-event hot entry
            points (engine round loop, warehouse event handlers,
            gateway publish); everything reachable from them is RPL1003
            scope, and each must carry a ``cost_budgets`` entry
            (RPL1005).  The ``hot_path`` module set extends this scope.
        cost_collections: ``Owner.attr=n_var`` size facts seeding the
            bound inference: iterating/materializing these collections
            charges the named N variable (``Cluster.nodes=n_nodes``).
        cost_bounded: ``Owner.attr=reason`` allowlist of containers
            that are small by construction (documented reason), so
            scanning them never charges an N variable.
        cost_small_names: Local/parameter names always classed small
            (``verified``, ``displaced``, ``changed``, ``dirty``) —
            the incremental-work vocabulary.
    """

    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    hot_path: Tuple[str, ...] = ("repro/core/",)
    shared_types: Tuple[str, ...] = ("ClusterNode", "Cluster")
    entrypoints: Tuple[str, ...] = ()
    placement_bases: Tuple[str, ...] = ("PlacementPolicy",)
    policy_bases: Tuple[str, ...] = ("Policy",)
    optimizer_classes: Tuple[str, ...] = ("AcquisitionOptimizer",)
    partition_constructors: Tuple[str, ...] = (
        "ConfigurationSpace.equal_partition",
        "ConfigurationSpace.max_allocation",
        "ConfigurationSpace.random",
        "ConfigurationSpace.from_unit_cube",
        "ConfigurationSpace.random_batch",
        "ConfigurationSpace.from_unit_cube_batch",
    )
    frozen_key_classes: Tuple[str, ...] = (
        "Configuration",
        "DropoutDecision",
        "Resource",
        "ServerSpec",
    )
    guarded_classes: Tuple[str, ...] = (
        "MetricRegistry",
        "Counter",
        "Gauge",
        "Histogram",
        "Tracer",
    )
    clock_classes: Tuple[str, ...] = ()
    flow_blocking_calls: Tuple[str, ...] = (
        ".result",
        ".serve_forever",
        "Node.observe",
        "Node.true_performance",
        "open",
        "os.fsync",
        "socket.create_connection",
        "subprocess.Popen",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.run",
        "time.sleep",
    )
    flow_entrypoints: Tuple[str, ...] = (
        "repro.telemetry.serve._MetricsHandler.do_GET",
    )
    flow_longlived: Tuple[str, ...] = (
        "MetricRegistry",
        "Node",
        "ObservationStore",
        "Tracer",
    )
    flow_bounded_containers: Tuple[str, ...] = (
        # Metric cardinality is code-determined: the set of metric
        # names/labels is a static property of the instrumented source,
        # the standard Prometheus registry model.
        "MetricRegistry._metrics",
    )
    flow_shared_ok: Tuple[str, ...] = (
        # Thread-safe by composition: an immutable facade over the
        # lock-guarded MetricRegistry/Tracer and a read-only clock.
        "Telemetry",
    )
    flow_strict_modules: Tuple[str, ...] = ("repro/",)
    flow_resources: Tuple[str, ...] = (
        "MetricsServer=server_close,shutdown",
        "ObservationStore=close",
        "ThreadPoolExecutor=shutdown",
        "make_server=server_close,shutdown",
        "open=close",
        "socket.socket=close",
    )
    pure_registry: Tuple[str, ...] = (
        "repro.core.acquisition.ExpectedImprovement.__call__",
        "repro.core.acquisition.ProbabilityOfImprovement.__call__",
        "repro.core.acquisition.UpperConfidenceBound.__call__",
        "repro.server.obstore.node_fingerprint",
        "repro.warehouse.admission.CLITEProbe.check",
        "repro.warehouse.admission.QuickProbe.check",
        "repro.warehouse.service.WarehouseService.probe_admit",
    )
    pure_probe_entrypoints: Tuple[str, ...] = (
        "repro.core.acquisition.ExpectedImprovement.__call__",
        "repro.core.acquisition.ProbabilityOfImprovement.__call__",
        "repro.core.acquisition.UpperConfidenceBound.__call__",
        "repro.server.obstore.node_fingerprint",
        "repro.warehouse.admission.CLITEProbe.check",
        "repro.warehouse.admission.QuickProbe.check",
        "repro.warehouse.service.WarehouseService.probe_admit",
    )
    pure_commit_mutators: Tuple[str, ...] = (
        "repro.cluster.state.Cluster.place",
        "repro.cluster.state.Cluster.remove",
        "repro.cluster.state.Cluster.remove_from",
        "repro.server.obstore.ObservationStore.put",
        "repro.warehouse.service.WarehouseService._migrate",
        "repro.warehouse.service.WarehouseService._rebalance_node",
        "repro.warehouse.service.WarehouseService.commit_admit",
        "repro.warehouse.service.WarehouseService.reject",
    )
    pure_snapshot_methods: Tuple[str, ...] = (
        "migrations",
        "placements",
        "routed",
        "snapshot",
        "stats",
        "status",
        "timeline",
    )
    pure_allow_calls: Tuple[str, ...] = (
        # The lock-guarded telemetry surface: lazy metric registration
        # mutates MetricRegistry._metrics, but registration is
        # idempotent and metric values never feed back into decisions,
        # so probe paths observing telemetry stay replay-invariant.
        "Counter.add",
        "Gauge.set",
        "Histogram.observe",
        "MetricRegistry.counter",
        "MetricRegistry.gauge",
        "MetricRegistry.histogram",
        "Tracer.span",
    )
    cost_budgets: Tuple[str, ...] = (
        "repro.core.engine.CLITEEngine.optimize=small",
        "repro.warehouse.api.ServiceGateway.publish=small",
        "repro.warehouse.federation.WarehouseFederation._handle=n_shards",
        "repro.warehouse.federation.WarehouseFederation._route_arrival"
        "=n_shards",
        "repro.warehouse.federation.WarehouseFederation._route_departure"
        "=n_shards",
        "repro.warehouse.federation.WarehouseFederation.status"
        "=n_shards*n_jobs",
        "repro.warehouse.service.WarehouseService._find_target=small",
        "repro.warehouse.service.WarehouseService._migrate=small",
        "repro.warehouse.service.WarehouseService._on_arrival=small",
        "repro.warehouse.service.WarehouseService._on_departure=small",
        "repro.warehouse.service.WarehouseService._on_recheck=small",
        "repro.warehouse.service.WarehouseService._rebalance_node=small",
        "repro.warehouse.service.WarehouseService.commit_admit=small",
        "repro.warehouse.service.WarehouseService.handle_event=small",
        "repro.warehouse.service.WarehouseService.probe_admit=small",
        "repro.warehouse.service.WarehouseService.status=n_jobs",
    )
    cost_hot_entrypoints: Tuple[str, ...] = (
        "repro.core.engine.CLITEEngine.optimize",
        "repro.warehouse.api.ServiceGateway.publish",
        "repro.warehouse.federation.WarehouseFederation._handle",
        "repro.warehouse.service.WarehouseService.handle_event",
        "repro.warehouse.service.WarehouseService.probe_admit",
    )
    cost_collections: Tuple[str, ...] = (
        "Cluster.nodes=n_nodes",
        "Cluster.placements=n_jobs",
        "Cluster.used_nodes=n_nodes",
        "WarehouseFederation.shards=n_shards",
        "WarehouseService._jobs=n_jobs",
        "WarehouseService._last_verified=n_nodes",
    )
    cost_bounded: Tuple[str, ...] = (
        # Per-node job lists are capped by max_jobs_per_node.
        "ClusterNode.job_names=per-node, capped by max_jobs_per_node",
        "ClusterNode.requests=per-node, capped by max_jobs_per_node",
        # The probe walk exits after max_probe_nodes passing candidates.
        "WarehouseService._by_density=probe loop exits after "
        "max_probe_nodes candidates",
        # Drained every recheck tick; holds only nodes touched since.
        "WarehouseService._recheck_dirty=drained every tick, holds only "
        "nodes touched since the last recheck",
        # Load-shifted subset of the incremental-recheck contract.
        "WarehouseService._volatile_nodes=load-shifted subset of the "
        "incremental recheck contract",
    )
    cost_small_names: Tuple[str, ...] = (
        "changed",
        "dirty",
        "displaced",
        "verified",
    )

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        if self.select and rule_id not in self.select:
            return False
        return True


def find_pyproject(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the nearest ``pyproject.toml``."""
    current = start if start.is_dir() else start.parent
    for candidate in [current, *current.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(start: Optional[Path] = None) -> LintConfig:
    """Defaults merged with the nearest ``[tool.repro-lint]`` table.

    Unknown keys in the table are rejected loudly — a typoed option that
    silently does nothing is exactly the class of bug this tool exists
    to prevent.
    """
    config = LintConfig()
    if start is None or tomllib is None:
        return config
    pyproject = find_pyproject(Path(start).resolve())
    if pyproject is None:
        return config
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("repro-lint", {})
    if not table:
        return config
    known = {f.name for f in fields(LintConfig)}
    overrides = {}
    for key, value in table.items():
        name = key.replace("-", "_")
        if name in ("flow", "pure", "cost") and isinstance(value, dict):
            # [tool.repro-lint.<family>]: sub-keys map onto <family>_*
            # fields and hold lists.  The cost table's registry-shaped
            # sub-tables (budgets, collections, bounded) read best as
            # TOML tables and flatten to sorted "k=v" entries so
            # LintConfig stays hashable.
            for sub_key, sub_value in value.items():
                sub_name = f"{name}_{sub_key.replace('-', '_')}"
                if sub_name in known and isinstance(sub_value, list):
                    overrides[sub_name] = tuple(str(v) for v in sub_value)
                elif (
                    sub_name in known
                    and name == "cost"
                    and isinstance(sub_value, dict)
                ):
                    overrides[sub_name] = tuple(
                        sorted(f"{k}={v}" for k, v in sub_value.items())
                    )
                else:
                    raise ValueError(
                        f"unknown [tool.repro-lint.{name}] option "
                        f"{sub_key!r} in {pyproject}"
                    )
            continue
        if name not in known:
            raise ValueError(
                f"unknown [tool.repro-lint] option {key!r} in {pyproject}"
            )
        if isinstance(value, list):
            overrides[name] = tuple(str(v) for v in value)
        else:
            overrides[name] = value
    return replace(config, **overrides)
