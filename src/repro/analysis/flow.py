"""Whole-program concurrency and resource-lifecycle analysis (FLOW).

The RPL6xx dataflow pass proves per-statement facts (locksets, taint);
this module composes them into the *interactions* a long-lived service
dies from: lock-order cycles between the worker pools' guarded objects,
blocking work performed while a lock is held, mutable values escaping
into pool threads unregistered, resources whose release is not
exception-safe, and containers that only ever grow.  Five analyses run
over one shared harvest of the project:

* **Lock-order graph (RPL801)** — every lock acquisition is qualified
  to a project-wide identity (``Class.attr``, ``module.NAME``, or
  ``fn-key.local``) and recorded together with the locks definitely
  held at the acquisition site; per-function "locks acquired
  transitively" summaries extend the edges through the call graph.
  Cycles in the resulting order graph are deadlocks waiting for the
  right interleaving; a self-edge is one only for non-reentrant locks
  (``RLock`` re-entry is legal and recorded separately).
* **Blocking-call-under-lock (RPL802)** — a configurable registry of
  blocking operations (file/socket IO, ``sleep``, ``subprocess``,
  physics observation, ``Future.result``) matched inside held-lock
  regions, both directly and through calls whose callees block.
* **Thread-escape (RPL803)** — arguments and closure captures flowing
  into ``Executor.submit`` / ``Thread(target=...)`` whose inferred
  class is a project type that is neither frozen, guarded, registered
  via ``register_shared`` in its constructor, nor allowlisted.
* **Lifecycle discipline (RPL804)** — locally-created resources
  (``open``, pools, servers, stores) must be released on *all* paths:
  used as a context manager, released in a ``finally``, or ownership
  transferred (returned / stored on an object / passed on).
* **Unbounded growth (RPL805)** — growth operations on module-level or
  long-lived-object containers reachable from a loop entry point, with
  no shrink operation anywhere, no ``len()`` bound guard at the growth
  site, and no ``deque(maxlen=...)`` bound.

Everything is syntactic and conservative: receivers whose type cannot
be inferred are never flagged.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field as dc_field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .callgraph import (
    _POOL_DISPATCH,
    CallGraph,
    FunctionScanner,
    _annotation_class,
    shared_analysis,
)
from .config import LintConfig
from .core import CallClosure, Site, fn_label, site_of, strongly_connected
from .dataflow import _LOCK_TYPE_NAMES, LocksetAnalysis, pool_entry_keys
from .project import FunctionInfo, ModuleInfo, Project, self_attr

#: Container methods that add elements.
_GROW_METHODS = {"append", "add", "insert", "extend", "appendleft", "setdefault"}

#: Container methods that remove elements (an eviction path exists).
_SHRINK_METHODS = {"pop", "popitem", "popleft", "clear", "remove", "discard"}

#: Functions whose body *implements* lock discipline and is therefore
#: exempt from the bare-acquire lifecycle check.
_LOCK_WRAPPER_METHODS = {"acquire", "release", "locked", "__enter__", "__exit__"}

#: Container constructors recognised for module-level growth tracking.
_CONTAINER_CTORS = {"list", "dict", "set", "deque", "OrderedDict", "defaultdict"}


@dataclass(frozen=True)
class CycleHit:
    """A cycle in the lock-order graph (or a non-reentrant self-edge)."""

    tokens: Tuple[str, ...]
    site: Site
    detail: str


@dataclass(frozen=True)
class BlockingHit:
    """A blocking call executed while at least one lock is held."""

    site: Site
    call: str                 # registry entry that matched
    locks: Tuple[str, ...]    # locks definitely held
    via: str = ""             # callee qualname when reached interprocedurally


@dataclass(frozen=True)
class EscapeHit:
    """A mutable, unregistered project value handed to another thread."""

    site: Site
    value: str    # source text-ish description of the escaping expression
    cls: str      # inferred class name


@dataclass(frozen=True)
class LeakHit:
    """A resource whose release is not guaranteed on all paths."""

    site: Site
    resource: str   # variable name or creator description
    creator: str
    kind: str       # "never-released" | "no-finally" | "acquire-no-release"
                    # | "acquire-no-finally"
    releasers: Tuple[str, ...]


@dataclass(frozen=True)
class GrowthHit:
    """A growth-only container mutation reachable from a loop entry."""

    site: Site
    container: str   # qualified container token
    op: str
    entry: str       # entry-point function key it is reachable from


class QualifiedLocksets(LocksetAnalysis):
    """Lockset analysis whose tokens are project-wide lock identities.

    The base analysis names locks by their source spelling
    (``self._lock``), which is ambiguous across classes; the lock-order
    graph needs one node per *lock object class*, so tokens are
    qualified to ``Class.attr`` via the type oracle, ``module.NAME``
    for globals, and ``fn-key.name`` for locals (two functions' local
    locks are never the same object).
    """

    def __init__(
        self, scanner: FunctionScanner, local_names: FrozenSet[str]
    ) -> None:
        super().__init__(scanner)
        self.local_names = local_names

    def lock_token(self, expr: ast.AST) -> Optional[str]:
        if super().lock_token(expr) is None:
            return None
        return self.qualify(expr)

    def qualify(self, expr: ast.AST) -> Optional[str]:
        scanner = self.scanner
        if isinstance(expr, ast.Attribute):
            receiver = scanner._value_type(expr.value)
            if receiver is not None:
                return f"{receiver}.{expr.attr}"
        elif isinstance(expr, ast.Name):
            if expr.id in self.local_names and scanner.fn is not None:
                return f"{scanner.fn.key}.{expr.id}"
            return f"{scanner.module.name}.{expr.id}"
        dotted = scanner.module.resolve(expr)
        if dotted is not None:
            return f"{scanner.module.name}.{dotted}"
        return None


def _assigned_names(fn_node: ast.AST) -> FrozenSet[str]:
    """Every name bound inside the function (locals, loop/with targets)."""
    names: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return frozenset(names)


class _BlockingRegistry:
    """Matches call expressions against the blocking-call registry.

    Entry formats: ``"time.sleep"`` (dotted name), ``".result"`` (any
    receiver, by method name), ``"Node.observe"`` (receiver class +
    method, resolved through the type oracle).
    """

    def __init__(self, entries: Sequence[str]) -> None:
        self.dotted: Set[str] = set()
        self.methods: Set[str] = set()
        self.typed: Dict[str, Set[str]] = {}
        for entry in entries:
            if entry.startswith("."):
                self.methods.add(entry[1:])
            elif "." in entry and entry.split(".", 1)[0][:1].isupper():
                cls, _, method = entry.partition(".")
                self.typed.setdefault(cls, set()).add(method)
            else:
                self.dotted.add(entry)

    def match(self, scanner: FunctionScanner, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, (ast.Name, ast.Attribute)):
            dotted = scanner.module.resolve(func)
            if dotted is not None and dotted in self.dotted:
                return dotted
        if isinstance(func, ast.Attribute):
            if func.attr in self.methods:
                return f".{func.attr}"
            receiver = scanner._value_type(func.value)
            if receiver is not None and func.attr in self.typed.get(
                receiver, ()
            ):
                return f"{receiver}.{func.attr}"
        return None


@dataclass
class _ResourceSpec:
    creator: str
    releasers: Tuple[str, ...]


def _parse_resources(entries: Sequence[str]) -> List[_ResourceSpec]:
    specs = []
    for entry in entries:
        creator, _, releasers = entry.partition("=")
        if not releasers:
            continue
        specs.append(
            _ResourceSpec(
                creator=creator.strip(),
                releasers=tuple(
                    r.strip() for r in releasers.split(",") if r.strip()
                ),
            )
        )
    return specs


@dataclass
class _FunctionHarvest:
    """Everything one pass over a function body gives the analyses."""

    acquired: Set[str] = dc_field(default_factory=set)
    #: blocking sites not already under a lock in this very function —
    #: the ones worth reporting at a locked *call site* upstream.
    unlocked_blocking: List[Tuple[str, str]] = dc_field(default_factory=list)
    #: (held locks, resolved call targets, site) for calls under a lock.
    locked_calls: List[Tuple[FrozenSet[str], Tuple[str, ...], Site]] = dc_field(
        default_factory=list
    )


class FlowAnalysis:
    """Shared harvest + the five FLOW analyses over one project."""

    def __init__(
        self, project: Project, graph: CallGraph, config: LintConfig
    ) -> None:
        self.project = project
        self.graph = graph
        self.config = config
        self.registry = _BlockingRegistry(config.flow_blocking_calls)
        self.resources = _parse_resources(config.flow_resources)

        #: lock token -> threading type name ("Lock", "RLock", ...)
        self.lock_kinds: Dict[str, str] = {}
        #: (held, acquired) -> sites establishing that order edge
        self.edges: Dict[Tuple[str, str], List[Site]] = {}
        #: reentrant (RLock) self-edges, informational
        self.reentrant: Dict[str, List[Site]] = {}
        self.cycles: List[CycleHit] = []
        self.blocking: List[BlockingHit] = []
        self.escapes: List[EscapeHit] = []
        self.leaks: List[LeakHit] = []
        self.growth: List[GrowthHit] = []

        #: entry-point key -> sorted locks reachable from it
        self.entry_locks: Dict[str, Tuple[str, ...]] = {}
        self.entry_keys: Set[str] = set()

        self._harvests: Dict[str, _FunctionHarvest] = {}
        self._acquired_closure: CallClosure[str, None] = CallClosure(
            own=lambda key: self._harvest_of(key).acquired,
            calls=self._callees,
            bind=lambda item, call, callee: item,
            finish=frozenset,
        )
        #: (blocking call, origin qualname) pairs reachable from a
        #: function that are *not* themselves under a lock at their site.
        self._blocking_closure: CallClosure[Tuple[str, str], None] = (
            CallClosure(
                own=lambda key: self._harvest_of(key).unlocked_blocking,
                calls=self._callees,
                bind=lambda item, call, callee: item,
                finish=frozenset,
            )
        )
        self._self_registering = self._find_self_registering()
        self._thread_targets: Set[str] = set()
        self._bounded_containers: Set[str] = set(
            config.flow_bounded_containers
        )
        self._shrunk_containers: Set[str] = set()
        self._growth_sites: List[Tuple[str, str, Site, str, Set[str]]] = []
        self._module_globals: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def _find_self_registering(self) -> Set[str]:
        """Classes whose constructor calls ``register_shared(self, ...)``."""
        found: Set[str] = set()
        for cls_info in self.project.iter_classes():
            module = self.project.modules[cls_info.module]
            for ctor_name in ("__init__", "__post_init__"):
                ctor = cls_info.methods.get(ctor_name)
                if ctor is None:
                    continue
                for node in ast.walk(ctor.node):
                    if not isinstance(node, ast.Call):
                        continue
                    dotted = module.resolve(node.func)
                    if dotted is None or not dotted.endswith("register_shared"):
                        continue
                    if node.args and (
                        isinstance(node.args[0], ast.Name)
                        and node.args[0].id == "self"
                    ):
                        found.add(cls_info.name)
        return found

    def _harvest_module_level(self, module: ModuleInfo) -> None:
        """Module-level lock kinds and container globals."""
        globals_here = self._module_globals.setdefault(module.name, set())
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = stmt.value
            if isinstance(value, ast.Call):
                dotted = module.resolve(value.func)
                simple = dotted.split(".")[-1] if dotted else None
                if simple in _LOCK_TYPE_NAMES:
                    self.lock_kinds[f"{module.name}.{target.id}"] = simple
                elif simple in _CONTAINER_CTORS:
                    globals_here.add(target.id)
                    if simple == "deque" and any(
                        kw.arg == "maxlen" for kw in value.keywords
                    ):
                        self._bounded_containers.add(
                            f"{module.name}.{target.id}"
                        )
            elif isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                    ast.DictComp, ast.SetComp)):
                globals_here.add(target.id)

    def _harvest_lock_kind(
        self, fn: FunctionInfo, module: ModuleInfo, stmt: ast.Assign
    ) -> None:
        """Record the threading type of ``self.X = threading.Lock()``."""
        if not isinstance(stmt.value, ast.Call):
            return
        dotted = module.resolve(stmt.value.func)
        simple = dotted.split(".")[-1] if dotted else None
        if simple not in _LOCK_TYPE_NAMES:
            # deque(maxlen=...) attribute bound harvest rides along here.
            if simple == "deque" and any(
                kw.arg == "maxlen" for kw in stmt.value.keywords
            ):
                for target in stmt.targets:
                    attr = self_attr(target)
                    if attr is not None and fn.class_name is not None:
                        self._bounded_containers.add(f"{fn.class_name}.{attr}")
            return
        for target in stmt.targets:
            attr = self_attr(target)
            if attr is not None and fn.class_name is not None:
                self.lock_kinds[f"{fn.class_name}.{attr}"] = simple
            elif isinstance(target, ast.Name):
                self.lock_kinds[f"{fn.key}.{target.id}"] = simple

    # ------------------------------------------------------------------
    # Per-function harvest
    # ------------------------------------------------------------------
    def _scan_function(self, fn: FunctionInfo) -> None:
        module = self.project.modules[fn.module]
        scanner = self.graph.scanner(fn, module)
        local_names = _assigned_names(fn.node)
        locks = QualifiedLocksets(scanner, local_names)
        locks.run(fn.node.body)
        harvest = self._harvests.setdefault(fn.key, _FunctionHarvest())

        for arg in (*fn.node.args.posonlyargs, *fn.node.args.args,
                    *fn.node.args.kwonlyargs):
            cls = _annotation_class(arg.annotation)
            if cls in _LOCK_TYPE_NAMES:
                self.lock_kinds.setdefault(f"{fn.key}.{arg.arg}", cls)

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                self._harvest_lock_kind(fn, module, node)
                self._scan_subscript_growth(fn, scanner, local_names, node)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                self._scan_with(fn, locks, harvest, node)
            elif isinstance(node, ast.Call):
                self._scan_call(fn, scanner, locks, local_names, harvest, node)
            elif isinstance(node, ast.Delete):
                self._scan_delete(fn, scanner, local_names, node)

        self._scan_lifecycle(fn, module, scanner, locks)

    def _record_acquisition(
        self,
        fn: FunctionInfo,
        harvest: _FunctionHarvest,
        token: str,
        held: Set[str],
        site: Site,
    ) -> None:
        harvest.acquired.add(token)
        for prior in held:
            self._record_edge(prior, token, site)

    def _record_edge(self, held: str, acquired: str, site: Site) -> None:
        if held == acquired:
            # Only a known non-reentrant Lock self-deadlocks; RLock
            # re-entry is legal and an unknown kind stays silent
            # (Condition/Semaphore re-acquisition is not provably fatal).
            if self.lock_kinds.get(held) == "Lock":
                self.edges.setdefault((held, acquired), []).append(site)
            else:
                self.reentrant.setdefault(held, []).append(site)
            return
        self.edges.setdefault((held, acquired), []).append(site)

    def _scan_with(
        self,
        fn: FunctionInfo,
        locks: QualifiedLocksets,
        harvest: _FunctionHarvest,
        node: ast.AST,
    ) -> None:
        held = set(locks.held_at(node))
        for item in node.items:  # type: ignore[attr-defined]
            token = locks.lock_token(item.context_expr)
            if token is None:
                continue
            site = site_of(fn, item.context_expr)
            self._record_acquisition(fn, harvest, token, held, site)
            held.add(token)

    def _scan_call(
        self,
        fn: FunctionInfo,
        scanner: FunctionScanner,
        locks: QualifiedLocksets,
        local_names: FrozenSet[str],
        harvest: _FunctionHarvest,
        node: ast.Call,
    ) -> None:
        held = locks.held_at(node)
        site = site_of(fn, node)
        func = node.func

        # Explicit acquire() outside a with-block: an order-graph edge.
        if isinstance(func, ast.Attribute) and func.attr == "acquire":
            token = locks.lock_token(func.value)
            if token is not None:
                self._record_acquisition(
                    fn, harvest, token, set(held), site
                )

        # Blocking-call matching (direct).
        matched = self.registry.match(scanner, node)
        if matched is not None:
            if held:
                self.blocking.append(
                    BlockingHit(
                        site=site, call=matched, locks=tuple(sorted(held))
                    )
                )
            else:
                qualname = fn.qualname
                harvest.unlocked_blocking.append((matched, qualname))

        # Calls made while holding a lock: interprocedural edges later.
        if held:
            targets = tuple(scanner._resolve_call_targets(node))
            if targets:
                harvest.locked_calls.append(
                    (frozenset(held), targets, site)
                )

        # Pool dispatch / thread construction: escapes + entry points.
        self._scan_escape(fn, scanner, node)

        # Container growth/shrink through method calls.
        self._scan_method_growth(fn, scanner, local_names, node, site)

    # ------------------------------------------------------------------
    # RPL803: thread escape
    # ------------------------------------------------------------------
    def _scan_escape(
        self, fn: FunctionInfo, scanner: FunctionScanner, node: ast.Call
    ) -> None:
        func = node.func
        escaping: List[ast.AST] = []
        callable_ref: Optional[ast.AST] = None
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _POOL_DISPATCH
            and node.args
        ):
            callable_ref = node.args[0]
            escaping.extend(node.args[1:])
            escaping.extend(
                kw.value for kw in node.keywords if kw.arg is not None
            )
        elif self._is_thread_ctor(scanner, node):
            for kw in node.keywords:
                if kw.arg == "target":
                    callable_ref = kw.value
                    resolved = scanner._resolve_callable_ref(kw.value)
                    if resolved is not None:
                        self._thread_targets.add(resolved)
                elif kw.arg == "args" and isinstance(
                    kw.value, (ast.Tuple, ast.List)
                ):
                    escaping.extend(kw.value.elts)
        else:
            return

        if isinstance(callable_ref, ast.Attribute):
            # Bound method: the receiver rides into the worker thread.
            escaping.append(callable_ref.value)
        escaping.extend(
            self._closure_captures(fn, scanner, callable_ref)
        )

        for expr in escaping:
            self._check_escape(fn, scanner, expr)

    def _is_thread_ctor(
        self, scanner: FunctionScanner, node: ast.Call
    ) -> bool:
        if not isinstance(node.func, (ast.Name, ast.Attribute)):
            return False
        dotted = scanner.module.resolve(node.func)
        return dotted in ("threading.Thread", "Thread")

    def _closure_captures(
        self,
        fn: FunctionInfo,
        scanner: FunctionScanner,
        callable_ref: Optional[ast.AST],
    ) -> List[ast.AST]:
        """Free variables of a lambda / nested-def submit target."""
        target: Optional[ast.AST] = None
        if isinstance(callable_ref, ast.Lambda):
            target = callable_ref.body
            bound = {
                a.arg
                for a in (
                    *callable_ref.args.posonlyargs,
                    *callable_ref.args.args,
                    *callable_ref.args.kwonlyargs,
                )
            }
        elif isinstance(callable_ref, ast.Name):
            nested = self._nested_def(fn, callable_ref.id)
            if nested is None:
                return []
            target = nested
            bound = _assigned_names(nested)  # params + locals of the def
        else:
            return []
        captures: List[ast.AST] = []
        seen: Set[str] = set()
        for node in ast.walk(target):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id not in bound
                and node.id not in seen
            ):
                seen.add(node.id)
                captures.append(node)
        return captures

    def _nested_def(
        self, fn: FunctionInfo, name: str
    ) -> Optional[ast.AST]:
        for node in ast.walk(fn.node):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not fn.node
                and node.name == name
            ):
                return node
        return None

    def _check_escape(
        self, fn: FunctionInfo, scanner: FunctionScanner, expr: ast.AST
    ) -> None:
        cls = scanner._value_type(expr)
        if cls is None or cls not in self.project.classes_by_name:
            return  # unknown or non-project type: conservative silence
        if cls in self.config.guarded_classes:
            return
        if cls in self.config.shared_types:
            return
        if cls in self.config.flow_shared_ok:
            return
        if cls in self._self_registering:
            return
        if any(
            info.frozen for info in self.project.classes_by_name.get(cls, ())
        ):
            return
        desc = scanner.module.resolve(expr) or cls
        self.escapes.append(
            EscapeHit(site=site_of(fn, expr), value=desc, cls=cls)
        )

    # ------------------------------------------------------------------
    # RPL805: container growth
    # ------------------------------------------------------------------
    def _container_token(
        self,
        fn: FunctionInfo,
        scanner: FunctionScanner,
        local_names: FrozenSet[str],
        expr: ast.AST,
    ) -> Optional[str]:
        """Qualified token of a long-lived container expression."""
        if isinstance(expr, ast.Attribute):
            owner = scanner._value_type(expr.value)
            if owner is None:
                return None
            if owner not in self.config.flow_longlived:
                return None
            return f"{owner}.{expr.attr}"
        if isinstance(expr, ast.Name):
            if expr.id in local_names:
                return None
            if expr.id in self._module_globals.get(fn.module, ()):
                return f"{fn.module}.{expr.id}"
        return None

    def _scan_method_growth(
        self,
        fn: FunctionInfo,
        scanner: FunctionScanner,
        local_names: FrozenSet[str],
        node: ast.Call,
        site: Site,
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _GROW_METHODS and func.attr not in _SHRINK_METHODS:
            return
        token = self._container_token(fn, scanner, local_names, func.value)
        if token is None:
            return
        if func.attr in _SHRINK_METHODS:
            self._shrunk_containers.add(token)
            return
        self._record_growth(fn, scanner, local_names, token, func.attr, site)

    def _scan_subscript_growth(
        self,
        fn: FunctionInfo,
        scanner: FunctionScanner,
        local_names: FrozenSet[str],
        stmt: ast.Assign,
    ) -> None:
        for target in stmt.targets:
            if not isinstance(target, ast.Subscript):
                continue
            token = self._container_token(
                fn, scanner, local_names, target.value
            )
            if token is None:
                continue
            self._record_growth(
                fn,
                scanner,
                local_names,
                token,
                "[]=",
                site_of(fn, target),
            )

    def _scan_delete(
        self,
        fn: FunctionInfo,
        scanner: FunctionScanner,
        local_names: FrozenSet[str],
        node: ast.Delete,
    ) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                token = self._container_token(
                    fn, scanner, local_names, target.value
                )
                if token is not None:
                    self._shrunk_containers.add(token)

    def _record_growth(
        self,
        fn: FunctionInfo,
        scanner: FunctionScanner,
        local_names: FrozenSet[str],
        token: str,
        op: str,
        site: Site,
    ) -> None:
        guards = self._len_guard_tokens(fn, scanner, local_names)
        self._growth_sites.append((token, fn.key, site, op, guards))

    def _len_guard_tokens(
        self,
        fn: FunctionInfo,
        scanner: FunctionScanner,
        local_names: FrozenSet[str],
    ) -> Set[str]:
        """Container tokens whose ``len()`` is inspected in this function."""
        guards: Set[str] = set()
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "len"
                and node.args
            ):
                token = self._container_token(
                    fn, scanner, local_names, node.args[0]
                )
                if token is not None:
                    guards.add(token)
        return guards

    # ------------------------------------------------------------------
    # RPL804: lifecycle discipline
    # ------------------------------------------------------------------
    def _strict_module(self, module: ModuleInfo) -> bool:
        display = str(module.display_path).replace("\\", "/")
        return any(
            fragment in display for fragment in self.config.flow_strict_modules
        )

    def _creator_spec(
        self, scanner: FunctionScanner, node: ast.Call
    ) -> Optional[_ResourceSpec]:
        if not isinstance(node.func, (ast.Name, ast.Attribute)):
            return None
        dotted = scanner.module.resolve(node.func)
        if dotted is None:
            return None
        simple = dotted.split(".")[-1]
        for spec in self.resources:
            if dotted == spec.creator or simple == spec.creator:
                return spec
        return None

    def _scan_lifecycle(
        self,
        fn: FunctionInfo,
        module: ModuleInfo,
        scanner: FunctionScanner,
        locks: QualifiedLocksets,
    ) -> None:
        if not self._strict_module(module):
            return
        with_contexts = set()
        finally_nodes: Set[int] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_contexts.add(id(item.context_expr))
            elif isinstance(node, ast.Try):
                for stmt in node.finalbody:
                    for sub in ast.walk(stmt):
                        finally_nodes.add(id(sub))

        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                if (
                    isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and id(node.value) not in with_contexts
                ):
                    spec = self._creator_spec(scanner, node.value)
                    if spec is not None:
                        self.leaks.append(
                            LeakHit(
                                site=site_of(fn, node),
                                resource=spec.creator,
                                creator=spec.creator,
                                kind="never-released",
                                releasers=spec.releasers,
                            )
                        )
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue  # attribute-held resources are owned by the object
            if not isinstance(node.value, ast.Call):
                continue
            if id(node.value) in with_contexts:
                continue
            spec = self._creator_spec(scanner, node.value)
            if spec is None:
                continue
            self._check_local_resource(
                fn, spec, target.id, node, finally_nodes
            )

        self._check_bare_acquires(fn, module, locks, finally_nodes)

    def _check_local_resource(
        self,
        fn: FunctionInfo,
        spec: _ResourceSpec,
        var: str,
        creation: ast.Assign,
        finally_nodes: Set[int],
    ) -> None:
        used_as_context = False
        transferred = False
        releases: List[ast.Call] = []
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    ctx = item.context_expr
                    if isinstance(ctx, ast.Name) and ctx.id == var:
                        used_as_context = True
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(node, "value", None)
                if value is not None and self._mentions(value, var):
                    transferred = True
            elif isinstance(node, ast.Assign) and node is not creation:
                if self._mentions(node.value, var) and any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets
                ):
                    transferred = True
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == var
                ):
                    if func.attr in spec.releasers:
                        releases.append(node)
                    continue
                for arg in (*node.args, *(kw.value for kw in node.keywords)):
                    if self._mentions(arg, var):
                        transferred = True
        if used_as_context or transferred:
            return
        site = site_of(fn, creation)
        if not releases:
            self.leaks.append(
                LeakHit(
                    site=site,
                    resource=var,
                    creator=spec.creator,
                    kind="never-released",
                    releasers=spec.releasers,
                )
            )
        elif not any(id(call) in finally_nodes for call in releases):
            self.leaks.append(
                LeakHit(
                    site=site,
                    resource=var,
                    creator=spec.creator,
                    kind="no-finally",
                    releasers=spec.releasers,
                )
            )

    @staticmethod
    def _mentions(node: ast.AST, var: str) -> bool:
        return any(
            isinstance(sub, ast.Name) and sub.id == var
            for sub in ast.walk(node)
        )

    def _check_bare_acquires(
        self,
        fn: FunctionInfo,
        module: ModuleInfo,
        locks: QualifiedLocksets,
        finally_nodes: Set[int],
    ) -> None:
        if fn.simple_name in _LOCK_WRAPPER_METHODS:
            return  # lock-wrapper implementations are the discipline
        acquires: List[Tuple[str, ast.Call]] = []
        releases: Dict[str, List[ast.Call]] = {}
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("acquire", "release"):
                continue
            token = locks.lock_token(func.value)
            if token is None:
                continue
            if func.attr == "acquire":
                acquires.append((token, node))
            else:
                releases.setdefault(token, []).append(node)
        for token, call in acquires:
            matching = releases.get(token, [])
            if not matching:
                self.leaks.append(
                    LeakHit(
                        site=site_of(fn, call),
                        resource=token,
                        creator="acquire",
                        kind="acquire-no-release",
                        releasers=("release",),
                    )
                )
            elif not any(id(rel) in finally_nodes for rel in matching):
                self.leaks.append(
                    LeakHit(
                        site=site_of(fn, call),
                        resource=token,
                        creator="acquire",
                        kind="acquire-no-finally",
                        releasers=("release",),
                    )
                )

    # ------------------------------------------------------------------
    # Interprocedural closures
    # ------------------------------------------------------------------
    def _harvest_of(self, key: str) -> _FunctionHarvest:
        return self._harvests.get(key) or _FunctionHarvest()

    def _callees(self, key: str) -> List[Tuple[None, str]]:
        return [(None, callee) for callee in self.graph.edges.get(key, ())]

    def _interprocedural_pass(self) -> None:
        for key, harvest in sorted(self._harvests.items()):
            for held, targets, site in harvest.locked_calls:
                acquired: Set[str] = set()
                blocked: Set[Tuple[str, str]] = set()
                for target in targets:
                    acquired |= self._acquired_closure(target)
                    blocked |= self._blocking_closure(target)
                for token in sorted(acquired):
                    for prior in sorted(held):
                        self._record_edge(prior, token, site)
                for call, origin in sorted(blocked):
                    self.blocking.append(
                        BlockingHit(
                            site=site,
                            call=call,
                            locks=tuple(sorted(held)),
                            via=origin,
                        )
                    )

    # ------------------------------------------------------------------
    # Cycle detection
    # ------------------------------------------------------------------
    def _find_cycles(self) -> None:
        adjacency: Dict[str, Set[str]] = {}
        for (held, acquired), _sites in self.edges.items():
            if held == acquired:
                continue
            adjacency.setdefault(held, set()).add(acquired)
            adjacency.setdefault(acquired, set())
        for component in strongly_connected(adjacency):
            if len(component) < 2:
                continue
            tokens = tuple(sorted(component))
            site = self._component_site(tokens)
            detail = " -> ".join(tokens + (tokens[0],))
            self.cycles.append(
                CycleHit(tokens=tokens, site=site, detail=detail)
            )
        # Non-reentrant self-edges are their own (1-)cycles.
        for (held, acquired), sites in sorted(self.edges.items()):
            if held != acquired:
                continue
            self.cycles.append(
                CycleHit(
                    tokens=(held,),
                    site=sites[0],
                    detail=(
                        f"{held} re-acquired while held "
                        f"(kind: {self.lock_kinds.get(held, 'unknown')})"
                    ),
                )
            )
        self.cycles.sort(key=lambda c: (c.site.module, c.site.line, c.tokens))

    def _component_site(self, tokens: Tuple[str, ...]) -> Site:
        token_set = set(tokens)
        for (held, acquired), sites in sorted(self.edges.items()):
            if held in token_set and acquired in token_set:
                return sites[0]
        return Site(module="", line=1, col=0, fn_key="")

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def _compute_entries(self) -> None:
        entries = set(pool_entry_keys(self.project, self.graph, self.config))
        entries |= self._thread_targets
        for dotted in self.config.flow_entrypoints:
            key = self.project.resolve_dotted(dotted)
            if key is not None:
                entries.add(key)
        self.entry_keys = entries
        for key in sorted(entries):
            reach = self.graph.reachable_from({key})
            tokens: Set[str] = set()
            for fn_key in reach:
                harvest = self._harvests.get(fn_key)
                if harvest is not None:
                    tokens |= harvest.acquired
            self.entry_locks[key] = tuple(sorted(tokens))

    def _growth_findings(self) -> None:
        reach = self.graph.reachable_from(self.entry_keys)
        seen: Set[Tuple[str, int]] = set()
        for token, fn_key, site, op, guards in self._growth_sites:
            if token in self._bounded_containers:
                continue
            if token in self._shrunk_containers:
                continue
            if token in guards:
                continue
            if fn_key not in reach:
                continue
            dedupe = (token, site.line)
            if dedupe in seen:
                continue
            seen.add(dedupe)
            self.growth.append(
                GrowthHit(
                    site=site,
                    container=token,
                    op=op,
                    entry=reach[fn_key][0],
                )
            )
        self.growth.sort(key=lambda g: (g.site.module, g.site.line))

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self) -> "FlowAnalysis":
        for module in self.project.modules.values():
            self._harvest_module_level(module)
        # Lock kinds must be known before edges classify self-edges, so
        # harvest constructor assignments in a first cheap pass.
        for fn in self.project.iter_functions():
            module = self.project.modules[fn.module]
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign):
                    self._harvest_lock_kind(fn, module, node)
        for fn in self.project.iter_functions():
            self._scan_function(fn)
        self._interprocedural_pass()
        self._find_cycles()
        self._compute_entries()
        self._growth_findings()
        self.blocking.sort(
            key=lambda b: (b.site.module, b.site.line, b.call, b.via)
        )
        self.escapes.sort(key=lambda e: (e.site.module, e.site.line, e.value))
        self.leaks.sort(key=lambda l: (l.site.module, l.site.line, l.resource))
        return self


# ----------------------------------------------------------------------
# Shared entry point and the ``repro-lint --report flow`` renderers
# ----------------------------------------------------------------------
def flow_analysis(project: Project, config: LintConfig) -> FlowAnalysis:
    """Run (or reuse) the FLOW analysis for one project + config."""
    return shared_analysis("flow", FlowAnalysis, project, config)


def render_text(analysis: FlowAnalysis) -> str:
    lines: List[str] = []
    lines.append("lock-order graph")
    lines.append("================")
    all_tokens = sorted(
        {t for edge in analysis.edges for t in edge}
        | set(analysis.reentrant)
        | {t for locks in analysis.entry_locks.values() for t in locks}
    )
    if not all_tokens:
        lines.append("  (no locks found)")
    for token in all_tokens:
        kind = analysis.lock_kinds.get(token, "unknown")
        lines.append(f"  lock {token}  [{kind}]")
    if analysis.edges:
        lines.append("")
        lines.append("order edges (held -> acquired)")
        for (held, acquired), sites in sorted(analysis.edges.items()):
            site = sites[0]
            lines.append(
                f"  {held} -> {acquired}  "
                f"({site.module}:{site.line} in {site.fn_key.split(':')[-1]})"
            )
    if analysis.reentrant:
        lines.append("")
        lines.append("reentrant self-edges (RLock, legal)")
        for token, sites in sorted(analysis.reentrant.items()):
            lines.append(f"  {token}  ({len(sites)} site(s))")
    lines.append("")
    lines.append("entry-point lock coverage")
    if not analysis.entry_locks:
        lines.append("  (no thread-pool entry points discovered)")
    for key, locks in sorted(analysis.entry_locks.items()):
        label = fn_label(analysis.project, key)
        shown = ", ".join(locks) if locks else "(none)"
        lines.append(f"  {label}: {shown}")
    lines.append("")
    if analysis.cycles:
        lines.append(f"CYCLES: {len(analysis.cycles)}")
        for cycle in analysis.cycles:
            lines.append(
                f"  {cycle.detail}  "
                f"(first edge at {cycle.site.module}:{cycle.site.line})"
            )
    else:
        lines.append("cycles: none")
    lines.append("")
    lines.append("thread-escape report")
    lines.append("====================")
    if not analysis.escapes:
        lines.append("  (no unregistered values escape into worker threads)")
    for escape in analysis.escapes:
        lines.append(
            f"  {escape.site.module}:{escape.site.line}  "
            f"{escape.value!r} ({escape.cls})"
        )
    if analysis.blocking:
        lines.append("")
        lines.append("blocking under lock")
        for hit in analysis.blocking:
            via = f" via {hit.via}" if hit.via else ""
            lines.append(
                f"  {hit.site.module}:{hit.site.line}  {hit.call}{via}  "
                f"holding {', '.join(hit.locks)}"
            )
    return "\n".join(lines)


def render_json(analysis: FlowAnalysis) -> str:
    payload = {
        "locks": {
            token: analysis.lock_kinds.get(token, "unknown")
            for token in sorted(
                {t for edge in analysis.edges for t in edge}
                | set(analysis.reentrant)
            )
        },
        "edges": [
            {
                "held": held,
                "acquired": acquired,
                "module": sites[0].module,
                "line": sites[0].line,
                "function": sites[0].fn_key,
            }
            for (held, acquired), sites in sorted(analysis.edges.items())
        ],
        "reentrant": sorted(analysis.reentrant),
        "cycles": [
            {"tokens": list(c.tokens), "detail": c.detail}
            for c in analysis.cycles
        ],
        "entry_locks": {
            fn_label(analysis.project, key): list(locks)
            for key, locks in sorted(analysis.entry_locks.items())
        },
        "escapes": [
            {
                "module": e.site.module,
                "line": e.site.line,
                "value": e.value,
                "class": e.cls,
            }
            for e in analysis.escapes
        ],
        "blocking": [
            {
                "module": b.site.module,
                "line": b.site.line,
                "call": b.call,
                "locks": list(b.locks),
                "via": b.via,
            }
            for b in analysis.blocking
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
