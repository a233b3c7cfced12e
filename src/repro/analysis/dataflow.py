"""Interprocedural dataflow: provenance taint + per-path locksets.

The per-file RPL1xx/RPL2xx rules pattern-match single call sites; they
cannot prove that the generator reaching ``AcquisitionOptimizer.propose``
was derived from the engine's seed, or that a write reached from
``Executor.submit`` holds a lock.  This module closes that gap with
three whole-program analyses over the parsed :class:`~.project.Project`
and the :class:`~.callgraph.CallGraph`:

* **Module-level symbol resolution** — top-level assignments are
  evaluated so taint flows through package globals and
  ``from mod import NAME`` re-exports;
* **Forward taint propagation** — a small abstract interpreter runs
  every function body to a fixpoint, tracking the *provenance* of
  values (where RNGs and clocks came from) through locals (including
  re-assignment), constant-keyed dict payloads, dataclass/instance
  fields, constructor keyword arguments, and function return values.
  Sink checks fire where a value of known-bad provenance flows into a
  parameter whose annotation marks it as an RNG (RPL601) or clock
  (RPL602) sink;
* **Lockset analysis** — per-statement sets of locks *definitely* held
  (the intersection over all paths, tracking ``with lock:`` blocks and
  explicit ``acquire``/``release`` calls through branches), powering
  RPL603 and making RPL201 lock-aware.

Everything here is syntactic and conservative: unknown provenance is
never reported, so the analyses only flag flows they can actually
trace.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionScanner, shared_analysis
from .config import LintConfig
from .interp import FrameInterpreter, SummaryAnalysis
from .project import FunctionInfo, ModuleInfo, Project, is_self

# ----------------------------------------------------------------------
# Taint domain
# ----------------------------------------------------------------------
#: Provenance domains and kinds.
RNG = "rng"
CLOCK = "clock"
FRESH = "fresh"      # rng drawing OS entropy (not derived from a seed)
SEEDED = "seeded"    # rng derived from an explicit seed / resolve_rng / spawn
CLOCK_OK = "clock"       # an instance of a sanctioned Clock class
CLOCK_BAD = "nonclock"   # a project instance that is not a Clock


@dataclass(frozen=True)
class Taint:
    """One provenance fact about a value."""

    domain: str   # RNG or CLOCK
    kind: str     # FRESH/SEEDED or CLOCK_OK/CLOCK_BAD
    origin: str   # human-readable description of where the value came from
    line: int = 0


TaintSet = FrozenSet[Taint]
EMPTY: TaintSet = frozenset()

#: numpy.random bit generators; unseeded construction draws OS entropy.
_BIT_GENERATORS = {"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}

#: Parameter annotations marking an RNG sink (must receive seed-derived
#: values).  ``RNGLike`` is the package's Generator-or-seed union.
RNG_SINK_ANNOTATIONS = {"Generator", "RNGLike"}

#: Parameter annotations marking a clock sink.
CLOCK_SINK_ANNOTATIONS = {"Clock"}

#: Simple call names whose result is sanctioned seed-derived randomness.
_BLESSED_RNG_CALLS = {"resolve_rng"}

#: threading types treated as locks by the lockset analysis.
_LOCK_TYPE_NAMES = {
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
}


def _has(taints: TaintSet, domain: str, kind: str) -> Optional[Taint]:
    for taint in taints:
        if taint.domain == domain and taint.kind == kind:
            return taint
    return None


@dataclass(frozen=True)
class SinkHit:
    """One tainted value reaching a provenance-checked parameter."""

    domain: str          # RNG or CLOCK
    module: str          # module containing the call site
    line: int
    col: int
    callee: str          # qualname of the called function
    param: str           # parameter the tainted value binds to
    taint: Taint


# ----------------------------------------------------------------------
# Lockset analysis
# ----------------------------------------------------------------------
class LocksetAnalysis:
    """Per-statement locks *definitely* held, for one function body.

    ``with lock:`` blocks add to the set for their body;
    ``lock.acquire()``/``lock.release()`` statements add/remove along
    the current path; branches join by intersection, so a lock held on
    only one arm of an ``if`` does not count below the join — exactly
    the "held on all paths" obligation RPL603 checks.
    """

    def __init__(self, scanner: FunctionScanner) -> None:
        self.scanner = scanner
        self._held_at: Dict[int, FrozenSet[str]] = {}

    def lock_token(self, expr: ast.AST) -> Optional[str]:
        """Dotted name of a lock-like expression, else ``None``."""
        dotted = self.scanner.module.resolve(expr)
        if dotted is None:
            return None
        last = dotted.split(".")[-1].lower()
        if "lock" in last or "mutex" in last:
            return dotted
        if isinstance(expr, ast.Attribute):
            receiver = self.scanner._value_type(expr.value)
            if receiver is not None:
                attr_cls = self.scanner.graph.attr_type(receiver, expr.attr)
                if attr_cls in _LOCK_TYPE_NAMES:
                    return dotted
        if isinstance(expr, ast.Name):
            if self.scanner.local_types.get(expr.id) in _LOCK_TYPE_NAMES:
                return dotted
        return None

    def held_at(self, node: ast.AST) -> FrozenSet[str]:
        """Locks definitely held when ``node`` executes."""
        return self._held_at.get(id(node), frozenset())

    def run(self, body: List[ast.stmt]) -> None:
        self._walk(body, frozenset())

    def _mark(self, node: ast.AST, held: FrozenSet[str]) -> None:
        for sub in ast.walk(node):
            self._held_at[id(sub)] = held

    def _acquire_release(
        self, stmt: ast.stmt, held: FrozenSet[str]
    ) -> FrozenSet[str]:
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
            return held
        func = stmt.value.func
        if not isinstance(func, ast.Attribute):
            return held
        if func.attr not in ("acquire", "release"):
            return held
        token = self.lock_token(func.value)
        if token is None:
            return held
        if func.attr == "acquire":
            return held | {token}
        return held - {token}

    def _walk(
        self, stmts: Iterable[ast.stmt], held: FrozenSet[str]
    ) -> FrozenSet[str]:
        for stmt in stmts:
            self._mark(stmt, held)
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                tokens = {
                    token
                    for item in stmt.items
                    if (token := self.lock_token(item.context_expr)) is not None
                }
                self._walk(stmt.body, held | tokens)
            elif isinstance(stmt, ast.If):
                after_body = self._walk(stmt.body, held)
                after_else = self._walk(stmt.orelse, held)
                held = after_body & after_else
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                after_body = self._walk(stmt.body, held)
                self._walk(stmt.orelse, held)
                held = held & after_body  # body may run zero times
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body, held)
                for handler in stmt.handlers:
                    self._walk(handler.body, held)
                self._walk(stmt.orelse, held)
                held = self._walk(stmt.finalbody, held)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested def's body runs whenever it is *called*; no
                # lock from the enclosing scope is guaranteed then.
                self._walk(stmt.body, frozenset())
            else:
                held = self._acquire_release(stmt, held)
        return held


def compute_locksets(
    graph: CallGraph, fn: FunctionInfo
) -> LocksetAnalysis:
    """Lockset analysis of one function, pre-typed by the call graph."""
    analysis = LocksetAnalysis(graph.scanner(fn, graph.project.modules[fn.module]))
    analysis.run(fn.node.body)
    return analysis


# ----------------------------------------------------------------------
# Taint propagation
# ----------------------------------------------------------------------
class _FunctionFlow(FrameInterpreter[TaintSet]):
    """Abstract interpreter for one function (or module) body."""

    analysis: "DataflowAnalysis"

    def __init__(
        self,
        analysis: "DataflowAnalysis",
        fn: Optional[FunctionInfo],
        module: ModuleInfo,
        report: bool,
    ) -> None:
        super().__init__(analysis, fn, module, report)
        self.dict_env: Dict[str, Dict[str, TaintSet]] = {}

    # -- expression evaluation ------------------------------------------
    def eval(self, node: Optional[ast.AST]) -> TaintSet:
        if node is None:
            return EMPTY
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return self._global(node.id) or EMPTY
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int,)) and not isinstance(
                node.value, bool
            ):
                return frozenset(
                    {Taint(RNG, SEEDED, "integer seed literal", node.lineno)}
                )
            return EMPTY
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.IfExp):
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, ast.BoolOp):
            out: TaintSet = EMPTY
            for value in node.values:
                out |= self.eval(value)
            return out
        if isinstance(node, (ast.Tuple, ast.List)):
            out = EMPTY
            for element in node.elts:
                out |= self.eval(element)
            return out
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            taints = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = taints
            return taints
        return EMPTY

    def _eval_attribute(self, node: ast.Attribute) -> TaintSet:
        # Instance/dataclass field read: holder.rng, self._rng, ...
        receiver = self.scanner._value_type(node.value)
        if receiver is not None:
            found = self.analysis.lookup_field(receiver, node.attr)
            if found:
                return found
        if (
            is_self(node.value)
            and self.fn is not None
            and self.fn.class_name is not None
        ):
            found = self.analysis.lookup_field(self.fn.class_name, node.attr)
            return found or EMPTY
        # Module-global read through an import alias (mod.GLOBAL).
        dotted = self.module.resolve(node)
        if dotted is not None:
            return self.analysis.lookup_global(self.module.name, dotted) or EMPTY
        return EMPTY

    def _eval_subscript(self, node: ast.Subscript) -> TaintSet:
        # Constant-key read out of a tracked dict payload.
        if isinstance(node.value, ast.Name) and isinstance(
            node.slice, ast.Constant
        ):
            payload = self.dict_env.get(node.value.id)
            if payload is not None:
                return payload.get(str(node.slice.value), EMPTY)
        return EMPTY

    def _eval_call(self, node: ast.Call) -> TaintSet:
        func = node.func
        dotted = self.module.resolve(func)
        taints = self._rng_source(node, func, dotted)
        if taints is None:
            taints = self._project_call(node, func, dotted)
        # Evaluate arguments regardless, for sink checks + ctor fields.
        self._check_call_args(node)
        return taints if taints is not None else EMPTY

    def _rng_source(
        self,
        node: ast.Call,
        func: ast.AST,
        dotted: Optional[str],
    ) -> Optional[TaintSet]:
        """Taint of numpy.random / resolve_rng / spawn constructions."""
        simple = dotted.split(".")[-1] if dotted else None
        has_args = bool(node.args or node.keywords)
        line = node.lineno

        def rng(kind: str, origin: str) -> TaintSet:
            return frozenset({Taint(RNG, kind, origin, line)})

        if simple == "default_rng":
            if has_args:
                return rng(SEEDED, "np.random.default_rng(seed)")
            return rng(FRESH, "np.random.default_rng() with no seed")
        if simple in _BIT_GENERATORS:
            if has_args:
                return rng(SEEDED, f"np.random.{simple}(seed)")
            return rng(
                FRESH, f"np.random.{simple}() drawing fresh OS entropy"
            )
        if simple == "SeedSequence":
            if has_args:
                return rng(SEEDED, "np.random.SeedSequence(entropy)")
            return rng(FRESH, "np.random.SeedSequence() with no entropy")
        if simple == "Generator" and dotted and (
            dotted.startswith("numpy.random") or dotted == "Generator"
        ):
            if not node.args:
                return rng(FRESH, "np.random.Generator() with no bit generator")
            inner = self.eval(node.args[0])
            fresh = _has(inner, RNG, FRESH)
            if fresh is not None:
                return rng(FRESH, f"np.random.Generator over {fresh.origin}")
            if _has(inner, RNG, SEEDED) is not None:
                return rng(SEEDED, "np.random.Generator over a seeded source")
            return None
        if simple in _BLESSED_RNG_CALLS:
            return rng(SEEDED, f"{simple}(...)")
        if isinstance(func, ast.Attribute) and func.attr == "spawn":
            # Generator.spawn / SeedSequence.spawn derive children from
            # the parent; the parent's provenance is checked where it
            # was created.
            return rng(SEEDED, "spawned from a parent generator")
        return None

    def _project_call(
        self,
        node: ast.Call,
        func: ast.AST,
        dotted: Optional[str],
    ) -> Optional[TaintSet]:
        """Return-taint of a project function, class-aware for clocks."""
        project = self.analysis.project
        # Constructor of a project class: clock classification + field
        # taint recording for the constructed instance's class.
        cls_name = None
        if dotted is not None:
            simple = dotted.split(".")[-1]
            if simple in project.classes_by_name and simple[:1].isupper():
                cls_name = simple
        if cls_name is not None:
            self._record_ctor_fields(cls_name, node)
            kind = (
                CLOCK_OK
                if self.analysis.is_clock_class(cls_name)
                else CLOCK_BAD
            )
            return frozenset(
                {
                    Taint(
                        CLOCK,
                        kind,
                        f"instance of {cls_name}",
                        node.lineno,
                    )
                }
            )
        targets = self.scanner._resolve_call_targets(node)
        if targets:
            out: TaintSet = EMPTY
            for key in targets:
                out |= self.analysis.returns.get(key, EMPTY)
            return out
        return None

    def _record_ctor_fields(self, cls_name: str, node: ast.Call) -> None:
        """Taint dataclass/instance fields set via constructor args."""
        params = self.analysis.constructor_params(cls_name)
        for i, arg in enumerate(node.args):
            taints = self.eval(arg)
            if taints and i < len(params):
                self.analysis.merge_field(cls_name, params[i], taints)
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            taints = self.eval(keyword.value)
            if taints:
                self.analysis.merge_field(cls_name, keyword.arg, taints)

    # -- sink checks -----------------------------------------------------
    def _check_call_args(self, node: ast.Call) -> None:
        param_types = self.analysis.graph.param_types
        for callee, param, expr in self._call_bindings(node):
            annotation = param_types.get(callee.key, {}).get(param)
            if annotation is None:
                continue
            taints = self.eval(expr)
            if not taints:
                continue
            hit: Optional[Taint] = None
            domain = None
            if annotation in RNG_SINK_ANNOTATIONS:
                hit = _has(taints, RNG, FRESH)
                domain = RNG
            elif annotation in CLOCK_SINK_ANNOTATIONS:
                hit = _has(taints, CLOCK, CLOCK_BAD)
                domain = CLOCK
            if hit is not None and domain is not None and self.report:
                self.analysis.sink_hits.add(
                    SinkHit(
                        domain=domain,
                        module=self.module.name,
                        line=getattr(expr, "lineno", node.lineno),
                        col=getattr(expr, "col_offset", node.col_offset),
                        callee=callee.qualname,
                        param=param,
                        taint=hit,
                    )
                )

    # -- transfer functions ----------------------------------------------
    def visit_assign(self, stmt: ast.Assign) -> None:
        self._assign(stmt.targets, stmt.value)

    def visit_ann_assign(self, stmt: ast.AnnAssign) -> None:
        if stmt.value is not None:
            self._assign([stmt.target], stmt.value)

    def visit_aug_assign(self, stmt: ast.AugAssign) -> None:
        taints = self.eval(stmt.value)
        if isinstance(stmt.target, ast.Name) and taints:
            self.env[stmt.target.id] = (
                self.env.get(stmt.target.id, EMPTY) | taints
            )

    def visit_return(self, stmt: ast.Return) -> None:
        taints = self.eval(stmt.value)
        if self.fn is not None and taints:
            self.analysis.merge_return(self.fn.key, taints)

    def bind_name(self, name: str, value: TaintSet) -> None:
        if value:
            self.env[name] = value

    def _assign(self, targets: List[ast.AST], value: ast.AST) -> None:
        # Tracked dict payload: d = {"rng": expr, ...}
        if (
            len(targets) == 1
            and isinstance(targets[0], ast.Name)
            and isinstance(value, ast.Dict)
            and all(
                isinstance(k, ast.Constant) for k in value.keys if k is not None
            )
        ):
            payload: Dict[str, TaintSet] = {}
            for key_node, value_node in zip(value.keys, value.values):
                if key_node is None:
                    continue
                payload[str(key_node.value)] = self.eval(value_node)
            self.dict_env[targets[0].id] = payload
            self.env[targets[0].id] = EMPTY
            return
        taints = self.eval(value)
        for target in targets:
            self._assign_target(target, value, taints)

    def _assign_target(
        self, target: ast.AST, value: ast.AST, taints: TaintSet
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taints  # strong update (re-assignment)
            self.dict_env.pop(target.id, None)
            if self.fn is None and taints:
                self.analysis.merge_global(self.module.name, target.id, taints)
        elif isinstance(target, ast.Attribute):
            receiver = self._store_receiver(target)
            if receiver is not None and taints:
                self.analysis.merge_field(receiver, target.attr, taints)
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Name) and isinstance(
                target.slice, ast.Constant
            ):
                payload = self.dict_env.setdefault(target.value.id, {})
                payload[str(target.slice.value)] = taints
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                for sub_target, sub_value in zip(target.elts, value.elts):
                    self._assign_target(
                        sub_target, sub_value, self.eval(sub_value)
                    )
            else:
                for sub_target in target.elts:
                    self._assign_target(sub_target, value, taints)


class DataflowAnalysis(SummaryAnalysis[TaintSet]):
    """Whole-program taint propagation to a fixpoint.

    Summaries — per-function return taints, per-(class, field) taints,
    and per-module global taints — are grown monotonically over
    repeated passes until nothing changes (bounded by
    :attr:`MAX_ITERATIONS`), then one reporting pass collects
    :class:`SinkHit` records for the RPL6xx rules.
    """

    frame = _FunctionFlow
    bottom = EMPTY

    def __init__(
        self, project: Project, graph: CallGraph, config: LintConfig
    ) -> None:
        super().__init__(project, graph, config)
        self.sink_hits: Set[SinkHit] = set()
        self._clock_cache: Dict[str, bool] = {}

    def join(self, a: TaintSet, b: TaintSet) -> TaintSet:
        return a | b

    def param_value(self, fn: FunctionInfo, param: str) -> Optional[TaintSet]:
        cls = self.graph.param_types.get(fn.key, {}).get(param)
        if cls in RNG_SINK_ANNOTATIONS:
            return frozenset({Taint(RNG, SEEDED, f"{cls}-annotated parameter")})
        if cls in CLOCK_SINK_ANNOTATIONS:
            return frozenset(
                {Taint(CLOCK, CLOCK_OK, "Clock-annotated parameter")}
            )
        return None

    def is_clock_class(self, cls_name: str) -> bool:
        """Whether a project class is (or transitively derives from) a
        sanctioned clock type."""
        cached = self._clock_cache.get(cls_name)
        if cached is not None:
            return cached
        self._clock_cache[cls_name] = False  # cycle guard
        result = False
        if cls_name in CLOCK_SINK_ANNOTATIONS or cls_name in set(
            self.config.clock_classes
        ):
            result = True
        else:
            for info in self.project.classes_by_name.get(cls_name, ()):
                if any(
                    base in CLOCK_SINK_ANNOTATIONS
                    or base in set(self.config.clock_classes)
                    or self.is_clock_class(base)
                    for base in info.base_names
                ):
                    result = True
                    break
        self._clock_cache[cls_name] = result
        return result

    def constructor_params(self, cls_name: str) -> List[str]:
        """Positional field/parameter names of a class constructor."""
        ctor = self.project.lookup_method(cls_name, "__init__")
        if ctor is not None:
            args = ctor.node.args
            names = [a.arg for a in (*args.posonlyargs, *args.args)]
            return names[1:] if names and names[0] == "self" else names
        info = next(
            (
                c
                for c in self.project.classes_by_name.get(cls_name, ())
                if c.is_dataclass
            ),
            None,
        )
        if info is not None:
            return [
                item.target.id
                for item in info.node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
            ]
        return []


# ----------------------------------------------------------------------
# Shared entry points for the rule modules
# ----------------------------------------------------------------------
def analyze(project: Project, config: LintConfig) -> DataflowAnalysis:
    """Run (or reuse) the dataflow analysis for one project + config."""
    return shared_analysis("dataflow", DataflowAnalysis, project, config)


def pool_entry_keys(
    project: Project, graph: CallGraph, config: LintConfig
) -> Set[str]:
    """Thread-pool entry points: discovered + configured."""
    entries: Set[str] = set(graph.pool_entrypoints)
    for dotted in config.entrypoints:
        module_name, _, func = dotted.rpartition(".")
        module = project.modules.get(module_name)
        if module is not None and func in module.functions:
            entries.add(module.functions[func].key)
    return entries
