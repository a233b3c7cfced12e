"""Interprocedural abstract cost analysis (COST).

The ROADMAP's scale push runs warehouse scenarios at thousands of
nodes, and the paper's "low-overhead decision" claim (CLITE §V) only
survives that scale if per-event work stays *independent of fleet
size*.  PR 8 made "only displaced nodes are re-verified" an invariant;
this module makes the asymptotic statement itself statically checkable,
the way FLOW (RPL8xx) did for lock order and PURE (RPL9xx) did for
probe purity.  Five analyses share one harvest:

* **Budget check (RPL1001)** — every function registered in
  ``[tool.repro-lint.cost] budgets`` gets a *closed* symbolic cost
  (its own loops/allocations plus every callee's, bound through call
  sites) which must not exceed its declared budget polynomial.
* **Quadratic blowup (RPL1002)** — a provable same-family product:
  nested loops over two N-sized collections of the same family, or a
  list-membership / ``sorted()`` / materialization of an N collection
  inside a loop already bounded by that same N.
* **Hot-path N-allocation (RPL1003)** — an N_nodes/N_jobs-sized
  allocation or copy reachable from a hot entry point (the engine
  round loop, the warehouse event handlers, ``ServiceGateway.publish``)
  or inside a ``hot-path`` module.
* **Repeated recomputation (RPL1004)** — a PURE-clean, non-constant
  project function called at least twice with textually identical
  arguments in one dynamic scope, detected through the call graph with
  one level of argument substitution per frame (``_loads_of`` computed
  by ``_on_recheck`` and again via ``_mark_verified`` was the repo's
  own instance).
* **Registry health (RPL1005)** — stale budget/hot-entry registry
  entries, unparsable budget expressions, and hot entry points that
  carry no budget at all.

The cost domain is deliberately tiny: loop bounds are inferred from
the *identity* of the iterated collection (``cluster.nodes`` /
``used_nodes()`` → ``n_nodes``, ``self.shards`` → ``n_shards``,
``self._jobs`` → ``n_jobs``), everything else — bounded slices,
allowlisted containers, ``verified``/``displaced``/``changed`` style
locals, unknown expressions — is ``small``.  Like PURE, the analysis
is conservative in the quiet direction: a bound it cannot classify is
never charged as N, so every finding is a real symbolic fact about the
source.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field as dc_field
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph, FunctionScanner, shared_analysis
from .config import LintConfig
from .core import (
    CallClosure,
    RegistryHit,
    Site,
    expr_text,
    fn_label,
    param_names,
    passed_value,
    registry_hit,
    site_of,
    suppressed,
    via,
)
from .project import FunctionInfo, ModuleInfo, Project
from .pure import PureAnalysis, pure_analysis

#: The N-class size variables; everything else in a term is ``small``.
N_VARS = ("n_jobs", "n_nodes", "n_shards")

#: Budget factors that do not license any N-degree.
_CONST_FACTORS = {"const", "small"}

#: Builtins that materialize their iterable argument (O(n) + O(n) mem).
_ALLOC_CALLS = {"dict", "frozenset", "list", "set", "sorted", "tuple"}

#: numpy functions that copy/materialize their array argument.
_NP_ALLOC = {"array", "asarray", "concatenate", "copy", "stack"}

#: Builtins that scan their iterable argument without materializing.
_SCAN_CALLS = {"all", "any", "max", "min", "sum"}

#: Wrappers whose result size mirrors their first argument's size.
_SIZE_WRAPPERS = {
    "enumerate", "frozenset", "iter", "list", "reversed", "set",
    "sorted", "tuple",
}

#: Receiver methods whose result size mirrors the receiver's size.
_VIEW_METHODS = {"copy", "items", "keys", "values"}

#: Attribute types for which ``in`` is a hash lookup, not a scan.
_HASHED_TYPES = {
    "Counter", "DefaultDict", "Dict", "FrozenSet", "Mapping",
    "MutableMapping", "MutableSet", "Set", "defaultdict", "dict",
    "frozenset", "set",
}

_TERM_LIMIT = 32
_REPEAT_SIG_LIMIT = 64


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Term:
    """One symbolic cost monomial: the product of its ``vars`` factors.

    ``vars`` is sorted; ``n_*`` factors carry degree, ``small`` and
    ``param:<name>`` factors do not.  ``what`` describes the dominant
    charge and ``chain`` the callee path it was imported through.
    """

    vars: Tuple[str, ...]
    kind: str             # "loop" | "alloc" | "scan" | "membership"
    what: str
    site: Site
    chain: Tuple[str, ...] = ()

    @property
    def degree(self) -> int:
        return sum(1 for v in self.vars if v in N_VARS)


def render_terms(terms: Collection[Term]) -> str:
    """``O(...)`` text for the worst monomials of a closed cost."""
    if not terms:
        return "O(1)"
    worst = max(t.degree for t in terms)
    if worst == 0:
        return "O(small)"
    picks = sorted(
        {t.vars for t in terms if t.degree == worst}
    )
    return " + ".join(
        "O(" + "*".join(v for v in vars if v in N_VARS) + ")"
        for vars in picks
    )


@dataclass(frozen=True)
class Budget:
    """One parsed ``[tool.repro-lint.cost] budgets`` entry."""

    entry: str            # dotted function name
    key: str              # resolved function key
    expr: str             # e.g. "small" / "n_nodes" / "n_shards*n_jobs"
    allowed: int          # licensed N-degree


@dataclass(frozen=True)
class BudgetHit:
    """RPL1001: a closed cost term exceeds the declared budget."""

    budget: Budget
    term: Term


@dataclass(frozen=True)
class QuadHit:
    """RPL1002: a provable same-family quadratic product."""

    site: Site
    fn_key: str
    vars: Tuple[str, ...]
    what: str


@dataclass(frozen=True)
class AllocHit:
    """RPL1003: an N-sized allocation on a hot path."""

    site: Site
    fn_key: str
    bound: str            # the N var sizing the allocation
    what: str
    entry: str            # hot entry key, or "" for hot-path modules


@dataclass(frozen=True)
class RepeatHit:
    """RPL1004: a pure costly call repeated with identical arguments."""

    site: Site
    fn_key: str
    callee: str           # callee function key
    args: str             # the repeated argument signature, rendered
    count: int


# ----------------------------------------------------------------------
# Per-function harvest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _CostCall:
    """One resolved call with loop context and argument size classes.

    ``loops`` is the lineno stack of enclosing loops (two calls with the
    same stack run in the same iteration); ``branch`` is the enclosing
    conditional-arm path, where two occurrences pair for RPL1004 only if
    no discriminator line holds them in mutually exclusive arms.
    """

    prefix: Tuple[str, ...]
    loops: Tuple[int, ...]
    branch: Tuple[Tuple[int, int], ...]
    targets: Tuple[str, ...]
    site: Site
    arg_classes: Tuple[Optional[str], ...]
    kw_classes: Tuple[Tuple[str, Optional[str]], ...]
    arg_texts: Tuple[str, ...]
    kw_texts: Tuple[Tuple[str, str], ...]
    recv_text: str


@dataclass
class _FnCost:
    """Everything one pass over a function body gives the analyses."""

    charges: List[Term] = dc_field(default_factory=list)
    calls: List[_CostCall] = dc_field(default_factory=list)
    #: (site, bound var, what) — N-sized allocations, RPL1003 material.
    allocs: List[Tuple[Site, str, str]] = dc_field(default_factory=list)
    #: (site, vars, what) — local same-family products, RPL1002.
    quads: List[Tuple[Site, Tuple[str, ...], str]] = dc_field(
        default_factory=list
    )


#: A walk position: enclosing loop-bound prefix, loop line stack, and
#: conditional-arm path (see :class:`_CostCall`).
_Ctx = Tuple[Tuple[str, ...], Tuple[int, ...], Tuple[Tuple[int, int], ...]]


def parse_budget(expr: str) -> Optional[int]:
    """Licensed N-degree of a budget polynomial, or None if malformed.

    The grammar is ``factor ('*' factor)*`` with factors drawn from
    ``const``/``small``/``n_nodes``/``n_jobs``/``n_shards``; the
    licensed degree is the count of N factors (families are
    interchangeable for the comparison — the check is about *degree in
    fleet size*, not which fleet axis).
    """
    factors = [f.strip() for f in expr.split("*")]
    if not factors or any(not f for f in factors):
        return None
    allowed = 0
    for factor in factors:
        if factor in N_VARS:
            allowed += 1
        elif factor not in _CONST_FACTORS:
            return None
    return allowed


def _prune_terms(terms: List[Term]) -> Tuple[Term, ...]:
    """One term per var tuple, the highest-degree ``_TERM_LIMIT`` kept."""
    by_vars: Dict[Tuple[str, ...], Term] = {}
    for term in sorted(
        terms,
        key=lambda t: (t.vars, t.site.module, t.site.line, t.what),
    ):
        by_vars.setdefault(term.vars, term)
    pruned = sorted(
        by_vars.values(), key=lambda t: (-t.degree, t.vars)
    )[:_TERM_LIMIT]
    return tuple(sorted(pruned, key=lambda t: (t.vars, t.site.line)))


class _CostScanner:
    """Harvests loop/alloc/scan charges from one function body."""

    def __init__(
        self,
        analysis: "CostAnalysis",
        fn: FunctionInfo,
        module: ModuleInfo,
        scanner: FunctionScanner,
    ) -> None:
        self.analysis = analysis
        self.fn = fn
        self.module = module
        self.scanner = scanner
        self.out = _FnCost()
        self._name_class: Dict[str, Optional[str]] = {}
        self._assigns: Dict[str, List[ast.AST]] = {}
        self._seed_names()

    # -- name classification -------------------------------------------
    def _seed_names(self) -> None:
        for name in param_names(self.fn):
            if name in ("self", "cls"):
                self._name_class[name] = "small"
            elif name in self.analysis.small_names:
                self._name_class[name] = "small"
            else:
                self._name_class[name] = f"param:{name}"
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._assigns.setdefault(target.id, []).append(
                            node.value
                        )
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self._assigns.setdefault(node.target.id, []).append(
                        node.value
                    )
            elif isinstance(node, ast.NamedExpr):
                if isinstance(node.target, ast.Name):
                    self._assigns.setdefault(node.target.id, []).append(
                        node.value
                    )
        for _ in range(2):  # x = sorted(y) chains settle in two rounds
            for name in sorted(self._assigns):
                if name in self.analysis.small_names:
                    self._name_class[name] = "small"
                    continue
                classes = {
                    self._bound_of(value) for value in self._assigns[name]
                }
                if name in param_names(self.fn):
                    classes.add(f"param:{name}")
                if len(classes) == 1:
                    self._name_class[name] = classes.pop()
                else:
                    self._name_class[name] = "small"

    # -- bound classification ------------------------------------------
    def _declared_size(self, expr: ast.Attribute) -> Optional[str]:
        """``small`` for an allowlisted bounded attribute, the size var
        of a declared collection, else ``None``."""
        owner = self.scanner.receiver_type(expr.value)
        token = f"{owner}.{expr.attr}"
        if owner is None:
            return None
        if token in self.analysis.bounded:
            return "small"
        return self.analysis.collections.get(token)

    def _rank(self, cls: Optional[str]) -> int:
        if cls is None:
            return 0
        if cls in N_VARS:
            return 2
        return 1

    def _max_class(
        self, a: Optional[str], b: Optional[str]
    ) -> Optional[str]:
        return a if self._rank(a) >= self._rank(b) else b

    def _bound_of(self, expr: ast.AST) -> Optional[str]:
        """Size class of an expression: None (const), small, param, N."""
        if isinstance(expr, ast.Constant):
            return None
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
            return None  # literal: statically fixed length
        if isinstance(expr, ast.Name):
            if expr.id in self.analysis.small_names:
                return "small"
            return self._name_class.get(expr.id, "small")
        if isinstance(expr, ast.Starred):
            return self._bound_of(expr.value)
        if isinstance(expr, ast.Attribute):
            return self._declared_size(expr) or "small"
        if isinstance(expr, ast.Subscript):
            # Indexing/slicing an N collection yields an element or a
            # bounded window (`occupied[:max_probe_nodes]`): small.  A
            # full copy (`x[:]`) keeps the base's size.
            if isinstance(expr.slice, ast.Slice):
                if expr.slice.upper is None and expr.slice.lower is None:
                    return self._bound_of(expr.value)
                return "small"
            return "small"
        if isinstance(expr, ast.Call):
            return self._call_bound(expr)
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            return self._bound_of(expr.generators[0].iter)
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor, ast.Add)
        ):
            return self._max_class(
                self._bound_of(expr.left), self._bound_of(expr.right)
            )
        if isinstance(expr, ast.IfExp):
            return self._max_class(
                self._bound_of(expr.body), self._bound_of(expr.orelse)
            )
        if isinstance(expr, ast.Await):
            return self._bound_of(expr.value)
        return "small"

    def _call_bound(self, call: ast.Call) -> Optional[str]:
        func = call.func
        simple = None
        if isinstance(func, ast.Name):
            simple = func.id
        elif isinstance(func, ast.Attribute):
            simple = func.attr
        if simple == "range":
            if len(call.args) == 1 and isinstance(
                call.args[0], ast.Call
            ):
                inner = call.args[0]
                if (
                    isinstance(inner.func, ast.Name)
                    and inner.func.id == "len"
                    and inner.args
                ):
                    return self._bound_of(inner.args[0])
            if all(isinstance(a, ast.Constant) for a in call.args):
                return None
            return "small"
        if simple in _SIZE_WRAPPERS and call.args:
            return self._bound_of(call.args[0])
        if isinstance(func, ast.Attribute):
            found = self._declared_size(func)
            if found is not None:
                return found
            if func.attr in _VIEW_METHODS:
                return self._bound_of(func.value)
        return "small"

    def _hashed_membership(self, expr: ast.AST) -> bool:
        """True when ``x in expr`` is a hash lookup by container type."""
        if isinstance(expr, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp)):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, (ast.Name, ast.Attribute)):
                name = func.id if isinstance(func, ast.Name) else func.attr
                if name in ("set", "frozenset", "dict"):
                    return True
        if isinstance(expr, ast.Attribute):
            owner = self.scanner.receiver_type(expr.value)
            if owner is not None:
                ctype = self.analysis.graph.attr_type(owner, expr.attr)
                if ctype in _HASHED_TYPES:
                    return True
        return False

    # -- charging -------------------------------------------------------
    def _charge(
        self,
        prefix: Tuple[str, ...],
        bound: Optional[str],
        kind: str,
        node: ast.AST,
        what: str,
    ) -> None:
        if bound is None:
            return
        vars = tuple(sorted(prefix + (bound,)))
        site = site_of(self.fn, node)
        self.out.charges.append(
            Term(vars=vars, kind=kind, what=what, site=site)
        )
        if kind == "alloc" and bound in ("n_jobs", "n_nodes"):
            self.out.allocs.append((site, bound, what))
        for v in set(vars):
            if v in N_VARS and vars.count(v) >= 2:
                self.out.quads.append((site, vars, what))
                break

    # -- statement / expression walk -----------------------------------
    def scan(self) -> _FnCost:
        self._walk_block(self.fn.node.body, ((), (), ()))
        return self.out

    @staticmethod
    def _terminal(stmts: Sequence[ast.stmt]) -> bool:
        """True when a block always leaves the enclosing suite."""
        return bool(stmts) and isinstance(
            stmts[-1], (ast.Return, ast.Raise, ast.Break, ast.Continue)
        )

    def _walk_block(self, stmts: Sequence[ast.stmt], ctx: _Ctx) -> None:
        prefix, loops, branch = ctx
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                bound = self._bound_of(stmt.iter)
                self._walk_expr(stmt.iter, ctx)
                self._charge(
                    prefix, bound, "loop", stmt,
                    f"for over {expr_text(stmt.iter)}",
                )
                inner = prefix + (bound,) if bound is not None else prefix
                self._walk_block(
                    stmt.body, (inner, loops + (stmt.lineno,), branch)
                )
                self._walk_block(stmt.orelse, ctx)
            elif isinstance(stmt, ast.While):
                self._walk_expr(stmt.test, ctx)
                self._charge(prefix, "small", "loop", stmt, "while loop")
                self._walk_block(
                    stmt.body,
                    (prefix + ("small",), loops + (stmt.lineno,), branch),
                )
                self._walk_block(stmt.orelse, ctx)
            elif isinstance(stmt, ast.If):
                self._walk_expr(stmt.test, ctx)
                arm = branch + ((stmt.lineno, 0),)
                self._walk_block(stmt.body, (prefix, loops, arm))
                other = branch + ((stmt.lineno, 1),)
                self._walk_block(stmt.orelse, (prefix, loops, other))
                if self._terminal(stmt.body):
                    # `if c: return` — the rest of the suite is the
                    # else arm for exclusivity purposes.
                    self._walk_block(
                        stmts[index + 1:], (prefix, loops, other)
                    )
                    return
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._walk_expr(item.context_expr, ctx)
                self._walk_block(stmt.body, ctx)
            elif isinstance(stmt, ast.Try):
                self._walk_block(stmt.body, ctx)
                for arm_id, handler in enumerate(stmt.handlers):
                    self._walk_block(
                        handler.body,
                        (prefix, loops, branch + ((stmt.lineno, arm_id),)),
                    )
                self._walk_block(stmt.orelse, ctx)
                self._walk_block(stmt.finalbody, ctx)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                # Nested defs execute inline when called from this frame
                # (the callgraph makes the same approximation).
                self._walk_block(stmt.body, ctx)
            elif isinstance(stmt, ast.ClassDef):
                continue
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._walk_expr(child, ctx)

    def _walk_expr(self, expr: Optional[ast.AST], ctx: _Ctx) -> None:
        if expr is None:
            return
        prefix, loops, branch = ctx
        if isinstance(expr, ast.Call):
            self._handle_call(expr, ctx)
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    self._walk_expr(child, ctx)
            for kw in expr.keywords:
                self._walk_expr(kw.value, ctx)
            return
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            inner = ctx
            for gen in expr.generators:
                bound = self._bound_of(gen.iter)
                self._walk_expr(gen.iter, inner)
                kind = (
                    "loop"
                    if isinstance(expr, ast.GeneratorExp)
                    else "alloc"
                )
                self._charge(
                    inner[0], bound, kind, expr,
                    f"comprehension over {expr_text(gen.iter)}",
                )
                step = inner[0] + (bound,) if bound is not None else inner[0]
                inner = (step, inner[1] + (expr.lineno,), inner[2])
                for cond in gen.ifs:
                    self._walk_expr(cond, inner)
            if isinstance(expr, ast.DictComp):
                self._walk_expr(expr.key, inner)
                self._walk_expr(expr.value, inner)
            else:
                self._walk_expr(expr.elt, inner)
            return
        if isinstance(expr, ast.Compare):
            left = expr.left
            for op, comparator in zip(expr.ops, expr.comparators):
                if isinstance(op, (ast.In, ast.NotIn)):
                    bound = self._bound_of(comparator)
                    if bound in N_VARS and not self._hashed_membership(
                        comparator
                    ):
                        self._charge(
                            prefix, bound, "membership", expr,
                            f"'in' scan of {expr_text(comparator)}",
                        )
                left = comparator
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    self._walk_expr(child, ctx)
            return
        if isinstance(expr, ast.Lambda):
            self._walk_expr(expr.body, ctx)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._walk_expr(child, ctx)

    def _handle_call(self, call: ast.Call, ctx: _Ctx) -> None:
        prefix, loops, branch = ctx
        func = call.func
        simple = None
        if isinstance(func, ast.Name):
            simple = func.id
        elif isinstance(func, ast.Attribute):
            simple = func.attr

        if simple in _ALLOC_CALLS and call.args:
            bound = self._bound_of(call.args[0])
            self._charge(
                prefix, bound, "alloc", call,
                f"{simple}({expr_text(call.args[0], 40)})",
            )
        elif simple in _SCAN_CALLS and call.args:
            bound = self._bound_of(call.args[0])
            self._charge(
                prefix, bound, "scan", call,
                f"{simple}({expr_text(call.args[0], 40)})",
            )
        elif (
            isinstance(func, ast.Attribute)
            and simple == "join"
            and call.args
        ):
            self._charge(
                prefix, self._bound_of(call.args[0]), "scan", call,
                f"join({expr_text(call.args[0], 40)})",
            )
        elif isinstance(func, ast.Attribute) and simple == "copy":
            if not call.args:
                self._charge(
                    prefix, self._bound_of(func.value), "alloc", call,
                    f"{expr_text(func.value, 40)}.copy()",
                )
        elif isinstance(func, (ast.Name, ast.Attribute)):
            dotted = self.module.resolve(func)
            if (
                dotted is not None
                and dotted.startswith("numpy.")
                and dotted.split(".")[-1] in _NP_ALLOC
                and call.args
            ):
                self._charge(
                    prefix, self._bound_of(call.args[0]), "alloc", call,
                    f"{dotted}({expr_text(call.args[0], 40)})",
                )

        targets = tuple(sorted(self.scanner._resolve_call_targets(call)))
        if targets:
            self.out.calls.append(
                _CostCall(
                    prefix=prefix,
                    loops=loops,
                    branch=branch,
                    targets=targets,
                    site=site_of(self.fn, call),
                    arg_classes=tuple(
                        self._bound_of(arg) for arg in call.args
                    ),
                    kw_classes=tuple(
                        (kw.arg, self._bound_of(kw.value))
                        for kw in call.keywords
                        if kw.arg is not None
                    ),
                    arg_texts=tuple(
                        expr_text(arg) for arg in call.args
                    ),
                    kw_texts=tuple(
                        (kw.arg, expr_text(kw.value))
                        for kw in call.keywords
                        if kw.arg is not None
                    ),
                    recv_text=(
                        expr_text(call.func.value)
                        if isinstance(call.func, ast.Attribute)
                        else ""
                    ),
                )
            )


# ----------------------------------------------------------------------
# The analysis
# ----------------------------------------------------------------------
class CostAnalysis:
    """Shared harvest + the five COST analyses over one project."""

    def __init__(
        self, project: Project, graph: CallGraph, config: LintConfig
    ) -> None:
        self.project = project
        self.graph = graph
        self.config = config

        self.collections: Dict[str, str] = {}
        self.bounded: Dict[str, str] = {}
        self.small_names: Set[str] = set(config.cost_small_names)
        for entry in config.cost_collections:
            token, _, var = entry.partition("=")
            if var in N_VARS:
                self.collections[token.strip()] = var.strip()
        for entry in config.cost_bounded:
            token, _, reason = entry.partition("=")
            self.bounded[token.strip()] = reason.strip()

        self.budgets: Dict[str, Budget] = {}      # key -> Budget
        self.hot_entries: Dict[str, str] = {}     # key -> config entry
        self.hot_scope: Dict[str, Tuple[str, ...]] = {}

        self.budget_hits: List[BudgetHit] = []
        self.quads: List[QuadHit] = []
        self.allocs: List[AllocHit] = []
        self.repeats: List[RepeatHit] = []
        self.registry: List[RegistryHit] = []

        self._harvests: Dict[str, _FnCost] = {}
        self._cost_closure: CallClosure[Term, _CostCall] = CallClosure(
            own=lambda key: self._harvest_of(key).charges,
            calls=self._resolved_calls,
            bind=self._bind_term,
            finish=_prune_terms,
        )
        self._repeat_maps: Dict[
            str, Dict[Tuple[str, Tuple[str, ...]], Tuple[int, Site]]
        ] = {}
        self._repeat_reported: Set[Tuple[str, Tuple[str, ...]]] = set()
        self._repeat_candidates: Dict[str, bool] = {}
        self._pure: Optional[PureAnalysis] = None

    # ------------------------------------------------------------------
    # Registry resolution (Project.resolve_dotted)
    # ------------------------------------------------------------------
    def _stale(self, entry: str, table: str, detail: str) -> None:
        hit = registry_hit(self.project, entry, table, detail)
        if hit is not None:
            self.registry.append(hit)

    def _resolve_tables(self) -> None:
        for raw in self.config.cost_budgets:
            dotted, _, expr = raw.partition("=")
            dotted = dotted.strip()
            expr = expr.strip()
            allowed = parse_budget(expr) if expr else None
            key = self.project.resolve_dotted(dotted)
            if key is None:
                self._stale(dotted, "budgets", "no such function")
                continue
            if allowed is None:
                self._stale(dotted, "budgets", f"unparsable budget {expr!r}")
                continue
            self.budgets[key] = Budget(
                entry=dotted, key=key, expr=expr, allowed=allowed
            )
        for entry in self.config.cost_hot_entrypoints:
            key = self.project.resolve_dotted(entry)
            if key is None:
                self._stale(entry, "hot-entrypoints", "no such function")
                continue
            self.hot_entries[key] = entry
            if key not in self.budgets:
                self._stale(
                    entry, "hot-entrypoints", "hot entry has no budget"
                )

    # ------------------------------------------------------------------
    # Closures with call-site binding
    # ------------------------------------------------------------------
    def _map_vars(
        self, vars: Tuple[str, ...], call: _CostCall, callee: FunctionInfo
    ) -> Tuple[str, ...]:
        mapped: List[str] = []
        for v in vars:
            if not v.startswith("param:"):
                mapped.append(v)
                continue
            cls = passed_value(
                callee, v[len("param:"):], call.arg_classes, call.kw_classes
            )
            if cls is not None:  # None: constant-sized or defaulted
                mapped.append(cls)
        return tuple(mapped)

    def _harvest_of(self, key: str) -> _FnCost:
        return self._harvests.get(key) or _FnCost()

    def _resolved_calls(self, key: str) -> List[Tuple[_CostCall, str]]:
        """(call, callee key) pairs a cost closure follows."""
        return [
            (call, target)
            for call in self._harvest_of(key).calls
            for target in call.targets
            if target in self.project.functions
        ]

    def _bind_term(self, term: Term, call: _CostCall, target: str) -> Term:
        callee = self.project.functions[target]
        mapped = self._map_vars(term.vars, call, callee)
        return Term(
            vars=tuple(sorted(call.prefix + mapped)),
            kind=term.kind,
            what=term.what,
            site=term.site,
            chain=via(callee, term.chain),
        )

    # ------------------------------------------------------------------
    # RPL1004: repeated identical calls to pure costly functions
    # ------------------------------------------------------------------
    def _is_repeat_candidate(self, key: str) -> bool:
        cached = self._repeat_candidates.get(key)
        if cached is not None:
            return cached
        self._repeat_candidates[key] = False  # cycle guard
        fn = self.project.functions.get(key)
        verdict = False
        if fn is not None and self._pure is not None:
            if not self._pure._effect_closure(key):
                verdict = bool(self._cost_closure(key))
        self._repeat_candidates[key] = verdict
        return verdict

    @staticmethod
    def _call_sig_args(call: _CostCall) -> Tuple[str, ...]:
        args = call.arg_texts + tuple(
            f"{name}={text}" for name, text in sorted(call.kw_texts)
        )
        if call.recv_text:
            # The receiver is part of the call's identity: two probes of
            # different spaces are not a recomputation.
            args = (f"@{call.recv_text}",) + args
        return args

    def _substitute_args(
        self,
        args: Tuple[str, ...],
        call: _CostCall,
        callee: FunctionInfo,
    ) -> Tuple[str, ...]:
        """Rewrite a child-frame argument signature into this frame."""
        bound = param_names(callee)[:1] in (["self"], ["cls"])
        out: List[str] = []
        for arg in args:
            recv = arg.startswith("@")
            text = arg[1:] if recv else arg
            head, dot, rest = text.partition(".")
            passed = passed_value(callee, text, call.arg_texts, call.kw_texts)
            passed_head = passed_value(
                callee, head, call.arg_texts, call.kw_texts
            )
            if passed is not None:
                text = passed
            elif head == "self" and bound and call.recv_text:
                # Rebase the child frame's instance onto this call's
                # receiver (`self._loads_of` via `self._mark_verified`
                # keeps `self`; via `shard.check` it becomes `shard.`).
                text = call.recv_text + (dot + rest if dot else "")
            elif dot and passed_head is not None:
                text = passed_head + dot + rest
            else:
                text = f"{callee.simple_name}::{text}"
            out.append(f"@{text}" if recv else text)
        return tuple(out)

    @staticmethod
    def _compatible(
        a: Tuple[Tuple[int, int], ...], b: Tuple[Tuple[int, int], ...]
    ) -> bool:
        """False iff some conditional holds ``a``/``b`` in opposite arms."""
        arms = dict(a)
        return all(arms.get(line, arm) == arm for line, arm in b)

    def _repeat_map(
        self, key: str
    ) -> Dict[Tuple[str, Tuple[str, ...]], Tuple[int, Site]]:
        cached = self._repeat_maps.get(key)
        if cached is not None:
            return cached
        self._repeat_maps[key] = {}  # cycle guard
        harvest = self._harvests.get(key)
        if harvest is None:
            return {}
        # Group occurrences by (loop stack, callee, argument signature):
        # two calls in the same loop body repeat within one iteration,
        # calls under different loops never pair.
        groups: Dict[
            Tuple[Tuple[int, ...], str, Tuple[str, ...]],
            List[Tuple[Tuple[Tuple[int, int], ...], Site, int]],
        ] = {}
        for call in harvest.calls:
            if len(call.targets) != 1:
                continue
            target = call.targets[0]
            callee = self.project.functions.get(target)
            if callee is None:
                continue
            if self._is_repeat_candidate(target):
                sig_args = self._call_sig_args(call)
                groups.setdefault((call.loops, target, sig_args), []).append(
                    (call.branch, call.site, 1)
                )
            child = self._repeat_map(target)
            for (c_target, c_args), (c_count, _) in child.items():
                sub = self._substitute_args(c_args, call, callee)
                if any("::" in a for a in sub):
                    continue  # unbindable child-frame state: no merge
                groups.setdefault((call.loops, c_target, sub), []).append(
                    (call.branch, call.site, c_count)
                )
        propagated: Dict[Tuple[str, Tuple[str, ...]], Tuple[int, Site]] = {}
        for group_key in sorted(groups):
            loops, target, args = group_key
            occurrences = groups[group_key]
            # Max recomputations on any one execution path: occurrences
            # in mutually exclusive branch arms never run together.
            count = max(
                sum(
                    n
                    for other, _, n in occurrences
                    if self._compatible(branch, other)
                )
                for branch, _, _ in occurrences
            )
            site = min(
                (s for _, s, _ in occurrences),
                key=lambda s: (s.line, s.col),
            )
            sig = (target, args)
            if count >= 2 and sig not in self._repeat_reported:
                self._repeat_reported.add(sig)
                self.repeats.append(
                    RepeatHit(
                        site=site,
                        fn_key=key,
                        callee=target,
                        args=", ".join(args),
                        count=count,
                    )
                )
            if not loops:
                # A repeat already reported here propagates as a single
                # computation; callers pair it with their own calls.
                propagated[sig] = (1 if count >= 2 else count, site)
        if len(propagated) > _REPEAT_SIG_LIMIT:
            propagated = dict(
                sorted(propagated.items())[:_REPEAT_SIG_LIMIT]
            )
        self._repeat_maps[key] = propagated
        return propagated

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def _hot_module_keys(self) -> Set[str]:
        keys: Set[str] = set()
        for fn in self.project.iter_functions():
            module = self.project.modules[fn.module]
            path = str(module.display_path).replace("\\", "/")
            if any(sub in path for sub in self.config.hot_path):
                keys.add(fn.key)
        return keys

    def run(self) -> "CostAnalysis":
        self._resolve_tables()
        self._pure = pure_analysis(self.project, self.config)
        for fn in self.project.iter_functions():
            module = self.project.modules[fn.module]
            self._harvests[fn.key] = _CostScanner(
                self, fn, module, self.graph.scanner(fn, module)
            ).scan()

        # RPL1001: closed cost vs declared budget.
        for key in sorted(self.budgets):
            budget = self.budgets[key]
            for term in self._cost_closure(key):
                if term.degree <= budget.allowed:
                    continue
                if suppressed(self.project, "RPL1001", term.site):
                    continue
                self.budget_hits.append(BudgetHit(budget=budget, term=term))

        # RPL1002: local same-family products, project-wide.
        for fn_key in sorted(self._harvests):
            for site, vars, what in self._harvests[fn_key].quads:
                if suppressed(self.project, "RPL1002", site):
                    continue
                self.quads.append(
                    QuadHit(site=site, fn_key=fn_key, vars=vars, what=what)
                )

        # RPL1003: N-sized allocations in the hot scope.
        self.hot_scope = self.graph.reachable_from(set(self.hot_entries))
        hot_keys: Dict[str, str] = {
            key: path[0] for key, path in self.hot_scope.items()
        }
        for key in self._hot_module_keys():
            hot_keys.setdefault(key, "")
        for fn_key in sorted(hot_keys):
            harvest = self._harvests.get(fn_key)
            if harvest is None:
                continue
            for site, bound, what in harvest.allocs:
                if suppressed(self.project, "RPL1003", site):
                    continue
                self.allocs.append(
                    AllocHit(
                        site=site,
                        fn_key=fn_key,
                        bound=bound,
                        what=what,
                        entry=hot_keys[fn_key],
                    )
                )

        # RPL1004: repeated pure recomputation, reported at the frame
        # where the repetition first becomes provable, gated to the
        # budget registry — the functions whose per-event cost is a
        # declared invariant are the ones where recomputing a pure
        # answer is a reportable defect.
        for fn_key in sorted(self._harvests):
            self._repeat_map(fn_key)
        report_scope = set(self.budgets)
        self.repeats = [
            hit
            for hit in self.repeats
            if hit.fn_key in report_scope
            and not suppressed(self.project, "RPL1004", hit.site)
        ]

        self.registry = [
            hit
            for hit in self.registry
            if not suppressed(self.project, "RPL1005", hit.site)
        ]

        self.budget_hits.sort(
            key=lambda h: (
                h.budget.entry, h.term.vars, h.term.site.module,
                h.term.site.line,
            )
        )
        self.quads.sort(
            key=lambda q: (q.site.module, q.site.line, q.vars)
        )
        self.allocs.sort(
            key=lambda a: (a.site.module, a.site.line, a.what)
        )
        self.repeats.sort(
            key=lambda r: (r.site.module, r.site.line, r.callee, r.args)
        )
        self.registry.sort(key=lambda r: (r.table, r.entry, r.detail))
        return self

    @property
    def violation_count(self) -> int:
        return (
            len(self.budget_hits)
            + len(self.quads)
            + len(self.allocs)
            + len(self.repeats)
            + len(self.registry)
        )


# ----------------------------------------------------------------------
# Shared entry point and the ``repro-lint --report cost`` renderers
# ----------------------------------------------------------------------
def cost_analysis(project: Project, config: LintConfig) -> CostAnalysis:
    """Run (or reuse) the COST analysis for one project + config."""
    return shared_analysis("cost", CostAnalysis, project, config)


def render_text(analysis: CostAnalysis) -> str:
    lines: List[str] = []
    lines.append("cost budgets")
    lines.append("============")
    if not analysis.budgets:
        lines.append("  (no budgets registered)")
    over = {hit.budget.key for hit in analysis.budget_hits}
    for key in sorted(
        analysis.budgets, key=lambda k: analysis.budgets[k].entry
    ):
        budget = analysis.budgets[key]
        closed = render_terms(analysis._cost_closure(key))
        verdict = "OVER" if key in over else "ok"
        hot = "  [hot]" if key in analysis.hot_entries else ""
        lines.append(
            f"  {budget.entry}  budget O({budget.expr})  "
            f"closed {closed}  {verdict}{hot}"
        )
    if analysis.budget_hits:
        lines.append("")
        lines.append(f"BUDGET VIOLATIONS: {len(analysis.budget_hits)}")
        for hit in analysis.budget_hits:
            term = hit.term
            via = " via " + " -> ".join(term.chain) if term.chain else ""
            lines.append(
                f"  {term.site.module}:{term.site.line}  "
                f"{hit.budget.entry}  {render_terms([term])} > "
                f"O({hit.budget.expr})  [{term.kind}] {term.what}{via}"
            )
    lines.append("")
    lines.append("hot scope")
    lines.append("=========")
    if not analysis.hot_entries:
        lines.append("  (no hot entry points registered)")
    for key in sorted(
        analysis.hot_entries, key=lambda k: analysis.hot_entries[k]
    ):
        lines.append(f"  hot entry {analysis.hot_entries[key]}")
    lines.append(f"  reachable functions: {len(analysis.hot_scope)}")
    lines.append("")
    lines.append("quadratic products")
    lines.append("==================")
    if not analysis.quads:
        lines.append("  (no same-family quadratic is provable)")
    for quad in analysis.quads:
        lines.append(
            f"  {quad.site.module}:{quad.site.line}  "
            f"{fn_label(analysis.project, quad.fn_key)}  "
            f"{'*'.join(quad.vars)}  {quad.what}"
        )
    lines.append("")
    lines.append("hot-path allocations")
    lines.append("====================")
    if not analysis.allocs:
        lines.append("  (no N-sized allocation on a hot path)")
    for alloc in analysis.allocs:
        origin = (
            f"from {fn_label(analysis.project, alloc.entry)}"
            if alloc.entry
            else "hot-path module"
        )
        lines.append(
            f"  {alloc.site.module}:{alloc.site.line}  "
            f"{fn_label(analysis.project, alloc.fn_key)}  [{alloc.bound}] "
            f"{alloc.what}  ({origin})"
        )
    lines.append("")
    lines.append("repeated recomputation")
    lines.append("======================")
    if not analysis.repeats:
        lines.append("  (no pure costly call repeats with fixed args)")
    for repeat in analysis.repeats:
        lines.append(
            f"  {repeat.site.module}:{repeat.site.line}  "
            f"{fn_label(analysis.project, repeat.fn_key)}  computes "
            f"{fn_label(analysis.project, repeat.callee)}({repeat.args}) "
            f"{repeat.count}x"
        )
    lines.append("")
    lines.append("registry health")
    lines.append("===============")
    if not analysis.registry:
        lines.append("  (every registry entry resolves and is budgeted)")
    for stale in analysis.registry:
        lines.append(
            f"  [{stale.table}] entry {stale.entry!r}: {stale.detail}"
        )
    return "\n".join(lines)


def render_json(analysis: CostAnalysis) -> str:
    over = {hit.budget.key for hit in analysis.budget_hits}
    payload = {
        "budgets": [
            {
                "entry": budget.entry,
                "budget": budget.expr,
                "closed": render_terms(analysis._cost_closure(key)),
                "ok": key not in over,
                "hot": key in analysis.hot_entries,
            }
            for key, budget in sorted(
                analysis.budgets.items(), key=lambda kv: kv[1].entry
            )
        ],
        "budget_violations": [
            {
                "entry": hit.budget.entry,
                "budget": hit.budget.expr,
                "cost": render_terms([hit.term]),
                "module": hit.term.site.module,
                "line": hit.term.site.line,
                "kind": hit.term.kind,
                "what": hit.term.what,
                "via": list(hit.term.chain),
            }
            for hit in analysis.budget_hits
        ],
        "hot_entries": sorted(analysis.hot_entries.values()),
        "hot_reachable_count": len(analysis.hot_scope),
        "quadratics": [
            {
                "module": quad.site.module,
                "line": quad.site.line,
                "function": fn_label(analysis.project, quad.fn_key),
                "vars": list(quad.vars),
                "what": quad.what,
            }
            for quad in analysis.quads
        ],
        "hot_allocations": [
            {
                "module": alloc.site.module,
                "line": alloc.site.line,
                "function": fn_label(analysis.project, alloc.fn_key),
                "bound": alloc.bound,
                "what": alloc.what,
                "entry": (
                    fn_label(analysis.project, alloc.entry) if alloc.entry else None
                ),
            }
            for alloc in analysis.allocs
        ],
        "repeats": [
            {
                "module": repeat.site.module,
                "line": repeat.site.line,
                "function": fn_label(analysis.project, repeat.fn_key),
                "callee": fn_label(analysis.project, repeat.callee),
                "args": repeat.args,
                "count": repeat.count,
            }
            for repeat in analysis.repeats
        ],
        "stale_registry": [
            {
                "entry": stale.entry,
                "table": stale.table,
                "detail": stale.detail,
            }
            for stale in analysis.registry
        ],
        "violations": analysis.violation_count,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
