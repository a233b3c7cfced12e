"""The abstract-interpreter skeleton under the RPL6xx dataflow family.

The provenance-taint pass (:mod:`.dataflow`) interprets every function
body over a small lattice, grows three monotone summary tables —
function returns, ``(class, field)`` values, module globals — to a
bounded fixpoint, and then makes one reporting pass.  This module holds
everything of that which does not depend on the lattice:

* :class:`SummaryAnalysis` — the summary tables and the fixpoint
  driver; a family supplies ``bottom``, ``join`` and its frame class;
* :class:`FrameInterpreter` — one function (or module) body: parameter
  seeding, call-site argument binding, and the control-flow walk over
  ``if``/``while``/``for``/``with``/``try`` and nested defs; a family
  supplies ``eval`` and its handling of assignments and returns.
"""

from __future__ import annotations

import ast
from typing import (
    TYPE_CHECKING,
    Dict,
    Generic,
    Iterable,
    Iterator,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

from .callgraph import CallGraph
from .config import LintConfig
from .core import param_names
from .project import FunctionInfo, ModuleInfo, Project, is_self

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .callgraph import FunctionScanner

V = TypeVar("V")
A = TypeVar("A", bound="SummaryAnalysis")


class FrameInterpreter(Generic[V]):
    """Interprets one function (or module, ``fn=None``) body."""

    def __init__(
        self,
        analysis: "SummaryAnalysis[V]",
        fn: Optional[FunctionInfo],
        module: ModuleInfo,
        report: bool,
    ) -> None:
        self.analysis = analysis
        self.fn = fn
        self.module = module
        self.report = report
        self.scanner: "FunctionScanner" = analysis.graph.scanner(fn, module)
        self.env: Dict[str, V] = {}
        if fn is not None:
            self._seed_params(fn)

    def _seed_params(self, fn: FunctionInfo) -> None:
        """Parameters are trusted at their own boundary: what a
        parameter declares is checked at every *call site*, so inside
        the function it holds its declared value."""
        for name in param_names(fn):
            value = self.analysis.param_value(fn, name)
            if value is not None:
                self.env[name] = value

    def _call_bindings(
        self, node: ast.Call
    ) -> Iterator[Tuple[FunctionInfo, str, ast.AST]]:
        """(callee, parameter, argument expression) for every project
        function the call resolves to and every argument it binds."""
        for key in self.scanner._resolve_call_targets(node):
            callee = self.analysis.project.functions.get(key)
            if callee is None:
                continue
            args_spec = callee.node.args
            names = [a.arg for a in (*args_spec.posonlyargs, *args_spec.args)]
            if names and names[0] in ("self", "cls"):
                names = names[1:]
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                if i < len(names):
                    yield callee, names[i], arg
            kw_names = {a.arg for a in args_spec.kwonlyargs} | set(names)
            for keyword in node.keywords:
                if keyword.arg is not None and keyword.arg in kw_names:
                    yield callee, keyword.arg, keyword.value

    def _store_receiver(self, target: ast.Attribute) -> Optional[str]:
        """Class whose field an attribute store writes (``self.x = ...``
        writes the enclosing class)."""
        if is_self(target.value) and self.fn is not None:
            return self.fn.class_name
        return self.scanner._value_type(target.value)

    def _global(self, name: str) -> Optional[V]:
        """A bare name's module-level value, through import aliases."""
        dotted = self.module.imports.get(name, name)
        return self.analysis.lookup_global(self.module.name, dotted)

    # -- the family's transfer functions ---------------------------------
    def eval(self, node: Optional[ast.AST]) -> V:
        raise NotImplementedError

    def visit_assign(self, stmt: ast.Assign) -> None:
        raise NotImplementedError

    def visit_ann_assign(self, stmt: ast.AnnAssign) -> None:
        raise NotImplementedError

    def visit_aug_assign(self, stmt: ast.AugAssign) -> None:
        raise NotImplementedError

    def visit_return(self, stmt: ast.Return) -> None:
        raise NotImplementedError

    def bind_name(self, name: str, value: V) -> None:
        """Bind a ``with ... as name`` / ``for name in ...`` target."""
        self.env[name] = value

    def bind_loop_target(
        self, target: ast.AST, iter_node: ast.AST, value: V
    ) -> None:
        if isinstance(target, ast.Name):
            self.bind_name(target.id, value)

    # -- statement walk --------------------------------------------------
    def run(self) -> None:
        body = (
            self.fn.node.body if self.fn is not None else self.module.tree.body
        )
        self.walk(body)

    def walk(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.visit_assign(stmt)
        elif isinstance(stmt, ast.AnnAssign):
            self.visit_ann_assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self.visit_aug_assign(stmt)
        elif isinstance(stmt, ast.Return):
            self.visit_return(stmt)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            before = dict(self.env)
            self.walk(stmt.body)
            after_body = self.env
            self.env = dict(before)
            self.walk(stmt.orelse)
            join, bottom = self.analysis.join, self.analysis.bottom
            self.env = {
                name: join(
                    after_body.get(name, bottom), self.env.get(name, bottom)
                )
                for name in after_body.keys() | self.env.keys()
            }
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            value = self.eval(stmt.iter)
            self.bind_loop_target(stmt.target, stmt.iter, value)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self.walk(stmt.body)
            self.walk(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    self.bind_name(item.optional_vars.id, value)
            self.walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.walk(stmt.body)
            for handler in stmt.handlers:
                self.walk(handler.body)
            self.walk(stmt.orelse)
            self.walk(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if self.fn is not None:
                # Nested def: approximate as inline (same thread, same
                # closure), matching the call graph's treatment.
                self.walk(stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            pass
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)


class SummaryAnalysis(Generic[V]):
    """Interprocedural summaries grown to a fixpoint over every body.

    Per-function return values, per-(class, field) values and
    per-module globals are joined monotonically over repeated passes
    (bounded by :attr:`MAX_ITERATIONS`), then one reporting pass lets
    the frames record their hits.
    """

    MAX_ITERATIONS = 4

    #: The family's per-body interpreter.
    frame: Type[FrameInterpreter[V]]
    #: The value of a name on a path that never bound it.
    bottom: V

    def __init__(
        self, project: Project, graph: CallGraph, config: LintConfig
    ) -> None:
        self.project = project
        self.graph = graph
        self.config = config
        self.returns: Dict[str, V] = {}
        self.fields: Dict[Tuple[str, str], V] = {}
        self.globals: Dict[Tuple[str, str], V] = {}
        self._changed = False

    # -- the family's lattice ---------------------------------------------
    def join(self, a: V, b: V) -> V:
        raise NotImplementedError

    def param_value(self, fn: FunctionInfo, param: str) -> Optional[V]:
        """What a parameter holds on entry, if its declaration says."""
        raise NotImplementedError

    # -- summary tables --------------------------------------------------
    def _merge(self, table: Dict, key: object, value: V) -> None:
        old = table.get(key)
        new = value if old is None else self.join(old, value)
        if new != old:
            table[key] = new
            self._changed = True

    def merge_return(self, key: str, value: V) -> None:
        self._merge(self.returns, key, value)

    def merge_field(self, cls: str, attr: str, value: V) -> None:
        self._merge(self.fields, (cls, attr), value)

    def merge_global(self, module: str, name: str, value: V) -> None:
        self._merge(self.globals, (module, name), value)

    def lookup_field(self, cls: str, attr: str) -> Optional[V]:
        found = self.fields.get((cls, attr))
        if found is not None:
            return found
        for info in self.project.classes_by_name.get(cls, ()):
            for base in info.base_names:
                found = self.fields.get((base, attr))
                if found is not None:
                    return found
        return None

    def lookup_global(self, current_module: str, dotted: str) -> Optional[V]:
        """A module-level symbol's value, resolving dotted imports."""
        if "." not in dotted:
            return self.globals.get((current_module, dotted))
        module, _, name = dotted.rpartition(".")
        if module in self.project.modules:
            return self.globals.get((module, name))
        return None

    # -- driver ----------------------------------------------------------
    def _pass(self, report: bool) -> bool:
        self._changed = False
        for module in self.project.modules.values():
            self.frame(self, None, module, report).run()
        for fn in self.project.iter_functions():
            self.frame(self, fn, self.project.modules[fn.module], report).run()
        return self._changed

    def run(self: A) -> A:
        for _ in range(self.MAX_ITERATIONS):
            if not self._pass(report=False):
                break
        self._pass(report=True)
        return self
