"""Static call-graph construction and thread-pool reachability.

The thread-safety family needs to know which functions can execute on a
worker thread: everything transitively callable from a function handed
to ``Executor.submit``/``Executor.map``.  This pass builds a syntactic
call graph with a small, deliberately conservative type inferencer —
parameter annotations (including string annotations and
``Optional[...]`` unwrapping), ``x = Ctor(...)`` locals with
re-assignment, instance-attribute types harvested from class bodies and
``self.x = ...`` writes, and annotated return types — which is enough to
follow chains like ``node_state.build_node(...)`` →
``CLITEEngine(node, cfg).optimize()`` or
``tel.metrics.counter(...).add(...)``.

The interprocedural families (RPL6xx-RPL10xx) share the scanners this
pass builds (:meth:`CallGraph.scanner`), so every layer sees one
consistent view of the project's types.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from .project import FunctionInfo, ModuleInfo, Project, is_self, self_attr

#: Executor methods whose first argument runs on a pool thread.
_POOL_DISPATCH = {"submit", "map", "apply_async", "starmap"}


def _annotation_class(annotation: Optional[ast.AST]) -> Optional[str]:
    """Simple class name of an annotation, unwrapping Optional/quotes."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # String annotation: parse it and recurse, so "Optional[Node]"
        # unwraps the same way the unquoted form does.
        try:
            parsed = ast.parse(annotation.value.strip(), mode="eval")
        except SyntaxError:
            return None
        return _annotation_class(parsed.body)
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Subscript):
        # Optional[T] / Union[T, None] / List[T]: unwrap to the lone class.
        base = _annotation_class(annotation.value)
        if base == "Optional":
            return _annotation_class(annotation.slice)
        if base == "Union" and isinstance(annotation.slice, ast.Tuple):
            members = [
                _annotation_class(e)
                for e in annotation.slice.elts
                if not (isinstance(e, ast.Constant) and e.value is None)
            ]
            members = [m for m in members if m is not None and m != "None"]
            if len(set(members)) == 1:
                return members[0]
            return None
        return base
    return None


@dataclass
class CallGraph:
    """Edges between function keys plus discovered pool entry points."""

    project: Project
    edges: Dict[str, Set[str]] = field(default_factory=dict)
    pool_entrypoints: Set[str] = field(default_factory=set)
    #: function key -> parameter name -> simple class name
    param_types: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: (class name, attribute) -> simple class name of the attribute
    attr_types: Dict[Tuple[str, str], str] = field(default_factory=dict)
    _scanners: Dict[str, "FunctionScanner"] = field(
        default_factory=dict, repr=False
    )
    _dotted: Dict[str, Optional[str]] = field(default_factory=dict, repr=False)

    def scanner(
        self, fn: Optional[FunctionInfo], module: ModuleInfo
    ) -> "FunctionScanner":
        """The type oracle for one function body (``fn=None``: the
        module's top-level code, skipping defs and classes), built and
        visited once per graph.  Its type state is flow-insensitive, so
        every analysis family can share it."""
        key = fn.key if fn is not None else module.name
        found = self._scanners.get(key)
        if found is None:
            found = self._scanners[key] = _visited_scanner(self, fn, module)
        return found

    def function_for_dotted(self, dotted: str) -> Optional[str]:
        """Function key a dotted ``mod.fn`` / ``mod.Cls`` (its
        constructor) / ``mod.Cls.meth`` (inherited methods included)
        name calls, memoized per graph."""
        if dotted in self._dotted:
            return self._dotted[dotted]
        found: Optional[str] = None
        for module, parts in self.project.module_splits(dotted):
            if len(parts) == 1:
                if parts[0] in module.functions:
                    found = module.functions[parts[0]].key
                    break
                if parts[0] in module.classes:
                    found = next(iter(self.class_ctor_keys(parts[0])), None)
                    break
            elif len(parts) == 2 and parts[0] in module.classes:
                method = self.project.lookup_method(parts[0], parts[1])
                if method is not None:
                    found = method.key
                    break
        self._dotted[dotted] = found
        return found

    def class_ctor_keys(self, class_name: str) -> List[str]:
        """``__init__`` / ``__post_init__`` keys a construction calls (a
        class with no explicit constructor still types its result)."""
        return [
            found.key
            for method in ("__init__", "__post_init__")
            if (found := self.project.lookup_method(class_name, method))
        ]

    def attr_type(self, class_name: str, attr: str) -> Optional[str]:
        """Type of ``class_name.attr``, walking base classes by name."""
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            found = self.attr_types.get((current, attr))
            if found is not None:
                return found
            for cls in self.project.classes_by_name.get(current, ()):
                queue.extend(cls.base_names)
        return None

    def reachable_from(
        self, entry_keys: Set[str]
    ) -> Dict[str, Tuple[str, ...]]:
        """BFS closure: function key -> call path from an entry point."""
        paths: Dict[str, Tuple[str, ...]] = {}
        queue: List[str] = []
        for key in sorted(entry_keys):
            if key in self.project.functions:
                paths[key] = (key,)
                queue.append(key)
        while queue:
            current = queue.pop(0)
            for callee in sorted(self.edges.get(current, ())):
                if callee not in paths:
                    paths[callee] = paths[current] + (callee,)
                    queue.append(callee)
        return paths


class FunctionScanner(ast.NodeVisitor):
    """Collects call edges and local types inside one function body.

    Also the project's shared expression-type oracle: every analysis
    family reads the one visited scanner per function that
    :meth:`CallGraph.scanner` caches, to resolve call targets and
    receiver types with the same rules the call graph uses.
    ``fn`` may be ``None`` for module-level code (no parameters, no
    ``self``).
    """

    def __init__(
        self,
        graph: CallGraph,
        fn: Optional[FunctionInfo],
        module: ModuleInfo,
    ) -> None:
        self.graph = graph
        self.project = graph.project
        self.fn = fn
        self.module = module
        self.local_types: Dict[str, str] = dict(
            graph.param_types.get(fn.key, {}) if fn is not None else {}
        )
        self.callees: Set[str] = set()

    # -- type bookkeeping ------------------------------------------------
    def _record_self_attr(self, attr: str, inferred: Optional[str]) -> None:
        if (
            inferred is not None
            and self.fn is not None
            and self.fn.class_name is not None
        ):
            self.graph.attr_types.setdefault(
                (self.fn.class_name, attr), inferred
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        inferred = self._value_type(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if inferred is not None:
                    self.local_types[target.id] = inferred
                else:
                    # Re-assignment to something untypeable invalidates
                    # whatever the local held before.
                    self.local_types.pop(target.id, None)
            elif (attr := self_attr(target)) is not None:
                self._record_self_attr(attr, inferred)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        cls = _annotation_class(node.annotation)
        if isinstance(node.target, ast.Name) and cls is not None:
            self.local_types[node.target.id] = cls
        elif (attr := self_attr(node.target)) is not None:
            self._record_self_attr(attr, cls)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs get their own scan via the class/module walk; their
        # bodies still execute on the same thread when called, so edges
        # from the enclosing function to locals are approximated by
        # treating the nested body as inline.
        for child in node.body:
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- call edges ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._record_pool_dispatch(node)
        for key in self._resolve_call_targets(node):
            self.callees.add(key)
        self.generic_visit(node)

    def _record_pool_dispatch(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and func.attr in _POOL_DISPATCH
        ):
            return
        if not node.args:
            return
        target = node.args[0]
        resolved = self._resolve_callable_ref(target)
        if resolved is not None:
            self.graph.pool_entrypoints.add(resolved)

    def _resolve_callable_ref(self, node: ast.AST) -> Optional[str]:
        """A bare function reference (not a call) to a project function."""
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = self.module.resolve(node)
            if dotted is not None:
                found = self._function_for_dotted(dotted)
                if found is not None:
                    return found
            if isinstance(node, ast.Attribute):
                keys = self._resolve_attribute_call(node, record_type=False)
                return keys[0] if keys else None
        return None

    def _function_for_dotted(self, dotted: str) -> Optional[str]:
        """Map ``pkg.mod.fn`` / ``pkg.mod.Cls.meth`` to a function key."""
        if "." in dotted:
            return self.graph.function_for_dotted(dotted)
        # Same-module shortcut: a bare name with no import alias.
        if dotted in self.module.functions:
            return self.module.functions[dotted].key
        if dotted in self.module.classes:
            return next(iter(self.graph.class_ctor_keys(dotted)), None)
        return None

    def _call_result_type(self, node: ast.AST) -> Optional[str]:
        """Class name a call expression evaluates to, when knowable."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, (ast.Name, ast.Attribute)):
            dotted = self.module.resolve(func)
            if dotted is not None:
                simple = dotted.split(".")[-1]
                if simple in self.project.classes_by_name:
                    return simple
                fn_key = self._function_for_dotted(dotted)
                if fn_key is not None:
                    target = self.project.functions[fn_key]
                    return _annotation_class(target.node.returns)
        if isinstance(func, ast.Attribute):
            owner = self._value_type(func.value)
            if owner is not None:
                method = self.project.lookup_method(owner, func.attr)
                if method is not None:
                    return _annotation_class(method.node.returns)
        return None

    def _value_type(self, node: ast.AST) -> Optional[str]:
        """Type of an arbitrary expression, when inferable.

        Covers names (parameters, annotated or constructor-assigned
        locals, including re-assignments), call results, conditional
        expressions, and attribute chains typed through
        :attr:`CallGraph.attr_types` (``self.telemetry.metrics`` →
        ``MetricRegistry``).
        """
        if isinstance(node, ast.Name):
            if node.id == "self" and self.fn is not None and self.fn.class_name:
                return self.local_types.get(node.id, self.fn.class_name)
            return self.local_types.get(node.id)
        if isinstance(node, ast.Call):
            return self._call_result_type(node)
        if isinstance(node, ast.IfExp):
            return self._value_type(node.body) or self._value_type(node.orelse)
        if isinstance(node, ast.Attribute):
            receiver = self._value_type(node.value)
            if receiver is not None:
                found = self.graph.attr_type(receiver, node.attr)
                if found is not None:
                    return found
            # A dotted reference to a project class (module.ClassName)
            # types as the class itself is not modelled; give up.
            return None
        if isinstance(node, ast.Await):
            return self._value_type(node.value)
        return None

    def receiver_type(self, node: ast.AST) -> Optional[str]:
        """:meth:`_value_type`, falling back to the enclosing class for
        a bare ``self``."""
        found = self._value_type(node)
        if found is None and is_self(node) and self.fn is not None:
            return self.fn.class_name
        return found

    def _resolve_call_targets(self, node: ast.Call) -> List[str]:
        func = node.func
        if isinstance(func, ast.Name):
            dotted = self.module.resolve(func)
            if dotted is None:
                return []
            simple = dotted.split(".")[-1]
            if (
                simple in self.project.classes_by_name
                and self._is_project_class_ref(dotted, simple)
            ):
                return self.graph.class_ctor_keys(simple)
            key = self._function_for_dotted(dotted)
            return [key] if key is not None else []
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute_call(func)
        return []

    def _is_project_class_ref(self, dotted: str, simple: str) -> bool:
        """Whether a dotted name plausibly refers to a project class."""
        if "." not in dotted:
            return simple in self.module.classes or dotted in self.module.imports
        return any(
            dotted == f"{cls.module}.{cls.name}"
            for cls in self.project.classes_by_name.get(simple, ())
        )

    def _resolve_attribute_call(
        self, func: ast.Attribute, record_type: bool = True
    ) -> List[str]:
        # self.method() / var.method() with an inferred receiver type.
        receiver = self.receiver_type(func.value)
        if receiver is not None:
            method = self.project.lookup_method(receiver, func.attr)
            if method is not None:
                return [method.key]
            return []
        # module.function() via an import alias.
        dotted = self.module.resolve(func)
        if dotted is not None:
            key = self._function_for_dotted(dotted)
            if key is not None:
                return [key]
        return []


def build_callgraph(project: Project) -> CallGraph:
    """Construct the project call graph in three passes.

    Pass 1 records parameter types for every function (so scans can
    type ``self`` and annotated parameters) plus class-body field
    annotations; pass 2 scans every body once to harvest instance-
    attribute types from ``self.x = ...`` writes; pass 3 re-walks the
    bodies collecting edges and ``Executor.submit`` targets with the
    full attribute-type table available, so attribute-chain receivers
    (``tel.metrics.counter(...)``) resolve regardless of scan order.
    """
    graph = CallGraph(project=project)
    for fn in project.iter_functions():
        params: Dict[str, str] = {}
        args = fn.node.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        for arg in all_args:
            cls = _annotation_class(arg.annotation)
            if cls is not None:
                params[arg.arg] = cls
        if all_args and all_args[0].arg == "self" and fn.class_name:
            params["self"] = fn.class_name
        graph.param_types[fn.key] = params
    for cls_info in project.iter_classes():
        for item in cls_info.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                annotated = _annotation_class(item.annotation)
                if annotated is not None:
                    graph.attr_types.setdefault(
                        (cls_info.name, item.target.id), annotated
                    )
    for collect_edges in (False, True):
        for fn in project.iter_functions():
            module = project.modules[fn.module]
            scanner = _visited_scanner(graph, fn, module)
            if collect_edges:
                graph.edges[fn.key] = scanner.callees
    return graph


def _visited_scanner(
    graph: CallGraph, fn: Optional[FunctionInfo], module: ModuleInfo
) -> FunctionScanner:
    scanner = FunctionScanner(graph, fn, module)
    body = fn.node.body if fn is not None else module.tree.body
    for statement in body:
        if fn is not None or not isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            scanner.visit(statement)
    return scanner


def shared_callgraph(project: Project) -> CallGraph:
    """One call graph per parsed project (every family shares it)."""
    return project.memo("callgraph", None, lambda: build_callgraph(project))


def shared_analysis(
    name: str, analysis: Callable[..., Any], project: Project, config: Hashable
) -> Any:
    """``analysis(project, graph, config).run()``, once per project and
    config: every rule of a family, and its report, share the result."""
    return project.memo(
        name,
        config,
        lambda: analysis(project, shared_callgraph(project), config).run(),
    )
