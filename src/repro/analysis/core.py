"""Shared pieces of the interprocedural analysis families.

Every family (RPL6xx dataflow, RPL8xx flow, RPL9xx pure, RPL10xx cost)
anchors its results at a :class:`Site`, renders source snippets with
:func:`expr_text`, turns sites into findings with :func:`finding_at`,
and — for flow, pure and cost — closes per-function harvests over the
call graph with :class:`CallClosure`.  The per-project
memo lives on :class:`~.project.Project` (``Project.memo``) and the
dotted-name resolver on ``Project.resolve_dotted``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from .model import Finding
from .project import FunctionInfo, Project

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .model import Rule

T = TypeVar("T")


@dataclass(frozen=True)
class Site:
    """One source location inside one function."""

    module: str   # dotted module name
    line: int
    col: int
    fn_key: str   # "module:qualname" of the enclosing function


@dataclass(frozen=True)
class RegistryHit:
    """A registry entry (RPL905, RPL1005) that is stale or malformed."""

    entry: str
    table: str    # "registry" | "probe-entrypoints" | "budgets" | ...
    module: str   # the project module the entry points into
    site: Site
    detail: str = ""


def registry_hit(
    project: Project, entry: str, table: str, detail: str = ""
) -> Optional[RegistryHit]:
    """A hit at the top of the module ``entry`` points into, or ``None``
    when that module is not part of this run."""
    module = project.owning_module(entry)
    if module is None:
        return None
    site = Site(module=module, line=1, col=0, fn_key="")
    return RegistryHit(entry, table, module, site, detail)


def site_of(fn: FunctionInfo, node: ast.AST) -> Site:
    """The site of ``node`` inside ``fn`` (the def line when unknown)."""
    return Site(
        module=fn.module,
        line=getattr(node, "lineno", fn.node.lineno),
        col=getattr(node, "col_offset", 0),
        fn_key=fn.key,
    )


def expr_text(node: ast.AST, limit: int = 60) -> str:
    """Source text of an expression, truncated to ``limit`` characters."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        text = type(node).__name__
    return text if len(text) <= limit else text[: limit - 3] + "..."


def param_names(fn: FunctionInfo) -> List[str]:
    """Positional, regular and keyword-only parameter names, in order."""
    args = fn.node.args
    return [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]


#: Longest callee chain an imported effect/cost term remembers.
VIA_LIMIT = 8


def via(callee: FunctionInfo, chain: Tuple[str, ...]) -> Tuple[str, ...]:
    """``chain`` as seen from a caller of ``callee``, capped."""
    return ((callee.qualname,) + chain)[:VIA_LIMIT]


def passed_value(
    callee: FunctionInfo,
    name: str,
    args: Sequence[Optional[T]],
    keywords: Iterable[Tuple[str, Optional[T]]],
) -> Optional[T]:
    """What a call site passes for ``callee``'s parameter ``name``,
    given per-argument caller-frame values; ``None`` when the parameter
    is left to its default."""
    for keyword, value in keywords:
        if keyword == name:
            return value
    params = param_names(callee)
    if params[:1] in (["self"], ["cls"]):
        params = params[1:]  # a bound method's receiver is not an arg
    if name in params and params.index(name) < len(args):
        return args[params.index(name)]
    return None


def suppressed(project: Project, rule_id: str, site: Site) -> bool:
    """Whether a suppression comment silences ``rule_id`` at ``site``."""
    module = project.modules.get(site.module)
    return module is not None and module.suppressed(rule_id, site.line)


def finding_at(
    rule: "Rule", project: Project, site: Site, message: str
) -> Finding:
    """A finding of ``rule`` anchored at an analysis site."""
    module = project.modules.get(site.module)
    return Finding(
        rule_id=rule.rule_id,
        path=str(module.display_path) if module is not None else site.module,
        line=site.line,
        col=site.col,
        message=message,
        hint=rule.autofix_hint,
    )


def fn_name(project: Project, key: str) -> str:
    """Qualname of a function key (the key's tail if it is unknown)."""
    fn = project.functions.get(key)
    return fn.qualname if fn is not None else key.split(":")[-1]


def fn_label(project: Project, key: str) -> str:
    """``module:qualname`` of a function key, as the reports print it."""
    fn = project.functions.get(key)
    if fn is None:
        return key
    return f"{fn.module}:{fn.qualname}"


def strongly_connected(adjacency: Dict[str, Set[str]]) -> List[Set[str]]:
    """Tarjan's SCC algorithm, iterative (no recursion limit games).

    Components come out in reverse topological order: every component
    is emitted after all the components it has edges into.
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[Set[str]] = []
    counter = [0]

    for root in sorted(adjacency):
        if root in index:
            continue
        work: List[Tuple[str, List[str]]] = [
            (root, sorted(adjacency.get(root, ())))
        ]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            if children:
                child = children.pop(0)
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, sorted(adjacency.get(child, ()))))
                elif child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: Set[str] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
    return components


Item = TypeVar("Item")
Call = TypeVar("Call")


class CallClosure(Generic[Item, Call]):
    """Memoized call-graph closure of per-function summaries.

    A function's closed summary is ``finish`` applied to its own items
    followed by every callee's closed items, each passed through
    ``bind(item, call, callee_key)`` to translate it into the caller's
    frame (``None`` drops it).  ``calls(key)`` yields the ``(call,
    callee_key)`` pairs to follow, in order.

    Each strongly connected component of the call graph is closed as a
    unit: its members are re-evaluated together, from empty summaries,
    once per member (enough for an item to travel every simple path in
    the component), stopping early when nothing changes.  So the answer
    for a function on a call cycle does not depend on which function
    was asked for first.
    """

    def __init__(
        self,
        own: Callable[[str], Iterable[Item]],
        calls: Callable[[str], Iterable[Tuple[Call, str]]],
        bind: Callable[[Item, Call, str], Optional[Item]],
        finish: Callable[[List[Item]], Collection[Item]],
    ) -> None:
        self._own = own
        self._calls = calls
        self._bind = bind
        self._finish = finish
        self._closed: Dict[str, Collection[Item]] = {}

    def __call__(self, key: str) -> Collection[Item]:
        found = self._closed.get(key)
        if found is None:
            for component in strongly_connected(self._open_subgraph(key)):
                self._close_component(component)
            found = self._closed[key]
        return found

    def _open_subgraph(self, root: str) -> Dict[str, Set[str]]:
        """Call edges among the not-yet-closed functions below ``root``."""
        adjacency: Dict[str, Set[str]] = {}
        queue = [root]
        while queue:
            key = queue.pop()
            if key in adjacency:
                continue
            callees = {
                callee
                for _, callee in self._calls(key)
                if callee not in self._closed
            }
            adjacency[key] = callees
            queue.extend(callees - adjacency.keys())
        return adjacency

    def _summary(
        self, key: str, current: Dict[str, Collection[Item]]
    ) -> Collection[Item]:
        items = list(self._own(key))
        for call, callee in self._calls(key):
            closed = current.get(callee)
            for item in self._closed[callee] if closed is None else closed:
                bound = self._bind(item, call, callee)
                if bound is not None:
                    items.append(bound)
        return self._finish(items)

    def _close_component(self, component: Set[str]) -> None:
        members = sorted(component)
        current = {key: self._finish([]) for key in members}
        for _ in members:
            updated = {key: self._summary(key, current) for key in members}
            if updated == current:
                break
            current = updated
        self._closed.update(current)
