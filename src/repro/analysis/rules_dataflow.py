"""DATAFLOW family (RPL6xx): interprocedural provenance + locksets.

These rules consume the whole-program analyses in :mod:`.dataflow`.
Unlike the per-file RPL1xx/RPL2xx families they follow values across
modules: an unseeded generator laundered through a local, a dataclass
field, or a dict payload is still flagged when it finally reaches a
``Generator``-typed parameter — and a lock-guarded write is recognised
as guarded no matter which branch acquired the lock, as long as *every*
path did.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionScanner, shared_callgraph
from .config import LintConfig
from .core import Site, finding_at
from .dataflow import (
    CLOCK,
    RNG,
    analyze,
    compute_locksets,
    pool_entry_keys,
)
from .model import DATAFLOW, Finding, Rule, register
from .project import FunctionInfo, Project
from .rules_threadsafety import _MUTATORS

#: Methods allowed to write attributes without holding the lock: the
#: object is not yet (or no longer) shared while they run.
_UNSHARED_METHODS = {
    "__init__",
    "__post_init__",
    "__new__",
    "__setstate__",
    "__getstate__",
    "__reduce__",
}


@register
class RngProvenance(Rule):
    """RPL601: values reaching Generator-typed parameters must be
    seed-derived."""

    rule_id = "RPL601"
    name = "rng-provenance"
    family = DATAFLOW
    description = (
        "Every value flowing into a Generator/RNGLike-typed parameter "
        "must originate from resolve_rng, Generator.spawn, or an "
        "explicit seed — traced interprocedurally through locals, "
        "dataclass fields, dict payloads, and module globals."
    )
    autofix_hint = (
        "Derive the generator from the run seed (resolve_rng(seed, "
        "owner=...) or parent.spawn(n)) instead of drawing OS entropy."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = analyze(project, config)
        for hit in sorted(
            analysis.sink_hits, key=lambda h: (h.module, h.line, h.col)
        ):
            if hit.domain != RNG:
                continue
            yield finding_at(
                self,
                project,
                Site(hit.module, hit.line, hit.col, ""),
                f"value from {hit.taint.origin} (line {hit.taint.line}) "
                f"flows into seed-requiring parameter "
                f"{hit.param!r} of {hit.callee}()",
            )


@register
class ClockProvenance(Rule):
    """RPL602: only sanctioned clock instances may reach Clock sinks."""

    rule_id = "RPL602"
    name = "clock-provenance"
    family = DATAFLOW
    description = (
        "Only telemetry.clock instances (Clock subclasses or configured "
        "clock_classes) may flow into Clock-typed parameters; arbitrary "
        "project objects reaching a duration-consuming sink indicate a "
        "miswired time source."
    )
    autofix_hint = (
        "Pass a telemetry Clock (SimulatedClock for reproducible runs, "
        "WallClock only at the sanctioned boundary)."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = analyze(project, config)
        for hit in sorted(
            analysis.sink_hits, key=lambda h: (h.module, h.line, h.col)
        ):
            if hit.domain != CLOCK:
                continue
            yield finding_at(
                self,
                project,
                Site(hit.module, hit.line, hit.col, ""),
                f"{hit.taint.origin} (line {hit.taint.line}) is not a "
                f"Clock but flows into Clock-typed parameter "
                f"{hit.param!r} of {hit.callee}()",
            )


@register
class LocksetDiscipline(Rule):
    """RPL603: pool-shared attribute writes must hold a lock on all
    paths."""

    rule_id = "RPL603"
    name = "lockset-discipline"
    family = DATAFLOW
    description = (
        "Attribute writes on lock-guarded shared objects (guarded_classes "
        "methods, and writes to guarded instances inside functions "
        "reachable from the thread-pool entry points) must happen while "
        "a lock is definitely held — computed by per-path lockset "
        "intersection, so a lock acquired on only one branch does not "
        "count."
    )
    autofix_hint = (
        "Wrap the write in `with self._lock:` (or acquire the guarding "
        "lock on every path leading to it)."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        graph = shared_callgraph(project)
        guarded = set(config.guarded_classes)
        checked: Set[str] = set()
        findings: List[Finding] = []

        # (a) Methods of self-guarding classes: every self.* write needs
        # the instance lock.
        for cls_name in sorted(guarded):
            for info in project.classes_by_name.get(cls_name, ()):
                for method in info.methods.values():
                    if method.simple_name in _UNSHARED_METHODS:
                        continue
                    checked.add(method.key)
                    findings.extend(
                        self._check_function(
                            project, graph, method, guarded, self_guarded=True
                        )
                    )

        # (b) Functions running on pool threads: writes to guarded-typed
        # objects (parameters, locals, attribute chains) need a lock.
        entries = pool_entry_keys(project, graph, config)
        for key in sorted(graph.reachable_from(entries)):
            fn = project.functions.get(key)
            if fn is None or fn.key in checked:
                continue
            findings.extend(
                self._check_function(
                    project, graph, fn, guarded, self_guarded=False
                )
            )
        yield from findings

    def _check_function(
        self,
        project: Project,
        graph: CallGraph,
        fn: FunctionInfo,
        guarded: Set[str],
        self_guarded: bool,
    ) -> Iterator[Finding]:
        locksets = compute_locksets(graph, fn)
        scanner = locksets.scanner
        for node in ast.walk(fn.node):
            write = self._write_target(node)
            if write is None:
                continue
            target, verb = write
            receiver = self._guarded_receiver(
                scanner, fn, target, guarded, self_guarded
            )
            if receiver is None:
                continue
            if locksets.held_at(node):
                continue
            yield self.finding(
                project,
                fn.module,
                node,
                f"{verb} on shared {receiver} instance in "
                f"{fn.qualname}() without a lock held on all paths",
            )

    @staticmethod
    def _container_owner(expr: ast.AST) -> ast.AST:
        """``self.entries[k] = v`` writes a container *owned by* self:
        unwrap one attribute hop so the shared object is the owner."""
        if isinstance(expr, ast.Attribute):
            return expr.value
        return expr

    @classmethod
    def _write_target(cls, node: ast.AST) -> Optional[Tuple[ast.AST, str]]:
        """(written-receiver expression, verb) for a mutation node."""
        if isinstance(node, (ast.Assign,)):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    return target.value, "attribute write"
                if isinstance(target, ast.Subscript):
                    return cls._container_owner(target.value), "item write"
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Attribute):
                return node.target.value, "augmented write"
            if isinstance(node.target, ast.Subscript):
                return (
                    cls._container_owner(node.target.value),
                    "augmented item write",
                )
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Attribute):
                return node.target.value, "attribute write"
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Attribute)
            ):
                # self._items.append(...) mutates the container held in
                # an attribute: the *owner* of the attribute is shared.
                return func.value.value, f"container .{func.attr}()"
        return None

    @staticmethod
    def _guarded_receiver(
        scanner: FunctionScanner,
        fn: FunctionInfo,
        target: ast.AST,
        guarded: Set[str],
        self_guarded: bool,
    ) -> Optional[str]:
        """Guarded class name the written object belongs to, if any."""
        if isinstance(target, ast.Name) and target.id == "self":
            if fn.simple_name in _UNSHARED_METHODS:
                # The object under construction (or deserialization) is
                # not shared yet, even when the constructor itself runs
                # on a pool thread.
                return None
            if self_guarded:
                return fn.class_name
        inferred = scanner._value_type(target)
        if inferred in guarded:
            return inferred
        return None
