"""Telemetry rules (RPL5xx).

The telemetry subsystem stays near-free when disabled and analyzable
when enabled only if it is used uniformly: metric series names follow
one grammar (exporters and the ``repro-trace`` CLI key on them), and
spans are always context-managed so every span that opens also closes
— including on the exception paths the QoS repair loop exercises.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..telemetry.metrics import METRIC_NAME_RE
from .config import LintConfig
from .model import TELEMETRY, Finding, Rule, register
from .project import Project

#: MetricRegistry factory methods whose first argument is a series name.
_INSTRUMENT_FACTORIES = {"counter", "gauge", "histogram"}


def _receiver_mentions_tracer(func: ast.Attribute) -> bool:
    """True when the attribute chain under ``func`` names a tracer.

    Matches the package's access idioms — ``tracer.span``,
    ``self._tracer.span``, ``telemetry.tracer.span`` — while leaving
    unrelated ``.span(...)`` methods on other objects alone.
    """
    current: Optional[ast.AST] = func.value
    while current is not None:
        if isinstance(current, ast.Attribute):
            if "tracer" in current.attr.lower():
                return True
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        elif isinstance(current, ast.Name):
            return "tracer" in current.id.lower()
        else:
            return False
    return False


@register
class MetricNameFormat(Rule):
    rule_id = "RPL501"
    name = "metric-name-format"
    family = TELEMETRY
    description = (
        "Metric series name literal does not match the telemetry "
        "grammar ^[a-z][a-z0-9_.]*$: exporters and repro-trace key "
        "series by name, so one stray capital, space, or hyphen forks "
        "the namespace (MetricRegistry also rejects it at runtime)."
    )
    autofix_hint = (
        "Rename the series to lowercase dotted form ('engine.samples', "
        "'node.cache.hits'); put variable parts in **labels, never in "
        "the name."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        for module, call in project.iter_calls():
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _INSTRUMENT_FACTORIES or not call.args:
                continue
            first = call.args[0]
            if not isinstance(first, ast.Constant):
                continue
            if not isinstance(first.value, str):
                continue
            if METRIC_NAME_RE.match(first.value):
                continue
            yield self.finding(
                project,
                module.name,
                first,
                f"metric name {first.value!r} passed to .{func.attr}() "
                f"does not match {METRIC_NAME_RE.pattern}",
            )


@register
class SpanNotContextManaged(Rule):
    rule_id = "RPL502"
    name = "span-without-with"
    family = TELEMETRY
    description = (
        "Tracer span opened without a `with` block: a bare "
        "tracer.span(...) call returns a context manager that is never "
        "entered (no timing) or, if entered manually, leaks open on "
        "exceptions and corrupts the per-thread span stack."
    )
    autofix_hint = (
        "Open spans as `with tracer.span(...) as span:` (or via "
        "ExitStack.enter_context when lifetimes genuinely cross scopes)."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        for module in project.modules.values():
            managed: Set[ast.AST] = set()
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        managed.add(item.context_expr)
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = (
                        func.attr
                        if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None)
                    )
                    if name == "enter_context":
                        managed.update(node.args)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call) or node in managed:
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute) or func.attr != "span":
                    continue
                if not _receiver_mentions_tracer(func):
                    continue
                yield self.finding(
                    project,
                    module.name,
                    node,
                    "tracer span opened outside a `with` statement",
                )
