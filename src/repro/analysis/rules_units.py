"""UNITS family (RPL7xx): unit-domain and interval invariants.

These rules consume the abstract interpretation in :mod:`.units`.  The
pass assigns every expression a unit domain (``Cores``, ``UnitCube``,
``Seconds``, ``Millis``, ...) plus an interval, propagated
interprocedurally, so a milliseconds target compared against a seconds
measurement — or a raw allocation vector flowing into a unit-cube
API — is flagged no matter how many assignments, fields, or calls it
was laundered through.  RPL705 closes the loop at the source: every
signature in the ``[tool.repro-lint.units]`` registry must carry its
quantity alias, so the annotations the interpreter trusts actually
exist.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from .callgraph import _annotation_class
from .config import LintConfig
from .core import Site, finding_at
from .model import UNITS, Finding, Rule, register
from .project import Project
from .units import (
    CAPACITY,
    CROSS,
    CUBE,
    DOMAINS,
    TIME_COMPARE,
    analyze_units,
    in_units_scope,
    parse_registry,
)

#: Annotations RPL705 rejects on a registered signature: the bare
#: numeric types a quantity alias exists to replace.
_BARE_NUMERIC = {"float", "int"}


def _hit_findings(
    rule: Rule, project: Project, config: LintConfig, kind: str
) -> Iterator[Finding]:
    analysis = analyze_units(project, config)
    for hit in sorted(
        analysis.hits, key=lambda h: (h.module, h.line, h.col, h.message)
    ):
        if hit.kind != kind:
            continue
        site = Site(hit.module, hit.line, hit.col, "")
        yield finding_at(rule, project, site, hit.message)


@register
class CrossDomainArithmetic(Rule):
    """RPL701: arithmetic/assignment must stay inside one unit domain."""

    rule_id = "RPL701"
    name = "units-cross-domain"
    family = UNITS
    description = (
        "Adding, subtracting, comparing (non-time), returning, or "
        "binding a value whose inferred unit domain differs from the "
        "declared one — Seconds into Millis arithmetic, a CacheWays "
        "count into a Cores parameter, a raw allocation into a "
        "UnitCube-typed API.  Dimensionless/Fraction scalars and "
        "unknown (⊤) values never flag."
    )
    autofix_hint = (
        "Convert explicitly (to_seconds/to_millis, to_unit_cube) or fix "
        "the annotation so both sides share one quantity alias from "
        "repro.core.units."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        yield from _hit_findings(self, project, config, CROSS)


@register
class UnitCubeEscape(Rule):
    """RPL702: values bound to UnitCube parameters must stay in [0, 1]."""

    rule_id = "RPL702"
    name = "units-cube-escape"
    family = UNITS
    description = (
        "Interval analysis proves a value fed to a UnitCube-typed "
        "parameter (from_unit_cube and friends) can leave [0, 1]; only "
        "finite bound evidence flags, so unknown values pass."
    )
    autofix_hint = (
        "Clamp with np.clip(x, 0.0, 1.0) (the optimizer's _round/"
        "_project_feasible idiom) or renormalize before crossing the "
        "cube boundary."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        yield from _hit_findings(self, project, config, CUBE)


@register
class CapacityViolation(Rule):
    """RPL703: literal partitions must satisfy the Eq. 5/6 bounds."""

    rule_id = "RPL703"
    name = "units-capacity"
    family = UNITS
    description = (
        "A literal allocation matrix at a partition constructor "
        "(Configuration.from_matrix / Configuration(...)) provably "
        "violates Eq. 5 (every job gets >= 1 unit of every resource) "
        "or, when units-capacities is configured, the Eq. 6 capacity "
        "column sums."
    )
    autofix_hint = (
        "Give every job at least one unit per resource and make each "
        "resource column sum to its capacity (see "
        "resources.contracts.check_partition_matrix)."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        yield from _hit_findings(self, project, config, CAPACITY)


@register
class UnconvertedTimeComparison(Rule):
    """RPL704: comparisons must not mix Seconds with Millis."""

    rule_id = "RPL704"
    name = "units-time-compare"
    family = UNITS
    description = (
        "A comparison mixes a Seconds-domain value with a Millis-domain "
        "value without an explicit to_seconds()/to_millis() conversion "
        "(or the literal *1000.0 idiom) — the classic silently-wrong "
        "QoS check, off by three orders of magnitude."
    )
    autofix_hint = (
        "Convert one side explicitly with to_seconds()/to_millis() from "
        "repro.core.units so both sides share a time domain."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        yield from _hit_findings(self, project, config, TIME_COMPARE)


@register
class UnitlessBoundary(Rule):
    """RPL705: registered partition-math signatures carry their alias."""

    rule_id = "RPL705"
    name = "units-unitless-boundary"
    family = UNITS
    description = (
        "A signature registered in [tool.repro-lint.units] takes or "
        "returns a bare float/int (or nothing) where a quantity alias "
        "is registered — the annotation the abstract interpreter "
        "trusts at that boundary is missing, inside the configured "
        "units-modules scope."
    )
    autofix_hint = (
        "Annotate the parameter/return with the registered alias from "
        "repro.core.units (e.g. `-> Millis`, `window_s: Seconds`)."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        registry = parse_registry(config)
        if not registry:
            return
        by_qualname: Dict[str, List[Tuple[str, str]]] = {}
        for (qualname, part), domain in registry.items():
            by_qualname.setdefault(qualname, []).append((part, domain))
        findings: List[Finding] = []
        for fn in project.iter_functions():
            parts = by_qualname.get(fn.qualname)
            if parts is None:
                continue
            module = project.modules[fn.module]
            if not in_units_scope(config, str(module.display_path)):
                continue
            for part, domain in sorted(parts):
                annotation = self._annotation_for(fn.node, part)
                if annotation is None:
                    continue  # parameter not present on this overload
                cls = _annotation_class(annotation)
                if cls in DOMAINS:
                    continue
                if annotation is _MISSING or cls in _BARE_NUMERIC:
                    what = (
                        "return value" if part == "return" else f"parameter {part!r}"
                    )
                    found = "missing" if annotation is _MISSING else f"bare {cls}"
                    findings.append(
                        self.finding(
                            project,
                            fn.module,
                            fn.node,
                            f"{fn.qualname}() is registered with "
                            f"{what} = {domain} but the annotation is "
                            f"{found}",
                        )
                    )
        yield from sorted(findings, key=lambda f: (f.path, f.line, f.message))

    @staticmethod
    def _annotation_for(node: ast.FunctionDef, part: str):
        """Annotation AST for a parameter name or ``"return"``.

        Returns the sentinel ``_MISSING`` when the slot exists but has
        no annotation, and ``None`` when the parameter does not exist
        (a registry entry for another class's same-named method).
        """
        if part == "return":
            return node.returns if node.returns is not None else _MISSING
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg == part:
                return (
                    arg.annotation if arg.annotation is not None else _MISSING
                )
        return None


#: Sentinel distinguishing "annotation absent" from "parameter absent".
_MISSING = object()
