"""Units-and-bounds abstract interpretation (UNITS family, RPL7xx).

CLITE's control loop mixes quantities whose units are mutually
incompatible: discrete resource units (cores, LLC ways, membw slices;
Eqs. 5-6), normalized unit-cube coordinates in [0, 1], latencies in
*both* seconds and milliseconds, per-second rates, and dimensionless
fractions.  The runtime contracts from PR 2 only catch the subset a
test happens to execute; this pass closes the class statically.

Every expression is assigned an abstract value — a unit *domain*
(``Cores``, ``CacheWays``, ``MembwUnits``, ``UnitCube``, ``Seconds``,
``Millis``, ``Rate``, ``Fraction``, ``Dimensionless``, or ⊤ for
unknown) plus a numeric interval — seeded from the quantity aliases in
:mod:`repro.core.units` (read off real annotations) and the
``[tool.repro-lint.units]`` registry, then propagated
interprocedurally over the PR-4 call graph to a fixpoint (function
returns, instance fields, module globals), exactly like the RPL6xx
taint pass.  A final reporting pass collects typed hits for the rules
in :mod:`.rules_units`:

* cross-domain arithmetic and mis-domained call/return/annotation
  boundaries (RPL701),
* provable unit-cube range escapes at ``from_unit_cube*``-style
  ``UnitCube`` parameters (RPL702),
* partition literals that provably violate the Eq. 5 floor or the
  Eq. 6 capacity sums (RPL703),
* comparisons mixing ``Seconds`` with ``Millis`` (RPL704).

The interpreter understands the two sanctioned conversion idioms — an
explicit :func:`repro.core.units.to_seconds` / ``to_millis`` call, or
multiplying/dividing by a literal 1000 — so ``total_s * 1000.0``
correctly *becomes* ``Millis`` instead of flagging.  Everything is
conservative: ⊤ and scalar (``Dimensionless``/``Fraction``) operands
never flag, intervals only prove an escape when both the offending
bound and the evidence are finite, so the pass only reports flows it
can actually justify.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph, _annotation_class, shared_analysis
from .config import LintConfig
from .interp import FrameInterpreter, SummaryAnalysis
from .project import FunctionInfo, Project, is_self

INF = math.inf

# ----------------------------------------------------------------------
# The unit-domain lattice
# ----------------------------------------------------------------------
CORES = "Cores"
CACHE_WAYS = "CacheWays"
MEMBW_UNITS = "MembwUnits"
UNIT_CUBE = "UnitCube"
SECONDS = "Seconds"
MILLIS = "Millis"
RATE = "Rate"
FRACTION = "Fraction"
DIMENSIONLESS = "Dimensionless"
TOP = "?"  # unknown domain: never participates in a finding

DOMAINS = frozenset(
    {
        CORES,
        CACHE_WAYS,
        MEMBW_UNITS,
        UNIT_CUBE,
        SECONDS,
        MILLIS,
        RATE,
        FRACTION,
        DIMENSIONLESS,
    }
)

#: Domains that act as pure scalars under arithmetic: combining them
#: with a unit-bearing value preserves the unit and never flags.
_SCALARS = frozenset({DIMENSIONLESS, FRACTION})

#: The two time domains; mixing them is RPL701 (arithmetic) / RPL704
#: (comparison) unless converted through to_seconds/to_millis or a
#: literal 1000 factor.
_TIME = frozenset({SECONDS, MILLIS})

#: Default interval each domain guarantees at a trusted boundary
#: (annotated parameter / registry entry), mirroring the runtime
#: contracts: allocations are >= 1 unit (Eq. 5), cube coordinates and
#: fractions live in [0, 1], times and rates are non-negative.
_DOMAIN_RANGES: Dict[str, Tuple[float, float]] = {
    CORES: (1.0, INF),
    CACHE_WAYS: (1.0, INF),
    MEMBW_UNITS: (1.0, INF),
    UNIT_CUBE: (0.0, 1.0),
    FRACTION: (0.0, 1.0),
    SECONDS: (0.0, INF),
    MILLIS: (0.0, INF),
    RATE: (0.0, INF),
    DIMENSIONLESS: (-INF, INF),
}

MS_PER_S = 1000.0

#: Dotted constants the interpreter knows exactly.
_DOTTED_CONSTS: Dict[str, Tuple[float, float]] = {
    "math.inf": (INF, INF),
    "numpy.inf": (INF, INF),
    "math.pi": (math.pi, math.pi),
    "numpy.pi": (math.pi, math.pi),
    "math.e": (math.e, math.e),
    "math.tau": (math.tau, math.tau),
}


@dataclass(frozen=True)
class UnitValue:
    """Abstract value: a unit domain plus a numeric interval."""

    domain: str
    lo: float = -INF
    hi: float = INF

    @property
    def is_top(self) -> bool:
        return self.domain == TOP

    @property
    def is_scalar(self) -> bool:
        return self.domain in _SCALARS

    @property
    def is_unit(self) -> bool:
        """Concrete, unit-bearing (flaggable) domain."""
        return self.domain in DOMAINS and self.domain not in _SCALARS

    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi and math.isfinite(self.lo)


UNKNOWN = UnitValue(TOP)


def from_domain(domain: str) -> UnitValue:
    lo, hi = _DOMAIN_RANGES.get(domain, (-INF, INF))
    return UnitValue(domain, lo, hi)


def join(a: UnitValue, b: UnitValue) -> UnitValue:
    """Least upper bound: interval hull + domain merge.

    A plain ``Dimensionless`` constant merging with a unit-bearing
    value keeps the unit (``x = 0.0`` on one branch, ``x = window_s``
    on the other); two *different* unit-bearing domains merge to ⊤.
    """
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    if a.domain == b.domain:
        domain = a.domain
    elif a.is_top or b.is_top:
        domain = TOP
    elif a.domain == DIMENSIONLESS:
        domain = b.domain
    elif b.domain == DIMENSIONLESS:
        domain = a.domain
    else:
        domain = TOP
    return UnitValue(domain, lo, hi)


# ----------------------------------------------------------------------
# Interval arithmetic (nan-safe: indeterminate forms widen to the line)
# ----------------------------------------------------------------------
def _sane(lo: float, hi: float) -> Tuple[float, float]:
    if math.isnan(lo):
        lo = -INF
    if math.isnan(hi):
        hi = INF
    if lo > hi:
        return (-INF, INF)
    return (lo, hi)


def _iv_add(a: UnitValue, b: UnitValue) -> Tuple[float, float]:
    return _sane(a.lo + b.lo, a.hi + b.hi)


def _iv_sub(a: UnitValue, b: UnitValue) -> Tuple[float, float]:
    return _sane(a.lo - b.hi, a.hi - b.lo)


def _prod(x: float, y: float) -> float:
    if x == 0.0 or y == 0.0:
        return 0.0  # interval-arithmetic convention: 0 * inf == 0
    return x * y


def _iv_mul(a: UnitValue, b: UnitValue) -> Tuple[float, float]:
    products = [
        _prod(a.lo, b.lo),
        _prod(a.lo, b.hi),
        _prod(a.hi, b.lo),
        _prod(a.hi, b.hi),
    ]
    if any(math.isnan(p) for p in products):
        return (-INF, INF)
    return _sane(min(products), max(products))


def _iv_div(a: UnitValue, b: UnitValue) -> Tuple[float, float]:
    if b.lo <= 0.0 <= b.hi:
        return (-INF, INF)
    quotients = []
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            if x == 0.0:
                quotients.append(0.0)
                continue
            q = x / y
            if math.isnan(q):
                return (-INF, INF)
            quotients.append(q)
    return _sane(min(quotients), max(quotients))


def _iv_scale(v: UnitValue, factor: float) -> Tuple[float, float]:
    lo, hi = _prod(v.lo, factor), _prod(v.hi, factor)
    if factor < 0:
        lo, hi = hi, lo
    return _sane(lo, hi)


def _const_factor(v: UnitValue) -> Optional[float]:
    """The exact value of a dimensionless constant, else ``None``."""
    if v.domain == DIMENSIONLESS and v.is_constant:
        return v.lo
    return None


def _time_scale(domain: str, factor: float) -> Optional[str]:
    """Time domain produced by multiplying ``domain`` by ``factor``."""
    if domain == SECONDS and factor == MS_PER_S:
        return MILLIS
    if domain == MILLIS and abs(factor - 1.0 / MS_PER_S) < 1e-15:
        return SECONDS
    return None


# ----------------------------------------------------------------------
# Registry + hits
# ----------------------------------------------------------------------
def parse_registry(config: LintConfig) -> Dict[Tuple[str, str], str]:
    """``"Qualname.param=Domain"`` entries -> {(qualname, part): domain}.

    ``part`` is a parameter name or the literal ``"return"``.  Entries
    naming an unknown domain are skipped (the analysis must stay
    conservative, never crash on config).
    """
    table: Dict[Tuple[str, str], str] = {}
    for entry in config.units:
        key, sep, domain = entry.rpartition("=")
        if not sep or domain.strip() not in DOMAINS:
            continue
        qualname, dot, part = key.strip().rpartition(".")
        if not dot or not qualname or not part:
            continue
        table[(qualname, part)] = domain.strip()
    return table


def parse_capacities(config: LintConfig) -> Tuple[float, ...]:
    """``"name=value"`` column capacities, in configured order."""
    out: List[float] = []
    for entry in config.units_capacities:
        _, sep, value = entry.rpartition("=")
        if not sep:
            continue
        try:
            out.append(float(value))
        except ValueError:
            continue
    return tuple(out)


def in_units_scope(config: LintConfig, display_path: str) -> bool:
    """Whether a module is inside the configured partition-math scope."""
    return any(prefix in display_path for prefix in config.units_modules)


def admits_partition(
    cells: Sequence[Sequence[Tuple[float, float]]],
    capacities: Sequence[float] = (),
) -> Tuple[bool, str]:
    """Whether an interval matrix *may* be a valid partition.

    ``cells`` holds one ``(lo, hi)`` interval per matrix entry (exact
    values are degenerate intervals).  Returns ``(False, reason)`` only
    on a *proven* violation — an entry provably below the Eq. 5 floor
    of one unit, or a column whose interval sum provably misses the
    Eq. 6 capacity — so every partition the runtime contracts accept
    is admitted here.
    """
    for i, row in enumerate(cells):
        for j, (_, hi) in enumerate(row):
            if hi < 1.0:
                return False, (
                    f"entry ({i}, {j}) is provably below the Eq. 5 floor "
                    f"of 1 unit (at most {hi:g})"
                )
    if capacities and cells and len(capacities) == len(cells[0]):
        for j, cap in enumerate(capacities):
            lo = sum(row[j][0] for row in cells)
            hi = sum(row[j][1] for row in cells)
            if cap < lo or cap > hi:
                return False, (
                    f"column {j} sums to [{lo:g}, {hi:g}] units but the "
                    f"configured capacity is {cap:g} (Eq. 6)"
                )
    return True, ""


#: Hit kinds consumed by the RPL7xx rules.
CROSS = "cross"        # RPL701
CUBE = "cube"          # RPL702
CAPACITY = "capacity"  # RPL703
TIME_COMPARE = "time"  # RPL704


@dataclass(frozen=True)
class UnitHit:
    """One proven unit/bounds violation at a source location."""

    kind: str
    module: str
    line: int
    col: int
    message: str


# ----------------------------------------------------------------------
# Per-function abstract interpreter
# ----------------------------------------------------------------------
class _UnitsFlow(FrameInterpreter[UnitValue]):
    """Interprets one function (or module) body over the unit lattice."""

    analysis: "UnitsAnalysis"

    # -- hit recording ---------------------------------------------------
    def _hit(self, kind: str, node: ast.AST, message: str) -> None:
        if not self.report:
            return
        self.analysis.hits.add(
            UnitHit(
                kind=kind,
                module=self.module.name,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    @staticmethod
    def _incompatible(a: UnitValue, b: UnitValue) -> bool:
        return a.is_unit and b.is_unit and a.domain != b.domain

    # -- expression evaluation ------------------------------------------
    def eval(self, node: Optional[ast.AST]) -> UnitValue:
        if node is None:
            return UNKNOWN
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            found = self._global(node.id)
            return found if found is not None else UNKNOWN
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return UNKNOWN
            return UnitValue(DIMENSIONLESS, float(value), float(value))
        if isinstance(node, ast.UnaryOp):
            inner = self.eval(node.operand)
            if isinstance(node.op, ast.USub):
                return UnitValue(inner.domain, *_sane(-inner.hi, -inner.lo))
            if isinstance(node.op, ast.UAdd):
                return inner
            if isinstance(node.op, ast.Not):
                return UnitValue(DIMENSIONLESS, 0.0, 1.0)
            return UNKNOWN
        if isinstance(node, ast.BinOp):
            return self._combine(
                node.op, self.eval(node.left), self.eval(node.right), node
            )
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Subscript):
            # Arrays/sequences are summarized by their element value, so
            # an element read keeps the container's domain.
            self.eval(node.slice)
            return self.eval(node.value)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.BoolOp):
            out: Optional[UnitValue] = None
            for value_node in node.values:
                value = self.eval(value_node)
                out = value if out is None else join(out, value)
            return out if out is not None else UNKNOWN
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self.eval(element)
            return UNKNOWN
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.eval(key)
            for value_node in node.values:
                self.eval(value_node)
            return UNKNOWN
        if isinstance(node, ast.Starred):
            self.eval(node.value)
            return UNKNOWN
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = value
            return value
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for generator in node.generators:
                self.eval(generator.iter)
            # The element expression may reference comprehension-local
            # names; evaluate it for checks with those names unknown.
            self.eval(node.elt)
            return UNKNOWN
        return UNKNOWN

    # -- arithmetic ------------------------------------------------------
    def _combine(
        self, op: ast.operator, a: UnitValue, b: UnitValue, node: ast.AST
    ) -> UnitValue:
        if isinstance(op, (ast.Add, ast.Sub)):
            if self._incompatible(a, b):
                verb = "+" if isinstance(op, ast.Add) else "-"
                self._hit(
                    CROSS,
                    node,
                    f"cross-domain arithmetic: {a.domain} {verb} {b.domain}",
                )
            interval = _iv_add(a, b) if isinstance(op, ast.Add) else _iv_sub(a, b)
            return UnitValue(self._additive_domain(a, b), *interval)
        if isinstance(op, ast.Mult):
            return self._multiply(a, b)
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            return self._divide(a, b)
        if isinstance(op, ast.Mod):
            if b.is_scalar or b.is_top:
                return UnitValue(a.domain, -INF, INF)
            return UNKNOWN
        return UNKNOWN

    @staticmethod
    def _additive_domain(a: UnitValue, b: UnitValue) -> str:
        if a.domain == b.domain:
            return a.domain
        if a.is_top or b.is_top:
            return TOP
        if a.is_scalar:
            return b.domain
        if b.is_scalar:
            return a.domain
        return TOP

    def _multiply(self, a: UnitValue, b: UnitValue) -> UnitValue:
        interval = _iv_mul(a, b)
        factor_b = _const_factor(b)
        if a.domain in _TIME and factor_b is not None:
            converted = _time_scale(a.domain, factor_b)
            if converted is not None:
                return UnitValue(converted, *interval)
        factor_a = _const_factor(a)
        if b.domain in _TIME and factor_a is not None:
            converted = _time_scale(b.domain, factor_a)
            if converted is not None:
                return UnitValue(converted, *interval)
        if {a.domain, b.domain} == {RATE, SECONDS}:
            return UnitValue(DIMENSIONLESS, *interval)  # qps * s = count
        if a.domain == b.domain == FRACTION:
            return UnitValue(FRACTION, *interval)
        if a.domain == b.domain == DIMENSIONLESS:
            return UnitValue(DIMENSIONLESS, *interval)
        if a.is_scalar and not b.is_top:
            return UnitValue(b.domain, *interval)
        if b.is_scalar and not a.is_top:
            return UnitValue(a.domain, *interval)
        return UnitValue(TOP, *interval)

    def _divide(self, a: UnitValue, b: UnitValue) -> UnitValue:
        interval = _iv_div(a, b)
        factor_b = _const_factor(b)
        if a.domain in _TIME and factor_b is not None and factor_b != 0.0:
            converted = _time_scale(a.domain, 1.0 / factor_b)
            if converted is not None:
                return UnitValue(converted, *interval)
        if a.domain == b.domain and a.is_unit:
            return UnitValue(DIMENSIONLESS, *interval)  # ratio
        if a.domain == b.domain and a.domain in _SCALARS:
            return UnitValue(DIMENSIONLESS, *interval)
        if a.is_scalar and b.domain == RATE:
            return UnitValue(SECONDS, *interval)  # 1 / qps = seconds
        if a.is_scalar and b.domain == SECONDS:
            return UnitValue(RATE, *interval)  # count / s = rate
        if b.is_scalar and not a.is_top:
            return UnitValue(a.domain, *interval)
        return UnitValue(TOP, *interval)

    def _compare(self, node: ast.Compare) -> UnitValue:
        operands = [self.eval(node.left)]
        for comparator in node.comparators:
            operands.append(self.eval(comparator))
        for op, a, b in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn)):
                continue
            if {a.domain, b.domain} == _TIME:
                self._hit(
                    TIME_COMPARE,
                    node,
                    "comparison mixes Seconds with Millis without an "
                    "explicit to_seconds()/to_millis() conversion",
                )
            elif self._incompatible(a, b):
                self._hit(
                    CROSS,
                    node,
                    f"cross-domain comparison: {a.domain} vs {b.domain}",
                )
        return UnitValue(DIMENSIONLESS, 0.0, 1.0)

    # -- names, globals, attributes -------------------------------------
    def _eval_attribute(self, node: ast.Attribute) -> UnitValue:
        receiver: Optional[str] = None
        if (
            is_self(node.value)
            and self.fn is not None
            and self.fn.class_name is not None
        ):
            receiver = self.fn.class_name
        else:
            receiver = self.scanner._value_type(node.value)
        if receiver is not None:
            found = self.analysis.lookup_field(receiver, node.attr)
            if found is not None:
                return found
            prop = self.analysis.property_domain(receiver, node.attr)
            if prop is not None:
                return from_domain(prop)
        dotted = self.module.resolve(node)
        if dotted is not None:
            const = _DOTTED_CONSTS.get(dotted)
            if const is not None:
                return UnitValue(DIMENSIONLESS, *const)
            found = self.analysis.lookup_global(self.module.name, dotted)
            if found is not None:
                return found
        return UNKNOWN

    # -- calls -----------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> UnitValue:
        func = node.func
        dotted = self.module.resolve(func)
        simple = (
            dotted.split(".")[-1]
            if dotted
            else (func.attr if isinstance(func, ast.Attribute) else None)
        )
        # Evaluate every argument once so expression-level checks fire
        # even inside calls the graph cannot resolve.
        for arg in node.args:
            self.eval(arg)
        for keyword in node.keywords:
            self.eval(keyword.value)
        self._check_partition_literal(node, simple)
        self._check_call_args(node)
        return self._call_result(node, func, simple)

    def _call_result(
        self, node: ast.Call, func: ast.AST, simple: Optional[str]
    ) -> UnitValue:
        if simple == "to_seconds" and node.args:
            inner = self.eval(node.args[0])
            return UnitValue(SECONDS, *_iv_scale(inner, 1.0 / MS_PER_S))
        if simple == "to_millis" and node.args:
            inner = self.eval(node.args[0])
            return UnitValue(MILLIS, *_iv_scale(inner, MS_PER_S))
        if simple == "clip":
            clipped = self._model_clip(node, func)
            if clipped is not None:
                return clipped
        if (
            simple in ("min", "max")
            and isinstance(func, ast.Name)
            and len(node.args) >= 2
        ):
            return self._model_minmax(node, simple)
        if simple == "abs" and len(node.args) == 1:
            inner = self.eval(node.args[0])
            lo, hi = inner.lo, inner.hi
            if lo >= 0.0:
                return inner
            bound = max(abs(lo), abs(hi))
            return UnitValue(inner.domain, 0.0 if hi >= 0.0 else abs(hi), bound)
        if simple in ("float", "int") and len(node.args) == 1:
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                text = arg.value.strip().lower()
                if text in ("inf", "infinity", "+inf"):
                    return UnitValue(DIMENSIONLESS, INF, INF)
                if text in ("-inf", "-infinity"):
                    return UnitValue(DIMENSIONLESS, -INF, -INF)
                return UNKNOWN
            return self.eval(arg)
        if simple == "len":
            return UnitValue(DIMENSIONLESS, 0.0, INF)
        # Project function/method: declared (registry/annotation) return
        # domain first, else the fixpoint summary of its return values.
        out: Optional[UnitValue] = None
        for key in self.scanner._resolve_call_targets(node):
            callee = self.analysis.project.functions.get(key)
            if callee is None or callee.simple_name == "__init__":
                continue
            value = self.analysis.function_return(callee)
            out = value if out is None else join(out, value)
        return out if out is not None else UNKNOWN

    def _model_clip(
        self, node: ast.Call, func: ast.AST
    ) -> Optional[UnitValue]:
        """``np.clip(x, lo, hi)`` / ``x.clip(lo, hi)`` with constant
        bounds clamps the interval — the sanctioned way to stay inside
        the unit cube."""
        if len(node.args) >= 3:
            value_node, bounds = node.args[0], node.args[1:3]
        elif len(node.args) == 2 and isinstance(func, ast.Attribute):
            value_node, bounds = func.value, node.args[0:2]
        else:
            return None
        los = self.eval(bounds[0])
        his = self.eval(bounds[1])
        if not (los.is_constant and his.is_constant):
            return None
        value = self.eval(value_node)
        lo = min(max(value.lo, los.lo), his.lo)
        hi = min(max(value.hi, los.lo), his.lo)
        return UnitValue(value.domain, *_sane(lo, hi))

    def _model_minmax(self, node: ast.Call, which: str) -> UnitValue:
        values = [self.eval(arg) for arg in node.args]
        out = values[0]
        for value in values[1:]:
            merged = join(out, value)
            if which == "min":
                interval = _sane(min(out.lo, value.lo), min(out.hi, value.hi))
            else:
                interval = _sane(max(out.lo, value.lo), max(out.hi, value.hi))
            out = UnitValue(merged.domain, *interval)
        return out

    def _check_call_args(self, node: ast.Call) -> None:
        for callee, param, expr in self._call_bindings(node):
            declared = self.analysis.param_domain(callee, param)
            if declared is None:
                continue
            value = self.eval(expr)
            if declared == UNIT_CUBE:
                self._check_cube_escape(node, expr, callee, param, value)
            if value.is_unit and value.domain != declared:
                self._hit(
                    CROSS,
                    expr,
                    f"{value.domain} value bound to {declared} "
                    f"parameter {param!r} of {callee.qualname}()",
                )

    def _check_cube_escape(
        self,
        node: ast.Call,
        expr: ast.AST,
        callee: FunctionInfo,
        param: str,
        value: UnitValue,
    ) -> None:
        """Finite interval evidence that a cube-bound value can leave
        [0, 1].  Unknown (infinite) bounds never flag."""
        above = value.hi > 1.0 and not math.isinf(value.hi)
        below = value.lo < 0.0 and not math.isinf(value.lo)
        if not (above or below):
            return
        span = f"[{value.lo:g}, {value.hi:g}]"
        self._hit(
            CUBE,
            expr,
            f"value in {span} can leave the unit cube [0, 1] but binds "
            f"UnitCube parameter {param!r} of {callee.qualname}() — clip "
            f"or renormalize first",
        )

    def _check_partition_literal(
        self, node: ast.Call, simple: Optional[str]
    ) -> None:
        """Eq. 5/6 check of literal matrices at partition constructors
        (``Configuration.from_matrix([[...]])`` / ``Configuration([[...]])``)."""
        if simple not in ("from_matrix", "Configuration"):
            return
        if not node.args:
            return
        matrix = node.args[0]
        if not isinstance(matrix, (ast.List, ast.Tuple)):
            return
        rows = matrix.elts
        if not rows or not all(
            isinstance(row, (ast.List, ast.Tuple)) and row.elts for row in rows
        ):
            return
        widths = {len(row.elts) for row in rows}  # type: ignore[union-attr]
        if len(widths) != 1:
            return
        cells = [
            [
                (value.lo, value.hi)
                for value in (self.eval(element) for element in row.elts)
            ]
            for row in rows
            if isinstance(row, (ast.List, ast.Tuple))
        ]
        ok, reason = admits_partition(cells, self.analysis.capacities)
        if not ok:
            self._hit(
                CAPACITY, node, f"partition literal cannot be valid: {reason}"
            )

    # -- transfer functions ----------------------------------------------
    def visit_assign(self, stmt: ast.Assign) -> None:
        value = self.eval(stmt.value)
        for target in stmt.targets:
            self._assign_target(target, stmt.value, value)

    def visit_aug_assign(self, stmt: ast.AugAssign) -> None:
        current = self.eval(stmt.target)
        new = self._combine(stmt.op, current, self.eval(stmt.value), stmt)
        self._assign_target(stmt.target, stmt.value, new)

    def visit_return(self, stmt: ast.Return) -> None:
        value = self.eval(stmt.value)
        if self.fn is not None:
            self._check_return(stmt, value)
            if value != UNKNOWN:
                self.analysis.merge_return(self.fn.key, value)

    def bind_loop_target(
        self, target: ast.AST, iter_node: ast.AST, value: UnitValue
    ) -> None:
        self._assign_target(target, iter_node, value)

    def visit_ann_assign(self, stmt: ast.AnnAssign) -> None:
        declared = _annotation_class(stmt.annotation)
        value = self.eval(stmt.value) if stmt.value is not None else None
        if declared in DOMAINS:
            if (
                value is not None
                and value.is_unit
                and value.domain != declared
            ):
                self._hit(
                    CROSS,
                    stmt,
                    f"{value.domain} value assigned to a name annotated "
                    f"{declared}",
                )
            if value is not None and not value.is_top:
                out = UnitValue(declared, value.lo, value.hi)
            else:
                out = from_domain(declared)
        else:
            out = value if value is not None else UNKNOWN
        if stmt.value is not None or declared in DOMAINS:
            self._assign_target(stmt.target, stmt.value, out)

    def _check_return(self, stmt: ast.Return, value: UnitValue) -> None:
        if self.fn is None:
            return
        declared = self.analysis.declared_return(self.fn)
        if declared is None or declared in _SCALARS:
            return
        if value.is_unit and value.domain != declared:
            self._hit(
                CROSS,
                stmt,
                f"{self.fn.qualname}() is declared to return {declared} "
                f"but this path returns {value.domain}",
            )

    def _assign_target(
        self, target: ast.AST, value_node: Optional[ast.AST], value: UnitValue
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value  # strong update
            if self.fn is None and value != UNKNOWN:
                self.analysis.merge_global(
                    self.module.name, target.id, value
                )
        elif isinstance(target, ast.Attribute):
            receiver = self._store_receiver(target)
            if receiver is None:
                return
            annotated = self.analysis.graph.attr_type(receiver, target.attr)
            if (
                annotated in DOMAINS
                and annotated not in _SCALARS
                and value.is_unit
                and value.domain != annotated
            ):
                self._hit(
                    CROSS,
                    target,
                    f"{value.domain} value assigned to "
                    f"{receiver}.{target.attr} which is annotated "
                    f"{annotated}",
                )
            if value != UNKNOWN:
                self.analysis.merge_field(receiver, target.attr, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value_node, (ast.Tuple, ast.List)) and len(
                value_node.elts
            ) == len(target.elts):
                for sub_target, sub_value in zip(target.elts, value_node.elts):
                    self._assign_target(
                        sub_target, sub_value, self.eval(sub_value)
                    )
            else:
                for sub_target in target.elts:
                    self._assign_target(sub_target, None, UNKNOWN)
        # Subscript writes (arr[i] = x) are not tracked.


# ----------------------------------------------------------------------
# Whole-program driver
# ----------------------------------------------------------------------
class UnitsAnalysis(SummaryAnalysis[UnitValue]):
    """Interprocedural unit/interval propagation to a fixpoint.

    Summaries — per-function return values, per-(class, field) values,
    per-module globals — are joined monotonically over repeated passes
    (bounded by :attr:`MAX_ITERATIONS`), then one reporting pass
    collects :class:`UnitHit` records for the RPL7xx rules.
    """

    frame = _UnitsFlow
    bottom = UNKNOWN

    def __init__(
        self, project: Project, graph: CallGraph, config: LintConfig
    ) -> None:
        super().__init__(project, graph, config)
        self.registry = parse_registry(config)
        self.capacities = parse_capacities(config)
        self.hits: Set[UnitHit] = set()

    def join(self, a: UnitValue, b: UnitValue) -> UnitValue:
        return join(a, b)

    # -- declared domains ------------------------------------------------
    def declared_return(self, fn: FunctionInfo) -> Optional[str]:
        domain = self.registry.get((fn.qualname, "return"))
        if domain is not None:
            return domain
        cls = _annotation_class(fn.node.returns)
        return cls if cls in DOMAINS else None

    def param_domain(self, fn: FunctionInfo, param: str) -> Optional[str]:
        domain = self.registry.get((fn.qualname, param))
        if domain is not None:
            return domain
        cls = self.graph.param_types.get(fn.key, {}).get(param)
        return cls if cls in DOMAINS else None

    def param_value(
        self, fn: FunctionInfo, param: str
    ) -> Optional[UnitValue]:
        domain = self.param_domain(fn, param)
        return from_domain(domain) if domain is not None else None

    def function_return(self, fn: FunctionInfo) -> UnitValue:
        declared = self.declared_return(fn)
        if declared is not None:
            return from_domain(declared)
        return self.returns.get(fn.key, UNKNOWN)

    def property_domain(self, cls: str, attr: str) -> Optional[str]:
        """Declared domain of a ``@property`` read, if any."""
        method = self.project.lookup_method(cls, attr)
        if method is None:
            return None
        for decorator in method.node.decorator_list:
            name = (
                decorator.id
                if isinstance(decorator, ast.Name)
                else decorator.attr
                if isinstance(decorator, ast.Attribute)
                else None
            )
            if name in ("property", "cached_property"):
                return self.declared_return(method)
        return None

    def lookup_field(self, cls: str, attr: str) -> Optional[UnitValue]:
        annotated = self.graph.attr_type(cls, attr)
        if annotated in DOMAINS:
            return from_domain(annotated)
        return super().lookup_field(cls, attr)


# ----------------------------------------------------------------------
# Shared entry point (cached like the RPL6xx dataflow analysis)
# ----------------------------------------------------------------------
def analyze_units(project: Project, config: LintConfig) -> UnitsAnalysis:
    """Run (or reuse) the units analysis for one project + config."""
    return shared_analysis("units", UnitsAnalysis, project, config)
