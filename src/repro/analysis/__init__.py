"""repro-lint: AST-based invariant checking for the reproduction.

CLITE's evaluation stands on three mechanical invariants — seed-driven
determinism, thread-safety of the ``verify_nodes`` fan-out, and the
partition contracts of Eqs. 5-6 — and this subpackage enforces them
statically.  A rule engine walks every module's AST, a call-graph pass
computes what is reachable from thread-pool entry points, and a small
catalog of rules (determinism, thread-safety, contract presence,
numerics hygiene) reports violations with stable IDs, autofix hints,
and per-line/per-file suppression comments.

The interprocedural families (dataflow, flow, pure, cost) share
one core: each function body gets one cached type oracle
(``CallGraph.scanner``), dotted names resolve through
``Project.resolve_dotted``, results are memoized on the project
(``Project.memo``), flow/pure/cost close their harvests over the call
graph with :class:`~.core.CallClosure`, and dataflow runs on the
abstract-interpreter skeleton in :mod:`.interp`.

Run it as ``repro-lint src/repro`` (console script) or through
:func:`run_lint`; ``repro-lint src/repro --report {flow,pure,cost}``
prints a family's analysis report instead of the findings list.
"""

from .config import LintConfig, load_config
from .engine import LintEngine, run_lint
from .model import Finding, Rule, all_rules
from .reporter import render_json, render_text

__all__ = [
    "Finding",
    "LintConfig",
    "LintEngine",
    "Rule",
    "all_rules",
    "load_config",
    "render_json",
    "render_text",
    "run_lint",
]
