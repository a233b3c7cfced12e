"""``repro-lint`` console entry point.

Usage::

    repro-lint src/repro                 # human-readable text
    repro-lint src/repro --format json   # CI reporter
    repro-lint src/repro --report flow   # lock-order graph, escapes
    repro-lint src/repro --report pure   # purity & phase report
    repro-lint src/repro --report cost   # per-entry-point cost table
    repro-lint --list-rules              # the rule catalog

``--report FAMILY`` runs only that family (as ``--select FAMILY``
would) and prints the analysis behind its findings in place of the
findings list.  Exit status: 0 clean, 1 findings, 2 usage/configuration
error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import cost, flow, pure
from .cache import DEFAULT_CACHE_FILE, LintCache, cache_key
from .config import load_config
from .engine import LintEngine, discover_files
from .model import all_rules
from .reporter import render_json, render_rule_catalog, render_text

#: ``--report`` family -> (analysis, text renderer, JSON renderer).
_REPORTS: Dict[str, Tuple[Callable[..., Any], ...]] = {
    "flow": (flow.flow_analysis, flow.render_text, flow.render_json),
    "pure": (pure.pure_analysis, pure.render_text, pure.render_json),
    "cost": (cost.cost_analysis, cost.render_text, cost.render_json),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for the CLITE reproduction: "
            "determinism, thread-safety, partition contracts, numerics."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="Files or directories to lint (default: src/repro if present).",
    )
    parser.add_argument(
        "--format",
        "-f",
        choices=("text", "json"),
        default="text",
        help="Report format (json is the CI reporter).",
    )
    parser.add_argument(
        "--select",
        default="",
        help=(
            "Comma-separated rule IDs or family names (e.g. FLOW, "
            "dataflow) to run exclusively."
        ),
    )
    parser.add_argument(
        "--ignore",
        default="",
        help="Comma-separated rule IDs or family names to skip.",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="PATH",
        help=(
            "File or directory to skip during discovery (repeatable); "
            "e.g. --exclude tests/lint_fixtures."
        ),
    )
    parser.add_argument(
        "--report",
        choices=sorted(_REPORTS),
        help=(
            "Run only this family and print its analysis report "
            "(lock-order graph, purity closures, cost table) instead "
            "of the findings list; --format picks text or json."
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="Print the rule catalog and exit.",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="Re-run the full analysis even when the cache is fresh.",
    )
    parser.add_argument(
        "--cache-file",
        default=DEFAULT_CACHE_FILE,
        metavar="PATH",
        help=(
            "Incremental cache location (default: "
            f"{DEFAULT_CACHE_FILE} in the current directory)."
        ),
    )
    return parser


def _split_rules(raw: str) -> tuple:
    return tuple(token.strip() for token in raw.split(",") if token.strip())


def _expand_families(tokens: tuple) -> tuple:
    """Expand family names (``FLOW``, ``thread-safety``) to rule IDs."""
    families: dict = {}
    for rule_id, cls in all_rules().items():
        families.setdefault(cls.family.upper().replace("-", "_"), []).append(
            rule_id
        )
    expanded: list = []
    for token in tokens:
        members = families.get(token.upper().replace("-", "_"))
        if members is not None:
            expanded.extend(members)
        else:
            expanded.append(token)
    return tuple(expanded)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_catalog())
        return 0

    paths = args.paths
    if not paths:
        default = Path("src/repro")
        if not default.is_dir():
            parser.print_usage(sys.stderr)
            print(
                "repro-lint: no paths given and ./src/repro not found",
                file=sys.stderr,
            )
            return 2
        paths = [str(default)]

    try:
        config = load_config(Path(paths[0]))
    except ValueError as error:
        print(f"repro-lint: {error}", file=sys.stderr)
        return 2

    select = _expand_families(_split_rules(args.select))
    if args.report:
        select = _expand_families((args.report,))
    ignore = _expand_families(_split_rules(args.ignore))
    if select or ignore:
        config = replace(
            config,
            select=select or config.select,
            ignore=tuple(set(config.ignore) | set(ignore)),
        )

    known = set(all_rules())
    unknown = [r for r in (*select, *ignore) if r not in known]
    if unknown:
        print(
            f"repro-lint: unknown rule id(s): {', '.join(unknown)}",
            file=sys.stderr,
        )
        return 2

    cache = None
    key = None
    if not args.no_cache and not args.report:
        try:
            files = discover_files(paths, exclude=args.exclude)
            key = cache_key(files, config)
        except (FileNotFoundError, OSError) as error:
            print(f"repro-lint: {error}", file=sys.stderr)
            return 2
        cache = LintCache(Path(args.cache_file))
        cached = cache.lookup(key)
        if cached is not None:
            print("repro-lint: cache hit, replaying findings", file=sys.stderr)
            if args.format == "json":
                print(render_json(cached))
            else:
                print(render_text(cached))
            return 1 if cached else 0

    engine = LintEngine(config)
    try:
        project = engine.build_project(paths, exclude=args.exclude)
    except (FileNotFoundError, SyntaxError) as error:
        print(f"repro-lint: {error}", file=sys.stderr)
        return 2
    findings = engine.run(project)
    if cache is not None and key is not None:
        cache.store(key, findings)

    if args.report:
        analyze, text, json_ = _REPORTS[args.report]
        analysis = analyze(project, config)
        print(json_(analysis) if args.format == "json" else text(analysis))
        if findings:
            print(render_text(findings), file=sys.stderr)
            print(
                f"repro-lint: {len(findings)} {args.report.upper()} "
                f"violation(s) found",
                file=sys.stderr,
            )
        return 1 if findings else 0
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
