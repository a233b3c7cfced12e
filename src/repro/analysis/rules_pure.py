"""PURE family (RPL9xx): purity and probe/commit phase separation.

These rules consume the shared :class:`~.pure.PureAnalysis` harvest:
one pass over the project yields the effect closures of every
declared-pure root, the probe-reachable call set, the snapshot alias
escapes, the set-iteration order hazards, and the registry health
report; each rule then renders its slice as findings.  Every finding
here can be inspected in context (paths, closures, reachability) with
``repro-lint src/repro --report pure``.
"""

from __future__ import annotations

from typing import Iterator

from .config import LintConfig
from .core import finding_at, fn_name, registry_hit
from .model import PURE, Finding, Rule, register
from .project import Project
from .pure import pure_analysis


@register
class DeclaredPureMutation(Rule):
    """RPL901: declared-pure functions must not mutate existing state."""

    rule_id = "RPL901"
    name = "declared-pure-mutation"
    family = PURE
    description = (
        "Functions registered in [tool.repro-lint.pure] registry (or "
        "marked @declared_pure) must not mutate pre-existing reachable "
        "state — self, parameters, globals, or anything aliased to "
        "them: attribute/subscript writes, augmented assigns, del, and "
        "mutating-method calls (append/add/update/...), closed over "
        "the callgraph with call-site argument binding so a mutation "
        "two calls deep is charged to the root that passed the state "
        "in.  Mutation of freshly-created local objects is fine."
    )
    autofix_hint = (
        "Build results in fresh local containers and return them, or "
        "remove the function from the purity registry if mutation is "
        "its job; suppress a single site with a reason only when the "
        "mutation is provably replay-invariant."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = pure_analysis(project, config)
        for hit in analysis.mutations:
            effect = hit.effect
            via = (
                " via " + " -> ".join(effect.chain) if effect.chain else ""
            )
            yield finding_at(
                self,
                project,
                effect.site,
                (
                    f"declared-pure {fn_name(project, hit.root_key)!r} "
                    f"mutates pre-existing state rooted at {effect.root}: "
                    f"{effect.op} on {effect.target}{via}"
                ),
            )


@register
class ProbeCommitSeparation(Rule):
    """RPL902: probe paths must not commit, draw RNG, or read clocks."""

    rule_id = "RPL902"
    name = "probe-commit-separation"
    family = PURE
    description = (
        "Nothing reachable from a registered probe entry point "
        "(probe_admit, the admission probes' check methods, "
        "node_fingerprint, acquisition scoring) may invoke a "
        "commit-tagged mutator (Cluster.place/remove, the service's "
        "commit/migrate surface, ObservationStore.put) or draw fresh "
        "RNG / wall-clock state — the serial≡concurrent federation "
        "guarantee holds only while probing is replayable."
    )
    autofix_hint = (
        "Move the commit to the caller that owns the decision, thread "
        "a seeded Generator / injected clock through instead of "
        "drawing fresh state, or suppress the sanctioned publish site "
        "with a reasoned disable-next-line comment."
    )

    _KINDS = {
        "commit-mutator": "invokes commit-tagged mutator {what!r}",
        "fresh-rng": "draws fresh RNG state ({what})",
        "clock": "reads the wall clock ({what})",
    }

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = pure_analysis(project, config)
        for hit in analysis.phase:
            entry = fn_name(project, hit.entry)
            what = self._KINDS[hit.kind].format(what=hit.what)
            yield finding_at(
                self,
                project,
                hit.site,
                f"probe path from {entry!r} {what}",
            )


@register
class SnapshotAliasEscape(Rule):
    """RPL903: snapshot accessors must return defensive copies."""

    rule_id = "RPL903"
    name = "snapshot-alias-escape"
    family = PURE
    description = (
        "Snapshot-style accessors (status/placements/timeline/... — "
        "the pure-snapshot-methods list) must not return references to "
        "live internal mutable containers: a caller mutating the "
        "'snapshot' would perturb the service state a later replay "
        "depends on.  Wrapping in dict()/list()/tuple()/sorted() or a "
        "comprehension is recognised as a defensive copy."
    )
    autofix_hint = (
        "Return a copy (dict(self._x), tuple(...), a comprehension) "
        "instead of the live container, or rename the accessor if it "
        "is deliberately a mutable view."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = pure_analysis(project, config)
        for hit in analysis.snapshots:
            yield finding_at(
                self,
                project,
                hit.site,
                (
                    f"snapshot accessor {hit.method!r} returns live "
                    f"mutable {hit.ctype} {hit.container!r} without a "
                    f"defensive copy"
                ),
            )


@register
class SetIterationOrder(Rule):
    """RPL904: no set iteration may feed an ordered decision."""

    rule_id = "RPL904"
    name = "set-iteration-order"
    family = PURE
    description = (
        "Inside the probe/purity closure, iterating a set/frozenset "
        "into an order-sensitive consumer (a for loop, list()/tuple(), "
        "a list/dict comprehension, join, unpacking) without an "
        "intervening sorted() makes the decision depend on hash "
        "ordering — PYTHONHASHSEED-level nondeterminism in the exact "
        "paths replay determinism rests on.  Order-blind consumers "
        "(sorted, min/max, sum, any/all, len, membership) are exempt."
    )
    autofix_hint = (
        "Wrap the set in sorted(...) (with an explicit key when the "
        "elements are not naturally ordered) before iterating, or "
        "consume it with an order-blind aggregate."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = pure_analysis(project, config)
        for hit in analysis.order:
            entry = fn_name(project, hit.entry)
            yield finding_at(
                self,
                project,
                hit.site,
                (
                    f"set {hit.iterable!r} feeds order-sensitive "
                    f"{hit.consumer} (reachable from {entry!r}); wrap in "
                    f"sorted(...)"
                ),
            )


@register
class PurityRegistryHealth(Rule):
    """RPL905: purity-registry entries must resolve to live functions."""

    rule_id = "RPL905"
    name = "purity-registry-health"
    family = PURE
    description = (
        "Entries in the [tool.repro-lint.pure] registry, "
        "probe-entrypoints, and commit-mutators tables must resolve to "
        "functions that still exist (renames and moves silently drop "
        "the protection otherwise), and no entry may appear as both a "
        "probe entry point and a commit mutator.  Only entries whose "
        "dotted module prefix is part of the analysed tree are checked, "
        "so partial-tree runs stay quiet."
    )
    autofix_hint = (
        "Update the dotted path in pyproject.toml to the function's "
        "new home, or delete the entry if the function is gone."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = pure_analysis(project, config)
        for hit in analysis.registry:
            yield finding_at(
                self,
                project,
                hit.site,
                (
                    f"stale purity-registry entry {hit.entry!r} "
                    f"({hit.table}): no such function in module "
                    f"{hit.module!r}"
                ),
            )
        contradictions = sorted(
            set(config.pure_probe_entrypoints)
            & set(config.pure_commit_mutators)
        )
        for entry in contradictions:
            hit = registry_hit(project, entry, "probe-entrypoints")
            if hit is None:
                continue
            yield finding_at(
                self,
                project,
                hit.site,
                (
                    f"{entry!r} is registered as both a probe entry "
                    f"point and a commit mutator; a function cannot be "
                    f"on both sides of the phase split"
                ),
            )
