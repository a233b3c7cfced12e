"""FLOW family (RPL8xx): whole-program concurrency & lifecycle rules.

These rules consume the shared :class:`~.flow.FlowAnalysis` harvest:
one pass over the project yields the lock-order graph, the
blocking-under-lock sites, the thread-escape set, the lifecycle
violations, and the growth-only containers; each rule then renders its
slice as findings.  ``repro-lint --report flow`` renders the same
analysis, so the graph a finding refers to can be inspected directly.
"""

from __future__ import annotations

from typing import Iterator

from .config import LintConfig
from .core import finding_at
from .flow import flow_analysis
from .model import FLOW, Finding, Rule, register
from .project import Project


@register
class LockOrderCycle(Rule):
    """RPL801: the global lock-acquisition-order graph must be acyclic."""

    rule_id = "RPL801"
    name = "lock-order-cycle"
    family = FLOW
    description = (
        "Builds the interprocedural lock-acquisition-order graph (which "
        "locks are taken while which are held, qualified to Class.attr "
        "identities) and flags cycles — two threads entering a cycle "
        "from different ends deadlock.  RLock re-entry is legal and "
        "exempt; a plain Lock re-acquired while held self-deadlocks."
    )
    autofix_hint = (
        "Impose a global lock order (acquire in one documented order "
        "everywhere) or narrow one critical section so the second lock "
        "is taken after the first is released; `repro-lint --report "
        "flow` renders the full graph."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = flow_analysis(project, config)
        for cycle in analysis.cycles:
            yield finding_at(
                self,
                project,
                cycle.site,
                f"lock-order cycle: {cycle.detail}",
            )


@register
class BlockingUnderLock(Rule):
    """RPL802: no blocking call inside a held-lock region."""

    rule_id = "RPL802"
    name = "blocking-under-lock"
    family = FLOW
    description = (
        "Flags registry-listed blocking operations (file/socket IO, "
        "sleep, subprocess, physics observation, Future.result) "
        "executed while a lock is definitely held — directly or via a "
        "call whose callee blocks — the classic tail-latency hazard "
        "for a long-lived service."
    )
    autofix_hint = (
        "Move the blocking work outside the critical section (copy "
        "state under the lock, block after release), or suppress with "
        "a reason when blocking under the lock is the design (e.g. "
        "durability writes)."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = flow_analysis(project, config)
        for hit in analysis.blocking:
            locks = ", ".join(hit.locks)
            if hit.via:
                message = (
                    f"call into {hit.via!r} blocks ({hit.call}) while "
                    f"holding {locks}"
                )
            else:
                message = f"blocking call {hit.call} while holding {locks}"
            yield finding_at(self, project, hit.site, message)


@register
class ThreadEscape(Rule):
    """RPL803: values crossing into worker threads must be registered."""

    rule_id = "RPL803"
    name = "thread-escape"
    family = FLOW
    description = (
        "Arguments and closure captures flowing into Executor.submit / "
        "Thread(target=...) whose inferred class is a mutable project "
        "type that is neither frozen, a guarded/shared class, "
        "register_shared in its constructor, nor allowlisted — the gap "
        "RPL603 only covers for already-known shared objects."
    )
    autofix_hint = (
        "Register the object (register_shared(self, ...) in its "
        "constructor), freeze the dataclass, or add the class to "
        "flow-shared-ok with a reason if it is thread-safe by design."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = flow_analysis(project, config)
        for hit in analysis.escapes:
            yield finding_at(
                self,
                project,
                hit.site,
                (
                    f"{hit.value!r} (a mutable {hit.cls}) escapes into a "
                    f"worker thread without registration"
                ),
            )


@register
class LifecycleDiscipline(Rule):
    """RPL804: resource release must be guaranteed on all paths."""

    rule_id = "RPL804"
    name = "lifecycle-discipline"
    family = FLOW
    description = (
        "Locally-created resources (open files, pools, servers, "
        "stores, bare lock.acquire()) must be released on every path: "
        "used as a context manager, released in a finally block, or "
        "ownership transferred (returned, stored on an object, passed "
        "on).  Enforced inside flow-strict-modules only."
    )
    autofix_hint = (
        "Wrap the resource in a with-statement, or release it in a "
        "try/finally so exception edges cannot leak it."
    )

    _MESSAGES = {
        "never-released": (
            "{creator} result {resource!r} is never released "
            "(expected {releasers})"
        ),
        "no-finally": (
            "{creator} result {resource!r} is not released on exception "
            "paths (call {releasers} in a finally block or use with)"
        ),
        "acquire-no-release": (
            "{resource} is acquired but never released in this function"
        ),
        "acquire-no-finally": (
            "{resource} is acquired without releasing in a finally "
            "block; an exception leaks the lock"
        ),
    }

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = flow_analysis(project, config)
        for hit in analysis.leaks:
            template = self._MESSAGES[hit.kind]
            message = template.format(
                creator=hit.creator,
                resource=hit.resource,
                releasers="/".join(hit.releasers),
            )
            yield finding_at(self, project, hit.site, message)


@register
class UnboundedGrowth(Rule):
    """RPL805: long-lived containers need an eviction path or a bound."""

    rule_id = "RPL805"
    name = "unbounded-growth"
    family = FLOW
    description = (
        "Growth operations (append/add/insert/extend/setdefault/[k]=v) "
        "on module-level or long-lived-object containers, on paths "
        "reachable from a loop entry point, with no shrink operation "
        "anywhere in the project, no len() bound guard at the growth "
        "site, and no deque(maxlen=...) bound — the memory-leak class "
        "that kills services."
    )
    autofix_hint = (
        "Add an eviction/clear path, bound the container (deque with "
        "maxlen, len() guard before insert), or allowlist it in "
        "flow-bounded-containers with the reason it cannot grow."
    )

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        analysis = flow_analysis(project, config)
        for hit in analysis.growth:
            entry = hit.entry.split(":")[-1]
            yield finding_at(
                self,
                project,
                hit.site,
                (
                    f"container {hit.container} only grows ({hit.op}) on a "
                    f"path reachable from loop entry {entry!r}; no "
                    f"eviction, bound guard, or maxlen found"
                ),
            )
