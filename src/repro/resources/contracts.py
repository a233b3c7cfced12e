"""Runtime enforcement of the resource-partition contracts (Eqs. 5-6).

Every partition that enters the system — fabricated by a constructor,
proposed by the acquisition optimizer, reported best by a policy, or
implied by a cluster placement — must satisfy three invariants:

* **integer units** — allocations live on the lattice, never fractions;
* **>= 1 unit per job** — Eq. 5's lower bound;
* **sums to capacity** — each resource column adds up to exactly that
  resource's unit count (Eq. 6).

The decorators below check those invariants on function *outputs* and
raise :class:`ContractViolation` on the first breach.  ``repro-lint``
(rules RPL301-RPL304) statically verifies the decorators are present on
every boundary function, so the two layers together make the contracts
unskippable.  Set ``REPRO_CONTRACTS=0`` to disable the runtime checks
(e.g. in production-scale sweeps where the lint gate already ran).
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable, Optional, Sequence, TypeVar

import numpy as np

F = TypeVar("F", bound=Callable[..., Any])


class ContractViolation(AssertionError):
    """A partition invariant (Eq. 5/6) was violated at runtime."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CONTRACTS", "1").lower() not in (
        "0",
        "false",
        "off",
    )


#: Module-level switch, initialized from ``REPRO_CONTRACTS`` at import.
_ENABLED = _env_enabled()


def contracts_enabled() -> bool:
    return _ENABLED


def set_contracts_enabled(enabled: bool) -> bool:
    """Toggle runtime contract checking; returns the previous value."""
    global _ENABLED  # repro-lint: disable=RPL201
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


# ----------------------------------------------------------------------
# Core matrix check
# ----------------------------------------------------------------------
def check_partition_matrix(
    matrix: Any, capacities: Sequence[int], context: str
) -> None:
    """Validate one ``(n_jobs, n_resources)`` allocation (or a stack).

    Accepts a 2-D matrix or a 3-D ``(n, n_jobs, n_resources)`` batch.

    Raises:
        ContractViolation: on non-integer units, any unit below the
            Eq. 5 floor, or a resource column not summing to capacity.
    """
    arr = np.asarray(matrix)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise ContractViolation(
            f"{context}: expected a 2-D partition or 3-D batch, "
            f"got shape {arr.shape}"
        )
    if arr.size == 0:
        return
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.equal(np.mod(arr, 1), 0)):
            raise ContractViolation(
                f"{context}: allocations must be integer units"
            )
        arr = arr.astype(int)
    if (arr < 1).any():
        raise ContractViolation(
            f"{context}: every job needs >= 1 unit of every resource "
            f"(Eq. 5); min was {int(arr.min())}"
        )
    caps = np.asarray(capacities, dtype=int)
    sums = arr.sum(axis=1)
    if (sums != caps[None, :]).any():
        raise ContractViolation(
            f"{context}: resource columns must sum to {caps.tolist()} "
            f"(Eq. 6); got {sums[0].tolist()}"
            + ("" if len(sums) == 1 else " (first of batch)")
        )


def _capacities_of(space: Any) -> Sequence[int]:
    return [r.units for r in space.spec.resources]


def _config_matrix(config: Any) -> Any:
    """Duck-typed accessor: Configuration-likes expose ``as_array``."""
    as_array = getattr(config, "as_array", None)
    return as_array() if as_array is not None else config


# ----------------------------------------------------------------------
# Decorators (verified present by repro-lint RPL301-RPL304)
# ----------------------------------------------------------------------
def partition_contract(fn: F) -> F:
    """For ``ConfigurationSpace`` constructors returning partitions.

    Handles both scalar constructors (returning a ``Configuration``)
    and batch constructors (returning an integer ndarray stack).
    """

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = fn(self, *args, **kwargs)
        if _ENABLED:
            check_partition_matrix(
                _config_matrix(result),
                _capacities_of(self),
                f"{type(self).__name__}.{fn.__name__}",
            )
        return result

    return wrapper  # type: ignore[return-value]


def proposal_contract(fn: F) -> F:
    """For acquisition ``propose`` methods.

    Every candidate configuration in the returned proposal must be a
    valid point of the optimizer's space.
    """

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        proposal = fn(self, *args, **kwargs)
        if _ENABLED and proposal.candidates:
            stack = np.stack(
                [_config_matrix(c.config) for c in proposal.candidates]
            )
            check_partition_matrix(
                stack,
                _capacities_of(self.space),
                f"{type(self).__name__}.{fn.__name__}",
            )
        return proposal

    return wrapper  # type: ignore[return-value]


def policy_contract(fn: F) -> F:
    """For ``Policy.partition`` implementations.

    Checks that the reported best configuration is a valid point of the
    node's space, that ``qos_met`` agrees with the best observation,
    and that the online trace respected the sampling budget.
    """

    @functools.wraps(fn)
    def wrapper(self: Any, node: Any, budget: Any, *args: Any, **kwargs: Any) -> Any:
        result = fn(self, node, budget, *args, **kwargs)
        if not _ENABLED:
            return result
        context = f"{type(self).__name__}.partition"
        if result.best_config is not None:
            check_partition_matrix(
                _config_matrix(result.best_config),
                _capacities_of(node.space),
                context,
            )
        if result.best_observation is not None and (
            result.qos_met != result.best_observation.all_qos_met
        ):
            raise ContractViolation(
                f"{context}: qos_met={result.qos_met} contradicts the "
                "best observation"
            )
        if len(result.trace) > budget.max_samples:
            raise ContractViolation(
                f"{context}: trace has {len(result.trace)} samples, over "
                f"the budget of {budget.max_samples}"
            )
        return result

    return wrapper  # type: ignore[return-value]


def placement_contract(fn: F) -> F:
    """For ``PlacementPolicy.place`` implementations.

    Checks that every placement targets an existing node, that no
    request is both placed and rejected, and that the reported machine
    count is consistent with the cluster.
    """

    @functools.wraps(fn)
    def wrapper(
        self: Any, cluster: Any, requests: Any, *args: Any, **kwargs: Any
    ) -> Any:
        outcome = fn(self, cluster, requests, *args, **kwargs)
        if not _ENABLED:
            return outcome
        context = f"{type(self).__name__}.place"
        n_nodes = len(cluster.nodes)
        bad = [i for i in outcome.placements.values() if not 0 <= i < n_nodes]
        if bad:
            raise ContractViolation(
                f"{context}: placement onto nonexistent node index "
                f"{bad[0]} (cluster has {n_nodes})"
            )
        overlap = set(outcome.rejected) & set(outcome.placements)
        if overlap:
            raise ContractViolation(
                f"{context}: requests both placed and rejected: "
                f"{sorted(overlap)}"
            )
        distinct = len(set(outcome.placements.values()))
        if not distinct <= outcome.machines_used <= n_nodes:
            raise ContractViolation(
                f"{context}: machines_used={outcome.machines_used} "
                f"inconsistent with {distinct} placed nodes of {n_nodes}"
            )
        return outcome

    return wrapper  # type: ignore[return-value]


__all__ = [
    "ContractViolation",
    "check_partition_matrix",
    "contracts_enabled",
    "partition_contract",
    "placement_contract",
    "policy_contract",
    "proposal_contract",
    "set_contracts_enabled",
]
