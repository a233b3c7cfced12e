"""Admission probes: "would this node still meet QoS with that job set?"

Admission control is the paper's bootstrap check promoted to a service
decision: before a job lands on a node, the warehouse asks whether a
QoS-meeting partition *exists* for the tentative job set.  Two probe
flavors trade fidelity for wall-clock:

* :class:`CLITEProbe` — the full answer: run a (small-budget) CLITE BO
  search via :func:`~repro.cluster.scheduler.verify_node`.  Shares the
  warehouse's :class:`~repro.server.obstore.ObservationStore`, so
  repeated probes of recurring job sets skip the physics.
* :class:`QuickProbe` — a sufficient-condition screen: evaluate a small
  deterministic candidate set of partitions (the equal split plus
  LC-weighted splits built through the unit-cube projection) against
  the simulator's noise-free truth.  Admits only when a candidate
  provably meets QoS — it can reject sets the full search would have
  admitted, never the reverse — and costs microseconds, which is what
  makes thousand-node scenarios with hundreds of arrivals tractable.

Both flavors are pure functions of ``(node state, seed)``: probing
commits nothing and perturbs nothing, so federation can race probes
across shards on a thread pool without disturbing the event timeline.
Both ``check`` methods are declared in ``[tool.repro-lint.pure]`` and
the promise is enforced statically — ``repro-lint --select PURE`` (RPL901,
:mod:`repro.analysis.pure`) fails CI on any write to pre-existing
state anywhere in their call closure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

import numpy as np

from ..cluster.scheduler import verify_node
from ..cluster.state import ClusterNode
from ..core.engine import CLITEConfig
from ..server.node import Node
from ..server.obstore import ObservationStore
from ..telemetry import NULL_TELEMETRY, Telemetry


class AdmissionProbe(ABC):
    """Decides whether a tentative node job set is QoS-feasible."""

    name: str = "probe"

    @abstractmethod
    def check(self, node_state: ClusterNode, seed: Optional[int]) -> bool:
        """True when ``node_state``'s job set can meet every LC QoS."""

    def attach(
        self,
        store: Optional[ObservationStore],
        telemetry: Optional[Telemetry],
    ) -> None:
        """Adopt the owning service's shared store/telemetry context."""


class QuickProbe(AdmissionProbe):
    """Noise-free screening over a fixed candidate-partition set.

    Candidates are the equal partition plus one LC-favoring partition
    per boost factor: LC jobs weigh ``boost * (0.15 + load)`` spare
    units, BG jobs weigh 1, projected onto the feasible lattice through
    :meth:`~repro.resources.allocation.ConfigurationSpace.from_unit_cube`
    (largest-remainder rounding, deterministic tie-breaks).  A node
    passes as soon as one candidate's noise-free truth meets every LC
    QoS target.
    """

    name = "quick"

    #: LC weight multipliers, mildest first: the earlier a candidate
    #: admits, the fewer truths are evaluated.
    BOOSTS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)

    def __init__(self, seed: Optional[int] = 0) -> None:
        self.seed = seed
        self._telemetry = NULL_TELEMETRY

    def attach(
        self,
        store: Optional[ObservationStore],
        telemetry: Optional[Telemetry],
    ) -> None:
        del store  # truths are evaluated directly; nothing to persist
        if telemetry is not None:
            self._telemetry = telemetry

    def _candidates(self, node: Node) -> List[np.ndarray]:
        """Unit-cube weight vectors for the LC-favoring candidates."""
        loads = [
            job.load.load_at(0.0) if job.is_lc and job.load is not None else None
            for job in node.jobs
        ]
        vectors = []
        for boost in self.BOOSTS:
            weights = np.array(
                [
                    boost * (0.15 + load) if load is not None else 1.0
                    for load in loads
                ]
            )
            cube = np.repeat(weights, node.space.n_resources)
            peak = float(cube.max())
            if peak > 0:
                cube = cube / peak
            vectors.append(cube)
        return vectors

    def check(self, node_state: ClusterNode, seed: Optional[int]) -> bool:
        node = node_state.build_node(
            seed=seed if seed is not None else self.seed
        )
        if not node.lc_indices:
            return True  # nothing with a QoS target to violate
        tried = set()
        configs = [node.space.equal_partition()]
        configs.extend(
            node.space.from_unit_cube(vec) for vec in self._candidates(node)
        )
        for config in configs:
            key = config.flat()
            if key in tried:
                continue
            tried.add(key)
            self._telemetry.metrics.counter("warehouse.probe.truths").add()
            if node.true_performance(config).all_qos_met:
                return True
        return False


class CLITEProbe(AdmissionProbe):
    """The full verification: a small-budget CLITE BO run per probe.

    This is :class:`~repro.cluster.scheduler.CLITEPlacement`'s
    admissibility check as a reusable object.  Each probe increments the
    existing ``cluster.verify.samples`` counter (per node label) and
    reads/feeds the shared observation store, so re-probing a recurring
    job set is near-free once the store is warm.
    """

    name = "clite"

    def __init__(self, engine_config: Optional[CLITEConfig] = None) -> None:
        self.engine_config = engine_config
        self._store: Optional[ObservationStore] = None
        self._telemetry: Optional[Telemetry] = None

    def attach(
        self,
        store: Optional[ObservationStore],
        telemetry: Optional[Telemetry],
    ) -> None:
        self._store = store
        self._telemetry = telemetry

    def check(self, node_state: ClusterNode, seed: Optional[int]) -> bool:
        qos_met, _ = verify_node(
            node_state,
            self.engine_config,
            seed,
            telemetry=self._telemetry,
            store=self._store,
        )
        return qos_met


def resolve_probe(
    probe: "AdmissionProbe | str",
    engine_config: Optional[CLITEConfig] = None,
) -> AdmissionProbe:
    """Probe instances pass through; ``"quick"``/``"clite"`` construct one."""
    if isinstance(probe, AdmissionProbe):
        return probe
    if probe == "quick":
        return QuickProbe()
    if probe == "clite":
        return CLITEProbe(engine_config)
    raise ValueError(f"unknown admission probe {probe!r} (quick or clite)")
