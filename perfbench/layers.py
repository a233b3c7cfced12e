"""Outside-in layer tracing for the traced benchmark run.

The program is not changed: :func:`instrument` wraps public functions of
each layer from here, for the duration of one replay, and restores them
afterwards.  Every call through a wrapped boundary becomes one span
``[id, parent, event, name, start, end, note]`` kept in memory.  The
event id is the simulated event's sequence number: a root span takes
it from the event it handles, and every span below inherits it.

Self time is a span's duration minus the part of that interval its
child spans cover.  The replay is single-threaded (BLAS helper threads
never call back into Python), so one stack gives every span's parent.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import repro.core.optimizer as optimizer_module
import repro.server.node as node_module
from repro.cluster.state import ClusterNode
from repro.core.engine import CLITEEngine
from repro.core.gp import GaussianProcess
from repro.core.optimizer import AcquisitionOptimizer
from repro.resources.allocation import ConfigurationSpace
from repro.server.node import Node
from repro.server.obstore import ObservationStore
from repro.warehouse import CLITEProbe, QuickProbe, WarehouseService

ID, PARENT, EVENT, NAME, START, END, NOTE = range(7)


class Recorder:
    """In-memory span store with a call stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        event_of: Optional[Callable[[tuple], int]] = None,
        note: Optional[Callable[[tuple, object], object]] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``.

        ``event_of(args)`` names the event when the span is a root;
        ``note(args, result)`` keeps one small value with the span.
        """
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                event = spans[parent][EVENT]
            else:
                parent = -1
                event = event_of(args) if event_of is not None else -1
            record = [len(spans), parent, event, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[ID])
            record[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf()
                stack.pop()
            if note is not None:
                record[NOTE] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def step(self, event: int) -> Iterator[None]:
        """The benchmark's own root span around one arrival step."""
        stack = self._stack
        parent = stack[-1] if stack else -1
        if parent >= 0:
            event = self.spans[parent][EVENT]
        record = [len(self.spans), parent, event, "step", 0.0, 0.0, None]
        self.spans.append(record)
        stack.append(record[ID])
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def write(self, path: Path) -> None:
        """Write every span out, one tab-separated line each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tevent\tname\tstart_s\tend_s\tnote\n")
            for s in self.spans:
                fh.write(
                    f"{s[ID]}\t{s[PARENT]}\t{s[EVENT]}\t{s[NAME]}\t"
                    f"{s[START]:.9f}\t{s[END]:.9f}\t{s[NOTE]}\n"
                )


def _seq_arg(args: tuple) -> int:
    return int(args[2])  # handle_event(self, t, seq, payload)


def _minimize_note(args: tuple, result) -> Tuple[int, bool]:
    return int(result.nfev), bool(result.success)


def _predict_note(args: tuple, result) -> Tuple[int, int]:
    gp, xq = args[0], args[1]
    rows = 1 if getattr(xq, "ndim", 1) < 2 else len(xq)
    return rows, gp.n_samples


def _optimize_note(args: tuple, result) -> Tuple[int, bool]:
    return result.samples_taken, bool(result.converged)


#: (owner, attribute, span name, event_of, note) for every boundary.
BOUNDARIES = (
    (WarehouseService, "handle_event", "service.handle_event", _seq_arg, None),
    (WarehouseService, "probe_admit", "service.probe_admit", None, None),
    (WarehouseService, "commit_admit", "service.commit_admit", None, None),
    (QuickProbe, "check", "probe.quick", None, lambda a, r: bool(r)),
    (CLITEProbe, "check", "probe.clite", None, lambda a, r: bool(r)),
    (ClusterNode, "build_node", "cluster.build_node", None, None),
    (CLITEEngine, "optimize", "engine.optimize", None, _optimize_note),
    (GaussianProcess, "fit", "gp.fit", None, None),
    (GaussianProcess, "add_sample", "gp.add_sample", None, None),
    (GaussianProcess, "predict", "gp.predict", None, _predict_note),
    (AcquisitionOptimizer, "propose", "optimizer.propose", None, None),
    (optimizer_module, "minimize", "optimizer.slsqp", None, _minimize_note),
    (Node, "observe", "node.observe", None, None),
    (Node, "true_performance", "node.physics", None, None),
    (node_module, "p95_latency_ms", "latency.p95", None, None),
    (ConfigurationSpace, "from_unit_cube", "alloc.round", None, None),
    (ConfigurationSpace, "from_unit_cube_batch", "alloc.round", None, None),
    (ObservationStore, "get", "obstore.get", None,
     lambda a, r: r is not None),
    (ObservationStore, "put", "obstore.put", None, None),
)


@contextlib.contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every boundary for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, event_of, note in BOUNDARIES:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, event_of, note))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: Iterable[list]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        start, end = s[START], s[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(s[ID], ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[s[ID]] = (end - start) - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: List[list], events: int, arrivals: int, drain_ms: float
) -> Dict[str, float]:
    """The per-layer metrics of one traced replay (ms are totals).

    ``spans`` are a :class:`Recorder`'s, so a span's id is its index.
    Arrival events are those of the benchmark's own ``step`` spans.
    """
    arrival_events = {s[EVENT] for s in spans if s[NAME] == "step"}
    own = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    self_ms: Dict[str, float] = defaultdict(float)
    incl_ms: Dict[str, float] = defaultdict(float)
    notes: Dict[str, list] = defaultdict(list)
    probes_on_arrival = truths_in_quick = refits = 0
    for s in spans:
        name = s[NAME]
        calls[name] += 1
        self_ms[name] += own[s[ID]] * 1e3
        incl_ms[name] += (s[END] - s[START]) * 1e3
        if s[NOTE] is not None:
            notes[name].append(s[NOTE])
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if name.startswith("probe.") and s[EVENT] in arrival_events:
            probes_on_arrival += 1
        if name == "node.physics" and parent is not None and parent[NAME] == "probe.quick":
            truths_in_quick += 1
        if name == "gp.fit" and parent is not None and parent[NAME] == "gp.add_sample":
            refits += 1
    probes = notes["probe.quick"] + notes["probe.clite"]
    runs = notes["engine.optimize"]
    predicts = notes["gp.predict"]
    slsqp = notes["optimizer.slsqp"]
    gets = notes["obstore.get"]
    service_self = sum(
        self_ms[n] for n in
        ("service.handle_event", "service.probe_admit", "service.commit_admit")
    )
    return {
        "service.self_ms_per_event": _ratio(service_self, events),
        "service.probes_per_arrival": _ratio(probes_on_arrival, arrivals),
        "service.probe_pass_frac": _ratio(sum(probes), len(probes)),
        "federation.route_self_ms_per_arrival": _ratio(self_ms["step"], arrivals),
        "federation.shards_tried_per_arrival":
            _ratio(calls["service.probe_admit"], arrivals),
        "admission.quick_check_calls": calls["probe.quick"],
        "admission.quick_check_ms": incl_ms["probe.quick"],
        "admission.clite_check_calls": calls["probe.clite"],
        "admission.clite_check_ms": incl_ms["probe.clite"],
        "admission.truths_per_quick_check":
            _ratio(truths_in_quick, calls["probe.quick"]),
        "cluster.build_node_calls": calls["cluster.build_node"],
        "cluster.build_node_self_ms": self_ms["cluster.build_node"],
        "engine.runs": calls["engine.optimize"],
        "engine.optimize_self_ms": self_ms["engine.optimize"],
        "engine.samples_per_run": _ratio(sum(n for n, _ in runs), len(runs)),
        "engine.converged_frac": _ratio(sum(c for _, c in runs), len(runs)),
        "gp.fit_calls": calls["gp.fit"],
        "gp.fit_self_ms": self_ms["gp.fit"],
        "gp.add_sample_calls": calls["gp.add_sample"],
        "gp.add_sample_self_ms": self_ms["gp.add_sample"],
        "gp.refit_frac": _ratio(refits, calls["gp.add_sample"]),
        "gp.predict_calls": calls["gp.predict"],
        "gp.predict_self_ms": self_ms["gp.predict"],
        "gp.predict_rows": _ratio(sum(r for r, _ in predicts), len(predicts)),
        "gp.train_n_mean": _ratio(sum(n for _, n in predicts), len(predicts)),
        "optimizer.propose_calls": calls["optimizer.propose"],
        "optimizer.screen_self_ms": self_ms["optimizer.propose"],
        "optimizer.slsqp_calls": calls["optimizer.slsqp"],
        "optimizer.slsqp_self_ms": self_ms["optimizer.slsqp"],
        "optimizer.slsqp_nfev": _ratio(sum(n for n, _ in slsqp), len(slsqp)),
        "optimizer.slsqp_success_frac":
            _ratio(sum(ok for _, ok in slsqp), len(slsqp)),
        "node.observe_calls": calls["node.observe"],
        "node.observe_self_ms": self_ms["node.observe"],
        "node.physics_calls": calls["node.physics"],
        "node.physics_self_ms": self_ms["node.physics"],
        "latency.p95_calls": calls["latency.p95"],
        "latency.p95_self_ms": self_ms["latency.p95"],
        "alloc.round_calls": calls["alloc.round"],
        "alloc.round_self_ms": self_ms["alloc.round"],
        "obstore.get_calls": calls["obstore.get"],
        "obstore.hit_frac": _ratio(sum(gets), len(gets)),
        "obstore.put_calls": calls["obstore.put"],
        "obstore.put_self_ms": self_ms["obstore.put"],
        "trace.bo_self_frac": _ratio(sum(
            v for k, v in self_ms.items()
            if k.startswith("gp.") or k.startswith("optimizer.")
        ), drain_ms),
    }


#: Unit of every per-layer metric the traced run prints.
LAYER_UNITS = {
    "service.self_ms_per_event": "ms",
    "service.probes_per_arrival": "count",
    "service.probe_pass_frac": "ratio",
    "service.qos_checks": "count",
    "service.migrations": "count",
    "service.violations": "count",
    "federation.route_self_ms_per_arrival": "ms",
    "federation.shards_tried_per_arrival": "count",
    "admission.quick_check_calls": "count",
    "admission.quick_check_ms": "ms",
    "admission.clite_check_calls": "count",
    "admission.clite_check_ms": "ms",
    "admission.truths_per_quick_check": "count",
    "cluster.build_node_calls": "count",
    "cluster.build_node_self_ms": "ms",
    "engine.runs": "count",
    "engine.optimize_self_ms": "ms",
    "engine.samples_per_run": "count",
    "engine.converged_frac": "ratio",
    "gp.fit_calls": "count",
    "gp.fit_self_ms": "ms",
    "gp.add_sample_calls": "count",
    "gp.add_sample_self_ms": "ms",
    "gp.refit_frac": "ratio",
    "gp.predict_calls": "count",
    "gp.predict_self_ms": "ms",
    "gp.predict_rows": "rows",
    "gp.train_n_mean": "samples",
    "optimizer.propose_calls": "count",
    "optimizer.screen_self_ms": "ms",
    "optimizer.slsqp_calls": "count",
    "optimizer.slsqp_self_ms": "ms",
    "optimizer.slsqp_nfev": "count",
    "optimizer.slsqp_success_frac": "ratio",
    "node.observe_calls": "count",
    "node.observe_self_ms": "ms",
    "node.physics_calls": "count",
    "node.physics_self_ms": "ms",
    "latency.p95_calls": "count",
    "latency.p95_self_ms": "ms",
    "alloc.round_calls": "count",
    "alloc.round_self_ms": "ms",
    "obstore.get_calls": "count",
    "obstore.hit_frac": "ratio",
    "obstore.put_calls": "count",
    "obstore.put_self_ms": "ms",
    "obstore.file_bytes": "bytes",
    "process.cpu_wall_ratio": "ratio",
    "blas_pool.cpu_wall_ratio": "ratio",
    "blas_pool.drain_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.bo_self_frac": "ratio",
}
