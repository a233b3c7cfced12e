"""Benchmark of the ``repro.warehouse`` scheduler service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bo-admit --seed 1 --seconds 30 --trace 0

Workloads are ``bo-admit``, ``lc-churn`` and ``bg-churn`` (see
README.md).  With ``--trace 0`` the run replays the workload's job
streams, untraced, until ``--seconds`` are spent and prints the
end-to-end metrics.  With ``--trace 1`` it first replays the first
stream once in a child process under OpenBLAS's default thread pool
(``pool.py``), then spends half the remaining time on untraced replays
of that stream and half on traced replays of it, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` next to this
directory; the run exits with code 2 when it is missing and with
code 1 when a correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "admit_p50_ms": "ms",
    "admit_p90_ms": "ms",
    "cpu_ms_per_event": "ms",
    "peak_rss_mb": "MB",
    "reject_frac": "ratio",
    "qos_met_frac": "ratio",
    "jobs_per_node": "jobs",
}

#: Thread-count variables pinned to 1 unless already set.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

#: Seconds the default-pool replay may take before the run fails.  On a
#: contended host the pool slowed ``bo-admit`` streams 4-6x while sizing
#: (README, "Measured noise"); its stream 0 drains in about 10 s pinned.
POOL_TIMEOUT_S = 120

#: Set-ups timed per replay: cheap set-ups are repeated so that the
#: reported median rests on enough samples.
SETUP_REPS = {"bo-admit": 10, "lc-churn": 3, "bg-churn": 1}


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Bench:
    """Sets up and drains replays of one workload and seed."""

    def __init__(self, workload: str, seed: int, scratch: Path,
                 shape=None) -> None:
        import gen

        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.shape = shape if shape is not None else gen.SHAPES[workload]
        self.reps = SETUP_REPS[workload]

    def round(self, stream: int, recorder=None):
        """Set up (``reps`` times, keeping the last) and drain one stream."""
        import gen
        import layers
        import replay

        speed = replay.HostSpeed()
        before = speed.factor()
        setups = []
        for rep in range(self.reps):
            gc.collect()
            start = time.perf_counter()
            plan = gen.generate(self.workload, self.seed, stream, self.shape)
            fleet, seqs = replay.build(plan, self.scratch)
            setups.append(time.perf_counter() - start)
            if rep < self.reps - 1:
                fleet.close()
        scale = (before + speed.factor()) / 2
        gc.collect()
        try:
            if recorder is None:
                result = replay.drain(plan, fleet, seqs)
            else:
                with layers.instrument(recorder):
                    result = replay.drain(plan, fleet, seqs,
                                          step_span=recorder.step)
        finally:
            fleet.close()
        result.setup_s = setups
        result.norm_setup_s = [s / scale for s in setups]
        return result


def _by_stream_median(rounds, attr: str) -> float:
    """Sum over streams of each stream's median ``attr`` across repeats."""
    streams: Dict[int, List[float]] = {}
    for r in rounds:
        streams.setdefault(r.stream, []).append(getattr(r, attr))
    return sum(statistics.median(v) for v in streams.values())


def end_to_end(rounds, n_streams: int) -> Dict[str, float]:
    first = {}
    for r in rounds:
        first.setdefault(r.stream, r)
    first_pass = [first[s] for s in range(n_streams)]
    events = sum(r.events for r in first_pass)
    # A pass replays every stream once; each complete pass gives one
    # percentile over its pooled arrivals, and the median pass is kept.
    passes = [
        [x for r in rounds[i:i + n_streams] for x in r.norm_admit_ms]
        for i in range(0, len(rounds) - n_streams + 1, n_streams)
    ]
    arrivals = sum(r.arrivals for r in first_pass)
    checks = sum(r.qos_checks for r in first_pass)
    node_seconds = sum(r.node_seconds for r in first_pass)
    return {
        "setup_s": statistics.median(s for r in rounds for s in r.norm_setup_s),
        "events_per_s": events / _by_stream_median(rounds, "norm_drain_s"),
        "admit_p50_ms": statistics.median(percentile(p, 50) for p in passes),
        "admit_p90_ms": statistics.median(percentile(p, 90) for p in passes),
        "cpu_ms_per_event":
            _by_stream_median(rounds, "norm_cpu_s") * 1e3 / events,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reject_frac": sum(r.rejected for r in first_pass) / arrivals,
        "qos_met_frac": (
            (checks - sum(r.qos_failures for r in first_pass)) / checks
            if checks else 1.0
        ),
        "jobs_per_node": (
            sum(r.job_seconds for r in first_pass) / node_seconds
            if node_seconds else 0.0
        ),
    }


def default_pool_replay(workload: str, seed: int, scratch: Path,
                        shape) -> Dict[str, object]:
    """Replay stream 0 once in a child process with the BLAS thread
    variables unset, so OpenBLAS starts its default pool (one thread
    per CPU); returns what ``pool.py`` prints."""
    import dataclasses

    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, str(HERE / "pool.py"), workload, str(seed),
         str(scratch), json.dumps(dataclasses.asdict(shape))],
        env=env, capture_output=True, text=True, timeout=POOL_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"default-pool replay failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def per_layer(untraced, traced, traced_metrics, pool) -> Dict[str, float]:
    out = {
        name: statistics.median(m[name] for m in traced_metrics)
        for name in traced_metrics[0]
    }
    last = traced[-1]
    out.update({
        "service.qos_checks": last.qos_checks,
        "service.migrations": last.migrations,
        "service.violations": last.violations,
        "obstore.file_bytes": last.store_bytes,
        "process.cpu_wall_ratio": statistics.median(
            r.drain_cpu_s / r.drain_s for r in untraced),
        "blas_pool.cpu_wall_ratio": pool["drain_cpu_s"] / pool["drain_s"],
        "blas_pool.drain_ratio": pool["norm_drain_s"] / statistics.median(
            r.norm_drain_s for r in untraced),
        "trace.overhead_frac": (
            statistics.median(r.norm_drain_s for r in traced)
            / statistics.median(r.norm_drain_s for r in untraced) - 1.0
        ),
    })
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        scratch: Path, shape=None) -> Dict[str, object]:
    """Measure for about ``seconds``; returns the result record."""
    import layers

    bench = Bench(workload, seed, scratch, shape)
    n_streams = bench.shape.streams
    start = time.perf_counter()
    rounds = []

    def more(budget: float) -> bool:
        elapsed = time.perf_counter() - start
        per_round = elapsed / max(len(rounds), 1)
        return elapsed + per_round <= budget

    if not trace:
        # One full pass over the streams, then repeats while time lasts.
        while len(rounds) < n_streams or more(seconds):
            rounds.append(bench.round(len(rounds) % n_streams))
        metrics = end_to_end(rounds, n_streams)
        units = END_TO_END
    else:
        pool = default_pool_replay(workload, seed, scratch, bench.shape)
        seconds -= time.perf_counter() - start
        start = time.perf_counter()
        untraced, traced, traced_metrics = [], [], []
        while not untraced or more(seconds / 2):
            rounds.append(bench.round(0))
            untraced.append(rounds[-1])
        while not traced or more(seconds):
            recorder = layers.Recorder()
            result = bench.round(0, recorder)
            rounds.append(result)
            traced.append(result)
            traced_metrics.append(layers.layer_metrics(
                recorder.spans,
                events=result.events,
                arrivals=result.arrivals,
                drain_ms=result.drain_s * 1e3,
            ))
        recorder.write(ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.tsv.gz")
        metrics = per_layer(untraced, traced, traced_metrics, pool)
        units = layers.LAYER_UNITS
    digests = {}
    for r in rounds:
        digests.setdefault(r.stream, set()).add(r.digest)
    attempted = sum(r.arrivals for r in rounds)
    failed = sum(r.failed for r in rounds)
    if trace:
        # The thread pool must not change a single decision.
        digests[0].add(pool["digest"])
        attempted += pool["arrivals"]
        failed += pool["failed"]
    consistent = all(len(d) == 1 for d in digests.values())
    return {
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
        "digest": hashlib.sha256(" ".join(
            d for stream in sorted(digests) for d in sorted(digests[stream])
        ).encode()).hexdigest(),
        "rounds": len(rounds),
        "slowdown": statistics.median(r.slowdown for r in rounds),
        "latency_samples": sum(len(r.admit_ms) for r in rounds),
        "arrivals_per_pass": sum({r.stream: r.arrivals for r in rounds}.values()),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bo-admit", "lc-churn", "bg-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread unless the caller chose otherwise: with OpenBLAS's
    # default pool the full-BO replays swing 4-6x with host contention
    # (README, "Measured noise").  The environment block records it;
    # the traced run measures the default pool in a child process.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the package under test is missing ({src / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import envinfo
    import replay

    env = envinfo.collect(ROOT, args.workload, args.seed)
    scratch = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     scratch)
    except replay.CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("env: " + json.dumps(env, sort_keys=True))
    print(f"digest: {result['digest']}")
    print(f"rounds: {result['rounds']}  latency samples: "
          f"{result['latency_samples']} ({result['arrivals_per_pass']} per "
          f"pass)  host slowdown: {result['slowdown']:.3f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
