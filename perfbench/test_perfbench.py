"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``).

The smoke tests replay each workload at a tiny size through the same
code path as a real run, correctness checks included.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload, tmp_path, trace, seed=3):
    return run.run(workload, seed, 0.0, trace, tmp_path, shape=gen.TINY[workload])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_end_to_end_run_passes_its_checks(workload, tmp_path):
    result = _tiny(workload, tmp_path, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= gen.TINY[workload].n_jobs
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert metric["value"] == metric["value"]  # not NaN


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_traced_run_prints_every_layer_metric(workload, tmp_path):
    result = _tiny(workload, tmp_path, trace=True)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    value = {k: m["value"] for k, m in result["metrics"].items()}
    if workload == "bo-admit":
        assert value["gp.predict_calls"] > 0
        assert value["engine.runs"] > 0
    else:
        assert value["gp.predict_calls"] == 0
        assert value["optimizer.slsqp_calls"] == 0
    if workload == "bg-churn":
        assert value["node.physics_calls"] == 0
    if workload == "lc-churn":
        assert value["federation.shards_tried_per_arrival"] >= 1


def test_tracing_restores_every_boundary(tmp_path):
    before = [owner.__dict__[attr] for owner, attr, *_ in layers.BOUNDARIES]
    _tiny("lc-churn", tmp_path, trace=True)
    after = [owner.__dict__[attr] for owner, attr, *_ in layers.BOUNDARIES]
    assert before == after


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    shape = gen.TINY[workload]
    a = gen.generate(workload, 7, 0, shape).fingerprint()
    assert gen.generate(workload, 7, 0, shape).fingerprint() == a
    assert gen.generate(workload, 8, 0, shape).fingerprint() != a


def test_streams_differ_and_mix_is_stratified():
    shape = gen.SHAPES["bo-admit"]
    plans = [gen.generate("bo-admit", 1, s) for s in range(shape.streams)]
    assert len({p.fingerprint() for p in plans}) == shape.streams
    for plan in plans:
        n_lc = sum(1 for j in plan.jobs if j.job.is_lc)
        assert n_lc == round(shape.lc_fraction * shape.n_jobs)
    with pytest.raises(ValueError):
        gen.generate("bo-admit", 1, shape.streams)


def _span(i, parent, start, end, name="x"):
    return [i, parent, 0, name, start, end, None]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),   # child
        _span(2, 1, 1.5, 2.0),   # grandchild: charged to 1, not to 0
        _span(3, 0, 2.5, 4.0),   # overlaps child 1 by 0.5
        _span(4, 0, 9.0, 12.0),  # runs past the parent's end
        _span(5, -1, 20.0, 21.0),
    ]
    own = layers.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)  # covered [1,4] + [9,10]
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[2] == pytest.approx(0.5)
    assert own[3] == pytest.approx(1.5)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_recorder_nests_spans_and_shares_the_event_id():
    recorder = layers.Recorder()
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda self, t, seq, p: inner(seq),
                          event_of=lambda args: args[2])
    assert outer(None, 0.0, 41, None) == 42
    with recorder.step(7):
        inner(1)
    names = [(s[layers.NAME], s[layers.PARENT], s[layers.EVENT])
             for s in recorder.spans]
    assert names == [("outer", -1, 41), ("inner", 0, 41),
                     ("step", -1, 7), ("inner", 2, 7)]


def test_run_without_the_package_exits_nonzero(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bg-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
