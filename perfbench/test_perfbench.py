"""The benchmark's own tests.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_child_coverage_on_synthetic_tree():
    # 0 root [0, 10]
    # 1   a [1, 4]        2 a.x [2, 3]
    # 3   b [3.5, 6]      overlaps a by 0.5
    # 4   c [9, 12]       runs past the root's end by 2
    # 5   b.y [5, 7]      runs past b's end by 1
    start = [0.0, 1.0, 2.0, 3.5, 9.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0, 7.0]
    parent = [-1, 0, 1, 0, 0, 3]
    covered = tracing.child_coverage(start, end, parent)
    np.testing.assert_allclose(covered, [3.0 + 2.0 + 1.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    own = np.array(end) - np.array(start) - covered
    np.testing.assert_allclose(own, [4.0, 2.0, 1.0, 1.5, 3.0, 2.0])
    assert np.all(own >= 0.0)


def test_tracer_aggregates_by_phase():
    def leaf(x):
        return x + 1

    holder = type("Holder", (), {})()
    holder.leaf = leaf

    def outer(n):
        return sum(holder.leaf(i) for i in range(n))

    tracer = tracing.Tracer(targets=())
    holder.leaf = tracer.wrap("m.leaf", leaf)
    traced_outer = tracer.wrap("m.outer", outer)
    with tracer.op("cold"):
        traced_outer(2)
    with tracer.op("warm"):
        traced_outer(3)
    agg = tracer.aggregate()
    assert agg[("cold", "m.leaf")]["calls"] == 2
    assert agg[("warm", "m.leaf")]["calls"] == 3
    assert agg[("warm", "m.outer")]["calls"] == 1
    warm = agg[("warm", "m.outer")]
    assert 0.0 <= warm["self_s"] <= warm["s"]
    assert warm["s"] >= agg[("warm", "m.leaf")]["s"]


def test_missing_wrap_target_is_absent_not_zero():
    tracer = tracing.Tracer(
        targets=(("fracpow.apply_qgamma", "spdelab.stepper", "no_such_function"),)
    )
    tracer.install()
    tracer.uninstall()
    assert "no_such_function not found" in tracer.absent["fracpow.apply_qgamma"]
    with tracer.op("warm"):
        pass
    metrics, absent = tracing.layer_metrics(tracer, 1, 1, [1.0], [1.0])
    for name in ("fracpow.apply_qgamma.calls", "fracpow.nodes", "fracpow.pencil_solves"):
        assert name not in metrics
        assert "not found" in absent[name]
    assert "rng.keyed_normals.calls" in metrics


def test_scaling_removes_handler_time_and_uses_own_samples():
    sampler = hostspeed.Sampler()
    nominal = hostspeed.NOMINAL_S
    sampler.samples = [5 * nominal] * hostspeed.MIN_SAMPLES
    sampler.busy_s = 1.0
    mark = sampler.mark()
    # an operation of 10 s wall, 0.5 s of it in the handler, host at half speed
    sampler.samples += [2 * nominal] * 10
    sampler.busy_s += 0.5
    assert sampler.scaled(10.0, mark) == pytest.approx(9.5 / 2)
    # too few samples of its own: the latest MIN_SAMPLES stand in
    mark = sampler.mark()
    sampler.samples.append(4 * nominal)
    expected = hostspeed.MIN_SAMPLES / (4 + 2 * (hostspeed.MIN_SAMPLES - 1))
    assert sampler.scaled(1.0, mark) == pytest.approx(expected)


def test_sampler_fires_during_a_busy_loop():
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        mark = sampler.mark()
        t = time.perf_counter()
        while time.perf_counter() - t < 20 * hostspeed.INTERVAL_S:
            pass
        wall = time.perf_counter() - t
    finally:
        sampler.stop()
    assert len(sampler.samples) - mark[0] >= 10
    assert 0.0 < sampler.scaled(wall, mark) < wall * hostspeed.NOMINAL_S / min(sampler.samples)


def test_benchmark_json_names_the_printed_metrics():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == tracing.PER_LAYER[m["name"]][0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    env = report["environment"]
    assert env["threads"]["OMP_NUM_THREADS"] == "1"
    assert env["seed"] == 5 and env["operations"]["warm"] >= 1
    assert len(report["summary"]["digest"]) == 16
    if trace:
        assert report["absent"] == {}
        assert all(float(v).is_integer() for v in report["counts"].values())
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
