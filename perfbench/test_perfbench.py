"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SIM_METRICS = ("sim_nsps", "sim_cold_nsps", "turnaround_sim_p50_s",
               "turnaround_sim_tail_s", "makespan_sim_s")
EXACT_COUNTS = ("graph.launches_per_step",
                "costmodel.chunk_visits_per_launch", "programcache.hits",
                "programcache.misses", "checkpoint.saves",
                "checkpoint.bytes_written", "service.preemptions",
                "costmodel.sim_memory_s_per_step",
                "costmodel.sim_compute_s_per_step",
                "service.queue_wait_sim_p50_s", "programcache.jit_sim_s")


def tiny(name, tmp_path):
    if name == "push-cpu":
        return workloads.PushCpu(n_particles=256, window=12, setups=1)
    if name == "pic-laser-slab":
        return workloads.PicLaserSlab(n_particles=256, window=4, setups=1)
    return workloads.ServiceMix(jobs=8, batches=2, min_particles=256,
                                max_particles=512, workdir=tmp_path / "w")


def spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_benchmark_metric_printed_with_its_unit(name, tmp_path):
    declared = spec()
    assert {w["name"] for w in declared["workloads"]} \
        == set(workloads.WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = tiny(name, tmp_path).run(3, 0.0, trace, {})
        out = io.StringIO()
        summary = run.report(name, result, trace, out=out)
        text = out.getvalue()
        metrics = summary["metrics"]
        assert set(metrics) == {m["name"] for m in declared[key]}
        for metric in declared[key]:
            assert metrics[metric["name"]]["unit"] == metric["unit"]
            assert f"{metric['name']} " in text and metric["unit"] in text
        assert summary["correct"] and summary["attempted"] >= 1


@pytest.mark.parametrize("name", ["push-cpu", "pic-laser-slab"])
def test_corrupted_expected_digest_is_a_failed_operation(name, tmp_path):
    result = tiny(name, tmp_path).run(3, 0.0, False, {"3": "0" * 64})
    assert result.attempted >= 1
    assert result.failed == result.attempted
    assert any(line.startswith("FAILED digest") for line in result.checks)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_simulated_metrics_and_counts_repeat_bit_identically(name,
                                                             tmp_path):
    first = tiny(name, tmp_path).run(5, 0.0, False, {})
    second = tiny(name, tmp_path).run(5, 0.0, False, {})
    for metric in SIM_METRICS:
        assert first.metrics[metric] == second.metrics[metric], metric
    first = tiny(name, tmp_path).run(5, 0.0, True, {})
    second = tiny(name, tmp_path).run(5, 0.0, True, {})
    for metric in EXACT_COUNTS:
        assert first.metrics[metric] == second.metrics[metric], metric


def _fail_on_call(monkeypatch, owner, attribute, call, error):
    """Make the ``call``-th call of ``owner.attribute`` raise ``error``."""
    original = getattr(owner, attribute)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) >= call:
            raise error
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, attribute, failing)


def _assert_all_failed(name, result, trace=False):
    summary = run.report(name, result, trace, out=io.StringIO())
    assert not summary["correct"]
    assert summary["attempted"] >= 1
    assert summary["failed"] == summary["attempted"]
    json.dumps(summary, allow_nan=False)


@pytest.mark.parametrize("trace", [False, True])
def test_a_raising_step_fails_the_run_without_crashing(monkeypatch,
                                                        tmp_path, trace):
    from repro.oneapi.runtime import PushEngine

    _fail_on_call(monkeypatch, PushEngine, "step", 5,
                  RuntimeError("injected"))
    result = tiny("push-cpu", tmp_path).run(3, 0.0, trace, {})
    _assert_all_failed("push-cpu", result, trace)
    assert any("injected" in line for line in result.checks)


def test_failed_service_jobs_are_failed_operations(monkeypatch, tmp_path):
    from repro.errors import ReproError
    from repro.oneapi.runtime import PushEngine

    # The service ends every job FAILED; the solo references raise too.
    _fail_on_call(monkeypatch, PushEngine, "step", 1,
                  ReproError("injected"))
    result = tiny("service-mix", tmp_path).run(3, 0.0, True, {})
    _assert_all_failed("service-mix", result, True)


def test_a_raising_service_run_fails_the_run(monkeypatch, tmp_path):
    from repro.service.scheduler import PushService

    _fail_on_call(monkeypatch, PushService, "run", 2,
                  RuntimeError("injected"))
    result = tiny("service-mix", tmp_path).run(3, 0.0, False, {})
    _assert_all_failed("service-mix", result)
    assert any("injected" in line for line in result.checks)


def test_seed_changes_the_inputs():
    mix = workloads.ServiceMix()
    arrivals = [[spec.arrival for spec in mix.job_specs(seed, 0)]
                for seed in (1, 2)]
    assert arrivals[0] != arrivals[1]
    assert arrivals[0] == [spec.arrival for spec in mix.job_specs(1, 0)]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert workloads.tail_percentile(range(1, 101)) == (90, 90)
    assert workloads.tail_percentile(range(1, 21)) == (50, 10)
    assert workloads.tail_percentile([3.0, 1.0]) == (100, 3.0)


def test_scale_ulp_distance_counts_ulps_of_the_component_scale():
    import numpy as np

    scale = np.float32(1.0)
    ulp = np.spacing(scale)
    reference = np.array([scale, 1.0e-6, 0.0], dtype=np.float32)
    result = reference + np.array([0.0, 3 * ulp, -2 * ulp],
                                  dtype=np.float32)
    assert workloads.scale_ulp_distance(result, reference) == \
        pytest.approx(3.0, rel=1e-3)
    assert workloads.scale_ulp_distance(reference, reference) == 0.0


def test_a_push_off_the_reference_fails_the_gate(monkeypatch, tmp_path):
    """A kernel one part in 1e5 off on px each step fails the reference
    comparison, though fused and unfused paths still agree bitwise."""
    import repro.oneapi.runtime as runtime

    original = runtime.boris_push_precalculated

    def skewed(ensemble, fields, dt):
        original(ensemble, fields, dt)
        px = ensemble.component("px")
        px *= px.dtype.type(1.0 + 1.0e-5)
    monkeypatch.setattr(runtime, "boris_push_precalculated", skewed)
    result = tiny("push-cpu", tmp_path).run(3, 0.0, False, {})
    assert result.failed == result.attempted >= 1
    assert any(line.startswith("ok    digest") for line in result.checks)
    assert any(line.startswith("FAILED 64 particles")
               for line in result.checks)


def test_chunk_visits_are_counted_in_the_page_model(tmp_path):
    """The count comes from page-locality lookups inside the cost
    model: the NUMA walk on the two-socket cpu, none on a single-domain
    GPU."""
    push = tiny("push-cpu", tmp_path).run(3, 0.0, True, {})
    pic = tiny("pic-laser-slab", tmp_path).run(3, 0.0, True, {})
    assert push.metrics["costmodel.chunk_visits_per_launch"] > 1
    assert pic.metrics["costmodel.chunk_visits_per_launch"] == 0


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "push-cpu",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
