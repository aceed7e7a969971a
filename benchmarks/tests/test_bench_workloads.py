"""Smoke runs of each benchmark workload at a tiny size, and the
agreement of the metric names with BENCHMARK.json."""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_output_checks(name):
    workload = workloads.tiny(workloads.WORKLOADS[name])
    run = workloads.measure(workload, seed=3, seconds=0.0, setups=1)
    assert run.checks.failed == 0
    assert set(run.metrics) == set(workloads.UNITS)
    assert all(math.isfinite(v) for v in run.metrics.values())
    assert run.metrics["fit_s"] > 0 and run.metrics["predict_docs_per_s"] > 0
    expected_ops = workload.min_passes * (
        workloads.SWEEPS * workload.heldout_docs + (2 if workload.trials else 1)
    )
    assert run.attempted == expected_ops

    traced = workloads.trace(workload, seed=3)
    assert traced.checks.failed == 0
    assert set(traced.metrics) == set(layers.UNITS)
    assert traced.metrics["tracer.absent_functions"] == 0
    assert traced.metrics["tracer.count_errors"] == 0
    assert traced.metrics["textproc.tokenize_lines.calls"] > 0


def test_a_repeat_that_predicts_otherwise_fails_the_check():
    workload = workloads.tiny(workloads.WORKLOADS["train-predict"])
    inputs = workloads.make_inputs(workload, seed=3)
    checks = workloads.Checks()
    result = workloads.run_pass(workload, inputs, checks)
    workloads.check_repeat(checks, workload, inputs, result)
    assert checks.failed == 0
    result.labels = ("not a label",) + result.labels[1:]
    workloads.check_repeat(checks, workload, inputs, result)
    assert checks.failed == 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
