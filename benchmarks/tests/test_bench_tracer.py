"""Tests of the benchmark's span tracer."""

import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import sla  # noqa: E402
from layers import TARGETS, UNITS, layer_metrics  # noqa: E402
from tracer import Target, Tracer, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.layer.outer spends 1 s, calls inner (2 s), spends 3 s and
    calls inner again through an alias imported into fakepkg.other."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.layer")
    other = types.ModuleType("fakepkg.other")

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        layer.inner()
        clock.advance(3.0)
        other.inner_alias()

    layer.inner, layer.outer = inner, outer
    other.inner_alias = inner
    for name, mod in (("fakepkg", pkg), ("fakepkg.layer", layer), ("fakepkg.other", other)):
        monkeypatch.setitem(sys.modules, name, mod)
    return clock, layer, other


def test_self_time_is_duration_minus_child_spans(fake_package):
    clock, layer, other = fake_package
    targets = [Target("layer", "outer"), Target("layer", "inner")]
    with Tracer(targets, package="fakepkg", clock=clock) as tracer:
        layer.outer()
    stats = tracer.stats()
    assert stats["layer.outer"].calls == 1
    assert stats["layer.outer"].total_s == 8.0
    assert stats["layer.outer"].self_s == 4.0
    assert stats["layer.inner"].calls == 2
    assert stats["layer.inner"].self_s == 4.0
    # spans are (name, start, end, parent) in start order
    assert tracer.spans == [
        ("layer.outer", 0.0, 8.0, -1),
        ("layer.inner", 1.0, 3.0, 0),
        ("layer.inner", 6.0, 8.0, 0),
    ]


def test_self_times_merge_overlapping_children():
    spans = [("p", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 3.0, 6.0, 0)]
    assert self_times(spans) == [5.0, 3.0, 3.0]


def test_wrappers_are_removed_on_exit(fake_package):
    clock, layer, other = fake_package
    original = layer.inner
    with Tracer([Target("layer", "inner")], package="fakepkg", clock=clock):
        assert layer.inner is not original
        assert other.inner_alias is layer.inner
    assert layer.inner is original and other.inner_alias is original


def test_rebinding_reaches_imported_aliases():
    original = sla.learners.predict_gbt_batch
    assert sla.pipeline.predict_gbt_batch is original
    X = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
    model = sla.learners.train_gbt(X, [1.0, 0.0, 1.0, 0.0], sla.learners.GbtParams(num_rounds=2))
    with Tracer([Target("learners", "predict_gbt_batch")]) as tracer:
        wrapped = sla.learners.predict_gbt_batch
        assert wrapped is not original
        assert sla.pipeline.predict_gbt_batch is wrapped
        assert sla.baselines.predict_gbt_batch is wrapped
        sla.pipeline.predict_gbt_batch(model, X)
        sla.baselines.predict_gbt_batch(model, X)
    assert tracer.stats()["learners.predict_gbt_batch"].calls == 2
    assert sla.pipeline.predict_gbt_batch is original
    assert sla.baselines.predict_gbt_batch is original


def test_count_hook_errors_are_counted_not_raised(fake_package):
    clock, layer, _ = fake_package

    def broken(state, args, kwargs, result):
        raise TypeError("signature changed")

    with Tracer([Target("layer", "inner", broken)], package="fakepkg", clock=clock) as tracer:
        layer.inner()
    assert tracer.count_errors == {"layer.inner": 1}


def test_absent_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(sla.textproc, "vectorize")
    targets = TARGETS + [Target("no_such_module", "f")]
    with Tracer(targets) as tracer:
        pass
    assert tracer.absent == ["textproc.vectorize", "no_such_module.f"]
    metrics = layer_metrics(tracer, overhead_s=0.0)
    assert set(metrics) == set(UNITS)
    assert metrics["textproc.vectorize.calls"] == 0.0
    assert metrics["tracer.absent_functions"] == 2.0
