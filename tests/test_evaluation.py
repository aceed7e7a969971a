import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sla import evaluation
from sla.corpus import load_schemas
from sla.evaluation import (
    DEFAULT_CI_ITERATIONS,
    DEFAULT_CI_LEVEL,
    DEFAULT_RUNS,
    DEFAULT_SIZES,
    agreement,
    bootstrap_ci,
    evaluate_attribute,
    evaluate_attributes,
    learning_curve,
    macro_f1,
    micro_f1,
    parallel_map,
)

from test_pipeline import tiny_corpus


# ---------------------------------------------------------------------------
# reference implementation: explicit confusion matrix, nothing shared with
# the library code
# ---------------------------------------------------------------------------


def reference_f1s(preds, golds, classes=None):
    if classes is None:
        classes = sorted(set(preds) | set(golds), key=str)
    matrix = {g: {p: 0 for p in classes} for g in classes}
    for p, g in zip(preds, golds):
        matrix[g][p] += 1
    per_class = []
    total_tp = total_fp = total_fn = 0
    for c in classes:
        tp = matrix[c][c] if c in matrix and c in matrix[c] else 0
        fp = sum(matrix[g][c] for g in classes if g != c)
        fn = sum(matrix[c][p] for p in classes if p != c)
        total_tp, total_fp, total_fn = total_tp + tp, total_fp + fp, total_fn + fn
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        per_class.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    micro_prec = total_tp / (total_tp + total_fp) if total_tp + total_fp else 0.0
    micro_rec = total_tp / (total_tp + total_fn) if total_tp + total_fn else 0.0
    micro = (
        2 * micro_prec * micro_rec / (micro_prec + micro_rec)
        if micro_prec + micro_rec
        else 0.0
    )
    return micro, sum(per_class) / len(per_class)


def test_f1s_match_reference_on_random_vectors():
    rng = np.random.default_rng(12345)
    alphabet = ["a", "b", "c", "d", "e", "f"]
    for _ in range(200):
        n = int(rng.integers(1, 40))
        n_classes = int(rng.integers(2, len(alphabet) + 1))
        preds = [alphabet[int(i)] for i in rng.integers(0, n_classes, size=n)]
        golds = [alphabet[int(i)] for i in rng.integers(0, n_classes, size=n)]
        ref_micro, ref_macro = reference_f1s(preds, golds)
        assert abs(micro_f1(preds, golds) - ref_micro) <= 1e-12
        assert abs(macro_f1(preds, golds) - ref_macro) <= 1e-12


def test_micro_f1_is_accuracy_bit_for_bit():
    rng = np.random.default_rng(999)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        preds = [str(i) for i in rng.integers(0, 4, size=n)]
        golds = [str(i) for i in rng.integers(0, 4, size=n)]
        accuracy = sum(p == g for p, g in zip(preds, golds)) / n
        assert micro_f1(preds, golds) == accuracy


def _class_count_micro_f1(preds, golds):
    """Micro-F1 as 2tp / (2tp + fp + fn) from per-class counts over the
    observed classes."""
    tp = fp = fn = 0
    for c in set(preds) | set(golds):
        tp += sum(p == g == c for p, g in zip(preds, golds))
        fp += sum(p == c != g for p, g in zip(preds, golds))
        fn += sum(g == c != p for p, g in zip(preds, golds))
    return 2.0 * tp / (2 * tp + fp + fn)


@given(st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")), min_size=1,
                max_size=300))
@settings(max_examples=200, deadline=None)
def test_micro_f1_equals_the_class_count_formula_bit_for_bit(pairs):
    preds, golds = [p for p, _ in pairs], [g for _, g in pairs]
    assert micro_f1(preds, golds).hex() == _class_count_micro_f1(preds, golds).hex()


def test_macro_f1_counts_missing_universe_classes_as_zero():
    preds = ["a", "a", "b", "b"]
    golds = ["a", "a", "b", "a"]
    observed = macro_f1(preds, golds)
    widened = macro_f1(preds, golds, class_set=["a", "b", "c"])
    assert widened == pytest.approx(observed * 2 / 3)
    ref_micro, ref_macro = reference_f1s(preds, golds, classes=["a", "b", "c"])
    assert widened == pytest.approx(ref_macro, abs=1e-12)


def test_metric_input_validation():
    with pytest.raises(ValueError):
        micro_f1(["a"], [])
    with pytest.raises(ValueError):
        micro_f1([], [])
    with pytest.raises(ValueError):
        macro_f1(["a"], ["a"], class_set=[])


def test_evaluate_attribute_per_class_and_confusion():
    preds = ["a", "b", "b", "c"]
    golds = ["a", "a", "b", "c"]
    report = evaluate_attribute(preds, golds)
    assert report.n_docs == 4
    assert report.micro_f1 == 0.75
    assert report.confusion == {"a": {"a": 1, "b": 1}, "b": {"b": 1}, "c": {"c": 1}}
    a = report.per_class["a"]
    assert (a.precision, a.recall, a.support) == (1.0, 0.5, 2)
    b = report.per_class["b"]
    assert (b.precision, b.recall, b.support) == (0.5, 1.0, 1)
    assert report.per_class["c"].f1 == 1.0
    assert report.micro_ci is None


def test_evaluate_attributes_averages_over_attributes():
    r1 = evaluate_attribute(["a", "a"], ["a", "a"])
    r2 = evaluate_attribute(["a", "b"], ["b", "b"])
    combined = evaluate_attributes({"one": r1, "two": r2})
    assert combined.avg_micro_f1 == pytest.approx((r1.micro_f1 + r2.micro_f1) / 2)
    assert combined.avg_macro_f1 == pytest.approx((r1.macro_f1 + r2.macro_f1) / 2)
    with pytest.raises(ValueError):
        evaluate_attributes({})


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_ci_degenerate_and_seeded():
    perfect = [("a", "a")] * 10
    assert bootstrap_ci(perfect, micro_f1, iterations=50) == (1.0, 1.0)

    mixed = [("a", "a")] * 8 + [("a", "b")] * 4
    lo, hi = bootstrap_ci(mixed, micro_f1, iterations=500, seed=3)
    assert 0.0 <= lo <= 8 / 12 <= hi <= 1.0
    assert lo < hi
    assert bootstrap_ci(mixed, micro_f1, iterations=500, seed=3) == (lo, hi)
    assert bootstrap_ci(mixed, micro_f1, iterations=500, seed=4) != (lo, hi)

    wide = bootstrap_ci(mixed, micro_f1, iterations=500, level=0.5, seed=3)
    assert wide[0] >= lo and wide[1] <= hi

    with pytest.raises(ValueError):
        bootstrap_ci([], micro_f1)
    with pytest.raises(ValueError):
        bootstrap_ci(mixed, micro_f1, level=1.0)
    for iterations in (0, -5):
        with pytest.raises(ValueError, match=f"iterations must be >= 1, got {iterations}"):
            bootstrap_ci(mixed, micro_f1, iterations=iterations)


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------


def test_agreement_worked_example():
    a = ["x", "x", "y", "y"]
    b = ["x", "y", "y", "y"]
    frac, kappa = agreement(a, b)
    assert frac == pytest.approx(0.75, abs=1e-6)
    assert kappa == pytest.approx(7 / 15, abs=1e-6)  # 0.4667 with pooled marginals


def test_agreement_identical_and_edge_cases():
    assert agreement(["p", "q", "p"], ["p", "q", "p"]) == (1.0, 1.0)
    assert agreement(["p", "p"], ["p", "p"]) == (1.0, 1.0)  # chance == 1 guard
    frac, kappa = agreement(["x", "x"], ["y", "y"])
    assert frac == 0.0
    assert kappa == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        agreement(["x"], ["x", "y"])
    with pytest.raises(ValueError):
        agreement([], [])


# ---------------------------------------------------------------------------
# learning curves
# ---------------------------------------------------------------------------


def curve_kwargs():
    return dict(
        variant="oracle",
        sizes=(8, 16),
        runs=2,
        base_seed=5,
        trials=2,
        folds=2,
        ci_iterations=50,
        schemas=load_schemas(),
    )


def test_learning_curve_shape_and_determinism():
    docs = tiny_corpus(n=40, seed=43)
    curve = learning_curve(docs, "grade", **curve_kwargs())
    assert curve.sizes == (8, 16)
    assert len(curve.cells) == 4
    assert {(c.size, c.run) for c in curve.cells} == {(8, 0), (8, 1), (16, 0), (16, 1)}
    seeds = {(c.split_seed, c.search_seed) for c in curve.cells}
    assert len(seeds) == 4  # every cell draws its own split and search
    for cell in curve.cells:
        assert cell.report.micro_ci is not None
        lo, hi = cell.report.micro_ci
        assert 0.0 <= lo <= cell.report.micro_f1 + 1e-12
        assert cell.report.micro_f1 - 1e-12 <= hi <= 1.0
        assert cell.best_config

    again = learning_curve(docs, "grade", **curve_kwargs())
    assert again == curve
    assert curve.mean_micro_f1(8) == pytest.approx(
        sum(c.report.micro_f1 for c in curve.cells if c.size == 8) / 2
    )
    with pytest.raises(ValueError):
        curve.mean_micro_f1(99)


def test_learning_curve_parallel_matches_serial():
    docs = tiny_corpus(n=40, seed=45)
    serial = learning_curve(docs, "grade", jobs=1, **curve_kwargs())
    parallel = learning_curve(docs, "grade", jobs=3, **curve_kwargs())
    assert serial == parallel


def test_learning_curve_rejects_oversized_request():
    docs = tiny_corpus(n=20, seed=47)
    with pytest.raises(ValueError, match="largest size"):
        learning_curve(docs, "grade", variant="oracle", sizes=(20,), runs=1)
    with pytest.raises(ValueError, match="positive"):
        learning_curve(docs, "grade", variant="oracle", sizes=(0,), runs=1)


def test_learning_curve_refuses_bad_counts_before_fitting(monkeypatch):
    docs = tiny_corpus(n=20, seed=47)

    def no_cell(*args, **kwargs):
        raise AssertionError("a cell was fitted")

    monkeypatch.setattr(evaluation, "run_curve_cell", no_cell)
    with pytest.raises(ValueError, match="iterations must be >= 1, got 0"):
        learning_curve(docs, "grade", variant="oracle", sizes=(8,), runs=1, ci_iterations=0)
    with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
        learning_curve(docs, "grade", variant="oracle", sizes=(8,), runs=1, jobs=0)
    with pytest.raises(ValueError, match="runs must be >= 1, got 0"):
        learning_curve(docs, "grade", variant="oracle", sizes=(8,), runs=0)
    for level in (1.5, 0.0):
        with pytest.raises(ValueError, match=rf"ci_level must be in \(0, 1\), got {level}"):
            learning_curve(docs, "grade", variant="oracle", sizes=(8,), runs=1, ci_level=level)


def test_parallel_map_keeps_task_order():
    tasks, more = [5, 3, 8, 1], [2, 2, 3, 4]
    assert parallel_map(pow, tasks, more, jobs=1) == [25, 9, 512, 1]
    assert parallel_map(pow, tasks, more, jobs=2) == [25, 9, 512, 1]
    for jobs in (0, -1):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            parallel_map(pow, tasks, more, jobs=jobs)


def test_reports_serialize_in_the_order_they_are_written():
    report = evaluation.score_outcomes([("a", "a"), ("a", "b"), ("b", "b")], 20, 0.9, 1)
    payload = report.to_dict()
    assert list(payload) == [
        "micro_f1", "macro_f1", "micro_ci", "macro_ci", "n_docs", "per_class", "confusion",
    ]
    assert payload["per_class"]["a"] == {"precision": 0.5, "recall": 1.0,
                                         "f1": pytest.approx(2 / 3), "support": 1}
    assert json.loads(json.dumps(payload))["micro_ci"] == list(report.micro_ci)
    assert json.loads(json.dumps(evaluate_attribute(["a"], ["a"]).to_dict()))["micro_ci"] is None

    cell = evaluation.CurveCell("grade", 8, 1, 11, 12, {"C": 1.0}, report)
    assert cell.to_dict() == {
        "attribute": "grade", "size": 8, "run": 1, "split_seed": 11, "search_seed": 12,
        "best_config": {"C": 1.0}, "micro_f1": report.micro_f1,
        "macro_f1": report.macro_f1, "micro_ci": report.micro_ci,
        "macro_ci": report.macro_ci, "n_test_docs": 3,
    }


def test_protocol_defaults():
    assert DEFAULT_SIZES == (32, 64, 128, 186)
    assert DEFAULT_RUNS == 10
    assert DEFAULT_CI_ITERATIONS == 1000
    assert DEFAULT_CI_LEVEL == 0.95
