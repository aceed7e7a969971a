"""Evaluation protocol: F1 metrics, bootstrap intervals, learning curves,
annotator agreement, and the error-reporting vocabulary.

Micro-F1 aggregates true/false positives over all classes; for
single-label multiclass prediction it equals accuracy.  Macro-F1 averages
per-class F1 over a class universe that defaults to the union of gold and
predicted labels, so a class predicted but never gold (or vice versa)
still drags the average down.

Confidence intervals are percentile bootstrap over documents: resample
document outcomes with replacement, recompute the metric, and take the
2.5th / 97.5th percentiles (for the default 95% level).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .corpus import LabeledDocument, annotated_documents, gold_label, select_documents, split_corpus


# ---------------------------------------------------------------------------
# F1 metrics
# ---------------------------------------------------------------------------


def _class_counts(
    preds: Sequence[Hashable], golds: Sequence[Hashable], class_set
) -> dict[Hashable, tuple[int, int, int]]:
    counts = {c: [0, 0, 0] for c in class_set}  # tp, fp, fn
    for p, g in zip(preds, golds):
        if p == g:
            if p in counts:
                counts[p][0] += 1
        else:
            if p in counts:
                counts[p][1] += 1
            if g in counts:
                counts[g][2] += 1
    return {c: tuple(v) for c, v in counts.items()}


def _observed_classes(preds, golds):
    return sorted(set(preds) | set(golds), key=str)


def _precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def micro_f1(preds: Sequence[Hashable], golds: Sequence[Hashable]) -> float:
    """Micro-averaged F1, which for single-label predictions is accuracy:
    each wrong prediction is a false positive and a false negative, so
    2tp / (2tp + fp + fn) = 2tp / 2n, the same float as tp / n."""
    if len(preds) != len(golds):
        raise ValueError("preds and golds must have equal length")
    if not golds:
        raise ValueError("cannot score zero documents")
    return sum(p == g for p, g in zip(preds, golds)) / len(golds)


def macro_f1(
    preds: Sequence[Hashable],
    golds: Sequence[Hashable],
    class_set: Sequence[Hashable] | None = None,
) -> float:
    """Unweighted mean of per-class F1 over the class universe."""
    if len(preds) != len(golds):
        raise ValueError("preds and golds must have equal length")
    if not golds:
        raise ValueError("cannot score zero documents")
    classes = list(class_set) if class_set is not None else _observed_classes(preds, golds)
    if not classes:
        raise ValueError("empty class set")
    counts = _class_counts(preds, golds, classes)
    total = 0.0
    for c in classes:
        total += _precision_recall_f1(*counts[c])[2]
    return total / len(classes)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class AttributeReport:
    micro_f1: float
    macro_f1: float
    per_class: dict[str, ClassMetrics]
    confusion: dict[str, dict[str, int]]
    n_docs: int
    micro_ci: tuple[float, float] | None = None
    macro_ci: tuple[float, float] | None = None

    def to_dict(self) -> dict:
        """The JSON record of ``evaluate``'s report, one per attribute."""
        return {
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "micro_ci": self.micro_ci,
            "macro_ci": self.macro_ci,
            "n_docs": self.n_docs,
            "per_class": {c: asdict(m) for c, m in self.per_class.items()},
            "confusion": self.confusion,
        }


def evaluate_attribute(
    preds: Sequence[str],
    golds: Sequence[str],
    class_set: Sequence[str] | None = None,
) -> AttributeReport:
    classes = list(class_set) if class_set is not None else _observed_classes(preds, golds)
    counts = _class_counts(preds, golds, classes)
    per_class = {}
    for c in classes:
        tp, _, fn = counts[c]
        per_class[str(c)] = ClassMetrics(*_precision_recall_f1(*counts[c]), support=tp + fn)
    confusion: dict[str, dict[str, int]] = {}
    for p, g in zip(preds, golds):
        confusion.setdefault(str(g), {}).setdefault(str(p), 0)
        confusion[str(g)][str(p)] += 1
    return AttributeReport(
        micro_f1=micro_f1(preds, golds),
        macro_f1=macro_f1(preds, golds, classes),
        per_class=per_class,
        confusion=confusion,
        n_docs=len(golds),
    )


@dataclass(frozen=True)
class EvalReport:
    attributes: dict[str, AttributeReport]
    avg_micro_f1: float
    avg_macro_f1: float


def evaluate_attributes(per_attribute: Mapping[str, AttributeReport]) -> EvalReport:
    """Attribute-averaged summary over per-attribute reports."""
    if not per_attribute:
        raise ValueError("no attributes to aggregate")
    reports = dict(per_attribute)
    return EvalReport(
        attributes=reports,
        avg_micro_f1=sum(r.micro_f1 for r in reports.values()) / len(reports),
        avg_macro_f1=sum(r.macro_f1 for r in reports.values()) / len(reports),
    )


# ---------------------------------------------------------------------------
# bootstrap confidence intervals
# ---------------------------------------------------------------------------


def bootstrap_ci(
    outcomes: Sequence[tuple[Hashable, Hashable]],
    metric_fn: Callable[[Sequence, Sequence], float],
    iterations: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap over per-document (pred, gold) outcomes."""
    if not outcomes:
        raise ValueError("cannot bootstrap zero outcomes")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if iterations < 1:
        raise ValueError(f"bootstrap iterations must be >= 1, got {iterations}")
    preds = np.array([p for p, _ in outcomes], dtype=object)
    golds = np.array([g for _, g in outcomes], dtype=object)
    n = len(outcomes)
    rng = np.random.default_rng(seed)
    stats = np.empty(iterations, dtype=np.float64)
    for it in range(iterations):
        idx = rng.integers(0, n, size=n)
        stats[it] = metric_fn(preds[idx].tolist(), golds[idx].tolist())
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(stats, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def score_outcomes(
    outcomes: Sequence[tuple[Hashable, Hashable]],
    iterations: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> AttributeReport:
    """``evaluate_attribute`` over (pred, gold) outcomes, with the micro- and
    macro-F1 bootstrap intervals filled in (both drawn from ``seed``)."""
    report = evaluate_attribute([p for p, _ in outcomes], [g for _, g in outcomes])
    return replace(
        report,
        micro_ci=bootstrap_ci(outcomes, micro_f1, iterations, level, seed),
        macro_ci=bootstrap_ci(outcomes, macro_f1, iterations, level, seed),
    )


# ---------------------------------------------------------------------------
# annotator agreement
# ---------------------------------------------------------------------------


def agreement(a: Sequence[Hashable], b: Sequence[Hashable]) -> tuple[float, float]:
    """(fraction agreement, kappa) between two aligned label sequences.

    Chance agreement uses the pooled label distribution of both
    annotators: p_e = sum_c ((n_a(c) + n_b(c)) / 2n)^2.  When p_e is 1
    both sequences are constant on the same label, so kappa is defined
    as 1.0 there.
    """
    if len(a) != len(b):
        raise ValueError("sequences must be aligned")
    if not a:
        raise ValueError("cannot measure agreement on zero items")
    n = len(a)
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    pooled: dict[Hashable, int] = {}
    for lab in list(a) + list(b):
        pooled[lab] = pooled.get(lab, 0) + 1
    p_e = sum((c / (2 * n)) ** 2 for c in pooled.values())
    if p_e >= 1.0:
        return p_o, 1.0
    kappa = (p_o - p_e) / (1.0 - p_e)
    return p_o, kappa


# ---------------------------------------------------------------------------
# learning curves
# ---------------------------------------------------------------------------


def parallel_map(fn: Callable, *iterables, jobs: int = 1) -> list:
    """``list(map(fn, *iterables))``, in ``jobs`` worker processes when
    ``jobs`` > 1.  Results keep task order, so ``jobs`` cannot change them."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return list(map(fn, *iterables))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *iterables))


DEFAULT_SIZES = (32, 64, 128, 186)
DEFAULT_RUNS = 10
DEFAULT_CI_ITERATIONS = 1000
DEFAULT_CI_LEVEL = 0.95


@dataclass(frozen=True)
class CurveCell:
    attribute: str
    size: int
    run: int
    split_seed: int
    search_seed: int
    best_config: dict
    report: AttributeReport

    def to_dict(self) -> dict:
        """The JSON record of one ``learning-curve`` cell."""
        report = self.report
        return {
            "attribute": self.attribute,
            "size": self.size,
            "run": self.run,
            "split_seed": self.split_seed,
            "search_seed": self.search_seed,
            "best_config": self.best_config,
            "micro_f1": report.micro_f1,
            "macro_f1": report.macro_f1,
            "micro_ci": report.micro_ci,
            "macro_ci": report.macro_ci,
            "n_test_docs": report.n_docs,
        }


@dataclass(frozen=True)
class LearningCurve:
    attribute: str
    variant: str
    sizes: tuple[int, ...]
    runs: int
    cells: tuple[CurveCell, ...] = field(default=())

    def mean_micro_f1(self, size: int) -> float:
        return self._mean(size, "micro_f1")

    def mean_macro_f1(self, size: int) -> float:
        return self._mean(size, "macro_f1")

    def _mean(self, size: int, metric: str) -> float:
        """The mean of ``metric`` over the cells of ``size``."""
        vals = [getattr(c.report, metric) for c in self.cells if c.size == size]
        if not vals:
            raise ValueError(f"no cells for size {size}")
        return sum(vals) / len(vals)


def _cell_seeds(base_seed: int, size: int, run: int) -> tuple[int, int, int]:
    state = np.random.SeedSequence((base_seed, size, run)).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def run_curve_cell(
    docs: Sequence[LabeledDocument],
    attribute: str,
    variant: str,
    size: int,
    run: int,
    base_seed: int,
    trials: int,
    folds: int,
    ci_iterations: int = DEFAULT_CI_ITERATIONS,
    ci_level: float = DEFAULT_CI_LEVEL,
    schemas=None,
) -> CurveCell:
    """One (size, run) point: fresh split, full hyperparameter search on the
    train side, refit, and a bootstrap-scored evaluation on the test side."""
    from . import tuning

    split_seed, search_seed, boot_seed = _cell_seeds(base_seed, size, run)
    split = split_corpus(docs, size, split_seed)
    train = select_documents(docs, split.train_ids)
    test = annotated_documents(select_documents(docs, split.test_ids), attribute, 1, "testing")
    best_config, _ = tuning.random_search(
        train,
        attribute,
        trials=trials,
        folds=folds,
        seed=search_seed,
        variant=variant,
        schemas=schemas,
    )
    fitted = tuning.fit_variant(
        variant, train, attribute, best_config, seed=search_seed, schemas=schemas
    )
    preds = fitted.predict_many(test)
    outcomes = [(p.label, gold_label(d, attribute, schemas)) for p, d in zip(preds, test)]
    return CurveCell(
        attribute=attribute,
        size=size,
        run=run,
        split_seed=split_seed,
        search_seed=search_seed,
        best_config=best_config,
        report=score_outcomes(outcomes, ci_iterations, ci_level, boot_seed),
    )


def learning_curve(
    docs: Sequence[LabeledDocument],
    attribute: str,
    variant: str = "sla",
    sizes: Sequence[int] = DEFAULT_SIZES,
    runs: int = DEFAULT_RUNS,
    base_seed: int = 0,
    trials: int = 40,
    folds: int = 4,
    ci_iterations: int = DEFAULT_CI_ITERATIONS,
    ci_level: float = DEFAULT_CI_LEVEL,
    schemas=None,
    jobs: int = 1,
) -> LearningCurve:
    """Accuracy as a function of training-set size: for each size, ``runs``
    independent re-splits, each with its own derived seed and its own
    hyperparameter search."""
    sizes = tuple(int(s) for s in sizes)
    if any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive")
    if max(sizes) > len(docs) - 1:
        raise ValueError(
            f"largest size {max(sizes)} needs at most {len(docs) - 1} (corpus has {len(docs)} docs)"
        )
    if runs < 1:  # these are refused before any cell is fitted, not after
        raise ValueError(f"runs must be >= 1, got {runs}")
    if ci_iterations < 1:
        raise ValueError(f"bootstrap iterations must be >= 1, got {ci_iterations}")
    if not 0.0 < ci_level < 1.0:
        raise ValueError(f"ci_level must be in (0, 1), got {ci_level}")
    run_cell = partial(
        run_curve_cell,
        docs,
        attribute,
        variant,
        base_seed=base_seed,
        trials=trials,
        folds=folds,
        ci_iterations=ci_iterations,
        ci_level=ci_level,
        schemas=schemas,
    )
    task_sizes = [size for size in sizes for _ in range(runs)]
    task_runs = [run for _ in sizes for run in range(runs)]
    cells = parallel_map(run_cell, task_sizes, task_runs, jobs=jobs)
    return LearningCurve(
        attribute=attribute,
        variant=variant,
        sizes=sizes,
        runs=runs,
        cells=tuple(cells),
    )
