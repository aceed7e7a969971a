"""Hyperparameter search: random search over discrete spaces with k-fold
cross-validation, maximizing mean micro-F1.

Defaults follow the evaluation protocol: 40 trials, 4 folds.  The whole
search is reproducible bit-for-bit from (corpus, seed): fold assignment is
fixed once per search, and each trial samples its configuration from an
independently derived stream.

The search runs fold by fold.  Each annotated report is tokenized once per
search.  Each fold builds one vocabulary from its training lines, at the
largest n-gram order any trial asks, and finds the n-grams of its training
and held-out reports once under it (``textproc.featurize``): both stages
of a pipeline variant and a baseline's document rows read them.  Every
trial then reads its own order's columns of those (``Hits.at``), which
equal building and featurizing at that order afresh.  Folds can run in
parallel without changing the result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import partial
from typing import Hashable, Mapping, Sequence, get_type_hints

import numpy as np

from .baselines import (
    BASELINE_KINDS,
    DEFAULT_NGRAM_N,
    DocBaselineModel,
    baseline_from_dict,
    baseline_to_dict,
    fit_doc_baseline,
    predict_doc_baseline,
    predict_doc_rows,
    train_doc_baseline,
)
from .corpus import CorpusError, LabeledDocument, annotated_documents, gold_label, read_json
from .evaluation import micro_f1, parallel_map
from .learners import GbtParams, LinParams
from .pipeline import (
    BUNDLE_KIND,
    VARIANTS,
    Prediction,
    SelectedLines,
    SlaHyperParams,
    SlaModel,
    fit_sla,
    model_from_dict,
    model_to_dict,
    oracle_gold_lines,
    predict_featurized,
    predict_sla_batch,
    fit_order,
    train_sla,
)
from .textproc import featurize, tokenize_lines

METHODS = tuple(VARIANTS) + BASELINE_KINDS


# ---------------------------------------------------------------------------
# search spaces
# ---------------------------------------------------------------------------


def log_grid(lo_exp: float, hi_exp: float, count: int, base: float = 10.0) -> tuple[float, ...]:
    """``count`` points spaced evenly in log space between base**lo_exp and
    base**hi_exp inclusive."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(float(v) for v in np.power(base, np.linspace(lo_exp, hi_exp, count)))


@dataclass(frozen=True)
class SearchSpace:
    """Named discrete dimensions; a configuration picks one value of each."""

    dimensions: dict[str, tuple]

    def __post_init__(self) -> None:
        if not self.dimensions:
            raise ValueError("search space needs at least one dimension")
        for name, values in self.dimensions.items():
            if not values:
                raise ValueError(f"dimension {name!r} has no values")
        object.__setattr__(
            self, "dimensions", {k: tuple(v) for k, v in self.dimensions.items()}
        )


_GBT_DIMS = {
    "learning_rate": log_grid(-2.0, -0.5, 500),
    "max_depth": (3, 4, 5, 6, 7),
    "min_split_loss": (0.0, 0.01, 0.05, 0.1, 0.5, 1.0),
    "subsample": (0.5, 0.75, 1.0),
    "l2_lambda": (0.1, 0.5, 1.0, 1.5, 2.0),
}
_C_DIM = log_grid(-6.0, 6.0, 500)
_NGRAM_DIM = (1, 2, 3, 4)
_SCORED_DIMS = {
    "line_ngram_n": _NGRAM_DIM,
    "final_ngram_n": _NGRAM_DIM,
    "k": (1, 2, 3, 4, 5),
    "C": _C_DIM,
    **_GBT_DIMS,
}
# rules and oracle select without a stage-1 scorer, so only stage 2 is tuned
_UNSCORED_DIMS = {"final_ngram_n": _NGRAM_DIM, "C": _C_DIM}
_BASELINE_DIMS = {
    "doc-logreg": {"ngram_n": _NGRAM_DIM, "C": _C_DIM},
    "doc-boost": {"ngram_n": _NGRAM_DIM, **_GBT_DIMS},
}


def default_space(method: str) -> SearchSpace:
    """The stock search space for each pipeline variant or baseline."""
    if method in VARIANTS:
        scored = VARIANTS[method].selector == "scored"
        return SearchSpace(_SCORED_DIMS if scored else _UNSCORED_DIMS)
    if method in _BASELINE_DIMS:
        return SearchSpace(_BASELINE_DIMS[method])
    raise ValueError(f"unknown method {method!r}")


def sample_config(space: SearchSpace, rng: np.random.Generator) -> dict:
    """Independent uniform draw for every dimension (iterated in sorted
    name order so the result does not depend on dict construction order)."""
    config = {}
    for name in sorted(space.dimensions):
        values = space.dimensions[name]
        config[name] = values[int(rng.integers(0, len(values)))]
    return config


# ---------------------------------------------------------------------------
# fitting any method from a sampled configuration
# ---------------------------------------------------------------------------


# a baseline reads the whole document, so it selects no lines
_NO_RATIONALE = SelectedLines(())


@dataclass
class FittedVariant:
    """One trained method, pipeline variant or baseline: the one place that
    tells the two apart, when predicting and when reading or writing a
    model bundle."""

    sla_model: SlaModel | None = None
    baseline: DocBaselineModel | None = None

    @property
    def method(self) -> str:
        return self.sla_model.variant if self.sla_model is not None else self.baseline.kind

    @property
    def attribute(self) -> str:
        return (self.sla_model or self.baseline).attribute

    def predict_many(self, docs: Sequence[LabeledDocument]) -> list[Prediction]:
        """Label, per-class scores and line rationale (empty for a
        baseline) of each document.  An oracle reads its lines from each
        document's annotation."""
        if self.sla_model is not None:
            gold = [oracle_gold_lines(self.sla_model, d) for d in docs]
            return predict_sla_batch(self.sla_model, [d.report for d in docs], gold)
        return [
            Prediction(label, scores, rationale=_NO_RATIONALE)
            for label, scores in predict_doc_baseline(self.baseline, [d.report for d in docs])
        ]

    def predict(self, doc: LabeledDocument) -> Prediction:
        return self.predict_many([doc])[0]

    def predict_label(self, doc: LabeledDocument) -> str:
        return self.predict(doc).label

    def to_dict(self) -> dict:
        """The model bundle: the sla or the baseline bundle format."""
        if self.sla_model is not None:
            return model_to_dict(self.sla_model)
        return baseline_to_dict(self.baseline)

    @classmethod
    def load(cls, path: str) -> "FittedVariant":
        """Read a model bundle written from ``to_dict``."""
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        try:
            kind = read_json(payload, dict, "a model bundle").get("kind")
            if kind == BUNDLE_KIND:
                return cls(sla_model=model_from_dict(payload))
            if kind in BASELINE_KINDS:
                return cls(baseline=baseline_from_dict(payload))
        except ValueError as exc:
            raise CorpusError(f"{path}: {exc}") from None
        raise CorpusError(f"{path}: unknown model bundle kind {kind!r}")


_GBT_KEYS = tuple(f.name for f in fields(GbtParams) if f.name != "seed")
_SLA_KEYS = ("line_ngram_n", "final_ngram_n", "k")
# the config keys of each method ("C" is the L1 strength): a pipeline
# variant stores the whole SlaHyperParams in its bundle, so each takes the
# keys of both stages; a baseline takes only its own learner's keys
_METHOD_KEYS = {
    **{variant: _SLA_KEYS + _GBT_KEYS + ("C",) for variant in VARIANTS},
    "doc-logreg": ("ngram_n", "C"),
    "doc-boost": ("ngram_n",) + _GBT_KEYS,
}
# the type of each config key: that of the field it sets
_KEY_KINDS = dict(get_type_hints(SlaHyperParams), **get_type_hints(GbtParams), C=float, ngram_n=int)


def _present(cfg: Mapping, keys: Sequence[str]) -> dict:
    return {key: cfg[key] for key in keys if key in cfg}


def _learner_params(method: str, config: Mapping | None, seed: int) -> dict:
    """The keyword arguments that train ``method`` from a flat config dict
    of its ``_METHOD_KEYS``: ``hyper`` for a pipeline variant, ``lin``,
    ``gbt`` and ``ngram_n`` for a baseline.  A key that is absent takes the
    default of the parameter it sets; any other key, or a value of another
    JSON type than that parameter's, is a ValueError."""
    if method not in _METHOD_KEYS:
        raise ValueError(f"unknown method {method!r}")
    cfg = dict(config or {})
    unknown = sorted(set(cfg) - set(_METHOD_KEYS[method]))
    if unknown:
        raise ValueError(f"unknown {method} config keys: {', '.join(unknown)}")
    for key, value in cfg.items():
        read_json(value, _KEY_KINDS[key], f"{method} config key {key!r}")
    gbt = GbtParams(seed=seed, **_present(cfg, _GBT_KEYS))
    lin = LinParams(**({"l1_strength": cfg["C"]} if "C" in cfg else {}))
    if method in VARIANTS:
        return {"hyper": SlaHyperParams(gbt=gbt, lin=lin, **_present(cfg, _SLA_KEYS))}
    return {"lin": lin, "gbt": gbt, "ngram_n": cfg.get("ngram_n", DEFAULT_NGRAM_N)}


def fit_variant(
    method: str,
    train_docs: Sequence[LabeledDocument],
    attribute: str,
    config: Mapping | None = None,
    seed: int = 0,
    schemas=None,
    keyword_rules=None,
) -> FittedVariant:
    """Train one pipeline variant or baseline from a flat config dict of
    the method's ``_METHOD_KEYS``.  A key that is absent takes the default
    of the parameter it sets; any other key is a ValueError."""
    params = _learner_params(method, config, seed)
    if method in VARIANTS:
        model = train_sla(
            train_docs,
            attribute,
            variant=method,
            keyword_rules=keyword_rules,
            schemas=schemas,
            **params,
        )
        return FittedVariant(sla_model=model)
    model = train_doc_baseline(train_docs, attribute, kind=method, schemas=schemas, **params)
    return FittedVariant(baseline=model)


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------


def assign_folds(labels: Sequence[Hashable], folds: int, rng: np.random.Generator) -> np.ndarray:
    """Fold id per item.  Stratified by label when every class has at least
    ``folds`` members; otherwise a plain shuffled partition into
    nearly-equal folds."""
    n = len(labels)
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if n < folds:
        raise ValueError(f"cannot make {folds} folds from {n} items")
    counts: dict[Hashable, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    out = np.empty(n, dtype=np.int64)
    if all(c >= folds for c in counts.values()):
        pointer = 0
        for lab in sorted(counts, key=str):
            idx = np.array([i for i, l in enumerate(labels) if l == lab])
            rng.shuffle(idx)
            for i in idx:
                out[i] = pointer % folds
                pointer += 1
    else:
        idx = np.arange(n)
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            out[i] = pos % folds
    return out


@dataclass(frozen=True)
class TrialResult:
    config: dict
    fold_scores: tuple[float, ...]
    mean_score: float


def cross_validate(
    train_docs: Sequence[LabeledDocument],
    attribute: str,
    config: Mapping,
    folds: int = 4,
    variant: str = "sla",
    seed: int = 0,
    schemas=None,
) -> TrialResult:
    """Mean held-out micro-F1 of one configuration across k folds: a
    search over that one configuration."""
    return _search(train_docs, attribute, [config], folds, variant, seed, schemas, jobs=1)[0]


def _search(
    train_docs: Sequence[LabeledDocument],
    attribute: str,
    configs: Sequence[Mapping],
    folds: int,
    method: str,
    seed: int,
    schemas,
    jobs: int,
) -> list[TrialResult]:
    """Every configuration's ``TrialResult``, fold by fold.  Each annotated
    report is tokenized once.  The ``jobs`` workers take whole folds,
    fixed before any trial runs, so the job count cannot change a result."""
    docs = annotated_documents(train_docs, attribute, folds, f"{folds}-fold cross-validation")
    labels = [gold_label(d, attribute, schemas) for d in docs]
    fold_rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    fold_of = assign_folds(labels, folds, fold_rng)
    doc_lines = [tokenize_lines(d.report) for d in docs]
    score = partial(_score_fold, method, attribute, docs, doc_lines, labels, configs)
    held_out = [(fold_of == fold).tolist() for fold in range(folds)]
    fit_seeds = [
        int(np.random.SeedSequence((seed, 1 + fold)).generate_state(1)[0])
        for fold in range(folds)
    ]
    per_fold = parallel_map(score, held_out, fit_seeds, jobs=jobs)
    return [
        TrialResult(config=dict(config), fold_scores=scores, mean_score=sum(scores) / len(scores))
        for config, scores in zip(configs, zip(*per_fold))
    ]


def _score_fold(
    method, attribute, docs, doc_lines, labels, configs, held, fit_seed
) -> list[float]:
    """Held-out micro-F1 of every configuration on the fold whose documents
    ``held`` marks.  The fold's reports are featurized once, under one
    vocabulary of its training lines at the largest n-gram order any
    configuration asks; each trial reads its own order's columns.  The fit
    seed is the fold's, so a configuration that repeats an earlier one
    (equal as JSON, where 1 and 1.0 differ) takes its score unfitted."""

    def split(items):
        return [x for x, h in zip(items, held) if not h], [x for x, h in zip(items, held) if h]

    train_docs, held_docs = split(docs)
    train_lines, held_lines = split(doc_lines)
    train_labels, golds = split(labels)
    keys = [json.dumps(config, sort_keys=True) for config in configs]
    params = {
        key: _learner_params(method, config, fit_seed) for key, config in zip(keys, configs)
    }
    max_n = max(
        fit_order(method, p["hyper"]) if method in VARIANTS else p["ngram_n"]
        for p in params.values()
    )
    train_features, held_features = featurize(max_n, train_lines, held_lines)
    if method in VARIANTS:
        def predict(p):
            model = fit_sla(
                train_features, train_docs, train_labels, attribute, variant=method, **p
            )
            gold = [oracle_gold_lines(model, d) for d in held_docs]
            predictions = predict_featurized(model, held_features, gold)
            return [x.label for x in predictions]

    else:
        def predict(p):
            model = fit_doc_baseline(train_features, train_labels, attribute, method, **p)
            rows = held_features.at(model.vocab.max_n).documents
            return [label for label, _ in predict_doc_rows(model, rows)]

    scores = {key: micro_f1(predict(p), golds) for key, p in params.items()}
    return [scores[key] for key in keys]


# ---------------------------------------------------------------------------
# random search
# ---------------------------------------------------------------------------


def random_search(
    train_docs: Sequence[LabeledDocument],
    attribute: str,
    space: SearchSpace | None = None,
    trials: int = 40,
    folds: int = 4,
    seed: int = 0,
    variant: str = "sla",
    schemas=None,
    jobs: int = 1,
) -> tuple[dict, list[TrialResult]]:
    """Best configuration (ties broken toward the earliest trial) plus the
    full trial log."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if space is None:
        space = default_space(variant)
    trial_seeds = np.random.SeedSequence(seed).spawn(trials)
    configs = [
        sample_config(space, np.random.default_rng(ss)) for ss in trial_seeds
    ]
    results = _search(train_docs, attribute, configs, folds, variant, seed, schemas, jobs)

    best = results[0]
    for result in results[1:]:
        if result.mean_score > best.mean_score:
            best = result
    return dict(best.config), results
