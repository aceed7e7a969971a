import json

import numpy as np
import pytest

from sla import pipeline, tuning
from sla.corpus import CorpusError, gold_label, load_schemas
from sla.evaluation import micro_f1
from sla.learners import GbtParams, LinParams, predict_gbt_batch, predict_gbt_pairs
from sla.pipeline import SlaHyperParams
from sla.textproc import build_vocabulary, tokenize_lines
from sla.tuning import (
    METHODS,
    FittedVariant,
    SearchSpace,
    assign_folds,
    cross_validate,
    default_space,
    fit_variant,
    log_grid,
    random_search,
    TrialResult,
    sample_config,
)

from test_pipeline import tiny_corpus


def test_log_grid_endpoints_and_spacing():
    grid = log_grid(-2, 2, 5)
    assert grid == pytest.approx((0.01, 0.1, 1.0, 10.0, 100.0))
    assert log_grid(0, 0, 1) == (1.0,)
    with pytest.raises(ValueError):
        log_grid(0, 1, 0)


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace({})
    with pytest.raises(ValueError):
        SearchSpace({"C": ()})
    space = SearchSpace({"C": [0.1, 1.0]})
    assert space.dimensions["C"] == (0.1, 1.0)


def test_default_space_per_method():
    for method in METHODS:
        space = default_space(method)
        assert space.dimensions
    assert "k" in default_space("sla").dimensions
    assert set(default_space("oracle").dimensions) == {"final_ngram_n", "C"}
    assert set(default_space("doc-logreg").dimensions) == {"ngram_n", "C"}
    assert "max_depth" in default_space("doc-boost").dimensions
    with pytest.raises(ValueError):
        default_space("doc-forest")


def test_sample_config_ignores_dict_insertion_order():
    dims_a = {"a": (1, 2, 3), "b": (10, 20), "c": (0.5, 0.6, 0.7)}
    dims_b = dict(reversed(list(dims_a.items())))
    draw_a = sample_config(SearchSpace(dims_a), np.random.default_rng(5))
    draw_b = sample_config(SearchSpace(dims_b), np.random.default_rng(5))
    assert draw_a == draw_b
    assert set(draw_a) == {"a", "b", "c"}
    assert draw_a["b"] in (10, 20)


def test_assign_folds_stratified_and_balanced():
    labels = ["x"] * 8 + ["y"] * 4
    fold_of = assign_folds(labels, 4, np.random.default_rng(0))
    # every fold gets 2 x's and 1 y
    for fold in range(4):
        members = [labels[i] for i in range(12) if fold_of[i] == fold]
        assert sorted(members) == ["x", "x", "y"]


def test_assign_folds_falls_back_when_class_too_rare():
    labels = ["x"] * 7 + ["y"]  # y has fewer members than folds
    fold_of = assign_folds(labels, 4, np.random.default_rng(1))
    sizes = sorted(int(np.sum(fold_of == f)) for f in range(4))
    assert sizes == [2, 2, 2, 2]
    with pytest.raises(ValueError):
        assign_folds(["x", "y"], 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        assign_folds(labels, 1, np.random.default_rng(0))


def test_cross_validate_is_deterministic_and_scores_sane():
    docs = tiny_corpus(n=24, seed=31)
    config = {"final_ngram_n": 2, "C": 1.0}
    a = cross_validate(docs, "grade", config, folds=3, variant="oracle",
                       seed=4, schemas=load_schemas())
    b = cross_validate(docs, "grade", config, folds=3, variant="oracle",
                       seed=4, schemas=load_schemas())
    assert a == b
    assert len(a.fold_scores) == 3
    assert all(0.0 <= s <= 1.0 for s in a.fold_scores)
    assert a.mean_score == pytest.approx(sum(a.fold_scores) / 3)
    c = cross_validate(docs, "grade", config, folds=3, variant="oracle",
                       seed=5, schemas=load_schemas())
    assert c.fold_scores != a.fold_scores  # folds reshuffle with the seed


def test_cross_validate_scores_lines_once_per_fit_and_per_held_out_fold(monkeypatch):
    trained, held = [], []

    def counting_matrix(model, X):
        trained.append(X.shape[0])
        return predict_gbt_batch(model, X)

    def counting_pairs(model, line, column, shape):
        held.append(shape[0])
        return predict_gbt_pairs(model, line, column, shape)

    monkeypatch.setattr(pipeline, "predict_gbt_batch", counting_matrix)
    monkeypatch.setattr(pipeline, "predict_gbt_pairs", counting_pairs)
    docs = tiny_corpus(n=24, seed=31)
    cross_validate(docs, "grade", {"k": 2, "num_rounds": 10}, folds=4, variant="sla")
    # each fold: one call over its training lines' matrix, one over its
    # held-out lines' hits
    assert len(trained) == len(held) == 4
    lines = sum(len(d.report.lines) for d in docs)
    assert (sum(trained), sum(held)) == (3 * lines, lines)


def _ref_cross_validate(train_docs, attribute, config, folds, variant, seed, schemas=None):
    """The trial-major cross-validation that the fold-major search replaced,
    kept as a reference: each (trial, fold) fit tokenizes its documents and
    builds its vocabularies afresh, at its own n-gram orders."""
    docs = [d for d in train_docs if attribute in d.annotations]
    labels = [gold_label(d, attribute, schemas) for d in docs]
    fold_rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    fold_of = assign_folds(labels, folds, fold_rng)
    scores = []
    for fold in range(folds):
        train = [d for d, f in zip(docs, fold_of) if f != fold]
        held = [d for d, f in zip(docs, fold_of) if f == fold]
        fit_seed = int(np.random.SeedSequence((seed, 1 + fold)).generate_state(1)[0])
        fitted = fit_variant(variant, train, attribute, config, seed=fit_seed, schemas=schemas)
        _assert_fresh_vocabularies(fitted, train)
        preds = [p.label for p in fitted.predict_many(held)]
        golds = [lab for lab, f in zip(labels, fold_of) if f == fold]
        scores.append(micro_f1(preds, golds))
    return TrialResult(
        config=dict(config),
        fold_scores=tuple(scores),
        mean_score=sum(scores) / len(scores),
    )


def _assert_fresh_vocabularies(fitted, train):
    """A pipeline model's vocabularies are restrictions of one built at the
    larger order; check each equals a fresh build at its own order."""
    model = fitted.sla_model
    if model is None:
        return
    lines = [tl for d in train for tl in tokenize_lines(d.report)]
    hyper = model.hyper
    orders = ((model.line_vocab, hyper.line_ngram_n), (model.final_vocab, hyper.final_ngram_n))
    for vocab, n in orders:
        if vocab is not None:
            assert vocab.ngram_to_index == build_vocabulary(lines, n).ngram_to_index


_ORDER_KEYS = ("ngram_n", "line_ngram_n", "final_ngram_n")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "method", ["sla", "rules", "oracle", "no_join", "doc-logreg", "doc-boost"]
)
def test_search_matches_the_trial_major_reference(method, jobs):
    docs = tiny_corpus(n=32, seed=45)
    dims = dict(default_space(method).dimensions)
    # C and forest sizes where the models are not constant predictors, so a
    # wrong feature column shows in the fold scores
    if "C" in dims:
        dims["C"] = (0.3, 1.0, 10.0)
    if method not in ("rules", "oracle", "doc-logreg"):
        dims["num_rounds"] = (20, 40)
    kw = dict(trials=5, folds=3, seed=6, variant=method, schemas=load_schemas())
    _, results = random_search(docs, "grade", space=SearchSpace(dims), jobs=jobs, **kw)
    # the trials ask for several n-gram orders, so most read a restriction
    orders = {max(r.config[k] for k in _ORDER_KEYS if k in r.config) for r in results}
    assert len(orders) > 1
    for result in results:
        reference = _ref_cross_validate(
            docs, "grade", result.config, 3, method, 6, schemas=load_schemas()
        )
        assert result == reference


@pytest.mark.parametrize("method, fit, config", [
    ("doc-logreg", "fit_doc_baseline", {"ngram_n": 2, "C": 10.0}),
    ("sla", "fit_sla", {"k": 2, "num_rounds": 10, "C": 10.0}),
])
def test_search_fits_each_distinct_configuration_once_per_fold(monkeypatch, method, fit, config):
    docs = tiny_corpus(n=24, seed=47)
    fits = []
    real = getattr(tuning, fit)

    def counting(*args, **kwargs):
        fits.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tuning, fit, counting)
    other = {**config, "C": 0.3}
    as_int = {**config, "C": 10}  # equal to C = 10.0, yet another configuration
    configs = [config, other, dict(reversed(config.items())), as_int, config]
    results = tuning._search(docs, "grade", configs, 3, method, 6, load_schemas(), jobs=1)
    assert len(fits) == 3 * 3  # config, other and as_int, on each of 3 folds
    assert [r.config for r in results] == configs
    assert results[0] == results[2] == results[4]
    for result in results[:4]:
        alone = cross_validate(docs, "grade", result.config, folds=3, variant=method, seed=6,
                               schemas=load_schemas())
        assert result == alone


def test_cross_validate_needs_enough_docs():
    docs = tiny_corpus(n=3, seed=33)
    with pytest.raises(ValueError, match="at least 4"):
        cross_validate(docs, "grade", {}, folds=4, variant="oracle")


def test_random_search_returns_best_trial_earliest_on_tie():
    docs = tiny_corpus(n=20, seed=35)
    space = SearchSpace({"C": (1.0, 1.0), "final_ngram_n": (1, 2)})
    best, results = random_search(
        docs, "grade", space=space, trials=5, folds=2, seed=9,
        variant="oracle", schemas=load_schemas(),
    )
    assert len(results) == 5
    top = max(r.mean_score for r in results)
    first_top = next(r for r in results if r.mean_score == top)
    assert best == first_top.config
    again, _ = random_search(
        docs, "grade", space=space, trials=5, folds=2, seed=9,
        variant="oracle", schemas=load_schemas(),
    )
    assert again == best


def test_random_search_parallel_matches_serial():
    docs = tiny_corpus(n=20, seed=37)
    space = SearchSpace({"C": (0.1, 1.0, 10.0), "final_ngram_n": (1, 2)})
    kw = dict(space=space, trials=4, folds=2, seed=2, variant="oracle",
              schemas=load_schemas())
    best1, res1 = random_search(docs, "grade", jobs=1, **kw)
    best2, res2 = random_search(docs, "grade", jobs=2, **kw)
    assert best1 == best2
    assert res1 == res2
    with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
        random_search(docs, "grade", jobs=0, **kw)


def test_fit_variant_maps_flat_config():
    docs = tiny_corpus(n=16, seed=39)
    fitted = fit_variant(
        "sla", docs, "grade",
        {"k": 2, "line_ngram_n": 1, "final_ngram_n": 3, "C": 0.5,
         "learning_rate": 0.2, "max_depth": 4, "num_rounds": 12},
        seed=11, schemas=load_schemas(),
    )
    m = fitted.sla_model
    assert (m.hyper.k, m.hyper.line_ngram_n, m.hyper.final_ngram_n) == (2, 1, 3)
    assert m.hyper.lin.l1_strength == 0.5
    assert m.hyper.gbt.learning_rate == 0.2
    assert m.hyper.gbt.max_depth == 4
    assert m.hyper.gbt.num_rounds == 12
    assert m.hyper.gbt.seed == 11
    assert fitted.predict_label(docs[0]) in m.final_classifier.classes

    base = fit_variant("doc-logreg", docs, "grade", {"ngram_n": 2, "C": 2.0},
                       schemas=load_schemas())
    assert base.baseline.kind == "doc-logreg"
    assert base.baseline.linear is not None
    assert base.predict_label(docs[0])

    with pytest.raises(ValueError):
        fit_variant("nope", docs, "grade")


def test_oracle_fitted_variant_requires_annotation_at_predict():
    docs = tiny_corpus(n=16, seed=41)
    fitted = fit_variant("oracle", docs, "grade", schemas=load_schemas())
    stripped = type(docs[0])(report=docs[0].report, annotations={})
    with pytest.raises(CorpusError, match="gold lines"):
        fitted.predict_label(stripped)


def test_fit_variant_rejects_unknown_config_keys():
    docs = tiny_corpus(n=16, seed=39)
    with pytest.raises(ValueError, match="unknown sla config keys: max_dpth"):
        fit_variant("sla", docs, "grade", {"max_dpth": 3})
    with pytest.raises(ValueError, match="ngram_n"):
        fit_variant("rules", docs, "grade", {"ngram_n": 2})
    with pytest.raises(ValueError, match="final_ngram_n, k"):
        fit_variant("doc-logreg", docs, "grade", {"k": 2, "final_ngram_n": 1, "C": 1.0})


@pytest.mark.parametrize(
    "method, foreign",
    [("doc-logreg", {"max_depth": 2, "num_rounds": 1}), ("doc-boost", {"C": 1e-6})],
)
def test_baselines_refuse_the_other_learners_keys(method, foreign):
    docs = tiny_corpus(n=16, seed=39)
    message = f"unknown {method} config keys: {', '.join(sorted(foreign))}"
    with pytest.raises(ValueError, match=message):
        fit_variant(method, docs, "grade", {"ngram_n": 1, **foreign})


def test_fit_variant_leaves_absent_keys_to_the_parameter_defaults():
    docs = tiny_corpus(n=16, seed=39)
    # k is accepted by every pipeline variant, the unscored ones included
    oracle = fit_variant("oracle", docs, "grade", {"k": 1, "C": 2.0}, seed=5)
    assert oracle.sla_model.hyper == SlaHyperParams(
        k=1, gbt=GbtParams(seed=5), lin=LinParams(l1_strength=2.0)
    )
    base = fit_variant("doc-boost", docs, "grade", {"num_rounds": 3}, seed=5)
    assert base.baseline.vocab.max_n == 1
    assert all(m.params == GbtParams(num_rounds=3, seed=5) for m in base.baseline.boost_models)


def test_fitted_variant_predicts_and_round_trips_its_bundle(tmp_path):
    docs = tiny_corpus(n=16, seed=43)
    for method in ("no_join", "oracle", "doc-boost"):
        fitted = fit_variant(method, docs, "grade", {"num_rounds": 5}, schemas=load_schemas())
        path = tmp_path / f"{method}.json"
        path.write_text(json.dumps(fitted.to_dict()), encoding="utf-8")
        loaded = FittedVariant.load(str(path))
        assert (loaded.method, loaded.attribute) == (method, "grade")
        preds = [fitted.predict(d) for d in docs]
        assert [loaded.predict(d) for d in docs] == preds
        assert [p.label for p in preds] == [fitted.predict_label(d) for d in docs]
        assert all(bool(p.rationale.segments) == (method != "doc-boost") for p in preds[:3])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "doc-forest"}), encoding="utf-8")
    with pytest.raises(CorpusError, match="unknown model bundle kind 'doc-forest'"):
        FittedVariant.load(str(bad))
