import json

import pytest

from sla import baselines
from sla.baselines import (
    baseline_from_dict,
    baseline_to_dict,
    featurize_document,
    predict_doc_baseline,
    train_doc_baseline,
)
from sla.corpus import Report, load_schemas, select_documents, split_corpus
from sla.learners import GbtParams
from sla.textproc import build_vocabulary, tokenize
from sla.tuning import FittedVariant, cross_validate

from test_pipeline import tiny_corpus


def test_featurize_is_binary_union_of_lines():
    report = Report(id="r", cancer="colon", lines=("alpha beta", "beta gamma", "alpha"))
    vocab = build_vocabulary([tokenize(l) for l in report.lines] * 2, max_n=2)
    vec = featurize_document(report, vocab)
    assert vec.shape == (1, vocab.dimension)
    inv = {i: g for g, i in vocab.ngram_to_index.items()}
    grams = {inv[i] for i in vec.indices}
    assert grams == {"alpha", "beta", "gamma", "alpha beta", "beta gamma"}
    assert vec.data.tolist() == [1.0] * 5  # repeats collapse to presence
    assert list(vec.indices) == sorted(vec.indices)


@pytest.mark.parametrize("kind", ["doc-logreg", "doc-boost"])
def test_baselines_learn_planted_corpus(kind):
    docs = tiny_corpus(n=60, seed=23)
    split = split_corpus(docs, 40, seed=0)
    train = select_documents(docs, split.train_ids)
    test = select_documents(docs, split.test_ids)
    model = train_doc_baseline(
        train, "grade", kind=kind, ngram_n=2,
        gbt=GbtParams(num_rounds=40, seed=0), schemas=load_schemas(),
    )
    correct = 0
    for d, (label, scores) in zip(test, predict_doc_baseline(model, [d.report for d in test])):
        assert label in scores
        if label == " and ".join(d.annotations["grade"].values):
            correct += 1
    assert correct / len(test) >= 0.8


def test_single_class_training_set_predicts_constant():
    docs = [
        d for d in tiny_corpus(n=40, seed=25)
        if d.annotations["grade"].values == ("grade 1",)
    ][:4]
    assert len(docs) >= 2
    for kind in ("doc-logreg", "doc-boost"):
        model = train_doc_baseline(docs, "grade", kind=kind)
        [(label, scores)] = predict_doc_baseline(
            model, [Report(id="x", cancer="colon", lines=("nothing",))]
        )
        assert label == "grade 1"
        assert scores["grade 1"] == max(scores.values())


def test_train_rejects_bad_inputs():
    docs = tiny_corpus(n=4, seed=27)
    with pytest.raises(ValueError):
        train_doc_baseline(docs, "grade", kind="doc-forest")
    with pytest.raises(ValueError):
        train_doc_baseline(docs[:1], "grade")
    with pytest.raises(ValueError):
        train_doc_baseline(docs, "histologic_type")


@pytest.mark.parametrize("kind", ["doc-logreg", "doc-boost"])
def test_bundle_roundtrip(tmp_path, kind):
    docs = tiny_corpus(n=24, seed=29)
    model = train_doc_baseline(docs, "grade", kind=kind, gbt=GbtParams(num_rounds=10, seed=1))
    again = baseline_from_dict(baseline_to_dict(model))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(FittedVariant(baseline=model).to_dict()))
    loaded = FittedVariant.load(str(path)).baseline
    reports = [d.report for d in docs[:8]]
    expect = predict_doc_baseline(model, reports)
    assert len(expect) == 8
    assert predict_doc_baseline(again, reports) == expect
    assert predict_doc_baseline(loaded, reports) == expect


def test_bundle_rejects_unknown_version():
    docs = tiny_corpus(n=24, seed=29)
    payload = baseline_to_dict(train_doc_baseline(docs, "grade"))
    for version in (999, 0, None):
        payload["version"] = version
        with pytest.raises(ValueError, match="version"):
            baseline_from_dict(payload)


@pytest.mark.parametrize("kind", ["doc-logreg", "doc-boost"])
def test_batch_equals_one_report_at_a_time(kind):
    docs = tiny_corpus(n=24, seed=31)
    model = train_doc_baseline(docs, "grade", kind=kind, gbt=GbtParams(num_rounds=10, seed=1))
    reports = [d.report for d in docs]
    batch = predict_doc_baseline(model, reports)
    assert batch == [predict_doc_baseline(model, [r])[0] for r in reports]
    assert predict_doc_baseline(model, []) == []


def test_doc_boost_scores_each_class_model_once_per_fold(monkeypatch):
    docs = tiny_corpus(n=24, seed=33)
    real = baselines.predict_gbt_batch
    calls = []

    def counting(model, X):
        calls.append(X.shape[0])
        return real(model, X)

    monkeypatch.setattr(baselines, "predict_gbt_batch", counting)
    fitted = []
    real_fit = baselines.fit_doc_baseline

    def recording(*args, **kwargs):
        fitted.append(real_fit(*args, **kwargs))
        return fitted[-1]

    monkeypatch.setattr("sla.tuning.fit_doc_baseline", recording)
    cross_validate(docs, "grade", {"num_rounds": 5}, folds=4, variant="doc-boost")
    assert len(fitted) == 4
    assert len(calls) == sum(len(m.boost_models) for m in fitted)
    # each fold's class models all score that fold's held-out documents
    rows = iter(calls)
    per_fold = [{next(rows) for _ in m.boost_models} for m in fitted]
    assert all(len(sizes) == 1 for sizes in per_fold)
    assert sum(sizes.pop() for sizes in per_fold) == len(docs)
