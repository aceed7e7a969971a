import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sla import cli
from sla.corpus import gold_label, load_corpus
from sla import pipeline, synth
from sla.pipeline import SCORED_VARIANTS, VARIANTS
from sla.tuning import METHODS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


GEN_CONFIG = {
    "cancer": "colon",
    "num_docs": 30,
    "lines_per_doc": [14, 18],
    "attributes": [
        {
            "attribute": "grade",
            "values": ["grade 1", "grade 2", "grade 3", "not reported"],
            "weights": [0.4, 0.35, 0.15, 0.1],
        }
    ],
    "synoptic_probability": 0.8,
    "rare_phrasing_rate": 0.3,
    "seed": 11,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "gen.json"
    config.write_text(json.dumps(GEN_CONFIG), encoding="utf-8")
    corpus = root / "corpus.jsonl"
    code = cli.main(["synth", "--config", str(config), "--out", str(corpus)])
    assert code == 0
    return root


def test_synth_writes_corpus_and_manifest(workdir, capsys, tmp_path):
    corpus = workdir / "corpus.jsonl"
    assert corpus.exists()
    lines = corpus.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 30

    manifest = json.loads((workdir / "corpus.jsonl.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["version"] == 1
    assert manifest["seed"] == 11
    assert manifest["resolved"]["config"]["num_docs"] == 30
    assert manifest["outputs"][str(corpus)] == sha256(corpus)
    assert manifest["inputs"][str(workdir / "gen.json")] == sha256(workdir / "gen.json")
    assert manifest["wall_clock_seconds"] >= 0

    # same config, fresh output path: byte-identical corpus
    again = tmp_path / "again.jsonl"
    code, out, _ = run(capsys, "synth", "--config", str(workdir / "gen.json"),
                       "--out", str(again))
    assert code == 0
    assert "wrote 30 documents" in out
    assert again.read_bytes() == corpus.read_bytes()

    # overrides are reflected in output and manifest
    other = tmp_path / "other.jsonl"
    code, _, _ = run(capsys, "synth", "--config", str(workdir / "gen.json"),
                     "--out", str(other), "--seed", "99", "--num-docs", "5")
    assert code == 0
    assert len(other.read_text().splitlines()) == 5
    manifest = json.loads((tmp_path / "other.jsonl.manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["argv"][-2:] == ["--num-docs", "5"]


def test_validate_clean_and_dirty(workdir, capsys, tmp_path):
    corpus = workdir / "corpus.jsonl"
    code, out, _ = run(capsys, "validate", "--corpus", str(corpus))
    assert code == 0
    assert out.startswith("0 violations")

    rows = [json.loads(l) for l in corpus.read_text().splitlines()]
    rows[0]["annotations"][0]["values"] = ["grade 9"]
    dirty = tmp_path / "dirty.jsonl"
    dirty.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    report = tmp_path / "violations.json"
    code, out, _ = run(capsys, "validate", "--corpus", str(dirty), "--out", str(report))
    assert code == 2
    assert "1 violations" in out
    payload = json.loads(report.read_text())
    assert payload["n_violations"] == 1
    assert "not in schema" in payload["violations"][0]["message"]


def test_train_predict_evaluate_chain(workdir, capsys, tmp_path):
    corpus = workdir / "corpus.jsonl"
    model = workdir / "model.json"
    code, out, _ = run(
        capsys, "train", "--corpus", str(corpus), "--attribute", "grade",
        "--variant", "rules", "--out", str(model),
    )
    assert code == 0
    assert "trained rules model" in out
    assert json.loads(model.read_text())["kind"] == "sla"

    preds = workdir / "preds.jsonl"
    code, out, _ = run(capsys, "predict", "--model", str(model),
                       "--corpus", str(corpus), "--out", str(preds))
    assert code == 0
    records = [json.loads(l) for l in preds.read_text().splitlines()]
    assert len(records) == 30
    docs = {json.loads(l)["id"]: json.loads(l) for l in corpus.read_text().splitlines()}
    for r in records:
        assert set(r) == {"id", "attribute", "label", "scores", "rationale"}
        assert r["attribute"] == "grade"
        assert r["label"] in r["scores"]
        for seg in r["rationale"]:
            joined = " ".join(docs[r["id"]]["lines"][seg["start"] : seg["end"] + 1])
            assert seg["text"] == joined
            assert seg["weight"] == 1.0  # rules variant

    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({**json.loads(model.read_text()), "version": 999}), encoding="utf-8")
    code, _, err = run(capsys, "predict", "--model", str(stale),
                       "--corpus", str(corpus), "--out", str(tmp_path / "stale.jsonl"))
    assert code == 2
    assert "version 999" in err
    unknown_key = json.loads(model.read_text())
    unknown_key["hyper"]["beam_width"] = 3
    stale.write_text(json.dumps(unknown_key), encoding="utf-8")
    code, _, err = run(capsys, "predict", "--model", str(stale),
                       "--corpus", str(corpus), "--out", str(tmp_path / "stale.jsonl"))
    assert code == 2
    assert "beam_width" in err

    report_path = workdir / "eval.json"
    code, out, _ = run(
        capsys, "evaluate", "--corpus", str(corpus), "--preds", str(preds),
        "--bootstrap-iterations", "100", "--out", str(report_path),
    )
    assert code == 0
    assert "avg micro-F1" in out
    payload = json.loads(report_path.read_text())
    grade = payload["attributes"]["grade"]
    assert payload["avg_micro_f1"] == grade["micro_f1"]
    assert grade["n_docs"] == 30
    assert grade["micro_ci"][0] <= grade["micro_f1"] <= grade["micro_ci"][1]
    assert sum(sum(row.values()) for row in grade["confusion"].values()) == 30
    # rules + planted cues should be essentially perfect on this corpus
    assert grade["micro_f1"] >= 0.9


def test_predict_refuses_learner_params_with_unknown_or_missing_keys(workdir, capsys, tmp_path):
    corpus = workdir / "corpus.jsonl"
    model = tmp_path / "model.json"
    code, _, _ = run(capsys, "train", "--corpus", str(corpus), "--attribute", "grade",
                     "--out", str(model))
    assert code == 0
    edits = [
        (("hyper", "gbt"), lambda params: params.update(beam=1), "beam"),
        (("hyper", "lin"), lambda params: params.pop("tol"), "tol"),
        (("line_scorer", "params"), lambda params: params.update(beam=1), "beam"),
    ]
    for (outer, inner), edit, key in edits:
        bundle = json.loads(model.read_text())
        edit(bundle[outer][inner])
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(bundle), encoding="utf-8")
        code, _, err = run(capsys, "predict", "--model", str(edited),
                           "--corpus", str(corpus), "--out", str(tmp_path / "preds.jsonl"))
        assert code == 2, err
        assert f"keys: {key}" in err and "internal error" not in err


@pytest.fixture(scope="module")
def bundles(workdir, tmp_path_factory):
    """An sla, a rules, an oracle, a doc-logreg and a doc-boost model bundle
    trained on the module's corpus, and as "sla-orders" an sla bundle whose
    stages read n-grams of different orders (2 and 4)."""
    root = tmp_path_factory.mktemp("bundles")
    orders = root / "orders.json"
    orders.write_text(json.dumps({"line_ngram_n": 2, "final_ngram_n": 4}), encoding="utf-8")
    runs = {
        name: (method, params)
        for name, method, params in (
            ("sla", "sla", ()),
            ("rules", "rules", ()),
            ("oracle", "oracle", ()),
            ("doc-logreg", "doc-logreg", ()),
            ("doc-boost", "doc-boost", ()),
            ("sla-orders", "sla", ("--params", str(orders))),
        )
    }
    paths = {}
    for name, (method, params) in runs.items():
        paths[name] = root / f"{name}.json"
        code = cli.main(["train", "--corpus", str(workdir / "corpus.jsonl"), "--attribute",
                         "grade", "--variant", method, *params, "--out", str(paths[name])])
        assert code == 0
    return paths


@pytest.mark.parametrize("method, dotted, message", [
    ("sla", "attribute", "sla model bundle has no key 'attribute'"),
    ("sla", "k", "sla model bundle has no key 'k'"),
    ("sla", "final_classifier", "sla model bundle has no key 'final_classifier'"),
    ("sla", "final_classifier.weights", "sla model bundle final_classifier has no key 'weights'"),
    ("sla", "line_vocab.ngrams", "sla model bundle line_vocab has no key 'ngrams'"),
    ("sla", "hyper", "sla model bundle has no key 'hyper'"),
    ("doc-logreg", "vocab", "doc-logreg bundle has no key 'vocab'"),
    ("doc-logreg", "attribute", "doc-logreg bundle has no key 'attribute'"),
    ("doc-logreg", "linear.intercepts", "doc-logreg bundle linear has no key 'intercepts'"),
    # a key missing inside a learner, a tree node or a vocabulary is named
    # with the path to the object that lacks it
    ("doc-logreg", "linear.classes", "doc-logreg bundle linear has no key 'classes'"),
    ("doc-logreg", "vocab.max_n", "doc-logreg bundle vocab has no key 'max_n'"),
    ("sla", "line_scorer.num_features", "sla model bundle line_scorer has no key 'num_features'"),
    ("sla", "line_scorer.params", "sla model bundle line_scorer has no key 'params'"),
    ("sla", "line_scorer.base_score", "sla model bundle line_scorer has no key 'base_score'"),
    ("sla", "line_scorer.trees.0.feature",
     "sla model bundle line_scorer trees[0] has no key 'feature'"),
    ("sla", "line_scorer.trees.0.right",
     "sla model bundle line_scorer trees[0] has no key 'right'"),
    ("sla", "line_scorer.trees.0.left.feature",
     "sla model bundle line_scorer trees[0].left has no key 'feature'"),
    ("doc-boost", "boost_models.0.num_features",
     "doc-boost bundle boost_models[0] has no key 'num_features'"),
    ("sla", "final_vocab.unk_token", "sla model bundle final_vocab has no key 'unk_token'"),
])
def test_predict_names_a_key_missing_from_the_bundle(workdir, bundles, capsys, tmp_path,
                                                     method, dotted, message):
    bundle = json.loads(bundles[method].read_text())
    *outer, key = (int(name) if name.isdigit() else name for name in dotted.split("."))
    holder = bundle
    for name in outer:
        holder = holder[name]
    del holder[key]
    edited, preds = tmp_path / "edited.json", tmp_path / "preds.jsonl"
    edited.write_text(json.dumps(bundle), encoding="utf-8")
    code, _, err = run(capsys, "predict", "--model", str(edited),
                       "--corpus", str(workdir / "corpus.jsonl"), "--out", str(preds))
    assert code == 2, err
    assert f"data error: {edited}: {message}" in err
    assert not preds.exists()


@pytest.mark.parametrize("method, key, value, message", [
    ("sla", None, [], "a model bundle must be a JSON object, got list"),
    ("doc-logreg", None, "grade", "a model bundle must be a JSON object, got str"),
    ("sla", "final_classifier", [], "key 'final_classifier' must be a JSON object, got list"),
    ("sla", "line_vocab", ["grade"], "key 'line_vocab' must be a JSON object, got list"),
    ("sla", "attribute", ["grade"], "key 'attribute' must be a string, got list"),
    ("sla", "k", "3", "key 'k' must be an integer, got str"),
    ("sla", "k", True, "key 'k' must be an integer, got bool"),
    ("rules", "k", "3", "key 'k' must be an integer, got str"),
    ("rules", "k", 0, "sla model bundle key 'k' is 0, but hyper key 'k' is 3"),
    ("rules", "keyword_rules", "grade", "key 'keyword_rules' must be a JSON array, got str"),
    ("doc-logreg", "vocab", [], "key 'vocab' must be a JSON object, got list"),
    ("doc-logreg", "linear", [1.0], "key 'linear' must be a JSON object, got list"),
    ("rules", "keyword_rules", ["grade", ""], "keyword rule '' has no tokens"),
    ("rules", "keyword_rules", [".;~ null"], "keyword rule '.;~ null' has no tokens"),
    ("sla", "line_vocab", None, "keys 'line_vocab' and 'line_scorer' must both be null or set"),
])
def test_predict_names_a_bundle_value_of_the_wrong_type(workdir, bundles, capsys, tmp_path,
                                                      method, key, value, message):
    bundle = json.loads(bundles[method].read_text())
    if key is None:
        bundle = value
    else:
        bundle[key] = value
    edited, preds = tmp_path / "edited.json", tmp_path / "preds.jsonl"
    edited.write_text(json.dumps(bundle), encoding="utf-8")
    code, _, err = run(capsys, "predict", "--model", str(edited),
                       "--corpus", str(workdir / "corpus.jsonl"), "--out", str(preds))
    assert code == 2, err
    assert f"data error: {edited}: " in err and message in err
    assert not preds.exists()


def _set_dotted(bundle, dotted, value):
    """Set the value at a dotted key path (digits index arrays) of a
    bundle; a callable ``value`` maps the value that is there."""
    *outer, key = (int(name) if name.isdigit() else name for name in dotted.split("."))
    holder = bundle
    for name in outer:
        holder = holder[name]
    holder[key] = value(holder[key]) if callable(value) else value


# a tree of one split on a feature that no vocabulary of the corpus holds
_FAR_SPLIT = {"feature": 10**9, "left": {"value": 0.0}, "right": {"value": 0.0}}


def _repeat_first(classes):
    return [classes[0]] * len(classes)


def _over_long(ngrams):
    """``ngrams`` with its last entry, the greatest n-gram, which no other
    extends, replaced by one of its longest n-grams and one more of its
    words: an n-gram one token longer than the vocabulary's order, which
    serving never finds."""
    rest = ngrams[:-1]
    longest = max(rest, key=lambda gram: gram.count(" "))
    return rest + [f"{longest} {longest.split()[0]}"]


@pytest.mark.parametrize("method, dotted, value, message", [
    ("sla", "line_scorer.trees.0", [], "line_scorer trees[0] must be a JSON object, got list"),
    ("sla", "line_scorer.trees.0", _FAR_SPLIT,
     "line_scorer trees[0] key 'feature' must be in [0, "),
    ("sla", "line_scorer.trees.0", {**_FAR_SPLIT, "feature": -1},
     "line_scorer trees[0] key 'feature' must be in [0, "),
    ("sla", "line_scorer.trees.0", {**_FAR_SPLIT, "feature": 1.0},
     "line_scorer trees[0] key 'feature' must be an integer, got float"),
    ("sla", "line_scorer.trees.0", {**_FAR_SPLIT, "feature": 0, "right": {"value": "0.5"}},
     "line_scorer trees[0].right key 'value' must be a number, got str"),
    ("sla", "line_scorer.trees", {}, "line_scorer key 'trees' must be a JSON array, got dict"),
    ("sla", "final_classifier.weights", {},
     "final_classifier key 'weights' must be a JSON array, got dict"),
    ("sla", "final_classifier.weights.0", [0.0],
     "final_classifier must hold one weight row of "),
    ("sla", "final_classifier.weights.1.0", None,
     "final_classifier key 'weights'[1][0] must be a number, got NoneType"),
    ("sla", "final_classifier.intercepts", [0.0],
     "final_classifier must hold one weight row of "),
    ("sla", "final_classifier.classes", [["grade 1"]],
     "key 'classes'[0] must be a string, got list"),
    ("sla", "final_vocab.ngrams.0", 7, "final_vocab key 'ngrams'[0] must be a string, got int"),
    ("sla", "line_vocab.max_n", "3", "line_vocab key 'max_n' must be an integer, got str"),
    ("doc-logreg", "vocab.ngrams", "grade", "vocab key 'ngrams' must be a JSON array, got str"),
    ("doc-logreg", "linear.weights.0", {},
     "linear key 'weights'[0] must be a JSON array, got dict"),
    ("doc-boost", "boost_models.0", [], "boost_models[0] must be a JSON object, got list"),
    ("doc-boost", "boost_models.0.trees.0", _FAR_SPLIT,
     "boost_models[0] trees[0] key 'feature' must be in [0, "),
    # learner parameters, stored twice in an sla bundle: in hyper, and with
    # the line scorer
    ("sla", "hyper.gbt.max_depth", "3",
     "sla model bundle hyper key 'gbt' key 'max_depth' must be an integer, got str"),
    ("sla", "line_scorer.params.learning_rate", "0.1",
     "sla model bundle line_scorer params key 'learning_rate' must be a number, got str"),
    ("sla", "hyper.k", "3", "sla model bundle hyper key 'k' must be an integer, got str"),
    ("sla", "hyper.lin.l1_strength", "1",
     "sla model bundle hyper key 'lin' key 'l1_strength' must be a number, got str"),
    ("sla", "hyper.lin.balanced", "yes",
     "sla model bundle hyper key 'lin' key 'balanced' must be true or false, got str"),
    ("sla", "hyper.gbt.num_rounds", 2.5,
     "sla model bundle hyper key 'gbt' key 'num_rounds' must be an integer, got float"),
    ("sla", "hyper.gbt.seed", True,
     "sla model bundle hyper key 'gbt' key 'seed' must be an integer, got bool"),
    # json.load reads NaN and Infinity as numbers, and an integer of any size
    ("sla", "line_scorer.trees.0", {**_FAR_SPLIT, "feature": 0, "left": {"value": -math.inf}},
     "line_scorer trees[0].left key 'value' must be a finite number, got -inf"),
    ("sla", "line_scorer.base_score", math.inf,
     "sla model bundle line_scorer key 'base_score' must be a finite number, got inf"),
    ("sla", "final_classifier.weights.1.2", math.inf,
     "final_classifier key 'weights'[1][2] must be a finite number, got inf"),
    ("sla", "final_classifier.intercepts.0", math.nan,
     "final_classifier key 'intercepts'[0] must be a finite number, got nan"),
    ("doc-logreg", "linear.weights.0.0", -math.inf,
     "linear key 'weights'[0][0] must be a finite number, got -inf"),
    ("sla", "final_classifier.weights.0.1", lambda _: 10**400,
     "final_classifier key 'weights'[0][1] must be a finite number, got 1000"),
    ("rules", "final_vocab.ngrams", _over_long, "final_vocab key 'ngrams' holds '"),
    ("doc-logreg", "vocab.ngrams", _over_long, "vocab key 'ngrams' holds '"),
    # a class listed twice, of which each prediction's scores would keep one
    ("sla", "final_classifier.classes", _repeat_first,
     "sla model bundle final_classifier key 'classes' lists a class twice"),
    ("doc-logreg", "linear.classes", _repeat_first,
     "doc-logreg bundle linear key 'classes' lists a class twice"),
    ("doc-boost", "boost_classes", _repeat_first,
     "doc-boost bundle key 'boost_classes' lists a class twice"),
])
def test_predict_names_a_nested_bundle_value_of_the_wrong_type(workdir, bundles, capsys,
                                                             tmp_path, method, dotted, value,
                                                             message):
    bundle = json.loads(bundles[method].read_text())
    _set_dotted(bundle, dotted, value)
    edited, preds = tmp_path / "edited.json", tmp_path / "preds.jsonl"
    edited.write_text(json.dumps(bundle), encoding="utf-8")
    code, _, err = run(capsys, "predict", "--model", str(edited),
                       "--corpus", str(workdir / "corpus.jsonl"), "--out", str(preds))
    assert code == 2, err
    assert f"data error: {edited}: " in err and message in err
    assert not preds.exists()


@pytest.mark.parametrize("dotted, value, message", [
    ("final_vocab.max_n", 7, "sla model bundle final_vocab: max_n must be in [1, 4], got 7"),
    ("line_scorer.params.max_depth", -1,
     "sla model bundle line_scorer params: max_depth must be >= 1"),
    ("hyper.k", 0, "sla model bundle hyper: k must be >= 1"),
    ("hyper.gbt.subsample", 2.0,
     "sla model bundle hyper key 'gbt': subsample must be in (0, 1]"),
    ("hyper.lin.l1_strength", -1,
     "sla model bundle hyper key 'lin': l1_strength must be > 0"),
])
def test_predict_names_the_path_of_a_bundle_value_out_of_range(workdir, bundles, capsys,
                                                              tmp_path, dotted, value, message):
    """A value of the right type that its object's own checks refuse is
    named by its path, once."""
    bundle = json.loads(bundles["sla"].read_text())
    _set_dotted(bundle, dotted, value)
    edited, preds = tmp_path / "edited.json", tmp_path / "preds.jsonl"
    edited.write_text(json.dumps(bundle), encoding="utf-8")
    code, _, err = run(capsys, "predict", "--model", str(edited),
                       "--corpus", str(workdir / "corpus.jsonl"), "--out", str(preds))
    assert code == 2, err
    assert f"data error: {edited}: {message}\n" in err
    assert not preds.exists()


@pytest.mark.parametrize("name, key", [
    ("sla", "line_vocab"),
    ("sla-orders", "line_vocab"),
    ("sla-orders", "final_vocab"),
])
def test_predict_refuses_stage_vocabularies_that_disagree(workdir, bundles, capsys, tmp_path,
                                                          name, key):
    """Serving reads both stages' columns from the larger stage vocabulary,
    so the smaller must be its restriction: two unigrams swapped in either
    is a data error, not a model served with the wrong columns."""
    bundle = json.loads(bundles[name].read_text())
    ngrams = bundle[key]["ngrams"]
    i, j = [n for n, gram in enumerate(ngrams) if " " not in gram][:2]
    ngrams[i], ngrams[j] = ngrams[j], ngrams[i]
    edited, preds = tmp_path / "edited.json", tmp_path / "preds.jsonl"
    edited.write_text(json.dumps(bundle), encoding="utf-8")
    code, _, err = run(capsys, "predict", "--model", str(edited),
                       "--corpus", str(workdir / "corpus.jsonl"), "--out", str(preds))
    assert code == 2, err
    line_n, final_n = (bundle[k]["max_n"] for k in ("line_vocab", "final_vocab"))
    assert f"data error: {edited}: sla model bundle keys 'line_vocab' (order {line_n}) and " \
        f"'final_vocab' (order {final_n}) disagree" in err
    assert not preds.exists()


def _widen(width):
    return width + 7


@pytest.mark.parametrize("method, edits, message", [
    # every copy of a fact that hyper holds must agree with it
    ("sla", {"k": 5}, "sla model bundle key 'k' is 5, but hyper key 'k' is 3"),
    ("sla", {"hyper.k": 2}, "sla model bundle key 'k' is 3, but hyper key 'k' is 2"),
    ("sla", {"hyper.final_ngram_n": 3},
     "sla model bundle key 'final_vocab' has order 2, but hyper key 'final_ngram_n' is 3"),
    ("sla", {"hyper.line_ngram_n": 1},
     "sla model bundle key 'line_vocab' has order 2, but hyper key 'line_ngram_n' is 1"),
    ("sla-orders", {"hyper.line_ngram_n": 4, "hyper.final_ngram_n": 1},
     "sla model bundle key 'final_vocab' has order 4, but hyper key 'final_ngram_n' is 1"),
    ("sla", {"line_scorer.params.learning_rate": 0.9},
     "sla model bundle line_scorer params disagree with hyper key 'gbt'"),
    ("sla", {"hyper.gbt.learning_rate": 0.9},
     "sla model bundle line_scorer params disagree with hyper key 'gbt'"),
    # a learner whose width is not its vocabulary's dimension
    ("sla", {"line_scorer.num_features": _widen},
     "sla model bundle line_scorer key 'num_features' must be "),
    ("doc-boost", {"boost_models.0.num_features": _widen},
     "doc-boost bundle boost_models[0] key 'num_features' must be "),
    # a baseline without the learner its kind needs
    ("doc-logreg", {"linear": None}, "a doc-logreg model requires its linear model, 'linear'"),
    ("doc-boost", {"boost_classes": None, "boost_models": None},
     "a doc-boost model requires its 'boost_classes' and one of its 'boost_models' per class"),
    ("doc-boost", {"boost_models": None},
     "a doc-boost model requires its 'boost_classes' and one of its 'boost_models' per class"),
    # a field that the bundle's kind cannot use, which serving would ignore
    ("sla", {"keyword_rules": ["histologic grade"]}, "variant sla takes no keyword rules"),
    ("oracle", {"keyword_rules": ["histologic grade"]}, "variant oracle takes no keyword rules"),
    ("doc-logreg", {"boost_classes": ["grade 1", "grade 2"]},
     "a doc-logreg model takes no 'boost_classes' or 'boost_models'"),
    ("doc-boost", {"linear": {"classes": [], "weights": [], "intercepts": []}},
     "a doc-boost model takes no 'linear'"),
    # ... also where the field is empty, which re-saving would write as null
    ("doc-boost", {"linear": {}}, "a doc-boost model takes no 'linear'"),
    ("doc-logreg", {"boost_classes": []},
     "a doc-logreg model takes no 'boost_classes' or 'boost_models'"),
    ("doc-logreg", {"boost_models": []},
     "a doc-logreg model takes no 'boost_classes' or 'boost_models'"),
    ("doc-boost", {"boost_classes": ["grade 1"], "boost_models": []},
     "a doc-boost model requires its 'boost_classes' and one of its 'boost_models' per class"),
    ("sla", {"keyword_rules": []}, "variant sla takes no keyword rules"),
    ("oracle", {"keyword_rules": []}, "variant oracle takes no keyword rules"),
    # a line vocabulary without a line scorer, or a line scorer without one
    ("oracle", {"line_vocab": {}},
     "sla model bundle keys 'line_vocab' and 'line_scorer' must both be null or set"),
    ("oracle", {"line_vocab": "grade"},
     "sla model bundle keys 'line_vocab' and 'line_scorer' must both be null or set"),
    ("oracle", {"line_scorer": {}},
     "sla model bundle keys 'line_vocab' and 'line_scorer' must both be null or set"),
    # a key that no reader knows, which re-saving would drop
    ("sla", {"notes": "x"}, "sla model bundle: unknown keys: notes"),
    ("doc-logreg", {"notes": "x"}, "doc-logreg bundle: unknown keys: notes"),
    # ... at any depth
    ("sla", {"final_vocab.notes": "x"}, "sla model bundle final_vocab: unknown keys: notes"),
    ("sla", {"final_classifier.notes": "x"},
     "sla model bundle final_classifier: unknown keys: notes"),
    ("sla", {"line_scorer.notes": "x"}, "sla model bundle line_scorer: unknown keys: notes"),
    ("sla", {"line_scorer.trees.0": {"value": 0.5, "feature": 0}},
     "sla model bundle line_scorer trees[0]: unknown keys: feature"),
    ("doc-boost", {"boost_models.0.notes": "x"},
     "doc-boost bundle boost_models[0]: unknown keys: notes"),
])
def test_predict_refuses_a_bundle_whose_copies_disagree(workdir, bundles, capsys, tmp_path,
                                                        method, edits, message):
    """A data error naming the bundle and the key, where serving would
    otherwise read one copy and ignore the other, ignore a field, or fail
    later."""
    bundle = json.loads(bundles[method].read_text())
    for dotted, value in edits.items():
        _set_dotted(bundle, dotted, value)
    edited, preds = tmp_path / "edited.json", tmp_path / "preds.jsonl"
    edited.write_text(json.dumps(bundle), encoding="utf-8")
    code, _, err = run(capsys, "predict", "--model", str(edited),
                       "--corpus", str(workdir / "corpus.jsonl"), "--out", str(preds))
    assert code == 2, err
    assert f"data error: {edited}: {message}" in err
    assert not preds.exists()


@pytest.mark.parametrize("rule", ["", "  ", ".;~", "null"])
def test_train_refuses_a_keyword_rule_with_no_tokens(workdir, capsys, tmp_path, rule):
    """A rule that normalization leaves empty matches no line."""
    rules, model = tmp_path / "rules.json", tmp_path / "model.json"
    rules.write_text(json.dumps({"rules": {"grade": ["histologic grade", rule]}}),
                     encoding="utf-8")
    code, _, err = run(capsys, "train", "--corpus", str(workdir / "corpus.jsonl"),
                       "--attribute", "grade", "--variant", "rules", "--rules", str(rules),
                       "--out", str(model))
    assert code == 2, err
    assert f"data error: keyword rule {rule!r} has no tokens" in err
    assert not model.exists()


def test_train_baseline_and_predict(workdir, capsys, tmp_path):
    corpus = workdir / "corpus.jsonl"
    model = tmp_path / "base.json"
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"ngram_n": 2, "C": 1.0}), encoding="utf-8")
    code, _, _ = run(
        capsys, "train", "--corpus", str(corpus), "--attribute", "grade",
        "--variant", "doc-logreg", "--params", str(params), "--out", str(model),
    )
    assert code == 0
    assert json.loads(model.read_text())["kind"] == "doc-logreg"
    manifest = json.loads((tmp_path / "base.json.manifest.json").read_text())
    assert manifest["resolved"]["params"] == {"ngram_n": 2, "C": 1.0}
    assert str(params) in manifest["inputs"]

    preds = tmp_path / "preds.jsonl"
    code, _, _ = run(capsys, "predict", "--model", str(model),
                     "--corpus", str(corpus), "--out", str(preds))
    assert code == 0
    records = [json.loads(l) for l in preds.read_text().splitlines()]
    assert all(r["rationale"] == [] for r in records)


def test_oracle_predict_needs_the_attribute_annotated(workdir, capsys, tmp_path):
    corpus = workdir / "corpus.jsonl"
    model = tmp_path / "oracle.json"
    code, _, _ = run(
        capsys, "train", "--corpus", str(corpus), "--attribute", "grade",
        "--variant", "oracle", "--out", str(model),
    )
    assert code == 0
    records = [json.loads(l) for l in corpus.read_text().splitlines()]
    unlabeled = tmp_path / "unlabeled.jsonl"
    unlabeled.write_text(
        "".join(json.dumps({**r, "annotations": []}) + "\n" for r in records), encoding="utf-8"
    )
    preds = tmp_path / "preds.jsonl"
    code, _, err = run(capsys, "predict", "--model", str(model),
                       "--corpus", str(unlabeled), "--out", str(preds))
    assert code == 2
    assert "oracle model needs gold lines for 'grade'" in err
    assert not preds.exists()


@pytest.mark.parametrize("method", METHODS)
def test_every_method_trains_predicts_and_evaluates(workdir, capsys, tmp_path, method):
    corpus = workdir / "corpus.jsonl"
    params = tmp_path / "params.json"
    # only the scored variants and doc-boost grow trees
    grows_trees = method == "doc-boost" or method in SCORED_VARIANTS
    params.write_text(json.dumps({"num_rounds": 20} if grows_trees else {}), encoding="utf-8")
    model, preds, report = (tmp_path / n for n in ("model.json", "preds.jsonl", "eval.json"))
    code, _, err = run(capsys, "train", "--corpus", str(corpus), "--attribute", "grade",
                       "--variant", method, "--params", str(params), "--out", str(model))
    assert code == 0, err
    code, _, err = run(capsys, "predict", "--model", str(model),
                       "--corpus", str(corpus), "--out", str(preds))
    assert code == 0, err

    classes = {gold_label(d, "grade") for d in load_corpus(str(corpus))}
    records = [json.loads(l) for l in preds.read_text().splitlines()]
    assert len(records) == 30
    row = VARIANTS.get(method)
    for r in records:
        assert r["label"] in classes
        assert set(r["scores"]) <= classes
        if row is None:
            assert r["rationale"] == []
            continue
        if not row.join:
            assert all(seg["start"] == seg["end"] for seg in r["rationale"])
        if not row.weight:
            assert all(seg["weight"] == 1.0 for seg in r["rationale"])

    code, _, err = run(capsys, "evaluate", "--corpus", str(corpus), "--preds", str(preds),
                       "--bootstrap-iterations", "50", "--out", str(report))
    assert code == 0, err
    assert json.loads(report.read_text())["attributes"]["grade"]["n_docs"] == 30


def test_predict_scores_every_line_with_one_stage1_call(workdir, capsys, tmp_path, monkeypatch):
    corpus = workdir / "corpus.jsonl"
    model, preds = tmp_path / "model.json", tmp_path / "preds.jsonl"
    code, _, err = run(capsys, "train", "--corpus", str(corpus), "--attribute", "grade",
                       "--out", str(model))
    assert code == 0, err
    rows = []
    real = pipeline.predict_gbt_pairs

    def counting(model, line, column, shape):
        rows.append(shape[0])
        return real(model, line, column, shape)

    monkeypatch.setattr(pipeline, "predict_gbt_pairs", counting)
    code, _, err = run(capsys, "predict", "--model", str(model),
                       "--corpus", str(corpus), "--out", str(preds))
    assert code == 0, err
    assert rows == [sum(len(d.report.lines) for d in load_corpus(str(corpus)))]


def test_train_rejects_unknown_params_keys(workdir, capsys, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"max_dpth": 3}), encoding="utf-8")
    model = tmp_path / "model.json"
    code, _, err = run(capsys, "train", "--corpus", str(workdir / "corpus.jsonl"),
                       "--attribute", "grade", "--params", str(params), "--out", str(model))
    assert code == 2
    assert "unknown sla config keys: max_dpth" in err
    assert not model.exists()


@pytest.mark.parametrize("params, message", [
    ({"max_depth": "3"}, "sla config key 'max_depth' must be an integer, got str"),
    ({"C": "1"}, "sla config key 'C' must be a number, got str"),
    ({"k": True}, "sla config key 'k' must be an integer, got bool"),
    ({"k": 2.0}, "sla config key 'k' must be an integer, got float"),
    ({"line_ngram_n": "2"}, "sla config key 'line_ngram_n' must be an integer, got str"),
    ({"num_rounds": 1.5, "k": 1}, "sla config key 'num_rounds' must be an integer, got float"),
    # json.load reads NaN and Infinity as numbers
    ({"C": math.nan}, "sla config key 'C' must be a finite number, got nan"),
    ({"learning_rate": math.inf},
     "sla config key 'learning_rate' must be a finite number, got inf"),
])
def test_train_refuses_a_params_value_of_the_wrong_type(workdir, capsys, tmp_path, params,
                                                         message):
    path, model = tmp_path / "params.json", tmp_path / "model.json"
    path.write_text(json.dumps(params), encoding="utf-8")
    code, _, err = run(capsys, "train", "--corpus", str(workdir / "corpus.jsonl"),
                       "--attribute", "grade", "--params", str(path), "--out", str(model))
    assert code == 2, err
    assert f"data error: {message}" in err
    assert not model.exists()


@pytest.mark.parametrize("option, payload, message", [
    ("--rules", {"rules": {"grade": "histologic grade"}},
     "key 'rules' key 'grade' must be a JSON array, got str"),
    ("--rules", {"rules": []}, "key 'rules' must be a JSON object, got list"),
    ("--rules", {"rules": {"grade": [3]}}, "key 'rules' key 'grade'[0] must be a string, got int"),
    ("--schema", {"cancers": {"colon": {"grade": "grade 1"}}},
     "key 'cancers' key 'colon' key 'grade' must be a JSON array, got str"),
])
def test_train_refuses_rules_or_a_schema_of_the_wrong_type(workdir, capsys, tmp_path, option,
                                                           payload, message):
    path, model = tmp_path / "input.json", tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "train", "--corpus", str(workdir / "corpus.jsonl"),
                       "--attribute", "grade", "--variant", "rules", option, str(path),
                       "--out", str(model))
    assert code == 2, err
    assert f"data error: {path} {message}" in err
    assert not model.exists()


@pytest.mark.parametrize("edit, message", [
    ({"num_docs": "40"}, "generator config key 'num_docs' must be an integer, got str"),
    ({"num_docs": 40.0}, "generator config key 'num_docs' must be an integer, got float"),
    ({"synoptic_probability": "0.8"},
     "generator config key 'synoptic_probability' must be a number, got str"),
    ({"seed": True}, "generator config key 'seed' must be an integer, got bool"),
    ({"attributes": [{"attribute": "grade", "values": ["grade 1", "grade 2"],
                      "weights": ["1", "2"]}]},
     "generator config key 'attributes'[0] key 'weights'[0] must be a number, got str"),
])
def test_synth_refuses_a_config_value_of_the_wrong_type(capsys, tmp_path, edit, message):
    gen, corpus = tmp_path / "gen.json", tmp_path / "corpus.jsonl"
    gen.write_text(json.dumps({**GEN_CONFIG, **edit}), encoding="utf-8")
    code, _, err = run(capsys, "synth", "--config", str(gen), "--out", str(corpus))
    assert code == 2, err
    assert f"data error: {message}" in err
    assert not corpus.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda record: [], "the record must be a JSON object, got list"),
    (lambda record: {**record, "lines": "abc", "annotations": []},
     "field 'lines' must be a JSON array, got str"),
    (lambda record: {**record, "id": 7}, "field 'id' must be a string, got int"),
    (lambda record: {**record, "annotations": [{**record["annotations"][0], "values": "grade 1"}]},
     "annotation 0 field 'values' must be a JSON array, got str"),
])
def test_validate_refuses_a_record_field_of_the_wrong_type(workdir, capsys, tmp_path, edit,
                                                           message):
    first, *rest = (workdir / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    edited = tmp_path / "corpus.jsonl"
    edited.write_text(json.dumps(edit(json.loads(first))) + "\n" + "".join(rest),
                      encoding="utf-8")
    code, _, err = run(capsys, "validate", "--corpus", str(edited))
    assert code == 2, err
    assert f"data error: {edited}: record 1: {message}" in err


@pytest.mark.parametrize("command", ["evaluate", "agreement"])
@pytest.mark.parametrize("label, message", [
    (None, "the record must be a JSON object, got list"),
    (3, "field 'label' must be a string, got int"),
])
def test_label_files_refuse_a_record_of_the_wrong_type(workdir, capsys, tmp_path, command,
                                                       label, message):
    corpus = workdir / "corpus.jsonl"
    doc_id = load_corpus(str(corpus))[0].report.id
    record = {"id": doc_id, "attribute": "grade", "label": "grade 1"}
    bad, good, out = tmp_path / "bad.jsonl", tmp_path / "good.jsonl", tmp_path / "out.json"
    bad.write_text(json.dumps([doc_id] if label is None else {**record, "label": label}) + "\n",
                   encoding="utf-8")
    good.write_text(json.dumps(record) + "\n", encoding="utf-8")
    if command == "evaluate":
        argv = ["evaluate", "--corpus", str(corpus), "--preds", str(bad)]
    else:
        argv = ["agreement", "--a", str(bad), "--b", str(good)]
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2, err
    assert f"data error: {bad}: record 1: {message}" in err
    assert not out.exists()


def test_tune_outputs_best_and_trials(workdir, capsys, tmp_path):
    corpus = workdir / "corpus.jsonl"
    out = tmp_path / "tune"
    code, out_text, _ = run(
        capsys, "tune", "--corpus", str(corpus), "--attribute", "grade",
        "--variant", "oracle", "--trials", "3", "--folds", "2",
        "--seed", "5", "--out", str(out),
    )
    assert code == 0
    assert "over 3 trials" in out_text
    best = json.loads((out / "best.json").read_text())
    trials = [json.loads(l) for l in (out / "trials.jsonl").read_text().splitlines()]
    assert len(trials) == 3
    assert [t["trial"] for t in trials] == [0, 1, 2]
    top = max(t["mean_score"] for t in trials)
    assert best == next(t for t in trials if t["mean_score"] == top)["config"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "tune"
    assert manifest["resolved"]["trials"] == 3
    assert manifest["resolved"]["folds"] == 2
    assert set(manifest["outputs"]) == {str(out / "best.json"), str(out / "trials.jsonl")}


def test_learning_curve_outputs_and_rerun_identical(workdir, capsys, tmp_path):
    corpus = workdir / "corpus.jsonl"

    def curve(outdir, jobs="1"):
        code, _, _ = run(
            capsys, "learning-curve", "--corpus", str(corpus),
            "--attribute", "grade", "--variant", "oracle",
            "--sizes", "8,16", "--runs", "2", "--trials", "2", "--folds", "2",
            "--ci-iterations", "50", "--seed", "3", "--jobs", jobs,
            "--out", str(outdir),
        )
        assert code == 0
        return outdir

    first = curve(tmp_path / "c1")
    second = curve(tmp_path / "c2", jobs="2")
    for name in ("curve.json", "curve.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()

    payload = json.loads((first / "curve.json").read_text())
    assert payload["sizes"] == [8, 16]
    assert len(payload["cells"]) == 4
    assert len(payload["summary"]) == 2
    for row in payload["summary"]:
        cells = [c for c in payload["cells"] if c["size"] == row["size"]]
        assert row["mean_micro_f1"] == pytest.approx(
            sum(c["micro_f1"] for c in cells) / len(cells)
        )
    csv_lines = (first / "curve.csv").read_text().splitlines()
    assert len(csv_lines) == 5  # header + 4 cells
    assert csv_lines[0].startswith("attribute,size,run")

    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["command"] == "learning-curve"
    assert manifest["resolved"]["sizes"] == [8, 16]
    assert manifest["outputs"][str(first / "curve.json")] == sha256(first / "curve.json")


def test_agreement_command(workdir, capsys, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    ids = ["d1", "d2", "d3", "d4"]
    labels_a = ["x", "x", "y", "y"]
    labels_b = ["x", "y", "y", "y"]
    a.write_text("".join(
        json.dumps({"id": i, "attribute": "grade", "label": l}) + "\n"
        for i, l in zip(ids, labels_a)
    ), encoding="utf-8")
    b.write_text("".join(
        json.dumps({"id": i, "attribute": "grade", "label": l}) + "\n"
        for i, l in zip(ids, labels_b)
    ), encoding="utf-8")
    out = tmp_path / "agreement.json"
    code, out_text, _ = run(capsys, "agreement", "--a", str(a), "--b", str(b),
                            "--out", str(out))
    assert code == 0
    assert "grade: fraction 0.7500" in out_text
    payload = json.loads(out.read_text())
    assert payload["attributes"]["grade"]["fraction"] == 0.75
    assert payload["attributes"]["grade"]["kappa"] == pytest.approx(7 / 15)
    assert payload["overall"]["n"] == 4

    # coverage mismatch is a data error
    b.write_text(json.dumps({"id": "d9", "attribute": "grade", "label": "x"}) + "\n",
                 encoding="utf-8")
    code, _, err = run(capsys, "agreement", "--a", str(a), "--b", str(b),
                       "--out", str(out))
    assert code == 2
    assert "different items" in err


def test_agreement_rejects_a_repeated_record(capsys, tmp_path):
    """A second label for the same (id, attribute) is a data error, not a
    silent overwrite of the first."""
    a, b, out = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "agreement.json"
    records = [{"id": i, "attribute": "grade", "label": "x"} for i in ("d1", "d2")]
    b.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    records.append({"id": "d1", "attribute": "grade", "label": "y"})
    a.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    code, _, err = run(capsys, "agreement", "--a", str(a), "--b", str(b), "--out", str(out))
    assert code == 2
    assert "record 3: duplicate record ('d1', 'grade')" in err
    assert not out.exists()


def test_stage_command(workdir, capsys, tmp_path):
    rows = [
        {"id": "s1", "cancer": "colon",
         "lines": ["final diagnosis.", "stage ypT3aN1M0 assigned."], "annotations": []},
        {"id": "s2", "cancer": "colon",
         "lines": ["no token in this report."], "annotations": []},
    ]
    corpus = tmp_path / "staged.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "stage.jsonl"
    code, out_text, _ = run(capsys, "stage", "--corpus", str(corpus), "--out", str(out))
    assert code == 0
    assert "1/2 documents" in out_text
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert records[0] == {
        "id": "s1", "token": "ypT3aN1M0", "prefixes": ["y", "p"],
        "t": "3a", "n": "1", "m": "0",
    }
    assert records[1] == {"id": "s2", "token": None}


def test_exit_codes(workdir, capsys, tmp_path):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    code, _, err = run(capsys, "synth", "--config", "x.json")  # missing --out
    assert code == 1
    assert "usage error" in err
    code, _, err = run(capsys, "validate", "--corpus", str(tmp_path / "absent.jsonl"))
    assert code == 2
    assert "data error" in err

    broken = tmp_path / "broken.jsonl"
    broken.write_text("{not json\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", "--corpus", str(broken))
    assert code == 2

    code, _, err = run(
        capsys, "learning-curve", "--corpus", str(workdir / "corpus.jsonl"),
        "--attribute", "grade", "--sizes", "eight", "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert "--sizes" in err


def test_learning_curve_usage_errors_come_before_reading_the_corpus(capsys, tmp_path):
    absent = str(tmp_path / "absent.jsonl")
    out = str(tmp_path / "o")
    for attribute, sizes, message in (
        ("grade", "x", "bad --sizes value 'x'"),
        ("grade", "12,12", "--sizes names a size twice: '12,12'"),
        ("grade,grade", "8", "--attribute names an attribute twice"),
        (" , ", "8", "--attribute must name at least one attribute"),
    ):
        code, _, err = run(capsys, "learning-curve", "--corpus", absent,
                           "--attribute", attribute, "--sizes", sizes, "--out", out)
        assert code == 1
        assert message in err
    assert not os.path.exists(out)


def test_refuses_input_it_would_ignore_or_repeat(workdir, capsys, tmp_path):
    """--rules with a variant that selects no keyword lines, and an
    attribute named twice in a learning curve, are usage errors; a
    generator config with a typo, a bootstrap of zero iterations and zero
    workers are data errors.  None of
    them writes an output."""
    corpus = str(workdir / "corpus.jsonl")
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": {"grade": ["histologic grade"]}}), encoding="utf-8")
    model = tmp_path / "model.json"
    code, _, err = run(capsys, "train", "--corpus", corpus, "--attribute", "grade",
                       "--variant", "doc-logreg", "--rules", str(rules), "--out", str(model))
    assert code == 1
    assert "--rules applies only to --variant rules, not 'doc-logreg'" in err
    assert not model.exists()

    curve = tmp_path / "curve"
    code, _, err = run(capsys, "learning-curve", "--corpus", corpus,
                       "--attribute", "grade, grade", "--variant", "oracle", "--sizes", "8",
                       "--runs", "1", "--trials", "1", "--folds", "2", "--out", str(curve))
    assert code == 1
    assert "--attribute names an attribute twice" in err
    assert not curve.exists()

    code, _, err = run(capsys, "learning-curve", "--corpus", corpus, "--attribute", "grade",
                       "--variant", "oracle", "--sizes", "8", "--runs", "1", "--trials", "1",
                       "--folds", "2", "--ci-iterations", "0", "--out", str(curve))
    assert code == 2
    assert "bootstrap iterations must be >= 1, got 0" in err
    assert not curve.exists()

    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(
        json.dumps({"id": d.report.id, "attribute": "grade", "label": "grade 1"}) + "\n"
        for d in load_corpus(corpus)), encoding="utf-8")
    report = tmp_path / "eval.json"
    code, _, err = run(capsys, "evaluate", "--corpus", corpus, "--preds", str(preds),
                       "--bootstrap-iterations", "0", "--out", str(report))
    assert code == 2
    assert "bootstrap iterations must be >= 1, got 0" in err
    assert not report.exists()

    gen, typo = tmp_path / "gen.json", tmp_path / "typo.jsonl"
    gen.write_text(json.dumps({**GEN_CONFIG, "num_doc": 5}), encoding="utf-8")
    code, _, err = run(capsys, "synth", "--config", str(gen), "--out", str(typo))
    assert code == 2
    assert "unknown keys: num_doc" in err
    assert not typo.exists()

    tune = tmp_path / "tune"
    code, _, err = run(capsys, "tune", "--corpus", corpus, "--attribute", "grade",
                       "--variant", "oracle", "--trials", "1", "--folds", "2", "--jobs", "0",
                       "--out", str(tune))
    assert code == 2
    assert "jobs must be >= 1, got 0" in err
    assert not tune.exists()


@pytest.fixture(scope="module")
def manifest_chain(workdir, tmp_path_factory):
    """Runs each of the 9 commands once, with every option it records, and
    gives for each its argv, its manifest and its expected record: the
    ``resolved`` items in order, the seed, and the input and output paths
    in order."""
    root = tmp_path_factory.mktemp("manifests")
    corpus = str(workdir / "corpus.jsonl")
    gen, schema, rules, params = (str(root / n) for n in
                                  ("gen.json", "schema.json", "rules.json", "params.json"))
    Path(gen).write_text(json.dumps(GEN_CONFIG), encoding="utf-8")
    Path(schema).write_text(
        (REPO / "src/sla/data/schema.json").read_text(encoding="utf-8"), encoding="utf-8")
    Path(rules).write_text(json.dumps({"rules": {"grade": ["histologic grade"]}}),
                           encoding="utf-8")
    Path(params).write_text("{}", encoding="utf-8")
    a, b = str(root / "a.jsonl"), str(root / "b.jsonl")
    for path in (a, b):
        Path(path).write_text(json.dumps({"id": "d1", "attribute": "grade", "label": "x"})
                              + "\n", encoding="utf-8")
    out = {name: str(root / name) for name in (
        "s.jsonl", "v.json", "m.json", "p.jsonl", "e.json", "tune", "curve", "g.json",
        "t.jsonl")}
    synth_config = synth.config_to_dict(
        synth.config_from_dict({**GEN_CONFIG, "seed": 4, "num_docs": 6, "scheme": "full"}))
    tune_dir, curve_dir = out["tune"], out["curve"]
    chain = {
        "synth": (
            ["--config", gen, "--out", out["s.jsonl"], "--seed", "4", "--num-docs", "6",
             "--scheme", "full"],
            [("config", synth_config), ("out", out["s.jsonl"]), ("seed", 4)],
            4, [gen], [out["s.jsonl"]], out["s.jsonl"],
        ),
        "validate": (
            ["--corpus", corpus, "--schema", schema, "--out", out["v.json"]],
            [("corpus", corpus), ("schema", schema), ("out", out["v.json"]), ("seed", None)],
            None, [corpus, schema], [out["v.json"]], out["v.json"],
        ),
        "train": (
            ["--corpus", corpus, "--attribute", "grade", "--variant", "rules", "--seed", "2",
             "--params", params, "--rules", rules, "--schema", schema, "--out", out["m.json"]],
            [("corpus", corpus), ("attribute", "grade"), ("variant", "rules"), ("params", {}),
             ("seed", 2), ("out", out["m.json"])],
            2, [corpus, params, schema, rules], [out["m.json"]], out["m.json"],
        ),
        "predict": (
            ["--model", out["m.json"], "--corpus", corpus, "--out", out["p.jsonl"]],
            [("corpus", corpus), ("model", out["m.json"]), ("out", out["p.jsonl"]),
             ("seed", None)],
            None, [corpus, out["m.json"]], [out["p.jsonl"]], out["p.jsonl"],
        ),
        "evaluate": (
            ["--corpus", corpus, "--preds", out["p.jsonl"], "--schema", schema,
             "--bootstrap-iterations", "20", "--ci-level", "0.9", "--seed", "1",
             "--out", out["e.json"]],
            [("corpus", corpus), ("preds", out["p.jsonl"]), ("bootstrap_iterations", 20),
             ("ci_level", 0.9), ("seed", 1), ("out", out["e.json"])],
            1, [corpus, out["p.jsonl"], schema], [out["e.json"]], out["e.json"],
        ),
        "tune": (
            ["--corpus", corpus, "--attribute", "grade", "--variant", "oracle",
             "--trials", "2", "--folds", "2", "--seed", "5", "--schema", schema,
             "--out", tune_dir],
            [("corpus", corpus), ("attribute", "grade"), ("variant", "oracle"),
             ("trials", 2), ("folds", 2), ("seed", 5), ("jobs", 1), ("out", tune_dir)],
            5, [corpus, schema],
            [os.path.join(tune_dir, "best.json"), os.path.join(tune_dir, "trials.jsonl")],
            tune_dir,
        ),
        "learning-curve": (
            ["--corpus", corpus, "--attribute", "grade", "--variant", "oracle",
             "--sizes", "8,16", "--runs", "1", "--trials", "1", "--folds", "2",
             "--ci-iterations", "10", "--ci-level", "0.9", "--seed", "3",
             "--schema", schema, "--out", curve_dir],
            [("corpus", corpus), ("attribute", "grade"), ("variant", "oracle"),
             ("sizes", [8, 16]), ("runs", 1), ("trials", 1), ("folds", 2),
             ("ci_iterations", 10), ("ci_level", 0.9), ("seed", 3), ("jobs", 1),
             ("out", curve_dir)],
            3, [corpus, schema],
            [os.path.join(curve_dir, "curve.json"), os.path.join(curve_dir, "curve.csv")],
            curve_dir,
        ),
        "agreement": (
            ["--a", a, "--b", b, "--out", out["g.json"]],
            [("a", a), ("b", b), ("out", out["g.json"]), ("seed", None)],
            None, [a, b], [out["g.json"]], out["g.json"],
        ),
        "stage": (
            ["--corpus", corpus, "--out", out["t.jsonl"]],
            [("corpus", corpus), ("out", out["t.jsonl"]), ("seed", None)],
            None, [corpus], [out["t.jsonl"]], out["t.jsonl"],
        ),
    }
    runs = {}
    for command, (args, resolved, seed, inputs, outputs, target) in chain.items():
        argv = [command, *args]
        assert cli.main(argv) in (0, 2), command  # validate exits 2 on violations
        manifest = json.loads(Path(cli._manifest_path(target)).read_text(encoding="utf-8"))
        runs[command] = (argv, manifest, resolved, seed, inputs, outputs)
    return runs


@pytest.mark.parametrize("command", [
    "synth", "validate", "train", "predict", "evaluate", "tune", "learning-curve",
    "agreement", "stage",
])
def test_manifest_records_each_command(manifest_chain, command):
    """The frozen manifest of each command: what it resolved, in order, and
    the hash of every file that it read (the schema and rules files too)
    and wrote."""
    argv, manifest, resolved, seed, inputs, outputs = manifest_chain[command]
    assert manifest["version"] == 1
    assert manifest["command"] == command
    assert manifest["argv"] == argv
    assert list(manifest["resolved"].items()) == resolved
    assert manifest["seed"] == seed
    assert list(manifest["inputs"]) == inputs
    assert list(manifest["outputs"]) == outputs
    for path, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
        assert digest == sha256(Path(path))
    assert set(manifest) == {"version", "command", "argv", "resolved", "seed", "inputs",
                             "outputs", "wall_clock_seconds", "created_utc"}


REPO = Path(__file__).resolve().parent.parent


def load_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (REPO / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)


def test_console_script_installed(tmp_path):
    # Runs this checkout's CLI the way an installed `sla` would, without
    # needing an install: whatever `sla` is on PATH may be another copy.
    scripts = load_pyproject()["project"]["scripts"]
    assert scripts == {"sla": "sla.cli:main"}

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)

    def python(*args):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env, cwd=tmp_path)

    # the launcher an installer writes for the console-scripts entry point
    launcher = ("import sys; sys.argv[0] = 'sla'; "
                "from sla.cli import main; sys.exit(main())")
    proc = python("-c", launcher, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: sla")
    assert "learning-curve" in proc.stdout

    proc = python("-m", "sla.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "learning-curve" in proc.stdout
