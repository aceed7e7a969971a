"""The model bundle: the one JSON format that ``sla train`` writes and
``sla predict`` reads, for every pipeline variant and baseline.

Its header is ``version`` (1) and ``kind`` (``"sla"`` for a pipeline
variant, else the baseline kind); the kind's keys follow.  A vocabulary
lists its n-grams in column order, a linear model one weight row and one
intercept per class, and a forest its trees as nested nodes, a leaf
``{"value"}`` or a split ``{"feature", "left", "right"}``.  Every object,
at any depth, must hold exactly its keys, and a wrong type, an n-gram or
class listed twice, or a copy of a fact that disagrees with another is a
ValueError naming the path to the value.  A bundle loaded and saved again
keeps its bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace

import numpy as np

from .baselines import BASELINE_KINDS, DocBaselineModel
from .corpus import CorpusError, read_json
from .learners import GbtModel, GbtParams, LinearModel, NodeTable, add_node, node_arrays
from .textproc import Vocabulary

VERSION = 1
SLA_KIND = "sla"  # every pipeline variant; a baseline bundle's kind is its baseline kind
_SLA_KEYS = ("version", "kind", "attribute", "variant", "k", "final_vocab", "final_classifier",
             "line_vocab", "line_scorer", "keyword_rules", "hyper")
_BASELINE_KEYS = ("version", "kind", "attribute", "vocab", "linear", "boost_classes",
                  "boost_models")


def _read_object(payload, what: str, keys) -> dict:
    """``payload``, named ``what``, as a JSON object of exactly ``keys``."""
    read_json(payload, dict, what)
    unknown = sorted(set(payload) - set(keys))
    if unknown:
        raise ValueError(f"{what}: unknown keys: {', '.join(unknown)}")
    for key in keys:
        if key not in payload:
            raise ValueError(f"{what} has no key {key!r}")
    return payload


def _read(payload: dict, key: str, kind, what: str, listed: str = ""):
    """``read_json`` of ``payload[key]``.  With ``listed``, the name of one
    of its items, a list that holds an item twice is refused."""
    value = read_json(payload[key], kind, f"{what} key {key!r}")
    if listed and value is not None and len(set(value)) != len(value):
        raise ValueError(f"{what} key {key!r} lists {listed} twice")
    return value


def vocab_to_json(vocab: Vocabulary) -> dict:
    return {
        "max_n": vocab.max_n,
        "min_count": vocab.min_count,
        "unk_token": vocab.unk_token,
        "ngrams": sorted(vocab.ngram_to_index, key=vocab.ngram_to_index.__getitem__),
    }


def vocab_from_json(payload, what: str = "vocabulary") -> Vocabulary:
    """The vocabulary ``payload`` holds.  An n-gram of more than ``max_n``
    tokens, which ``find_ngrams`` could never find, is refused."""
    _read_object(payload, what, ("max_n", "min_count", "unk_token", "ngrams"))
    ngrams = _read(payload, "ngrams", tuple[str, ...], what, listed="an n-gram")
    max_n = _read(payload, "max_n", int, what)
    over = [gram for gram in ngrams if gram.count(" ") >= max_n]
    if over:
        raise ValueError(f"{what} key 'ngrams' holds {over[0]!r}, of more than {max_n} tokens")
    min_count = _read(payload, "min_count", int, what)
    unk_token = _read(payload, "unk_token", str, what)
    try:
        return Vocabulary({gram: i for i, gram in enumerate(ngrams)}, max_n, min_count, unk_token)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def linear_to_json(model: LinearModel) -> dict:
    return {
        "classes": list(model.classes),
        "weights": model.weights.tolist(),
        "intercepts": model.intercepts.tolist(),
    }


def linear_from_json(payload, num_features: int, what: str = "linear model") -> LinearModel:
    """The model ``payload`` holds, of ``num_features`` weights per class."""
    _read_object(payload, what, ("classes", "weights", "intercepts"))
    classes = _read(payload, "classes", tuple[str, ...], what, listed="a class")
    rows = _read(payload, "weights", tuple[tuple[float, ...], ...], what)
    intercepts = _read(payload, "intercepts", tuple[float, ...], what)
    n = len(classes)
    if len(rows) != n or len(intercepts) != n or any(len(r) != num_features for r in rows):
        raise ValueError(
            f"{what} must hold one weight row of {num_features} numbers and one intercept"
            f" per class ({n})"
        )
    return LinearModel(
        classes=classes,
        # from the JSON lists, which numpy reads faster than the tuples
        weights=np.array(payload["weights"], dtype=np.float64).reshape(n, num_features),
        intercepts=np.array(intercepts, dtype=np.float64),
    )


def forest_to_json(model: GbtModel) -> dict:
    feature, left, right, value = (
        a.tolist() for a in (model.feature, model.left, model.right, model.value)
    )

    def tree(i: int) -> dict:
        if feature[i] < 0:
            return {"value": value[i]}
        return {"feature": feature[i], "left": tree(left[i]), "right": tree(right[i])}

    return {
        "params": asdict(model.params),
        "base_score": model.base_score,
        "num_features": model.num_features,
        "trees": [tree(i) for i in model.trees.tolist()],
    }


def forest_from_json(payload, num_features: int, what: str = "gbt model") -> GbtModel:
    """The forest ``payload`` holds, over ``num_features`` features, read
    breadth first; a node is named by its place in its tree (``trees[0].left``)."""
    _read_object(payload, what, ("params", "base_score", "num_features", "trees"))
    width = _read(payload, "num_features", int, what)
    if width != num_features:
        raise ValueError(f"{what} key 'num_features' must be {num_features}, got {width}")
    trees = _read(payload, "trees", list, what)
    params = read_json(_read(payload, "params", dict, what), GbtParams, f"{what} params")
    base_score = float(_read(payload, "base_score", float, what))
    table: NodeTable = [], [], [], [], []
    _, feature, left, right, value = table
    for t, root in enumerate(trees):
        order = [(add_node(table, root=True), root, f"{what} trees[{t}]")]
        for i, node, where in order:  # grows as it is read: breadth first
            if isinstance(node, dict) and "value" in node:
                value[i] = _read(_read_object(node, where, ("value",)), "value", float, where)
                continue
            _read_object(node, where, ("feature", "left", "right"))
            f = _read(node, "feature", int, where)
            if not 0 <= f < num_features:
                raise ValueError(f"{where} key 'feature' must be in [0, {num_features}), got {f}")
            feature[i], left[i], right[i] = f, add_node(table), add_node(table)
            order += [(left[i], _read(node, "left", dict, where), f"{where}.left"),
                      (right[i], _read(node, "right", dict, where), f"{where}.right")]
    return GbtModel(params, base_score, *node_arrays(table), num_features)


def to_json(model) -> dict:
    """The bundle of an ``SlaModel`` or a ``DocBaselineModel``."""
    if isinstance(model, DocBaselineModel):
        return {
            "version": VERSION,
            "kind": model.kind,
            "attribute": model.attribute,
            "vocab": vocab_to_json(model.vocab),
            "linear": linear_to_json(model.linear) if model.linear else None,
            "boost_classes": list(model.boost_classes) if model.boost_classes else None,
            "boost_models": [forest_to_json(m) for m in model.boost_models or ()] or None,
        }
    return {
        "version": VERSION,
        "kind": SLA_KIND,
        "attribute": model.attribute,
        "variant": model.variant,
        "k": model.k,
        "final_vocab": vocab_to_json(model.final_vocab),
        "final_classifier": linear_to_json(model.final_classifier),
        "line_vocab": vocab_to_json(model.line_vocab) if model.line_scorer else None,
        "line_scorer": forest_to_json(model.line_scorer) if model.line_scorer else None,
        "keyword_rules": list(model.keyword_rules) if model.keyword_rules else None,
        "hyper": asdict(model.hyper),
    }


def from_json(payload):
    """The ``SlaModel`` or ``DocBaselineModel`` the bundle ``payload`` holds."""
    kind = read_json(payload, dict, "a model bundle").get("kind")
    if kind != SLA_KIND and kind not in BASELINE_KINDS:
        raise ValueError(f"unknown model bundle kind {kind!r}")
    what = "sla model bundle" if kind == SLA_KIND else f"{kind} bundle"
    if payload.get("version") != VERSION:
        raise ValueError(
            f"unsupported {what} version {payload.get('version')!r} (expected {VERSION})"
        )
    if kind == SLA_KIND:
        return _sla_from_json(_read_object(payload, what, _SLA_KEYS), what)
    return _baseline_from_json(_read_object(payload, what, _BASELINE_KEYS), what)


def _sla_from_json(payload: dict, what: str):
    """The bundle repeats what ``hyper`` holds (``k``, each stage's order
    and vocabulary, the line scorer's parameters), and a copy that
    disagrees with it is refused."""
    from .pipeline import SlaHyperParams, SlaModel  # pipeline re-exports this module's I/O

    # bundles written before gbt and lin were serialized get the defaults,
    # and for gbt the line scorer's parameters
    hyper = read_json(payload["hyper"], SlaHyperParams, f"{what} hyper", optional=("gbt", "lin"))
    if _read(payload, "k", int, what) != hyper.k:
        raise ValueError(f"{what} key 'k' is {payload['k']}, but hyper key 'k' is {hyper.k}")
    line_scorer = _read(payload, "line_scorer", dict | None, what)
    if (payload["line_vocab"] is None) != (line_scorer is None):
        raise ValueError(f"{what} keys 'line_vocab' and 'line_scorer' must both be null or set")
    vocabs = {}  # a line vocabulary only with a line scorer
    for key in ("final_vocab", "line_vocab") if line_scorer is not None else ("final_vocab",):
        vocabs[key] = vocab_from_json(_read(payload, key, dict, what), f"{what} {key}")
        order = key.replace("vocab", "ngram_n")
        if vocabs[key].max_n != getattr(hyper, order):
            raise ValueError(
                f"{what} key {key!r} has order {vocabs[key].max_n}, but hyper key {order!r} is"
                f" {getattr(hyper, order)}"
            )
    # serving reads both stages' columns from the larger vocabulary
    vocab = max(vocabs.values(), key=lambda v: v.max_n)
    if any(vocab.restrict(v.max_n)[0] != v for v in vocabs.values()):
        raise ValueError(
            f"{what} keys 'line_vocab' (order {hyper.line_ngram_n}) and 'final_vocab' (order "
            f"{hyper.final_ngram_n}) disagree: the smaller must be the larger restricted to its"
            " order"
        )
    if line_scorer is not None:
        line_scorer = forest_from_json(line_scorer, vocabs["line_vocab"].dimension,
                                       f"{what} line_scorer")
        hyper = hyper if "gbt" in payload["hyper"] else replace(hyper, gbt=line_scorer.params)
        if line_scorer.params != hyper.gbt:
            raise ValueError(f"{what} line_scorer params disagree with hyper key 'gbt'")
    return SlaModel(
        attribute=_read(payload, "attribute", str, what),
        variant=_read(payload, "variant", str, what),
        hyper=hyper,
        vocab=vocab,
        final_classifier=linear_from_json(
            _read(payload, "final_classifier", dict, what), vocabs["final_vocab"].dimension,
            f"{what} final_classifier",
        ),
        line_scorer=line_scorer,
        keyword_rules=_read(payload, "keyword_rules", tuple[str, ...] | None, what),
    )


def _baseline_from_json(payload: dict, what: str) -> DocBaselineModel:
    vocab = vocab_from_json(_read(payload, "vocab", dict, what), f"{what} vocab")
    linear = _read(payload, "linear", dict | None, what)
    boost_models = _read(payload, "boost_models", list | None, what)
    boost_classes = _read(payload, "boost_classes", tuple[str, ...] | None, what, listed="a class")
    # the kind's own check runs on the learners as JSON, so that a learner
    # the kind takes no part in is refused before it is read
    model = DocBaselineModel(_read(payload, "attribute", str, what), payload["kind"], vocab,
                             linear, boost_classes, boost_models)
    if linear is not None:
        model.linear = linear_from_json(linear, vocab.dimension, f"{what} linear")
    if boost_models is not None:
        model.boost_models = [forest_from_json(m, vocab.dimension, f"{what} boost_models[{i}]")
                              for i, m in enumerate(boost_models)]
    return model


def bundle_text(model) -> str:
    """The bundle file's text: its JSON on one line, then a newline."""
    return json.dumps(to_json(model)) + "\n"


def save_model(model, path: str) -> None:
    """Write the bundle of an ``SlaModel`` or a ``DocBaselineModel``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bundle_text(model))


def load_model(path: str):
    """The ``SlaModel`` or ``DocBaselineModel`` of the bundle at ``path``; a
    file that is not such a bundle is a CorpusError that starts with ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return from_json(json.load(fh))
        except ValueError as exc:
            raise CorpusError(f"{path}: {exc}") from None
