"""Whole-document baselines: the same two learners without line selection.

A document is represented as the union of its per-line n-gram sets
(binary presence, n-grams never crossing line boundaries), then classified
with either L1 logistic regression ("doc-logreg") or one-vs-rest boosted
trees ("doc-boost").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from .corpus import AttributeSchema, LabeledDocument, Report, annotated_documents, gold_label
from .learners import (
    GbtModel,
    GbtParams,
    LinearModel,
    LinParams,
    label_scores,
    predict_gbt_batch,
    predict_logreg,
    train_gbt,
    train_l1_logreg,
)
from .textproc import Hits, Vocabulary, featurize, find_ngrams, tokenize_lines

BASELINE_KINDS = ("doc-logreg", "doc-boost")
DEFAULT_NGRAM_N = 1  # the n-gram order of a baseline whose order is not given


def featurize_document(report: Report, vocab: Vocabulary) -> sparse.csr_matrix:
    """Union of the report's per-line n-gram features, as one binary CSR row."""
    return find_ngrams([tokenize_lines(report)], vocab).documents


@dataclass
class DocBaselineModel:
    attribute: str
    kind: str
    vocab: Vocabulary
    linear: LinearModel | None = None
    boost_classes: tuple | None = None
    boost_models: list[GbtModel] | None = None

    def __post_init__(self) -> None:
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        other = ("boost_classes", "boost_models") if self.kind == "doc-logreg" else ("linear",)
        if any(getattr(self, key) is not None for key in other):
            raise ValueError(f"a {self.kind} model takes no {' or '.join(map(repr, other))}")
        if self.kind == "doc-logreg" and self.linear is None:
            raise ValueError("a doc-logreg model requires its linear model, 'linear'")
        if self.kind == "doc-boost":
            classes, models = len(self.boost_classes or ()), self.boost_models
            # one class is a constant predictor, which needs no model
            if not classes or (len(models) != classes if models is not None else classes > 1):
                raise ValueError(
                    "a doc-boost model requires its 'boost_classes' and one of its"
                    " 'boost_models' per class"
                )


def train_doc_baseline(
    train_docs: Sequence[LabeledDocument],
    attribute: str,
    kind: str = "doc-logreg",
    ngram_n: int = DEFAULT_NGRAM_N,
    lin: LinParams | None = None,
    gbt: GbtParams | None = None,
    schemas: Mapping[tuple[str, str], AttributeSchema] | None = None,
) -> DocBaselineModel:
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    docs = annotated_documents(train_docs, attribute, 2, "training")
    (features,) = featurize(ngram_n, [tokenize_lines(d.report) for d in docs])
    labels = [gold_label(d, attribute, schemas) for d in docs]
    return fit_doc_baseline(features, labels, attribute, kind, ngram_n, lin, gbt)


def fit_doc_baseline(
    features: Hits,
    labels: Sequence[str],
    attribute: str,
    kind: str,
    ngram_n: int,
    lin: LinParams | None = None,
    gbt: GbtParams | None = None,
) -> DocBaselineModel:
    """Fit a baseline at order ``ngram_n`` on the training documents'
    ``features``, their hits at an order no lower."""
    hits = features.at(ngram_n)
    X = hits.documents
    if kind == "doc-logreg":
        linear = train_l1_logreg(X, labels, lin or LinParams())
        return DocBaselineModel(attribute, kind, hits.vocab, linear=linear)
    classes, models = tuple(sorted(set(labels))), None
    if len(classes) > 1:  # one class is a constant predictor
        models = [
            train_gbt(X, [1.0 if lab == c else 0.0 for lab in labels], gbt or GbtParams())
            for c in classes
        ]
    return DocBaselineModel(attribute, kind, hits.vocab, boost_classes=classes, boost_models=models)


def predict_doc_baseline(
    model: DocBaselineModel, reports: Sequence[Report]
) -> list[tuple[str, dict]]:
    """Label and per-class scores of each report.  ``doc-boost`` scores the
    whole batch with one call per class model."""
    if not reports:
        return []
    X = find_ngrams([tokenize_lines(r) for r in reports], model.vocab).documents
    return predict_doc_rows(model, X)


def predict_doc_rows(model: DocBaselineModel, X: sparse.csr_matrix) -> list[tuple[str, dict]]:
    """Label and per-class scores of each row of ``X``, a document matrix
    under ``model.vocab``."""
    if model.kind == "doc-logreg":
        outputs = predict_logreg(model.linear, X)
    elif model.boost_models is None:  # one class: a constant predictor
        outputs = label_scores(model.boost_classes, np.ones((X.shape[0], 1)))
    else:
        probs = np.column_stack([predict_gbt_batch(m, X) for m in model.boost_models])
        outputs = label_scores(model.boost_classes, probs)
    return [(str(label), scores) for label, scores in outputs]
