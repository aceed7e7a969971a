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

from .corpus import AttributeSchema, LabeledDocument, Report, gold_label
from .learners import (
    GbtModel,
    GbtParams,
    LinearModel,
    LinParams,
    predict_gbt_batch,
    predict_logreg_rows,
    train_gbt,
    train_l1_logreg,
)
from .textproc import (
    Featurized,
    Vocabulary,
    build_vocabulary,
    to_csr,
    tokenize_lines,
    vectorize,
)

BASELINE_KINDS = ("doc-logreg", "doc-boost")


def document_matrix(
    doc_lines: Sequence[Sequence[Sequence[str]]], vocab: Vocabulary
) -> sparse.csr_matrix:
    """One binary row per document, given as its token lines: the union of
    its lines' n-gram features, from one ``vectorize`` call over every
    line."""
    lines = vectorize([tl for tls in doc_lines for tl in tls], vocab)
    docs = np.repeat(np.arange(len(doc_lines)), [len(tls) for tls in doc_lines])
    docs = np.repeat(docs, np.diff(lines.indptr))
    return to_csr(docs, lines.indices, (len(doc_lines), vocab.dimension))


def featurize_document(report: Report, vocab: Vocabulary) -> sparse.csr_matrix:
    """Union of the report's per-line n-gram features, as one binary CSR row."""
    return document_matrix([tokenize_lines(report)], vocab)


def baseline_features(
    max_n: int, train_lines: Sequence[Sequence[Sequence[str]]], *held_lines
) -> Featurized:
    """The vocabulary of the training documents' lines at order ``max_n``,
    with the document matrix of the training documents and of each of
    ``held_lines`` under it."""
    vocab = build_vocabulary([tl for tls in train_lines for tl in tls], max_n)
    return Featurized(vocab, *(document_matrix(d, vocab) for d in (train_lines, *held_lines)))


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


def train_doc_baseline(
    train_docs: Sequence[LabeledDocument],
    attribute: str,
    kind: str = "doc-logreg",
    ngram_n: int = 1,
    lin: LinParams | None = None,
    gbt: GbtParams | None = None,
    schemas: Mapping[tuple[str, str], AttributeSchema] | None = None,
) -> DocBaselineModel:
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    docs = [d for d in train_docs if attribute in d.annotations]
    if len(docs) < 2:
        raise ValueError(
            f"need at least 2 training documents annotated for {attribute!r}, got {len(docs)}"
        )
    features = baseline_features(ngram_n, [tokenize_lines(d.report) for d in docs])
    labels = [gold_label(d, attribute, schemas) for d in docs]
    return fit_doc_baseline(features, labels, attribute, kind, ngram_n, lin, gbt)


def fit_doc_baseline(
    features: Featurized,
    labels: Sequence[str],
    attribute: str,
    kind: str,
    ngram_n: int = 1,
    lin: LinParams | None = None,
    gbt: GbtParams | None = None,
) -> DocBaselineModel:
    """Fit a baseline at order ``ngram_n`` on the first matrix of
    ``features``, one row per training document."""
    vocab, (X, *_) = features.at(ngram_n)
    model = DocBaselineModel(attribute=attribute, kind=kind, vocab=vocab)
    if kind == "doc-logreg":
        model.linear = train_l1_logreg(X, labels, lin or LinParams())
    else:
        classes = tuple(sorted(set(labels)))
        model.boost_classes = classes
        model.boost_models = []
        if len(classes) == 1:
            model.boost_models = None  # constant predictor, handled at predict time
        else:
            for cls in classes:
                y = np.array([1.0 if lab == cls else 0.0 for lab in labels])
                model.boost_models.append(train_gbt(X, y, gbt or GbtParams()))
    return model


def predict_doc_baseline(
    model: DocBaselineModel, reports: Sequence[Report]
) -> list[tuple[str, dict]]:
    """Label and per-class scores of each report.  ``doc-boost`` scores the
    whole batch with one call per class model."""
    if not reports:
        return []
    X = document_matrix([tokenize_lines(r) for r in reports], model.vocab)
    return predict_doc_rows(model, X)


def predict_doc_rows(model: DocBaselineModel, X: sparse.csr_matrix) -> list[tuple[str, dict]]:
    """Label and per-class scores of each row of ``X``, a document matrix
    under ``model.vocab``."""
    if model.kind == "doc-logreg":
        return [(str(label), scores) for label, scores in predict_logreg_rows(model.linear, X)]
    classes = model.boost_classes
    if model.boost_models is None:
        return [(str(classes[0]), {str(classes[0]): 1.0}) for _ in range(X.shape[0])]
    probs = np.column_stack([predict_gbt_batch(m, X) for m in model.boost_models])
    return [
        (str(classes[int(np.argmax(p))]), {str(c): float(q) for c, q in zip(classes, p)})
        for p in probs
    ]


# ---------------------------------------------------------------------------
# serialization, mirroring the sla bundle format
# ---------------------------------------------------------------------------


_BUNDLE_VERSION = 1


def baseline_to_dict(model: DocBaselineModel) -> dict:
    return {
        "version": _BUNDLE_VERSION,
        "kind": model.kind,
        "attribute": model.attribute,
        "vocab": model.vocab.to_dict(),
        "linear": model.linear.to_dict() if model.linear else None,
        "boost_classes": list(model.boost_classes) if model.boost_classes else None,
        "boost_models": [m.to_dict() for m in model.boost_models]
        if model.boost_models
        else None,
    }


def baseline_from_dict(payload: dict) -> DocBaselineModel:
    if payload.get("version") != _BUNDLE_VERSION:
        raise ValueError(
            f"unsupported baseline bundle version {payload.get('version')!r}"
            f" (expected {_BUNDLE_VERSION})"
        )
    return DocBaselineModel(
        attribute=payload["attribute"],
        kind=payload["kind"],
        vocab=Vocabulary.from_dict(payload["vocab"]),
        linear=LinearModel.from_dict(payload["linear"]) if payload.get("linear") else None,
        boost_classes=tuple(payload["boost_classes"])
        if payload.get("boost_classes")
        else None,
        boost_models=[GbtModel.from_dict(m) for m in payload["boost_models"]]
        if payload.get("boost_models")
        else None,
    )
