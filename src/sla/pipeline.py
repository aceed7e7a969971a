"""The two-stage supervised line attention pipeline and its ablations.

Stage 1 scores every report line for relevance to one attribute with a
boosted-tree classifier over line n-grams, trained from the annotators'
highlighted lines.  The top-k lines are kept, adjacent kept lines are
joined into segments (a joined segment's weight is the maximum of its
members' scores), and the document representation is

    d_r = sum over segments of  m(segment) * v(segment tokens)

where v is the binary bag-of-n-grams of the segment's tokens (its member
lines' tokens in order, so n-grams may cross line boundaries inside a
segment) and m is the segment weight.  Stage 2 classifies d_r with
L1-regularized logistic regression.

The variants are the rows of ``VARIANTS``: a line selector, whether
adjacent kept lines are joined, and whether segments carry their stage-1
score or weight 1.

    variant             selector  join  weight
    sla                 scored    yes   score
    rules               rules     yes   1
    oracle              oracle    yes   1
    no_weight           scored    yes   1
    no_join             scored    no    score
    no_weight_no_join   scored    no    1

"scored" keeps the top-k lines by stage-1 score, "rules" every
keyword-matched line (no cap), "oracle" the annotator's gold lines.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .corpus import (
    AttributeSchema,
    CorpusError,
    LabeledDocument,
    Report,
    annotated_documents,
    bundle_header,
    check_bundle,
    gold_label,
    read_json,
)
from .learners import (
    GbtModel,
    GbtParams,
    LinearModel,
    LinParams,
    predict_gbt_batch,
    predict_gbt_pairs,
    predict_logreg,
    train_gbt,
    train_l1_logreg,
)
from .textproc import (
    Hits,
    Vocabulary,
    featurize,
    find_ngrams,
    to_csr,
    tokenize,
    tokenize_lines,
)


class Variant(NamedTuple):
    """How a pipeline variant selects and weights lines."""

    selector: str  # "scored" (stage-1 top-k), "rules" or "oracle"
    join: bool  # merge adjacent kept lines into one segment
    weight: bool  # segments carry their stage-1 score; else weight 1


VARIANTS = {
    "sla": Variant("scored", join=True, weight=True),
    "rules": Variant("rules", join=True, weight=False),
    "oracle": Variant("oracle", join=True, weight=False),
    "no_weight": Variant("scored", join=True, weight=False),
    "no_join": Variant("scored", join=False, weight=True),
    "no_weight_no_join": Variant("scored", join=False, weight=False),
}
SCORED_VARIANTS = tuple(name for name, v in VARIANTS.items() if v.selector == "scored")


def variant_row(variant: str) -> Variant:
    """The ``VARIANTS`` row of a variant name; ValueError if unknown."""
    row = VARIANTS.get(variant)
    if row is None:
        raise ValueError(f"unknown variant {variant!r}")
    return row


_RULES_RESOURCE = "data/keyword_rules.json"


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """A run of adjacent selected lines [start, end] with its weight."""

    start: int
    end: int
    weight: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad segment bounds ({self.start}, {self.end})")


@dataclass(frozen=True)
class SelectedLines:
    """The lines kept for one document: disjoint, sorted segments."""

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        prev_end = -1
        for seg in self.segments:
            if seg.start <= prev_end:
                raise ValueError("segments must be disjoint and sorted")
            prev_end = seg.end

    def line_indices(self) -> tuple[int, ...]:
        return tuple(
            i for seg in self.segments for i in range(seg.start, seg.end + 1)
        )


@dataclass(frozen=True)
class SlaHyperParams:
    line_ngram_n: int = 2
    final_ngram_n: int = 2
    k: int = 3
    gbt: GbtParams = field(default_factory=GbtParams)
    lin: LinParams = field(default_factory=LinParams)

    def __post_init__(self) -> None:
        if not 1 <= self.line_ngram_n <= 4:
            raise ValueError("line_ngram_n must be in [1, 4]")
        if not 1 <= self.final_ngram_n <= 4:
            raise ValueError("final_ngram_n must be in [1, 4]")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class Prediction:
    label: str
    scores: dict[str, float]
    rationale: SelectedLines


@dataclass
class SlaModel:
    """Everything needed to reproduce a prediction: the variant, its
    hyperparameters, both stages' learners, and one vocabulary at the
    largest order the variant reads (``fit_order``).  Each stage's
    vocabulary is its restriction to the stage's order in ``hyper``."""

    attribute: str
    variant: str
    hyper: SlaHyperParams
    vocab: Vocabulary
    final_classifier: LinearModel
    line_scorer: GbtModel | None = None
    keyword_rules: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        selector = variant_row(self.variant).selector
        if (selector == "scored") != (self.line_scorer is not None):
            need = "requires a" if selector == "scored" else "takes no"
            raise ValueError(f"variant {self.variant} {need} line scorer")
        if selector == "rules" and not self.keyword_rules:
            raise ValueError(f"variant {self.variant} requires keyword rules")
        if selector != "rules" and self.keyword_rules is not None:
            raise ValueError(f"variant {self.variant} takes no keyword rules")
        for rule in self.keyword_rules or ():
            if not tokenize(rule):
                raise ValueError(f"keyword rule {rule!r} has no tokens, so it matches no line")
        order = fit_order(self.variant, self.hyper)
        if self.vocab.max_n != order:
            raise ValueError(
                f"variant {self.variant} with these n-gram orders reads a vocabulary of order"
                f" {order}, got {self.vocab.max_n}"
            )

    @property
    def k(self) -> int:
        return self.hyper.k

    @property
    def final_vocab(self) -> Vocabulary:
        return self.vocab.restrict(self.hyper.final_ngram_n)[0]

    @property
    def line_vocab(self) -> Vocabulary | None:
        return self.vocab.restrict(self.hyper.line_ngram_n)[0] if self.line_scorer else None


# ---------------------------------------------------------------------------
# keyword rules
# ---------------------------------------------------------------------------


def load_keyword_rules(path: str | None = None) -> dict[str, tuple[str, ...]]:
    """Per-attribute keyword phrases for the rule-based selector.  The
    packaged defaults are editable by pointing at another JSON file."""
    what = path or _RULES_RESOURCE
    source = resources.files(__package__).joinpath(_RULES_RESOURCE) if path is None else Path(path)
    payload = read_json(json.loads(source.read_text("utf-8")), dict, what)
    return read_json(payload.get("rules"), dict[str, tuple[str, ...]], f"{what} key 'rules'")


def _contains_subsequence(tokens: Sequence[str], phrase: Sequence[str]) -> bool:
    n = len(phrase)
    return any(tuple(tokens[i : i + n]) == tuple(phrase) for i in range(len(tokens) - n + 1))


def _rule_hits(token_lines: Sequence[Sequence[str]], phrases) -> tuple[int, ...]:
    """Indices of the token lines that contain any of the token ``phrases``
    as a contiguous subsequence."""
    return tuple(
        i
        for i, tokens in enumerate(token_lines)
        if any(_contains_subsequence(tokens, p) for p in phrases)
    )


# ---------------------------------------------------------------------------
# selection and representation
# ---------------------------------------------------------------------------


def build_line_labels(doc: LabeledDocument, attribute: str) -> np.ndarray:
    """Stage-1 targets for one document, one per line: 1.0 where the
    annotator highlighted the line for this attribute, else 0.0."""
    if attribute not in doc.annotations:
        raise ValueError(f"doc {doc.report.id} has no annotation for {attribute!r}")
    labels = np.zeros(len(doc.report.lines))
    labels[list(doc.annotations[attribute].line_indices)] = 1.0
    return labels


def select_top_k(scores: Sequence[float], k: int) -> tuple[int, ...]:
    """Indices of the k highest-scoring lines (ascending index order).
    Ties resolve toward the lower line index; k is clamped to the number
    of lines."""
    if k < 1:
        raise ValueError("k must be >= 1")
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    return tuple(sorted(int(i) for i in order[:k]))


def join_adjacent(selected: Sequence[int], line_scores) -> SelectedLines:
    """Merge runs of adjacent selected lines into segments.  A joined
    segment's weight is the maximum of its member scores."""
    idx = sorted(set(selected))
    segments: list[Segment] = []
    pos = 0
    while pos < len(idx):
        start = end = idx[pos]
        weight = float(line_scores[start])
        while pos + 1 < len(idx) and idx[pos + 1] == end + 1:
            pos += 1
            end = idx[pos]
            weight = max(weight, float(line_scores[end]))
        segments.append(Segment(start, end, weight))
        pos += 1
    return SelectedLines(tuple(segments))


def compose_representation(selections: Sequence[SelectedLines], hits: Hits) -> sparse.csr_matrix:
    """Each document's weighted sum of segment vectors, one CSR row per
    document, from the final-vocabulary ``hits`` of the batch with each
    document as one stream.  A segment's n-grams are the hits whose first
    and last lines both lie inside it: the n-grams of its member lines'
    tokens in order, which is how the lines joined with a space tokenize,
    so n-grams may cross the original line boundaries inside a segment.
    Each feature's segment weights are added in segment order from 0.0,
    and a feature whose weights sum to zero is not stored."""
    segments = [(doc, seg) for doc, sel in enumerate(selections) for seg in sel.segments]
    docs = np.array([d for d, _ in segments], dtype=np.int64)
    lines = np.array([(s.start, s.end) for _, s in segments], dtype=np.int64).reshape(-1, 2)
    span, cols = hits.within(*(lines + hits.streams[docs, None]).T)
    weights = np.array([s.weight for _, s in segments], dtype=np.float64)
    return to_csr(docs[span], cols, (len(selections), hits.dimension), weights[span])


def _select(
    variant: str,
    k: int,
    keyword_rules: Sequence[str] | None,
    hits: Hits,
    gold_lines: Sequence[Sequence[int] | None],
    line_scores: np.ndarray | None,
) -> list[SelectedLines]:
    """The selection of each stream of ``hits``, one per document.  The
    row's selector picks the lines, which become joined or single-line
    segments weighted by their stage-1 scores or by 1.  ``line_scores``
    holds the scores of every line of the batch in order (None unless
    scored)."""
    row = VARIANTS[variant]
    phrases = [tokenize(rule) for rule in keyword_rules or ()]
    bounds = hits.streams.tolist()
    selections = []
    for start, end, gold in zip(bounds[:-1], bounds[1:], gold_lines, strict=True):
        if row.selector == "scored":
            scores = line_scores[start:end]
            chosen = select_top_k(scores, k)
        elif row.selector == "rules":
            chosen = _rule_hits(hits.tokens[start:end], phrases)
        elif gold is None:
            raise ValueError("oracle variant needs the annotator's gold lines")
        else:
            chosen = tuple(sorted(set(gold)))
        weights = scores if row.weight else np.ones(end - start)
        if row.join:
            selection = join_adjacent(chosen, weights)
        else:
            selection = SelectedLines(tuple(Segment(i, i, float(weights[i])) for i in chosen))
        selections.append(selection)
    return selections


# ---------------------------------------------------------------------------
# training and prediction
# ---------------------------------------------------------------------------


def train_sla(
    train_docs: Sequence[LabeledDocument],
    attribute: str,
    hyper: SlaHyperParams | None = None,
    variant: str = "sla",
    keyword_rules: Sequence[str] | None = None,
    schemas: Mapping[tuple[str, str], AttributeSchema] | None = None,
) -> SlaModel:
    """Train the selected pipeline variant for one attribute.

    Both vocabularies are built from every line of the training documents,
    so a test-time selection can never produce an unseen feature index.
    Labels are the composed annotation values; the final classifier uses
    balanced class weights.
    """
    hyper = hyper or SlaHyperParams()
    variant_row(variant)  # refuse an unknown variant before reading documents
    docs = annotated_documents(train_docs, attribute, 2, "training")
    (features,) = featurize(fit_order(variant, hyper), [tokenize_lines(d.report) for d in docs])
    labels = [gold_label(d, attribute, schemas) for d in docs]
    return fit_sla(features, docs, labels, attribute, hyper, variant, keyword_rules)


def fit_order(variant: str, hyper: SlaHyperParams) -> int:
    """The largest n-gram order a fit of ``variant`` with ``hyper`` reads:
    the final order, and the line order when stage 1 scores lines."""
    if VARIANTS[variant].selector == "scored":
        return max(hyper.line_ngram_n, hyper.final_ngram_n)
    return hyper.final_ngram_n


def fit_sla(
    features: Hits,
    docs: Sequence[LabeledDocument],
    labels: Sequence[str],
    attribute: str,
    hyper: SlaHyperParams,
    variant: str,
    keyword_rules: Sequence[str] | None = None,
) -> SlaModel:
    """Train a pipeline variant on annotated ``docs`` given their composed
    ``labels`` and their ``features``, the hits at an order no lower than
    ``fit_order`` with each document one stream."""
    selector = VARIANTS[variant].selector
    line_scorer = line_scores = rules = None
    if selector == "scored":
        line_hits = features.at(hyper.line_ngram_n)
        y_lines = np.concatenate([build_line_labels(d, attribute) for d in docs])
        line_scorer = train_gbt(line_hits.lines, y_lines, hyper.gbt)
        # rows score independently, so one call gives each document's scores;
        # the line matrix is built for training anyway
        line_scores = predict_gbt_batch(line_scorer, line_hits.lines)
    elif selector == "rules":
        if keyword_rules is None:
            defaults = load_keyword_rules()
            if attribute not in defaults:
                raise ValueError(f"no default keyword rules for {attribute!r}")
            rules = defaults[attribute]
        else:
            rules = tuple(keyword_rules)

    gold = [d.annotations[attribute].line_indices for d in docs]
    selections = _select(variant, hyper.k, rules, features, gold, line_scores)
    X = compose_representation(selections, features.at(hyper.final_ngram_n))
    classifier = train_l1_logreg(X, labels, hyper.lin)
    return SlaModel(
        attribute=attribute,
        variant=variant,
        hyper=hyper,
        vocab=features.at(fit_order(variant, hyper)).vocab,
        final_classifier=classifier,
        line_scorer=line_scorer,
        keyword_rules=rules,
    )


def oracle_gold_lines(model: SlaModel, doc: LabeledDocument) -> tuple[int, ...] | None:
    """The annotator's lines for ``doc`` when ``model`` is an oracle, which
    selects exactly those; None for every other variant."""
    if VARIANTS[model.variant].selector != "oracle":
        return None
    ann = doc.annotations.get(model.attribute)
    if ann is None:
        raise CorpusError(
            f"doc {doc.report.id}: oracle model needs gold lines for {model.attribute!r}"
        )
    return ann.line_indices


def predict_sla_batch(
    model: SlaModel,
    reports: Sequence[Report],
    gold_lines: Sequence[Sequence[int] | None] | None = None,
) -> list[Prediction]:
    """Predict the attribute label of each report, scoring all their lines
    with one stage-1 call; only an oracle reads ``gold_lines``.  Each
    rationale is the exact selection used, so a prediction can be
    recomputed from (rationale, report, model).  One ``find_ngrams`` call
    under ``model.vocab`` gives both stages their n-grams."""
    features = find_ngrams([tokenize_lines(r) for r in reports], model.vocab)
    return predict_featurized(model, features, gold_lines)


def predict_featurized(
    model: SlaModel,
    features: Hits,
    gold_lines: Sequence[Sequence[int] | None] | None = None,
) -> list[Prediction]:
    """``predict_sla_batch`` given the reports' ``features`` (each report
    one stream), the hits under a vocabulary whose restrictions are the
    model's stage vocabularies."""
    if gold_lines is None:
        gold_lines = [None] * (len(features.streams) - 1)
    hyper, line_scores = model.hyper, None
    if model.line_scorer is not None:
        # scored from the hits, so serving never builds the line matrix
        entries = features.at(hyper.line_ngram_n).line_entries
        line_scores = predict_gbt_pairs(model.line_scorer, *entries)
    selections = _select(
        model.variant, hyper.k, model.keyword_rules, features, gold_lines, line_scores
    )
    X = compose_representation(selections, features.at(hyper.final_ngram_n))
    outputs = predict_logreg(model.final_classifier, X)
    return [
        Prediction(str(label), scores, selection)
        for (label, scores), selection in zip(outputs, selections)
    ]


def predict_sla(
    model: SlaModel, report: Report, gold_lines: Sequence[int] | None = None
) -> Prediction:
    """Predict the attribute label for one report: a batch of one."""
    return predict_sla_batch(model, [report], [gold_lines])[0]


# ---------------------------------------------------------------------------
# model bundle serialization
# ---------------------------------------------------------------------------

BUNDLE_KIND = "sla"  # a baseline bundle's kind is its baseline kind
# the keys ``model_to_dict`` writes after the header
_BUNDLE_KEYS = ("attribute", "variant", "k", "final_vocab", "final_classifier", "line_vocab",
                "line_scorer", "keyword_rules", "hyper")


def model_to_dict(model: SlaModel) -> dict:
    return {
        **bundle_header(BUNDLE_KIND),
        "attribute": model.attribute,
        "variant": model.variant,
        "k": model.k,
        "final_vocab": model.final_vocab.to_dict(),
        "final_classifier": model.final_classifier.to_dict(),
        "line_vocab": model.line_vocab.to_dict() if model.line_scorer else None,
        "line_scorer": model.line_scorer.to_dict() if model.line_scorer else None,
        "keyword_rules": list(model.keyword_rules) if model.keyword_rules else None,
        "hyper": asdict(model.hyper),
    }


def model_from_dict(payload: dict) -> SlaModel:
    """The model ``payload`` holds.  The bundle repeats what ``hyper``
    holds (``k``, each stage's order and vocabulary, the line scorer's
    parameters), and a copy that disagrees with it is a ValueError naming
    the key."""
    if payload.get("kind") != BUNDLE_KIND:
        raise ValueError(f"not an sla model bundle: kind={payload.get('kind')!r}")
    what = "sla model bundle"
    check_bundle(payload, what, _BUNDLE_KEYS)

    def read(key: str, kind):
        return read_json(payload[key], kind, f"{what} key {key!r}")

    # bundles written before gbt and lin were serialized get the defaults,
    # and for gbt the line scorer's parameters
    hyper = read_json(payload["hyper"], SlaHyperParams, f"{what} hyper", optional=("gbt", "lin"))
    if read("k", int) != hyper.k:
        raise ValueError(f"{what} key 'k' is {payload['k']}, but hyper key 'k' is {hyper.k}")
    line_scorer = read("line_scorer", dict | None)
    if (payload["line_vocab"] is None) != (line_scorer is None):
        raise ValueError(f"{what} keys 'line_vocab' and 'line_scorer' must both be null or set")
    vocabs = {}  # a line vocabulary only with a line scorer
    for key in ("final_vocab", "line_vocab") if line_scorer is not None else ("final_vocab",):
        vocabs[key] = Vocabulary.from_dict(read(key, dict), f"{what} {key}")
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
        line_scorer = GbtModel.from_dict(
            line_scorer, vocabs["line_vocab"].dimension, f"{what} line_scorer"
        )
        hyper = hyper if "gbt" in payload["hyper"] else replace(hyper, gbt=line_scorer.params)
        if line_scorer.params != hyper.gbt:
            raise ValueError(f"{what} line_scorer params disagree with hyper key 'gbt'")
    return SlaModel(
        attribute=read("attribute", str),
        variant=read("variant", str),
        hyper=hyper,
        vocab=vocab,
        final_classifier=LinearModel.from_dict(
            read("final_classifier", dict), vocabs["final_vocab"].dimension,
            f"{what} final_classifier",
        ),
        line_scorer=line_scorer,
        keyword_rules=read("keyword_rules", tuple[str, ...] | None),
    )


def save_model(model: SlaModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)
        fh.write("\n")


def load_model(path: str) -> SlaModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
