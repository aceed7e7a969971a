"""The CSR featurizers against frozen copies of the tuple-backed sparse
vectors they replaced: equal indices and values, bit for bit."""

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sla.baselines import featurize_document
from sla.corpus import Report
from sla.pipeline import Segment, SelectedLines, compose_representation
from sla.textproc import _ngrams, build_vocabulary, tokenize, tokenize_lines, vectorize

# ---------------------------------------------------------------------------
# frozen reference: the single-vector path, as it was before the CSR rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RefVector:
    indices: tuple[int, ...]
    values: tuple[float, ...]
    dimension: int

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must have equal length")
        if any(v == 0.0 for v in self.values):
            raise ValueError("must not store zero values")
        prev = -1
        for i in self.indices:
            if i <= prev:
                raise ValueError("indices must be strictly increasing")
            prev = i
        if self.indices and self.indices[-1] >= self.dimension:
            raise ValueError("index out of range for dimension")

    def scaled(self, factor: float) -> "_RefVector":
        if factor == 0.0:
            return _RefVector((), (), self.dimension)
        return _RefVector(self.indices, tuple(v * factor for v in self.values), self.dimension)


def _ref_vectorize(tokens, vocab) -> _RefVector:
    if hasattr(tokens, "tokens"):
        tokens = tokens.tokens
    mapped = tuple(vocab.map_token(t) for t in tokens)
    idx = {
        vocab.ngram_to_index[g]
        for g in _ngrams(mapped, vocab.max_n)
        if g in vocab.ngram_to_index
    }
    indices = tuple(sorted(idx))
    return _RefVector(indices, (1.0,) * len(indices), vocab.dimension)


def _ref_sum_vectors(vectors: Iterable[_RefVector], dimension: int) -> _RefVector:
    acc: dict[int, float] = {}
    for vec in vectors:
        for i, v in zip(vec.indices, vec.values):
            acc[i] = acc.get(i, 0.0) + v
    items = sorted((i, v) for i, v in acc.items() if v != 0.0)
    return _RefVector(tuple(i for i, _ in items), tuple(v for _, v in items), dimension)


def _ref_compose(selection, report, final_vocab) -> _RefVector:
    parts = []
    for seg in selection.segments:
        text = " ".join(report.lines[seg.start : seg.end + 1])
        vec = _ref_vectorize(tokenize(text), final_vocab)
        parts.append(vec.scaled(seg.weight))
    return _ref_sum_vectors(parts, final_vocab.dimension)


def _ref_featurize(report, vocab) -> _RefVector:
    idx: set[int] = set()
    for tl in tokenize_lines(report):
        idx.update(_ref_vectorize(tl, vocab).indices)
    indices = tuple(sorted(idx))
    return _RefVector(indices, (1.0,) * len(indices), vocab.dimension)


def _assert_row_equal(ref: _RefVector, indices: np.ndarray, data: np.ndarray) -> None:
    assert np.asarray(indices, dtype=np.int64).tobytes() == np.asarray(
        ref.indices, dtype=np.int64
    ).tobytes()
    assert data.tobytes() == np.asarray(ref.values, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------

_WORDS = ["grade", ":", "2", "3", "g2", "mass", "cecum", "null", "Rare."]
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.7, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def _segments(draw, n_lines: int) -> SelectedLines:
    """Disjoint, sorted segments: each line is skipped, starts a segment or
    extends the previous one.  Half the selections weight every segment 1,
    as the unweighted variants do."""
    weights = st.just(1.0) if draw(st.booleans()) else _WEIGHTS
    segments: list[list] = []
    prev_kept = False
    for i in range(n_lines):
        action = draw(st.sampled_from(["skip", "start", "extend"]))
        if action == "extend" and prev_kept:
            segments[-1][1] = i
        elif action != "skip":
            segments.append([i, i, draw(weights)])
        prev_kept = action != "skip"
    return SelectedLines(tuple(Segment(s, e, w) for s, e, w in segments), k=n_lines)


@st.composite
def _case(draw):
    lines = draw(
        st.lists(
            st.lists(st.sampled_from(_WORDS), max_size=7).map(" ".join),
            min_size=1,
            max_size=12,
        )
    )
    report = Report(id="r", cancer="colon", lines=tuple(lines))
    # the vocabulary sees only some lines, so the others carry unseen n-grams
    train = tokenize_lines(report)[: draw(st.integers(1, len(lines)))]
    vocab = build_vocabulary(train, max_n=draw(st.integers(1, 3)))
    return report, vocab, draw(_segments(len(lines)))


def _fixed_case(lines, max_n, segments):
    report = Report(id="r", cancer="colon", lines=lines)
    vocab = build_vocabulary(tokenize_lines(report), max_n=max_n)
    selection = SelectedLines(tuple(Segment(*s) for s in segments), k=len(lines))
    return report, vocab, selection


# three segments sharing n-grams, with weights whose sum depends on the order
_OVERLAP = (("grade : 2", "x", "grade : 2", "y", "grade : 3"), 2,
            [(0, 0, 0.1), (2, 2, 0.2), (4, 4, 0.7)])


@given(_case())
@example(_fixed_case(*_OVERLAP))
@example(_fixed_case(_OVERLAP[0], 2, [(0, 0, 1.0), (2, 2, 1.0), (4, 4, 1.0)]))
@example(_fixed_case(("grade : 2", "mass"), 2, []))  # an empty selection
@settings(max_examples=200, deadline=None)
def test_csr_featurizers_match_the_single_vector_reference(case):
    report, vocab, selection = case
    token_lines = tokenize_lines(report)

    rows = vectorize(token_lines, vocab)
    assert rows.shape == (len(token_lines), vocab.dimension)
    for r, tl in enumerate(token_lines):
        span = slice(rows.indptr[r], rows.indptr[r + 1])
        _assert_row_equal(_ref_vectorize(tl, vocab), rows.indices[span], rows.data[span])

    rep = compose_representation(selection, token_lines, vocab)
    assert rep.shape == (1, vocab.dimension)
    _assert_row_equal(_ref_compose(selection, report, vocab), rep.indices, rep.data)

    doc = featurize_document(report, vocab)
    assert doc.shape == (1, vocab.dimension)
    _assert_row_equal(_ref_featurize(report, vocab), doc.indices, doc.data)


def test_overlapping_weights_add_in_segment_order():
    report, vocab, selection = _fixed_case(*_OVERLAP)
    column = vocab.ngram_to_index["grade"]
    rep = compose_representation(selection, tokenize_lines(report), vocab)
    got = rep.data[list(rep.indices).index(column)]
    assert got == (0.1 + 0.2) + 0.7 != 0.1 + (0.2 + 0.7)
