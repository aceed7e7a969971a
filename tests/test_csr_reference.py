"""The CSR featurizers against frozen copies of the tuple-backed sparse
vectors and the string n-grams they replaced: equal indices and values,
bit for bit."""

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sla.baselines import featurize_document
from sla.corpus import Report
from sla.pipeline import Segment, SelectedLines, compose_representation
from sla.textproc import (
    UNK,
    build_vocabulary,
    find_ngrams,
    tokenize,
    tokenize_lines,
    vectorize,
)

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


def _ref_ngrams(tokens, max_n):
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i : i + n])


def _ref_vectorize(tokens, vocab) -> _RefVector:
    known = {g for g in vocab.ngram_to_index if " " not in g and g != vocab.unk_token}
    mapped = tuple(t if t in known else vocab.unk_token for t in tokens)
    idx = {
        vocab.ngram_to_index[g]
        for g in _ref_ngrams(mapped, vocab.max_n)
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


def _row(matrix, r: int) -> tuple[np.ndarray, np.ndarray]:
    span = slice(matrix.indptr[r], matrix.indptr[r + 1])
    return matrix.indices[span], matrix.data[span]


def _assert_row_equal(ref: _RefVector, indices: np.ndarray, data: np.ndarray) -> None:
    assert np.asarray(indices, dtype=np.int64).tobytes() == np.asarray(
        ref.indices, dtype=np.int64
    ).tobytes()
    assert data.tobytes() == np.asarray(ref.values, dtype=np.float64).tobytes()


# ---------------------------------------------------------------------------
# the properties
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
    return SelectedLines(tuple(Segment(s, e, w) for s, e, w in segments))


_LINES = st.lists(
    st.lists(st.sampled_from(_WORDS), max_size=7).map(" ".join), min_size=1, max_size=12
)


@st.composite
def _case(draw):
    """A batch of one to three reports, a vocabulary of some of their lines
    (so the others carry unseen n-grams), and a selection per report."""
    reports = [
        Report(id=f"r{i}", cancer="colon", lines=tuple(draw(_LINES)))
        for i in range(draw(st.integers(1, 3)))
    ]
    lines = [tl for report in reports for tl in tokenize_lines(report)]
    train = lines[: draw(st.integers(1, len(lines)))]
    vocab = build_vocabulary(train, max_n=draw(st.integers(1, 4)))
    return reports, vocab, [draw(_segments(len(r.lines))) for r in reports]


def _fixed_case(lines, max_n, segments, *more):
    """A batch of the report of ``lines`` with ``segments`` selected, and of
    each further (lines, segments) pair; the vocabulary is every line's."""
    batch = [(lines, segments), *more]
    reports = [Report(id=f"r{i}", cancer="colon", lines=ls) for i, (ls, _) in enumerate(batch)]
    vocab = build_vocabulary([tl for r in reports for tl in tokenize_lines(r)], max_n=max_n)
    selections = [SelectedLines(tuple(Segment(*s) for s in segs)) for _, segs in batch]
    return reports, vocab, selections


# three segments sharing n-grams, with weights whose sum depends on the order
_OVERLAP = (("grade : 2", "x", "grade : 2", "y", "grade : 3"), 2,
            [(0, 0, 0.1), (2, 2, 0.2), (4, 4, 0.7)])
# a segment over more than two lines that crosses an empty line and a
# one-token line, and one that is a single one-token line
_ACROSS = (("grade : 2", "", "mass", "2 cecum", "grade", "x"), 4,
           [(0, 3, 0.5), (4, 4, 0.2)])


@given(_case())
@example(_fixed_case(*_OVERLAP))
@example(_fixed_case(_OVERLAP[0], 2, [(0, 0, 1.0), (2, 2, 1.0), (4, 4, 1.0)]))
@example(_fixed_case(("grade : 2", "mass"), 2, []))  # an empty selection
@example(_fixed_case(*_ACROSS, (("", "mass"), [(0, 1, 1.0)]), (("grade 3",), [])))
@settings(max_examples=200, deadline=None)
def test_csr_featurizers_match_the_single_vector_reference(case):
    reports, vocab, selections = case
    doc_lines = [tokenize_lines(report) for report in reports]

    for token_lines in doc_lines:
        rows = vectorize(token_lines, vocab)
        assert rows.shape == (len(token_lines), vocab.dimension)
        for r, tl in enumerate(token_lines):
            _assert_row_equal(_ref_vectorize(tl, vocab), *_row(rows, r))

    # one call for the batch: a row per document
    hits = find_ngrams(doc_lines, vocab)
    composed = compose_representation(selections, hits)
    docs = hits.documents
    assert composed.shape == docs.shape == (len(reports), vocab.dimension)
    for i, (report, selection) in enumerate(zip(reports, selections)):
        _assert_row_equal(_ref_compose(selection, report, vocab), *_row(composed, i))
        _assert_row_equal(_ref_featurize(report, vocab), *_row(docs, i))
        doc = featurize_document(report, vocab)
        assert doc.shape == (1, vocab.dimension)
        _assert_row_equal(_ref_featurize(report, vocab), doc.indices, doc.data)


@st.composite
def _orders_case(draw):
    """A batch of one to three reports, the lines that train a vocabulary at
    order 1-4 with a drawn ``min_count`` (so rare words map to <UNK>), a
    selection per report, and a lower order to restrict to."""
    reports = [
        Report(id=f"r{i}", cancer="colon", lines=tuple(draw(_LINES)))
        for i in range(draw(st.integers(1, 3)))
    ]
    lines = [tl for report in reports for tl in tokenize_lines(report)]
    train = lines[: draw(st.integers(1, len(lines)))]
    max_n = draw(st.integers(1, 4))
    selections = [draw(_segments(len(r.lines))) for r in reports]
    return reports, train, max_n, draw(st.integers(1, 3)), selections, draw(st.integers(1, max_n))


def _orders_example(batch, max_n, min_count, lower):
    """An ``_orders_case`` of (lines, segments) pairs, trained on every line."""
    (lines, segments), *more = batch
    reports, _, selections = _fixed_case(lines, 1, segments, *more)
    train = [tl for r in reports for tl in tokenize_lines(r)]
    return reports, train, max_n, min_count, selections, lower


_SPANS = (_ACROSS[0], [(0, 3, 0.5), (4, 5, 0.2)])  # more than two lines, then two
_ONE_TOKEN = (("mass", "2", "", "cecum", "mass"), [(0, 1, 1.0), (2, 4, 1.0)])


@given(_orders_case())
@example(_orders_example([_SPANS, _ONE_TOKEN], 4, 2, 2))
@example(_orders_example([_ONE_TOKEN, (("", ""), [(0, 1, 0.3)]), (("grade",), [])], 3, 1, 1))
@example(_orders_example([(("grade : 2", "mass"), [])], 2, 2, 1))  # no segment at all
@settings(max_examples=300, deadline=None)
def test_one_ngram_pass_gives_line_rows_segments_and_lower_orders(case):
    reports, train, max_n, min_count, selections, lower = case
    vocab = build_vocabulary(train, max_n=max_n, min_count=min_count)
    doc_lines = [tokenize_lines(report) for report in reports]
    lines = [tl for tls in doc_lines for tl in tls]
    hits = find_ngrams(doc_lines, vocab)

    # the hits inside one line are the line's vectorize row
    rows = vectorize(lines, vocab)
    assert hits.lines.shape == rows.shape
    for r, tl in enumerate(lines):
        assert _row(hits.lines, r)[0].tolist() == _row(rows, r)[0].tolist()
        _assert_row_equal(_ref_vectorize(tl, vocab), *_row(hits.lines, r))

    # the hits inside a segment are the n-grams of its lines joined
    composed = compose_representation(selections, hits)
    for i, (report, selection) in enumerate(zip(reports, selections)):
        _assert_row_equal(_ref_compose(selection, report, vocab), *_row(composed, i))

    # restricting the hits equals finding them under the lower-order vocabulary
    fresh = build_vocabulary(train, max_n=lower, min_count=min_count)
    low = hits.at(lower)
    restricted = low.vocab
    assert restricted.ngram_to_index == fresh.ngram_to_index
    expect = find_ngrams(doc_lines, fresh)
    for got, want in ((low.first, expect.first), (low.last, expect.last), (low.cols, expect.cols)):
        assert got.tobytes() == want.tobytes()
    assert (low.streams.tolist(), low.dimension) == (expect.streams.tolist(), fresh.dimension)
    assert low.streams is hits.streams and low.tokens is hits.tokens
    composed = compose_representation(selections, low)
    for i, (report, selection) in enumerate(zip(reports, selections)):
        _assert_row_equal(_ref_compose(selection, report, fresh), *_row(composed, i))


def test_overlapping_weights_add_in_segment_order():
    reports, vocab, selections = _fixed_case(*_OVERLAP)
    column = vocab.ngram_to_index["grade"]
    rep = compose_representation(selections, find_ngrams([tokenize_lines(reports[0])], vocab))
    got = rep.data[list(rep.indices).index(column)]
    assert got == (0.1 + 0.2) + 0.7 != 0.1 + (0.2 + 0.7)


_TRAIN_LINES = st.lists(
    st.lists(st.sampled_from(["grade", ":", "2", "3", "mass", "of"]), max_size=6),
    min_size=1,
    max_size=10,
)
# words the training lines never hold, and the literal <UNK>, map to <UNK>
_QUERY_LINES = st.lists(
    st.lists(st.sampled_from(["grade", ":", "2", "mass", "of", "unseen", "rare", UNK]), max_size=6),
    max_size=10,
)


@given(
    train=_TRAIN_LINES,
    query=_QUERY_LINES,
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    min_count=st.integers(1, 3),
)
# every word known: no <UNK> in the vocabulary, and an all-<UNK> line
@example([["mass", "of"], ["mass", "of", "mass"]], [["rare", "unseen"], [], ["of"]], 2, 2, 1)
# <UNK> in the vocabulary, at every position of a 4-gram
@example(
    [["grade", "2", "rare", "of"]] * 2 + [["x", "y", "z", "q"]],
    [["rare", "unseen", UNK, "q"]],
    4, 3, 2,
)
@settings(max_examples=300, deadline=None)
def test_vectorize_matches_the_reference_at_every_order(train, query, n, m, min_count):
    full = build_vocabulary(train, max_n=n, min_count=min_count)
    restricted, _ = full.restrict(min(m, n))
    for vocab in (full, restricted):
        for lines in (train, query):
            rows = vectorize(lines, vocab)
            assert rows.shape == (len(lines), vocab.dimension)
            for r, tl in enumerate(lines):
                _assert_row_equal(_ref_vectorize(tl, vocab), *_row(rows, r))


def test_vectorize_keys_do_not_overflow_on_a_large_vocabulary():
    # 60,001 distinct words, every line twice so that each is known: keys
    # that packed a 4-gram's four word ids in base B would need B**4 > 2**63
    words = [f"w{i}" for i in range(60_001)]
    lines = [tuple(words[i : i + 8]) for i in range(0, len(words), 8)]
    vocab = build_vocabulary(lines * 2, max_n=4)
    assert vocab.gram_keys.base ** 4 > 2**63
    rng = np.random.default_rng(0)
    query = [
        *lines[:40],
        *lines[-40:],  # the largest columns and word ids
        *(tuple(str(w) for w in rng.choice(words, size=6)) for _ in range(40)),
        (words[-1], words[0], "unseen", words[1]),
    ]
    rows = vectorize(query, vocab)
    assert rows.shape == (len(query), vocab.dimension)
    for r, tl in enumerate(query):
        _assert_row_equal(_ref_vectorize(tl, vocab), *_row(rows, r))
