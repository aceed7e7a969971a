import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sla.corpus import Report
from sla.textproc import (
    UNK,
    Vocabulary,
    build_vocabulary,
    find_ngrams,
    to_csr,
    tokenize,
    tokenize_lines,
    vectorize,
)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def normalize(raw):
    """The normalized text: its tokens joined with single spaces."""
    return " ".join(tokenize(raw))


def _known_words(vocab):
    """The words that survived the frequency cutoff: every other word
    maps to <UNK>."""
    return {g for g in vocab.ngram_to_index if " " not in g and g != vocab.unk_token}


def test_normalize_lowercases_and_strips_punctuation():
    assert normalize("Tumor Site: Cecum.") == "tumor site : cecum"
    assert normalize("a,b;c~d.e\\f") == "abcdef"


def test_normalize_pads_symbols_with_single_spaces():
    assert normalize("grade:2") == "grade : 2"
    assert normalize("pT3(m)") == "pt3 ( m )"
    assert normalize("a/b=c+d") == "a / b = c + d"


def test_normalize_deletes_null_as_whole_word_only():
    assert tokenize(normalize("value null reported")) == ("value", "reported")
    # "null" inside a larger word survives
    assert "nullify" in tokenize(normalize("nullify the null"))


def test_normalize_collapse_around_padded_symbol():
    assert normalize("site  :   cecum") == "site : cecum"


@given(st.text(max_size=200))
@settings(max_examples=300)
def test_normalize_is_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once


@given(st.text(max_size=200))
def test_tokenize_yields_no_whitespace_tokens(text):
    for tok in tokenize(text):
        assert tok
        assert not any(ch.isspace() for ch in tok)


# pieces that test every normalization rule at a line edge: deleted and
# padded characters, "null" as a word and inside one, Greek capital sigma
# (whose lowercase depends on the letters around it), combining marks, a
# capital whose lowercase is two characters, and whitespace beyond ASCII
_EDGE_PIECES = [
    *",\\;~.", *":/()+=", "null", "xnull", "nullx", "NULL", "Null",
    "\u03a3", "\u0391\u03a3", "\u03a3.", "'\u03a3", "\u03c3",  # sigma: alone, final, before "."
    "\u0301", "a\u0301", "\u0345", "\u0130", "'", "_", "-",  # combining marks, dotted capital I
    "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000", "\t", " ",
    "a", "B", "1", "grade",
]
_EDGE_LINE = st.lists(
    st.one_of(
        st.sampled_from(_EDGE_PIECES),
        st.characters(blacklist_characters="\n\r"),
    ),
    max_size=8,
).map("".join)


@given(st.lists(_EDGE_LINE, max_size=5))
@settings(max_examples=1000, deadline=None)
def test_joined_lines_tokenize_as_the_concatenation_of_their_tokens(lines):
    # a stage-2 segment is its member lines' tokens in order, which is what
    # tokenizing the lines joined with a space gives
    assert tokenize(" ".join(lines)) == tuple(t for line in lines for t in tokenize(line))


# frozen copy of the per-line tokenizer that the one-pass tokenize_lines
# replaced: it pads with \s* and normalizes each line on its own
_REF_REMOVE = str.maketrans("", "", ",\\;~.")
_REF_PAD = re.compile(r"\s*([:/()+=])\s*")
_REF_NULL = re.compile(r"\bnull\b")


def _ref_tokenize(raw):
    s = raw.lower().translate(_REF_REMOVE)
    s = _REF_PAD.sub(r" \1 ", s)
    return tuple(_REF_NULL.sub(" ", s).strip().split())


@given(st.lists(_EDGE_LINE, min_size=1, max_size=6))
@settings(max_examples=1000, deadline=None)
def test_tokenize_lines_equals_the_per_line_reference(lines):
    report = Report(id="r", cancer="colon", lines=tuple(lines))
    assert tokenize_lines(report) == [_ref_tokenize(line) for line in lines]
    assert [tokenize(line) for line in lines] == [_ref_tokenize(line) for line in lines]


@pytest.mark.parametrize("text", [
    "value null reported", "null", "NULL", "Null value", "nUlL",  # the word, any case
    "nullify", "annulled", "nullnull", "null_x",  # inside a longer word
    "null.", "(null)", "null,", "x:null", "null/none", "a.null", "null;null", "-null-",
    "margins:NULL.", "no null here and null",
])
def test_tokenize_deletes_null_as_the_frozen_tokenizer_does(text):
    # the word rule runs only on text that holds "null", lowercased
    assert tokenize(text) == _ref_tokenize(text)
    report = Report(id="r", cancer="colon", lines=(text, "grade", text))
    assert tokenize_lines(report) == [_ref_tokenize(text), ("grade",), _ref_tokenize(text)]


def test_tokenize_lines_keeps_source_indices():
    report = Report(id="r1", cancer="colon", lines=("First Line.", "grade:2"))
    assert tokenize_lines(report) == [("first", "line"), ("grade", ":", "2")]
    # the one-pass split relies on lines without newlines, which Report ensures
    with pytest.raises(ValueError, match="r2: a line holds a newline"):
        tokenize_lines(SimpleNamespace(id="r2", lines=("a\nb", "c")))


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def _lines(*texts):
    report = Report(id="r", cancer="colon", lines=tuple(texts))
    return tokenize_lines(report)


def test_build_vocabulary_rare_words_become_unk():
    # "cecum" appears twice, "rare" once
    vocab = build_vocabulary(_lines("cecum found", "cecum rare found"), max_n=1)
    assert "cecum" in vocab.ngram_to_index
    assert "found" in vocab.ngram_to_index
    assert "rare" not in vocab.ngram_to_index
    assert UNK in vocab.ngram_to_index
    rows = vectorize([("rare",), ("never-seen",), ("cecum",)], vocab)
    columns = [vocab.ngram_to_index[w] for w in (UNK, UNK, "cecum")]
    assert [rows.indices[rows.indptr[r] : rows.indptr[r + 1]].tolist() for r in range(3)] == [
        [c] for c in columns
    ]


def test_build_vocabulary_no_unk_when_nothing_is_rare():
    vocab = build_vocabulary(_lines("a b", "a b"), max_n=1)
    assert UNK not in vocab.ngram_to_index


def test_vocabulary_indices_are_lexicographic_and_dense():
    vocab = build_vocabulary(_lines("b a", "b a c c"), max_n=2)
    grams = sorted(vocab.ngram_to_index, key=vocab.ngram_to_index.get)
    assert grams == sorted(grams)
    assert sorted(vocab.ngram_to_index.values()) == list(range(vocab.dimension))


def test_unk_substitution_happens_before_ngram_enumeration():
    # "rare1 rare2" both singletons -> bigram becomes "<UNK> <UNK>"
    vocab = build_vocabulary(_lines("stable stable", "rare1 rare2"), max_n=2)
    assert f"{UNK} {UNK}" in vocab.ngram_to_index
    assert "rare1 rare2" not in vocab.ngram_to_index


def test_ngrams_do_not_cross_line_boundaries():
    vocab = build_vocabulary(_lines("alpha beta", "beta alpha", "alpha beta", "beta alpha"), max_n=2)
    assert "alpha beta" in vocab.ngram_to_index
    assert "beta alpha" in vocab.ngram_to_index
    # no trigram-ish coupling: each line contributes its own bigrams only
    assert "beta beta" not in vocab.ngram_to_index


def test_build_vocabulary_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_vocabulary([], max_n=2)
    with pytest.raises(ValueError):
        build_vocabulary(_lines("a a"), max_n=0)
    with pytest.raises(ValueError):
        build_vocabulary(_lines("a a"), max_n=5)


def test_vocabulary_roundtrip():
    vocab = build_vocabulary(_lines("grade : 2", "grade : 3", "one-off"), max_n=3)
    again = Vocabulary.from_dict(vocab.to_dict())
    assert again.ngram_to_index == vocab.ngram_to_index
    assert again.max_n == vocab.max_n
    assert _known_words(again) == _known_words(vocab)


# ---------------------------------------------------------------------------
# vectorization
# ---------------------------------------------------------------------------


def test_vectorize_binary_presence_and_oov_mapping():
    vocab = build_vocabulary(_lines("grade : 2", "grade : 2"), max_n=2)
    vec = vectorize([("grade", ":", "2", "2", "unseen")], vocab)
    # repeated tokens do not raise the value above 1
    assert all(v == 1.0 for v in vec.data)
    assert len(vec.indices) == len(set(vec.indices))
    assert vec.shape == (1, vocab.dimension)
    # unseen maps through UNK, which is absent from this vocab -> dropped
    names = {g for g, i in vocab.ngram_to_index.items() if i in vec.indices}
    assert "grade : 2" not in names or UNK not in names


def test_vectorize_known_ngrams_only():
    vocab = build_vocabulary(_lines("a b", "a b"), max_n=2)
    vec = vectorize([("b", "a")], vocab)
    got = {g for g, i in vocab.ngram_to_index.items() if i in vec.indices}
    assert got == {"a", "b"}  # "b a" bigram never seen in training


def test_vectorize_rows_follow_lines_and_take_token_lines():
    report = Report(id="r", cancer="colon", lines=("a b", "", "b b"))
    vocab = build_vocabulary(tokenize_lines(report) * 2, max_n=2)
    rows = vectorize(tokenize_lines(report), vocab)
    assert rows.shape == (3, vocab.dimension)
    assert rows.indptr.tolist() == [0, 3, 3, 5]  # a, a b, b | (empty) | b, b b
    assert vectorize([], vocab).shape == (0, vocab.dimension)


@given(
    st.lists(
        st.lists(st.sampled_from(["grade", ":", "2", "3", "cecum", "mass"]), min_size=1, max_size=8),
        min_size=2,
        max_size=10,
    )
)
@settings(max_examples=100)
def test_vectorize_matches_manual_ngram_membership(token_lines):
    report = Report(
        id="r", cancer="colon", lines=tuple(" ".join(toks) for toks in token_lines)
    )
    vocab = build_vocabulary(tokenize_lines(report), max_n=2)
    inv = {i: g for g, i in vocab.ngram_to_index.items()}
    rows = vectorize([tuple(toks) for toks in token_lines], vocab)
    for r, toks in enumerate(token_lines):
        known = _known_words(vocab)
        mapped = [t if t in known else UNK for t in toks]
        expect = set()
        for n in (1, 2):
            for i in range(len(mapped) - n + 1):
                gram = " ".join(mapped[i : i + n])
                if gram in vocab.ngram_to_index:
                    expect.add(gram)
        row = rows.indices[rows.indptr[r] : rows.indptr[r + 1]]
        assert {inv[i] for i in row} == expect


_LINES = st.lists(
    st.lists(st.sampled_from(["grade", ":", "2", "3", "cecum", "mass", "of"]), max_size=8),
    min_size=1,
    max_size=10,
)


@given(
    train=_LINES,
    other=_LINES,
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    min_count=st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_restricting_a_vocabulary_equals_building_at_the_lower_order(
    train, other, n, m, min_count
):
    m = min(m, n)
    full = build_vocabulary(train, max_n=n, min_count=min_count)
    fresh = build_vocabulary(train, max_n=m, min_count=min_count)
    restricted, cols = full.restrict(m)
    assert restricted.ngram_to_index == fresh.ngram_to_index
    assert (restricted.max_n, restricted.min_count) == (fresh.max_n, fresh.min_count)
    assert _known_words(restricted) == _known_words(fresh)
    # the training lines, and lines with n-grams the vocabulary never saw
    for lines in (train, other):
        hits = find_ngrams([[tl] for tl in lines], full).at(m)
        vocab, sliced = hits.vocab, hits.lines
        assert vocab.ngram_to_index == fresh.ngram_to_index
        expect = vectorize(lines, fresh)
        assert sliced.shape == expect.shape
        assert sliced.indptr.tolist() == expect.indptr.tolist()
        assert sliced.indices.tolist() == expect.indices.tolist()
        assert sliced.data.tolist() == expect.data.tolist()


def test_restrict_rejects_orders_above_its_own():
    vocab = build_vocabulary([("a", "b"), ("a", "b")], max_n=2)
    assert vocab.restrict(2)[0].ngram_to_index == vocab.ngram_to_index
    with pytest.raises(ValueError, match=r"max_n must be in \[1, 2\], got 3"):
        vocab.restrict(3)


def test_to_csr_matches_dense_layout():
    rows, cols = np.array([0, 0, 1]), np.array([0, 2, 1])
    m = to_csr(rows, cols, (3, 3), np.array([1.0, 0.5, 2.0]))
    assert m.shape == (3, 3)
    assert m.toarray().tolist() == [[1.0, 0.0, 0.5], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]]
    binary = to_csr(np.array([0, 0]), np.array([2, 0]), (1, 3))
    assert binary.toarray().tolist() == [[1.0, 0.0, 1.0]]


def test_to_csr_sums_repeated_entries_in_order_and_drops_zeros():
    rows, cols = np.array([1, 0, 1, 1, 0]), np.array([2, 1, 2, 0, 1])
    m = to_csr(rows, cols, (2, 3), np.array([0.1, 1.0, 0.2, 0.0, -1.0]))
    assert m.indptr.tolist() == [0, 0, 1]  # row 0's entries cancel, row 1's 0.0 is dropped
    assert m.indices.tolist() == [2] and m.data.tolist() == [0.1 + 0.2]
    binary = to_csr(rows, cols, (2, 3))
    assert binary.toarray().tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]
    assert binary.dtype == to_csr(rows[:0], cols[:0], (2, 3), np.array([])).dtype == np.float64


def test_to_csr_refuses_shapes_whose_keys_overflow_int64():
    empty = np.array([], dtype=np.int64)
    assert to_csr(empty, empty, (3, 2**61)).shape == (3, 2**61)
    with pytest.raises(ValueError, match="too large for int64 keys"):
        to_csr(empty, empty, (4, 2**61))


def test_vectorize_refuses_a_vocabulary_without_the_prefix_of_an_ngram():
    # "a b c" needs "a b": the key of an n-gram holds its prefix's column
    vocab = Vocabulary(ngram_to_index={"a": 0, "a b c": 1, "b": 2, "c": 3}, max_n=3)
    with pytest.raises(ValueError, match="'a b' is not itself in the vocabulary"):
        vectorize([("a", "b", "c")], vocab)
