"""Text normalization, line tokenization, and bag-of-n-grams featurization.

Normalization (applied identically at train and test time):

  * lowercase everything
  * delete the characters  , \\ ; ~ .
  * delete the whole word "null"
  * surround each of  : / ( ) + =  with single spaces

Tokens are whitespace-separated after normalization.  No rule reaches
across a space or a newline (each acts on single characters, pads with
spaces, or deletes a whole word, which either ends), and neither is
cased, so lines joined with a space tokenize as the concatenation of
their tokens.  ``tokenize_lines`` relies on the same property for "\\n":
it joins a report's lines with newlines, normalizes the text in one pass,
and splits it back into lines (a ``Report`` line holds no newline).

Vocabulary n-grams are enumerated inside a line only; they never span line
boundaries.  Unigrams seen fewer than ``min_count`` times in the training
data are replaced by ``<UNK>`` before n-grams are enumerated, and
out-of-vocabulary unigrams map through ``<UNK>`` at test time.  Features
are binary presence.

``find_ngrams`` is the one n-gram finder, and it works on integers.  Each
word the vocabulary knows has an id, and ``<UNK>`` has its own, so there
are B ids.  An n-gram's key packs the column of its (n-1)-gram prefix with
the id of its last word: (prefix column + 1) * B + id, where a unigram's
empty prefix has column -1.  A key is below (dimension + 1) * B, so it
cannot overflow int64 for any vocabulary this program can hold in memory,
and an n-gram is looked up only where its prefix was found.  Columns still
come from the sort of the string n-grams, so vocabularies and their files
do not depend on the keys.

The finder reads a stream of lines as one run of tokens and tags each hit
with the lines of its first and last token.  The hits inside one line are
that line's n-grams (``vectorize``), and their union over a stream's lines
is the stream's document row (``Hits.documents``).  The hits inside a run of lines are
the n-grams of the run's tokens read in order: each window of the run is a
window of the stream, and its prefix is one too.  So one pass over a
report gives both its line rows and the n-grams of any of its segments.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .corpus import read_json, read_key

UNK = "<UNK>"

_REMOVE_CHARS = str.maketrans("", "", ",\\;~.")
# no \s around the symbol: the padding must not eat the "\n" between lines,
# and the split into tokens drops the extra spaces anyway
_PAD_RE = re.compile(r"([:/()+=])")
_NULL_RE = re.compile(r"\bnull\b")
_INT32_MAX = int(np.iinfo(np.int32).max)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _clean(text: str) -> str:
    """Every normalization rule but the split into tokens.  None reaches
    across a "\\n", so ``text`` may hold several lines."""
    text = _PAD_RE.sub(r" \1 ", text.lower().translate(_REMOVE_CHARS))
    # the word rule matches nowhere that the substring does not occur
    return _NULL_RE.sub(" ", text) if "null" in text else text


def tokenize(raw: str) -> tuple[str, ...]:
    """Normalize then split on whitespace."""
    return tuple(_clean(raw).split())


def tokenize_lines(report) -> list[tuple[str, ...]]:
    """The tokens of each line of a report, in line order, from one
    normalization pass over the whole report."""
    lines = _clean("\n".join(report.lines)).split("\n")
    if len(lines) != len(report.lines):
        raise ValueError(f"report {report.id}: a line holds a newline")
    return [tuple(line.split()) for line in lines]


def _ngrams(tokens: Sequence[str], max_n: int) -> Iterator[str]:
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i : i + n])


class GramKeys(NamedTuple):
    """A vocabulary's n-grams as packed integer keys (see the module
    docstring)."""

    word_id: dict[str, int]  # every unigram of the vocabulary, and <UNK>
    unk_id: int
    base: int  # B, the number of word ids
    keys: np.ndarray  # the sorted keys, then one sentinel above them all
    cols: np.ndarray  # the column of each key


@dataclass
class Vocabulary:
    """An n-gram feature index built from training lines.

    ``ngram_to_index`` maps space-joined n-grams to column indices assigned
    in lexicographic order.  Its unigrams are the words that survived the
    frequency cutoff; all other words map to ``<UNK>``.  Every n-gram's
    (n-1)-gram prefix and last word are in the index too, as
    ``build_vocabulary`` makes them.
    """

    ngram_to_index: dict[str, int]
    max_n: int
    min_count: int = 2
    unk_token: str = UNK
    _restricted: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.max_n <= 4:
            raise ValueError(f"max_n must be in [1, 4], got {self.max_n}")

    @property
    def dimension(self) -> int:
        return len(self.ngram_to_index)

    @cached_property
    def gram_keys(self) -> GramKeys:
        """The integer keys of the n-grams, built on first use, so that
        loading or saving a vocabulary does not pay for them; the index
        must not change after it.  A ValueError if an n-gram's prefix or
        last word is missing from the index."""
        index = self.ngram_to_index
        word_id = {gram: i for i, gram in enumerate(g for g in index if " " not in g)}
        unk_id = word_id.setdefault(self.unk_token, len(word_id))
        base = len(word_id)
        if (len(index) + 1) * base > _INT64_MAX:
            raise ValueError(f"{len(index)} n-grams over {base} words are too many for int64 keys")
        try:
            keys = [
                (index[prefix] + 1) * base + word_id[last] if prefix else word_id[last]
                for prefix, _, last in (gram.rpartition(" ") for gram in index)
            ]
        except KeyError as exc:
            raise ValueError(
                f"vocabulary n-gram part {exc} is not itself in the vocabulary"
            ) from None
        keys = np.array(keys, dtype=np.int64)
        order = np.argsort(keys)
        cols = np.fromiter(index.values(), np.int64, len(index))[order]
        return GramKeys(word_id, unk_id, base, np.append(keys[order], _INT64_MAX), cols)

    def restrict(self, max_n: int) -> tuple["Vocabulary", np.ndarray]:
        """The vocabulary of the grams of at most ``max_n`` tokens, and the
        columns of this one that it keeps, in order; at its own order, this
        vocabulary itself.  Each order is restricted once.

        For a vocabulary from ``build_vocabulary(lines, n)`` and ``max_n``
        <= n, this is exactly ``build_vocabulary(lines, max_n)``: the known
        unigrams are the same, and sorting keeps the relative order of the
        shorter grams.  For any lines, ``vectorize(lines, restricted)`` is
        ``vectorize(lines, self)[:, cols]``.
        """
        if not 1 <= max_n <= self.max_n:
            raise ValueError(f"max_n must be in [1, {self.max_n}], got {max_n}")
        if max_n == self.max_n:
            return self, np.arange(self.dimension)
        if max_n not in self._restricted:
            kept = sorted(
                (i, gram) for gram, i in self.ngram_to_index.items() if gram.count(" ") < max_n
            )
            vocab = Vocabulary(
                ngram_to_index={gram: j for j, (_, gram) in enumerate(kept)},
                max_n=max_n,
                min_count=self.min_count,
                unk_token=self.unk_token,
            )
            self._restricted[max_n] = vocab, np.array([i for i, _ in kept], dtype=np.int64)
        return self._restricted[max_n]

    def to_dict(self) -> dict:
        items = sorted(self.ngram_to_index.items(), key=lambda kv: kv[1])
        return {
            "max_n": self.max_n,
            "min_count": self.min_count,
            "unk_token": self.unk_token,
            "ngrams": [k for k, _ in items],
        }

    @classmethod
    def from_dict(cls, payload: dict, what: str = "vocabulary") -> "Vocabulary":
        """The vocabulary ``payload`` holds; a missing key, a value of the
        wrong JSON type, an n-gram listed twice, or one of more than
        ``max_n`` tokens, which ``find_ngrams`` could never find, is a
        ValueError naming ``what`` and its key."""
        ngrams = read_key(payload, "ngrams", tuple[str, ...], what)
        mapping = {k: i for i, k in enumerate(ngrams)}
        if len(mapping) != len(ngrams):
            raise ValueError(f"{what} key 'ngrams' lists an n-gram twice")
        max_n = read_key(payload, "max_n", int, what)
        over = [gram for gram in ngrams if gram.count(" ") >= max_n]
        if over:
            raise ValueError(f"{what} key 'ngrams' holds {over[0]!r}, of more than {max_n} tokens")
        return cls(
            ngram_to_index=mapping,
            max_n=max_n,
            min_count=read_key(payload, "min_count", int, what),
            unk_token=read_json(payload.get("unk_token", UNK), str, f"{what} key 'unk_token'"),
        )


def build_vocabulary(
    token_lines: Iterable[Sequence[str]], max_n: int, min_count: int = 2
) -> Vocabulary:
    """Build the n-gram index from training token lines.

    Rare unigrams (count < min_count) are rewritten to <UNK> first, so the
    resulting index can contain n-grams with <UNK> inside them.  Indices
    are assigned by sorting the surviving n-grams lexicographically, which
    makes vocabulary construction order-independent and deterministic.
    """
    lines = list(token_lines)
    if not lines:
        raise ValueError("cannot build a vocabulary from an empty training set")
    counts: Counter[str] = Counter(tok for line in lines for tok in line)
    known = {tok for tok, c in counts.items() if c >= min_count}
    grams: set[str] = set()
    for line in lines:
        mapped = tuple(tok if tok in known else UNK for tok in line)
        grams.update(_ngrams(mapped, max_n))
    mapping = {gram: i for i, gram in enumerate(sorted(grams))}
    return Vocabulary(ngram_to_index=mapping, max_n=max_n, min_count=min_count)


@dataclass(frozen=True, eq=False)
class Hits:
    """Every n-gram of ``vocab`` that ``find_ngrams`` found in a batch of
    streams, one entry per occurrence, and the lines it read them from.
    Lines are counted across the batch."""

    first: np.ndarray  # the line of each hit's first token
    last: np.ndarray  # the line of its last token
    cols: np.ndarray  # its column
    streams: np.ndarray  # the first line of each stream, then the number of lines
    tokens: Sequence[Sequence[str]]  # each line's tokens
    vocab: Vocabulary
    _orders: dict = field(init=False, default_factory=dict, repr=False)

    @property
    def dimension(self) -> int:
        return self.vocab.dimension

    @property
    def line_entries(self) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
        """The (line, column) of each hit inside one line, and the shape of
        one row per line: ``lines`` as ``to_csr`` arguments, which stage 1
        scores without building it."""
        inside = self.first == self.last
        return self.first[inside], self.cols[inside], (int(self.streams[-1]), self.dimension)

    @cached_property
    def lines(self) -> sparse.csr_matrix:
        """One binary row per line: the n-grams inside it, which are its
        ``vectorize`` row."""
        return to_csr(*self.line_entries)

    @cached_property
    def documents(self) -> sparse.csr_matrix:
        """One binary row per stream: the union of its lines' rows, the
        n-grams inside each of its lines.  An n-gram that crosses lines is
        not in it."""
        line, cols, _ = self.line_entries
        # a line's stream is the last one to start at or before it
        stream = np.searchsorted(self.streams, line, side="right") - 1
        return to_csr(stream, cols, (len(self.streams) - 1, self.dimension))

    def within(self, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each distinct (span, column) of the hits whose first and last
        lines lie in a span of lines [starts[i], ends[i]], ordered by span,
        then column.  The spans must be disjoint and ascending."""
        # a hit can lie only in the last span that starts at or before it;
        # before every span, its index -1 reads the end -1
        span = np.searchsorted(starts, self.first, side="right") - 1
        inside = self.last <= np.append(ends, -1)[span]
        flat = np.sort(span[inside] * max(self.dimension, 1) + self.cols[inside])
        return np.divmod(flat[_run_starts(flat)], max(self.dimension, 1))

    def at(self, max_n: int) -> "Hits":
        """The hits under ``vocab.restrict(max_n)``: those of the columns it
        keeps, numbered in its order, which equal finding them under it
        afresh.  At its own order, these hits themselves; each lower order
        is restricted once.  They share ``streams`` and ``tokens``."""
        if max_n == self.vocab.max_n:
            return self
        if max_n not in self._orders:
            vocab, kept = self.vocab.restrict(max_n)
            column = np.full(self.dimension, -1)
            column[kept] = np.arange(len(kept))
            cols = column[self.cols]
            found = cols >= 0
            self._orders[max_n] = Hits(
                self.first[found], self.last[found], cols[found], self.streams, self.tokens, vocab
            )
        return self._orders[max_n]


def find_ngrams(streams: Iterable[Sequence[Sequence[str]]], vocab: Vocabulary) -> Hits:
    """Every n-gram of ``vocab`` in each stream, a sequence of token lines
    read as one sequence of tokens, so an n-gram may span its lines but
    never two streams.  Unknown unigrams are first mapped to <UNK>.  The
    whole batch is one array of word ids, and each order's n-grams are
    found with one search of the packed keys."""
    streams = list(streams)
    lines = [line for stream in streams for line in stream]
    word_id, unk_id, base, keys, cols = vocab.gram_keys
    get = word_id.get
    ids = np.array([get(t, unk_id) for line in lines for t in line], dtype=np.int64)
    lengths = np.fromiter(map(len, lines), np.int64, len(lines))
    line_of = np.repeat(np.arange(len(lines)), lengths)
    first_line = np.cumsum([0] + [len(stream) for stream in streams])
    bounds = np.append(0, np.cumsum(lengths))[first_line]  # the first token of each stream
    # tokens from each position to the end of its stream, itself included
    room = np.repeat(bounds[1:], np.diff(bounds)) - np.arange(len(ids))
    starts = np.arange(len(ids))
    prefix = np.full(len(ids), -1)  # the column of each window's (n-1)-gram
    firsts, lasts, found = [], [], []
    for n in range(vocab.max_n):  # windows of n + 1 tokens
        if n:
            inside = room[starts] > n
            starts, prefix = starts[inside], prefix[inside]
        key = (prefix + 1) * base + ids[starts + n]
        pos = np.searchsorted(keys, key)
        hit = keys[pos] == key
        starts, prefix = starts[hit], cols[pos[hit]]
        firsts.append(line_of[starts])
        lasts.append(line_of[starts + n])
        found.append(prefix)
    return Hits(*map(np.concatenate, (firsts, lasts, found)), first_line, lines, vocab)


def vectorize(token_lines: Iterable[Sequence[str]], vocab: Vocabulary) -> sparse.csr_matrix:
    """Binary bag-of-n-grams under a fixed vocabulary: one CSR row per token
    line, from ``find_ngrams`` with each line as its own stream.  Unknown
    unigrams are first mapped to <UNK>; n-grams absent from the vocabulary
    are dropped."""
    return find_ngrams([[line] for line in token_lines], vocab).lines


def featurize(max_n: int, train_lines, *held_lines) -> list[Hits]:
    """One vocabulary of the training documents' lines at order ``max_n``,
    and the hits under it of the training documents and of each batch of
    ``held_lines``; a lower order's are ``Hits.at(n)``.  A document is
    given as its token lines and read as one stream."""
    vocab = build_vocabulary([tl for doc in train_lines for tl in doc], max_n)
    return [find_ngrams(docs, vocab) for docs in (train_lines, *held_lines)]


def _run_starts(flat: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted ``flat`` starts, as a
    mask."""
    first = np.empty(len(flat), dtype=bool)
    first[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    return first


def to_csr(
    rows: np.ndarray,
    cols: np.ndarray,
    shape: tuple[int, int],
    weights: np.ndarray | None = None,
) -> sparse.csr_matrix:
    """The CSR matrix of ``shape`` with entries at (rows[i], cols[i]).
    Without ``weights`` an entry is 1.0 however often it repeats (binary
    presence).  With them an entry is the sum of its weights, added in the
    order given starting from 0.0, and entries that sum to zero are not
    stored."""
    n_rows, dimension = shape
    if n_rows * dimension > _INT64_MAX:
        raise ValueError(f"a {n_rows} x {dimension} matrix is too large for int64 keys")
    flat = np.asarray(rows, dtype=np.int64) * dimension + cols
    # sorting is several times faster than np.unique on arrays this small
    if weights is None:
        flat = np.sort(flat)
    else:
        order = np.argsort(flat, kind="stable")  # keeps each entry's weights in order
        flat, weights = flat[order], weights[order]
    first = _run_starts(flat)
    if weights is None:
        flat = flat[first]
        data = np.ones(len(flat))
    else:
        # bincount adds each entry's weights one by one, in order
        data = np.bincount(np.cumsum(first) - 1, weights, np.count_nonzero(first))
        stored = data != 0
        flat, data = flat[first][stored], data[stored]
    row_of, indices = np.divmod(flat, max(dimension, 1))
    indptr = np.searchsorted(row_of, np.arange(n_rows + 1))
    # scipy stores int32 indices where they fit; handing it int32 skips its check
    if max(n_rows, dimension, len(flat)) <= _INT32_MAX:
        indices, indptr = indices.astype(np.int32), indptr.astype(np.int32)
    return sparse.csr_matrix((data, indices, indptr), shape=shape, dtype=np.float64)
