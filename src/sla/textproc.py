"""Text normalization, line tokenization, and bag-of-n-grams featurization.

Normalization (applied identically at train and test time):

  * lowercase everything
  * delete the characters  , \\ ; ~ .
  * delete the whole word "null"
  * surround each of  : / ( ) + =  with single spaces

Tokens are whitespace-separated after normalization.  No rule reaches
across a space (each acts on single characters, pads with spaces, or
deletes a whole word, which a space ends), and a space is not cased, so
lines joined with a space tokenize as the concatenation of their tokens.

N-grams are enumerated inside a line only; they never span line
boundaries.  Unigrams seen fewer than ``min_count`` times in the training
data are replaced by ``<UNK>`` before n-grams are enumerated, and
out-of-vocabulary unigrams map through ``<UNK>`` at test time.  Features
are binary presence.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from collections import Counter
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

UNK = "<UNK>"

_REMOVE_CHARS = str.maketrans("", "", ",\\;~.")
_PAD_RE = re.compile(r"\s*([:/()+=])\s*")
_NULL_RE = re.compile(r"\bnull\b")


def normalize(raw: str) -> str:
    """Apply the character-level cleanup rules.  Idempotent."""
    s = raw.lower().translate(_REMOVE_CHARS)
    s = _PAD_RE.sub(r" \1 ", s)
    s = _NULL_RE.sub(" ", s)
    return s.strip()


def tokenize(raw: str) -> tuple[str, ...]:
    """Normalize then split on whitespace."""
    return tuple(normalize(raw).split())


def tokenize_lines(report) -> list[tuple[str, ...]]:
    """The tokens of each line of a report, in line order."""
    return [tokenize(line) for line in report.lines]


def _ngrams(tokens: Sequence[str], max_n: int) -> Iterator[str]:
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i : i + n])


@dataclass
class Vocabulary:
    """An n-gram feature index built from training lines.

    ``ngram_to_index`` maps space-joined n-grams to column indices assigned
    in lexicographic order.  ``known_words`` holds the unigrams that
    survived the frequency cutoff; all other unigrams map to ``<UNK>``.
    """

    ngram_to_index: dict[str, int]
    max_n: int
    min_count: int = 2
    unk_token: str = UNK
    known_words: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.max_n <= 4:
            raise ValueError(f"max_n must be in [1, 4], got {self.max_n}")
        self.known_words = frozenset(
            k for k in self.ngram_to_index if " " not in k and k != self.unk_token
        )

    @property
    def dimension(self) -> int:
        return len(self.ngram_to_index)

    def map_token(self, token: str) -> str:
        return token if token in self.known_words else self.unk_token

    def restrict(self, max_n: int) -> tuple["Vocabulary", np.ndarray]:
        """The vocabulary of the grams of at most ``max_n`` tokens, and the
        columns of this one that it keeps, in order.

        For a vocabulary from ``build_vocabulary(lines, n)`` and ``max_n``
        <= n, this is exactly ``build_vocabulary(lines, max_n)``: the known
        unigrams are the same, and sorting keeps the relative order of the
        shorter grams.  For any lines, ``vectorize(lines, restricted)`` is
        ``vectorize(lines, self)[:, cols]``.
        """
        if not 1 <= max_n <= self.max_n:
            raise ValueError(f"max_n must be in [1, {self.max_n}], got {max_n}")
        kept = sorted(
            (i, gram) for gram, i in self.ngram_to_index.items() if gram.count(" ") < max_n
        )
        vocab = Vocabulary(
            ngram_to_index={gram: j for j, (_, gram) in enumerate(kept)},
            max_n=max_n,
            min_count=self.min_count,
            unk_token=self.unk_token,
        )
        return vocab, np.array([i for i, _ in kept], dtype=np.int64)

    def to_dict(self) -> dict:
        items = sorted(self.ngram_to_index.items(), key=lambda kv: kv[1])
        return {
            "max_n": self.max_n,
            "min_count": self.min_count,
            "unk_token": self.unk_token,
            "ngrams": [k for k, _ in items],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Vocabulary":
        mapping = {k: i for i, k in enumerate(payload["ngrams"])}
        return cls(
            ngram_to_index=mapping,
            max_n=payload["max_n"],
            min_count=payload["min_count"],
            unk_token=payload.get("unk_token", UNK),
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
    if not 1 <= max_n <= 4:
        raise ValueError(f"max_n must be in [1, 4], got {max_n}")
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


def vectorize(token_lines: Iterable[Sequence[str]], vocab: Vocabulary) -> sparse.csr_matrix:
    """Binary bag-of-n-grams under a fixed vocabulary: one CSR row per token
    line.

    Unknown unigrams are first mapped to <UNK>; n-grams absent from the
    vocabulary are dropped.
    """
    column = vocab.ngram_to_index.get
    rows = []
    for tokens in token_lines:
        mapped = tuple(vocab.map_token(t) for t in tokens)
        cols = {column(g) for g in _ngrams(mapped, vocab.max_n)}
        cols.discard(None)
        rows.append(sorted(cols))
    return to_csr(rows, vocab.dimension)


class Featurized:
    """Matrices vectorized once under one vocabulary, built at the largest
    n-gram order any fit asks of it.  ``at(n)`` is the order-n vocabulary
    and the matching columns of each matrix (``Vocabulary.restrict``),
    which equal building and vectorizing at order n afresh.  Each order is
    restricted once."""

    def __init__(self, vocab: Vocabulary, *matrices: sparse.csr_matrix) -> None:
        self.max_n = vocab.max_n
        self._orders = {vocab.max_n: (vocab, matrices)}

    def at(self, max_n: int) -> tuple[Vocabulary, tuple[sparse.csr_matrix, ...]]:
        if max_n not in self._orders:
            vocab, matrices = self._orders[self.max_n]
            restricted, cols = vocab.restrict(max_n)
            self._orders[max_n] = (restricted, tuple(m[:, cols] for m in matrices))
        return self._orders[max_n]


def to_csr(
    rows: Sequence[list[int]], dimension: int, data: np.ndarray | None = None
) -> sparse.csr_matrix:
    """Stack rows of sorted, distinct column indices into a CSR matrix.
    ``data`` holds the values of every row in order; without it each stored
    value is 1.0 (binary presence).  Rows are lists because reading Python
    ints one by one is several times faster than reading numpy scalars."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.fromiter(itertools.chain.from_iterable(rows), np.int64, int(indptr[-1]))
    if data is None:
        data = np.ones(len(indices))
    return sparse.csr_matrix((data, indices, indptr), shape=(len(rows), dimension))
