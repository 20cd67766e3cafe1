"""Corpus ingestion, word/subword tokenization and n-gram counting.

Words are whitespace-delimited with punctuation detached into separate
tokens.  N-grams are counted at word level and never cross document
boundaries.  Subword segmentation is greedy longest-match against a
vocabulary file using the "##" continuation convention.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import CorpusDecodeError, DataError, UsageError

_WORD_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)

PAD = "[PAD]"
UNK = "[UNK]"
CLS = "[CLS]"
SEP = "[SEP]"
MASK = "[M]"

DEFAULT_MAX_QUERY = 8


def query_symbol(i: int) -> str:
    """Indexed mask symbol requesting the i-th token of a masked n-gram."""
    return f"[M{i}]"


def reserved_symbols(max_query: int = DEFAULT_MAX_QUERY) -> list[str]:
    """Reserved vocabulary entries, in their documented file order."""
    return [PAD, UNK, CLS, SEP, MASK] + [query_symbol(i) for i in range(1, max_query + 1)]


@dataclass
class TokenizerConfig:
    lowercase: bool = True
    doc_per_line: bool = True  # False: blank-line-separated documents


@dataclass
class WordStream:
    """Per-document word sequences; n-grams never span documents."""

    documents: list[list[str]] = field(default_factory=list)

    def __len__(self):
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def total_words(self) -> int:
        return sum(len(d) for d in self.documents)


def tokenize_words(text: str, lowercase: bool = True) -> list[str]:
    if lowercase:
        text = text.lower()
    return _WORD_RE.findall(text)


def _read_text(path) -> str:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CorpusDecodeError(path, e.start, e.reason) from e


def ingest(paths, config: TokenizerConfig | None = None) -> WordStream:
    """Read UTF-8 text files into a WordStream.

    Deterministic for fixed inputs and config.  Empty documents are dropped.
    """
    config = config or TokenizerConfig()
    docs: list[list[str]] = []
    for path in paths:
        text = _read_text(path)
        if config.doc_per_line:
            chunks = text.splitlines()
        else:
            chunks = re.split(r"\n\s*\n", text)
        for chunk in chunks:
            words = tokenize_words(chunk, config.lowercase)
            if words:
                docs.append(words)
    return WordStream(docs)


class FineVocab:
    """Fine-grained subword vocabulary with dense ids.

    File format: plain text, one subword per line, id = 0-based line
    number, so no entry may be empty or hold a line break.  Reserved
    symbols come first (see ``reserved_symbols``).
    ``subword_tokenize`` caches each word's ids on the instance, so the
    entries must not change after construction.
    """

    def __init__(self, tokens: list[str], max_query: int = DEFAULT_MAX_QUERY):
        if "" in tokens:
            raise DataError(f"empty vocabulary entry at id {tokens.index('')}")
        # the file holds one entry a line, and load() splits lines where
        # str.splitlines does: at \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029 too
        broken = next((i for i, t in enumerate(tokens) if t.splitlines() != [t]), None)
        if broken is not None:
            raise DataError(f"vocabulary entry at id {broken} {tokens[broken]!r} holds a "
                            "line break, so a saved file would load with other ids")
        if len(set(tokens)) != len(tokens):
            dupes = [t for t, c in Counter(tokens).items() if c > 1]
            raise DataError(f"duplicate vocabulary entries: {dupes[:5]}")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(tokens)}
        self.max_query = max_query
        for sym in reserved_symbols(max_query):
            if sym not in self.index:
                raise DataError(f"vocabulary missing reserved symbol {sym}")
        self._word_ids: dict = {}  # word -> tuple of ids, filled by subword_tokenize

    @classmethod
    def from_subwords(cls, subwords, max_query: int = DEFAULT_MAX_QUERY) -> "FineVocab":
        """Build a vocab from raw subwords, prepending the reserved symbols."""
        reserved = reserved_symbols(max_query)
        body = [s for s in subwords if s not in set(reserved)]
        return cls(reserved + body, max_query)

    @classmethod
    def load(cls, path, max_query: int = DEFAULT_MAX_QUERY) -> "FineVocab":
        tokens = _read_text(path).splitlines()
        while tokens and not tokens[-1]:
            tokens.pop()  # trailing blank lines end the file; they hold no id
        if "" in tokens:
            raise DataError(f"{path}: line {tokens.index('') + 1} is blank, so every later "
                            "id would move (an id is its 0-based line number)")
        return cls(tokens, max_query)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for t in self.tokens:
                f.write(t + "\n")

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, token):
        return token in self.index

    @property
    def pad_id(self):
        return self.index[PAD]

    @property
    def unk_id(self):
        return self.index[UNK]

    @property
    def mask_id(self):
        return self.index[MASK]

    def query_id(self, i: int) -> int:
        if not 1 <= i <= self.max_query:
            raise UsageError(f"query index {i} outside [1, {self.max_query}]")
        return self.index[query_symbol(i)]


@dataclass
class CountTables:
    """Exact within-document n-gram counts for orders 1..n_max.

    ``totals[l]`` is the number of positions admitting an l-gram,
    i.e. sum over documents of max(len - l + 1, 0).
    """

    n_max: int
    counts: dict = field(default_factory=dict)  # order -> Counter[tuple[str,...]]
    totals: dict = field(default_factory=dict)  # order -> int

    def count(self, w: tuple) -> int:
        return self.counts.get(len(w), {}).get(w, 0)

    def unigram_count(self, word: str) -> int:
        return self.counts.get(1, {}).get((word,), 0)

    def merge(self, other: "CountTables") -> "CountTables":
        if other.n_max != self.n_max:
            raise UsageError("cannot merge tables with different n_max")
        out = CountTables(self.n_max)
        for l in range(1, self.n_max + 1):
            c = Counter(self.counts.get(l, {}))
            c.update(other.counts.get(l, {}))
            out.counts[l] = c
            out.totals[l] = self.totals.get(l, 0) + other.totals.get(l, 0)
        return out


def count_ngrams(stream: WordStream, n_max: int) -> CountTables:
    """Count all word l-grams, 1 <= l <= n_max, within documents.

    Mergeable: counting shards and merging equals counting the whole.
    """
    if n_max < 2:
        raise UsageError(f"n_max must be >= 2, got {n_max}")
    tables = CountTables(n_max)
    for l in range(1, n_max + 1):
        tables.counts[l] = Counter()
        tables.totals[l] = 0
    for doc in stream:
        if not all(doc):
            raise DataError("empty word in stream")
        n = len(doc)
        for l in range(1, min(n, n_max) + 1):
            tables.totals[l] += n - l + 1
            tables.counts[l].update(zip(*(doc[k:] for k in range(l))))
    return tables


def subword_tokenize(words, vocab: FineVocab):
    """Greedy longest-match subword segmentation.

    Returns (ids, spans) where spans[j] = (lo, hi) is the contiguous
    subword range covering words[j].  Unknown material maps to [UNK].
    Each distinct word is split once per vocabulary and its ids cached.
    """
    cache = vocab._word_ids
    ids: list[int] = []
    spans: list[tuple[int, int]] = []
    for word in words:
        lo = len(ids)
        word_ids = cache.get(word)
        if word_ids is None:
            pieces = _split_word(word, vocab)
            if pieces is None:
                word_ids = (vocab.unk_id,)
            else:
                word_ids = tuple(vocab.index[p] for p in pieces)
            cache[word] = word_ids
        ids.extend(word_ids)
        spans.append((lo, len(ids)))
    return ids, spans


def _split_word(word: str, vocab: FineVocab):
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        piece = None
        while end > start:
            cand = word[start:end]
            if start > 0:
                cand = "##" + cand
            if cand in vocab:
                piece = cand
                break
            end -= 1
        if piece is None:
            return None
        pieces.append(piece)
        start = end
    return pieces
