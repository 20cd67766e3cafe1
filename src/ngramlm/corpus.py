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
from itertools import chain
from operator import itemgetter

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
    return _decode_text(raw, path)


def _decode_text(raw: bytes, source) -> str:
    """``raw`` decoded as strict UTF-8; an invalid byte raises
    CorpusDecodeError naming ``source`` and the byte's offset."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CorpusDecodeError(source, e.start, e.reason) from e


def split_documents(text: str, config: TokenizerConfig | None = None) -> list[list[str]]:
    """The word lists of ``text``'s documents, empty ones dropped.

    A line ends at ``\\r\\n``, ``\\r`` or ``\\n`` only, as in a file read in
    text mode: a form feed or U+2028 stays inside its line.
    """
    config = config or TokenizerConfig()
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    chunks = text.split("\n") if config.doc_per_line else re.split(r"\n\s*\n", text)
    return [words for words in (tokenize_words(c, config.lowercase) for c in chunks) if words]


def ingest(paths, config: TokenizerConfig | None = None) -> WordStream:
    """Read UTF-8 text files into a WordStream, documents split by
    ``split_documents``.  Deterministic for fixed inputs and config."""
    docs: list[list[str]] = []
    for path in paths:
        docs += split_documents(_read_text(path), config)
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


def count_ngrams(stream: WordStream, n_max: int) -> CountTables:
    """Count all word l-grams, 1 <= l <= n_max, within documents."""
    if n_max < 2:
        raise UsageError(f"n_max must be >= 2, got {n_max}")
    docs = list(stream)
    if not all(map(all, docs)):
        raise DataError("empty word in stream")
    lengths = list(map(len, docs))
    tables = CountTables(n_max)
    for l in range(1, n_max + 1):
        # each document's l-grams: zip over its l suffixes from 0 .. l - 1
        suffixes = (map(itemgetter(slice(k, None)), docs) for k in range(l))
        tables.counts[l] = Counter(chain.from_iterable(map(zip, *suffixes)))
        tables.totals[l] = sum(n - l + 1 for n in lengths if n >= l)
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
