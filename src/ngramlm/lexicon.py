"""T-test scoring of n-grams, per-order top-k lexicon selection and the
joint identity space over subwords and n-grams.

The t-statistic compares the observed n-gram probability against the
independence baseline (product of unigram probabilities):

    s = (p(w) - p'(w)) / sqrt(sigma^2 / N_l)

with p(w) = Count(w)/N_l, p'(w) = prod_i Count(x_i)/N_1 and
sigma^2 = p(w)(1 - p(w)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import CountTables, FineVocab, _read_text
from .errors import DataError, DegenerateStatisticError, DomainError, UsageError

DEFAULT_MIN_COUNT = 5


@dataclass(frozen=True)
class ScoredNGram:
    words: tuple
    order: int
    score: float
    count: int


def t_statistic(counts: CountTables, w: tuple) -> float:
    l = len(w)
    n_l = counts.totals.get(l, 0)
    if n_l < 1:
        raise DomainError(f"no {l}-gram positions in corpus")
    c = counts.count(w)
    if c < 1:
        raise DomainError(f"n-gram {w} unseen in corpus")
    n_1 = counts.totals[1]
    p = c / n_l
    p_indep = 1.0
    for word in w:
        uc = counts.unigram_count(word)
        if uc < 1:
            raise DomainError(f"unigram {word!r} unseen in corpus")
        p_indep *= uc / n_1
    var = p * (1.0 - p)
    if var == 0.0:
        raise DegenerateStatisticError(f"n-gram {w} is the entire corpus")
    return (p - p_indep) / math.sqrt(var / n_l)


def _selection_key(sg: ScoredNGram):
    # higher score first, ties: higher count, then lexicographic words
    return (-sg.score, -sg.count, sg.words)


class NGramLexicon:
    """Per-order ranked n-gram tables and the merged lexicon.

    Merged ids are stable: orders ascending, rank within order.
    ``index`` maps each n-gram to its merged id.  ``trie`` holds the same
    n-grams as nested dicts, one per distinct prefix: each node maps a word
    to the node of the longer prefix, and the node of a whole n-gram holds
    the key ``None``.  Neither may change after construction.
    """

    def __init__(self, per_order: dict):
        self.per_order = {l: list(v) for l, v in sorted(per_order.items())}
        self.merged: list[ScoredNGram] = []
        for l in sorted(self.per_order):
            self.merged.extend(self.per_order[l])
        self.index = {sg.words: i for i, sg in enumerate(self.merged)}
        if len(self.index) != len(self.merged):
            raise DataError("duplicate n-grams in lexicon")
        self.trie: dict = {}
        for words in self.index:
            node = self.trie
            for w in words:
                node = node.setdefault(w, {})
            node[None] = True

    def __len__(self):
        return len(self.merged)

    def __contains__(self, words: tuple):
        return tuple(words) in self.index

    @property
    def max_order(self) -> int:
        return max(self.per_order, default=1)

    def save(self, path, provenance: str = ""):
        """TSV: surface \\t order \\t t_score \\t count, ordered by (order, rank)."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# ngramlm-lexicon v1\t{provenance}\n")
            for sg in self.merged:
                f.write(f"{' '.join(sg.words)}\t{sg.order}\t{sg.score!r}\t{sg.count}\n")

    @classmethod
    def load(cls, path) -> "NGramLexicon":
        per_order: dict = {}
        lines = _read_text(path).splitlines()
        if not lines or not lines[0].startswith("# ngramlm-lexicon v1"):
            raise DataError(f"{path}: not a lexicon file")
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 columns")
            words = tuple(parts[0].split(" "))
            try:
                sg = ScoredNGram(words, int(parts[1]), float(parts[2]), int(parts[3]))
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: {e}") from e
            if sg.order != len(words):
                raise DataError(f"{path}:{lineno}: order/surface mismatch")
            if sg.order < 2 or "" in words:
                raise DataError(f"{path}:{lineno}: not an n-gram of two or more words")
            if not math.isfinite(sg.score) or sg.count < 0:
                raise DataError(f"{path}:{lineno}: score must be finite and count >= 0")
            per_order.setdefault(sg.order, []).append(sg)
        return cls(per_order)


def extract_lexicon(counts: CountTables, k: dict, min_count: int = DEFAULT_MIN_COUNT) -> NGramLexicon:
    """Select per order the k_l highest-scoring n-grams meeting min_count.

    Ties break deterministically by (higher count, lexicographic words).
    Fewer candidates than k_l: take all.
    """
    per_order = {}
    for l, k_l in sorted(k.items()):
        if l < 2 or l > counts.n_max:
            raise UsageError(f"order {l} outside counted range 2..{counts.n_max}")
        if k_l < 1:
            raise UsageError(f"k_{l} must be >= 1")
        scored = []
        for w, c in counts.counts.get(l, {}).items():
            if c < min_count:
                continue
            try:
                s = t_statistic(counts, w)
            except DegenerateStatisticError:
                continue
            scored.append(ScoredNGram(w, l, s, c))
        scored.sort(key=_selection_key)
        per_order[l] = scored[:k_l]
    return NGramLexicon(per_order)


@dataclass
class JointVocab:
    """Unified id space: fine ids in [0, |V_F|), n-gram ids follow."""

    fine: FineVocab
    ngrams: NGramLexicon

    def __len__(self):
        return len(self.fine) + len(self.ngrams)

    def id_of_ngram(self, words: tuple):
        idx = self.ngrams.index.get(tuple(words))
        if idx is None:
            return None
        return len(self.fine) + idx

    def surface(self, joint_id: int):
        """(kind, surface) for a joint id; kind is 'fine' or 'ngram'."""
        if 0 <= joint_id < len(self.fine):
            return ("fine", self.fine.tokens[joint_id])
        idx = joint_id - len(self.fine)
        if 0 <= idx < len(self.ngrams):
            return ("ngram", self.ngrams.merged[idx].words)
        raise UsageError(f"joint id {joint_id} out of range 0..{len(self) - 1}")


def build_joint_vocab(fine: FineVocab, lex: NGramLexicon) -> JointVocab:
    return JointVocab(fine, lex)
