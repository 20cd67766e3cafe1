"""Maximum-matching segmentation: tile a word sequence into segments where
every multi-word segment belongs to the n-gram lexicon, choosing the path
with the fewest segments.  Ties prefer longer segments earlier
(leftmost-longest), which makes the result deterministic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import UsageError
from .lexicon import NGramLexicon

ENUMERATION_CAP = 24


@dataclass(frozen=True)
class BoundarySeq:
    """Starting boundaries b (1-based word indices, b_1 = 1, b_last = |x|+1)
    and the words they tile."""

    boundaries: tuple
    words: tuple

    def __post_init__(self):
        b = self.boundaries
        if not b or b[0] != 1 or b[-1] != len(self.words) + 1:
            raise UsageError(f"invalid boundary sequence {b} for {len(self.words)} words")
        if any(map(operator.ge, b, b[1:])):
            raise UsageError(f"boundaries not strictly increasing: {b}")

    @property
    def num_segments(self) -> int:
        return len(self.boundaries) - 1

    def segments(self) -> list:
        b = self.boundaries
        return [tuple(self.words[b[i] - 1 : b[i + 1] - 1]) for i in range(len(b) - 1)]


def enumerate_paths(words, lex: NGramLexicon) -> list:
    """All valid tilings; single words are always valid segments.

    Testing utility, capped at ENUMERATION_CAP words to bound blowup.
    """
    words = tuple(words)
    if len(words) > ENUMERATION_CAP:
        raise UsageError(f"enumeration capped at {ENUMERATION_CAP} words")
    max_order = lex.max_order
    out = []

    def rec(i, acc):
        if i == len(words):
            out.append(BoundarySeq(tuple(acc), words))
            return
        for l in range(1, max_order + 1):
            if i + l > len(words):
                break
            if l == 1 or words[i : i + l] in lex:
                rec(i + l, acc + [i + 1 + l])

    if words:
        rec(0, [1])
    else:
        out.append(BoundarySeq((1,), words))
    return out


def extract_boundaries(words, lex: NGramLexicon) -> BoundarySeq:
    """Shortest tiling via dynamic programming, leftmost-longest on ties.

    Linear in len(words) * max lexicon order: from each position the pass
    walks the lexicon's word trie until a word has no child node.
    """
    words = tuple(words)
    n = len(words)
    first = lex.trie.get
    # minseg[i] = fewest segments tiling words[i:]; take[i] = the longest
    # segment starting at i that reaches minseg[i]
    minseg = [0] * (n + 1)
    take = [1] * n
    for i in range(n - 1, -1, -1):
        best = 1 + minseg[i + 1]  # unigram always valid
        node = first(words[i])
        if node is not None:
            j = i + 1
            while j < n:
                node = node.get(words[j])
                if node is None:
                    break
                j += 1
                # node is words[i:j]; j grows, so ties keep the longest
                if None in node and minseg[j] < best:
                    best = 1 + minseg[j]
                    take[i] = j - i
        minseg[i] = best
    # walk left to right along the recorded segments
    bounds = [1]
    i = 0
    while i < n:
        i += take[i]
        bounds.append(i + 1)
    return BoundarySeq(tuple(bounds), words)
