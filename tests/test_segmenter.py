"""Maximum-matching segmentation.

Oracle: exhaustive path enumeration, picking the tiling that minimizes
(number of segments, then leftmost-longest), where leftmost-longest is
expressed as lexicographically minimal tuple(-b_i) over the boundaries.
"""

import numpy as np
import pytest

from ngramlm import BoundarySeq, enumerate_paths, extract_boundaries
from ngramlm.errors import UsageError
from ngramlm.segmenter import ENUMERATION_CAP

from conftest import lex_from


def oracle(words, lex):
    paths = enumerate_paths(words, lex)
    return min(paths, key=lambda p: (len(p.boundaries),
                                     tuple(-b for b in p.boundaries)))


def test_six_word_reference_layout(toy_lex):
    # [DERIVED] classic worked example, one bigram in the lexicon:
    # [x1][x2 x3][x4][x5][x6] -> boundaries 1,2,4,5,6,7
    words = tuple(f"x{i}" for i in range(1, 7))
    b = extract_boundaries(words, toy_lex)
    assert b.boundaries == (1, 2, 4, 5, 6, 7)
    assert b.num_segments == 5
    assert b.segments()[1] == ("x2", "x3")


def test_whole_sequence_single_trigram():
    lex = lex_from([("a", "b", "c")])
    assert extract_boundaries(("a", "b", "c"), lex).boundaries == (1, 4)


def test_overlapping_bigrams_take_leftmost_longest():
    # [DERIVED] both tilings have 2 segments; leftmost-longest picks [a b][c]
    lex = lex_from([("a", "b"), ("b", "c")])
    assert extract_boundaries(("a", "b", "c"), lex).boundaries == (1, 3, 4)


def test_fewest_segments_beats_greedy_longest_first():
    # [DERIVED] greedy left-to-right would take [a b] then singles (3 segs);
    # the shortest path is [a][b c d] (2 segs)
    lex = lex_from([("a", "b"), ("b", "c", "d")])
    assert extract_boundaries(("a", "b", "c", "d"), lex).boundaries == (1, 2, 5)


def test_enumerate_paths_count():
    # [DERIVED] [a][b][c], [a b][c], [a][b c]
    lex = lex_from([("a", "b"), ("b", "c")])
    paths = enumerate_paths(("a", "b", "c"), lex)
    assert sorted(p.boundaries for p in paths) == [(1, 2, 3, 4), (1, 2, 4), (1, 3, 4)]


def test_enumeration_cap():
    lex = lex_from([("a", "a")])
    with pytest.raises(UsageError):
        enumerate_paths(("a",) * (ENUMERATION_CAP + 1), lex)


def test_proper_prefix_that_is_not_an_entry():
    # [DERIVED] "a b" is only a prefix of the entry "a b c": it joins nothing
    lex = lex_from([("a", "b", "c")])
    assert extract_boundaries(("a", "b", "c"), lex).boundaries == (1, 4)
    assert extract_boundaries(("a", "b", "d"), lex).boundaries == (1, 2, 3, 4)
    assert extract_boundaries(("x", "a", "b", "c", "a", "b"), lex).boundaries == (1, 2, 5, 6, 7)


def test_four_gram_past_a_trigram_past_a_non_entry():
    # [DERIVED] "a b c" and "a b c d" are entries, their prefix "a b" is not
    lex = lex_from([("a", "b", "c"), ("a", "b", "c", "d")])
    assert extract_boundaries(("a", "b", "c", "d"), lex).boundaries == (1, 5)
    assert extract_boundaries(("a", "b", "c", "e"), lex).boundaries == (1, 4, 5)
    assert extract_boundaries(("a", "b", "e", "d"), lex).boundaries == (1, 2, 3, 4, 5)
    words = ("e", "a", "b", "c", "d", "a", "b", "c")
    assert extract_boundaries(words, lex).boundaries == (1, 2, 6, 9)


@pytest.mark.parametrize("n_words,n_starts,max_order", [(8, 8, 3), (12, 4, 3), (4, 4, 4)],
                         ids=["every-word-starts", "some-words-start-nothing", "orders-2-to-4"])
def test_random_oracle_equivalence(n_words, n_starts, max_order):
    # [DERIVED] 300 random sequences (length <= 12) against the exhaustive
    # oracle.  Entries begin with one of the first n_starts words, so with
    # n_starts < n_words the sequences hold words that begin no entry.
    g = np.random.default_rng(12345)
    alphabet = [f"w{i}" for i in range(n_words)]
    entries = set()
    while len(entries) < 50:
        l = int(g.integers(2, max_order + 1))
        picks = g.integers(0, n_words, size=l)
        picks[0] %= n_starts
        entries.add(tuple(alphabet[int(i)] for i in picks))
    lex = lex_from(entries)
    assert set(lex.trie) <= set(alphabet[:n_starts])
    longest = 1
    for _ in range(300):
        n = int(g.integers(1, 13))
        words = tuple(alphabet[int(i)] for i in g.integers(0, n_words, size=n))
        got = extract_boundaries(words, lex)
        want = oracle(words, lex)
        assert got == want, (words, got.boundaries, want.boundaries)
        longest = max(longest, *map(len, got.segments()))
    assert longest == max_order  # the draws reach the longest entries


def test_segments_tile_the_words(toy_lex):
    g = np.random.default_rng(7)
    for _ in range(100):
        n = int(g.integers(1, 10))
        words = tuple(f"x{int(i)}" for i in g.integers(1, 7, size=n))
        b = extract_boundaries(words, toy_lex)
        flat = tuple(w for seg in b.segments() for w in seg)
        assert flat == words
        for seg in b.segments():
            assert len(seg) == 1 or seg in toy_lex


def test_boundary_seq_validation():
    with pytest.raises(UsageError):
        BoundarySeq((2, 3), ("a", "b"))  # must start at 1
    with pytest.raises(UsageError):
        BoundarySeq((1, 2), ("a", "b"))  # must end at |x|+1
    with pytest.raises(UsageError):
        BoundarySeq((1, 3, 3), ("a", "b"))  # strictly increasing
    assert BoundarySeq((1, 3), ("a", "b")).num_segments == 1
