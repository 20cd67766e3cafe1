"""T-statistic scoring and lexicon selection.

Oracles: exact rational arithmetic (fractions.Fraction) for the score on
hand-built count tables, a brute-force score-and-sort selector on random
corpora, and byte-identical save/load round trips.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngramlm import (
    FineVocab,
    WordStream,
    build_joint_vocab,
    count_ngrams,
    extract_lexicon,
    t_statistic,
)
from ngramlm.corpus import CountTables
from ngramlm.errors import (
    DataError,
    DegenerateStatisticError,
    DomainError,
    UsageError,
)
from ngramlm.lexicon import NGramLexicon, ScoredNGram, _selection_key
from ngramlm.synth import zipf_corpus


def tables_from(docs):
    return count_ngrams(WordStream(docs), 3)


def oracle_t(counts, w):
    """Exact-rational reimplementation: float conversion happens last."""
    l = len(w)
    p = Fraction(counts.count(w), counts.totals[l])
    p_indep = Fraction(1)
    for word in w:
        p_indep *= Fraction(counts.unigram_count(word), counts.totals[1])
    var = p * (1 - p)
    return float(p - p_indep) / math.sqrt(float(var) / counts.totals[l])


def test_t_statistic_null_case_is_zero():
    # [DERIVED] p == p' exactly: a b a b  ->  p(a,b)=1/3? build by hand instead
    t = CountTables(2)
    t.counts = {1: {("a",): 2, ("b",): 2}, 2: {("a", "b"): 1}}
    t.totals = {1: 4, 2: 4}
    # p = 1/4, p' = (2/4)(2/4) = 1/4  ->  s = 0 exactly
    assert t_statistic(t, ("a", "b")) == 0.0


def test_t_statistic_hand_value():
    # [DERIVED] via exact-rational oracle on a concrete corpus
    counts = tables_from([["a", "b", "a", "b", "c"], ["a", "b", "c", "c"]])
    for w in [("a", "b"), ("b", "c"), ("a", "b", "c")]:
        assert t_statistic(counts, w) == pytest.approx(oracle_t(counts, w), rel=1e-12)


def test_t_statistic_scales_with_sqrt_corpus_size():
    # [DERIVED] doubling every count and total multiplies s by sqrt(2)
    t = CountTables(2)
    t.counts = {1: {("a",): 3, ("b",): 2, ("c",): 3}, 2: {("a", "b"): 2}}
    t.totals = {1: 8, 2: 6}
    t2 = CountTables(2)
    t2.counts = {1: {k: 2 * v for k, v in t.counts[1].items()},
                 2: {k: 2 * v for k, v in t.counts[2].items()}}
    t2.totals = {1: 16, 2: 12}
    assert t_statistic(t2, ("a", "b")) == pytest.approx(
        t_statistic(t, ("a", "b")) * math.sqrt(2), rel=1e-12)


def test_t_statistic_domain_errors():
    counts = tables_from([["a", "b", "c"]])
    with pytest.raises(DomainError):
        t_statistic(counts, ("z", "b"))
    with pytest.raises(DomainError):
        t_statistic(counts, ("b", "a"))  # never occurs


def test_t_statistic_degenerate_when_ngram_is_whole_corpus():
    counts = tables_from([["a", "b"]])  # ("a","b") is the only bigram: p = 1
    with pytest.raises(DegenerateStatisticError):
        t_statistic(counts, ("a", "b"))


# --- selection ---------------------------------------------------------------

def brute_force_select(counts, k, min_count):
    out = {}
    for l, k_l in sorted(k.items()):
        scored = []
        for w, c in counts.counts.get(l, {}).items():
            if c < min_count:
                continue
            p = c / counts.totals[l]
            if p == 1.0:
                continue
            scored.append(ScoredNGram(w, l, oracle_t(counts, w), c))
        scored.sort(key=lambda s: (-s.score, -s.count, s.words))
        out[l] = scored[:k_l]
    return out


def test_extract_lexicon_matches_brute_force():
    stream = zipf_corpus(4000, seed=3, vocab_size=60)
    counts = count_ngrams(stream, 3)
    lex = extract_lexicon(counts, {2: 40, 3: 20}, min_count=3)
    oracle = brute_force_select(counts, {2: 40, 3: 20}, 3)
    for l in (2, 3):
        got = [(s.words, s.count) for s in lex.per_order[l]]
        want = [(s.words, s.count) for s in oracle[l]]
        assert got == want
        for g, w in zip(lex.per_order[l], oracle[l]):
            assert g.score == pytest.approx(w.score, rel=1e-12)


def test_extract_lexicon_k_prefix_property():
    # [TRIVIAL] top-(k-5) is a prefix of top-k under a fixed total order
    stream = zipf_corpus(3000, seed=5, vocab_size=50)
    counts = count_ngrams(stream, 2)
    big = extract_lexicon(counts, {2: 30}, min_count=2).per_order[2]
    small = extract_lexicon(counts, {2: 25}, min_count=2).per_order[2]
    assert big[:25] == small


def test_extract_lexicon_validates_orders():
    counts = tables_from([["a", "b", "c", "a", "b"]])
    with pytest.raises(UsageError):
        extract_lexicon(counts, {5: 10})
    with pytest.raises(UsageError):
        extract_lexicon(counts, {2: 0})


def test_selection_key_tie_breaks():
    a = ScoredNGram(("a", "b"), 2, 1.0, 9)
    b = ScoredNGram(("a", "c"), 2, 1.0, 9)
    c = ScoredNGram(("a", "a"), 2, 1.0, 5)
    assert sorted([c, b, a], key=_selection_key) == [a, b, c]


# --- persistence -------------------------------------------------------------

def test_lexicon_save_load_roundtrip(tmp_path):
    stream = zipf_corpus(2000, seed=1, vocab_size=40)
    lex = extract_lexicon(count_ngrams(stream, 3), {2: 20, 3: 10}, min_count=2)
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    lex.save(p1, provenance="x")
    back = NGramLexicon.load(p1)
    assert back.merged == lex.merged
    back.save(p2, provenance="x")
    assert p1.read_bytes() == p2.read_bytes()


def test_lexicon_load_rejects_garbage(tmp_path):
    p = tmp_path / "x.tsv"
    p.write_text("not a lexicon\n", encoding="utf-8")
    with pytest.raises(DataError):
        NGramLexicon.load(p)


def test_lexicon_rejects_duplicates():
    sg = ScoredNGram(("a", "b"), 2, 1.0, 2)
    with pytest.raises(DataError):
        NGramLexicon({2: [sg, sg]})


# --- joint vocabulary --------------------------------------------------------

def test_joint_vocab_id_layout():
    vocab = FineVocab.from_subwords(["a", "b", "c"])
    lex = NGramLexicon({2: [ScoredNGram(("a", "b"), 2, 1.0, 2),
                            ScoredNGram(("b", "c"), 2, 0.5, 2)]})
    jv = build_joint_vocab(vocab, lex)
    assert len(jv) == len(vocab) + 2
    assert jv.surface(vocab.index["a"]) == ("fine", "a")
    assert jv.id_of_ngram(("a", "b")) == len(vocab)
    assert jv.id_of_ngram(("b", "c")) == len(vocab) + 1
    assert jv.id_of_ngram(("c", "a")) is None
    assert jv.surface(len(vocab)) == ("ngram", ("a", "b"))
    assert jv.surface(0) == ("fine", "[PAD]")
    with pytest.raises(UsageError):
        jv.surface(len(jv))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_joint_vocab_surface_roundtrip(offset):
    vocab = FineVocab.from_subwords(["a", "b", "c"])
    lex = NGramLexicon({2: [ScoredNGram(("a", "b"), 2, 1.0, 2)]})
    jv = build_joint_vocab(vocab, lex)
    jid = offset % len(jv)
    kind, surf = jv.surface(jid)
    if kind == "fine":
        assert vocab.index[surf] == jid
    else:
        assert jv.id_of_ngram(surf) == jid
