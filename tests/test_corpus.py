"""Corpus ingestion, counting and subword tokenization.

Oracles: hand-enumerated n-gram counts on small documents, and a
per-position reference count checked on hypothesis-generated corpora.
"""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngramlm import (
    FineVocab,
    TokenizerConfig,
    WordStream,
    count_ngrams,
    ingest,
    subword_tokenize,
)
from ngramlm.corpus import reserved_symbols, tokenize_words
from ngramlm.errors import CorpusDecodeError, DataError, UsageError


# --- word tokenization -------------------------------------------------------

def test_tokenize_words_detaches_punctuation():
    # [TRIVIAL] regex contract: \w+ runs, punctuation as single tokens
    assert tokenize_words("Hello, world!") == ["hello", ",", "world", "!"]
    assert tokenize_words("don't stop") == ["don", "'", "t", "stop"]


def test_tokenize_words_case_flag():
    assert tokenize_words("ABC", lowercase=False) == ["ABC"]
    assert tokenize_words("ABC") == ["abc"]


def test_ingest_doc_per_line(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("a b c\n\nd e\n", encoding="utf-8")
    stream = ingest([p])
    assert stream.documents == [["a", "b", "c"], ["d", "e"]]  # empty line dropped
    # \r\n, \r and \n end a line; a form feed, U+2028 or U+0085 is whitespace inside it
    p.write_text("a b\r\nc\rd\x0ce\u2028f\x85g\n  \nH", encoding="utf-8", newline="")
    assert ingest([p]).documents == [["a", "b"], ["c"], ["d", "e", "f", "g"], ["h"]]


def test_ingest_blank_line_docs(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("a b\nc d\n\ne f\n", encoding="utf-8")
    stream = ingest([p], TokenizerConfig(doc_per_line=False))
    assert stream.documents == [["a", "b", "c", "d"], ["e", "f"]]
    p.write_text("a b\rc d\r \re f\r\n\r\ng", encoding="utf-8", newline="")  # \r ends lines too
    assert ingest([p], TokenizerConfig(doc_per_line=False)).documents == [
        ["a", "b", "c", "d"], ["e", "f"], ["g"]]


def test_ingest_bad_utf8_reports_offset(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"ok so far \xff\xfe more")
    with pytest.raises(CorpusDecodeError) as ei:
        ingest([p])
    assert ei.value.byte_offset == 10


def test_ingest_missing_file():
    with pytest.raises(DataError):
        ingest(["/nonexistent/path.txt"])


# --- n-gram counting ---------------------------------------------------------

def test_count_ngrams_hand_oracle():
    # [DERIVED] counts enumerated by hand for "a b a b" + "b a"
    stream = WordStream([["a", "b", "a", "b"], ["b", "a"]])
    t = count_ngrams(stream, 3)
    assert t.totals == {1: 6, 2: 4, 3: 2}
    assert t.counts[1] == collections.Counter(
        {("a",): 3, ("b",): 3})
    assert t.counts[2] == collections.Counter(
        {("a", "b"): 2, ("b", "a"): 2})
    assert t.counts[3] == collections.Counter(
        {("a", "b", "a"): 1, ("b", "a", "b"): 1})


def test_count_ngrams_never_crosses_documents():
    stream = WordStream([["a"], ["b"]])
    t = count_ngrams(stream, 2)
    assert t.counts[2] == collections.Counter()
    assert t.totals[2] == 0


def test_count_ngrams_requires_order_two():
    with pytest.raises(UsageError):
        count_ngrams(WordStream([["a", "b"]]), 1)


def test_count_ngrams_rejects_empty_word():
    # in the first document or a later one, before any count is returned
    for docs in ([["a", ""]], [["a", "b"], ["b", "a", ""]], [["a"], [""], ["b"]]):
        with pytest.raises(DataError):
            count_ngrams(WordStream(docs), 2)


def naive_count(docs, n_max):
    """Per-position reference count: one Counter increment per l-gram."""
    counts = {l: collections.Counter() for l in range(1, n_max + 1)}
    totals = {l: 0 for l in range(1, n_max + 1)}
    for doc in docs:
        for l in range(1, n_max + 1):
            for i in range(len(doc) - l + 1):
                counts[l][tuple(doc[i : i + l])] += 1
                totals[l] += 1
    return counts, totals


doc_st = st.lists(st.text(alphabet="abcde", min_size=1, max_size=4),
                  min_size=1, max_size=10)
corpus_st = st.lists(doc_st, min_size=0, max_size=8)


@settings(max_examples=60, deadline=None)
@given(docs=corpus_st, n_max=st.integers(min_value=2, max_value=5))
def test_count_merge_equals_whole(docs, n_max):
    # [DERIVED] count(all) equals the per-position reference count, insertion
    # order included.  Documents shorter than n_max words occur.
    whole = count_ngrams(WordStream(docs), n_max)
    counts, totals = naive_count(docs, n_max)
    assert whole.counts == counts
    assert whole.totals == totals
    for l in counts:
        assert list(whole.counts[l]) == list(counts[l])


# --- fine vocabulary ---------------------------------------------------------

def test_reserved_symbols_order():
    syms = reserved_symbols(2)
    assert syms == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[M]", "[M1]", "[M2]"]


def test_fine_vocab_ids_and_specials():
    v = FineVocab.from_subwords(["foo", "bar"])
    assert v.index["[PAD]"] == 0 and v.unk_id == 1 and v.mask_id == 4
    assert v.query_id(1) == 5 and v.query_id(8) == 12
    assert v.index["foo"] == 13
    with pytest.raises(UsageError):
        v.query_id(9)


def test_fine_vocab_duplicate_rejected():
    with pytest.raises(DataError):
        FineVocab(reserved_symbols() + ["a", "a"])


def test_fine_vocab_empty_entry_rejected():
    # an empty entry could not be saved: its blank line would move every later id
    with pytest.raises(DataError, match="empty vocabulary entry"):
        FineVocab.from_subwords(["a", "", "b"])


@pytest.mark.parametrize("entry", ["a\x0cb", "a\u2028b"])
def test_fine_vocab_entry_with_a_line_break_rejected(entry):
    # str.splitlines breaks lines at \x0c and \u2028 too, so the saved
    # file would load with one more token and move every later id
    with pytest.raises(DataError, match=f"id {len(reserved_symbols())} "):
        FineVocab.from_subwords([entry, "c"])


def test_fine_vocab_blank_line_before_a_token_rejected(tmp_path):
    text = "\n".join(reserved_symbols() + ["a", "b"]) + "\n"
    p = tmp_path / "vocab.txt"
    p.write_text(text + "\n\n", encoding="utf-8")  # trailing blank lines hold no id
    assert FineVocab.load(p).tokens == reserved_symbols() + ["a", "b"]
    lines = text.splitlines()
    for at in (0, len(lines) - 1):
        p.write_text("\n".join(lines[:at] + [""] + lines[at:]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"line {at + 1} is blank"):
            FineVocab.load(p)


def test_fine_vocab_missing_reserved_rejected():
    with pytest.raises(DataError):
        FineVocab(["a", "b"])


def test_fine_vocab_save_load_roundtrip(tmp_path):
    v = FineVocab.from_subwords(["foo", "bar", "##z"])
    p = tmp_path / "vocab.txt"
    v.save(p)
    w = FineVocab.load(p)
    assert w.tokens == v.tokens
    v.save(tmp_path / "vocab2.txt")
    assert (tmp_path / "vocab.txt").read_bytes() == (tmp_path / "vocab2.txt").read_bytes()


# --- subword tokenization ----------------------------------------------------

def test_subword_greedy_longest_match():
    # [DERIVED] "unhappiness" -> un ##happi ##ness under this vocab
    v = FineVocab.from_subwords(
        ["un", "##happi", "##ness", "##happ", "##h", "happy", "x1"])
    ids, spans = subword_tokenize(["unhappiness", "x1"], v)
    toks = [v.tokens[i] for i in ids]
    assert toks == ["un", "##happi", "##ness", "x1"]
    assert spans == [(0, 3), (3, 4)]


def test_subword_oov_maps_to_unk():
    v = FineVocab.from_subwords(["ab"])
    ids, spans = subword_tokenize(["ab", "zq"], v)
    assert ids == [v.index["ab"], v.unk_id]
    assert spans == [(0, 1), (1, 2)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=6), min_size=1, max_size=6))
def test_subword_spans_tile_the_ids(words):
    # [TRIVIAL] spans are contiguous, ordered and cover ids exactly
    v = FineVocab.from_subwords(["a", "b", "c", "##a", "##b", "##c"])
    ids, spans = subword_tokenize(words, v)
    assert spans[0][0] == 0 and spans[-1][1] == len(ids)
    for (lo, hi), (lo2, _) in zip(spans, spans[1:]):
        assert hi == lo2 and lo < hi


def test_subword_cache_is_per_vocabulary():
    # "abc" splits as [ab, ##c] under one vocabulary and [a, ##bc] under the
    # other, and the ids differ too ("zz" shifts the second vocabulary's)
    v1 = FineVocab.from_subwords(["ab", "##c"])
    v2 = FineVocab.from_subwords(["zz", "a", "##bc"])
    ids1, _ = subword_tokenize(["abc"], v1)
    ids2, _ = subword_tokenize(["abc"], v2)
    assert [v1.tokens[i] for i in ids1] == ["ab", "##c"]
    assert [v2.tokens[i] for i in ids2] == ["a", "##bc"]
    assert subword_tokenize(["abc"], v1)[0] == ids1


def test_subword_oov_stays_unk_when_repeated():
    v = FineVocab.from_subwords(["ab"])
    first = subword_tokenize(["zq", "ab", "zq"], v)
    assert first == ([v.unk_id, v.index["ab"], v.unk_id], [(0, 1), (1, 2), (2, 3)])
    assert subword_tokenize(["zq"], v) == ([v.unk_id], [(0, 1)])


SHARED_VOCAB = FineVocab.from_subwords(["a", "b", "ab", "##a", "##b", "##ab", "c"])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="abcz", min_size=1, max_size=6), min_size=1, max_size=8))
def test_subword_repeated_calls_agree(words):
    # one vocabulary shared across examples, so later calls hit words cached earlier
    first = subword_tokenize(words, SHARED_VOCAB)
    assert subword_tokenize(words, SHARED_VOCAB) == first
    assert subword_tokenize(words, FineVocab(SHARED_VOCAB.tokens)) == first
