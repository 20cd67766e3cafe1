"""Mask plan construction, sampling and the binary record format.

The six-word toy example (fixtures) mirrors the classic worked layout:
segments [x1][x2 x3][x4][x5][x6], masked set {2, 4}.
"""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ngramlm import (
    FineVocab,
    Objective,
    RngState,
    WordStream,
    build_attention_mask,
    build_joint_vocab,
    build_plan,
    count_ngrams,
    extract_lexicon,
    make_plans,
    sample_mask,
    segment_example,
    subword_tokenize,
)
from ngramlm import corpus, pipeline
from ngramlm.errors import NgramlmError, PlanError, PlanFormatError, UsageError, VersionError
from ngramlm.maskplan import (
    PLAN_VERSION,
    PlanView,
    read_plan_file,
    relation_from_comprehensive,
    write_plan_file,
)
from ngramlm.synth import CollocationSpec, collocation_corpus

from conftest import RefPlan, lex_from, ref_of, reference_serialize, store_of

MASKED = (2, 4)


def fid(vocab, tok):
    return vocab.index[tok]


def one(plan: RefPlan) -> PlanView:
    """A hand-made plan as the view of a one-plan store."""
    return store_of([plan])[0]


def plan_file(path, plans, provenance=None) -> bytes:
    """The bytes that write_plan_file writes for the store ``plans``: the
    file header, then one record a plan."""
    write_plan_file(path, plans, provenance)
    return path.read_bytes()


def header_size(data: bytes) -> int:
    """The bytes before a plan file's first record: magic, u16 version,
    u32 provenance length and the provenance."""
    return 10 + int.from_bytes(data[6:10], "little")


def read_back(path, data: bytes) -> list:
    """The plans of a plan file holding ``data``, in the reference form;
    error offsets count from the file's first byte."""
    path.write_bytes(data)
    return [ref_of(view) for view in read_plan_file(path)[1]]


@pytest.fixture(scope="module")
def plan_path(tmp_path_factory):
    """One file path for the property tests, rewritten by each example."""
    return tmp_path_factory.mktemp("records") / "plans.bin"


# --- the four layouts on the toy example --------------------------------------

def test_contiguous_layout(toy_example, toy_vocab, toy_jv):
    plan = ref_of(build_plan(Objective.CONTIGUOUS, toy_example, MASKED, toy_jv))
    m = toy_vocab.mask_id
    x = {i: fid(toy_vocab, f"x{i}") for i in range(1, 7)}
    # z = {x1, [M], [M], x4, [M], x6}
    assert plan.context_ids == (x[1], m, m, x[4], m, x[6])
    assert plan.context_positions == (1, 2, 3, 4, 5, 6)
    assert plan.Q == 0 and plan.targets_coarse == ()
    assert plan.targets_fine == ((1, x[2]), (2, x[3]), (4, x[5]))


def test_explicit_layout(toy_example, toy_vocab, toy_jv):
    plan = ref_of(build_plan(Objective.EXPLICIT, toy_example, MASKED, toy_jv))
    m = toy_vocab.mask_id
    x = {i: fid(toy_vocab, f"x{i}") for i in range(1, 7)}
    y2 = toy_jv.id_of_ngram(("x2", "x3"))
    # z = {x1, [M], x4, [M], x6}; targets are joint identities y2, y4
    assert plan.context_ids == (x[1], m, x[4], m, x[6])
    assert plan.targets_coarse == ((1, y2), (3, x[5]))
    assert plan.targets_fine == ()
    assert y2 == len(toy_vocab)  # first n-gram id sits right after the fine ids


def test_comprehensive_layout(toy_example, toy_vocab, toy_jv):
    plan = ref_of(build_plan(Objective.COMPREHENSIVE, toy_example, MASKED, toy_jv))
    x = {i: fid(toy_vocab, f"x{i}") for i in range(1, 7)}
    assert plan.T == 5 and plan.Q == 3
    # [M1][M2] for the bigram slot, [M1] for the unigram slot
    assert plan.query_ids == (toy_vocab.query_id(1), toy_vocab.query_id(2),
                              toy_vocab.query_id(1))
    # queries share the owning slot's position id (slot index + 1)
    assert plan.query_positions == (2, 2, 4)
    assert plan.targets_coarse == ((1, toy_jv.id_of_ngram(("x2", "x3"))), (3, x[5]))
    assert plan.targets_fine == ((5, x[2]), (6, x[3]), (7, x[5]))


def test_relation_layout_and_rtd_labels(toy_example, toy_jv):
    base = build_plan(Objective.COMPREHENSIVE, toy_example, MASKED, toy_jv)
    right = [y for _, y in base.targets_coarse]
    filled, labels = relation_from_comprehensive(base.store, right)
    plan = ref_of(filled[0])
    assert plan.objective == Objective.RELATION
    assert labels.dtype == np.uint8
    assert labels.tolist() == [1] * plan.T  # correct identities everywhere
    assert plan.context_ids[1] == right[0] and plan.context_ids[3] == right[1]
    wrong = [right[0] + 1, right[1]]
    assert relation_from_comprehensive(base.store, wrong)[1].tolist() == [1, 0, 1, 1, 1]
    with pytest.raises(UsageError):
        relation_from_comprehensive(base.store, right[:1])


def test_one_plan_fills_equal_their_rows_of_the_batch_fill(toy_example, toy_jv):
    # one copy of a store's fields fills every plan; each filled plan
    # equals the fill of that plan's one-plan store, one without slots
    # included
    vocab = FineVocab.from_subwords(["a", "##b", "c"])
    lex = lex_from([("c", "c")])
    fallback = (segment_example(("ab", "c"), lex, vocab), (1,), build_joint_vocab(vocab, lex))
    cases = [(toy_example, masked, toy_jv) for masked in ((2, 4), (1, 3, 5), (2,), (5,))]
    cases.insert(2, fallback)
    g = np.random.default_rng(4)
    comps, sampled = [], []
    for ex, masked, jv in cases:
        comps.append(build_plan(Objective.COMPREHENSIVE, ex, masked, jv))
        sampled.append(g.integers(0, len(jv), len(comps[-1].targets_coarse)).tolist())
    assert [len(s) for s in sampled] == [2, 3, 0, 1, 1]
    filled, labels = relation_from_comprehensive(store_of(comps),
                                                 [y for ids in sampled for y in ids])
    assert len(filled) == len(cases) and len(labels) == filled.T.sum()
    per_plan = np.split(labels, np.cumsum(filled.T)[:-1])
    for k, (ex, masked, jv) in enumerate(cases):
        one, want_labels = relation_from_comprehensive(
            build_plan(Objective.RELATION, ex, masked, jv).store, sampled[k])
        assert filled[k] == one[0] and per_plan[k].tolist() == want_labels.tolist(), k
    assert per_plan[2].tolist() == [0, 0, 1]
    with pytest.raises(UsageError):
        relation_from_comprehensive(store_of(comps), [0] * 6)


def test_invalid_masked_sets(toy_example, toy_jv):
    with pytest.raises(UsageError):
        build_plan(Objective.CONTIGUOUS, toy_example, (), toy_jv)
    with pytest.raises(UsageError):
        build_plan(Objective.CONTIGUOUS, toy_example, (6,), toy_jv)


def test_masked_ngram_missing_from_lexicon_is_an_error(toy_vocab, toy_jv):
    # force a multi-word segment that the joint vocab cannot identify
    ex = segment_example(tuple(f"x{i}" for i in range(1, 7)),
                         lex_from([("x2", "x3"), ("x5", "x6")]), toy_vocab)
    jv_small = toy_jv  # knows only ("x2","x3")
    with pytest.raises(PlanError):
        build_plan(Objective.EXPLICIT, ex, (4,), jv_small)


def test_multi_subword_word_falls_back_to_contiguous():
    # "ab" splits into two subwords -> no single fine identity
    vocab = FineVocab.from_subwords(["a", "##b", "c"])
    lex = lex_from([("c", "c")])
    ex = segment_example(("ab", "c"), lex, vocab)
    plan = ref_of(build_plan(Objective.EXPLICIT, ex, (1,), build_joint_vocab(vocab, lex)))
    m = vocab.mask_id
    assert plan.context_ids == (m, m, vocab.index["c"])
    assert plan.targets_coarse == ()
    assert plan.targets_fine == ((0, vocab.index["a"]), (1, vocab.index["##b"]))
    # relation labels mark fallback [M] positions as replaced
    comp = build_plan(Objective.COMPREHENSIVE, ex, (1,), build_joint_vocab(vocab, lex))
    assert relation_from_comprehensive(comp.store, [])[1].tolist() == [0, 0, 1]


def test_segment_example_tokenizes_through_the_corpus_module(toy_vocab, monkeypatch):
    # subword_tokenize is read from ngramlm.corpus at each call, so a
    # wrapper set there (as the benchmark's tracer sets one) sees every call;
    # it receives the word tuple that extract_boundaries built
    calls = []

    def spy(words, vocab):
        calls.append(words)
        return subword_tokenize(words, vocab)

    monkeypatch.setattr(corpus, "subword_tokenize", spy)
    words = ["x1", "x2", "x3"]
    ex = segment_example(words, lex_from([("x2", "x3")]), toy_vocab)
    assert calls == [("x1", "x2", "x3")] and calls[0] is ex.boundaries.words
    assert ex.subword_ids == tuple(toy_vocab.index[w] for w in words)


# --- every layout against a reference built from the README's definitions -----

# greedy longest match splits these words into one to four subwords
LAYOUT_SUBWORDS = ["a", "b", "c", "ab", "##a", "##b", "##c"]
LAYOUT_WORDS = ["a", "b", "c", "ab", "ba", "abc", "cab", "abcab", "z"]


def reference_plan(objective, ex, masked, vocab, jv, sampled=None):
    """(the plan of ``objective``, its RTD labels or None) as the README
    defines them, segment by segment.

    contiguous: each masked subword becomes its own [M] with a fine target.
    explicit: a masked segment with one joint identity (a lexicon n-gram,
    or a word that is one subword) of at most ``max_query`` subwords
    becomes one [M] slot with a coarse target; any other masked segment
    falls back to the contiguous layout.  comprehensive: explicit plus
    [M1..Mn] queries at the slot's position id, their fine targets after
    the fallback ones.  relation: comprehensive with each slot filled by
    its sampled identity, and RTD labels, one per context position: 0 at a
    wrong identity or a fallback [M], 1 elsewhere.
    """
    b = ex.boundaries.boundaries
    seg_words = ex.boundaries.segments()
    seg_subs = [[s for w in range(b[k] - 1, b[k + 1] - 1)
                 for s in ex.subword_ids[ex.word_spans[w][0] : ex.word_spans[w][1]]]
                for k in range(len(b) - 1)]
    chosen = sorted(set(masked))
    identity = {}
    if objective != Objective.CONTIGUOUS:
        for j in chosen:
            words, subs = seg_words[j - 1], seg_subs[j - 1]
            if len(words) > 1:
                y = jv.id_of_ngram(words)
                if y is None:
                    raise PlanError(f"{words} not in the joint vocabulary")
            else:
                y = subs[0] if len(subs) == 1 else None
            if y is not None and len(subs) <= vocab.max_query:
                identity[j] = y
    m = vocab.mask_id
    pieces = [[m] if j in identity else [m] * len(subs) if j in chosen else list(subs)
              for j, subs in enumerate(seg_subs, 1)]
    start = [0]
    for piece in pieces:
        start.append(start[-1] + len(piece))
    context = [t for piece in pieces for t in piece]
    T = len(context)
    coarse = [(start[j - 1], identity[j]) for j in chosen if j in identity]
    fine = [(start[j - 1] + i, s) for j in chosen if j not in identity
            for i, s in enumerate(seg_subs[j - 1])]
    query_ids, query_positions = [], []
    if objective in (Objective.COMPREHENSIVE, Objective.RELATION):
        for j in chosen:
            if j in identity:
                for i, s in enumerate(seg_subs[j - 1]):
                    fine.append((T + len(query_ids), s))
                    query_ids.append(vocab.index[f"[M{i + 1}]"])
                    query_positions.append(start[j - 1] + 1)
    rtd = None
    if objective == Objective.RELATION:
        rtd = [1] * T
        for (slot, y), y_prime in zip(coarse, sampled):
            context[slot] = y_prime
            rtd[slot] = int(y_prime == y)
        for idx, _ in fine:
            if idx < T:
                rtd[idx] = 0
        rtd = tuple(rtd)
    return RefPlan(objective, tuple(context), tuple(range(1, T + 1)), tuple(query_ids),
                   tuple(query_positions), tuple(coarse), tuple(fine)), rtd


@st.composite
def layout_case_st(draw):
    """A segmented word sequence, a joint vocabulary that may lack some of
    its n-grams, and a masked set in any order, repeats allowed."""
    words = draw(st.lists(st.sampled_from(LAYOUT_WORDS), min_size=1, max_size=12))
    windows = draw(st.lists(st.tuples(st.integers(0, len(words) - 1), st.integers(2, 3)),
                            min_size=1, max_size=6))
    ngrams = sorted({tuple(words[i : i + n]) for i, n in windows if i + n <= len(words)})
    known = [g for g in ngrams if draw(st.booleans()) or draw(st.booleans())]
    vocab = FineVocab.from_subwords(LAYOUT_SUBWORDS, max_query=draw(st.integers(1, 4)))
    ex = segment_example(tuple(words), lex_from(ngrams), vocab)
    masked = draw(st.lists(st.integers(1, ex.boundaries.num_segments), min_size=1, max_size=6))
    if draw(st.booleans()):  # mask every multi-word segment too
        b = ex.boundaries.boundaries
        masked = draw(st.permutations(masked + [j for j in range(1, len(b))
                                                if b[j] - b[j - 1] > 1]))
    return ex, masked, vocab, build_joint_vocab(vocab, lex_from(known))


@settings(max_examples=300, deadline=None)
@given(layout_case_st(), st.data())
def test_every_layout_equals_the_reference(case, data):
    ex, masked, vocab, jv = case
    try:
        slots = len(reference_plan(Objective.EXPLICIT, ex, masked, vocab, jv)[0].targets_coarse)
    except PlanError:
        slots = 0
    sampled = data.draw(st.lists(st.integers(0, len(jv) - 1), min_size=slots, max_size=slots))

    def build(objective):
        plan = build_plan(objective, ex, masked, jv)
        if objective == Objective.RELATION:
            filled, labels = relation_from_comprehensive(plan.store, sampled)
            return filled[0], labels
        return plan, None

    for objective in Objective:
        try:
            want, want_labels = reference_plan(objective, ex, masked, vocab, jv, sampled)
        except PlanError:
            with pytest.raises(PlanError):
                build(objective)
            continue
        got, labels = build(objective)
        got = ref_of(got)
        for f in dataclasses.fields(RefPlan):
            assert getattr(got, f.name) == getattr(want, f.name), (objective, f.name)
        assert (None if labels is None else tuple(labels.tolist())) == want_labels, objective


# --- attention mask ------------------------------------------------------------

def test_attention_mask_structure(toy_example, toy_jv):
    plan = build_plan(Objective.COMPREHENSIVE, toy_example, MASKED, toy_jv)
    m = build_attention_mask(plan)
    T, Q = plan.T, plan.Q
    assert m.shape == (T + Q, T + Q)
    assert np.all(m[:, :T] == 0.0)  # everyone sees the context
    assert np.all(m[:T, T:] == -np.inf)  # context never sees queries
    off_diag = m[T:, T:].copy()
    np.fill_diagonal(off_diag, -np.inf)
    assert np.all(off_diag == -np.inf)  # queries never see each other
    assert np.all(np.diag(m[T:, T:]) == 0.0)  # but do see themselves


def test_attention_mask_no_queries_is_all_zero(toy_example, toy_jv):
    plan = build_plan(Objective.CONTIGUOUS, toy_example, MASKED, toy_jv)
    assert not build_attention_mask(plan).any()


# --- sampling ------------------------------------------------------------------

def test_sample_mask_quota_and_adjacency(toy_example):
    g = RngState(0)
    b = toy_example.boundaries
    for _ in range(200):
        chosen = sample_mask(b, 0.4, g)
        assert len(chosen) == 2  # round(0.4 * 5)
        assert all(1 <= j <= 5 for j in chosen)
        assert all(b2 - b1 >= 2 for b1, b2 in zip(chosen, chosen[1:]))


def test_sample_mask_minimum_one(toy_example):
    chosen = sample_mask(toy_example.boundaries, 0.05, RngState(1))
    assert len(chosen) == 1


def test_sample_mask_candidates_filter(toy_example):
    for seed in range(50):
        chosen = sample_mask(toy_example.boundaries, 0.15, RngState(seed),
                             candidates=[2])
        assert chosen == (2,)


def test_sample_mask_errors(toy_example):
    with pytest.raises(UsageError):
        sample_mask(toy_example.boundaries, 0.0, RngState(0))
    with pytest.raises(UsageError):
        sample_mask(toy_example.boundaries, 1.5, RngState(0))
    with pytest.raises(UsageError):
        sample_mask(toy_example.boundaries, 0.15, RngState(0), candidates=[99])


def test_rng_state_is_deterministic_and_advances():
    a, b = RngState(42), RngState(42)
    assert a.next_generator().integers(1 << 30) == b.next_generator().integers(1 << 30)
    assert a.counter == 1
    # different counters key different generators
    x = RngState(42, 0).next_generator().integers(1 << 30)
    y = RngState(42, 1).next_generator().integers(1 << 30)
    assert x != y


def philox(seed, c):
    """The generator that the key (seed, c) selects, built afresh by
    ``np.random.default_rng`` over a new Philox bit generator.  The key and
    counter are Python ints: a list key casts through float."""
    return np.random.default_rng(np.random.Philox(key=seed % 2**64, counter=c << 64))


@pytest.mark.parametrize("seed", [0, 11, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -5])
@pytest.mark.parametrize("start", [0, 255, 256, 897, 2**32 - 1, 2**32, 2**63, 2**64 - 3])
def test_keyed_draw_equals_default_rng(seed, start):
    # three consecutive keys from ``start``: from 2**32 - 1 the counter gains
    # a second 32-bit word, from 2**64 - 3 the walk ends at the last counter
    rng = RngState(seed, start)
    for c in range(start, start + 3):
        g = rng.next_generator()
        want = philox(seed, c)
        assert np.array_equal(g.permutation(14), want.permutation(14)), c
        assert np.array_equal(g.random(5), want.random(5)), c
        assert np.array_equal(g.integers(0, 2**40, 5), want.integers(0, 2**40, 5)), c
    assert rng.counter == start + 3


@pytest.mark.parametrize("counter", [-1, 2**64])
def test_keyed_draw_counter_out_of_range_is_a_usage_error(counter):
    rng = RngState(7, counter)
    with pytest.raises(UsageError):
        rng.next_generator()
    assert rng.counter == counter


def test_consecutive_counters_give_distinct_streams():
    rng = RngState(11)
    first = {int(rng.next_generator().bit_generator.random_raw()) for _ in range(10_000)}
    assert len(first) == 10_000


def default_rng_sample_mask(b, rate, rng, candidates=None):
    """``sample_mask`` drawing from a freshly built ``philox`` generator per key."""
    n = b.num_segments
    if candidates is None:
        candidates = list(range(1, n + 1))
    quota = max(1, round(rate * n))
    g = philox(rng.seed, rng.counter)
    rng.counter += 1
    chosen = set()
    for idx in g.permutation(len(candidates)):
        j = candidates[idx]
        if j - 1 in chosen or j + 1 in chosen:
            continue
        chosen.add(j)
        if len(chosen) >= quota:
            break
    return tuple(sorted(chosen))


@pytest.fixture(scope="module")
def plan_pipeline():
    spec = CollocationSpec(n_topics=6, phrases_per_topic=4)
    stream, inventory, _ = collocation_corpus(552, seed=3, spec=spec)
    lex = extract_lexicon(count_ngrams(stream, 2), {2: 24}, min_count=3)
    return stream, lex, build_joint_vocab(FineVocab.from_subwords(inventory), lex)


@pytest.mark.parametrize("ngram_only", [False, True])
@pytest.mark.parametrize("objective", list(Objective))
def test_make_plans_equal_default_rng_draws(plan_pipeline, objective, ngram_only, monkeypatch):
    stream, lex, jv = plan_pipeline
    got = make_plans(stream, lex, jv, objective, seed=2**40 + 9, ngram_only=ngram_only)
    monkeypatch.setattr(pipeline, "sample_mask", default_rng_sample_mask)
    want = make_plans(stream, lex, jv, objective, seed=2**40 + 9, ngram_only=ngram_only)
    assert len(got) > 500
    assert got == want



@pytest.mark.parametrize("objective, rate", [(7, 0.15), (Objective.EXPLICIT, float("nan"))])
def test_make_plans_refuses_bad_arguments_before_any_document(plan_pipeline, objective, rate):
    _, lex, jv = plan_pipeline
    with pytest.raises(UsageError):
        make_plans(WordStream([]), lex, jv, objective, rate=rate)

# sha256 (first 16 hex digits) of the plan records, without a file header and
# so without the version string, that make_plans writes for the corpus,
# lexicon and seed below.  max_query 2 sends every masked trigram to the
# contiguous fallback.  A deliberate change to the mask draws or the record
# format updates these pins and says so in CHANGES.md.
PLAN_RECORD_DIGESTS = {
    ("contiguous", False): "a243704b5c2e30be",
    ("contiguous", True): "4b69feec25acadbc",
    ("explicit", False): "fd8704d11e7eb1ec",
    ("explicit", True): "81f37f24a5247e20",
    ("comprehensive", False): "3a88f47ac79a272d",
    ("comprehensive", True): "ab10e43a0d0b5bc7",
    ("relation", False): "3a88f47ac79a272d",
    ("relation", True): "ab10e43a0d0b5bc7",
}


@pytest.fixture(scope="module")
def pinned_pipeline():
    spec = CollocationSpec(n_topics=4, phrases_per_topic=3, phrase_len=3)
    stream, inventory, _ = collocation_corpus(240, seed=5, spec=spec)
    lex = extract_lexicon(count_ngrams(stream, 3), {2: 16, 3: 8}, min_count=2)
    return stream, lex, build_joint_vocab(FineVocab.from_subwords(inventory, max_query=2), lex)


@pytest.mark.parametrize("ngram_only", [False, True])
@pytest.mark.parametrize("objective", list(Objective))
def test_plan_records_match_pinned_digests(pinned_pipeline, objective, ngram_only, tmp_path):
    stream, lex, jv = pinned_pipeline
    plans = make_plans(stream, lex, jv, objective, rate=0.3, seed=7, ngram_only=ngram_only)
    data = plan_file(tmp_path / "plans.bin", plans)
    digest = hashlib.sha256(data[header_size(data):]).hexdigest()[:16]
    assert digest == PLAN_RECORD_DIGESTS[objective.name.lower(), ngram_only]


# PlanStore.sha256() of the pinned pipeline's stores, as a training
# checkpoint records it: a resume compares the digest of its plans with
# the checkpoint's, so a checkpoint written before plans lost their RTD
# labels keeps resuming only while these hold
STORE_DIGESTS = {
    "explicit": "0af7878a49c63995eaa3bb7dbe858529609d93da53b93f6c3589da9a3e66a453",
    "comprehensive": "a900d89f31964e2747a8792b932496339ca12ff1c6e496af0f7ffd1eb2c0d0f3",
}


@pytest.mark.parametrize("objective", sorted(STORE_DIGESTS))
def test_plan_store_digest_is_pinned(pinned_pipeline, objective):
    stream, lex, jv = pinned_pipeline
    plans = make_plans(stream, lex, jv, Objective[objective.upper()], rate=0.3, seed=7)
    assert plans.sha256() == STORE_DIGESTS[objective]


@pytest.mark.parametrize("max_positions", [None, 21])
@pytest.mark.parametrize("ngram_only", [False, True])
@pytest.mark.parametrize("objective", list(Objective))
def test_make_plans_equal_the_builders_views(pinned_pipeline, objective, ngram_only,
                                             max_positions):
    # make_plans' store equals build_plan's one-plan views of the same
    # examples and masked sets, joined in order, and its counts name each
    # document it left out and each masked identity over the query budget
    stream, lex, jv = pinned_pipeline
    vocab = jv.fine
    # an empty document, and one whose only segment is a word
    docs = list(stream)
    docs[100:100] = [[]]
    docs[200:200] = [["zz"]]
    got = make_plans(WordStream(docs), lex, jv, objective, rate=0.3, seed=7,
                     ngram_only=ngram_only, max_positions=max_positions)

    rng = RngState(7)
    views, counts = [], dict.fromkeys(("skipped_no_segment", "skipped_over_max_positions",
                                       "skipped_no_candidate", "fallback_segments"), 0)
    for doc in docs:
        ex = segment_example(doc, lex, vocab)
        b = ex.boundaries.boundaries
        multiword = [j for j in range(1, len(b)) if b[j] - b[j - 1] > 1]
        if not doc:
            counts["skipped_no_segment"] += 1
        elif max_positions is not None and len(ex.subword_ids) > max_positions:
            counts["skipped_over_max_positions"] += 1
        elif ngram_only and not multiword:
            counts["skipped_no_candidate"] += 1
        else:
            masked = sample_mask(ex.boundaries, 0.3, rng, multiword if ngram_only else None)
            views.append(build_plan(objective, ex, masked, jv))
            for j in masked if objective != Objective.CONTIGUOUS else ():
                lo, hi = ex.word_spans[b[j - 1] - 1][0], ex.word_spans[b[j] - 2][1]
                identity = j in multiword or hi - lo == 1
                counts["fallback_segments"] += identity and hi - lo > vocab.max_query
    assert all(isinstance(v, PlanView) and len(v.store) == 1 for v in views)
    assert got == store_of(views) and len(got) == len(views)
    assert got.counts == counts
    assert counts["skipped_no_segment"] == 1 and counts["skipped_no_candidate"] == ngram_only
    assert (counts["skipped_over_max_positions"] > 0) == (max_positions is not None)
    assert (counts["fallback_segments"] > 0) == (objective != Objective.CONTIGUOUS)


# --- binary format -------------------------------------------------------------

ids_st = st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=10)


@st.composite
def plan_st(draw):
    T = draw(st.integers(min_value=1, max_value=10))
    Q = draw(st.integers(min_value=0, max_value=5))
    u32 = st.integers(min_value=0, max_value=2**32 - 1)
    ctx = tuple(draw(u32) for _ in range(T))
    qids = tuple(draw(u32) for _ in range(Q))
    cpos = tuple(range(1, T + 1))
    qpos = tuple(draw(st.integers(min_value=1, max_value=T)) for _ in range(Q))
    n_c = draw(st.integers(min_value=0, max_value=min(T, 3)))
    coarse = tuple((i, draw(u32)) for i in range(n_c))
    n_f = draw(st.integers(min_value=0, max_value=3))
    fine = tuple((draw(st.integers(min_value=0, max_value=T + Q - 1)), draw(u32))
                 for _ in range(n_f))
    objective = draw(st.sampled_from(list(Objective)))
    return RefPlan(objective, ctx, cpos, qids, qpos, coarse, fine)


@settings(max_examples=120, deadline=None)
@given(plan_st())
def test_serialization_roundtrip(plan_path, plan):
    assert read_back(plan_path, plan_file(plan_path, one(plan).store)) == [plan]


@settings(max_examples=60, deadline=None)
@given(plan_st(), st.integers(min_value=1, max_value=40))
def test_truncation_always_detected(plan_path, plan, cut):
    # a cut anywhere in the record, which a shorter valid file never ends in
    data = plan_file(plan_path, one(plan).store)
    cut = min(cut, len(data) - header_size(data) - 1)
    with pytest.raises(PlanFormatError):
        read_back(plan_path, data[:-cut])


def test_version_mismatch_detected(toy_example, toy_jv, tmp_path):
    path = tmp_path / "plans.bin"
    data = bytearray(plan_file(path, build_plan(Objective.CONTIGUOUS, toy_example, MASKED,
                                                toy_jv).store))
    data[header_size(data) + 4] = 99  # the record's version follows its u32 length prefix
    with pytest.raises(VersionError):
        read_back(path, bytes(data))


def test_trailing_bytes_detected(toy_example, toy_jv, tmp_path):
    path = tmp_path / "plans.bin"
    data = plan_file(path, build_plan(Objective.CONTIGUOUS, toy_example, MASKED, toy_jv).store)
    # extend the payload by one byte and fix up the length prefix
    at = header_size(data)
    new_len = int.from_bytes(data[at:at + 4], "little") + 1
    corrupted = data[:at] + new_len.to_bytes(4, "little") + data[at + 4:] + b"\x00"
    with pytest.raises(PlanFormatError) as e:
        read_back(path, corrupted)
    assert e.value.offset == len(data)


@settings(max_examples=40, deadline=None)
@given(st.lists(plan_st(), min_size=1, max_size=4))
def test_plan_store_digest_changes_with_any_plan_field(plans):
    # the digest a training checkpoint records: equal stores share it, and
    # a change to one plan's objective or a u32 field moves it
    store = store_of(plans)
    digest = store.sha256()
    assert digest == store_of(plans).sha256() == store.take(range(len(plans))).sha256()
    plan = plans[0]
    for other in (dataclasses.replace(plan, objective=Objective((plan.objective + 1) % 4)),
                  dataclasses.replace(plan, context_ids=(plan.context_ids[0] ^ 1,)
                                      + plan.context_ids[1:])):
        assert store_of([other, *plans[1:]]).sha256() != digest


def test_plan_file_roundtrip(tmp_path, toy_example, toy_jv):
    plans = store_of([
        build_plan(Objective.CONTIGUOUS, toy_example, MASKED, toy_jv),
        build_plan(Objective.EXPLICIT, toy_example, MASKED, toy_jv),
        build_plan(Objective.COMPREHENSIVE, toy_example, MASKED, toy_jv),
    ])
    path = tmp_path / "plans.bin"
    write_plan_file(path, plans, {"note": "toy"})
    prov, back = read_plan_file(path)
    assert prov == {"note": "toy"}
    assert back == plans


@settings(max_examples=60, deadline=None)
@given(st.lists(plan_st(), max_size=6), st.data())
def test_plan_store_indexes_like_the_list(plans, data):
    store = store_of(plans)
    assert len(store) == len(plans) and [ref_of(view) for view in store] == plans
    for k, plan in enumerate(plans):
        view = store[k - len(plans) if k % 2 else k]
        assert ref_of(view) == plan and view == one(plan)
        # a view differs from one that differs in its objective or a u32 field
        for other in (dataclasses.replace(plan, objective=Objective((plan.objective + 1) % 4)),
                      dataclasses.replace(plan, context_ids=(plan.context_ids[0] ^ 1,)
                                          + plan.context_ids[1:])):
            assert view != one(other)
        assert view.ids.tolist() == list(plan.all_ids())
        assert view.positions.tolist() == list(plan.all_positions())
        assert [tuple(p) for p in view.fine.tolist()] == list(plan.targets_fine)
    sl = slice(*data.draw(st.tuples(*[st.none() | st.integers(-7, 7)] * 2)),
               data.draw(st.sampled_from([None, 1, 2, -1])))
    assert store[sl] == store_of(plans[sl]) and [ref_of(v) for v in store[sl]] == plans[sl]
    order = data.draw(st.lists(st.integers(0, max(len(plans) - 1, 0)), max_size=8)) if plans else []
    assert store.take(order) == store_of([plans[k] for k in order])
    for field in ("coarse", "fine"):
        pairs, at = store.gather(field)
        want = [(k, tuple(t)) for k, plan in enumerate(plans)
                for t in getattr(plan, "targets_" + field)]
        assert [(k, tuple(p)) for k, p in zip(at.tolist(), pairs.tolist())] == want
    ids, at = store.gather("query_ids")
    assert ids.tolist() == [x for plan in plans for x in plan.query_ids]
    repeats = [k for k, plan in enumerate(plans)
               if any(len({i for i, _ in t}) < len(t)
                      for t in (plan.targets_coarse, plan.targets_fine))]
    assert store.repeated_target(store.gather("coarse"), store.gather("fine")) == min(
        repeats, default=None)


def test_plan_file_bad_magic(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"XXXX garbage")
    with pytest.raises(PlanFormatError):
        read_plan_file(p)


# --- the per-field codec as references for the packed one ---------------------

def reference_parse(data, base_offset=0):
    pos = 0

    def take(fmt):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(data):
            raise PlanFormatError("truncated plan record", base_offset + pos)
        out = struct.unpack_from(fmt, data, pos)
        pos += size
        return out

    (payload_len,) = take("<I")
    if payload_len != len(data) - 4:
        raise PlanFormatError("record length mismatch", base_offset)
    version, objective, T, Q = take("<HBII")
    if version != PLAN_VERSION:
        raise VersionError(f"plan record version {version}")
    context_ids = take(f"<{T}I")
    positions = take(f"<{T + Q}I")
    query_ids = take(f"<{Q}I")
    (n_coarse,) = take("<I")
    coarse = tuple(take("<II") for _ in range(n_coarse))
    (n_fine,) = take("<I")
    fine = tuple(take("<II") for _ in range(n_fine))
    (has_rtd,) = take("<B")
    if has_rtd:  # plans hold no RTD labels
        raise PlanFormatError("RTD labels in a plan record", base_offset + pos - 1)
    if pos != len(data):
        raise PlanFormatError("trailing bytes after plan record", base_offset + pos)
    return RefPlan(Objective(objective), context_ids, positions[:T], query_ids, positions[T:],
                   coarse, fine)


def reference_read_records(data, pos):
    """Plans of a plan file's records from byte ``pos`` on, each parsed from a copy."""
    plans = []
    while pos < len(data):
        if pos + 4 > len(data):
            raise PlanFormatError("truncated record length prefix", pos)
        end = pos + 4 + int.from_bytes(data[pos:pos + 4], "little")
        if end > len(data):
            raise PlanFormatError("truncated plan record", pos)
        plans.append(reference_parse(data[pos:end], pos))
        pos = end
    return plans


def outcome(f, *args):
    """f's result, or the class and offset of the error it raised."""
    try:
        return f(*args)
    except (PlanFormatError, VersionError) as e:
        return type(e), getattr(e, "offset", None)


@settings(max_examples=120, deadline=None)
@given(plan_st())
def test_serialize_matches_reference_encoder(plan_path, plan):
    data = plan_file(plan_path, one(plan).store)
    assert data[header_size(data):] == reference_serialize(plan)


@settings(max_examples=60, deadline=None)
@given(st.lists(plan_st(), min_size=1, max_size=6))
def test_plan_file_reads_back_as_reference_decoder(tmp_path_factory, plans):
    path = tmp_path_factory.mktemp("plans") / "plans.bin"
    write_plan_file(path, store_of(plans), {"n": len(plans)})
    data = path.read_bytes()
    prov, back = read_plan_file(path)
    assert prov == {"n": len(plans)}
    back = [ref_of(view) for view in back]
    assert back == reference_read_records(data, 10 + int.from_bytes(data[6:10], "little"))
    assert back == plans


@settings(max_examples=80, deadline=None)
@given(plan_st(), st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=99))
def test_errors_keep_class_and_offset(plan_path, plan, cut, base):
    # truncation at any cut, trailing bytes, a length mismatch and a
    # version mismatch, each against the per-field decoder, in a file
    # whose header the provenance lengthens by ``base`` bytes
    raw = plan_file(plan_path, one(plan).store, {"pad": "x" * base})
    at = header_size(raw)
    head, data = raw[:at], raw[at:]
    cut = min(cut, len(data) - 4)
    short = (len(data) - 4 - cut).to_bytes(4, "little") + data[4:-cut]  # prefix fixed up
    longer = (len(data) - 3).to_bytes(4, "little") + data[4:] + b"\x00"
    for bad in (short, data[:-cut], longer, longer[:4] + data[4:], data[:4] + b"\x63" + data[5:]):
        got = outcome(read_back, plan_path, head + bad)
        assert got == outcome(reference_read_records, head + bad, at)
        assert isinstance(got, tuple) and got[0] in (PlanFormatError, VersionError)


@settings(max_examples=60, deadline=None)
@given(st.lists(plan_st(), min_size=1, max_size=4), st.data())
def test_file_error_offsets_match_reference(tmp_path_factory, plans, data):
    path = tmp_path_factory.mktemp("plans") / "plans.bin"
    write_plan_file(path, store_of(plans))
    raw = path.read_bytes()
    first = 10 + int.from_bytes(raw[6:10], "little")
    cut = data.draw(st.integers(min_value=first + 1, max_value=len(raw) - 1))
    bad = bytearray(raw[:cut])
    start = first
    while start + 4 + int.from_bytes(raw[start:start + 4], "little") <= cut:
        start += 4 + int.from_bytes(raw[start:start + 4], "little")
    if data.draw(st.booleans()) and cut - start >= 4:
        # the length prefix of the cut record agrees with the cut
        bad[start:start + 4] = (cut - start - 4).to_bytes(4, "little")
    path.write_bytes(bytes(bad))
    got = outcome(lambda p: [ref_of(view) for view in read_plan_file(p)[1]], path)
    assert got == outcome(reference_read_records, bytes(bad), first)
    if start < cut:  # a cut between records leaves a shorter valid file
        assert got[0] is PlanFormatError


@settings(max_examples=60, deadline=None)
@given(st.lists(plan_st(), min_size=1, max_size=3), st.data())
def test_set_rtd_flag_is_refused_like_the_reference(plan_path, plans, data):
    # plans hold no RTD labels: a record whose RTD flag is set, with or
    # without the label bytes the format once let follow it, is refused at
    # the flag's byte by the package's decoder and by the reference reader
    k = data.draw(st.integers(0, len(plans) - 1))
    plan = plans[k]
    flagged = reference_serialize(plan)[:-1] + b"\x01"
    if data.draw(st.booleans()):
        flagged = reference_serialize(plan, data.draw(st.lists(st.integers(0, 1),
                                                               min_size=plan.T, max_size=plan.T)))
    head = plan_file(plan_path, store_of([]), {"pad": "x" * data.draw(st.integers(0, 99))})
    before = head + b"".join(map(reference_serialize, plans[:k]))
    raw = before + flagged + b"".join(map(reference_serialize, plans[k + 1:]))
    got = outcome(read_back, plan_path, raw)
    assert got == outcome(reference_read_records, raw, header_size(raw))
    flag = len(before) + len(reference_serialize(plan)) - 1
    assert got == (PlanFormatError, flag) and raw[flag] == 1


# --- the decoder at the scale of a shard file -----------------------------------

@pytest.fixture(scope="module")
def big_store(plan_pipeline):
    """Over 2,000 plans, the four layouts in turn."""
    stream, lex, jv = plan_pipeline
    stores = [make_plans(stream, lex, jv, objective, seed=5) for objective in
              (Objective.CONTIGUOUS, Objective.EXPLICIT, Objective.COMPREHENSIVE)]
    sampled = np.random.default_rng(0).integers(0, len(jv), len(stores[2].gather("coarse")[0]))
    stores.append(relation_from_comprehensive(stores[2], sampled)[0])
    return store_of([s[k] for k in range(min(map(len, stores))) for s in stores])


@pytest.fixture(scope="module")
def big_records(big_store):
    """The reference record of each plan of ``big_store``."""
    return [reference_serialize(ref_of(view)) for view in big_store]


def test_a_large_file_reads_back_equal_to_the_store_written(tmp_path, big_store):
    # every alignment of the first record, which the provenance's length sets
    assert len(big_store) >= 2000 and set(big_store.objectives.tolist()) == set(Objective)
    path = tmp_path / "plans.bin"
    for pad in range(4):
        data = plan_file(path, big_store, {"pad": "x" * pad})
        prov, back = read_plan_file(path)
        assert prov == {"pad": "x" * pad} and back == big_store
        assert back.run.dtype == np.uint32 and back.objectives.dtype == np.uint8
        assert np.array_equal(back.starts, big_store.starts)
    assert [ref_of(view) for view in back] == reference_read_records(data, header_size(data))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_damage_late_in_a_large_file_raises_like_the_reference(plan_path, big_records, data):
    # one flipped byte, an unknown objective byte, a bad length prefix or a
    # cut inside a record past the 900th, against the per-field decoder, at
    # every alignment; a flip followed by a cut further on raises at the
    # flip's record first
    head = plan_file(plan_path, store_of([]), {"pad": "x" * data.draw(st.integers(0, 3))})
    k = data.draw(st.integers(900, len(big_records) - 1))
    start = len(head) + sum(map(len, big_records[:k]))
    end = start + len(big_records[k])
    raw = bytearray(head + b"".join(big_records))
    kind = data.draw(st.sampled_from(["flip", "objective", "prefix", "cut", "flip-then-cut"]))
    if kind in ("flip", "flip-then-cut"):
        raw[data.draw(st.integers(start, end - 1))] ^= data.draw(st.integers(1, 255))
    if kind == "objective":
        raw[start + 6] = data.draw(st.integers(len(Objective), 255))
    if kind == "prefix":
        length = end - start - 4
        bad = data.draw(st.integers(0, length + 12) | st.integers(0, 2**32 - 1))
        assume(bad != length)
        raw[start : start + 4] = bad.to_bytes(4, "little")
    if kind == "cut":
        raw = raw[: data.draw(st.integers(start + 1, end - 1))]
    if kind == "flip-then-cut":
        raw = raw[: data.draw(st.integers(min(end + 1, len(raw) - 1), len(raw) - 1))]
    got = outcome(read_back, plan_path, bytes(raw))
    try:
        want = outcome(reference_read_records, bytes(raw), len(head))
    except ValueError:  # the reference's Objective(byte) on record k's unknown objective
        assert raw[start + 6] >= len(Objective)
        want = (PlanFormatError, start + 6)
    assert got == want
    if kind in ("objective", "prefix", "cut"):
        assert got[0] in (PlanFormatError, VersionError) and got[1] >= start


def test_a_file_of_no_records_reads_as_an_empty_store(tmp_path):
    path = tmp_path / "plans.bin"
    write_plan_file(path, store_of([]), {"note": "empty"})
    prov, back = read_plan_file(path)
    assert prov == {"note": "empty"} and len(back) == 0 and list(back) == []
    assert back == store_of([]) and back.starts.tolist() == [0]
    assert back.run.dtype == np.uint32 and len(back.run) == 0


def test_unknown_objective_is_a_format_error(toy_example, toy_jv, tmp_path):
    path = tmp_path / "plans.bin"
    data = bytearray(plan_file(path, build_plan(Objective.CONTIGUOUS, toy_example, MASKED,
                                                toy_jv).store, {"note": "toy"}))
    at = header_size(data)
    assert at == 10 + len('{"note": "toy"}')
    data[at + 6] = 9  # objective byte: u32 length prefix, u16 version
    with pytest.raises(PlanFormatError) as e:
        read_back(path, bytes(data))
    assert e.value.offset == at + 6


@settings(max_examples=200, deadline=None)
@given(st.lists(plan_st(), min_size=1, max_size=4), st.data())
def test_damaged_plan_file_raises_only_package_errors(tmp_path_factory, plans, data):
    # ROADMAP item 4: flipped and truncated bytes of a valid plan file
    path = tmp_path_factory.mktemp("plans") / "plans.bin"
    write_plan_file(path, store_of(plans), {"note": "fuzz"})
    raw = bytearray(path.read_bytes())
    rnd = data.draw(st.randoms(use_true_random=False))  # uniform offsets, unlike st.integers
    lo = rnd.choice((0, 26, 26, 26))  # mostly in the records: 26 bytes of file header
    for _ in range(rnd.randint(1, 4)):
        raw[rnd.randrange(lo, len(raw))] ^= rnd.randrange(1, 256)
    if rnd.random() < 0.5:
        raw = raw[: rnd.randrange(len(raw))]
    path.write_bytes(bytes(raw))
    try:
        read_plan_file(path)
    except NgramlmError:
        pass


def test_every_single_byte_flip_raises_only_package_errors(tmp_path, toy_example, toy_jv):
    comp = build_plan(Objective.COMPREHENSIVE, toy_example, MASKED, toy_jv)
    plans = store_of([build_plan(Objective.CONTIGUOUS, toy_example, MASKED, toy_jv),
                      build_plan(Objective.EXPLICIT, toy_example, MASKED, toy_jv),
                      comp, relation_from_comprehensive(comp.store, [0, 1])[0][0]])
    path = tmp_path / "plans.bin"
    write_plan_file(path, plans, {"note": "flip"})
    good = path.read_bytes()
    damaged = [good[:cut] for cut in range(len(good))]
    damaged += [good[:i] + bytes([good[i] ^ mask]) + good[i + 1:]
                for i in range(len(good)) for mask in (0x01, 0x08, 0x80, 0xFF)]
    for data in damaged:
        path.write_bytes(data)
        try:
            read_plan_file(path)
        except NgramlmError:
            pass
