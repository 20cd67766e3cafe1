"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Lines are written to the real stdout (bypassing capture) so they appear
in the test log regardless of pytest's capture mode.  Every criterion is
also a hard assertion.
"""

import math
import sys
import time

import numpy as np

from ngramlm import (
    FineVocab,
    Objective,
    RngState,
    TrainConfig,
    build_attention_mask,
    build_joint_vocab,
    build_plan,
    count_ngrams,
    encode,
    eval_ngram_ppl,
    export_finetune_weights,
    extract_lexicon,
    generator_forward_and_sample,
    head_logits,
    init_params,
    make_plans,
    train,
)
from ngramlm.cli import main as cli_main
from ngramlm.lexicon import ScoredNGram, _selection_key
from ngramlm.maskplan import relation_from_comprehensive, segment_example
from ngramlm.model import FlatLayout, ModelConfig
from ngramlm.segmenter import enumerate_paths, extract_boundaries
from ngramlm.synth import CollocationSpec, collocation_corpus, write_corpus, zipf_corpus
from ngramlm.train import (
    AdamState,
    _bce_with_logits,
    adam_step,
    batch_loss_and_grad,
    generator_loss_terms,
    plan_loss_terms,
)
from ngramlm.corpus import WordStream

import conftest
from conftest import (
    RefPlan,
    lex_from,
    loss_and_grads,
    param_count,
    store_of,
    tiny_config,
    vanilla_encoder_param_count,
)


def check(n, name, passed, detail=""):
    line = f"ACCEPTANCE {n:02d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_REPORT.append(line)
    assert passed, line


# -----------------------------------------------------------------------------
# 1. lexicon oracle equivalence on a 50k-word corpus, < 10 s

def test_criterion_01_lexicon_oracle():
    t0 = time.monotonic()
    stream = zipf_corpus(50_000, seed=13, vocab_size=200)
    counts = count_ngrams(stream, 3)
    lex = extract_lexicon(counts, {2: 2000, 3: 1000}, min_count=5)

    # independent score-and-sort oracle (same IEEE operation order)
    oracle = {}
    n1 = counts.totals[1]
    for order, k in ((2, 2000), (3, 1000)):
        nl = counts.totals[order]
        scored = []
        for w, c in counts.counts[order].items():
            if c < 5:
                continue
            p = c / nl
            if p == 1.0:
                continue
            p_ind = 1.0
            for word in w:
                p_ind *= counts.unigram_count(word) / n1
            s = (p - p_ind) / math.sqrt(p * (1.0 - p) / nl)
            scored.append(ScoredNGram(w, order, s, c))
        scored.sort(key=_selection_key)
        oracle[order] = scored[:k]

    rows_equal = all(lex.per_order[o] == oracle[o] for o in (2, 3))
    elapsed = time.monotonic() - t0
    check(1, "lexicon oracle equivalence", rows_equal and elapsed < 10,
          f"{sum(len(v) for v in oracle.values())} rows, {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 2. segmentation oracle equivalence, 1000 sequences, < 10 s

def test_criterion_02_segmentation_oracle():
    t0 = time.monotonic()
    g = np.random.default_rng(99)
    words_pool = [f"w{i}" for i in range(9)]
    entries = set()
    while len(entries) < 50:
        l = int(g.integers(2, 5))
        entries.add(tuple(words_pool[int(i)] for i in g.integers(0, 9, size=l)))
    lex = lex_from(entries)
    mismatches = 0
    for _ in range(1000):
        n = int(g.integers(1, 13))
        seq = tuple(words_pool[int(i)] for i in g.integers(0, 9, size=n))
        got = extract_boundaries(seq, lex)
        want = min(enumerate_paths(seq, lex),
                   key=lambda p: (len(p.boundaries), tuple(-b for b in p.boundaries)))
        mismatches += got != want
    elapsed = time.monotonic() - t0
    check(2, "segmentation oracle equivalence", mismatches == 0 and elapsed < 10,
          f"0 mismatches expected, got {mismatches}; {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 3. length-leak freedom: 2-query vs 3-query layouts, < 30 s

def test_criterion_03_length_leak_freedom():
    t0 = time.monotonic()
    worst = 0.0
    for i in range(100):
        g = np.random.default_rng(1000 + i)
        cfg = tiny_config(20, 5,
                          layers=int(g.integers(1, 3)),
                          hidden=int(g.choice([16, 32])),
                          heads=int(g.choice([2, 4])))
        params = init_params(cfg, i)
        T = int(g.integers(4, 9))
        slot = int(g.integers(0, T))
        ctx = tuple(int(x) for x in g.integers(0, cfg.joint_size, size=T))
        hs = []
        for n_q in (2, 3):
            plan = store_of([RefPlan(Objective.COMPREHENSIVE, ctx, tuple(range(1, T + 1)),
                                     tuple(5 + j for j in range(n_q)), (slot + 1,) * n_q,
                                     ((slot, ctx[slot]),), ())])[0]
            acts = encode(params, plan.all_ids(), plan.all_positions(),
                          build_attention_mask(plan), cfg)
            hs.append(acts.hidden[:T])
        worst = max(worst, float(np.abs(hs[0] - hs[1]).max()))
    elapsed = time.monotonic() - t0
    check(3, "length-leak freedom", worst <= 1e-6 and elapsed < 30,
          f"max context-state delta {worst:.2e} over 100 instances; {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 4. mask soundness: exact zeros, rows sum to one

def test_criterion_04_mask_soundness(toy_example, toy_jv):
    bad = 0
    worst_sum = 0.0
    for seed in range(20):
        cfg = tiny_config(len(toy_jv.fine), len(toy_jv.ngrams))
        params = init_params(cfg, seed)
        plan = build_plan(Objective.COMPREHENSIVE, toy_example, (2, 4), toy_jv)
        acts = encode(params, plan.all_ids(), plan.all_positions(),
                      build_attention_mask(plan), cfg)
        T, Q = plan.T, plan.Q
        forbid = build_attention_mask(plan) == -np.inf
        for probs in acts.attn_probs:
            if probs[:, forbid].any():
                bad += 1
            worst_sum = max(worst_sum, float(np.abs(probs.sum(-1) - 1).max()))
    check(4, "attention mask soundness", bad == 0 and worst_sum <= 1e-5,
          f"forbidden leaks {bad}, worst row-sum error {worst_sum:.1e}")


# -----------------------------------------------------------------------------
# 5. gradient correctness vs central finite differences, < 2 min

def _grad_check_setup():
    vocab = FineVocab.from_subwords([f"x{i}" for i in range(1, 7)])
    lex = lex_from([("x2", "x3")])
    jv = build_joint_vocab(vocab, lex)
    ex = segment_example(tuple(f"x{i}" for i in range(1, 7)), lex, vocab)
    cfg = tiny_config(len(vocab), len(lex), layers=2, hidden=16, heads=2, ffn=24)
    params = init_params(cfg, 42, dtype=np.float64)
    masked = (2, 4)
    plans = {objective.name.lower(): build_plan(objective, ex, masked, jv)
             for objective in (Objective.CONTIGUOUS, Objective.EXPLICIT, Objective.COMPREHENSIVE)}
    comp = plans["comprehensive"]
    fill = [y for _, y in comp.targets_coarse]
    fill[0] = (fill[0] + 3) % len(jv)  # one wrong identity for real RTD labels
    filled, labels = relation_from_comprehensive(comp.store, fill)
    plans["relation"] = filled[0]
    return cfg, params, plans, comp, labels


def _config_loss_and_grads(name, params, cfg, plans, comp, labels, want_grads):
    """``labels`` are the relation plan's RTD labels, the RTD term's targets
    under ``relation``."""
    rtd_weight = 0.7
    plan = plans[name]
    labels = labels if name == "relation" else None
    n_c = max(len(plan.targets_coarse), 1)
    n_f = max(len(plan.fine), 1)
    n_r = max(plan.T if labels is not None else 0, 1)
    scales = {"ngram": 1.0 / n_c, "fine": 1.0 / n_f, "rtd": rtd_weight / n_r}
    terms, grads = loss_and_grads(plan_loss_terms, params, plan, cfg,
                                  scales if want_grads else None, rtd_labels=labels)
    loss = (terms["ngram"] / n_c + terms["fine"] / n_f
            + rtd_weight * terms["rtd"] / n_r)
    if name == "relation":
        n_g = max(len(comp.targets_coarse), 1)
        gterms, ggrads = loss_and_grads(generator_loss_terms, params, comp, cfg,
                                        {"gen_ngram": 1.0 / n_g} if want_grads else None,
                                        "gen_")
        loss += gterms["gen_ngram"] / n_g
        for k, v in ggrads.items():
            grads[k] = grads.get(k, 0) + v
    return loss, grads


def test_criterion_05_gradient_correctness():
    t0 = time.monotonic()
    cfg, params, plans, comp, labels = _grad_check_setup()
    eps = 1e-5
    worst = 0.0
    g = np.random.default_rng(7)
    for name in ("contiguous", "explicit", "comprehensive", "relation"):
        _, grads = _config_loss_and_grads(name, params, cfg, plans, comp, labels, True)
        names = sorted(k for k, v in grads.items() if np.any(v))
        for _ in range(50):
            pname = names[int(g.integers(len(names)))]
            arr = params[pname]
            flat = int(g.integers(arr.size))
            idx = np.unravel_index(flat, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            lp, _ = _config_loss_and_grads(name, params, cfg, plans, comp, labels, False)
            arr[idx] = orig - eps
            lm, _ = _config_loss_and_grads(name, params, cfg, plans, comp, labels, False)
            arr[idx] = orig
            fd = (lp - lm) / (2 * eps)
            an = float(np.asarray(grads[pname])[idx])
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-5)
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    check(5, "gradient correctness", worst <= 1e-4 and elapsed < 120,
          f"worst relative error {worst:.2e} over 200 coordinates; {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 6. comprehensive loss additivity over a 100-batch run

def test_criterion_06_loss_additivity():
    spec = CollocationSpec(n_topics=6, phrases_per_topic=4)
    stream, inventory, _ = collocation_corpus(120, seed=6, spec=spec)
    vocab = FineVocab.from_subwords(inventory)
    lex = extract_lexicon(count_ngrams(stream, 2), {2: 24}, min_count=3)
    jv = build_joint_vocab(vocab, lex)
    cfg = tiny_config(len(vocab), len(lex), max_positions=64)
    plans = make_plans(stream, lex, jv, Objective.COMPREHENSIVE, seed=0)
    init = init_params(cfg, 0)
    layout = FlatLayout(init)
    flat, params = layout.flatten(init)
    grads_flat, grads = layout.zeros()
    tcfg = TrainConfig(Objective.COMPREHENSIVE, total_steps=100, batch_size=4,
                       warmup_steps=10, seed=0)
    state = AdamState(layout)
    cursor, exact = 0, True
    for step in range(100):
        batch = plans.take([(cursor + j) % len(plans) for j in range(4)])
        cursor = (cursor + 4) % len(plans)
        grads_flat.fill(0)
        report = batch_loss_and_grad(params, batch, cfg, tcfg, grads)
        explicit_part = fine_part = 0.0
        for plan in batch:
            terms, _ = loss_and_grads(plan_loss_terms, params, plan, cfg)
            explicit_part += terms["ngram"]
            fine_part += terms["fine"]
        if report.comprehensive_sum != explicit_part + fine_part:
            exact = False
        adam_step(flat, grads_flat, state, 1e-3)
    check(6, "comprehensive-loss additivity", exact,
          "explicit-part + contiguous-part, bitwise, 100 batches")


# -----------------------------------------------------------------------------
# 7. directional replication: explicit beats contiguous n-gram PPL

def test_criterion_07_directional_replication(tmp_path):
    t0 = time.monotonic()
    spec = CollocationSpec()
    train_stream, inventory, _ = collocation_corpus(9000, seed=11, spec=spec)
    write_corpus(train_stream, tmp_path / "corpus.txt")
    size_mb = (tmp_path / "corpus.txt").stat().st_size / 1e6
    held_stream, _, _ = collocation_corpus(300, seed=99, spec=spec)
    vocab = FineVocab.from_subwords(inventory)
    lex = extract_lexicon(count_ngrams(train_stream, 3), {2: 200}, min_count=5)
    jv = build_joint_vocab(vocab, lex)
    cfg = ModelConfig(layers=2, hidden=64, heads=4, ffn=128, max_positions=64,
                      fine_vocab_size=len(vocab), ngram_vocab_size=len(lex))

    def run(objective, seed):
        plans = make_plans(train_stream, lex, jv, objective, rate=0.15, seed=seed)
        held = make_plans(held_stream, lex, jv, objective, rate=0.15, seed=1234,
                          ngram_only=True)
        params = init_params(cfg, seed)
        tcfg = TrainConfig(objective=objective, total_steps=2000, batch_size=8,
                           lr=1e-3, warmup_steps=100, seed=seed)
        train(tcfg, plans, params, cfg)
        return eval_ngram_ppl(params, held, cfg)

    explicit = [run(Objective.EXPLICIT, s) for s in (0, 1, 2)]
    contiguous = [run(Objective.CONTIGUOUS, s) for s in (0, 1, 2)]
    med_e, med_c = float(np.median(explicit)), float(np.median(contiguous))
    elapsed = time.monotonic() - t0
    check(7, "directional held-out n-gram PPL", med_e < med_c and elapsed <= 1800,
          f"explicit median {med_e:.2f} < contiguous median {med_c:.2f} "
          f"(per-seed e={['%.2f' % x for x in explicit]}, "
          f"c={['%.2f' % x for x in contiguous]}); corpus {size_mb:.2f} MB; "
          f"{elapsed:.0f}s")


# -----------------------------------------------------------------------------
# 8. RTD sanity and generator sampling statistics

def test_criterion_08_rtd_sanity(toy_example, toy_jv):
    comp = build_plan(Objective.COMPREHENSIVE, toy_example, (2, 4), toy_jv)
    truth = [y for _, y in comp.targets_coarse]
    all_original = relation_from_comprehensive(comp.store, truth)[1].tolist() == [1] * comp.T
    rtd_nll, _ = _bce_with_logits(np.zeros(7), [1, 0, 1, 0, 1, 0, 1])
    ln2_ok = float(np.abs(rtd_nll - math.log(2)).max()) <= 1e-9

    # sampling frequencies vs softmax probabilities, pooled over 5 slots
    vocab = FineVocab.from_subwords(["a", "b"])
    lex = lex_from([("a", "b")])
    jv = build_joint_vocab(vocab, lex)
    ex = segment_example(("a", "b", "a", "b", "a", "b", "a", "b", "a"), lex, vocab)
    # segments: [a b] x4 then [a]; mask alternating segments 1, 3, 5 plus
    # a second example masking 2, 4 to cover five slots total
    cfg = tiny_config(len(vocab), len(lex), layers=1, hidden=16, heads=2)
    params = init_params(cfg, 1)
    plans = [build_plan(Objective.COMPREHENSIVE, ex, (1, 3, 5), jv),
             build_plan(Objective.COMPREHENSIVE, ex, (2, 4), jv)]
    gcfg = cfg.generator_view()
    expected = np.zeros(cfg.joint_size)
    slots_total = 0
    per_slot_probs = []
    for plan in plans:
        mask = np.zeros((plan.T, plan.T), dtype=params["gen_tok_emb"].dtype)
        acts = encode(params, plan.ids[:plan.T], plan.positions[:plan.T], mask,
                      gcfg, prefix="gen_")
        slots = [s for s, _ in plan.targets_coarse]
        logits = head_logits(acts.hidden[slots], params, "gen_ngram").astype(np.float64)
        z = logits - logits.max(-1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(-1, keepdims=True)
        per_slot_probs.append(p)
        expected += p.sum(0)
        slots_total += len(slots)

    draws_per_plan = 20_000
    rng = RngState(11)
    counts = np.zeros(cfg.joint_size)
    for plan in plans:
        for _ in range(draws_per_plan):
            for jid in generator_forward_and_sample(params, plan.store, cfg, rng):
                counts[int(jid)] += 1
    n_draws = draws_per_plan * slots_total
    expected_counts = expected * draws_per_plan
    var = np.zeros(cfg.joint_size)
    for p in per_slot_probs:
        var += (p * (1 - p)).sum(0) * draws_per_plan
    sigma = np.sqrt(np.maximum(var, 1e-12))
    z_worst = float((np.abs(counts - expected_counts) / sigma).max())
    freq_ok = bool((np.abs(counts - expected_counts) <= 3 * sigma).all())
    check(8, "RTD sanity + generator sampling",
          all_original and ln2_ok and freq_ok and n_draws >= 1e5,
          f"labels all-original {all_original}, rtd(0)=ln2 {ln2_ok}, "
          f"{n_draws} draws, worst z {z_worst:.2f}")


# -----------------------------------------------------------------------------
# 9. export parity

def test_criterion_09_export_parity(toy_jv):
    cfg = tiny_config(len(toy_jv.fine), len(toy_jv.ngrams))
    params = init_params(cfg, 9)
    exported = export_finetune_weights(params, cfg)
    budget_ok = param_count(exported) == vanilla_encoder_param_count(cfg)
    ids = list(range(5, 15))
    mask = np.zeros((10, 10), dtype=np.float32)
    before = encode(params, ids, range(1, 11), mask, cfg).hidden
    after = encode(exported, ids, range(1, 11), mask, cfg).hidden
    bit_identical = bool(np.array_equal(before, after))
    check(9, "export parity", budget_ok and bit_identical,
          f"{param_count(exported)} parameters; fine-only forward bit-identical")


# -----------------------------------------------------------------------------
# 10. command-line determinism

def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    spec = CollocationSpec(n_topics=6, phrases_per_topic=4)
    stream, inventory, _ = collocation_corpus(60, seed=8, spec=spec)
    plan_bytes, metric_bytes = [], []
    for name in ("r1", "r2"):
        d = tmp_path / name
        d.mkdir()
        write_corpus(stream, d / "corpus.txt")
        FineVocab.from_subwords(inventory).save(d / "vocab.txt")
        monkeypatch.chdir(d)
        assert cli_main(["extract-lexicon", "--corpus", "corpus.txt",
                         "--k2", "24", "--k3", "8", "--min-count", "3",
                         "--out", "lex.tsv"]) == 0
        assert cli_main(["make-masks", "--corpus", "corpus.txt",
                         "--lexicon", "lex.tsv", "--vocab", "vocab.txt",
                         "--objective", "comprehensive", "--seed", "3",
                         "--out", "plans.bin"]) == 0
        assert cli_main(["train", "--plans", "plans.bin", "--layers", "1",
                         "--hidden", "16", "--heads", "2", "--steps", "5",
                         "--batch-size", "4", "--seed", "3",
                         "--metrics", "metrics.jsonl", "--out", "ck.npz"]) == 0
        plan_bytes.append((d / "plans.bin").read_bytes())
        metric_bytes.append((d / "metrics.jsonl").read_bytes())
    check(10, "command-line determinism",
          plan_bytes[0] == plan_bytes[1] and metric_bytes[0] == metric_bytes[1],
          f"plan files {len(plan_bytes[0])} B and metrics "
          f"{len(metric_bytes[0])} B byte-identical")
