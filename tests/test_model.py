"""Encoder forward/backward, heads, generator, export and checkpoints."""

import numpy as np
import pytest

from ngramlm import (
    Objective,
    RngState,
    build_attention_mask,
    encode,
    export_finetune_weights,
    generator_forward_and_sample,
    head_logits,
    init_params,
    load_checkpoint,
    plan_comprehensive,
    save_checkpoint,
)
from ngramlm.errors import DataError, NumericError, UsageError, VersionError
from ngramlm.model import (
    ModelConfig,
    encode_backward,
    param_shapes,
)

from conftest import RefPlan, param_count, store_of, tiny_config, vanilla_encoder_param_count

MASKED = (2, 4)


def make_plan_with_queries(T, slot, n_queries, joint, seed=0):
    g = np.random.default_rng(seed)
    ctx = tuple(int(i) for i in g.integers(0, joint, size=T))
    return store_of([RefPlan(
        Objective.COMPREHENSIVE,
        ctx,
        tuple(range(1, T + 1)),
        tuple(5 + i for i in range(n_queries)),  # [M1..Mn] ids in any vocab
        (slot + 1,) * n_queries,
        ((slot, ctx[slot]),),
        tuple((T + i, 0) for i in range(n_queries)),
    )])[0]


# --- config -------------------------------------------------------------------

def test_config_validation_and_generator_width():
    with pytest.raises(UsageError):
        ModelConfig(2, 30, 4, 64, 32, 20, 5)
    cfg = tiny_config(20, 5, hidden=48, heads=4)
    # one third of 48 is 16, already a multiple of 4 heads
    assert cfg.generator_hidden == 16
    gcfg = cfg.generator_view()
    assert gcfg.hidden == 16 and gcfg.layers == cfg.generator_layers
    assert gcfg.joint_size == cfg.joint_size
    # floor-to-heads behaviour
    assert tiny_config(20, 5, hidden=16, heads=2).generator_hidden == 4
    assert tiny_config(20, 5, hidden=4, heads=4).generator_hidden == 4  # never 0


def test_init_params_conventions():
    cfg = tiny_config(20, 5)
    params = init_params(cfg, 0)
    assert set(params) == set(param_shapes(cfg))
    assert np.all(params["emb_ln_g"] == 1.0)
    assert np.all(params["l0_ln1_b"] == 0.0)
    assert np.all(params["l1_bq"] == 0.0)
    assert np.all(params["rtd_w"] == 0.0) and np.all(params["rtd_b"] == 0.0)
    # truncated normal: nothing beyond two standard deviations
    assert np.abs(params["tok_emb"]).max() <= 2 * 0.02
    assert params["tok_emb"].shape == (25, cfg.hidden)
    assert params["gen_tok_emb"].shape == (25, cfg.generator_hidden)
    # deterministic init
    again = init_params(cfg, 0)
    assert all(np.array_equal(params[k], again[k]) for k in params)


# --- forward pass -------------------------------------------------------------

def test_encode_validates_inputs():
    cfg = tiny_config(20, 5)
    params = init_params(cfg, 0)
    mask = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(UsageError):
        encode(params, [0, 999], [1, 2], mask, cfg)
    with pytest.raises(UsageError):
        encode(params, [0, 1], [0, 1], mask, cfg)  # positions are 1-based
    with pytest.raises(UsageError):
        encode(params, [0, 1], [1, 2], np.zeros((3, 3), np.float32), cfg)
    for rows in ([2], [-1]):
        with pytest.raises(UsageError):
            encode(params, [0, 1], [1, 2], mask, cfg, rows=rows)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
@pytest.mark.parametrize("layers", [1, 2])
def test_rows_pass_equals_full_pass_at_those_rows(toy_example, toy_jv, dtype, tol, layers):
    # rows in any order, a repeat included, with and without a mask
    plan = plan_comprehensive(toy_example, MASKED, toy_jv)
    cfg = tiny_config(len(toy_jv.fine), len(toy_jv.ngrams), layers=layers)
    params = init_params(cfg, 4, dtype=dtype)
    n = plan.T + plan.Q
    rows = [n - 1, 0, 3, 3]
    for mask in (build_attention_mask(plan, dtype=dtype), None):
        full = encode(params, plan.all_ids(), plan.all_positions(), mask, cfg)
        part = encode(params, plan.all_ids(), plan.all_positions(), mask, cfg, rows=rows)
        assert part.hidden.dtype == dtype and part.hidden.shape == (len(rows), cfg.hidden)
        assert np.abs(part.hidden - full.hidden[rows]).max() <= tol
        assert np.abs(part.attn_probs[-1] - full.attn_probs[-1][:, rows]).max() <= tol
        assert part.cache == [] and part.emb_cache is None
    assert encode(params, plan.all_ids(), plan.all_positions(), None, cfg,
                  rows=[]).hidden.shape == (0, cfg.hidden)


def test_no_mask_equals_all_zero_mask(toy_example, toy_jv):
    plan = plan_comprehensive(toy_example, MASKED, toy_jv)
    cfg = tiny_config(len(toy_jv.fine), len(toy_jv.ngrams))
    params = init_params(cfg, 6)
    n = plan.T + plan.Q
    zero = encode(params, plan.all_ids(), plan.all_positions(), np.zeros((n, n), np.float32), cfg)
    none = encode(params, plan.all_ids(), plan.all_positions(), None, cfg)
    assert np.array_equal(zero.hidden, none.hidden)
    assert all(np.array_equal(a, b) for a, b in zip(zero.attn_probs, none.attn_probs))


def test_encode_backward_refuses_a_rows_pass(toy_example, toy_jv):
    plan = plan_comprehensive(toy_example, MASKED, toy_jv)
    cfg = tiny_config(len(toy_jv.fine), len(toy_jv.ngrams))
    params = init_params(cfg, 6)
    acts = encode(params, plan.ids[:plan.T], plan.positions[:plan.T], None, cfg, rows=[1])
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    with pytest.raises(UsageError):
        encode_backward(params, [acts], np.ones_like(acts.hidden), cfg, grads=grads)


def test_mask_soundness_exact_zeros(toy_example, toy_jv):
    # forbidden attention entries are exactly zero after softmax; rows sum to 1
    plan = plan_comprehensive(toy_example, MASKED, toy_jv)
    cfg = tiny_config(len(toy_jv.fine), len(toy_jv.ngrams))
    params = init_params(cfg, 3)
    mask = build_attention_mask(plan)
    acts = encode(params, plan.all_ids(), plan.all_positions(), mask, cfg)
    T, Q = plan.T, plan.Q
    for probs in acts.attn_probs:  # (heads, n, n)
        assert np.all(probs[:, :T, T:] == 0.0)
        for q in range(T, T + Q):
            row = probs[:, q, T:].copy()
            row[:, q - T] = 0.0
            assert np.all(row == 0.0)
        assert np.allclose(probs.sum(-1), 1.0, atol=1e-5)


def test_query_count_cannot_leak_into_context():
    # context hidden states identical whether 2 or 3 queries are appended
    joint = 25
    cfg = tiny_config(20, 5)
    params = init_params(cfg, 1)
    p2 = make_plan_with_queries(6, 2, 2, joint)
    p3 = make_plan_with_queries(6, 2, 3, joint)
    h2 = encode(params, p2.all_ids(), p2.all_positions(),
                build_attention_mask(p2), cfg).hidden
    h3 = encode(params, p3.all_ids(), p3.all_positions(),
                build_attention_mask(p3), cfg).hidden
    assert np.abs(h2[:6] - h3[:6]).max() <= 1e-6


def test_heads_shapes(toy_example, toy_jv):
    plan = plan_comprehensive(toy_example, MASKED, toy_jv)
    cfg = tiny_config(len(toy_jv.fine), len(toy_jv.ngrams))
    params = init_params(cfg, 0)
    acts = encode(params, plan.all_ids(), plan.all_positions(),
                  build_attention_mask(plan), cfg)
    assert head_logits(acts.hidden[[0, 1]], params, "fine").shape == (2, cfg.fine_vocab_size)
    assert head_logits(acts.hidden[[1]], params, "ngram").shape == (1, cfg.joint_size)
    assert head_logits(acts.hidden[:plan.T], params, "rtd").shape == (plan.T,)
    gen = encode(params, plan.ids[:plan.T], plan.positions[:plan.T], None, cfg.generator_view(),
                 prefix="gen_")
    assert head_logits(gen.hidden, params, "gen_ngram").shape == (plan.T, cfg.joint_size)


# --- generator ----------------------------------------------------------------

def per_slot_samples(params, plan, cfg, rng):
    """The generator's draws made slot by slot with ``Generator.choice``."""
    slots = [s for s, _ in plan.targets_coarse]
    acts = encode(params, plan.ids[:plan.T], plan.positions[:plan.T], None, cfg.generator_view(),
                  prefix="gen_", rows=slots)
    logits = head_logits(acts.hidden, params, "gen_ngram").astype(np.float64)
    z = logits - logits.max(-1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(-1, keepdims=True)
    g = rng.next_generator()
    return np.array([g.choice(probs.shape[1], p=probs[i]) for i in range(probs.shape[0])])


def test_generator_draws_equal_per_slot_choice():
    # 16 slots over 30 joint ids at 60 seeds: 960 draws
    cfg = tiny_config(20, 10)
    params = init_params(cfg, 8)
    params = {k: v + np.float32(0.3) * np.random.default_rng(1).standard_normal(v.shape,
                                                                              np.float32)
              for k, v in params.items()}
    ctx = tuple(int(i) for i in np.random.default_rng(2).integers(0, cfg.joint_size, 20))
    plan = store_of([RefPlan(Objective.COMPREHENSIVE, ctx, tuple(range(1, 21)), (), (),
                             tuple((s, 0) for s in range(2, 18)), ())])[0]
    drawn = []
    for seed in range(60):
        got = generator_forward_and_sample(params, plan.store, cfg, RngState(seed))
        want = per_slot_samples(params, plan, cfg, RngState(seed))
        assert np.array_equal(got, want), seed
        drawn.extend(got)
    assert len(set(drawn)) > 10  # the draws are spread, not one argmax


def test_batch_draws_equal_per_plan_choice():
    # a store of plans with and without slots: one stacked softmax, and one
    # keyed draw per plan with slots, in plan order, so the ids and the
    # final counter equal per-plan g.choice draws; a plan without slots
    # takes no draw
    cfg = tiny_config(20, 10)
    noise = np.random.default_rng(1)
    params = {k: v + np.float32(0.3) * noise.standard_normal(v.shape, np.float32)
              for k, v in init_params(cfg, 8).items()}
    g = np.random.default_rng(3)
    plans = []
    for k, n_slots in enumerate((3, 0, 1, 6, 0, 2)):
        T = 8 + k
        ctx = tuple(int(i) for i in g.integers(0, cfg.joint_size, T))
        slots = sorted(g.choice(T, n_slots, replace=False).tolist())
        plans.append(RefPlan(Objective.COMPREHENSIVE, ctx, tuple(range(1, T + 1)), (), (),
                             tuple((s, 0) for s in slots), () if n_slots else ((0, 1),)))
    store = store_of(plans)
    drawn = []
    for seed in range(20):
        rng, ref = RngState(seed, 5), RngState(seed, 5)
        got = generator_forward_and_sample(params, store, cfg, rng)
        want = np.concatenate([per_slot_samples(params, p, cfg, ref)
                               for p in store if p.targets_coarse])
        assert np.array_equal(got, want), seed
        assert rng.counter == ref.counter == 5 + 4
        drawn.extend(got)
    assert len(set(drawn)) > 10
    rng = RngState(0, 5)
    with pytest.raises(UsageError, match="no masked slots"):
        generator_forward_and_sample(params, store[1:2], cfg, rng)
    assert rng.counter == 5


def test_generator_non_finite_probabilities_are_numeric_errors(toy_example, toy_jv):
    plan = plan_comprehensive(toy_example, MASKED, toy_jv)
    cfg = tiny_config(len(toy_jv.fine), len(toy_jv.ngrams))
    for bad in (np.nan, np.inf):
        params = init_params(cfg, 5)
        params["gen_ngram_b"][3] = bad
        with pytest.raises(NumericError), np.errstate(invalid="ignore"):
            generator_forward_and_sample(params, plan.store, cfg, RngState(0))


def test_generator_sampling_is_deterministic_per_counter(toy_example, toy_jv):
    plan = plan_comprehensive(toy_example, MASKED, toy_jv)
    cfg = tiny_config(len(toy_jv.fine), len(toy_jv.ngrams))
    params = init_params(cfg, 5)
    a = generator_forward_and_sample(params, plan.store, cfg, RngState(7))
    b = generator_forward_and_sample(params, plan.store, cfg, RngState(7))
    assert np.array_equal(a, b)


# --- export -------------------------------------------------------------------

def test_export_parity(toy_jv):
    cfg = tiny_config(len(toy_jv.fine), len(toy_jv.ngrams))
    params = init_params(cfg, 9)
    exported = export_finetune_weights(params, cfg)
    # parameter budget equals a vanilla encoder with |V_F| embedding rows
    assert param_count(exported) == vanilla_encoder_param_count(cfg)
    assert exported["tok_emb"].shape == (cfg.fine_vocab_size, cfg.hidden)
    assert not any(k.startswith(("gen_", "fine_", "ngram_", "rtd_")) for k in exported)
    # fine-only forward passes are bit-identical before and after export
    ids = list(range(5, 15))
    pos = list(range(1, 11))
    mask = np.zeros((10, 10), dtype=np.float32)
    before = encode(params, ids, pos, mask, cfg).hidden
    after = encode(exported, ids, pos, mask, cfg).hidden
    assert np.array_equal(before, after)


# --- checkpoints ---------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path, toy_jv):
    cfg = tiny_config(len(toy_jv.fine), len(toy_jv.ngrams))
    params = init_params(cfg, 2)
    extra = {"step": 7, "note": "x"}
    arrays = {"m/tok_emb": np.full((2, 2), 0.5, dtype=np.float32)}
    path = tmp_path / "ck.npz"
    save_checkpoint(path, params, cfg, extra=extra, arrays=arrays)
    p2, cfg2, extra2, arrays2 = load_checkpoint(path)
    assert cfg2 == cfg and extra2 == extra
    assert set(p2) == set(params)
    assert all(np.array_equal(p2[k], params[k]) for k in params)
    assert np.array_equal(arrays2["m/tok_emb"], arrays["m/tok_emb"])


def test_checkpoint_errors(tmp_path):
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "missing.npz")
    bad = tmp_path / "bad.npz"
    np.savez(bad, x=np.zeros(3))
    with pytest.raises(VersionError):
        load_checkpoint(bad)
