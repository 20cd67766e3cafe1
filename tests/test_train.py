"""Losses, optimizer, training loop determinism/resume and perplexity.

Loss oracles are closed-form: uniform logits over C classes cost ln C;
controlled head biases make the evaluation perplexities exact.
"""

import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

from ngramlm import (
    Objective,
    RngState,
    TrainConfig,
    build_attention_mask,
    build_joint_vocab,
    count_ngrams,
    encode,
    eval_ngram_ppl,
    extract_lexicon,
    init_params,
    load_checkpoint,
    make_plans,
    train,
)
from ngramlm.corpus import FineVocab, WordStream
from ngramlm.errors import DataError, NumericError, UsageError
from ngramlm.maskplan import (
    PlanStore,
    read_plan_file,
    relation_from_comprehensive,
    write_plan_file,
)
from ngramlm.model import FlatLayout
from ngramlm.train import (
    ADAM_BLOCK,
    CLIP_NORM,
    WEIGHT_DECAY,
    AdamState,
    _bce_with_logits,
    _contiguous_gram_groups,
    _decayable,
    _reachable,
    _save_train_checkpoint,
    _xent,
    adam_step,
    batch_loss_and_grad,
    check_plans,
    generator_forward_and_sample,
    generator_loss_terms,
    heads_and_backward,
    lr_at,
    plan_loss_terms,
)
from ngramlm.synth import collocation_corpus, CollocationSpec

from conftest import (
    RefPlan,
    assembled_targets,
    loss_and_grads,
    ref_of,
    store_of,
    tiny_config,
    zero_grads,
)


# --- elementary losses ---------------------------------------------------------

def test_uniform_logits_cost_log_classes():
    # [DERIVED] softmax over zeros is uniform: NLL = ln C for any target
    nll, _ = _xent(np.zeros((3, 4)), [0, 1, 3])
    assert nll == pytest.approx([math.log(4)] * 3, abs=1e-12)
    nll, _ = _xent(np.zeros((2, 107)), [5, 99])
    assert nll == pytest.approx([math.log(107)] * 2, abs=1e-12)


def test_xent_hand_value():
    # [DERIVED] independent evaluation with math.log / math.exp
    logits = np.array([[1.0, 0.0, -1.0]])
    want = -(1.0 - math.log(math.exp(1) + math.exp(0) + math.exp(-1)))
    nll, d = _xent(logits, [0])
    assert nll[0] == pytest.approx(want, rel=1e-12)
    # dlogits rows are softmax minus one-hot and sum to zero
    assert d.sum() == pytest.approx(0.0, abs=1e-12)


def test_xent_rejects_bad_targets():
    with pytest.raises(UsageError):
        _xent(np.zeros((1, 3)), [3])
    with pytest.raises(UsageError):
        _xent(np.zeros((1, 3)), [-1])


def test_rtd_zero_logits_is_ln2():
    # [DERIVED] p = 0.5 regardless of label: cost is exactly ln 2
    nll, _ = _bce_with_logits(np.zeros(9), [1, 0, 1, 1, 0, 0, 1, 0, 1])
    assert nll == pytest.approx([math.log(2)] * 9, abs=1e-12)


# --- schedule & optimizer --------------------------------------------------------

def test_lr_schedule_shape():
    tcfg = TrainConfig(Objective.EXPLICIT, total_steps=10, warmup_steps=2, lr=1.0)
    assert lr_at(0, tcfg) == 0.5
    assert lr_at(1, tcfg) == 1.0
    assert lr_at(2, tcfg) == 1.0  # peak right after warmup: (10-2)/8
    assert lr_at(9, tcfg) == pytest.approx(1 / 8)
    tcfg0 = TrainConfig(Objective.EXPLICIT, total_steps=4, warmup_steps=0, lr=2.0)
    assert [lr_at(s, tcfg0) for s in range(4)] == [2.0, 1.5, 1.0, 0.5]


def test_train_config_validation():
    with pytest.raises(UsageError):
        TrainConfig(Objective.EXPLICIT, total_steps=0)
    with pytest.raises(UsageError):
        TrainConfig(Objective.EXPLICIT, total_steps=5, warmup_steps=6)


def test_decayable_name_heuristic():
    assert _decayable("l0_wq") and _decayable("tok_emb") and _decayable("fine_w")
    assert not _decayable("l0_bq") and not _decayable("l0_b1")
    assert not _decayable("emb_ln_g") and not _decayable("l1_ln2_b")


def test_adam_clip_and_nan_detection():
    assert (CLIP_NORM, WEIGHT_DECAY) == (1.0, 0.01)
    params = np.zeros(4, dtype=np.float64)
    layout = FlatLayout({"w": params})
    state = AdamState(layout)
    # [DERIVED] the global norm of four entries of 100 is sqrt(4 * 100^2) = 200
    assert adam_step(params, np.full(4, 100.0), state, lr=0.1) == (200.0, True)
    assert np.all(params < 0)  # moved against the gradient
    assert adam_step(params, np.full(4, 0.25), state, lr=0.1) == (0.5, False)
    with pytest.raises(NumericError):
        adam_step(params, np.array([np.nan] * 4), AdamState(layout), 0.1)
    with pytest.raises(NumericError), np.errstate(invalid="ignore"):
        adam_step(params, np.array([1.0, np.inf, 1.0, 1.0]), AdamState(layout), 0.1)
    # [DERIVED] float32 squares of 1e20 overflow to inf: the norm is inf, the
    # clip factor 1/inf = 0 and the Adam update zero, so only the decay
    # moves the weights: p -= lr * (p * WEIGHT_DECAY), in float32
    p32 = np.ones(4, dtype=np.float32)
    state32 = AdamState(FlatLayout({"w": p32}))
    grads32 = np.full(4, 1e20, dtype=np.float32)
    with np.errstate(over="ignore"):
        assert adam_step(p32, grads32, state32, lr=0.1) == (math.inf, True)
    one = np.float32(1.0)
    assert np.array_equal(p32, np.full(4, one - one * np.float32(0.01) * np.float32(0.1)))


@pytest.fixture(scope="module")
def small_pipeline():
    spec = CollocationSpec(n_topics=6, phrases_per_topic=4)
    stream, inventory, _ = collocation_corpus(80, seed=2, spec=spec)
    vocab = FineVocab.from_subwords(inventory)
    lex = extract_lexicon(count_ngrams(stream, 2), {2: 24}, min_count=3)
    jv = build_joint_vocab(vocab, lex)
    cfg = tiny_config(len(vocab), len(lex), max_positions=64)
    return stream, vocab, lex, jv, cfg


@pytest.fixture(scope="module")
def fallback_pipeline():
    # trigrams over a query budget of 2 subwords fall back to fine targets,
    # so this explicit store holds both kinds; five plans have no slot
    spec = CollocationSpec(n_topics=4, phrases_per_topic=3, phrase_len=3)
    stream, inventory, _ = collocation_corpus(40, seed=5, spec=spec)
    lex = extract_lexicon(count_ngrams(stream, 3), {2: 16, 3: 8}, min_count=2)
    jv = build_joint_vocab(FineVocab.from_subwords(inventory, max_query=2), lex)
    cfg = tiny_config(len(jv.fine), len(lex), max_positions=64)
    return stream, lex, jv, cfg


def stepped_names(params: dict) -> list:
    """The tensors train() stepped: the views of its flat parameter vector."""
    flat = params["tok_emb"].base
    return [name for name, a in params.items() if a.base is flat]


def test_flat_layout(small_pipeline):
    # every tensor train() steps is a view of one vector, laid out in the
    # parameters' order; every other tensor is the caller's own array, its
    # bytes unchanged.  The decay factor is WEIGHT_DECAY in the parameter
    # dtype where _decayable, else 0
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.EXPLICIT, seed=1)
    assert plans.nc.any() and not plans.nf.any()
    tcfg = TrainConfig(Objective.EXPLICIT, total_steps=1, batch_size=2, warmup_steps=0)
    init = init_params(cfg, 3)
    before = {k: a.copy() for k, a in init.items()}
    params, _ = train(tcfg, plans, dict(init), cfg)
    assert list(params) == list(init)
    assert all(a.shape == init[k].shape for k, a in params.items())
    stepped = stepped_names(params)
    assert stepped == [k for k in init if not k.startswith(("fine_", "rtd_", "gen_"))]
    flat = params["tok_emb"].base
    assert flat.shape == (sum(init[k].size for k in stepped),)
    assert np.array_equal(flat, np.concatenate([params[k].ravel() for k in stepped]))
    for k in init.keys() - stepped:
        assert params[k] is init[k] and np.array_equal(params[k], before[k]), k
    for dtype in (np.float32, np.float64):
        layout = FlatLayout({k: init[k].astype(dtype) for k in init})
        decay = AdamState(layout).decay
        assert decay.dtype == dtype and decay.shape == (layout.bounds[-1],)
        for name, factor in layout.views(decay).items():
            assert np.all(factor == (dtype(WEIGHT_DECAY) if _decayable(name) else 0)), name


def reference_adam_step(params, grads, m, v, t, lr):
    """AdamW one tensor at a time, with the norm summed in dict order: the
    loop that the flat-vector adam_step replaced."""
    norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    factor = CLIP_NORM / norm if CLIP_NORM < norm else None
    beta1, beta2, eps = 0.9, 0.99, 1e-6
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, g in grads.items():
        p = params[name]
        buf = np.empty_like(p)
        if factor is not None:
            g = np.multiply(g, factor, out=buf)
        tmp = np.multiply(g, 1 - beta1)
        m[name] *= beta1
        m[name] += tmp
        np.multiply(g, 1 - beta2, out=tmp)
        tmp *= g
        v[name] *= beta2
        v[name] += tmp
        np.divide(v[name], bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.divide(m[name], bc1, out=buf)
        buf /= tmp
        if _decayable(name):
            np.multiply(p, WEIGHT_DECAY, out=tmp)
            buf += tmp
        buf *= lr
        p -= buf
    return float(norm), factor is not None


@pytest.mark.parametrize("clipped", [True, False], ids=["clipped", "unclipped"])
def test_adam_step_equals_per_tensor_reference(small_pipeline, clipped):
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.EXPLICIT, seed=1)
    tcfg = TrainConfig(Objective.EXPLICIT, total_steps=3, batch_size=4, warmup_steps=0)
    init = init_params(cfg, 3)
    layout = FlatLayout(init)
    flat, params = layout.flatten(init)
    grads_flat, grads = layout.zeros()
    state = AdamState(layout)
    ref = {k: a.copy() for k, a in params.items()}
    m = {k: np.zeros_like(a) for k, a in ref.items()}
    v = {k: np.zeros_like(a) for k, a in ref.items()}
    for step in range(3):
        grads_flat.fill(0)
        batch_loss_and_grad(params, plans[4 * step:4 * step + 4], cfg, tcfg, grads)
        if not clipped:  # a gradient of norm about CLIP_NORM / 2
            grads_flat *= np.float32(CLIP_NORM / 2 / np.linalg.norm(grads_flat))
        ref_grads = {k: g.copy() for k, g in grads.items()}
        got = adam_step(flat, grads_flat, state, 1e-3)
        assert got == reference_adam_step(ref, ref_grads, m, v, step + 1, 1e-3)
        assert got[1] == clipped
        for k in ref:
            assert np.array_equal(params[k], ref[k]), k
        assert all(np.array_equal(a, m[k]) for k, a in layout.views(state.m).items())
        assert all(np.array_equal(a, v[k]) for k, a in layout.views(state.v).items())


def test_adam_step_equals_per_tensor_reference_across_blocks():
    # about 3.5 blocks, tensors straddling block edges, decayed and not, the
    # largest longer than a block; steps alternate between a clipped
    # gradient (norm 5) and an unclipped one (norm 0.5).  The work vectors
    # are one block and one largest tensor, not two of the layout's length
    shapes = {"l0_w1": (256, 448), "l0_b1": (448,), "l0_ln1_g": (448,), "l1_w2": (448, 253),
              "l1_b2": (253,)}
    g = np.random.default_rng(9)
    init = {k: (0.1 * g.standard_normal(s)).astype(np.float32) for k, s in shapes.items()}
    layout = FlatLayout(init)
    assert 3 * ADAM_BLOCK < layout.bounds[-1] < 4 * ADAM_BLOCK
    assert layout.bounds[-1] % ADAM_BLOCK
    flat, params = layout.flatten(init)
    grads_flat, grads = layout.zeros()
    state = AdamState(layout)
    largest = 256 * 448
    assert largest > ADAM_BLOCK
    assert (len(state.squares), len(state.clipped)) == (largest, ADAM_BLOCK)
    ref = {k: a.copy() for k, a in params.items()}
    m = {k: np.zeros_like(a) for k, a in ref.items()}
    v = {k: np.zeros_like(a) for k, a in ref.items()}
    for step, norm in enumerate([5.0, 0.5, 5.0, 0.5]):
        grads_flat[:] = g.standard_normal(len(grads_flat))
        grads_flat *= np.float32(norm / np.linalg.norm(grads_flat))
        ref_grads = {k: a.copy() for k, a in grads.items()}
        got = adam_step(flat, grads_flat, state, 1e-2)
        assert got == reference_adam_step(ref, ref_grads, m, v, step + 1, 1e-2)
        assert got[1] == (norm > CLIP_NORM)
        for k in ref:
            assert np.array_equal(params[k], ref[k]), k
        assert all(np.array_equal(a, m[k]) for k, a in layout.views(state.m).items())
        assert all(np.array_equal(a, v[k]) for k, a in layout.views(state.v).items())
    # a non-finite entry in a later block still names its tensor
    grads["l1_w2"][400, 3] = np.inf
    assert np.flatnonzero(np.isinf(grads_flat))[0] > 3 * ADAM_BLOCK
    with pytest.raises(NumericError, match="l1_w2"), np.errstate(invalid="ignore"):
        adam_step(flat, grads_flat, state, 1e-2)


@pytest.fixture(scope="module")
def reachable_cases(small_pipeline, fallback_pipeline):
    """Case id -> (store, objective, cfg), for each objective and for
    explicit and relation stores with and without fine targets or slots."""
    stream, vocab, lex, jv, cfg = small_pipeline
    fstream, flex, fjv, fcfg = fallback_pipeline
    comprehensive = make_plans(fstream, flex, fjv, Objective.COMPREHENSIVE, seed=1, rate=0.3)
    return {
        "contiguous": (make_plans(stream, lex, jv, Objective.CONTIGUOUS, seed=1),
                       Objective.CONTIGUOUS, cfg),
        "explicit-coarse-only": (make_plans(stream, lex, jv, Objective.EXPLICIT, seed=1),
                                 Objective.EXPLICIT, cfg),
        "explicit-with-fine": (make_plans(fstream, flex, fjv, Objective.EXPLICIT, seed=1,
                                          rate=0.3), Objective.EXPLICIT, fcfg),
        "comprehensive": (make_plans(stream, lex, jv, Objective.COMPREHENSIVE, seed=1),
                          Objective.COMPREHENSIVE, cfg),
        "relation": (make_plans(stream, lex, jv, Objective.RELATION, seed=1),
                     Objective.RELATION, cfg),
        "relation-no-slots": (comprehensive.take(np.flatnonzero(comprehensive.nc == 0)),
                              Objective.RELATION, fcfg),
    }


@pytest.mark.parametrize("case", ["contiguous", "explicit-coarse-only", "explicit-with-fine",
                                  "comprehensive", "relation", "relation-no-slots"])
def test_train_steps_exactly_the_tensors_a_gradient_reaches(reachable_cases, case):
    # oracle: one pass of the store under the full layout, batch by batch,
    # names every tensor that gets a nonzero gradient somewhere; train()
    # steps exactly those
    plans, objective, cfg = reachable_cases[case]
    assert len(plans)
    if case == "explicit-with-fine":
        assert plans.nc.any() and plans.nf.any()
    tcfg = TrainConfig(objective, total_steps=1, batch_size=4, warmup_steps=0, seed=0)
    init = init_params(cfg, 3)
    rng = RngState(tcfg.seed ^ 0x5EED)
    reached = set()
    for first in range(0, len(plans), tcfg.batch_size):
        grads = zero_grads(init)
        batch = plans.take(range(first, min(first + tcfg.batch_size, len(plans))))
        batch_loss_and_grad(init, batch, cfg, tcfg, grads, rng)
        reached |= {name for name, g in grads.items() if g.any()}
    params, _ = train(tcfg, plans, dict(init), cfg)
    assert stepped_names(params) == [k for k in init if k in reached]


def test_three_steps_equal_the_reference_over_every_tensor(small_pipeline, tmp_path):
    # a coarse-only explicit store: the generator, the RTD head and the fine
    # head are never stepped.  The stepped tensors and their Adam moments
    # equal the per-tensor reference run over every tensor (whose clip norm
    # adds 0.0 for each unreached one); the others keep their initial bytes
    # and zero moments in the checkpoint
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.EXPLICIT, seed=1)
    assert plans.nc.any() and not plans.nf.any()
    tcfg = TrainConfig(Objective.EXPLICIT, total_steps=3, batch_size=4, warmup_steps=1)
    init = init_params(cfg, 3)
    ck = tmp_path / "run.npz"
    params, _ = train(tcfg, plans, {k: a.copy() for k, a in init.items()}, cfg,
                      checkpoint_path=ck)
    ref = {k: a.copy() for k, a in init.items()}
    m = {k: np.zeros_like(a) for k, a in ref.items()}
    v = {k: np.zeros_like(a) for k, a in ref.items()}
    for step in range(3):
        grads = zero_grads(ref)
        batch_loss_and_grad(ref, plans[4 * step:4 * step + 4], cfg, tcfg, grads)
        reference_adam_step(ref, grads, m, v, step + 1, lr_at(step, tcfg))
    stepped = stepped_names(params)
    assert not any(k.startswith(("fine_", "rtd_", "gen_")) for k in stepped)
    _, _, extra, arrays = load_checkpoint(ck)
    assert extra["adam_t"] == 3
    assert list(arrays) == [f"{key}/{k}" for key in "mv" for k in init]
    for k in init:
        if k in stepped:
            assert np.array_equal(params[k], ref[k]), k
            assert np.array_equal(arrays["m/" + k], m[k]) and arrays["m/" + k].any(), k
            assert np.array_equal(arrays["v/" + k], v[k]), k
        else:
            assert params[k].tobytes() == init[k].tobytes(), k
            assert not (arrays["m/" + k].any() or arrays["v/" + k].any()), k
            assert not (m[k].any() or v[k].any()), k  # the reference never moved them either


# --- training loop ---------------------------------------------------------------


@pytest.mark.parametrize("objective", list(Objective))
def test_every_objective_trains_and_reports(small_pipeline, objective):
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, objective, seed=1)
    tcfg = TrainConfig(objective, total_steps=3, batch_size=4, warmup_steps=0, seed=0)
    params = init_params(cfg, 0)
    _, metrics = train(tcfg, plans, params, cfg)
    assert len(metrics) == 3
    for rec in metrics:
        assert np.isfinite(rec["total"])
        assert "wall_ms" not in rec  # no wall-clock field: logs are byte-reproducible
        assert rec["grad_norm"] > 0 and rec["clipped"] == (rec["grad_norm"] > CLIP_NORM)
    if objective == Objective.RELATION:
        assert metrics[0]["n_rtd"] > 0 and metrics[0]["generator"] > 0


def test_training_is_deterministic(small_pipeline):
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.RELATION, seed=1)
    tcfg = TrainConfig(Objective.RELATION, total_steps=4, batch_size=4,
                       warmup_steps=0, seed=7)
    p1, m1 = train(tcfg, plans, init_params(cfg, 7), cfg)
    p2, m2 = train(tcfg, plans, init_params(cfg, 7), cfg)
    assert m1 == m2
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)


def test_zero_lr_leaves_params_untouched(small_pipeline):
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.EXPLICIT, seed=1)
    tcfg = TrainConfig(Objective.EXPLICIT, total_steps=2, batch_size=4,
                       warmup_steps=0, lr=0.0, seed=0)
    params = init_params(cfg, 3)
    before = {k: v.copy() for k, v in params.items()}
    train(tcfg, plans, params, cfg)
    assert all(np.array_equal(before[k], params[k]) for k in params)


def check_resume_equals_uninterrupted_run(small_pipeline, tmp_path, objective):
    """Eight steps in one run equal four steps, a checkpoint and a resume,
    down to the generator's sample counter."""
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.COMPREHENSIVE, seed=1)
    tcfg = TrainConfig(objective, total_steps=8, batch_size=4,
                       warmup_steps=2, seed=5)
    # reference: a single uninterrupted run
    ref_ck = tmp_path / "ref.npz"
    ref, mref = train(tcfg, plans, init_params(cfg, 5), cfg, checkpoint_path=ref_ck)
    # interrupted: replicate the first 4 steps manually, checkpoint, resume
    init = init_params(cfg, 5)
    layout = FlatLayout(_reachable(init, plans, objective))
    flat, views = layout.flatten(init)
    params = {**init, **views}
    grads_flat, grads = layout.zeros()
    state = AdamState(layout)
    rng = RngState(tcfg.seed ^ 0x5EED)
    cursor = 0
    for step in range(4):
        batch = plans.take([(cursor + j) % len(plans) for j in range(tcfg.batch_size)])
        cursor = (cursor + tcfg.batch_size) % len(plans)
        grads_flat.fill(0)
        batch_loss_and_grad(params, batch, cfg, tcfg, grads, rng)
        adam_step(flat, grads_flat, state, lr_at(step, tcfg))
    ck = tmp_path / "half.npz"
    _save_train_checkpoint(ck, params, cfg, tcfg, state, 4, rng, plans.sha256())
    res_ck = tmp_path / "resumed.npz"
    resumed, mres = train(tcfg, plans, init_params(cfg, 5), cfg, checkpoint_path=res_ck,
                          resume_from=ck)
    assert [r["step"] for r in mres] == [4, 5, 6, 7]
    assert [r["total"] for r in mres] == [r["total"] for r in mref[4:]]
    assert all(np.array_equal(ref[k], resumed[k]) for k in ref)
    # one key per relation plan with coarse slots
    drawn = sum(bool(plans[i % len(plans)].targets_coarse) for i in range(8 * 4))
    counters = [load_checkpoint(p)[2]["sample_counter"] for p in (ref_ck, res_ck)]
    assert counters[0] == counters[1] == (drawn if objective == Objective.RELATION else 0)


def test_resume_equals_uninterrupted_run(small_pipeline, tmp_path):
    check_resume_equals_uninterrupted_run(small_pipeline, tmp_path, Objective.COMPREHENSIVE)


def test_relation_resume_equals_uninterrupted_run(small_pipeline, tmp_path):
    check_resume_equals_uninterrupted_run(small_pipeline, tmp_path, Objective.RELATION)


def test_checkpoint_records_blas_threads(small_pipeline, tmp_path, monkeypatch):
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.EXPLICIT, seed=1)
    tcfg = TrainConfig(Objective.EXPLICIT, total_steps=1, batch_size=2, warmup_steps=0)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    ck = tmp_path / "model.npz"
    train(tcfg, plans, init_params(cfg, 3), cfg, checkpoint_path=ck)
    assert load_checkpoint(ck)[2]["blas_threads"] == {
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": None, "MKL_NUM_THREADS": "3"}


def test_resume_under_other_blas_settings_logs_a_warning(small_pipeline, tmp_path,
                                                          monkeypatch, caplog):
    # matrix products can round differently under another BLAS thread
    # count, so a resume that changes the settings says so; one under the
    # checkpoint's own settings logs nothing
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.EXPLICIT, seed=1)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    ck = tmp_path / "model.npz"
    train(TrainConfig(Objective.EXPLICIT, total_steps=1, batch_size=2), plans,
          init_params(cfg, 3), cfg, checkpoint_path=ck)
    tcfg = TrainConfig(Objective.EXPLICIT, total_steps=2, batch_size=2)
    with caplog.at_level("WARNING", logger="ngramlm.train"):
        train(tcfg, plans, init_params(cfg, 3), cfg, resume_from=ck)
        assert caplog.records == []
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        train(tcfg, plans, init_params(cfg, 3), cfg, resume_from=ck)
    [record] = caplog.records
    saved, now = record.getMessage().split(", this run has ")
    assert saved.startswith(f"checkpoint {ck} was written under BLAS thread settings {{")
    assert "'OMP_NUM_THREADS': '1'" in saved and "'OMP_NUM_THREADS': '2'" in now


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("objective", list(Objective))
def test_model_computes_in_parameter_dtype(small_pipeline, objective, dtype, monkeypatch):
    # a NumPy float64 scalar anywhere in the forward or backward pass would
    # promote float32 activations and gradients to float64
    train_mod = importlib.import_module("ngramlm.train")
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, objective, seed=1)
    tcfg = TrainConfig(objective, total_steps=1, batch_size=4, warmup_steps=0, seed=0)
    params = init_params(cfg, 0, dtype=dtype)
    seen = []
    encode = train_mod.encode

    def recording_encode(*args, **kwargs):
        acts = encode(*args, **kwargs)
        seen.append((acts.hidden.dtype, [p.dtype for p in acts.attn_probs]))
        return acts

    # plans and the generator's samples are encoded through ngramlm.train
    monkeypatch.setattr(train_mod, "encode", recording_encode)
    grads = zero_grads(params)
    batch_loss_and_grad(params, plans[:4], cfg, tcfg, grads, RngState(0))
    assert len(seen) >= 4
    for hidden, probs in seen:
        assert hidden == dtype and all(p == dtype for p in probs)
    assert set(grads) and all(g.dtype == dtype for g in grads.values())


def sampled_work(params, batch, cfg, tcfg, rng):
    """(plan, generator plan, RTD labels) triples and target counts, as a
    batch sees them: the relation objective fills each plan with slots with
    generator samples drawn from ``rng``, in plan order, which gives it RTD
    labels; every other plan has none."""
    relation = tcfg.objective == Objective.RELATION
    work, n = [], {"coarse": 0, "fine": 0, "rtd": 0, "gen": 0}
    for k, plan in enumerate(batch):
        gen_plan = plan if relation else None
        labels = None
        if relation and plan.targets_coarse:
            one = batch.take([k])
            sampled = generator_forward_and_sample(params, one, cfg, rng)
            filled, labels = relation_from_comprehensive(one, sampled)
            plan = filled[0]
            n["rtd"] += plan.T
        if relation:
            n["gen"] += len(plan.targets_coarse)
        n["coarse"] += len(plan.targets_coarse)
        n["fine"] += len(plan.fine)
        work.append((plan, gen_plan, labels))
    return work, n


def per_plan_reference_grads(params, batch, cfg, tcfg, rng):
    """Batch gradients as the plan-order sum of per-plan gradient dicts.

    Each plan's terms write into their own fresh dict; the relation
    objective replays the generator samples from the same RngState."""
    work, n = sampled_work(params, batch, cfg, tcfg, rng)
    scales = {"ngram": 1.0 / max(n["coarse"], 1),
              "fine": 1.0 / max(n["fine"], 1),
              "rtd": tcfg.rtd_weight / max(n["rtd"], 1)}
    per_plan = []
    for plan, gen_plan, labels in work:
        per_plan.append(loss_and_grads(plan_loss_terms, params, plan, cfg, scales,
                                       rtd_labels=labels)[1])
        if gen_plan is not None:
            per_plan.append(loss_and_grads(generator_loss_terms, params, gen_plan, cfg,
                                           {"gen_ngram": 1.0 / max(n["gen"], 1)}, "gen_")[1])
    total = {}
    for g in per_plan:
        for k, v in g.items():
            total[k] = total[k] + v if k in total else v
    return total


def assert_grads_close(grads, want):
    """Same keys and dtypes; every entry within 1e-12 of the largest |entry|."""
    assert set(grads) == set(want)
    bound = 1e-12 * max(float(np.abs(v).max()) for v in want.values())
    for k in want:
        assert grads[k].dtype == want[k].dtype, k
        assert float(np.abs(grads[k] - want[k]).max()) <= bound, k


@pytest.mark.parametrize("objective", list(Objective))
def test_batch_grads_equal_plan_order_sum(small_pipeline, objective):
    # the packed backward sums over the rows of a batch's plans in
    # another order than adding up per-plan gradients, so in float64 the
    # two agree to rounding; in float32 the gradients keep the dtype
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, objective, seed=1)
    tcfg = TrainConfig(objective, total_steps=1, batch_size=6, warmup_steps=0, seed=0)
    batch = plans[:6]
    for dtype in (np.float64, np.float32):
        params = init_params(cfg, 4, dtype=dtype)
        grads = zero_grads(params)
        batch_loss_and_grad(params, batch, cfg, tcfg, grads, RngState(9))
        want = per_plan_reference_grads(params, batch, cfg, tcfg, RngState(9))
        assert set(grads) == set(want)
        assert all(grads[k].dtype == want[k].dtype == dtype for k in want)
        if dtype == np.float64:
            assert_grads_close(grads, want)


def long_plan_batch(small_pipeline):
    """A relation batch for max_positions 32 around one plan of 34 rows
    (28 context positions, 6 queries) made from two joined documents."""
    stream, vocab, lex, jv, _ = small_pipeline
    cfg = tiny_config(len(vocab), len(lex), max_positions=32)
    plans = make_plans(stream, lex, jv, Objective.RELATION, seed=1)
    docs = stream.documents
    long = make_plans(WordStream([docs[0] + docs[1]]), lex, jv, Objective.RELATION, seed=0)[0]
    assert long.T <= cfg.max_positions < long.T + long.Q
    tcfg = TrainConfig(Objective.RELATION, total_steps=1, batch_size=7, warmup_steps=0, seed=0)
    return cfg, tcfg, store_of([*plans[:3], long, *plans[3:6]])


def test_groups_over_max_positions_keep_reference_grads(small_pipeline):
    cfg, tcfg, batch = long_plan_batch(small_pipeline)
    params = init_params(cfg, 4, dtype=np.float64)
    assert sum(p.T + p.Q for p in batch) > 3 * cfg.max_positions
    grads = zero_grads(params)
    batch_loss_and_grad(params, batch, cfg, tcfg, grads, RngState(9))
    assert_grads_close(grads, per_plan_reference_grads(params, batch, cfg, tcfg, RngState(9)))


def recorded_passes(monkeypatch):
    """The list that records, in call order, each encoder pass of
    ``ngramlm.train`` as ("encode", prefix) and each ``encode_backward`` as
    ("backward", prefix, the rows of each of its plans)."""
    train_mod = importlib.import_module("ngramlm.train")
    encode_, encode_backward = train_mod.encode, train_mod.encode_backward
    events = []

    def recording_encode(params, ids, positions, mask, cfg_, prefix="", **kwargs):
        events.append(("encode", prefix))
        return encode_(params, ids, positions, mask, cfg_, prefix, **kwargs)

    def recording_backward(params, acts, d_hidden, cfg_, prefix="", **kwargs):
        events.append(("backward", prefix, [len(a.hidden) for a in acts]))
        assert len(d_hidden) == sum(events[-1][2])
        return encode_backward(params, acts, d_hidden, cfg_, prefix, **kwargs)

    monkeypatch.setattr(train_mod, "encode", recording_encode)
    monkeypatch.setattr(train_mod, "encode_backward", recording_backward)
    return events


def assert_one_backward_per_encoder(events, batch):
    """One generator backward over every plan with slots, then one main
    backward over every plan in batch order, and the generator's backward
    before the main model's first pass."""
    backward = [e for e in events if e[0] == "backward"]
    assert backward == [("backward", "gen_", [p.T for p in batch if p.targets_coarse]),
                        ("backward", "", [p.T + p.Q for p in batch])]
    assert events.index(backward[0]) < events.index(("encode", ""))


def test_one_backward_per_encoder_covers_the_batch(small_pipeline, monkeypatch):
    # the plan longer than max_positions joins the others' one backward
    cfg, tcfg, batch = long_plan_batch(small_pipeline)
    events = recorded_passes(monkeypatch)
    params = init_params(cfg, 4)
    batch_loss_and_grad(params, batch, cfg, tcfg, zero_grads(params), RngState(9))
    assert_one_backward_per_encoder(events, batch)
    assert max(p.T + p.Q for p in batch) > cfg.max_positions


def mixed_length_batch(small_pipeline):
    """A relation batch for max_positions 32: short plans around plans of
    two joined documents, one of them over 32 rows and two just under."""
    stream, vocab, lex, jv, _ = small_pipeline
    cfg = tiny_config(len(vocab), len(lex), max_positions=32)
    plans = make_plans(stream, lex, jv, Objective.RELATION, seed=1)
    docs = stream.documents
    joined = [make_plans(WordStream([docs[a] + docs[a + 1]]), lex, jv, Objective.RELATION,
                         seed=0)[0] for a in (0, 1, 2)]
    tcfg = TrainConfig(Objective.RELATION, total_steps=1, batch_size=8, warmup_steps=0, seed=0)
    return cfg, tcfg, store_of([plans[0], plans[1], joined[0], joined[1], plans[2], joined[2],
                                plans[3], plans[4]])


def test_one_backward_per_encoder_equals_the_sum_of_each_plans_own(small_pipeline,
                                                                   monkeypatch):
    # one backward per encoder over plans of mixed lengths, their squares
    # summing far past max_positions ** 2; in float64 the report and the
    # gradients equal the sums of each plan's own
    cfg, tcfg, batch = mixed_length_batch(small_pipeline)
    lengths = [p.T + p.Q for p in batch]
    assert max(lengths) > cfg.max_positions >= sorted(lengths)[-2] > 25
    assert sum(r * r for r in lengths) > 3 * cfg.max_positions ** 2
    events = recorded_passes(monkeypatch)
    params = init_params(cfg, 4, dtype=np.float64)
    grads = zero_grads(params)
    report = batch_loss_and_grad(params, batch, cfg, tcfg, grads, RngState(9))
    assert_one_backward_per_encoder(events, batch)

    assert_grads_close(grads, per_plan_reference_grads(params, batch, cfg, tcfg, RngState(9)))
    work, n = sampled_work(params, batch, cfg, tcfg, RngState(9))
    sums = dict.fromkeys(("ngram", "fine", "rtd", "gen_ngram"), 0.0)
    for plan, gen_plan, labels in work:
        terms, _ = loss_and_grads(plan_loss_terms, params, plan, cfg, rtd_labels=labels)
        terms["gen_ngram"] = loss_and_grads(generator_loss_terms, params, gen_plan, cfg,
                                            prefix="gen_")[0]["gen_ngram"]
        for key in sums:
            sums[key] += terms[key]
    assert (report.n_coarse, report.n_fine, report.n_rtd) == (n["coarse"], n["fine"], n["rtd"])
    want = (sums["ngram"] / n["coarse"], sums["fine"] / n["fine"],
            sums["rtd"] / n["rtd"], sums["gen_ngram"] / n["gen"])
    assert (report.coarse, report.fine, report.rtd, report.generator) == pytest.approx(
        want, rel=1e-12)
    assert report.comprehensive_sum == pytest.approx(sums["ngram"] + sums["fine"],
                                                     rel=1e-12)


def interleaved_sums(params, plans, cfg, tcfg, grads, sample_rng):
    """A relation batch's loss sums by head, its gradients added into
    ``grads``, in the order batch_loss_and_grad had before the generator
    went first: plan by plan, the standard model's pass on the filled plan
    and then the generator's on the original if it has slots; then the
    standard model's heads and backward and the generator's, each over the
    whole batch, at the rows of :func:`assembled_targets`."""
    n_coarse, n_fine = int(plans.nc.sum()), int(plans.nf.sum())
    scales = {"ngram": 1.0 / n_coarse, "fine": 1.0 / max(n_fine, 1),
              "rtd": tcfg.rtd_weight / int(plans.T[plans.nc > 0].sum())}
    sampled = generator_forward_and_sample(params, plans, cfg, sample_rng)
    filled, labels = relation_from_comprehensive(plans, sampled)
    main, gen = [], []
    for plan, original in zip(filled, plans):
        main.append(plan_loss_terms(params, plan, cfg))
        if len(original.coarse):
            gen.append(generator_loss_terms(params, original, cfg))
    sums = heads_and_backward(params, cfg, main, assembled_targets(filled, rtd_labels=labels),
                              scales, grads)
    return sums | heads_and_backward(
        params, cfg.generator_view(), gen,
        assembled_targets([p for p in plans if len(p.coarse)], generator=True),
        {"gen_ngram": 1.0 / n_coarse}, grads, prefix="gen_")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_generator_first_equals_interleaved_order_bitwise(small_pipeline, dtype):
    # the two encoders write disjoint gradients and the draws still come
    # first, so running the generator's passes and backward before the
    # standard model's changes no bit of the report or the gradients
    cfg, tcfg, batch = mixed_length_batch(small_pipeline)
    assert batch.nf.any()
    params = init_params(cfg, 4, dtype=dtype)
    grads = zero_grads(params)
    report = batch_loss_and_grad(params, batch, cfg, tcfg, grads, RngState(9))
    want_grads = zero_grads(params)
    sums = interleaved_sums(params, batch, cfg, tcfg, want_grads, RngState(9))
    n_coarse, n_fine, n_rtd = report.n_coarse, report.n_fine, report.n_rtd
    assert (report.coarse, report.fine, report.rtd, report.generator) == (
        sums["ngram"] / n_coarse, sums["fine"] / n_fine, sums["rtd"] / n_rtd,
        sums["gen_ngram"] / n_coarse)
    assert report.comprehensive_sum == sums["ngram"] + sums["fine"]
    for k in want_grads:
        assert grads[k].tobytes() == want_grads[k].tobytes(), k


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gathered_targets_equal_plan_by_plan_rows_bitwise(fallback_pipeline, dtype):
    # the heads' rows gathered from the store, and the RTD rows of the plans
    # with slots only, give the report and gradients of rows assembled plan
    # by plan, bit for bit, on a relation batch with a plan without slots and
    # plans with slots and fallback [M]s, where the RTD rows overlap the
    # fine head's
    stream, lex, jv, cfg = fallback_pipeline
    plans = make_plans(stream, lex, jv, Objective.RELATION, seed=1, rate=0.3)
    fine, at = plans.gather("fine")
    fallback = np.unique(at[fine[:, 0] < plans.T[at]])
    mixed = fallback[plans.nc[fallback] > 0]
    assert len(mixed) >= 2 and not plans.nc.all()
    batch = plans.take([mixed[0], np.flatnonzero(plans.nc == 0)[0], *mixed[1:5]])
    tcfg = TrainConfig(Objective.RELATION, total_steps=1, batch_size=len(batch), warmup_steps=0,
                       seed=0, rtd_weight=0.5)
    params = init_params(cfg, 4, dtype=dtype)
    grads = zero_grads(params)
    report = batch_loss_and_grad(params, batch, cfg, tcfg, grads, RngState(9))

    want = zero_grads(params)
    sampled = generator_forward_and_sample(params, batch, cfg, RngState(9))
    filled, labels = relation_from_comprehensive(batch, sampled)
    slotted = [plan for plan in batch if len(plan.coarse)]
    n_coarse, n_fine = int(batch.nc.sum()), int(batch.nf.sum())
    n_rtd = sum(plan.T for plan in slotted)
    sums = heads_and_backward(params, cfg.generator_view(),
                              [generator_loss_terms(params, plan, cfg) for plan in slotted],
                              assembled_targets(slotted, generator=True),
                              {"gen_ngram": 1.0 / n_coarse}, want, prefix="gen_")
    sums |= heads_and_backward(params, cfg, [plan_loss_terms(params, plan, cfg) for plan in filled],
                               assembled_targets(filled, rtd_labels=labels),
                               {"ngram": 1.0 / n_coarse, "fine": 1.0 / n_fine, "rtd": 0.5 / n_rtd},
                               want)
    assert (report.n_coarse, report.n_fine, report.n_rtd) == (n_coarse, n_fine, n_rtd)
    assert (report.coarse, report.fine, report.rtd, report.generator) == (
        sums["ngram"] / n_coarse, sums["fine"] / n_fine, sums["rtd"] / n_rtd,
        sums["gen_ngram"] / n_coarse)
    assert report.comprehensive_sum == sums["ngram"] + sums["fine"]
    for k in want:
        assert grads[k].tobytes() == want[k].tobytes(), k


@pytest.mark.parametrize("objective", list(Objective))
def test_loss_report_does_not_depend_on_backward(small_pipeline, objective):
    # logits and losses run once per batch, but each plan's loss sums are
    # formed apart and added in plan order, so the report is bitwise the
    # plan-order sum of the loss terms of each plan's heads run alone
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, objective, seed=1)
    tcfg = TrainConfig(objective, total_steps=1, batch_size=6, warmup_steps=0, seed=0)
    params = init_params(cfg, 4)
    batch = plans[:6]
    report = batch_loss_and_grad(params, batch, cfg, tcfg, zero_grads(params),
                                 RngState(9))
    work, _ = sampled_work(params, batch, cfg, tcfg, RngState(9))
    coarse_sum = fine_sum = 0.0
    for plan, _, labels in work:
        terms, _ = loss_and_grads(plan_loss_terms, params, plan, cfg, rtd_labels=labels)
        coarse_sum += terms["ngram"]
        fine_sum += terms["fine"]
    assert report.comprehensive_sum == coarse_sum + fine_sum
    assert report.coarse == coarse_sum / max(report.n_coarse, 1)


def test_relation_total_is_weighted_sum(small_pipeline):
    # total = coarse + fine + rtd_weight * rtd + generator, each term the
    # batch sum of its per-plan loss sums over the batch target count
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.RELATION, seed=1)
    tcfg = TrainConfig(Objective.RELATION, total_steps=1, batch_size=6, warmup_steps=0,
                       seed=0, rtd_weight=0.5)
    params = init_params(cfg, 4)
    batch = plans[:6]
    report = batch_loss_and_grad(params, batch, cfg, tcfg, zero_grads(params),
                                 RngState(9))
    work, n = sampled_work(params, batch, cfg, tcfg, RngState(9))
    sums = {"ngram": 0.0, "fine": 0.0, "rtd": 0.0, "gen_ngram": 0.0}
    for plan, gen_plan, labels in work:
        terms, _ = loss_and_grads(plan_loss_terms, params, plan, cfg, rtd_labels=labels)
        for key in ("ngram", "fine", "rtd"):
            sums[key] += terms[key]
        sums["gen_ngram"] += loss_and_grads(generator_loss_terms, params, gen_plan, cfg,
                                            prefix="gen_")[0]["gen_ngram"]
    assert min(n.values()) > 0
    # the counts read before sampling are those of the filled plans
    assert (report.n_coarse, report.n_fine, report.n_rtd) == (n["coarse"], n["fine"], n["rtd"])
    coarse = sums["ngram"] / n["coarse"]
    fine = sums["fine"] / n["fine"]
    rtd = sums["rtd"] / n["rtd"]
    generator = sums["gen_ngram"] / n["gen"]
    assert (report.coarse, report.fine, report.rtd, report.generator) == pytest.approx(
        (coarse, fine, rtd, generator), rel=1e-12)
    assert report.total == pytest.approx(coarse + fine + 0.5 * rtd + generator, rel=1e-12)
    assert report.total != pytest.approx(coarse + fine + rtd + generator, rel=1e-6)


@pytest.mark.parametrize("field", ["targets_coarse", "targets_fine"])
def test_repeated_target_index_is_a_data_error(small_pipeline, field):
    # each head's backward adds into a target row once, so a plan may not
    # name a slot or fine index twice; train() and evaluation refuse such a
    # store as malformed data, though the repeat lies in a plan that no step
    # of the run reaches
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.COMPREHENSIVE, seed=1)
    k, plan = next((k, p) for k, p in enumerate(map(ref_of, plans))
                   if k >= 2 and len(getattr(p, field)) >= 2)
    t = getattr(plan, field)
    bad = store_of([*map(ref_of, plans[:k]),
                    dataclasses.replace(plan, **{field: (t[0], (t[0][0], t[1][1])) + t[2:]})])
    params = init_params(cfg, 0)
    for objective in (Objective.COMPREHENSIVE, Objective.RELATION):
        tcfg = TrainConfig(objective, total_steps=1, batch_size=1, warmup_steps=0)
        with pytest.raises(DataError, match=f"plan {k}: .* target twice"):
            train(tcfg, bad, params, cfg)
    with pytest.raises(DataError, match=f"plan {k}: .* target twice"):
        eval_ngram_ppl(params, bad, cfg)


def test_check_plans_gathers_each_field_once(small_pipeline, monkeypatch):
    # the repeated-target search takes the coarse and fine pairs that the
    # range checks already gathered
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.COMPREHENSIVE, seed=1)
    fields = []
    gather = PlanStore.gather
    monkeypatch.setattr(PlanStore, "gather",
                        lambda store, field: fields.append(field) or gather(store, field))
    check_plans(plans, cfg, Objective.COMPREHENSIVE)
    assert sorted(fields) == sorted(["coarse", "fine", "context_ids", "query_ids", "positions"])


@pytest.mark.parametrize("edit", [
    lambda p: {"targets_coarse": ((p.T, p.targets_coarse[0][1]),) + p.targets_coarse[1:]},
    lambda p: {"context_ids": (1_000_000,) + p.context_ids[1:]},
    lambda p: {"context_positions": (65,) + p.context_positions[1:]},  # max_positions 64
], ids=["coarse-slot", "context-id", "context-position"])
def test_out_of_range_store_is_refused_before_any_step(small_pipeline, tmp_path, monkeypatch,
                                                       edit):
    # a slot on the first query row, an id outside the joint vocabulary or a
    # position past the model's table is refused in memory as in a plan
    # file: before the metrics file opens, the generator samples or any
    # encoder pass runs
    train_mod = importlib.import_module("ngramlm.train")
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.COMPREHENSIVE, seed=1)
    first = ref_of(plans[0])
    bad = store_of([dataclasses.replace(first, **edit(first)), *map(ref_of, plans[1:])])
    calls = []
    monkeypatch.setattr(train_mod, "generator_forward_and_sample",
                        lambda *args: calls.append("sample"))
    monkeypatch.setattr(train_mod, "encode", lambda *args, **kw: calls.append("encode"))
    params = init_params(cfg, 0)
    metrics = tmp_path / "metrics.jsonl"
    for objective in (Objective.COMPREHENSIVE, Objective.RELATION):
        tcfg = TrainConfig(objective, total_steps=1, batch_size=2, warmup_steps=0)
        with pytest.raises(DataError, match="plan 0: "):
            train(tcfg, bad, params, cfg, metrics_path=metrics)
    with pytest.raises(DataError, match="plan 0: "):
        eval_ngram_ppl(params, bad, cfg)
    assert calls == [] and not metrics.exists()


def test_relation_refuses_an_explicit_plan_before_any_draw(small_pipeline, monkeypatch):
    # train() checks the layout of the whole store before the first step,
    # so the generator never samples for a refused store
    train_mod = importlib.import_module("ngramlm.train")
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = store_of([*make_plans(stream, lex, jv, Objective.COMPREHENSIVE, seed=1)[:3],
                      *make_plans(stream, lex, jv, Objective.EXPLICIT, seed=1)[:1]])
    assert all(p.targets_coarse for p in plans)
    draws = []
    monkeypatch.setattr(train_mod, "generator_forward_and_sample",
                        lambda *args: draws.append(args))
    tcfg = TrainConfig(Objective.RELATION, total_steps=1, batch_size=4, warmup_steps=0)
    with pytest.raises(UsageError, match="plan 3: relation training needs comprehensive-layout"):
        train(tcfg, plans, init_params(cfg, 0), cfg)
    assert draws == []


def test_nan_aborts_with_diagnostic_checkpoint(small_pipeline, tmp_path):
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.EXPLICIT, seed=1)
    params = init_params(cfg, 0)
    params["ngram_b"][0] = np.nan
    tcfg = TrainConfig(Objective.EXPLICIT, total_steps=2, batch_size=4,
                       warmup_steps=0, seed=0)
    ck = tmp_path / "run.npz"
    with pytest.raises(NumericError):
        train(tcfg, plans, params, cfg, checkpoint_path=ck)
    # the diagnostic checkpoint holds the NaN: numpy reads it, the loader refuses it
    with np.load(str(ck) + ".diag") as z:
        meta = json.loads(z["__meta__"].tobytes().decode("utf-8"))
        assert np.isnan(z["p/ngram_b"][0])
    assert meta["extra"]["step"] == 0
    with pytest.raises(NumericError, match="tensor ngram_b holds a non-finite value"):
        load_checkpoint(str(ck) + ".diag")


def test_metrics_file_is_json_lines(small_pipeline, tmp_path):
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.CONTIGUOUS, seed=1)
    tcfg = TrainConfig(Objective.CONTIGUOUS, total_steps=2, batch_size=4,
                       warmup_steps=0, seed=0)
    path = tmp_path / "m.jsonl"
    train(tcfg, plans, init_params(cfg, 0), cfg, metrics_path=path)
    import json
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["step"] == 0


@pytest.mark.parametrize("layout, objective", [
    (Objective.CONTIGUOUS, Objective.CONTIGUOUS),
    (Objective.EXPLICIT, Objective.EXPLICIT),
    (Objective.COMPREHENSIVE, Objective.COMPREHENSIVE),
    (Objective.COMPREHENSIVE, Objective.RELATION),
])
def test_plan_store_paths_build_no_mask_plans(small_pipeline, tmp_path, layout, objective):
    # make_plans, writing, reading, and training and evaluation with their
    # plan checks read and write the store's arrays; the plans read back
    # train to the same metrics as make_plans' store in memory
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, layout, seed=1)
    path = tmp_path / "plans.bin"
    write_plan_file(path, plans, {})
    _, stored = read_plan_file(path)
    tcfg = TrainConfig(objective, total_steps=4, batch_size=4, warmup_steps=0, seed=3)
    params, metrics = train(tcfg, stored, init_params(cfg, 0), cfg)
    eval_ngram_ppl(params, stored, cfg)
    _, made_metrics = train(tcfg, plans, init_params(cfg, 0), cfg)
    assert json.dumps(made_metrics) == json.dumps(metrics)


# --- evaluation -------------------------------------------------------------------

def controlled_params(cfg, probs_joint=None, probs_fine=None):
    """Heads with zero weights and log-probability biases produce the
    given distributions at every position, whatever the encoder does."""
    params = init_params(cfg, 0, dtype=np.float64)
    if probs_joint is not None:
        params["ngram_w"][:] = 0.0
        params["ngram_b"][:] = np.log(probs_joint)
    if probs_fine is not None:
        params["fine_w"][:] = 0.0
        params["fine_b"][:] = np.log(probs_fine)
    return params


def explicit_plan(target, T=3):
    return RefPlan(Objective.EXPLICIT, (0, 4, 1), (1, 2, 3), (), (),
                   ((1, target),), ())


def test_eval_ppl_geometric_mean_of_4_and_16():
    # [DERIVED] per-identity perplexities 4 and 16 combine to sqrt(4*16) = 8
    cfg = tiny_config(15, 3)
    q = np.full(cfg.joint_size, (1 - 0.25 - 0.0625) / (cfg.joint_size - 2))
    q[7], q[8] = 0.25, 0.0625
    params = controlled_params(cfg, probs_joint=q)
    ppl = eval_ngram_ppl(params, store_of([explicit_plan(7), explicit_plan(8)]), cfg)
    assert ppl == pytest.approx(8.0, abs=1e-9)


def test_eval_ppl_contiguous_uses_per_token_mean():
    # [DERIVED] a 2-token group with token probabilities 1/2 and 1/8:
    # PPL = exp((ln 2 + ln 8) / 2) = 4; the lone 1/4 token scores 4 too,
    # so the geometric mean over the two masked n-grams is 4
    cfg = tiny_config(15, 3)
    qf = np.full(cfg.fine_vocab_size, (1 - 0.5 - 0.125 - 0.25) / 12)
    qf[5], qf[6], qf[7] = 0.5, 0.125, 0.25
    params = controlled_params(cfg, probs_fine=qf)
    plan = RefPlan(Objective.CONTIGUOUS, (0, 4, 4, 1, 4, 2), (1, 2, 3, 4, 5, 6),
                   (), (), (), ((1, 5), (2, 6), (4, 7)))
    ppl = eval_ngram_ppl(params, store_of([plan]), cfg)
    assert ppl == pytest.approx(4.0, abs=1e-9)


def test_contiguous_gram_groups():
    plan = RefPlan(Objective.CONTIGUOUS, (0,) * 8, tuple(range(1, 9)), (), (),
                   (), ((1, 0), (2, 0), (4, 0), (6, 0), (7, 0)))
    rows, targets, bounds = _contiguous_gram_groups(store_of([plan])[0])
    assert [group.tolist() for group in np.split(rows, bounds)] == [[1, 2], [4], [6, 7]]
    assert targets.tolist() == [0] * 5


def test_untrained_explicit_ppl_near_joint_size(small_pipeline):
    # near-zero random logits: perplexity sits at the uniform baseline |joint|
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.EXPLICIT, seed=3,
                       ngram_only=True)
    ppl = eval_ngram_ppl(init_params(cfg, 0), plans, cfg)
    assert ppl == pytest.approx(cfg.joint_size, rel=0.05)


def reference_ngram_ppl(params, plans, cfg):
    """eval_ngram_ppl with every plan encoded whole, context and queries,
    under its attention mask."""
    log_ppls = []
    for plan in plans:
        mask = build_attention_mask(plan, dtype=params["tok_emb"].dtype)
        acts = encode(params, plan.all_ids(), plan.all_positions(), mask, cfg)
        if plan.objective == Objective.CONTIGUOUS:
            target_of = dict(plan.fine.tolist())
            groups = []  # runs of consecutive target indexes
            for i in sorted(target_of):
                if groups and i == groups[-1][-1] + 1:
                    groups[-1].append(i)
                else:
                    groups.append([i])
            for group in groups:
                nll, _ = _xent(acts.hidden[group] @ params["fine_w"] + params["fine_b"],
                               [target_of[i] for i in group])
                log_ppls.append(float(nll.mean()))
        elif plan.targets_coarse:
            slots = [s for s, _ in plan.targets_coarse]
            nll, _ = _xent(acts.hidden[slots] @ params["ngram_w"] + params["ngram_b"],
                           [y for _, y in plan.targets_coarse])
            log_ppls.extend(float(x) for x in nll)
    return float(np.exp(np.mean(log_ppls)))


def spread_params(cfg, seed):
    """float64 parameters with weights large enough that the perplexity
    depends on the context, not only on the head biases."""
    g = np.random.default_rng(seed)
    return {k: v + 0.3 * g.standard_normal(v.shape)
            for k, v in init_params(cfg, seed, dtype=np.float64).items()}


@pytest.mark.parametrize("objective", [Objective.CONTIGUOUS, Objective.EXPLICIT,
                                       Objective.COMPREHENSIVE])
def test_eval_ppl_equals_whole_plan_reference(small_pipeline, objective):
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, objective, seed=5)[:40]
    params = spread_params(cfg, 7)
    want = reference_ngram_ppl(params, plans, cfg)
    assert abs(eval_ngram_ppl(params, plans, cfg) - want) <= 1e-9 * want
    assert abs(want - cfg.joint_size) > 0.05 * cfg.joint_size  # not the uniform baseline


def test_eval_ppl_mixed_objectives_equal_whole_plan_reference(small_pipeline):
    # contiguous and explicit plans, interleaved, share runs of scored rows
    # with one product per head
    stream, vocab, lex, jv, cfg = small_pipeline
    contiguous = make_plans(stream, lex, jv, Objective.CONTIGUOUS, seed=5)[:20]
    explicit = make_plans(stream, lex, jv, Objective.EXPLICIT, seed=5)[:20]
    plans = store_of([p for pair in zip(contiguous, explicit) for p in pair])
    params = spread_params(cfg, 7)
    want = reference_ngram_ppl(params, plans, cfg)
    assert abs(eval_ngram_ppl(params, plans, cfg) - want) <= 1e-9 * want


def test_eval_ppl_ignores_the_queries(small_pipeline):
    # a comprehensive plan scores its coarse slots, which never see the queries
    stream, vocab, lex, jv, cfg = small_pipeline
    plans = make_plans(stream, lex, jv, Objective.COMPREHENSIVE, seed=5)[:40]
    assert any(p.Q for p in plans)
    bare = store_of([dataclasses.replace(p, query_ids=(), query_positions=(),
                                         targets_fine=tuple(t for t in p.targets_fine if t[0] < p.T))
                     for p in map(ref_of, plans)])
    params = spread_params(cfg, 7)
    assert eval_ngram_ppl(params, plans, cfg) == eval_ngram_ppl(params, bare, cfg)


def test_eval_ppl_encodes_only_plans_with_scored_rows(monkeypatch):
    # an explicit plan whose masked segment fell back to a fine target has
    # no coarse slot to score, so it costs no encoder pass and moves no ppl
    cfg = tiny_config(15, 3)
    params = spread_params(cfg, 7)
    fallback = RefPlan(Objective.EXPLICIT, (0, 4, 1), (1, 2, 3), (5,), (2,), (), ((3, 6),))
    want = eval_ngram_ppl(params, store_of([explicit_plan(7)]), cfg)
    train_mod = importlib.import_module("ngramlm.train")
    real, calls = train_mod.encode, []

    def spy(*args, **kwargs):
        calls.append(len(kwargs["rows"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(train_mod, "encode", spy)
    assert eval_ngram_ppl(params, store_of([fallback, explicit_plan(7)]), cfg) == want
    assert calls == [1]


def test_eval_ppl_requires_targets():
    cfg = tiny_config(15, 3)
    with pytest.raises(UsageError):
        eval_ngram_ppl(init_params(cfg, 0), store_of([]), cfg)
