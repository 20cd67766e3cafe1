"""Loss functions, the joint training loop and n-gram perplexity.

Every cross-entropy term goes through ``_xent`` and every replaced-token
term through ``_bce_with_logits``; each plan's terms are kept as sums
(sum convention), so the comprehensive loss is exactly its coarse and
fine parts, and per-target means are reported alongside for logging.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericError, UsageError
from .maskplan import (
    MaskPlan,
    Objective,
    RngState,
    build_attention_mask,
    relation_from_comprehensive,
)
from .model import (
    Activations,
    ModelConfig,
    encode,
    encode_backward,
    encode_generator,
    generator_forward_and_sample,
    head_backward,
    load_checkpoint,
    predict_fine,
    predict_ngram,
    predict_rtd,
    rtd_backward,
    save_checkpoint,
)


# ---------------------------------------------------------------------------
# elementary losses (logits -> nats)

def _log_softmax(logits):
    z = logits - logits.max(-1, keepdims=True)
    return z - np.log(np.exp(z).sum(-1, keepdims=True))


def _xent(logits, targets):
    """(per-example nll, dlogits with unit scale)."""
    targets = np.asarray(targets, dtype=np.int64)
    if len(targets) and (targets.min() < 0 or targets.max() >= logits.shape[-1]):
        raise UsageError(f"target id out of range 0..{logits.shape[-1] - 1}")
    logp = _log_softmax(logits)
    nll = -logp[np.arange(len(targets)), targets]
    d = np.exp(logp)
    d[np.arange(len(targets)), targets] -= 1.0
    return nll, d


def _bce_with_logits(logits, labels):
    """(per-position nll, dlogits)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    # log(1 + exp(-|x|)) formulation for stability
    nll = np.maximum(logits, 0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))
    d = 1.0 / (1.0 + np.exp(-logits)) - labels
    return nll, d


@dataclass
class LossReport:
    """Per-term nats-per-target values for one step."""

    fine: float = 0.0
    coarse: float = 0.0
    comprehensive_sum: float = 0.0
    generator: float = 0.0
    rtd: float = 0.0
    total: float = 0.0
    n_fine: int = 0
    n_coarse: int = 0
    n_rtd: int = 0

    def to_dict(self):
        return asdict(self)


@dataclass
class TrainConfig:
    objective: Objective
    total_steps: int
    batch_size: int = 8
    lr: float = 1e-3
    warmup_steps: int = 0
    seed: int = 0
    rtd_weight: float = 1.0
    fine_weight: float = 1.0
    coarse_weight: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-6
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    temperature: float = 1.0
    checkpoint_every: int = 0  # 0: final checkpoint only
    record_wall_time: bool = False  # off: logs are byte-reproducible

    def __post_init__(self):
        if self.lr < 0 or self.total_steps < 1 or self.batch_size < 1:
            raise UsageError("rates and step counts must be positive")
        if self.warmup_steps > self.total_steps:
            raise UsageError("warmup exceeds total steps")


def lr_at(step: int, tcfg: TrainConfig) -> float:
    """Linear warmup to peak, then linear decay to zero."""
    if tcfg.warmup_steps and step < tcfg.warmup_steps:
        return tcfg.lr * (step + 1) / tcfg.warmup_steps
    remaining = tcfg.total_steps - step
    decay_span = max(tcfg.total_steps - tcfg.warmup_steps, 1)
    return tcfg.lr * max(remaining, 0) / decay_span


# ---------------------------------------------------------------------------
# per-plan forward/backward

def _encode_plan(params: dict, plan: MaskPlan, cfg: ModelConfig) -> Activations:
    """Standard-model pass over a plan's context and queries under its
    length-hiding attention mask."""
    mask = build_attention_mask(plan, dtype=params["tok_emb"].dtype)
    return encode(params, plan.all_ids(), plan.all_positions(), mask, cfg)


def _plan_indexes(plan: MaskPlan):
    slots = [s for s, _ in plan.targets_coarse]
    coarse_t = [y for _, y in plan.targets_coarse]
    fine_idx = [i for i, _ in plan.targets_fine]
    fine_t = [x for _, x in plan.targets_fine]
    return slots, coarse_t, fine_idx, fine_t


def plan_loss_terms(params: dict, plan: MaskPlan, cfg: ModelConfig,
                    scales: dict | None = None, *, grads: dict | None = None):
    """Loss sums for one plan; gradients accumulated when scales given.

    ``scales`` maps term name -> factor applied to that term's dlogits
    (e.g. weight / batch target count).  Gradients are added into
    ``grads`` in place when it is given, else into a fresh dict.
    Returns (terms, grads).
    """
    if grads is None:
        grads = {}
    acts = _encode_plan(params, plan, cfg)
    slots, coarse_t, fine_idx, fine_t = _plan_indexes(plan)
    terms = {"coarse_sum": 0.0, "fine_sum": 0.0, "rtd_sum": 0.0,
             "n_coarse": len(coarse_t), "n_fine": len(fine_t), "n_rtd": 0}
    d_hidden = np.zeros_like(acts.hidden) if scales is not None else None

    if coarse_t:
        logits = predict_ngram(acts, slots, params)
        nll, dlog = _xent(logits, coarse_t)
        terms["coarse_sum"] = float(nll.sum())
        if scales is not None:
            head_backward(acts, slots, dlog * scales["coarse"], "ngram_w", "ngram_b",
                          params, d_hidden, grads=grads)
    if fine_t:
        logits = predict_fine(acts, fine_idx, params)
        nll, dlog = _xent(logits, fine_t)
        terms["fine_sum"] = float(nll.sum())
        if scales is not None:
            head_backward(acts, fine_idx, dlog * scales["fine"], "fine_w", "fine_b",
                          params, d_hidden, grads=grads)
    if plan.rtd_labels is not None:
        ctx = list(range(plan.T))
        logits = predict_rtd(acts, ctx, params)
        nll, dlog = _bce_with_logits(logits, plan.rtd_labels)
        terms["rtd_sum"] = float(nll.sum())
        terms["n_rtd"] = plan.T
        if scales is not None:
            dlog = (dlog * scales["rtd"]).astype(acts.hidden.dtype)
            rtd_backward(acts, ctx, dlog, params, d_hidden, grads=grads)
    if scales is not None:
        encode_backward(params, acts, d_hidden, cfg, grads=grads)
    return terms, grads


def generator_loss_terms(params: dict, plan: MaskPlan, cfg: ModelConfig,
                         scale: float | None = None, *, grads: dict | None = None):
    """Generator explicit-MLM loss on a plan's context; slots predict y.

    Gradients go into ``grads`` as in :func:`plan_loss_terms`.
    """
    if grads is None:
        grads = {}
    slots, coarse_t, _, _ = _plan_indexes(plan)
    if not coarse_t:
        return {"gen_sum": 0.0, "n_gen": 0}, grads
    acts = encode_generator(params, plan, cfg)
    logits = predict_ngram(acts, slots, params, prefix="gen_")
    nll, dlog = _xent(logits, coarse_t)
    terms = {"gen_sum": float(nll.sum()), "n_gen": len(coarse_t)}
    if scale is not None:
        d_hidden = np.zeros_like(acts.hidden)
        head_backward(acts, slots, dlog * scale, "gen_ngram_w", "gen_ngram_b",
                      params, d_hidden, grads=grads)
        encode_backward(params, acts, d_hidden, cfg.generator_view(), prefix="gen_",
                        grads=grads)
    return terms, grads


def batch_loss_and_grad(params: dict, plans, cfg: ModelConfig, tcfg: TrainConfig,
                        sample_rng: RngState | None = None, want_grads: bool = True):
    """Loss report and parameter gradients for one batch of plans.

    For the relation objective each comprehensive-layout plan is filled
    with generator samples first; sampling is non-differentiable, so the
    generator only receives gradient from its own explicit-MLM term.
    """
    relation = tcfg.objective == Objective.RELATION
    work = []
    n_coarse = n_fine = n_rtd = n_gen = 0
    for plan in plans:
        gen_plan = None
        if relation:
            if plan.objective not in (Objective.COMPREHENSIVE, Objective.RELATION):
                raise UsageError("relation training needs comprehensive-layout plans")
            gen_plan = plan
            if plan.targets_coarse:
                sampled = generator_forward_and_sample(
                    params, plan, cfg, sample_rng, tcfg.temperature)
                plan = relation_from_comprehensive(plan, sampled)
            n_rtd += plan.T if plan.rtd_labels is not None else 0
            n_gen += len(plan.targets_coarse)
        work.append((plan, gen_plan))
        n_coarse += len(plan.targets_coarse)
        n_fine += len(plan.targets_fine)

    scales = None
    if want_grads:
        scales = {
            "coarse": tcfg.coarse_weight / max(n_coarse, 1),
            "fine": tcfg.fine_weight / max(n_fine, 1),
            "rtd": tcfg.rtd_weight / max(n_rtd, 1),
        }
    # one accumulator for the whole batch: each plan adds into it in plan order
    grads: dict = {}
    sums = {"coarse_sum": 0.0, "fine_sum": 0.0, "rtd_sum": 0.0, "gen_sum": 0.0}
    for plan, gen_plan in work:
        terms, _ = plan_loss_terms(params, plan, cfg, scales, grads=grads)
        for key in ("coarse_sum", "fine_sum", "rtd_sum"):
            sums[key] += terms[key]
        if relation and gen_plan is not None:
            gterms, _ = generator_loss_terms(
                params, gen_plan, cfg, scales and 1.0 / max(n_gen, 1), grads=grads)
            sums["gen_sum"] += gterms["gen_sum"]

    report = LossReport(
        fine=sums["fine_sum"] / max(n_fine, 1),
        coarse=sums["coarse_sum"] / max(n_coarse, 1),
        comprehensive_sum=sums["coarse_sum"] + sums["fine_sum"],
        generator=sums["gen_sum"] / max(n_gen, 1),
        rtd=sums["rtd_sum"] / max(n_rtd, 1),
        n_fine=n_fine,
        n_coarse=n_coarse,
        n_rtd=n_rtd,
    )
    report.total = (
        tcfg.coarse_weight * report.coarse
        + tcfg.fine_weight * report.fine
        + (tcfg.rtd_weight * report.rtd if relation else 0.0)
        + (report.generator if relation else 0.0)
    )
    if not np.isfinite(report.total):
        raise NumericError(f"non-finite loss: {report}")
    return report, grads


# ---------------------------------------------------------------------------
# optimizer

class AdamState:
    def __init__(self, params: dict):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        self.scratch: dict = {}  # one work buffer per parameter, not checkpointed


def _decayable(name: str) -> bool:
    last = name.rsplit("_", 1)[-1]
    return not (last.startswith("b") or "ln" in name)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float, tcfg: TrainConfig):
    factor = None
    if tcfg.clip_norm > 0:
        sq = sum(float((g * g).sum()) for g in grads.values())
        norm = np.sqrt(sq)
        if norm > tcfg.clip_norm:
            factor = tcfg.clip_norm / norm
    state.t += 1
    bc1 = 1.0 - tcfg.beta1**state.t
    bc2 = 1.0 - tcfg.beta2**state.t
    for name, g in grads.items():
        p = params[name]
        buf = state.scratch.get(name)
        if buf is None:
            buf = state.scratch[name] = np.empty_like(p)
        if factor is None:
            g = g.astype(p.dtype, copy=False)
        else:
            # factor is a float64 scalar: the product is formed in float64 and
            # rounded once to the parameter dtype, without a float64 copy
            g = np.multiply(g, factor, out=buf)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in {name}")
        m = state.m[name]
        v = state.v[name]
        # in place, in this operation order (rounding included):
        # m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g g
        # p -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd p)
        tmp = np.multiply(g, 1 - tcfg.beta1)
        m *= tcfg.beta1
        m += tmp
        np.multiply(g, 1 - tcfg.beta2, out=tmp)
        tmp *= g
        v *= tcfg.beta2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += tcfg.eps
        np.divide(m, bc1, out=buf)
        buf /= tmp
        if tcfg.weight_decay and _decayable(name):
            np.multiply(p, tcfg.weight_decay, out=tmp)
            buf += tmp
        buf *= lr
        p -= buf


# ---------------------------------------------------------------------------
# training loop

def train(tcfg: TrainConfig, plans, params: dict, cfg: ModelConfig,
          metrics_path=None, checkpoint_path=None, resume_from=None):
    """Run the training loop over a fixed plan list, cycling in order.

    Deterministic for a fixed seed (single-threaded).  Returns (params,
    list of per-step metric dicts).  NaN loss aborts with a diagnostic
    checkpoint next to ``checkpoint_path``.
    """
    plans = list(plans)
    if not plans:
        raise UsageError("empty plan stream")
    state = AdamState(params)
    sample_rng = RngState(tcfg.seed ^ 0x5EED)
    start_step = 0
    if resume_from is not None:
        params_r, cfg_r, extra, arrays = load_checkpoint(resume_from)
        if cfg_r != cfg:
            raise UsageError(f"checkpoint {resume_from} has model config {asdict(cfg_r)}, "
                             f"not {asdict(cfg)}")
        objective_r = extra.get("train_config", {}).get("objective")
        if objective_r != int(tcfg.objective):
            raise UsageError(f"checkpoint {resume_from} was trained with objective "
                             f"{objective_r}, not {int(tcfg.objective)} "
                             f"({tcfg.objective.name.lower()})")
        params.clear()
        params.update(params_r)
        state = AdamState(params)
        state.m = {k[2:]: v for k, v in arrays.items() if k.startswith("m/")}
        state.v = {k[2:]: v for k, v in arrays.items() if k.startswith("v/")}
        state.t = extra["adam_t"]
        start_step = extra["step"]
        sample_rng = RngState(extra["sample_seed"], extra["sample_counter"])

    metrics = []
    out = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    try:
        cursor = (start_step * tcfg.batch_size) % len(plans)
        for step in range(start_step, tcfg.total_steps):
            t0 = time.monotonic()
            batch = []
            for _ in range(tcfg.batch_size):
                batch.append(plans[cursor])
                cursor = (cursor + 1) % len(plans)
            lr = lr_at(step, tcfg)
            try:
                report, grads = batch_loss_and_grad(params, batch, cfg, tcfg, sample_rng)
                adam_step(params, grads, state, lr, tcfg)
            except NumericError:
                if checkpoint_path:
                    _save_train_checkpoint(str(checkpoint_path) + ".diag", params, cfg,
                                           tcfg, state, step, sample_rng)
                raise
            rec = {"step": step, "lr": lr,
                   "wall_ms": round((time.monotonic() - t0) * 1e3, 3)
                   if tcfg.record_wall_time else 0.0}
            rec.update(report.to_dict())
            metrics.append(rec)
            if out:
                out.write(json.dumps(rec, sort_keys=True) + "\n")
            if checkpoint_path and tcfg.checkpoint_every and (step + 1) % tcfg.checkpoint_every == 0:
                _save_train_checkpoint(checkpoint_path, params, cfg, tcfg, state,
                                       step + 1, sample_rng)
        if checkpoint_path:
            _save_train_checkpoint(checkpoint_path, params, cfg, tcfg, state,
                                   tcfg.total_steps, sample_rng)
    finally:
        if out:
            out.close()
    return params, metrics


def _save_train_checkpoint(path, params, cfg, tcfg, state, step, sample_rng):
    arrays = {}
    for k, v in state.m.items():
        arrays["m/" + k] = v
    for k, v in state.v.items():
        arrays["v/" + k] = v
    extra = {
        "step": step,
        "adam_t": state.t,
        "sample_seed": sample_rng.seed,
        "sample_counter": sample_rng.counter,
        "train_config": {**asdict(tcfg), "objective": int(tcfg.objective)},
    }
    save_checkpoint(path, params, cfg, extra=extra, arrays=arrays)


# ---------------------------------------------------------------------------
# evaluation

def _contiguous_gram_groups(plan: MaskPlan):
    """Masked n-grams of a contiguous plan as runs of consecutive targets.

    Exact because the mask sampler never selects adjacent segments."""
    idxs = sorted(i for i, _ in plan.targets_fine)
    groups, run = [], []
    for i in idxs:
        if run and i != run[-1] + 1:
            groups.append(run)
            run = []
        run.append(i)
    if run:
        groups.append(run)
    return groups


def eval_ngram_ppl(params: dict, plans, cfg: ModelConfig) -> float:
    """Geometric mean of per-masked-n-gram perplexities, in log space.

    Contiguous plans: PPL(w) = exp(mean token NLL within w).  Explicit
    and comprehensive plans: PPL(w) = exp(NLL of the identity).
    """
    log_ppls = []
    for plan in plans:
        acts = _encode_plan(params, plan, cfg)
        if plan.objective == Objective.CONTIGUOUS:
            target_of = dict(plan.targets_fine)
            for group in _contiguous_gram_groups(plan):
                logits = predict_fine(acts, group, params)
                nll, _ = _xent(logits, [target_of[i] for i in group])
                log_ppls.append(float(nll.mean()))
        else:
            slots, coarse_t, _, _ = _plan_indexes(plan)
            if not slots:
                continue
            logits = predict_ngram(acts, slots, params)
            nll, _ = _xent(logits, coarse_t)
            log_ppls.extend(float(x) for x in nll)
    if not log_ppls:
        raise UsageError("no masked n-grams in evaluation set")
    return float(np.exp(np.mean(log_ppls)))
