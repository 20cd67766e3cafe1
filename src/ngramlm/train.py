"""Loss functions, generator sampling, the joint training loop and n-gram perplexity.

Every training cross-entropy term goes through ``_xent`` and every
replaced-token term through ``_bce_with_logits``, and evaluation reads
``_log_softmax`` at its targets; each plan's terms are kept as sums
(sum convention), so the comprehensive loss is exactly its coarse and
fine parts, and per-target means are reported alongside for logging.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, NumericError, UsageError
from .maskplan import (
    Objective,
    PlanStore,
    PlanView,
    RngState,
    _segments,
    build_attention_mask,
    relation_from_comprehensive,
)
from .model import (
    Activations,
    FlatLayout,
    ModelConfig,
    checked_tensors,
    encode,
    encode_backward,
    head_backward,
    head_logits,
    load_checkpoint,
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


@dataclass
class TrainConfig:
    objective: Objective
    total_steps: int
    batch_size: int = 8
    lr: float = 1e-3
    warmup_steps: int = 0
    seed: int = 0
    rtd_weight: float = 1.0
    checkpoint_every: int = 0  # 0: final checkpoint only

    def __post_init__(self):
        if self.total_steps < 1 or self.batch_size < 1:
            raise UsageError("step counts must be positive")
        if not (0 <= self.lr < np.inf and 0 <= self.rtd_weight < np.inf):
            raise UsageError(f"lr {self.lr} and rtd_weight {self.rtd_weight} must be in [0, inf)")
        if min(self.warmup_steps, self.checkpoint_every) < 0:
            raise UsageError("warmup and checkpoint interval must be non-negative")
        if self.warmup_steps > self.total_steps:
            raise UsageError("warmup exceeds total steps")
        if self.seed < 0:
            raise UsageError(f"seed must be non-negative, got {self.seed}")


def lr_at(step: int, tcfg: TrainConfig) -> float:
    """Linear warmup to peak, then linear decay to zero."""
    if tcfg.warmup_steps and step < tcfg.warmup_steps:
        return tcfg.lr * (step + 1) / tcfg.warmup_steps
    remaining = tcfg.total_steps - step
    decay_span = max(tcfg.total_steps - tcfg.warmup_steps, 1)
    return tcfg.lr * max(remaining, 0) / decay_span


# ---------------------------------------------------------------------------
# per-plan forward; heads, losses and one backward per encoder per batch

def heads_and_backward(params: dict, cfg: ModelConfig, acts: list, targets: dict,
                       scales: dict, grads: dict, prefix: str = "") -> dict:
    """One encoder's heads, losses and backward over a batch's passes.

    ``acts`` are the plans' forward passes, whose hidden states are packed
    row after row.  ``targets`` maps a head to (rows, target ids or RTD
    labels, plan of each row), the rows counted across the packed passes;
    the heads run in its order, ``rtd`` last, as its rows overlap the
    others'.  Per head: one :func:`head_logits` product at the rows, one
    loss, each plan's loss sum (added in plan order into the head's entry of
    the returned sums, which hold a 0.0 for every head of ``scales``), and
    one head backward with the dlogits scaled by ``scales[head]`` (e.g.
    weight / batch target count).  Then one packed :func:`encode_backward`.
    Gradients add into ``grads``.
    """
    hidden = np.concatenate([a.hidden for a in acts])
    d_hidden = np.zeros_like(hidden)
    sums = dict.fromkeys(scales, 0.0)
    for head, (rows, values, owner) in targets.items():
        if not len(rows):
            continue
        logits = head_logits(hidden[rows], params, head)
        if head == "rtd":
            nll, dlog = _bce_with_logits(logits, values)
            dlog = (dlog * scales[head]).astype(hidden.dtype)
        else:
            nll, dlog = _xent(logits, values)
            dlog *= scales[head]
        for value in np.bincount(owner, nll).tolist():
            sums[head] += value
        head_backward(hidden, rows, dlog, head, params, d_hidden, grads=grads)
    encode_backward(params, acts, d_hidden, cfg, prefix, grads=grads)
    return sums


def _packed_targets(plans: PlanStore, field: str, first):
    """``plans.gather(field)`` as (rows, ids, plan of each row), each row
    offset by ``first``, its plan's first row in the packed passes."""
    pairs, owner = plans.gather(field)
    return first[owner] + pairs[:, 0], pairs[:, 1], owner


def check_plans(plans: PlanStore, cfg: ModelConfig, objective: Objective | None = None):
    """Refuse a store, naming its first plan at fault.  DataError for an
    empty context, an id, position or target index outside ``cfg``'s sizes
    or the plan's own length (a contiguous plan's fine targets lie in its
    context), then for a coarse slot or fine index named twice.  Then
    UsageError for a plan outside the layout ``objective`` trains on (the
    comprehensive one for relation: its generator must see [M] at a slot),
    or a relation plan under evaluation (None)."""
    joint, fine, max_pos = cfg.joint_size, cfg.fine_vocab_size, cfg.max_positions
    T = plans.T
    limit = np.where(plans.objectives == Objective.CONTIGUOUS, T, T + plans.Q)
    targets = plans.gather("coarse"), plans.gather("fine")
    (coarse, at_coarse), (fine_t, at_fine) = targets
    checks = [(T == 0, np.arange(len(plans)), "empty context")]
    checks += [(values >= joint, at, f"token id outside the joint vocabulary 0..{joint - 1}")
               for values, at in (plans.gather("context_ids"), plans.gather("query_ids"))]
    positions, at_positions = plans.gather("positions")
    checks += [
        ((positions < 1) | (positions > max_pos), at_positions,
         f"position id outside 1..{max_pos}"),
        ((coarse[:, 0] >= T[at_coarse]) | (coarse[:, 1] >= joint), at_coarse,
         f"coarse target outside its plan's context slots or joint vocabulary 0..{joint - 1}"),
        ((fine_t[:, 0] >= limit[at_fine]) | (fine_t[:, 1] >= fine), at_fine,
         f"fine target outside its plan's positions or fine vocabulary 0..{fine - 1}"),
    ]
    for bad, at, what in checks:
        if bad.any():
            raise DataError(f"plan {at[bad.argmax()]}: {what}")
    k = plans.repeated_target(*targets)
    if k is not None:
        raise DataError(f"plan {k}: a coarse slot or fine index is a target twice")
    if objective is None:
        bad = plans.objectives == Objective.RELATION
        what = "evaluation takes no relation-layout plans: their slots hold an identity"
    else:
        layout = objective.layout
        bad = plans.objectives != layout
        what = f"{objective.name.lower()} training needs {layout.name.lower()}-layout plans"
    if bad.any():
        raise UsageError(f"plan {bad.argmax()}: {what}")


def plan_loss_terms(params: dict, plan: PlanView, cfg: ModelConfig) -> Activations:
    """The standard model's pass over a plan's context and queries under
    its length-hiding attention mask (a plan without queries needs no
    mask), whose rows feed the coarse, fine and RTD heads."""
    mask = build_attention_mask(plan, dtype=params["tok_emb"].dtype) if plan.Q else None
    return encode(params, plan.ids, plan.positions, mask, cfg)


def generator_loss_terms(params: dict, plan: PlanView, cfg: ModelConfig) -> Activations:
    """The generator's pass over a plan's context, nothing masked out, whose
    slots predict y (the explicit-MLM term, head ``gen_ngram``)."""
    T = plan.T
    return encode(params, plan.ids[:T], plan.positions[:T], None, cfg.generator_view(),
                  prefix="gen_")


def _context_rows(params: dict, plans: PlanStore, rows, owner, cfg: ModelConfig,
                  prefix: str = ""):
    """The last-layer states at ``rows``, stacked: one forward-only
    :func:`encode` over each plan's context alone, nothing masked out, for
    each plan that owns a row.  ``owner`` holds each row's plan, sorted, as
    :meth:`PlanStore.gather` returns it."""
    ks, first = np.unique(owner, return_index=True)
    return np.concatenate([
        encode(params, plan.ids[:plan.T], plan.positions[:plan.T], None, cfg, prefix,
               rows=at).hidden
        for plan, at in zip(map(plans.__getitem__, ks.tolist()), np.split(rows, first[1:]))])


def generator_forward_and_sample(params: dict, plans: PlanStore, cfg: ModelConfig,
                                 rng: RngState):
    """Sample one joint identity per masked slot from the generator softmax,
    for every slot of ``plans``.

    The generator runs over each plan's context only, with nothing masked
    out, under ``cfg.generator_view()``, and its last layer at the slots
    (:func:`_context_rows` on ``plans.gather("coarse")``).  One stacked
    softmax and cumulative sum then cover every slot.  Each plan with slots
    takes one keyed draw from ``rng``, in plan order, and draws its slots at
    once, exactly as ``g.choice(V, p=row)`` draws them slot by slot: one
    uniform each, in slot order, against the row's normalised cumulative
    sum.  A plan without slots takes no draw.  The ids come in the order of
    ``PlanStore.gather("coarse")``.  Sampling is a non-differentiable
    boundary: no gradient flows back through them.
    """
    slots, owner = plans.gather("coarse")
    if not len(owner):
        raise UsageError("no masked slots to sample for")
    states = _context_rows(params, plans, slots[:, 0], owner, cfg.generator_view(), "gen_")
    z = head_logits(states, params, "gen_ngram").astype(np.float64)
    z -= z.max(-1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(-1, keepdims=True)
    if not np.isfinite(probs).all():
        raise NumericError("non-finite generator probabilities")
    u = np.concatenate([rng.next_generator().random(n) for n in plans.nc[plans.nc > 0].tolist()])
    # the count of cdf entries <= u is searchsorted(cdf, u, side="right")
    cdf = probs.cumsum(-1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(-1)


def batch_loss_and_grad(params: dict, plans: PlanStore, cfg: ModelConfig, tcfg: TrainConfig,
                        grads: dict, sample_rng: RngState | None = None):
    """Loss report for a batch that passes :func:`check_plans`; its gradients add into ``grads``.

    Every dlogit is scaled by its term's batch target count, so the counts
    are read from the plans first; sampling keeps every target.  The
    relation objective then samples every slot of the batch from the
    generator and fills the comprehensive-layout plans with the samples in
    one pass.  The generator's passes on the unfilled plans with slots run
    next, with its heads and backward (:func:`heads_and_backward`), and only
    then the standard model's passes on the filled plans and its heads and
    backward, so the two encoders' caches are never held together.  The two
    write disjoint gradients, and sampling is non-differentiable, so the
    generator only receives gradient from its own term.  Every head's
    targets are gathered from the store, and the RTD term covers the
    context of each plan with slots, at the labels that filling derived: a
    plan without slots has none.
    """
    relation = tcfg.objective == Objective.RELATION
    n_coarse = int(plans.nc.sum())
    n_fine = int(plans.nf.sum())
    n_gen = n_coarse if relation else 0
    slotted = np.flatnonzero(plans.nc) if relation else np.zeros(0, dtype=np.int64)
    n_rtd = int(plans.T[slotted].sum())

    lengths = plans.T + plans.Q
    first = np.cumsum(lengths) - lengths  # each plan's first row in the packed passes
    targets = {"ngram": _packed_targets(plans, "coarse", first),
               "fine": _packed_targets(plans, "fine", first)}
    sums = {"gen_ngram": 0.0}
    filled = plans
    if len(slotted):
        sampled = generator_forward_and_sample(params, plans, cfg, sample_rng)
        filled, labels = relation_from_comprehensive(plans, sampled)
        gen = plans.take(slotted)
        sums |= heads_and_backward(
            params, cfg.generator_view(), [generator_loss_terms(params, p, cfg) for p in gen],
            {"gen_ngram": _packed_targets(gen, "coarse", np.cumsum(gen.T) - gen.T)},
            {"gen_ngram": 1.0 / n_gen}, grads, prefix="gen_")
        context = np.cumsum(plans.T) - plans.T  # each plan's first label
        targets["rtd"] = (_segments(first[slotted], plans.T[slotted]),
                          labels[_segments(context[slotted], plans.T[slotted])],
                          np.repeat(slotted, plans.T[slotted]))
    scales = {"ngram": 1.0 / max(n_coarse, 1), "fine": 1.0 / max(n_fine, 1),
              "rtd": tcfg.rtd_weight / max(n_rtd, 1)}
    sums |= heads_and_backward(params, cfg, [plan_loss_terms(params, p, cfg) for p in filled],
                               targets, scales, grads)

    report = LossReport(
        fine=sums["fine"] / max(n_fine, 1),
        coarse=sums["ngram"] / max(n_coarse, 1),
        comprehensive_sum=sums["ngram"] + sums["fine"],
        generator=sums["gen_ngram"] / max(n_gen, 1),
        rtd=sums["rtd"] / max(n_rtd, 1),
        n_fine=n_fine,
        n_coarse=n_coarse,
        n_rtd=n_rtd,
    )
    report.total = (report.coarse + report.fine
                    + (tcfg.rtd_weight * report.rtd if relation else 0.0)
                    + (report.generator if relation else 0.0))
    if not np.isfinite(report.total):
        raise NumericError(f"non-finite loss: {report}")
    return report


# ---------------------------------------------------------------------------
# optimizer

# AdamW's moment decay rates and the epsilon added to its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.99, 1e-6
WEIGHT_DECAY, CLIP_NORM = 0.01, 1.0  # decoupled weight decay; the gradient norm clipped to
# elements per block of the update passes: one block's slices of the seven
# vectors they touch, 1.8 MB in float32, stay together in a 2 MB per-core L2
ADAM_BLOCK = 65536


class AdamState:
    """AdamW moments ``m`` and ``v``, ``decay``, each element's weight-decay
    factor (``WEIGHT_DECAY`` in the parameter dtype, or 0 for a bias or
    layer-norm tensor), and two work vectors: ``squares``, as long as the
    largest tensor or one block, and ``clipped``, one block."""

    def __init__(self, layout: FlatLayout):
        self.layout = layout
        size = layout.bounds[-1]
        self.m, self.v = np.zeros((2, size), dtype=layout.dtype)
        block = min(ADAM_BLOCK, size)
        largest = max(np.diff(layout.bounds).tolist(), default=0)
        self.squares = np.empty(max(largest, block), dtype=layout.dtype)
        self.clipped = np.empty(block, dtype=layout.dtype)
        factors = np.array([WEIGHT_DECAY * _decayable(name) for name in layout.shapes],
                           dtype=layout.dtype)
        self.decay = np.repeat(factors, np.diff(layout.bounds))
        self.t = 0


def _decayable(name: str) -> bool:
    last = name.rsplit("_", 1)[-1]
    return not (last.startswith("b") or "ln" in name)


def adam_step(params, grads, state: AdamState, lr: float):
    """One AdamW update of the vector ``params`` in place from the vector
    ``grads``, both laid out by ``state.layout``; a tensor without gradient
    still decays.  Returns (global gradient norm, whether it was clipped)."""
    squares = state.squares
    # per-tensor float32 sums, each over a tensor-sized slice, added in layout order
    b = state.layout.bounds
    norm = 0.0
    for lo, hi in zip(b, b[1:]):
        sq = np.multiply(grads[lo:hi], grads[lo:hi], out=squares[:hi - lo])
        norm += float(sq.sum())
    norm = np.sqrt(norm)
    # a float64 scalar: the product is formed in float64 and rounded once
    # to the parameter dtype
    factor = CLIP_NORM / norm if CLIP_NORM < norm else None
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    # a non-finite gradient makes the norm non-finite; a finite one whose
    # square overflows clips to zero and passes the scan.  grads * factor is
    # non-finite exactly where grads is, so the scan reads grads
    if not np.isfinite(norm) and not np.isfinite(grads).all():
        at = np.searchsorted(b, np.argmin(np.isfinite(grads)), side="right") - 1
        raise NumericError(f"non-finite gradient in {list(state.layout.shapes)[at]}")
    # in place, in this operation order (rounding included), one block of
    # ADAM_BLOCK elements at a time, the clip included; every operation is
    # elementwise, so the blocks leave each element's rounding as one
    # whole-vector pass would:
    # m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g g
    # p -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + decay p)
    for lo in range(0, len(params), ADAM_BLOCK):
        at = slice(lo, lo + ADAM_BLOCK)
        m, v, p = state.m[at], state.v[at], params[at]
        t, w = squares[:len(p)], state.clipped[:len(p)]
        gb = grads[at] if factor is None else np.multiply(grads[at], factor, out=w)
        np.multiply(gb, 1 - ADAM_BETA1, out=t)
        m *= ADAM_BETA1
        m += t
        np.multiply(gb, 1 - ADAM_BETA2, out=t)
        t *= gb
        v *= ADAM_BETA2
        v += t
        np.divide(v, bc2, out=t)
        np.sqrt(t, out=t)
        t += ADAM_EPS
        # gb may be w: it is read for the last time above
        np.divide(m, bc1, out=w)
        w /= t
        # p * decay is p * WEIGHT_DECAY rounded once, or 0
        np.multiply(p, state.decay[at], out=t)
        w += t
        w *= lr
        p -= w
    return float(norm), factor is not None


# ---------------------------------------------------------------------------
# training loop

def _reachable(params: dict, plans: PlanStore, objective: Objective) -> dict:
    """The tensors of ``params`` that some loss of ``objective`` on ``plans``
    can reach: the main encoder always, ``ngram_*`` if the store holds a
    coarse target, ``fine_*`` if it holds a fine target, and ``gen_*`` and
    ``rtd_*`` only under relation with slots.  No other tensor gets a
    gradient from this store."""
    coarse = bool(plans.nc.any())
    relation = coarse and objective == Objective.RELATION
    heads = {"ngram": coarse, "fine": bool(plans.nf.any()), "gen": relation, "rtd": relation}
    return {name: a for name, a in params.items() if heads.get(name.split("_", 1)[0], True)}


def train(tcfg: TrainConfig, plans: PlanStore, params: dict, cfg: ModelConfig,
          metrics_path=None, checkpoint_path=None, resume_from=None, checkpoint=None):
    """Run the training loop over a fixed plan store, cycling in order.

    Deterministic for a fixed seed (single-threaded).  Returns (params, list
    of per-step metric dicts).  The tensors some loss can reach on this store
    (:func:`_reachable`) are stepped, as views of one flat vector; every other
    tensor keeps its array and bytes, and zero Adam moments in a checkpoint.
    A resume replaces ``params`` with the checkpoint's tensors;
    ``checkpoint``, if given, is ``load_checkpoint(resume_from)`` already
    read by the caller.  NaN loss aborts with a diagnostic checkpoint next
    to ``checkpoint_path``.
    """
    if not len(plans):
        raise UsageError("empty plan stream")
    check_plans(plans, cfg, tcfg.objective)
    if checkpoint_path and not os.path.isdir(os.path.dirname(checkpoint_path) or "."):
        raise DataError(f"cannot write checkpoint {checkpoint_path}: no such directory")
    # only a run that writes or reads a checkpoint pays for the plans' digest
    plans_sha256 = plans.sha256() if checkpoint_path or resume_from is not None else None
    sample_rng = RngState(tcfg.seed ^ 0x5EED)
    start_step = 0
    if resume_from is not None:
        params_r, cfg_r, extra, arrays = checkpoint or load_checkpoint(resume_from)
        if extra.get("exported"):
            raise DataError(f"{resume_from}: an exported checkpoint has no heads, generator or "
                            "Adam moments to resume")
        if cfg_r != cfg:
            raise UsageError(f"checkpoint {resume_from} has model config {asdict(cfg_r)}, "
                             f"not {asdict(cfg)}")
        params.clear()
        params.update(params_r)
    layout = FlatLayout(_reachable(params, plans, tcfg.objective))
    flat, views = layout.flatten(params)
    params.update(views)
    grads_flat, grads = layout.zeros()
    state = AdamState(layout)
    if resume_from is not None:
        shapes = {name: a.shape for name, a in params.items()}
        for key, vec in (("m", state.m), ("v", state.v)):
            saved = {k[2:]: a for k, a in arrays.items() if k.startswith(key + "/")}
            vec[...] = layout.flatten(checked_tensors(
                f"checkpoint {resume_from}, Adam moments {key}/", saved, shapes))[0]
        train_cfg = extra.get("train_config", {})
        if not isinstance(train_cfg, dict):
            raise DataError(f"checkpoint {resume_from}: train_config is not an object")
        for key in ("adam_t", "step", "sample_seed", "sample_counter"):
            if type(extra.get(key)) is not int or extra[key] < 0:
                raise DataError(f"checkpoint {resume_from}: {key} is {extra.get(key)!r}, "
                                "expected a non-negative integer")
        if extra["sample_counter"] > 2**64 - 1:
            raise DataError(f"checkpoint {resume_from}: sample_counter {extra['sample_counter']} "
                            "is above 2**64 - 1")
        # total_steps and checkpoint_every may grow on a resume; nothing else may change
        now = {**asdict(tcfg), "objective": int(tcfg.objective)}
        changed = [f"{key} {train_cfg.get(key)!r} (now {value!r})" for key, value in now.items()
                   if key not in ("total_steps", "checkpoint_every")
                   and train_cfg.get(key) != value]
        if changed:
            raise UsageError(f"checkpoint {resume_from} was trained with other settings: "
                             + ", ".join(changed))
        if extra.get("plans_sha256") is None:
            logging.getLogger(__name__).warning("checkpoint %s has no plan digest", resume_from)
        elif extra["plans_sha256"] != plans_sha256:
            raise UsageError(f"checkpoint {resume_from} was trained on plans with sha256 "
                             f"{extra['plans_sha256']}, not {plans_sha256}")
        blas = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
        if extra.get("blas_threads") != blas:
            logging.getLogger(__name__).warning(
                "checkpoint %s was written under BLAS thread settings %s, this run has %s",
                resume_from, extra.get("blas_threads"), blas)
        state.t = extra["adam_t"]
        start_step = extra["step"]
        sample_rng = RngState(extra["sample_seed"], extra["sample_counter"])

    metrics = []
    out = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    try:
        for step in range(start_step, tcfg.total_steps):
            first = step * tcfg.batch_size
            batch = plans.take([(first + j) % len(plans) for j in range(tcfg.batch_size)])
            lr = lr_at(step, tcfg)
            try:
                grads_flat.fill(0)
                report = batch_loss_and_grad(params, batch, cfg, tcfg, grads, sample_rng)
                grad_norm, clipped = adam_step(flat, grads_flat, state, lr)
            except NumericError:
                if checkpoint_path:
                    _save_train_checkpoint(str(checkpoint_path) + ".diag", params, cfg,
                                           tcfg, state, step, sample_rng, plans_sha256)
                raise
            rec = {"step": step, "lr": lr, "grad_norm": grad_norm, "clipped": clipped,
                   **vars(report)}
            metrics.append(rec)
            if out:
                out.write(json.dumps(rec, sort_keys=True) + "\n")
            if checkpoint_path and tcfg.checkpoint_every and (step + 1) % tcfg.checkpoint_every == 0:
                _save_train_checkpoint(checkpoint_path, params, cfg, tcfg, state,
                                       step + 1, sample_rng, plans_sha256)
        if checkpoint_path:
            _save_train_checkpoint(checkpoint_path, params, cfg, tcfg, state,
                                   tcfg.total_steps, sample_rng, plans_sha256)
    finally:
        if out:
            out.close()
    return params, metrics


# environment variables that set the BLAS thread count: matrix products,
# and so trained weights, can differ in the last bits between thread counts
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _save_train_checkpoint(path, params, cfg, tcfg, state, step, sample_rng, plans_sha256):
    extra = {
        "step": step,
        "adam_t": state.t,
        "sample_seed": sample_rng.seed,
        "sample_counter": sample_rng.counter,
        "train_config": {**asdict(tcfg), "objective": int(tcfg.objective)},
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "plans_sha256": plans_sha256,
    }
    # a tensor outside the layout is never stepped: its moments are zero
    arrays = {}
    for key, vec in (("m", state.m), ("v", state.v)):
        views = state.layout.views(vec)
        for name, a in params.items():
            arrays[f"{key}/{name}"] = views[name] if name in views else np.zeros_like(a)
    save_checkpoint(path, params, cfg, extra=extra, arrays=arrays)


# ---------------------------------------------------------------------------
# evaluation

def eval_ngram_ppl(params: dict, plans: PlanStore, cfg: ModelConfig) -> float:
    """Geometric mean of per-masked-n-gram perplexities, in log space.

    Contiguous plans: PPL(w) = exp(mean token NLL within w), their fine
    targets scored by the ``fine`` head.  Explicit and comprehensive plans:
    PPL(w) = exp(NLL of the identity), each coarse slot scored by the
    ``ngram`` head.  The targets are gathered from the store, as training
    gathers them.  Sorted by plan and row, the fine targets start a new
    n-gram wherever a row is not the previous row + 1 of the same plan:
    exact, as the mask sampler never selects adjacent segments.

    Every scored row lies in the context, and the length-hiding mask hides
    the queries from the context, so the states come from
    :func:`_context_rows`, which passes over no plan without a scored row.
    The logits are formed at most ``cfg.max_positions`` rows at a time.
    """
    check_plans(plans, cfg)
    contiguous = plans.objectives == Objective.CONTIGUOUS
    log_ppls = []
    for head, field in (("fine", "fine"), ("ngram", "coarse")):
        pairs, owner = plans.gather(field)
        scored = contiguous[owner] == (head == "fine")
        pairs, owner = pairs[scored], owner[scored]
        if not len(owner):
            continue
        starts = np.ones(len(owner), dtype=bool)
        if head == "fine":
            order = np.lexsort((pairs[:, 0], owner))
            pairs, owner = pairs[order], owner[order]
            starts[1:] = (owner[1:] != owner[:-1]) | (pairs[1:, 0] != pairs[:-1, 0] + 1)
        rows, targets = pairs.T
        states = _context_rows(params, plans, rows, owner, cfg)
        nll = np.empty(len(rows))
        for lo in range(0, len(rows), cfg.max_positions):
            at = slice(lo, lo + cfg.max_positions)
            logp = _log_softmax(head_logits(states[at], params, head))
            nll[at] = -logp[np.arange(len(logp)), targets[at]]
        gram = np.cumsum(starts) - 1
        log_ppls.append(np.bincount(gram, nll) / np.bincount(gram))
    if not log_ppls:
        raise UsageError("no masked n-grams in evaluation set")
    ppl = float(np.exp(np.mean(np.concatenate(log_ppls))))
    if not np.isfinite(ppl):
        raise NumericError(f"non-finite n-gram perplexity {ppl}")
    return ppl
