"""Loss functions, generator sampling, the joint training loop and n-gram perplexity.

Every cross-entropy term goes through ``_xent`` and every replaced-token
term through ``_bce_with_logits``; each plan's terms are kept as sums
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
    weight_decay: float = 0.01
    clip_norm: float = 1.0
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
# per-plan forward; heads, losses and backward per group of plans

class BackwardGroup:
    """Consecutive plans of one encoder whose heads and backward run packed.

    Each plan's forward pass runs on its own; the group keeps the plans'
    activations and, per head, their target rows, counted across the
    group, and target ids or RTD labels.  :meth:`backward` then runs, per
    head, one :func:`head_logits` product at the packed rows, one loss and
    one head backward, with the dlogits scaled by ``scales`` (head name ->
    factor, e.g. weight / batch target count), followed by one packed
    :func:`encode_backward`.  It adds each plan's loss sums into ``sums``
    (head name -> nats), plan by plan in group order.

    The group's plans keep the sum of their squared lengths within
    ``cfg.max_positions ** 2``: :meth:`start` runs the pending backward
    first when the next plan would take it past that, so the attention
    tensors kept never exceed those of one maximal plan.  A plan alone
    always fits, so a plan longer than ``max_positions`` forms a group of
    its own.
    """

    def __init__(self, params: dict, cfg: ModelConfig, grads: dict, scales: dict,
                 prefix: str = ""):
        self.params = params
        self.cfg = cfg
        self.grads = grads
        self.scales = scales
        self.prefix = prefix
        self.sums = dict.fromkeys(scales, 0.0)
        self._clear()

    def _clear(self):
        self.acts: list = []
        self.rows = 0
        self.area = 0  # sum of the plans' squared lengths
        self.offset = 0  # first row of the newest plan
        self.targets: dict = {}  # head -> ([row arrays], [target arrays])

    def start(self, rows: int):
        """Make room for the next plan, which has ``rows`` rows."""
        if self.acts and self.area + rows * rows > self.cfg.max_positions ** 2:
            self.backward()
        self.offset = self.rows
        self.rows += rows
        self.area += rows * rows

    def add(self, acts: Activations, **targets):
        """The current plan's forward pass and, per head, the pair
        (rows, target ids or RTD labels); a head without rows is left out."""
        self.acts.append(acts)
        for head, (rows, values) in targets.items():
            if len(rows):
                parts = self.targets.setdefault(head, ([], []))
                parts[0].append(self.offset + rows)
                parts[1].append(values)

    def backward(self):
        """Run the pending plans' heads and losses, add their loss sums into
        ``sums`` and their gradients into ``grads``, and empty the group."""
        if not self.acts:
            return
        hidden = np.concatenate([a.hidden for a in self.acts])
        d_hidden = np.zeros_like(hidden)
        for head, (rows, values) in self.targets.items():
            index = np.concatenate(rows)
            logits = head_logits(hidden[index], self.params, head)
            if head == "rtd":
                nll, dlog = _bce_with_logits(logits, np.concatenate(values))
                dlog = (dlog * self.scales[head]).astype(hidden.dtype)
            else:
                nll, dlog = _xent(logits, np.concatenate(values))
                dlog *= self.scales[head]
            # each plan's own sum, added in plan order, as the plans' terms add up
            plan = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
            for value in np.bincount(plan, nll).tolist():
                self.sums[head] += value
            head_backward(hidden, index, dlog, head, self.params, d_hidden, grads=self.grads)
        encode_backward(self.params, self.acts, d_hidden, self.cfg, self.prefix,
                        grads=self.grads)
        self._clear()


def _refuse_repeated_targets(plans: PlanStore):
    """UsageError if a plan names a coarse slot or a fine index as a target
    twice: the heads' backward adds into each target row once."""
    k = plans.repeated_target()
    if k is not None:
        raise UsageError(f"plan {k}: a coarse slot or fine index is a target twice")


def plan_loss_terms(params: dict, plan: PlanView, cfg: ModelConfig, group: BackwardGroup):
    """Add one plan to ``group``: the standard model's pass over its context
    and queries under its length-hiding attention mask (a plan without
    queries needs no mask), and the rows of its coarse, fine and RTD
    targets.  The group's backward computes the loss sums.  The plan's
    targets must be distinct (:func:`_refuse_repeated_targets`)."""
    group.start(plan.T + plan.Q)
    mask = build_attention_mask(plan, dtype=params["tok_emb"].dtype) if plan.Q else None
    labels = plan.labels
    rtd = (np.arange(plan.T), labels) if labels is not None else ((), ())
    group.add(encode(params, plan.ids, plan.positions, mask, cfg), ngram=plan.coarse.T,
              fine=plan.fine.T, rtd=rtd)


def generator_loss_terms(params: dict, plan: PlanView, cfg: ModelConfig, group: BackwardGroup):
    """Add a plan with slots to the generator's ``group``: its pass over the
    context, nothing masked out, and its slots, which predict y (the
    explicit-MLM term, head ``gen_ngram``).  A plan without slots adds nothing."""
    coarse = plan.coarse
    if not len(coarse):
        return
    T = plan.T
    group.start(T)
    group.add(encode(params, plan.ids[:T], plan.positions[:T], None, cfg.generator_view(),
                     prefix="gen_"), gen_ngram=coarse.T)


def generator_forward_and_sample(params: dict, plans: PlanStore, cfg: ModelConfig,
                                 rng: RngState):
    """Sample one joint identity per masked slot from the generator softmax,
    for every slot of ``plans``.

    The generator runs over each plan's context only, with nothing masked
    out, under ``cfg.generator_view()``, and its last layer at the slots.
    One stacked softmax and cumulative sum then cover every slot.  Each plan
    with slots takes one keyed draw from ``rng``, in plan order, and draws
    its slots at once, exactly as ``g.choice(V, p=row)`` draws them slot by
    slot: one uniform each, in slot order, against the row's normalised
    cumulative sum.  A plan without slots takes no draw.  The ids come in
    the order of ``PlanStore.gather("coarse")``.  Sampling is a
    non-differentiable boundary: no gradient flows back through them.
    """
    if not plans.nc.any():
        raise UsageError("no masked slots to sample for")
    gcfg = cfg.generator_view()
    states = np.concatenate([encode(params, plan.ids[:plan.T], plan.positions[:plan.T], None,
                                    gcfg, prefix="gen_", rows=plan.coarse[:, 0]).hidden
                             for plan in plans if len(plan.coarse)])
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
    """Loss report for one batch; its gradients are added into ``grads``.

    Every dlogit is scaled by its term's batch target count, so the counts
    are read from the plans first; sampling keeps every target.  The
    relation objective then samples every slot of the batch from the
    generator and fills the comprehensive-layout plans with the samples in
    one pass.  Plan by plan, the standard model's pass on the filled plan
    and the generator's on the original join their backward groups, whose
    heads, losses and backward run per group.  Sampling is
    non-differentiable, so the generator only receives gradient from its
    own term.
    """
    relation = tcfg.objective == Objective.RELATION
    if relation and not np.isin(plans.objectives,
                                (Objective.COMPREHENSIVE, Objective.RELATION)).all():
        raise UsageError("relation training needs comprehensive-layout plans")
    _refuse_repeated_targets(plans)
    n_coarse = int(plans.nc.sum())
    n_fine = int(plans.nf.sum())
    n_gen = n_coarse if relation else 0
    labelled = np.array([labels is not None for labels in plans.rtd], dtype=bool)
    n_rtd = int(plans.T[(plans.nc > 0) | labelled].sum()) if relation else 0

    scales = {"ngram": 1.0 / max(n_coarse, 1), "fine": 1.0 / max(n_fine, 1),
              "rtd": tcfg.rtd_weight / max(n_rtd, 1)}
    # the standard model and the generator each run their heads and
    # backward in groups of consecutive plans
    main = BackwardGroup(params, cfg, grads, scales)
    gen = BackwardGroup(params, cfg.generator_view(), grads, {"gen_ngram": 1.0 / max(n_gen, 1)},
                        prefix="gen_")
    filled = plans
    if relation and n_coarse:
        sampled = generator_forward_and_sample(params, plans, cfg, sample_rng)
        filled = relation_from_comprehensive(plans, sampled)
        # a plan without slots keeps the RTD labels it had, or none
        filled.rtd = [new if slots else old
                      for new, old, slots in zip(filled.rtd, plans.rtd, plans.nc.tolist())]
    for plan, original in zip(filled, plans):
        plan_loss_terms(params, plan, cfg, main)
        if relation:
            generator_loss_terms(params, original, cfg, gen)
    main.backward()
    gen.backward()

    sums = {**main.sums, **gen.sums}
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


class AdamState:
    """AdamW moments ``m`` and ``v``, two work vectors and the 0/1 decay mask."""

    def __init__(self, layout: FlatLayout):
        self.layout = layout
        self.m, self.v = np.zeros((2, layout.bounds[-1]), dtype=layout.dtype)
        self.work = np.empty((2, layout.bounds[-1]), dtype=layout.dtype)
        self.decay = np.repeat([_decayable(name) for name in layout.shapes],
                               np.diff(layout.bounds)).astype(layout.dtype)
        self.t = 0


def _decayable(name: str) -> bool:
    last = name.rsplit("_", 1)[-1]
    return not (last.startswith("b") or "ln" in name)


def adam_step(params, grads, state: AdamState, lr: float, tcfg: TrainConfig):
    """One AdamW update of the vector ``params`` in place from the vector
    ``grads``, both laid out by ``state.layout``; a tensor without gradient
    still decays.  Returns (global gradient norm, whether it was clipped)."""
    tmp, buf = state.work
    # per-tensor float32 sums added in layout order
    np.multiply(grads, grads, out=tmp)
    b = state.layout.bounds
    norm = np.sqrt(sum(float(tmp[lo:hi].sum()) for lo, hi in zip(b, b[1:])))
    # a float64 scalar: the product is formed in float64 and rounded once
    # to the parameter dtype
    factor = tcfg.clip_norm / norm if 0 < tcfg.clip_norm < norm else None
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    g = grads if factor is None else np.multiply(grads, factor, out=buf)
    # a non-finite gradient makes the norm non-finite; a finite one whose
    # square overflows clips to zero and passes the scan
    if not np.isfinite(norm) and not np.isfinite(g).all():
        at = np.searchsorted(b, np.argmin(np.isfinite(g)), side="right") - 1
        raise NumericError(f"non-finite gradient in {list(state.layout.shapes)[at]}")
    m, v = state.m, state.v  # rows of one array
    # in place, in this operation order (rounding included):
    # m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g g
    # p -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd decay p)
    np.multiply(g, 1 - ADAM_BETA1, out=tmp)
    m *= ADAM_BETA1
    m += tmp
    np.multiply(g, 1 - ADAM_BETA2, out=tmp)
    tmp *= g
    v *= ADAM_BETA2
    v += tmp
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    np.divide(m, bc1, out=buf)
    buf /= tmp
    if tcfg.weight_decay:
        np.multiply(params, tcfg.weight_decay, out=tmp)
        tmp *= state.decay
        buf += tmp
    buf *= lr
    params -= buf
    return float(norm), factor is not None


# ---------------------------------------------------------------------------
# training loop

def train(tcfg: TrainConfig, plans: PlanStore, params: dict, cfg: ModelConfig,
          metrics_path=None, checkpoint_path=None, resume_from=None):
    """Run the training loop over a fixed plan store, cycling in order.

    Deterministic for a fixed seed (single-threaded).  Returns (params, now
    views of one flat vector, list of per-step metric dicts).  NaN loss
    aborts with a diagnostic checkpoint next to ``checkpoint_path``.
    """
    if not len(plans):
        raise UsageError("empty plan stream")
    _refuse_repeated_targets(plans)
    if checkpoint_path and not os.path.isdir(os.path.dirname(checkpoint_path) or "."):
        raise DataError(f"cannot write checkpoint {checkpoint_path}: no such directory")
    # only a run that writes or reads a checkpoint pays for the plans' digest
    plans_sha256 = plans.sha256() if checkpoint_path or resume_from is not None else None
    sample_rng = RngState(tcfg.seed ^ 0x5EED)
    start_step = 0
    if resume_from is not None:
        params_r, cfg_r, extra, arrays = load_checkpoint(resume_from)
        if cfg_r != cfg:
            raise UsageError(f"checkpoint {resume_from} has model config {asdict(cfg_r)}, "
                             f"not {asdict(cfg)}")
        params.clear()
        params.update(params_r)
    layout = FlatLayout(params)
    flat, views = layout.flatten(params)
    params.update(views)
    grads_flat, grads = layout.zeros()
    state = AdamState(layout)
    if resume_from is not None:
        # an exported checkpoint has no moments, so it stops here
        for key, vec in (("m", state.m), ("v", state.v)):
            saved = {k[2:]: a for k, a in arrays.items() if k.startswith(key + "/")}
            vec[...] = layout.flatten(checked_tensors(
                f"checkpoint {resume_from}, Adam moments {key}/", saved, layout.shapes))[0]
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
                grad_norm, clipped = adam_step(flat, grads_flat, state, lr, tcfg)
            except NumericError:
                if checkpoint_path:
                    _save_train_checkpoint(str(checkpoint_path) + ".diag", params, cfg,
                                           tcfg, state, step, sample_rng, plans_sha256)
                raise
            rec = {"step": step, "lr": lr, "grad_norm": grad_norm, "clipped": clipped}
            rec.update(asdict(report))
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
    arrays = {f"{key}/{name}": view for key, vec in (("m", state.m), ("v", state.v))
              for name, view in state.layout.views(vec).items()}
    save_checkpoint(path, params, cfg, extra=extra, arrays=arrays)


# ---------------------------------------------------------------------------
# evaluation

def _contiguous_gram_groups(plan: PlanView):
    """A contiguous plan's masked n-grams as runs of consecutive targets:
    (rows, targets, bounds), the fine targets sorted by row and the n-grams
    split at ``bounds``.  Exact because the mask sampler never selects
    adjacent segments."""
    fine = plan.fine.astype(np.int64)
    fine = fine[np.argsort(fine[:, 0], kind="stable")]
    rows = fine[:, 0]
    return rows, fine[:, 1], np.flatnonzero(np.diff(rows) != 1) + 1


def eval_ngram_ppl(params: dict, plans: PlanStore, cfg: ModelConfig) -> float:
    """Geometric mean of per-masked-n-gram perplexities, in log space.

    Contiguous plans: PPL(w) = exp(mean token NLL within w).  Explicit
    and comprehensive plans: PPL(w) = exp(NLL of the identity).

    Every scored row, a coarse slot or a contiguous plan's fine target,
    lies in the context, and the length-hiding mask hides the queries from
    the context.  So each plan's context is encoded alone, unmasked, and
    its last layer runs at the scored rows only.  The scored states of
    consecutive plans, up to ``cfg.max_positions`` rows at a time, then
    share one head product per head.
    """
    _refuse_repeated_targets(plans)
    log_ppls: list = []
    # head -> the pending plans' (states, targets, n-gram sizes)
    pending: dict = {"fine": [], "ngram": []}
    size = 0
    for plan in plans:
        head = "fine" if plan.objective == Objective.CONTIGUOUS else "ngram"
        if head == "fine":
            rows, targets, bounds = _contiguous_gram_groups(plan)
            sizes = np.diff(bounds, prepend=0, append=len(rows))
        else:
            rows, targets = plan.coarse.T
            sizes = np.ones(len(rows), dtype=np.int64)
        T = plan.T
        acts = encode(params, plan.ids[:T], plan.positions[:T], None, cfg, rows=rows)
        if not len(rows):
            continue
        if size + len(rows) > cfg.max_positions:
            _score_pending(params, pending, log_ppls)
            size = 0
        pending[head].append((acts.hidden, targets, sizes))
        size += len(rows)
    _score_pending(params, pending, log_ppls)
    if not log_ppls:
        raise UsageError("no masked n-grams in evaluation set")
    return float(np.exp(np.mean(np.concatenate(log_ppls))))


def _score_pending(params: dict, pending: dict, log_ppls: list):
    """Append to ``log_ppls`` the mean NLL of each pending n-gram's targets,
    with one :func:`head_logits` product per head, and empty ``pending``."""
    for head, parts in pending.items():
        if not parts:
            continue
        states, targets, sizes = (np.concatenate(x) for x in zip(*parts))
        nll, _ = _xent(head_logits(states, params, head), targets)
        log_ppls.append(np.bincount(np.repeat(np.arange(len(sizes)), sizes), nll) / sizes)
        parts.clear()
