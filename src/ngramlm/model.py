"""Desk-scale transformer encoder, heads and checkpoints in numpy with hand-written backward.

One parameter dictionary holds both the standard model and (prefixed
``gen_``) the narrow generator.  The attention mask is additive over
{0, -inf}; forbidden positions get exactly zero post-softmax weight, so
the number of appended query symbols can never leak into context
representations.

The model computes in the parameter dtype: float32 parameters give
float32 activations and gradients, float64 parameters (used by the
finite-difference gradient check) give float64.  Under NumPy 2's
promotion rules (NEP 50) a NumPy scalar such as ``np.sqrt(2.0)`` is a
float64 array operand and upcasts every float32 array it touches, while
a Python float takes the array's dtype.  Constants used inside the
forward and backward passes are therefore Python floats (``math``).
"""

from __future__ import annotations

import json
import lzma
import math
import os
import tokenize
import zipfile
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, NumericError, UsageError, VersionError

CHECKPOINT_VERSION = 2
INIT_STD = 0.02
LN_EPS = 1e-12
SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass
class ModelConfig:
    layers: int
    hidden: int
    heads: int
    ffn: int
    max_positions: int
    fine_vocab_size: int
    ngram_vocab_size: int
    generator_layers: int = 1

    def __post_init__(self):
        if min(self.hidden, self.ffn, self.max_positions) < 1:
            raise UsageError(f"hidden {self.hidden}, ffn {self.ffn} and max_positions "
                             f"{self.max_positions} must be positive")
        if min(self.layers, self.generator_layers, self.fine_vocab_size,
               self.ngram_vocab_size) < 0:
            raise UsageError("layer counts and vocabulary sizes must be non-negative")
        if self.heads < 1 or self.hidden % self.heads != 0:
            raise UsageError(f"hidden {self.hidden} not divisible by heads {self.heads}")

    @property
    def joint_size(self) -> int:
        return self.fine_vocab_size + self.ngram_vocab_size

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @property
    def generator_hidden(self) -> int:
        # one third of the standard width, floored to a multiple of the heads
        h = (self.hidden // 3 // self.heads) * self.heads
        return max(h, self.heads)

    def generator_view(self) -> "ModelConfig":
        return ModelConfig(
            layers=self.generator_layers,
            hidden=self.generator_hidden,
            heads=self.heads,
            ffn=max(self.ffn // 3, self.generator_hidden),
            max_positions=self.max_positions,
            fine_vocab_size=self.fine_vocab_size,
            ngram_vocab_size=self.ngram_vocab_size,
            generator_layers=self.generator_layers,
        )


def _trunc_normal(g: np.random.Generator, shape, std, dtype):
    x = g.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = g.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x.astype(dtype)


def _encoder_param_shapes(cfg: ModelConfig, vocab_rows: int):
    shapes = {
        "tok_emb": (vocab_rows, cfg.hidden),
        "pos_emb": (cfg.max_positions, cfg.hidden),
        "emb_ln_g": (cfg.hidden,),
        "emb_ln_b": (cfg.hidden,),
    }
    for i in range(cfg.layers):
        p = f"l{i}_"
        for w in ("wq", "wk", "wv", "wo"):
            shapes[p + w] = (cfg.hidden, cfg.hidden)
        for b in ("bq", "bk", "bv", "bo"):
            shapes[p + b] = (cfg.hidden,)
        shapes[p + "ln1_g"] = (cfg.hidden,)
        shapes[p + "ln1_b"] = (cfg.hidden,)
        shapes[p + "w1"] = (cfg.hidden, cfg.ffn)
        shapes[p + "b1"] = (cfg.ffn,)
        shapes[p + "w2"] = (cfg.ffn, cfg.hidden)
        shapes[p + "b2"] = (cfg.hidden,)
        shapes[p + "ln2_g"] = (cfg.hidden,)
        shapes[p + "ln2_b"] = (cfg.hidden,)
    return shapes


def param_shapes(cfg: ModelConfig):
    shapes = _encoder_param_shapes(cfg, cfg.joint_size)
    shapes["fine_w"] = (cfg.hidden, cfg.fine_vocab_size)
    shapes["fine_b"] = (cfg.fine_vocab_size,)
    shapes["ngram_w"] = (cfg.hidden, cfg.joint_size)
    shapes["ngram_b"] = (cfg.joint_size,)
    shapes["rtd_w"] = (cfg.hidden,)
    shapes["rtd_b"] = (1,)
    gcfg = cfg.generator_view()
    for name, shape in _encoder_param_shapes(gcfg, gcfg.joint_size).items():
        shapes["gen_" + name] = shape
    shapes["gen_ngram_w"] = (gcfg.hidden, gcfg.joint_size)
    shapes["gen_ngram_b"] = (gcfg.joint_size,)
    return shapes


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> dict:
    g = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(cfg).items():
        last = name.rsplit("_", 1)[-1]
        if "ln" in name and last == "g":
            params[name] = np.ones(shape, dtype=dtype)
        elif last.startswith("b") or name == "rtd_w":
            # biases start at zero; rtd head too (probability 0.5 everywhere)
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = _trunc_normal(g, shape, INIT_STD, dtype)
    return params


class FlatLayout:
    """Named tensors laid one after another, in dict order, over one vector.
    Parameters, gradients and Adam's moments share a layout: the model uses
    reshaped views of a vector by name, the optimizer whole vectors."""

    def __init__(self, tensors: dict):
        self.shapes = {name: a.shape for name, a in tensors.items()}
        self.bounds = np.cumsum([0] + [a.size for a in tensors.values()]).tolist()
        self.dtype = np.result_type(*{a.dtype for a in tensors.values()})

    def views(self, vector) -> dict:
        """``vector`` seen as one tensor per name."""
        return {name: vector[lo:hi].reshape(shape) for (name, shape), lo, hi
                in zip(self.shapes.items(), self.bounds, self.bounds[1:])}

    def zeros(self):
        """(vector, views) of a new zeroed vector, such as a gradient buffer."""
        vector = np.zeros(self.bounds[-1], dtype=self.dtype)
        return vector, self.views(vector)

    def flatten(self, tensors: dict):
        """(vector, views) of a new vector holding a copy of ``tensors``."""
        vector = np.concatenate([tensors[n].ravel() for n in self.shapes], dtype=self.dtype)
        return vector, self.views(vector)


# ---------------------------------------------------------------------------
# primitives with paired backward

def _layernorm(x, g, b):
    h = x.shape[-1]
    mu = np.add.reduce(x, -1, keepdims=True)
    mu /= h
    xhat = x - mu
    y = xhat * xhat  # a work array, and then the output
    var = np.add.reduce(y, -1, keepdims=True)
    var /= h
    var += LN_EPS
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xhat *= inv
    np.multiply(xhat, g, out=y)
    y += b
    return y, (xhat, inv, g)


def _layernorm_backward(dy, cache):
    xhat, inv, g = cache
    h = xhat.shape[-1]
    work = dy * xhat
    dg = work.sum(0)
    db = dy.sum(0)
    dx = dy * g  # dxhat, turned into dx in place
    s1 = np.add.reduce(dx, -1, keepdims=True)
    s1 /= h
    np.multiply(dx, xhat, out=work)
    s2 = np.add.reduce(work, -1, keepdims=True)
    s2 /= h
    np.multiply(xhat, s2, out=work)
    # inv * ((dxhat - s1) - xhat * s2)
    dx -= s1
    dx -= work
    dx *= inv
    return dx, dg, db


_erf = None


def _gelu(x):
    """GELU and its term 1 + erf(x / sqrt 2), which the backward reuses.

    scipy.special's erf is imported on the first call, not at module
    level: it is the only scipy use and takes about 0.3 s and 20 MB to
    load, which the commands that never run the model (extract-lexicon,
    make-masks, segment) skip.
    """
    global _erf
    if _erf is None:
        from scipy.special import erf as _erf

    u = x / SQRT2
    _erf(u, out=u)
    u += 1.0
    return _gelu_from(x, u), u


def _gelu_from(x, u):
    """GELU from ``x`` and its term ``u`` = 1 + erf(x / sqrt 2): the forward
    forms it this way, and the backward recomputes it with the same bits."""
    y = x * 0.5
    y *= u
    return y


def _gelu_backward(dy, x, u):
    # dy * (0.5 u + x * (INV_SQRT_2PI * exp(-0.5 x x)))
    dx = u * 0.5
    pdf = x * -0.5
    pdf *= x
    np.exp(pdf, out=pdf)
    pdf *= INV_SQRT_2PI
    pdf *= x
    dx += pdf
    dx *= dy
    return dx


def _masked_softmax(scores):
    # -inf entries come out exactly 0 (exp(-inf) == 0)
    m = scores.max(-1, keepdims=True)
    e = scores - m
    np.exp(e, out=e)
    e /= e.sum(-1, keepdims=True)
    return e


def _softmax_backward(dprobs, probs):
    d = dprobs * probs
    s = d.sum(-1, keepdims=True)
    np.subtract(dprobs, s, out=d)
    d *= probs
    return d


class Activations:
    """Per-layer hidden states, attention tensors and backward caches.

    A forward-only pass (``encode`` with ``rows``) keeps no caches:
    ``cache`` stays empty and ``emb_cache`` None."""

    def __init__(self):
        self.attn_probs = []
        self.hidden = None
        self.cache = []
        self.emb_cache = None


def encode(params: dict, ids, positions, attn_mask, cfg: ModelConfig,
           prefix: str = "", *, rows=None) -> Activations:
    """Forward pass; retains everything needed for encode_backward.

    ``attn_mask`` is an additive (n, n) mask, or None for none.  With
    ``rows``, the pass is forward-only and its last layer runs at those
    rows alone: queries, attention output, layer norms and FFN run there,
    keys and values still at every row.  ``hidden`` then holds those rows,
    in the order given, and the last layer's attention probabilities are
    theirs only.
    """
    ids = np.asarray(ids, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    tok = params[prefix + "tok_emb"]
    pos = params[prefix + "pos_emb"]
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= tok.shape[0]:
        raise UsageError(f"token id out of range 0..{tok.shape[0] - 1}")
    if positions.min(initial=1) < 1 or positions.max(initial=1) > pos.shape[0]:
        raise UsageError(f"position id out of range 1..{pos.shape[0]}")
    n = len(ids)
    if attn_mask is not None:
        attn_mask = np.asarray(attn_mask, dtype=tok.dtype)
        if attn_mask.shape != (n, n):
            raise UsageError(f"attention mask shape {attn_mask.shape} != ({n}, {n})")
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.min(initial=0) < 0 or rows.max(initial=-1) >= n:
            raise UsageError(f"row index out of range 0..{n - 1}")

    acts = Activations()
    x0 = tok[ids]
    x0 += pos[positions - 1]
    x, ln_cache = _layernorm(x0, params[prefix + "emb_ln_g"], params[prefix + "emb_ln_b"])
    if rows is None:
        acts.emb_cache = (ids, positions, ln_cache)
    elif not cfg.layers:
        x = x[rows]

    A, dk = cfg.heads, cfg.head_dim
    scale = 1.0 / math.sqrt(dk)
    for i in range(cfg.layers):
        p = prefix + f"l{i}_"
        # the queries' side: every row, or the selected rows in the last layer
        at_rows = rows is not None and i == cfg.layers - 1
        xq = x[rows] if at_rows else x
        m = len(xq)
        q = xq @ params[p + "wq"]
        q += params[p + "bq"]
        k = x @ params[p + "wk"]
        k += params[p + "bk"]
        v = x @ params[p + "wv"]
        v += params[p + "bv"]
        qh = q.reshape(m, A, dk).transpose(1, 0, 2)
        kh = k.reshape(n, A, dk).transpose(1, 0, 2)
        vh = v.reshape(n, A, dk).transpose(1, 0, 2)
        scores = qh @ kh.transpose(0, 2, 1)
        scores *= scale
        if attn_mask is not None:
            scores += (attn_mask[rows] if at_rows else attn_mask)[None]
        probs = _masked_softmax(scores)
        ctx = (probs @ vh).transpose(1, 0, 2).reshape(m, cfg.hidden)
        # biases and residuals add in place into each product's new array;
        # x + y and y + x round alike
        attn_out = ctx @ params[p + "wo"]
        attn_out += params[p + "bo"]
        attn_out += xq
        y, ln1_cache = _layernorm(attn_out, params[p + "ln1_g"], params[p + "ln1_b"])
        pre = y @ params[p + "w1"]
        pre += params[p + "b1"]
        act, pre_cdf = _gelu(pre)  # the backward recomputes act from pre and pre_cdf
        ffn_out = act @ params[p + "w2"]
        ffn_out += params[p + "b2"]
        ffn_out += y
        z, ln2_cache = _layernorm(ffn_out, params[p + "ln2_g"], params[p + "ln2_b"])
        if rows is None:
            acts.cache.append(
                dict(x=x, qh=qh, kh=kh, vh=vh, probs=probs, ctx=ctx, ln1=ln1_cache,
                     y=y, pre=pre, pre_cdf=pre_cdf, ln2=ln2_cache)
            )
        acts.attn_probs.append(probs)
        x = z
    acts.hidden = x
    return acts


def _accumulate_rows(grad, index, rows):
    """Scatter-add ``rows`` into the gradient ``grad`` at ``index``.

    Rows sharing an index are summed first, in order, in a small buffer of
    the gradient's dtype; the buffer is then added once into ``grad``.  The
    buffer is filled by one ``np.add.at`` over its flattened elements, which
    adds into each element in row order, as a row-wise ``np.add.at`` does,
    and runs faster.
    """
    uniq, inverse = np.unique(index, return_inverse=True)
    width = grad.shape[1]
    summed = np.zeros(len(uniq) * width, dtype=grad.dtype)
    at = (inverse[:, None] * width + np.arange(width)).ravel()
    np.add.at(summed, at, rows.ravel())
    grad[uniq] += summed.reshape(len(uniq), width)


def _pack(parts):
    """Arrays of consecutive plans stacked row-wise; one plan's array as is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _pack_layernorm(caches):
    return _pack([c[0] for c in caches]), _pack([c[1] for c in caches]), caches[0][2]


def _head_major(packed, rows: slice, heads: int, dk: int):
    """``rows`` of a packed (N, hidden) array as a (heads, rows, dk) view."""
    return packed[rows].reshape(rows.stop - rows.start, heads, dk).transpose(1, 0, 2)


def encode_backward(params: dict, acts: list, d_hidden, cfg: ModelConfig,
                    prefix: str = "", *, grads: dict):
    """Add into ``grads`` the gradients of a scalar loss w.r.t. all ``prefix``
    encoder parameters, given the gradient at the final hidden states.

    ``acts`` lists the plans' forward passes and ``d_hidden`` packs their
    hidden-state gradients row-wise, one plan after another in list order.
    The row-wise work (layer norms, FFN, the Q/K/V/O projections and their
    parameter gradients, the embedding scatter) runs once over the packed
    rows; attention runs per plan on that plan's rows.  A training step
    makes one call per encoder, over its whole batch.  The GELU output is
    not cached: it is recomputed from ``pre`` and ``pre_cdf`` as the
    forward formed it.  A forward-only pass (``encode`` with ``rows``) has
    nothing to run backward through and raises UsageError.
    """
    if any(a.emb_cache is None for a in acts):
        raise UsageError("encode_backward needs full forward passes, not a rows pass")
    A, dk = cfg.heads, cfg.head_dim
    scale = 1.0 / math.sqrt(dk)
    dx = np.asarray(d_hidden)
    n = dx.shape[0]
    bounds = np.cumsum([0] + [len(a.hidden) for a in acts]).tolist()
    plan_rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    for i in reversed(range(cfg.layers)):
        p = prefix + f"l{i}_"
        cs = [a.cache[i] for a in acts]
        d_sum2, dg2, db2 = _layernorm_backward(dx, _pack_layernorm([c["ln2"] for c in cs]))
        grads[p + "ln2_g"] += dg2
        grads[p + "ln2_b"] += db2
        pre, pre_cdf = _pack([c["pre"] for c in cs]), _pack([c["pre_cdf"] for c in cs])
        grads[p + "w2"] += _gelu_from(pre, pre_cdf).T @ d_sum2
        grads[p + "b2"] += d_sum2.sum(0)
        d_act = d_sum2 @ params[p + "w2"].T
        d_pre = _gelu_backward(d_act, pre, pre_cdf)
        grads[p + "w1"] += _pack([c["y"] for c in cs]).T @ d_pre
        grads[p + "b1"] += d_pre.sum(0)
        dy = d_pre @ params[p + "w1"].T
        dy += d_sum2
        d_sum1, dg1, db1 = _layernorm_backward(dy, _pack_layernorm([c["ln1"] for c in cs]))
        grads[p + "ln1_g"] += dg1
        grads[p + "ln1_b"] += db1
        grads[p + "wo"] += _pack([c["ctx"] for c in cs]).T @ d_sum1
        grads[p + "bo"] += d_sum1.sum(0)
        d_ctx = d_sum1 @ params[p + "wo"].T
        # attention, plan by plan: the head-major results are written
        # straight into each plan's rows of the packed dq, dk, dv
        dqkv = np.empty((3, n, cfg.hidden), dtype=dx.dtype)
        dq, dk_, dv = dqkv
        for c, rows in zip(cs, plan_rows):
            probs = c["probs"]
            d_ctx_h = _head_major(d_ctx, rows, A, dk)
            d_scores = _softmax_backward(d_ctx_h @ c["vh"].transpose(0, 2, 1), probs)
            np.matmul(probs.transpose(0, 2, 1), d_ctx_h, out=_head_major(dv, rows, A, dk))
            np.matmul(d_scores, c["kh"], out=_head_major(dq, rows, A, dk))
            np.matmul(d_scores.transpose(0, 2, 1), c["qh"], out=_head_major(dk_, rows, A, dk))
        dqkv[:2] *= scale
        x = _pack([c["x"] for c in cs])
        grads[p + "wq"] += x.T @ dq
        grads[p + "bq"] += dq.sum(0)
        grads[p + "wk"] += x.T @ dk_
        grads[p + "bk"] += dk_.sum(0)
        grads[p + "wv"] += x.T @ dv
        grads[p + "bv"] += dv.sum(0)
        # d_sum1 + dq wq' + dk wk' + dv wv', added left to right
        dx = d_sum1
        work = np.empty_like(dx)
        for d, w in ((dq, "wq"), (dk_, "wk"), (dv, "wv")):
            dx += np.matmul(d, params[p + w].T, out=work)

    ids = _pack([a.emb_cache[0] for a in acts])
    positions = _pack([a.emb_cache[1] for a in acts])
    d_x0, dg, db = _layernorm_backward(dx, _pack_layernorm([a.emb_cache[2] for a in acts]))
    grads[prefix + "emb_ln_g"] += dg
    grads[prefix + "emb_ln_b"] += db
    _accumulate_rows(grads[prefix + "tok_emb"], ids, d_x0)
    _accumulate_rows(grads[prefix + "pos_emb"], positions - 1, d_x0)


# ---------------------------------------------------------------------------
# heads

def head_logits(hidden, params: dict, head: str):
    """``hidden @ W + b`` for ``head`` (``fine``, ``ngram``, ``rtd`` or
    ``gen_ngram``): logits over the fine or the joint vocabulary at each row
    of ``hidden``; the replaced-token head's vector weight gives one binary
    logit (original vs replaced) per row."""
    return hidden @ params[head + "_w"] + params[head + "_b"]


def head_backward(hidden, rows, d_logits, head: str, params: dict, d_hidden, *, grads: dict):
    """Add one head's gradients into ``grads``; scatter d_logits into d_hidden.

    ``d_logits`` holds the logit gradients of ``head`` (a name as in
    :func:`head_logits`) at ``rows`` of ``hidden``; ``d_hidden`` has the
    shape of ``hidden``.  ``rows`` must be distinct (training refuses a plan
    that repeats a target index, ``train.check_plans``).
    A head whose weight is a vector, the replaced-token head, has one logit
    per row and ``d_logits`` one value per row.
    """
    w = params[head + "_w"]
    d = d_logits.reshape(len(rows), -1)
    grads[head + "_w"] += (hidden[rows].T @ d).reshape(w.shape)
    grads[head + "_b"] += d.sum(0)
    d_hidden[rows] += d @ w.reshape(len(w), -1).T


# ---------------------------------------------------------------------------
# export and checkpoints

def export_finetune_weights(params: dict, cfg: ModelConfig) -> dict:
    """Prune to a vanilla encoder: truncate embeddings to the fine rows,
    drop all heads and every generator tensor.  Encoder weights intact."""
    shapes = _encoder_param_shapes(cfg, cfg.fine_vocab_size)
    return {name: params[name][: shape[0]].copy() for name, shape in shapes.items()}


def save_checkpoint(path, params: dict, cfg: ModelConfig, extra: dict | None = None,
                    arrays: dict | None = None):
    """Named-tensor container (npz): bit-exact round trip."""
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(cfg),
        "extra": extra or {},
    }
    meta_arr = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    store = {"__meta__": meta_arr}
    for name, arr in params.items():
        store["p/" + name] = arr
    for name, arr in (arrays or {}).items():
        store["a/" + name] = arr
    tmp = f"{path}.tmp"  # renamed onto the path, so a failed write keeps the old checkpoint
    try:
        with open(tmp, "wb") as f:  # a handle, so numpy never appends ".npz" to the path
            np.savez(f, **store)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """Returns (params, config, extra, arrays), params in the order of the
    shapes they are checked against.

    A file that cannot be read as a checkpoint, or whose metadata or tensors
    do not match a ModelConfig, raises DataError; an npz file of another
    format or version raises its subclass VersionError.  A non-finite
    parameter raises NumericError.
    """
    try:
        z = np.load(path, allow_pickle=False)
        if not isinstance(z, np.lib.npyio.NpzFile):
            raise VersionError(f"{path}: not a checkpoint file")
        with z:
            if "__meta__" not in z:
                raise VersionError(f"{path}: not a checkpoint file")
            meta = json.loads(z["__meta__"].tobytes().decode("utf-8"))
            if not isinstance(meta, dict):
                raise VersionError(f"{path}: not a checkpoint file")
            if meta.get("format_version") != CHECKPOINT_VERSION:
                raise VersionError(
                    f"checkpoint version {meta.get('format_version')}, "
                    f"expected {CHECKPOINT_VERSION}"
                )
            params = {k[2:]: z[k] for k in z.files if k.startswith("p/")}
            arrays = {k[2:]: z[k] for k in z.files if k.startswith("a/")}
    # zipfile raises RuntimeError for an encrypted member and its subclass
    # NotImplementedError for an unsupported compression method, flag or
    # version; zlib and lzma errors come from damaged compressed members,
    # TokenError from a damaged array header
    except (OSError, EOFError, ValueError, RuntimeError, zipfile.BadZipFile, zlib.error,
            lzma.LZMAError, tokenize.TokenError) as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from e
    try:
        cfg = ModelConfig(**meta["config"])
        extra = dict(meta["extra"])
        shapes = (_encoder_param_shapes(cfg, cfg.fine_vocab_size) if extra.get("exported")
                  else param_shapes(cfg))
    except (KeyError, TypeError, ValueError, UsageError) as e:
        raise DataError(f"checkpoint {path}: bad metadata: {e!r}") from e
    return checked_tensors(f"checkpoint {path}", params, shapes), cfg, extra, arrays


def checked_tensors(where: str, tensors: dict, shapes: dict) -> dict:
    """``tensors`` in the order of ``shapes``, which they must match name for
    name, all float32 or all float64; otherwise DataError.  A non-finite
    entry raises NumericError."""
    found = {name: a.shape for name, a in tensors.items()}
    wrong = sorted(n for n in found.keys() | shapes.keys() if found.get(n) != shapes.get(n))
    if wrong:
        raise DataError(f"{where}: tensor {wrong[0]} has shape {found.get(wrong[0])}, expected "
                        f"{shapes.get(wrong[0])} ({len(wrong)} tensors missing or mismatched)")
    dtypes = {str(a.dtype) for a in tensors.values()}
    if dtypes not in ({"float32"}, {"float64"}):
        raise DataError(f"{where}: tensors of dtype {sorted(dtypes)}, "
                        "expected all float32 or all float64")
    bad = next((n for n in shapes if not np.isfinite(tensors[n]).all()), None)
    if bad is not None:
        raise NumericError(f"{where}: tensor {bad} holds a non-finite value")
    return {name: tensors[name] for name in shapes}
