"""Shared fixtures: a six-word toy example whose second segment is a
bigram from the lexicon, plus small helpers for building lexicons, plans
and model configs by hand."""

import struct
from dataclasses import dataclass

import numpy as np
import pytest

from ngramlm import FineVocab, Objective, build_joint_vocab
from ngramlm.lexicon import NGramLexicon, ScoredNGram
from ngramlm.maskplan import PLAN_VERSION, PlanView, _decode, segment_example
from ngramlm.model import FlatLayout, ModelConfig, _encoder_param_shapes
from ngramlm.train import BackwardGroup


# one "ACCEPTANCE nn ...: PASS/FAIL" line per criterion, printed after the
# run summary (terminal-summary hooks write outside pytest's capture)
ACCEPTANCE_REPORT = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_REPORT):
            terminalreporter.write_line(line)


def lex_from(tuples):
    """Lexicon from raw word tuples (scores irrelevant for membership)."""
    per_order = {}
    for words in sorted(tuples, key=lambda w: (len(w), w)):
        words = tuple(words)
        per_order.setdefault(len(words), []).append(
            ScoredNGram(words, len(words), 0.0, 1)
        )
    return NGramLexicon(per_order)


@dataclass
class RefPlan:
    """A plan as tuples of its record fields: the reference form in which
    tests write plans by hand and compare plans field by field.  It is
    encoded by :func:`reference_serialize` alone and decoded by the
    package's record decoder (:func:`store_of`); :func:`ref_of` reads a
    store's plan back into it."""

    objective: Objective
    context_ids: tuple
    context_positions: tuple
    query_ids: tuple
    query_positions: tuple
    targets_coarse: tuple  # (context slot index, joint id)
    targets_fine: tuple  # (index into context+queries, fine id)
    rtd_labels: tuple | None = None

    @property
    def T(self) -> int:
        return len(self.context_ids)

    @property
    def Q(self) -> int:
        return len(self.query_ids)

    def all_ids(self) -> tuple:
        return self.context_ids + self.query_ids

    def all_positions(self) -> tuple:
        return self.context_positions + self.query_positions


def reference_serialize(plan: RefPlan) -> bytes:
    """One plan as a length-prefixed record, field by field."""
    T, Q = plan.T, plan.Q
    parts = [struct.pack("<HBII", PLAN_VERSION, int(plan.objective), T, Q)]
    parts.append(struct.pack(f"<{T}I", *plan.context_ids))
    parts.append(struct.pack(f"<{T + Q}I", *plan.all_positions()))
    parts.append(struct.pack(f"<{Q}I", *plan.query_ids))
    parts.append(struct.pack("<I", len(plan.targets_coarse)))
    for slot, y in plan.targets_coarse:
        parts.append(struct.pack("<II", slot, y))
    parts.append(struct.pack("<I", len(plan.targets_fine)))
    for idx, x in plan.targets_fine:
        parts.append(struct.pack("<II", idx, x))
    if plan.rtd_labels is None:
        parts.append(b"\x00")
    else:
        bits = bytearray((T + 7) // 8)
        for i, lab in enumerate(plan.rtd_labels):
            if lab:
                bits[i // 8] |= 1 << (i % 8)
        parts.append(b"\x01" + bytes(bits))
    payload = b"".join(parts)
    return struct.pack("<I", len(payload)) + payload


def ref_of(view: PlanView) -> RefPlan:
    """A store's plan in the reference form."""
    T, ids, positions, labels = view.T, view.ids.tolist(), view.positions.tolist(), view.labels
    return RefPlan(view.objective, tuple(ids[:T]), tuple(positions[:T]), tuple(ids[T:]),
                   tuple(positions[T:]), tuple(map(tuple, view.coarse.tolist())),
                   tuple(map(tuple, view.fine.tolist())),
                   None if labels is None else tuple(labels.tolist()))


def store_of(plans):
    """The store of ``plans``, each a RefPlan or a view of a store: their
    reference records, read by the package's record decoder."""
    return _decode(b"".join(reference_serialize(ref_of(p) if isinstance(p, PlanView) else p)
                            for p in plans), 0)


def param_count(params: dict) -> int:
    return sum(int(a.size) for a in params.values())


def vanilla_encoder_param_count(cfg: ModelConfig) -> int:
    """Size of a plain encoder with |V_F| embedding rows and no heads."""
    return sum(
        int(np.prod(s)) for s in _encoder_param_shapes(cfg, cfg.fine_vocab_size).values()
    )


def tiny_config(fine, ngram, **kw):
    defaults = dict(layers=2, hidden=16, heads=2, ffn=32, max_positions=32,
                    fine_vocab_size=fine, ngram_vocab_size=ngram)
    defaults.update(kw)
    return ModelConfig(**defaults)


class SameDtypeGrad(np.ndarray):
    """A gradient view whose ``+=`` refuses a value of another dtype, which
    a plain buffer would cast without a sign (float64 into float32)."""

    def __iadd__(self, other):
        assert np.asarray(other).dtype == self.dtype, (np.asarray(other).dtype, self.dtype)
        return super().__iadd__(other)


def zero_grads(params):
    """Zeroed gradient views over one vector laid out like ``params``,
    each a :class:`SameDtypeGrad`."""
    return {k: v.view(SameDtypeGrad) for k, v in FlatLayout(params).zeros()[1].items()}


# the heads a loss term runs through (``model.head_logits`` names)
HEADS = ("ngram", "fine", "rtd", "gen_ngram")


def loss_and_grads(loss_terms, params, plan, cfg, scales=None, prefix=""):
    """One plan's loss sums by head (``ngram``, ``fine``, ``rtd``,
    ``gen_ngram``) and, with ``scales``, its gradients alone: ``loss_terms``
    adds the plan to a group of its own, whose heads, losses and backward
    run over zeroed gradients for every parameter.  Without ``scales`` the
    dlogit scales are 1.0 and the gradient dict returned is empty."""
    grads = zero_grads(params)
    group = BackwardGroup(params, cfg.generator_view() if prefix else cfg, grads,
                          scales or dict.fromkeys(HEADS, 1.0), prefix)
    loss_terms(params, plan, cfg, group)
    group.backward()
    return {**dict.fromkeys(HEADS, 0.0), **group.sums}, grads if scales is not None else {}


@pytest.fixture
def toy_vocab():
    # reserved symbols occupy ids 0..12; x1..x6 get ids 13..18
    return FineVocab.from_subwords([f"x{i}" for i in range(1, 7)])


@pytest.fixture
def toy_lex():
    return lex_from([("x2", "x3")])


@pytest.fixture
def toy_jv(toy_vocab, toy_lex):
    return build_joint_vocab(toy_vocab, toy_lex)


@pytest.fixture
def toy_example(toy_vocab, toy_lex):
    """Words x1..x6; boundaries (1,2,4,5,6,7): [x1][x2 x3][x4][x5][x6]."""
    words = tuple(f"x{i}" for i in range(1, 7))
    return segment_example(words, toy_lex, toy_vocab)
