"""Shared fixtures: a six-word toy example whose second segment is a
bigram from the lexicon, plus small helpers for building lexicons and
model configs by hand."""

import numpy as np
import pytest

from ngramlm import FineVocab, build_joint_vocab
from ngramlm.lexicon import NGramLexicon, ScoredNGram
from ngramlm.maskplan import segment_example
from ngramlm.model import FlatLayout, ModelConfig
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


def loss_and_grads(loss_terms, params, plan, cfg, scales=None, prefix=""):
    """One plan's loss sums (``coarse_sum``, ``fine_sum``, ``rtd_sum``,
    ``gen_sum``) and, with ``scales``, its gradients alone: ``loss_terms``
    adds the plan to a group of its own, whose heads, losses and backward
    run over zeroed gradients for every parameter.  Without ``scales`` the
    dlogit scales are 1.0 and the gradient dict returned is empty."""
    grads = zero_grads(params)
    group = BackwardGroup(params, cfg.generator_view() if prefix else cfg, grads,
                          scales or dict.fromkeys(("coarse", "fine", "rtd", "gen"), 1.0), prefix)
    loss_terms(params, plan, cfg, group)
    group.backward()
    terms = dict.fromkeys(("coarse_sum", "fine_sum", "rtd_sum", "gen_sum"), 0.0)
    terms.update({f"{term}_sum": value for term, value in group.sums.items()})
    return terms, grads if scales is not None else {}


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
