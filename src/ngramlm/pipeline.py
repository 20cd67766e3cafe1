"""End-to-end plan generation: segment each document against the lexicon,
sample masked segments and build one plan per document."""

from __future__ import annotations

from .corpus import WordStream
from .errors import UsageError
from .lexicon import JointVocab, NGramLexicon
from .maskplan import (
    Objective,
    PlanStore,
    RngState,
    plan_comprehensive,
    plan_contiguous,
    plan_explicit,
    sample_mask,
    segment_example,
)

DEFAULT_MASK_RATE = 0.15


def make_plans(stream: WordStream, lex: NGramLexicon, jv: JointVocab,
               objective: Objective, rate: float = DEFAULT_MASK_RATE,
               seed: int = 0, ngram_only: bool = False,
               max_positions: int | None = None) -> PlanStore:
    """One plan per document, in a store.  ``ngram_only`` restricts
    masking to multi-word segments (used for n-gram perplexity evaluation).

    Relation-objective plans use the comprehensive layout; generator
    samples are filled in at training time.
    """
    if max_positions is not None and max_positions < 1:
        raise UsageError(f"max_positions must be positive, got {max_positions}")
    if not 0 < rate < 1:
        raise UsageError(f"mask rate must be in (0, 1), got {rate}")
    vocab = jv.fine
    if objective == Objective.CONTIGUOUS:
        build, space = plan_contiguous, vocab
    elif objective == Objective.EXPLICIT:
        build, space = plan_explicit, jv
    elif objective in (Objective.COMPREHENSIVE, Objective.RELATION):
        build, space = plan_comprehensive, jv
    else:
        raise UsageError(f"unknown objective {objective}")
    rng = RngState(seed)

    def plans():
        for doc in stream:
            ex = segment_example(doc, lex, vocab)
            if ex.num_segments == 0:
                continue
            if max_positions is not None and len(ex.subword_ids) > max_positions:
                continue
            candidates = None
            if ngram_only:
                b = ex.boundaries.boundaries
                candidates = [j for j in range(1, len(b)) if b[j] - b[j - 1] > 1]
                if not candidates:
                    continue
            masked = sample_mask(ex.boundaries, rate, rng, candidates)
            yield build(ex, masked, space)

    return PlanStore.from_plans(plans())
