"""End-to-end plan generation: segment each document against the lexicon,
sample masked segments and lay out one plan per document."""

from __future__ import annotations

from .corpus import WordStream
from .errors import UsageError
from .lexicon import JointVocab, NGramLexicon
from .maskplan import Objective, PlanStore, PlanWriter, RngState, sample_mask, segment_example

DEFAULT_MASK_RATE = 0.15


def make_plans(stream: WordStream, lex: NGramLexicon, jv: JointVocab,
               objective: Objective, rate: float = DEFAULT_MASK_RATE,
               seed: int = 0, ngram_only: bool = False,
               max_positions: int | None = None) -> PlanStore:
    """One plan per document, in a store.  ``ngram_only`` restricts
    masking to multi-word segments (used for n-gram perplexity evaluation).

    The plans are in the objective's layout (:attr:`Objective.layout`); a
    relation plan's generator samples are filled in at training time.  The
    store's ``counts`` give the documents skipped for having no segment,
    for exceeding ``max_positions`` subwords or, under ``ngram_only``, for
    having no multi-word segment, and the masked segments that fell back
    to the contiguous layout for exceeding the query budget.
    """
    if max_positions is not None and max_positions < 1:
        raise UsageError(f"max_positions must be positive, got {max_positions}")
    if not 0 < rate < 1:
        raise UsageError(f"mask rate must be in (0, 1), got {rate}")
    if objective not in tuple(Objective):
        raise UsageError(f"unknown objective {objective}")
    vocab = jv.fine
    writer = PlanWriter(objective, jv)
    rng = RngState(seed)
    no_segment = too_long = no_candidate = 0
    for doc in stream:
        ex = segment_example(doc, lex, vocab)
        if ex.boundaries.num_segments == 0:
            no_segment += 1
            continue
        if max_positions is not None and len(ex.subword_ids) > max_positions:
            too_long += 1
            continue
        candidates = None
        if ngram_only:
            b = ex.boundaries.boundaries
            candidates = [j for j in range(1, len(b)) if b[j] - b[j - 1] > 1]
            if not candidates:
                no_candidate += 1
                continue
        writer.add(ex, sample_mask(ex.boundaries, rate, rng, candidates))
    store = writer.store()
    store.counts = {"skipped_no_segment": no_segment, "skipped_over_max_positions": too_long,
                    "skipped_no_candidate": no_candidate, "fallback_segments": writer.fallbacks}
    return store
