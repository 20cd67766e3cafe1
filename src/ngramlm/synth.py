"""Synthetic corpora with controllable collocation structure.

Used by the test suite and the demo scripts: a Zipf word soup for the
lexicon/segmentation oracles and a topic/phrase corpus whose n-grams are
statistically real collocations, for training experiments.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .corpus import WordStream


def zipf_corpus(n_words: int, seed: int = 0, vocab_size: int = 400,
                mean_doc_len: int = 14) -> WordStream:
    """Random documents with Zipf-distributed words (no planted structure)."""
    g = np.random.default_rng(seed)
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = 1.0 / ranks
    probs /= probs.sum()
    # the draw Generator.choice(p=probs) makes, the same uniforms against the
    # same normalised cumulative sums, without its per-call validation
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    words = [f"w{i:03d}" for i in range(vocab_size)]
    docs = []
    remaining = n_words
    while remaining > 0:
        n = int(min(max(2, g.poisson(mean_doc_len)), remaining))
        idx = cdf.searchsorted(g.random(n), side="right")
        docs.append([words[i] for i in idx])
        remaining -= n
    return WordStream(docs)


class CollocationSpec:
    """Topic-conditioned phrase corpus.

    Each sentence names a topic and then emits phrases from that topic's
    concentrated distribution, optionally separated by filler words.
    Phrase tokens are unique to their phrase, so phrase identity and its
    tokens carry the same information.
    """

    def __init__(self, n_topics: int = 24, phrases_per_topic: int = 8,
                 phrase_len: int = 2, n_fillers: int = 20,
                 phrases_per_sentence: int = 6, filler_prob: float = 0.3,
                 concentration: float = 1.2):
        self.n_topics = n_topics
        self.phrases_per_topic = phrases_per_topic
        self.phrase_len = phrase_len
        self.n_fillers = n_fillers
        self.phrases_per_sentence = phrases_per_sentence
        self.filler_prob = filler_prob
        self.concentration = concentration

    def build_phrases(self):
        out = []
        for t in range(self.n_topics):
            for p in range(self.phrases_per_topic):
                base = f"t{t:02d}p{p}"
                out.append(tuple(f"{base}{chr(ord('a') + i)}" for i in range(self.phrase_len)))
        return out

    def topic_probs(self) -> np.ndarray:
        w = np.exp(-self.concentration * np.arange(self.phrases_per_topic))
        return w / w.sum()


def collocation_corpus(n_sentences: int, seed: int = 0,
                       spec: CollocationSpec | None = None):
    """Returns (WordStream, word inventory, list of planted phrases)."""
    spec = spec or CollocationSpec()
    g = np.random.default_rng(seed)
    phrases = spec.build_phrases()
    fillers = [f"fill{i:02d}" for i in range(spec.n_fillers)]
    topics = [f"topic{t:02d}" for t in range(spec.n_topics)]
    # phrase draws as in zipf_corpus, one uniform each, bisected in Python
    cdf = spec.topic_probs().cumsum()
    cdf = (cdf / cdf[-1]).tolist()
    docs = []
    for _ in range(n_sentences):
        t = int(g.integers(spec.n_topics))
        words = [topics[t]]
        for _ in range(spec.phrases_per_sentence):
            if g.random() < spec.filler_prob:
                words.append(fillers[int(g.integers(spec.n_fillers))])
            p = bisect_right(cdf, g.random())
            words.extend(phrases[t * spec.phrases_per_topic + p])
        docs.append(words)
    inventory = sorted({w for ph in phrases for w in ph} | set(fillers) | set(topics))
    return WordStream(docs), inventory, phrases


def write_corpus(stream: WordStream, path):
    with open(path, "w", encoding="utf-8") as f:
        for doc in stream:
            f.write(" ".join(doc) + "\n")
