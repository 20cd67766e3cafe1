"""Synthetic corpora: the draws are pinned to the bytes they produced when
they were made with ``Generator.choice``, so the tests, demos and benchmark
workloads built on them keep their data."""

import hashlib
import json
from bisect import bisect_right

import numpy as np
import pytest

from ngramlm.synth import CollocationSpec, collocation_corpus, zipf_corpus


def digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def docs(stream):
    return [list(doc) for doc in stream]


@pytest.mark.parametrize("n, seed, spec, expected", [
    (9000, 11, None,
     ("9e15811df25c6040fe5c4506fb5ddd06bb3158a5e0584fc8edc4b21cd21e2793",
      "f52248ba01c10f846ddb2d16fc2e851ed641763649fc102ca220a9c111a76432",
      "88067742a10b6311ae7616c90eecdb914dbdd1922e1b8f5b3c636977a859bc4f")),
    (1200, 2011, CollocationSpec(phrase_len=3, phrases_per_sentence=28),
     ("e816090779acf715bfae727ce9969ed0d6792b52a90471382d30da072a1048b9",
      "9a47191e64b98d60b2a7d82ccb44a823f437ea2d90855efa3926bae1329a0a3e",
      "1006a60eef2950c87b4f2c65dd52943aba7dd78a516b08dc1315ef2c9ab41d0e")),
], ids=["default-spec", "28-phrases"])
def test_collocation_corpus_is_pinned(n, seed, spec, expected):
    stream, inventory, phrases = collocation_corpus(n, seed=seed, spec=spec)
    assert (digest(docs(stream)), digest(inventory),
            digest([list(p) for p in phrases])) == expected


def test_zipf_corpus_is_pinned():
    stream = zipf_corpus(50_000, seed=13, vocab_size=200)
    assert sum(map(len, stream)) == 50_000
    assert digest(docs(stream)) == "695871a52a2fd67491e4814b05fe95a9399af79ccdda78eb98e7aa56f604f449"


@pytest.mark.parametrize("seed", range(5))
def test_cdf_draw_equals_generator_choice(seed):
    # the corpora draw from the normalised cumulative sums with the
    # generator's uniforms, which is what Generator.choice(p=...) does
    probs = np.random.default_rng(100 + seed).random(7) ** 3
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(cdf.searchsorted(a.random(2000), side="right"),
                          b.choice(7, size=2000, p=probs))
    assert ([bisect_right(cdf.tolist(), a.random()) for _ in range(200)]
            == [int(b.choice(7, p=probs)) for _ in range(200)])
    assert a.random() == b.random()  # both consumed the same stream
