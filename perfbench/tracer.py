"""Span recording from outside the program, and the figures derived from it.

The tracer replaces public functions of ``ngramlm`` at the module
attributes through which they are called, records one span per call
(name, start, end, parent span, op id) in memory and counts the work
each call did.  Nothing inside ``ngramlm`` knows about it.  Every
replaced attribute is put back by :meth:`Patches.restore`.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

perf_counter = time.perf_counter


# ---------------------------------------------------------------------------
# statistics shared by the end-to-end and per-layer figures

def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the sample at rank ceil(q/100 * n)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int  # -1 at the top level
    op_id: int
    name: str
    start: float
    end: float


def self_times(spans) -> dict:
    """Per span name: summed duration minus the part covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out: dict = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered_length(children[s.span_id], s.start, s.end)
    return dict(out)


# ---------------------------------------------------------------------------
# recording

class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def new_op(self):
        """Start a new operation (a training step, an eval pass, a CLI call)."""
        self.op_id += 1

    def wrap(self, fn, name, on_result=None):
        """``fn`` recorded as a span; ``name`` may be a callable of (args, kwargs).

        ``on_result(args, kwargs, result)`` updates the counters after the
        span has closed, so its cost falls outside the span.
        """
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            label = name(args, kwargs) if callable(name) else name
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(Span(span_id, parent, self.op_id, label, start, end))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, fn, name):
        """``fn`` with a call counter and no span, for calls too small to time."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def span_calls(self) -> Counter:
        return Counter(s.name for s in self.spans)

    def write(self, path, header: dict):
        """Spans as JSON lines after one header line; written once, at the end."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                f.write(json.dumps([s.span_id, s.parent, s.op_id, s.name,
                                    round(s.start, 9), round(s.end, 9)]) + "\n")


class Patches:
    """Module and class attributes replaced for a run, restored afterwards."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _module(name):
    # ``ngramlm.train`` as an attribute of the package is the re-exported
    # train() function, so submodules are always looked up by import path.
    return importlib.import_module(name)


def _encode_name(args, kwargs):
    prefix = kwargs.get("prefix", args[5] if len(args) > 5 else "")
    return "model.generator_encode" if prefix else "model.encode"


def _encode_backward_name(args, kwargs):
    prefix = kwargs.get("prefix", args[4] if len(args) > 4 else "")
    return "model.generator_encode_backward" if prefix else "model.encode_backward"


# (span name, [(module, attribute), ...]): every attribute through which
# the workloads reach the function, from the program or from the benchmark.
# An attribute that a later version of the program no longer has is skipped.
SPAN_POINTS = [
    ("corpus.ingest", [("ngramlm.corpus", "ingest"), ("ngramlm.cli", "ingest")]),
    ("corpus.count_ngrams", [("ngramlm.corpus", "count_ngrams"), ("ngramlm.cli", "count_ngrams")]),
    ("corpus.subword_tokenize", [("ngramlm.corpus", "subword_tokenize")]),
    ("lexicon.extract_lexicon", [("ngramlm.lexicon", "extract_lexicon"),
                                 ("ngramlm.cli", "extract_lexicon")]),
    ("segmenter.extract_boundaries", [("ngramlm.maskplan", "extract_boundaries")]),
    ("maskplan.segment_example", [("ngramlm.pipeline", "segment_example")]),
    ("maskplan.sample_mask", [("ngramlm.pipeline", "sample_mask")]),
    ("maskplan.plan_build", [("ngramlm.pipeline", "plan_contiguous"),
                             ("ngramlm.pipeline", "plan_explicit"),
                             ("ngramlm.pipeline", "plan_comprehensive")]),
    ("pipeline.make_plans", [("ngramlm.pipeline", "make_plans"), ("ngramlm.cli", "make_plans")]),
    ("maskplan.write_plan_file", [("ngramlm.cli", "write_plan_file")]),
    ("maskplan.read_plan_file", [("ngramlm.maskplan", "read_plan_file")]),
    ("maskplan.build_attention_mask", [("ngramlm.train", "build_attention_mask")]),
    ("maskplan.relation_from_comprehensive", [("ngramlm.train", "relation_from_comprehensive")]),
    (_encode_name, [("ngramlm.model", "encode"), ("ngramlm.train", "encode")]),
    (_encode_backward_name, [("ngramlm.train", "encode_backward")]),
    ("model.heads", [("ngramlm.train", "predict_fine"), ("ngramlm.train", "predict_ngram"),
                     ("ngramlm.train", "predict_rtd"), ("ngramlm.train", "head_backward"),
                     ("ngramlm.train", "rtd_backward"), ("ngramlm.model", "predict_ngram")]),
    ("model.generator_sample", [("ngramlm.train", "generator_forward_and_sample")]),
    ("model.init_params", [("ngramlm.model", "init_params")]),
    ("train.batch_loss_and_grad", [("ngramlm.train", "batch_loss_and_grad")]),
    ("train.plan_loss_terms", [("ngramlm.train", "plan_loss_terms")]),
    ("train.generator_loss_terms", [("ngramlm.train", "generator_loss_terms")]),
    ("train.adam_step", [("ngramlm.train", "adam_step")]),
    ("train.eval_ngram_ppl", [("ngramlm.train", "eval_ngram_ppl")]),
    ("cli.main", [("ngramlm.cli", "main")]),
    ("cli.provenance", [("ngramlm.cli", "provenance")]),
]


def _counting_hooks(tracer: Tracer) -> dict:
    """Counters recorded from a call's arguments and result, by span name."""
    c = tracer.counts

    def ingest(args, kwargs, stream):
        c["corpus.words"] += stream.total_words()

    def count_ngrams(args, kwargs, tables):
        c["corpus.ngram_types"] += sum(len(t) for t in tables.counts.values())

    def extract_lexicon(args, kwargs, lex):
        c["lexicon.kept"] += len(lex)

    def extract_boundaries(args, kwargs, b):
        bounds = b.boundaries
        c["segmenter.segments"] += len(bounds) - 1
        c["segmenter.multiword"] += sum(1 for i in range(len(bounds) - 1)
                                        if bounds[i + 1] - bounds[i] > 1)

    def make_plans(args, kwargs, plans):
        c["pipeline.docs"] += len(args[0])
        c["pipeline.plans"] += len(plans)

    def write_plan_file(args, kwargs, _):
        c["maskplan.plan_file_bytes"] += os.path.getsize(args[0])

    def encode(args, kwargs, _):
        if not kwargs.get("prefix", args[5] if len(args) > 5 else ""):
            c["model.encode.tokens"] += len(args[1])

    def cli_main(args, kwargs, code):
        if code != 0:
            c["cli.nonzero_exits"] += 1

    return {
        "corpus.ingest": ingest,
        "corpus.count_ngrams": count_ngrams,
        "lexicon.extract_lexicon": extract_lexicon,
        "segmenter.extract_boundaries": extract_boundaries,
        "pipeline.make_plans": make_plans,
        "maskplan.write_plan_file": write_plan_file,
        _encode_name: encode,
        "cli.main": cli_main,
    }


def install(tracer: Tracer, patches: Patches):
    """Replace every traced attribute that the program has."""
    hooks = _counting_hooks(tracer)
    for name, sites in SPAN_POINTS:
        for mod_name, attr in sites:
            mod = _module(mod_name)
            if attr not in mod.__dict__:
                continue
            patches.set(mod, attr, tracer.wrap(mod.__dict__[attr], name, hooks.get(name)))
    lexicon = _module("ngramlm.lexicon")
    if "t_statistic" in lexicon.__dict__:
        patches.set(lexicon, "t_statistic",
                    tracer.count_calls(lexicon.t_statistic, "lexicon.t_statistic.calls"))
    load = lexicon.NGramLexicon.__dict__.get("load")
    if isinstance(load, classmethod):
        patches.set(lexicon.NGramLexicon, "load",
                    classmethod(tracer.wrap(load.__func__, "lexicon.load")))
