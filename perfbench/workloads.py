"""The benchmark's workloads: input generation, set-up, timed phase and checks.

Every input is generated from the workload seed and handed to the program
as files (corpus text, vocabulary).  All calls into ``ngramlm`` go through
module attributes at call time, so the tracer's replacements apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import os
import statistics
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np

from ngramlm import cli, corpus, lexicon, maskplan, model, pipeline, synth
from speed import HostSpeed
from tracer import Patches, Tracer, install, percentile, perf_counter, samples_beyond, self_times

train_mod = importlib.import_module("ngramlm.train")

SETUP_REPEATS = 3
MASK_RATE = 0.15
BATCH_SIZE = 8
TAIL_Q = 90


@dataclass(frozen=True)
class CorpusPart:
    """One collocation corpus; parts are mixed document by document."""

    docs: int
    phrase_len: int = 2
    phrases_per_sentence: int = 6


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    parts: tuple
    heldout_parts: tuple
    k: tuple  # ((order, k), ...)
    objective: str  # "explicit" or "relation"
    max_positions: int
    steps: int  # training steps per round
    setup_steps: int = 2  # warm-up steps run during set-up


@dataclass(frozen=True)
class PrepWorkload:
    name: str
    parts: tuple
    k: tuple
    objectives: tuple = ("contiguous", "explicit", "comprehensive")
    max_positions: int = 256
    shards: int = 8  # corpus files; make-masks runs once per shard and objective
    sample_docs: int = 40  # documents of each shard re-planned in memory for the read-back check


WORKLOADS = {
    w.name: w for w in (
        TrainWorkload(
            name="mlm-short",
            parts=(CorpusPart(9000),),
            heldout_parts=(CorpusPart(1000),),
            k=((2, 200),),
            objective="explicit",
            max_positions=64,
            steps=200,
        ),
        TrainWorkload(
            name="relation-long",
            parts=(CorpusPart(1200, 3, 4), CorpusPart(1200, 3, 12), CorpusPart(1200, 3, 28)),
            heldout_parts=(CorpusPart(100, 3, 4), CorpusPart(100, 3, 12), CorpusPart(100, 3, 28)),
            k=((2, 200), (3, 200)),
            objective="relation",
            max_positions=128,
            steps=60,
        ),
        PrepWorkload(
            name="prep-cli",
            parts=(CorpusPart(1300, 3, 4), CorpusPart(1300, 3, 8),
                   CorpusPart(1300, 3, 12), CorpusPart(1300, 3, 20)),
            k=((2, 400), (3, 300), (4, 200)),
        ),
    )
}


# ---------------------------------------------------------------------------
# accounting

@dataclass
class Outcome:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def error(self, what: str):
        self.check(False, f"{what}: {traceback.format_exc(limit=3).strip()}")


@dataclass
class Result:
    outcome: Outcome
    metrics: dict  # name -> (value, unit), as listed in BENCHMARK.json
    report: dict  # name -> (value, unit), figures printed for people
    params: dict  # the workload's parameters, for the environment header


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# input generation (benchmark side; the program only sees the files)

@dataclass(frozen=True)
class Inputs:
    corpus: tuple  # corpus files: one for training, the shards for prep-cli
    vocab: str
    heldout: str | None = None


def synth_docs(parts, seed: int, offset: int = 0):
    """Documents of every part, interleaved by a seeded permutation."""
    docs, inventory = [], set()
    for i, part in enumerate(parts):
        spec = synth.CollocationSpec(phrase_len=part.phrase_len,
                                     phrases_per_sentence=part.phrases_per_sentence)
        stream, inv, _ = synth.collocation_corpus(part.docs, seed=seed + 1000 * i + offset, spec=spec)
        docs.extend(stream.documents)
        inventory.update(inv)
    if len(parts) > 1:
        order = np.random.default_rng(seed + offset).permutation(len(docs))
        docs = [docs[j] for j in order]
    return docs, sorted(inventory)


def generate_inputs(w, seed: int, workdir: str) -> Inputs:
    docs, inventory = synth_docs(w.parts, seed)
    training = isinstance(w, TrainWorkload)
    shards = 1 if training else w.shards
    paths = Inputs(tuple(os.path.join(workdir, f"corpus-{i}.txt") for i in range(shards)),
                   os.path.join(workdir, "vocab.txt"),
                   os.path.join(workdir, "heldout.txt") if training else None)
    for i, path in enumerate(paths.corpus):
        lo, hi = len(docs) * i // shards, len(docs) * (i + 1) // shards
        synth.write_corpus(corpus.WordStream(docs[lo:hi]), path)
    corpus.FineVocab.from_subwords(inventory).save(paths.vocab)
    if paths.heldout:
        held, _ = synth_docs(w.heldout_parts, seed, offset=500)
        synth.write_corpus(corpus.WordStream(held), paths.heldout)
    return paths


def file_digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# training workloads

class StepClock:
    """Timestamp at each return from ``train.adam_step``, once per step.

    The steps run inside ``train.train``; these boundaries are the only
    per-step timing taken from outside it.
    """

    def __init__(self, patches: Patches, tracer: Tracer | None = None):
        step = train_mod.adam_step
        self.stamps: list = []

        def ticking(*args, **kwargs):
            out = step(*args, **kwargs)
            self.stamps.append(perf_counter())
            if tracer is not None:
                tracer.new_op()
            return out

        patches.set(train_mod, "adam_step", ticking)

    def start(self):
        self.stamps = [perf_counter()]

    def steps(self) -> list:
        """(start, end) of each step since :meth:`start`."""
        return list(zip(self.stamps, self.stamps[1:]))


@dataclass
class TrainState:
    plans: list
    heldout: list
    cfg: object
    objective: object


def _objective(w: TrainWorkload):
    Objective = maskplan.Objective
    if w.objective == "relation":
        return Objective.RELATION, Objective.COMPREHENSIVE
    return Objective.EXPLICIT, Objective.EXPLICIT


def _train_config(w: TrainWorkload, objective, steps: int, seed: int):
    return train_mod.TrainConfig(objective=objective, total_steps=steps, batch_size=BATCH_SIZE,
                                 warmup_steps=steps // 10, seed=seed)


def build(w: TrainWorkload, inputs: Inputs, seed: int) -> TrainState:
    """Program-side set-up: ingest, count, lexicon, plans, init, warm-up steps."""
    objective, layout = _objective(w)
    stream = corpus.ingest(list(inputs.corpus))
    held = corpus.ingest([inputs.heldout])
    vocab = corpus.FineVocab.load(inputs.vocab)
    k = dict(w.k)
    counts = corpus.count_ngrams(stream, max(k))
    lex = lexicon.extract_lexicon(counts, k)
    jv = lexicon.build_joint_vocab(vocab, lex)
    plans = pipeline.make_plans(stream, lex, jv, layout, rate=MASK_RATE, seed=seed,
                                max_positions=w.max_positions)
    heldout = pipeline.make_plans(held, lex, jv, layout, rate=MASK_RATE, seed=seed + 1,
                                  ngram_only=True, max_positions=w.max_positions)
    cfg = model.ModelConfig(layers=2, hidden=64, heads=4, ffn=128, max_positions=w.max_positions,
                            fine_vocab_size=len(vocab), ngram_vocab_size=len(lex))
    params = model.init_params(cfg, seed)
    train_mod.train(_train_config(w, objective, w.setup_steps, seed), plans, params, cfg)
    return TrainState(plans, heldout, cfg, objective)


def duration(span) -> float:
    return span[1] - span[0]


@dataclass
class Round:
    steps: list  # (start, end) of each training step
    losses: list
    ppl: float
    eval_span: tuple  # (start, end) of the held-out eval pass
    span: tuple  # (start, end) of the whole round
    params: dict

    @property
    def wall_s(self) -> float:
        return duration(self.span)


def train_round(w: TrainWorkload, st: TrainState, seed: int, clock: StepClock) -> Round:
    """Fresh parameters, a fixed number of steps, one held-out eval pass."""
    t0 = perf_counter()
    params = model.init_params(st.cfg, seed)
    clock.start()
    params, metrics = train_mod.train(_train_config(w, st.objective, w.steps, seed),
                                      st.plans, params, st.cfg)
    steps = clock.steps()
    t1 = perf_counter()
    ppl = train_mod.eval_ngram_ppl(params, st.heldout, st.cfg)
    t2 = perf_counter()
    return Round(steps, [m["total"] for m in metrics], ppl, (t1, t2), (t0, t2), params)


def batch_plans(plans, steps: int):
    """The plans each step trains on: train() cycles through them in order."""
    return [[plans[(s * BATCH_SIZE + i) % len(plans)] for i in range(BATCH_SIZE)]
            for s in range(steps)]


def plan_tokens(plan) -> int:
    return len(plan.context_ids) + len(plan.query_ids)


def forbidden_weight(params, plans, cfg, sample: int = 16):
    """Largest post-softmax weight on {-inf} mask positions over a plan sample."""
    with_queries = [p for p in plans if p.query_ids]
    picked = with_queries[:: max(1, len(with_queries) // sample)][:sample]
    worst = 0.0
    for p in picked:
        mask = maskplan.build_attention_mask(p, dtype=params["tok_emb"].dtype)
        acts = model.encode(params, p.all_ids(), p.all_positions(), mask, cfg)
        forbidden = np.isneginf(mask)
        for probs in acts.attn_probs:
            worst = max(worst, float(probs[:, forbidden].max()))
    return worst, len(picked)


def _quality_checks(w, st, seed, rnd: Round, out: Outcome):
    out.attempted += len(rnd.losses)
    bad = sum(1 for x in rnd.losses if not math.isfinite(x))
    out.failed += bad
    if bad:
        out.notes.append(f"{bad} non-finite step losses")
    out.check(math.isfinite(rnd.ppl), "held-out ppl is not finite")
    untrained = train_mod.eval_ngram_ppl(model.init_params(st.cfg, seed), st.heldout, st.cfg)
    out.check(rnd.ppl < untrained,
              f"held-out ppl {rnd.ppl} not below the untrained model's {untrained}")
    if w.objective == "relation":
        worst, n = forbidden_weight(rnd.params, st.plans, st.cfg)
        out.check(n > 0 and worst == 0.0,
                  f"forbidden attention weight {worst} over {n} plans (must be exactly 0)")


def _quality_report(w, rnd: Round) -> dict:
    tail = rnd.losses[-max(1, len(rnd.losses) // 10):]
    return {"heldout_ngram_ppl": (rnd.ppl, "ppl"),
            "train_loss_final": (float(np.mean(tail)), "nats")}


def scaled_setup_s(speed: HostSpeed, import_span, setup) -> float:
    """Import time plus the median set-up, both at the reference speed."""
    return speed.scaled(*import_span) + statistics.median(speed.scaled(*s) for s in setup)


def run_training(w: TrainWorkload, seed: int, seconds: float, workdir: str,
                 import_span) -> Result:
    out = Outcome()
    patches = Patches()
    clock = StepClock(patches)
    speed = HostSpeed()
    try:
        with speed:
            setup = []
            for _ in range(SETUP_REPEATS):
                t = perf_counter()
                inputs = generate_inputs(w, seed, workdir)
                st = build(w, inputs, seed)
                setup.append((t, perf_counter()))
            rounds = []
            t0 = perf_counter()
            while True:
                try:
                    rnd = train_round(w, st, seed, clock)
                except Exception:
                    out.error("training round")
                    break
                rounds.append(rnd)
                if perf_counter() - t0 + rnd.wall_s / 2 >= seconds:
                    break
    finally:
        patches.restore()
    if not rounds:
        return Result(out, {}, {}, asdict(w))

    first = rounds[0]
    _quality_checks(w, st, seed, first, out)
    for rnd in rounds[1:]:
        out.attempted += len(rnd.losses)
        out.check(rnd.losses == first.losses and rnd.ppl == first.ppl,
                  "a repeated round diverged from the first (determinism)")
    out.attempted += len(rounds)  # eval passes

    step_tokens = [sum(plan_tokens(p) for p in b) for b in batch_plans(st.plans, w.steps)]
    steps = [s for r in rounds for s in r.steps]
    step_s = [speed.scaled(*s) for s in steps]
    eval_tokens = sum(plan_tokens(p) for p in st.heldout)
    metrics = {
        "setup_s": (scaled_setup_s(speed, import_span, setup), "s"),
        "throughput_per_s": (sum(step_tokens) * len(rounds) / sum(step_s), "1/s"),
        "step_ms_p50": (percentile(step_s, 50) * 1e3, "ms"),
        "step_ms_p90": (percentile(step_s, TAIL_Q) * 1e3, "ms"),
        "eval_tokens_per_s": (eval_tokens * len(rounds)
                              / sum(speed.scaled(*r.eval_span) for r in rounds), "tok/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report = {
        "train_tokens_per_s": (metrics["throughput_per_s"][0], "tok/s"),
        "step_ms_p50": metrics["step_ms_p50"],
        "step_ms_p90": metrics["step_ms_p90"],
        "step_samples": (len(step_s), "count"),
        "step_samples_beyond_p90": (samples_beyond(len(step_s), TAIL_Q), "count"),
        "eval_tokens_per_s": metrics["eval_tokens_per_s"],
        **_quality_report(w, first),
        "rounds": (len(rounds), "count"),
        **_wall_report(speed, {"step_ms_p50": percentile([duration(s) for s in steps], 50) * 1e3}),
    }
    params = {**asdict(w), "train_plans": len(st.plans), "heldout_plans": len(st.heldout),
              "batch_size": BATCH_SIZE, "mask_rate": MASK_RATE, "setup_repeats": SETUP_REPEATS}
    return Result(out, metrics, report, params)


def trace_training(w: TrainWorkload, seed: int, workdir: str, tracer: Tracer) -> Result:
    """Set-up plus one round, untraced and then traced; fixed work, so counts repeat."""
    out = Outcome()
    inputs = generate_inputs(w, seed, workdir)
    walls, runs = [], []
    for traced in (False, True):
        patches = Patches()
        if traced:
            install(tracer, patches)
        clock = StepClock(patches, tracer if traced else None)
        try:
            t = perf_counter()
            st = build(w, inputs, seed)
            runs.append(train_round(w, st, seed, clock))
            walls.append(perf_counter() - t)
        finally:
            patches.restore()
    plain, traced_rnd = runs
    out.check(plain.losses == traced_rnd.losses and plain.ppl == traced_rnd.ppl,
              "traced loss trajectory differs from the untraced one")
    _quality_checks(w, st, seed, traced_rnd, out)

    calls = tracer.span_calls()
    batches = batch_plans(st.plans, w.setup_steps) + batch_plans(st.plans, w.steps)
    expect_encode = BATCH_SIZE * len(batches) + len(st.heldout)
    out.check(calls["model.encode"] == expect_encode,
              f"model.encode.calls {calls['model.encode']} != {expect_encode} "
              "(batch size x steps + eval plans)")
    if w.objective == "relation":
        expect_gen = 2 * sum(1 for b in batches for p in b if p.targets_coarse)
    else:
        expect_gen = 0
    out.check(calls["model.generator_encode"] == expect_gen,
              f"model.generator_encode.calls {calls['model.generator_encode']} != {expect_gen}")

    quality = _quality_report(w, traced_rnd)
    metrics = layer_metrics(tracer, walls)
    metrics["train.heldout_ngram_ppl"] = quality["heldout_ngram_ppl"]
    metrics["train.loss_final"] = quality["train_loss_final"]
    params = {**asdict(w), "train_plans": len(st.plans), "heldout_plans": len(st.heldout),
              "batch_size": BATCH_SIZE, "mask_rate": MASK_RATE,
              "pinned_model_encode_calls": expect_encode,
              "pinned_generator_encode_calls": expect_gen}
    return Result(out, metrics, {}, params)


def _wall_report(speed: HostSpeed, wall_ms: dict) -> dict:
    """Unscaled figures, printed beside the scaled ones."""
    return {"host_speed": (speed.relative(), "x reference"),
            "host_speed_samples": (len(speed.starts), "count"),
            **{f"wall_{name}": (value, "ms") for name, value in wall_ms.items()}}


# ---------------------------------------------------------------------------
# prep-cli

def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class Pass:
    commands: list  # (start, end) of each make-masks command with the read-back of its output
    reads: list  # (start, end, plan positions read) of each read-back
    span: tuple  # (start, end) of the whole pass
    digests: dict

    @property
    def wall_s(self) -> float:
        return duration(self.span)


def prep_pass(w: PrepWorkload, inputs: Inputs, seed: int, workdir: str, out: Outcome,
              tracer: Tracer | None = None) -> Pass:
    """extract-lexicon over all shards, then make-masks and a read-back for
    each shard and objective."""
    lex_path = os.path.join(workdir, "lexicon.tsv")
    argv = ["extract-lexicon", "--corpus", *inputs.corpus, "--out", lex_path]
    for order, k in w.k:
        argv += [f"--k{order}", str(k)]
    commands, reads = [], []
    t0 = perf_counter()
    if tracer is not None:
        tracer.new_op()
    code = _cli(argv)
    out.check(code == 0, f"extract-lexicon exited {code}")
    outputs = [lex_path]
    for shard, corpus_path in enumerate(inputs.corpus):
        for objective in w.objectives:
            path = plan_path(workdir, objective, shard)
            outputs.append(path)
            if tracer is not None:
                tracer.new_op()
            t = perf_counter()
            code = _cli(["make-masks", "--corpus", corpus_path, "--lexicon", lex_path,
                         "--vocab", inputs.vocab, "--objective", objective,
                         "--rate", str(MASK_RATE), "--seed", str(seed),
                         "--max-positions", str(w.max_positions), "--out", path])
            tr = perf_counter()
            out.check(code == 0, f"make-masks {objective} shard {shard} exited {code}")
            _, plans = maskplan.read_plan_file(path)
            te = perf_counter()
            commands.append((t, te))
            reads.append((tr, te, sum(plan_tokens(p) for p in plans)))
    span = (t0, perf_counter())
    return Pass(commands, reads, span, {p: file_digest(p) for p in outputs})


def plan_path(workdir: str, objective: str, shard: int) -> str:
    return os.path.join(workdir, f"{objective}-{shard}.bin")


def readback_checks(w: PrepWorkload, inputs: Inputs, seed: int, workdir: str, out: Outcome):
    """Plans read back equal make_plans in memory on the first documents of each shard."""
    lex = lexicon.NGramLexicon.load(os.path.join(workdir, "lexicon.tsv"))
    jv = lexicon.build_joint_vocab(corpus.FineVocab.load(inputs.vocab), lex)
    for shard, corpus_path in enumerate(inputs.corpus):
        stream = corpus.ingest([corpus_path])
        sample = corpus.WordStream(stream.documents[: w.sample_docs])
        for objective in w.objectives:
            expected = pipeline.make_plans(sample, lex, jv, maskplan.Objective[objective.upper()],
                                           rate=MASK_RATE, seed=seed,
                                           max_positions=w.max_positions)
            _, got = maskplan.read_plan_file(plan_path(workdir, objective, shard))
            out.check(len(expected) > 0 and got[: len(expected)] == expected,
                      f"{objective} shard {shard} plans read back differ from make_plans "
                      "in memory")


def run_prep(w: PrepWorkload, seed: int, seconds: float, workdir: str, import_span) -> Result:
    out = Outcome()
    speed = HostSpeed()
    with speed:
        setup = []
        for _ in range(SETUP_REPEATS):
            t = perf_counter()
            inputs = generate_inputs(w, seed, workdir)
            setup.append((t, perf_counter()))
        passes = []
        t0 = perf_counter()
        while True:
            try:
                p = prep_pass(w, inputs, seed, workdir, out)
            except Exception:
                out.error("prep pass")
                break
            passes.append(p)
            out.attempted += len(p.reads)
            if perf_counter() - t0 + p.wall_s / 2 >= seconds:
                break
    if not passes:
        return Result(out, {}, {}, asdict(w))
    for p in passes[1:]:
        out.check(p.digests == passes[0].digests, "a repeated pass wrote different files")
    readback_checks(w, inputs, seed, workdir, out)

    words = 0
    for path in inputs.corpus:
        with open(path, encoding="utf-8") as f:
            words += sum(len(line.split()) for line in f)
    commands = [c for p in passes for c in p.commands]
    command_s = [speed.scaled(*c) for c in commands]
    read_rates = [tokens / speed.scaled(a, b) for p in passes for a, b, tokens in p.reads]
    metrics = {
        "setup_s": (scaled_setup_s(speed, import_span, setup), "s"),
        "throughput_per_s": (words * len(passes) / sum(speed.scaled(*p.span) for p in passes),
                             "1/s"),
        "step_ms_p50": (percentile(command_s, 50) * 1e3, "ms"),
        "step_ms_p90": (percentile(command_s, TAIL_Q) * 1e3, "ms"),
        "eval_tokens_per_s": (statistics.median(read_rates), "tok/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report = {
        "prep_words_per_s": (metrics["throughput_per_s"][0], "words/s"),
        "make_masks_ms_p50": metrics["step_ms_p50"],
        "make_masks_ms_p90": metrics["step_ms_p90"],
        "make_masks_samples": (len(command_s), "count"),
        "make_masks_samples_beyond_p90": (samples_beyond(len(command_s), TAIL_Q), "count"),
        "readback_tokens_per_s": metrics["eval_tokens_per_s"],
        "passes": (len(passes), "count"),
        **_wall_report(speed, {"make_masks_ms_p50": percentile([duration(c) for c in commands], 50)
                               * 1e3}),
    }
    params = {**asdict(w), "corpus_words": words, "setup_repeats": SETUP_REPEATS,
              "mask_rate": MASK_RATE}
    return Result(out, metrics, report, params)


def trace_prep(w: PrepWorkload, seed: int, workdir: str, tracer: Tracer) -> Result:
    """One pass untraced, then one traced; outputs must match byte for byte."""
    out = Outcome()
    inputs = generate_inputs(w, seed, workdir)
    plain = prep_pass(w, inputs, seed, workdir, out)
    patches = Patches()
    install(tracer, patches)
    try:
        traced = prep_pass(w, inputs, seed, workdir, out, tracer)
    finally:
        patches.restore()
    out.check(plain.digests == traced.digests, "traced pass wrote different files")
    readback_checks(w, inputs, seed, workdir, out)
    metrics = layer_metrics(tracer, [plain.wall_s, traced.wall_s])
    metrics["train.heldout_ngram_ppl"] = (0.0, "ppl")
    metrics["train.loss_final"] = (0.0, "nats")
    return Result(out, metrics, {}, asdict(w))


# ---------------------------------------------------------------------------
# metric lists, in the order of BENCHMARK.json

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("eval_tokens_per_s", "tok/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("corpus.ingest.self_s", "s"),
    ("corpus.count_ngrams.self_s", "s"),
    ("corpus.subword_tokenize.self_s", "s"),
    ("corpus.words", "count"),
    ("corpus.ngram_types", "count"),
    ("lexicon.extract_lexicon.self_s", "s"),
    ("lexicon.load.self_s", "s"),
    ("lexicon.t_statistic.calls", "count"),
    ("lexicon.kept_ratio", "ratio"),
    ("segmenter.extract_boundaries.self_s", "s"),
    ("segmenter.extract_boundaries.calls", "count"),
    ("segmenter.multiword_share", "ratio"),
    ("maskplan.segment_example.self_s", "s"),
    ("maskplan.sample_mask.self_s", "s"),
    ("maskplan.plan_build.self_s", "s"),
    ("pipeline.make_plans.self_s", "s"),
    ("pipeline.plans_per_doc", "ratio"),
    ("maskplan.write_plan_file.self_s", "s"),
    ("maskplan.read_plan_file.self_s", "s"),
    ("maskplan.plan_file_bytes", "bytes"),
    ("maskplan.build_attention_mask.self_s", "s"),
    ("maskplan.relation_from_comprehensive.self_s", "s"),
    ("model.encode.self_s", "s"),
    ("model.encode.calls", "count"),
    ("model.encode.tokens", "count"),
    ("model.encode_backward.self_s", "s"),
    ("model.heads.self_s", "s"),
    ("model.generator_sample.self_s", "s"),
    ("model.generator_encode.self_s", "s"),
    ("model.generator_encode.calls", "count"),
    ("model.generator_encode_backward.self_s", "s"),
    ("model.init_params.self_s", "s"),
    ("train.batch_loss_and_grad.self_s", "s"),
    ("train.plan_loss_terms.self_s", "s"),
    ("train.generator_loss_terms.self_s", "s"),
    ("train.adam_step.self_s", "s"),
    ("train.adam_step.calls", "count"),
    ("train.eval_ngram_ppl.self_s", "s"),
    ("train.heldout_ngram_ppl", "ppl"),
    ("train.loss_final", "nats"),
    ("cli.main.self_s", "s"),
    ("cli.provenance.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.nonzero_exits", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
]

_COUNTER_METRICS = ("corpus.words", "corpus.ngram_types", "lexicon.t_statistic.calls",
                    "maskplan.plan_file_bytes", "model.encode.tokens", "cli.nonzero_exits")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, walls) -> dict:
    """Per-layer figures from the traced run; ``walls`` is (untraced, traced)."""
    selfs = self_times(tracer.spans)
    calls = tracer.span_calls()
    c = tracer.counts
    untraced, traced = walls
    derived = {
        "lexicon.kept_ratio": _ratio(c["lexicon.kept"], c["lexicon.t_statistic.calls"]),
        "segmenter.multiword_share": _ratio(c["segmenter.multiword"], c["segmenter.segments"]),
        "pipeline.plans_per_doc": _ratio(c["pipeline.plans"], c["pipeline.docs"]),
        "cli.calls": calls["cli.main"],
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": traced - untraced,
        "trace.overhead_share": _ratio(traced - untraced, untraced),
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name in _COUNTER_METRICS:
            value = c[name]
        elif name.endswith(".self_s"):
            value = selfs.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]]
        else:
            continue  # quality figures, filled in by the workload
        metrics[name] = (value, unit)
    return metrics


def not_reached(metrics: dict) -> list:
    """Layers whose spans never fired in this workload."""
    layers = {n.split(".", 1)[0] for n, u in PER_LAYER if n.endswith(".self_s")}
    return sorted(l for l in layers
                  if all(v == 0 for n, (v, u) in metrics.items()
                         if n.startswith(l + ".") and n.endswith(".self_s")))
