"""Command line front end: the pipeline end to end, reproducible.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric error.
Only the commands that draw random numbers (make-masks, train) take
--seed.  Lexicon, plan and attention files carry a provenance header
(argument hash plus input file names and hashes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .corpus import (FineVocab, TokenizerConfig, _decode_text, _read_text, count_ngrams, ingest,
                     split_documents, subword_tokenize, tokenize_words)
from .errors import DataError, NumericError, UsageError
from .lexicon import DEFAULT_MIN_COUNT, NGramLexicon, build_joint_vocab, extract_lexicon
from .maskplan import (
    Objective,
    plan_to_json,
    read_plan_file,
    write_plan_file,
)
from .model import (
    ModelConfig,
    encode,
    export_finetune_weights,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .pipeline import DEFAULT_MASK_RATE, make_plans
from .segmenter import extract_boundaries
from .train import TrainConfig, eval_ngram_ppl, train

OBJECTIVES = [o.name.lower() for o in Objective]


def _file_hash(path) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    return h.hexdigest()[:16]


# arguments that name files read and files written; provenance keeps only
# their file names
_INPUT_ARGS = ("corpus", "lexicon", "vocab", "input", "plans", "checkpoint", "resume")
_OUTPUT_ARGS = ("out", "dump_json", "metrics")
_PATH_ARGS = frozenset(_INPUT_ARGS + _OUTPUT_ARGS)


def _check_outputs(args: argparse.Namespace):
    """Refuse, before any file is read, an output path that names an input
    or another output (UsageError, naming both flags) or lies in a missing
    directory (DataError)."""
    named = {}  # real path -> the first flag that names it
    for name in _INPUT_ARGS + _OUTPUT_ARGS:
        value = getattr(args, name, None)
        flag = "--" + name.replace("_", "-")
        for path in value if isinstance(value, list) else filter(None, [value]):
            real = os.path.realpath(path)
            if name in _OUTPUT_ARGS:
                if real in named:
                    raise UsageError(f"{flag} {path} names the same file as {named[real]}, "
                                     "which it would overwrite")
                if not os.path.isdir(os.path.dirname(path) or "."):
                    raise DataError(f"cannot write {path}: no such directory")
            named.setdefault(real, flag)


def _file_names(value):
    if isinstance(value, list):
        return [os.path.basename(p) for p in value]
    return None if value is None else os.path.basename(value)


def provenance(command: str, args: argparse.Namespace, inputs) -> dict:
    """The header for an output file.  Inputs and path arguments appear as
    file names, so the same command on the same files gives the same header
    from any directory."""
    cfg = {k: _file_names(v) if k in _PATH_ARGS else v
           for k, v in sorted(vars(args).items()) if k != "func"}
    cfg_hash = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]
    return {
        "tool": f"ngramlm {__version__}",
        "command": command,
        "seed": getattr(args, "seed", None),
        "config_hash": cfg_hash,
        "inputs": [[os.path.basename(p), _file_hash(p)] for p in inputs],
    }


def _tok_config(args) -> TokenizerConfig:
    return TokenizerConfig(lowercase=not args.no_lowercase,
                           doc_per_line=not args.blank_line_docs)


def _add_corpus_flags(p):
    p.add_argument("--corpus", nargs="+", required=True, help="UTF-8 text files")
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--blank-line-docs", action="store_true",
                   help="documents separated by blank lines instead of one per line")


def cmd_extract_lexicon(args):
    stream = ingest(args.corpus, _tok_config(args))
    k = {2: args.k2, 3: args.k3}
    if args.k4:
        k[4] = args.k4
    counts = count_ngrams(stream, max(k))
    lex = extract_lexicon(counts, k, min_count=args.min_count)
    prov = provenance("extract-lexicon", args, args.corpus)
    lex.save(args.out, provenance=json.dumps(prov, sort_keys=True))
    print(f"wrote {len(lex)} n-grams to {args.out}")
    return 0


def cmd_make_masks(args):
    stream = ingest(args.corpus, _tok_config(args))
    lex = NGramLexicon.load(args.lexicon)
    vocab = FineVocab.load(args.vocab)
    jv = build_joint_vocab(vocab, lex)
    objective = Objective[args.objective.upper()]
    plans = make_plans(stream, lex, jv, objective, rate=args.rate, seed=args.seed,
                       ngram_only=args.ngram_only, max_positions=args.max_positions)
    prov = provenance("make-masks", args, args.corpus + [args.lexicon, args.vocab])
    prov["objective"] = args.objective
    prov["fine_vocab_size"] = len(vocab)
    prov["ngram_vocab_size"] = len(lex)
    prov["plan_counts"] = plans.counts
    write_plan_file(args.out, plans, prov)
    if args.dump_json:
        with open(args.dump_json, "w", encoding="utf-8") as f:
            f.write(json.dumps({"provenance": prov}, sort_keys=True) + "\n")
            for plan in plans:
                f.write(plan_to_json(plan) + "\n")
    c = plans.counts
    print(f"wrote {len(plans)} plans to {args.out}; skipped {c['skipped_no_segment']} documents "
          f"with no segment, {c['skipped_over_max_positions']} over max positions and "
          f"{c['skipped_no_candidate']} with no n-gram candidate; "
          f"{c['fallback_segments']} masked segments fell back to contiguous")
    return 0


def cmd_segment(args):
    lex = NGramLexicon.load(args.lexicon)
    # the whole input, a file or stdin's bytes, is read and decoded first, so
    # a missing or non-UTF-8 input fails before any output, whatever stdin's
    # encoding
    text = (_read_text(args.input) if args.input
            else _decode_text(sys.stdin.buffer.read(), "<stdin>"))
    for words in split_documents(text, TokenizerConfig(lowercase=not args.no_lowercase)):
        b = extract_boundaries(words, lex)
        fields = [",".join(str(x) for x in b.boundaries)]
        fields += [" ".join(seg) for seg in b.segments()]
        print("\t".join(fields))
    return 0


def _model_config(args, fine_size, ngram_size) -> ModelConfig:
    return ModelConfig(
        layers=args.layers,
        hidden=args.hidden,
        heads=args.heads,
        ffn=args.ffn or 4 * args.hidden,
        max_positions=args.max_positions,
        fine_vocab_size=fine_size,
        ngram_vocab_size=ngram_size,
        generator_layers=args.generator_layers,
    )


def _plan_header(path, prov, objective_arg):
    """The objective (--objective, else the header's) and the two vocabulary
    sizes a plan file header names, refused as data errors if malformed."""
    sizes = [prov.get(key) for key in ("fine_vocab_size", "ngram_vocab_size")]
    if any(type(n) is not int or n < 0 for n in sizes):
        raise DataError(f"{path}: plan header vocabulary sizes {sizes} are not "
                        f"two non-negative integers")
    name = objective_arg or prov.get("objective")
    if not isinstance(name, str) or name.lower() not in OBJECTIVES:
        raise DataError(f"{path}: plan header objective {name!r} is not one of "
                        f"{', '.join(OBJECTIVES)}")
    return Objective[name.upper()], *sizes


def cmd_train(args):
    prov_in, plans = read_plan_file(args.plans)
    objective, fine_size, ngram_size = _plan_header(args.plans, prov_in, args.objective)
    cfg = _model_config(args, fine_size, ngram_size)
    warmup = args.warmup
    # a resume reads its checkpoint here, once, and train() takes it over
    checkpoint = load_checkpoint(args.resume) if args.resume else None
    if warmup is None and checkpoint:
        # a resume keeps the run's warmup, so --steps may grow
        saved = checkpoint[2].get("train_config")
        warmup = saved.get("warmup_steps") if isinstance(saved, dict) else None
    if type(warmup) is not int:
        warmup = min(20, args.steps // 10)
    tcfg = TrainConfig(
        objective=objective,
        total_steps=args.steps,
        batch_size=args.batch_size,
        lr=args.lr,
        warmup_steps=warmup,
        seed=args.seed,
        rtd_weight=args.rtd_weight,
        checkpoint_every=args.checkpoint_every,
    )
    # a resume trains the checkpoint's parameters: no fresh ones to build
    params = {} if checkpoint else init_params(cfg, args.seed)
    train(tcfg, plans, params, cfg, metrics_path=args.metrics, checkpoint_path=args.out,
          resume_from=args.resume, checkpoint=checkpoint)
    print(f"trained {args.steps} steps; checkpoint at {args.out}")
    return 0


def cmd_eval_ppl(args):
    prov, plans = read_plan_file(args.plans)
    _, *sizes = _plan_header(args.plans, prov, None)
    params, cfg, extra, _ = load_checkpoint(args.checkpoint)
    if extra.get("exported"):
        raise DataError(f"{args.checkpoint}: an exported checkpoint has no n-gram head")
    if sizes != [cfg.fine_vocab_size, cfg.ngram_vocab_size]:
        raise DataError(f"{args.plans}: plans for vocabulary sizes fine {sizes[0]} and n-gram "
                        f"{sizes[1]}, but {args.checkpoint} has fine {cfg.fine_vocab_size} "
                        f"and n-gram {cfg.ngram_vocab_size}")
    ppl = eval_ngram_ppl(params, plans, cfg)
    print(json.dumps({"ngram_ppl": ppl, "plans": len(plans)}))
    return 0


def cmd_export(args):
    params, cfg, extra, _ = load_checkpoint(args.checkpoint)
    exported = export_finetune_weights(params, cfg)
    save_checkpoint(args.out, exported, cfg,
                    extra={"exported": True, "source": os.path.basename(args.checkpoint)})
    print(f"exported {len(exported)} tensors to {args.out}")
    return 0


def cmd_inspect_attention(args):
    params, cfg, _, _ = load_checkpoint(args.checkpoint)
    if not cfg.layers:
        raise UsageError(f"{args.checkpoint} has no attention layer: it was trained with 0 layers")
    vocab = FineVocab.load(args.vocab)
    if len(vocab) != cfg.fine_vocab_size:
        raise DataError(f"{args.vocab} holds {len(vocab)} subwords, but {args.checkpoint} was "
                        f"trained on {cfg.fine_vocab_size}")
    words = tokenize_words(args.text, not args.no_lowercase)
    if not words:
        raise UsageError("empty input text")
    ids, _ = subword_tokenize(words, vocab)
    n = len(ids)
    acts = encode(params, ids, range(1, n + 1), None, cfg)
    mean_attn = acts.attn_probs[-1].mean(axis=0)  # head-mean, last layer
    tokens = [vocab.tokens[i] for i in ids]
    prov = provenance("inspect-attention", args, [args.checkpoint, args.vocab])
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("# " + json.dumps(prov, sort_keys=True) + "\n")
        f.write("," + ",".join(tokens) + "\n")
        for tok, row in zip(tokens, mean_attn):
            f.write(tok + "," + ",".join(f"{x:.6g}" for x in row) + "\n")
    print(f"wrote {n}x{n} attention matrix to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ngramlm", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-lexicon", help="score n-grams with the t-test and keep the top k per order")
    _add_corpus_flags(p)
    p.add_argument("--k2", type=int, default=2000)
    p.add_argument("--k3", type=int, default=1000)
    p.add_argument("--k4", type=int, default=0)
    p.add_argument("--min-count", type=int, default=DEFAULT_MIN_COUNT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract_lexicon)

    p = sub.add_parser("make-masks", help="segment a corpus and emit mask plans")
    _add_corpus_flags(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--objective", default="explicit", choices=OBJECTIVES)
    p.add_argument("--rate", type=float, default=DEFAULT_MASK_RATE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ngram-only", action="store_true",
                   help="mask only multi-word segments (perplexity evaluation sets)")
    p.add_argument("--max-positions", type=int, default=256)
    p.add_argument("--dump-json", metavar="PATH", help="also write a JSON-lines dump")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_masks)

    p = sub.add_parser("segment", help="maximum-matching segmentation of input lines")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--input", help="default: stdin")
    p.add_argument("--no-lowercase", action="store_true")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("train", help="train on a plan file")
    p.add_argument("--plans", required=True)
    p.add_argument("--objective", choices=OBJECTIVES, help="default: from the plan file header")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--ffn", type=int, default=0, help="default 4*hidden")
    p.add_argument("--max-positions", type=int, default=256)
    p.add_argument("--generator-layers", type=int, default=1)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--warmup", type=int, default=None,
                   help="default: the checkpoint's on --resume, else min(20, steps // 10)")
    p.add_argument("--rtd-weight", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--metrics", help="JSON-lines metrics log path")
    p.add_argument("--resume", help="resume from this checkpoint")
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-ppl", help="n-gram perplexity on a held-out plan file")
    p.add_argument("--plans", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval_ppl)

    p = sub.add_parser("export", help="prune to fine-tuning weights (drop n-gram rows, heads, generator)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("inspect-attention", help="dump last-layer head-mean attention as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inspect_attention)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DataError, OSError) as e:  # OSError: e.g. an output in a missing directory
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
