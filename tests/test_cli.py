"""Command line front end: end-to-end pipeline, determinism, exit codes."""

import dataclasses
import hashlib
import importlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ngramlm
from ngramlm import (
    FineVocab,
    NGramLexicon,
    Objective,
    build_joint_vocab,
    eval_ngram_ppl,
    ingest,
    load_checkpoint,
    make_plans,
)
from ngramlm.cli import main
from ngramlm.corpus import tokenize_words
from ngramlm.errors import NumericError
from ngramlm.maskplan import (read_plan_file, relation_from_comprehensive, segment_example,
                              write_plan_file)
from ngramlm.synth import CollocationSpec, collocation_corpus, write_corpus

from conftest import RefPlan, ref_of, reference_serialize, store_of

# a child interpreter that imports this checkout's package
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = CollocationSpec(n_topics=6, phrases_per_topic=4)
    stream, inventory, _ = collocation_corpus(80, seed=4, spec=spec)
    write_corpus(stream, root / "corpus.txt")
    FineVocab.from_subwords(inventory).save(root / "vocab.txt")
    assert main(["extract-lexicon", "--corpus", str(root / "corpus.txt"),
                 "--k2", "24", "--k3", "8", "--min-count", "3",
                 "--out", str(root / "lex.tsv")]) == 0
    return root


def run_pipeline(root, out_dir, seed=0, objective="explicit"):
    plans = out_dir / "plans.bin"
    assert main(["make-masks", "--corpus", str(root / "corpus.txt"),
                 "--lexicon", str(root / "lex.tsv"),
                 "--vocab", str(root / "vocab.txt"),
                 "--objective", objective, "--seed", str(seed),
                 "--out", str(plans)]) == 0
    return plans


def test_extract_lexicon_deterministic(corpus_dir, tmp_path):
    out2 = tmp_path / "lex2.tsv"
    assert main(["extract-lexicon", "--corpus", str(corpus_dir / "corpus.txt"),
                 "--k2", "24", "--k3", "8", "--min-count", "3",
                 "--out", str(out2)]) == 0
    a = (corpus_dir / "lex.tsv").read_text().splitlines()
    b = out2.read_text().splitlines()
    assert a[1:] == b[1:]  # rows identical; header differs only in --out path


def test_extract_lexicon_empty_corpus_is_ok(tmp_path):
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    out = tmp_path / "lex.tsv"
    assert main(["extract-lexicon", "--corpus", str(tmp_path / "empty.txt"),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("# ngramlm-lexicon v1")


def test_make_masks_byte_identical_across_runs(corpus_dir, tmp_path, monkeypatch):
    # identical seeds and relative paths: byte-identical plan files
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        for f in ("corpus.txt", "lex.tsv", "vocab.txt"):
            (d / f).write_bytes((corpus_dir / f).read_bytes())
        monkeypatch.chdir(d)
        assert main(["make-masks", "--corpus", "corpus.txt", "--lexicon",
                     "lex.tsv", "--vocab", "vocab.txt", "--seed", "11",
                     "--out", "plans.bin"]) == 0
        outs.append((d / "plans.bin").read_bytes())
    assert outs[0] == outs[1]


def test_outputs_do_not_depend_on_the_input_directory(corpus_dir, tmp_path):
    # the same commands on the same files, named by absolute paths in two
    # directories: byte-identical lexicon, plan and exported checkpoint files
    outs = []
    for name in ("a", "deeper/b"):
        d = tmp_path / name
        d.mkdir(parents=True)
        for f in ("corpus.txt", "vocab.txt"):
            (d / f).write_bytes((corpus_dir / f).read_bytes())
        assert main(["extract-lexicon", "--corpus", str(d / "corpus.txt"), "--k2", "24",
                     "--k3", "8", "--min-count", "3", "--out", str(d / "lex.tsv")]) == 0
        assert main(["make-masks", "--corpus", str(d / "corpus.txt"), "--lexicon",
                     str(d / "lex.tsv"), "--vocab", str(d / "vocab.txt"), "--seed", "11",
                     "--out", str(d / "plans.bin")]) == 0
        assert main(TRAIN_SMALL + ["--plans", str(d / "plans.bin"),
                                   "--out", str(d / "model.npz")]) == 0
        assert main(["export", "--checkpoint", str(d / "model.npz"),
                     "--out", str(d / "export.npz")]) == 0
        outs.append([(d / f).read_bytes() for f in ("lex.tsv", "plans.bin", "export.npz")])
    assert outs[0] == outs[1]
    _, _, extra, _ = load_checkpoint(tmp_path / "a" / "export.npz")
    assert extra["source"] == "model.npz"
    prov, _ = read_plan_file(tmp_path / "a" / "plans.bin")
    assert [name for name, _ in prov["inputs"]] == ["corpus.txt", "lex.tsv", "vocab.txt"]


def test_make_masks_seed_changes_plans(corpus_dir, tmp_path):
    p1 = run_pipeline(corpus_dir, tmp_path, seed=0)
    prov1, plans1 = read_plan_file(p1)
    p2 = tmp_path / "plans2.bin"
    assert main(["make-masks", "--corpus", str(corpus_dir / "corpus.txt"),
                 "--lexicon", str(corpus_dir / "lex.tsv"),
                 "--vocab", str(corpus_dir / "vocab.txt"),
                 "--seed", "1", "--out", str(p2)]) == 0
    _, plans2 = read_plan_file(p2)
    assert len(plans1) == len(plans2)
    assert plans1 != plans2
    assert prov1["objective"] == "explicit" and prov1["seed"] == 0


def test_make_masks_json_dump(corpus_dir, tmp_path):
    plans_path = tmp_path / "p.bin"
    dump = tmp_path / "p.jsonl"
    assert main(["make-masks", "--corpus", str(corpus_dir / "corpus.txt"),
                 "--lexicon", str(corpus_dir / "lex.tsv"),
                 "--vocab", str(corpus_dir / "vocab.txt"),
                 "--objective", "comprehensive",
                 "--dump-json", str(dump), "--out", str(plans_path)]) == 0
    lines = dump.read_text().splitlines()
    header = json.loads(lines[0])
    assert "provenance" in header
    _, plans = read_plan_file(plans_path)
    assert len(lines) == len(plans) + 1
    names = [f.name for f in dataclasses.fields(RefPlan)]
    for line, plan in zip(lines[1:], plans):
        rec = json.loads(line)
        assert rec["objective"] == "comprehensive"
        # every other key equals the plan read back, tuples as JSON lists
        want = ref_of(plan)
        assert sorted(rec) == sorted(names + ["rtd_labels"])
        assert rec["rtd_labels"] is None  # plans hold no RTD labels
        for name in names[1:]:
            assert rec[name] == json.loads(json.dumps(getattr(want, name))), name
        # queries share their slot's position id
        slots = {s for s, _ in plan.targets_coarse}
        assert all(p - 1 in slots for p in rec["query_positions"])


# sha256 of the --dump-json file that make-masks writes from the corpus_dir
# fixture's files, with the file names and arguments of the test below
DUMP_JSON_DIGESTS = {
    "contiguous": "a72e459b30d919fce20e7831bd1015c03305d39da67ef74cdb734d9812bd523d",
    "comprehensive": "349cd39d1acd3b83c61a6326a39dae84bdec1c7c4df77824407fd3333fca0e3a",
}


@pytest.mark.parametrize("objective", sorted(DUMP_JSON_DIGESTS))
def test_make_masks_json_dump_bytes_are_pinned(corpus_dir, tmp_path, objective):
    dump = tmp_path / "p.jsonl"
    assert main(["make-masks", "--corpus", str(corpus_dir / "corpus.txt"),
                 "--lexicon", str(corpus_dir / "lex.tsv"),
                 "--vocab", str(corpus_dir / "vocab.txt"), "--objective", objective,
                 "--dump-json", str(dump), "--out", str(tmp_path / "p.bin")]) == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == DUMP_JSON_DIGESTS[objective]


def test_train_eval_export_inspect(corpus_dir, tmp_path):
    plans = run_pipeline(corpus_dir, tmp_path, objective="relation")
    ck = tmp_path / "model.npz"
    metrics = tmp_path / "metrics.jsonl"
    argv = ["train", "--plans", str(plans), "--layers", "1", "--hidden", "16",
            "--heads", "2", "--steps", "3", "--batch-size", "4",
            "--metrics", str(metrics), "--out", str(ck)]
    assert main(argv) == 0
    m1 = metrics.read_bytes()
    assert main(argv) == 0
    assert metrics.read_bytes() == m1  # byte-identical metrics across reruns

    assert main(["eval-ppl", "--plans", str(plans), "--checkpoint", str(ck)]) == 0

    exported = tmp_path / "export.npz"
    assert main(["export", "--checkpoint", str(ck), "--out", str(exported)]) == 0
    params, cfg, extra, _ = load_checkpoint(exported)
    assert extra["exported"] is True
    assert params["tok_emb"].shape[0] == cfg.fine_vocab_size

    csv = tmp_path / "attn.csv"
    text = "topic00 t00p0a t00p0b fill00"
    for source in (exported, ck):
        assert main(["inspect-attention", "--checkpoint", str(source),
                     "--vocab", str(corpus_dir / "vocab.txt"),
                     "--text", text, "--out", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# ")
    # the subwords a lexicon segmentation gives: segmenting never changes them
    vocab = FineVocab.load(corpus_dir / "vocab.txt")
    ex = segment_example(tokenize_words(text), NGramLexicon.load(corpus_dir / "lex.tsv"), vocab)
    assert lines[1] == "," + ",".join(vocab.tokens[i] for i in ex.subword_ids)
    rows = [list(map(float, ln.split(",")[1:])) for ln in lines[2:]]
    for row in rows:
        assert sum(row) == pytest.approx(1.0, abs=1e-5)  # row-stochastic


def test_inspect_attention_on_a_zero_layer_checkpoint_is_a_usage_error(corpus_dir, tmp_path,
                                                                       capsys):
    # a zero-layer model trains and evaluates, but has no attention to dump
    plans = run_pipeline(corpus_dir, tmp_path, objective="relation")
    ck, csv = tmp_path / "model.npz", tmp_path / "attn.csv"
    assert main(["train", "--plans", str(plans), "--layers", "0", "--generator-layers", "0",
                 "--hidden", "16", "--heads", "2", "--steps", "2", "--batch-size", "4",
                 "--out", str(ck)]) == 0
    assert main(["eval-ppl", "--plans", str(plans), "--checkpoint", str(ck)]) == 0
    capsys.readouterr()
    assert main(["inspect-attention", "--checkpoint", str(ck), "--vocab",
                 str(corpus_dir / "vocab.txt"), "--text", "topic00 fill00", "--out", str(csv)]) == 2
    assert "no attention layer" in capsys.readouterr().err
    assert not csv.exists()


def test_segment_command(corpus_dir, tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("topic00 t00p0a t00p0b fill01\n", encoding="utf-8")
    assert main(["segment", "--lexicon", str(corpus_dir / "lex.tsv"),
                 "--input", str(src)]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    fields = out.split("\t")
    boundaries = [int(x) for x in fields[0].split(",")]
    segments = fields[1:]
    assert boundaries[0] == 1 and boundaries[-1] == 5
    assert len(segments) == len(boundaries) - 1
    assert " ".join(segments).split() == tokenize_words("topic00 t00p0a t00p0b fill01")


def test_exit_codes(corpus_dir, tmp_path):
    # data error: missing input file
    assert main(["extract-lexicon", "--corpus", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "x.tsv")]) == 3
    # usage error: invalid mask rate
    assert main(["make-masks", "--corpus", str(corpus_dir / "corpus.txt"),
                 "--lexicon", str(corpus_dir / "lex.tsv"),
                 "--vocab", str(corpus_dir / "vocab.txt"),
                 "--rate", "0", "--out", str(tmp_path / "p.bin")]) == 2
    # data error: truncated plan file
    plans = run_pipeline(corpus_dir, tmp_path)
    broken = tmp_path / "broken.bin"
    broken.write_bytes(plans.read_bytes()[:-3])
    assert main(["train", "--plans", str(broken), "--steps", "1",
                 "--out", str(tmp_path / "m.npz")]) == 3


def test_unreadable_checkpoint_is_a_data_error(corpus_dir, tmp_path):
    plans = run_pipeline(corpus_dir, tmp_path)
    ck = tmp_path / "model.npz"
    assert main(["train", "--plans", str(plans), "--layers", "1", "--hidden", "16",
                 "--heads", "2", "--steps", "1", "--batch-size", "2", "--out", str(ck)]) == 0
    not_npz = tmp_path / "text.npz"
    not_npz.write_text("not a checkpoint\n", encoding="utf-8")
    truncated = tmp_path / "truncated.npz"
    truncated.write_bytes(ck.read_bytes()[: ck.stat().st_size // 2])
    npy = tmp_path / "array.npz"
    with open(npy, "wb") as f:
        np.save(f, np.zeros(3))
    for bad in (not_npz, truncated, npy):
        assert main(["eval-ppl", "--plans", str(plans), "--checkpoint", str(bad)]) == 3


def rewrite_meta(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with its metadata edited in place
    by ``edit``, or replaced by what ``edit`` returns."""
    with np.load(src) as z:
        store = {k: z[k] for k in z.files}
    meta = json.loads(store["__meta__"].tobytes().decode("utf-8"))
    meta = edit(meta) or meta
    store["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(dst, "wb") as f:
        np.savez(f, **store)


@pytest.mark.parametrize("edit", [
    lambda m: m["config"].update(unknown=1),  # a key ModelConfig does not take
    lambda m: m["config"].pop("hidden"),
    lambda m: m["config"].update(heads=3),  # hidden not divisible by heads
    lambda m: m["config"].update(heads=0),
    lambda m: m.update(config=[1, 2]),
    lambda m: [m],
    lambda m: m.update(format_version=1),  # carried dropout and max_query
], ids=["unknown-key", "missing-key", "invalid", "heads-zero", "config-not-object",
        "meta-not-object", "format-1"])
def test_bad_checkpoint_metadata_is_a_data_error(corpus_dir, tmp_path, edit):
    plans = run_pipeline(corpus_dir, tmp_path)
    ck = tmp_path / "model.npz"
    assert main(["train", "--plans", str(plans), "--layers", "1", "--hidden", "16",
                 "--heads", "2", "--steps", "1", "--batch-size", "2", "--out", str(ck)]) == 0
    bad = tmp_path / "bad.npz"
    rewrite_meta(ck, bad, edit)
    assert main(["eval-ppl", "--plans", str(plans), "--checkpoint", str(bad)]) == 3


def with_provenance(data, raw):
    """Plan file bytes with the provenance header replaced by ``raw``."""
    n = int.from_bytes(data[6:10], "little")
    return data[:6] + len(raw).to_bytes(4, "little") + raw + data[10 + n:]


def with_byte(data, offset, value):
    return data[:offset] + bytes([value]) + data[offset + 1:]


@pytest.mark.parametrize("damage", [
    lambda data: data[:7],  # cut inside the 10-byte file header
    lambda data: data[:12],  # cut inside the provenance header
    lambda data: with_provenance(data, b'{"a": "\xff"}'),
    lambda data: with_provenance(data, b'{"a": '),
    lambda data: with_provenance(data, b'"fine_vocab_size"'),
    lambda data: with_byte(data, 10 + int.from_bytes(data[6:10], "little") + 6, 9),
], ids=["truncated-header", "truncated-provenance", "provenance-not-utf8",
        "provenance-not-json", "provenance-not-object", "unknown-objective"])
def test_malformed_plan_file_is_a_data_error(corpus_dir, tmp_path, damage):
    plans = run_pipeline(corpus_dir, tmp_path)
    broken = tmp_path / "broken.bin"
    broken.write_bytes(damage(plans.read_bytes()))
    assert main(["train", "--plans", str(broken), "--steps", "1",
                 "--out", str(tmp_path / "m.npz")]) == 3


def test_vocabulary_blank_line_is_a_data_error(corpus_dir, tmp_path, capsys):
    # a blank line before the last token would move every later id
    lines = (corpus_dir / "vocab.txt").read_text(encoding="utf-8").splitlines()
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(lines[:-1] + ["", lines[-1]]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["make-masks", "--corpus", str(corpus_dir / "corpus.txt"),
                 "--lexicon", str(corpus_dir / "lex.tsv"), "--vocab", str(vocab),
                 "--out", str(tmp_path / "plans.bin")]) == 3
    assert f"line {len(lines)} is blank" in capsys.readouterr().err
    assert not (tmp_path / "plans.bin").exists()


@pytest.mark.parametrize("edit", [
    lambda p: {"context_ids": (1_000_000,) + p.context_ids[1:]},
    lambda p: {"targets_coarse": ((p.targets_coarse[0][0], 1_000_000),) + p.targets_coarse[1:]},
    lambda p: {"targets_coarse": ((p.T, p.targets_coarse[0][1]),) + p.targets_coarse[1:]},
    lambda p: {"targets_fine": ((p.targets_fine[0][0], 1_000_000),) + p.targets_fine[1:]},
    lambda p: {"context_positions": (0,) + p.context_positions[1:]},
    lambda p: {"query_positions": p.query_positions[:-1] + (257,)},  # --max-positions 256
    lambda p: {"targets_coarse": (p.targets_coarse[0], (p.targets_coarse[0][0],
                                                        p.targets_coarse[1][1]))
               + p.targets_coarse[2:]},
    lambda p: {"targets_fine": (p.targets_fine[0], (p.targets_fine[0][0], p.targets_fine[1][1]))
               + p.targets_fine[2:]},
    lambda p: dict.fromkeys(("context_ids", "context_positions", "query_ids", "query_positions",
                             "targets_coarse", "targets_fine"), ()),
    # plans hold no RTD labels: only training derives them
    lambda p: {"rtd_labels": (1,) * p.T},
], ids=["context-id", "coarse-target", "coarse-slot", "fine-target", "context-position",
        "query-position", "repeated-coarse-slot", "repeated-fine-index", "empty-context",
        "rtd-labels"])
def test_out_of_range_plan_is_a_data_error(corpus_dir, tmp_path, edit):
    plans_path = run_pipeline(corpus_dir, tmp_path, objective="comprehensive")
    ck = tmp_path / "model.npz"
    assert main(["train", "--plans", str(plans_path), "--layers", "1", "--hidden", "16",
                 "--heads", "2", "--steps", "1", "--batch-size", "2", "--out", str(ck)]) == 0
    prov, plans = read_plan_file(plans_path)
    first = ref_of(plans[0])
    changes = edit(first)
    labels = changes.pop("rtd_labels", None)
    # the edited plan as a raw reference record, before the other plans' records
    bad = tmp_path / "bad.bin"
    write_plan_file(bad, plans[1:], prov)
    data = bad.read_bytes()
    at = 10 + int.from_bytes(data[6:10], "little")
    bad.write_bytes(data[:at] + reference_serialize(dataclasses.replace(first, **changes), labels)
                    + data[at:])
    assert main(["eval-ppl", "--plans", str(bad), "--checkpoint", str(ck)]) == 3
    assert main(["train", "--plans", str(bad), "--layers", "1", "--hidden", "16",
                 "--heads", "2", "--steps", "1", "--batch-size", "2",
                 "--out", str(tmp_path / "m2.npz")]) == 3


def test_contiguous_target_outside_the_context_is_a_data_error(corpus_dir, tmp_path):
    # a contiguous plan's fine targets are masked context positions; one
    # placed on an appended query position is refused
    plans_path = run_pipeline(corpus_dir, tmp_path, objective="contiguous")
    train = ["train", "--plans", str(plans_path), "--layers", "1", "--hidden", "16",
             "--heads", "2", "--steps", "1", "--batch-size", "2"]
    ck = tmp_path / "model.npz"
    assert main(train + ["--out", str(ck)]) == 0
    prov, plans = read_plan_file(plans_path)
    p = ref_of(plans[0])
    moved = dataclasses.replace(p, query_ids=(p.context_ids[0],), query_positions=(1,),
                                targets_fine=p.targets_fine + ((p.T, p.targets_fine[0][1]),))
    bad = tmp_path / "bad.bin"
    write_plan_file(bad, store_of([moved, *plans[1:]]), prov)
    train[2] = str(bad)
    assert main(["eval-ppl", "--plans", str(bad), "--checkpoint", str(ck)]) == 3
    assert main(train + ["--out", str(tmp_path / "m2.npz")]) == 3


@pytest.mark.parametrize("edit", [
    lambda prov: prov.pop("objective"),
    lambda prov: prov.update(objective="foo"),
    lambda prov: prov.update(objective=3),
    lambda prov: prov.update(objective=["explicit"]),
    lambda prov: prov.pop("ngram_vocab_size"),
    lambda prov: prov.update(fine_vocab_size="40"),
    lambda prov: prov.update(fine_vocab_size=-1),
    lambda prov: prov.update(ngram_vocab_size=24.0),
    lambda prov: prov.update(ngram_vocab_size=True),
], ids=["objective-missing", "objective-unknown", "objective-int", "objective-list",
        "ngram-size-missing", "fine-size-string", "fine-size-negative", "ngram-size-float",
        "ngram-size-bool"])
def test_malformed_plan_header_is_a_data_error(corpus_dir, tmp_path, capsys, edit):
    prov, plans = read_plan_file(run_pipeline(corpus_dir, tmp_path))
    edit(prov)
    bad = tmp_path / "bad.bin"
    write_plan_file(bad, plans, prov)
    capsys.readouterr()
    try:
        code = main(["train", "--plans", str(bad), "--layers", "1", "--hidden", "16",
                     "--heads", "2", "--steps", "1", "--batch-size", "2",
                     "--out", str(tmp_path / "m.npz")])
    except Exception as e:  # main turns every NgramlmError into an exit code
        pytest.fail(f"{type(e).__name__} escaped main: {e}")
    assert code == 3
    assert capsys.readouterr().err.startswith("data error: ")


def test_train_header_objective_is_used_unless_given(corpus_dir, tmp_path):
    # --objective overrides the header, whose objective is then not read
    prov, plans = read_plan_file(run_pipeline(corpus_dir, tmp_path))
    prov["objective"] = "foo"
    bad = tmp_path / "bad.bin"
    write_plan_file(bad, plans, prov)
    assert main(["train", "--plans", str(bad), "--objective", "explicit", "--layers", "1",
                 "--hidden", "16", "--heads", "2", "--steps", "1", "--batch-size", "2",
                 "--out", str(tmp_path / "m.npz")]) == 0


def test_train_unknown_objective_is_a_usage_error(corpus_dir, tmp_path, capsys):
    plans = run_pipeline(corpus_dir, tmp_path)
    with pytest.raises(SystemExit) as e:
        main(["train", "--plans", str(plans), "--objective", "foo",
              "--out", str(tmp_path / "m.npz")])
    assert e.value.code == 2
    assert "invalid choice: 'foo'" in capsys.readouterr().err


@pytest.mark.parametrize("column", [1, 2, 3], ids=["order", "score", "count"])
def test_non_numeric_lexicon_field_is_a_data_error(corpus_dir, tmp_path, column):
    lines = (corpus_dir / "lex.tsv").read_text(encoding="utf-8").splitlines()
    fields = lines[1].split("\t")
    fields[column] = "x"
    lines[1] = "\t".join(fields)
    bad = tmp_path / "lex.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    src = tmp_path / "in.txt"
    src.write_text("topic00 t00p0a t00p0b fill01\n", encoding="utf-8")
    assert main(["segment", "--lexicon", str(bad), "--input", str(src)]) == 3


@pytest.mark.parametrize("row", [
    "foo\t1\t1.0\t5",
    "foo bar\t2\tnan\t5",
    "foo bar\t2\tinf\t5",
    "foo bar\t2\t-inf\t5",
    "foo bar\t2\t1.0\t-1",
    "foo  bar\t3\t1.0\t5",
], ids=["order-1", "nan-score", "inf-score", "minus-inf-score", "negative-count", "empty-word"])
def test_malformed_lexicon_row_is_a_data_error(corpus_dir, tmp_path, row):
    # each row parses and its order matches its surface, but it is no
    # n-gram a lexicon can hold; the same file with a good row loads
    lines = (corpus_dir / "lex.tsv").read_text(encoding="utf-8").splitlines()
    src = tmp_path / "in.txt"
    src.write_text("topic00 t00p0a t00p0b fill01\n", encoding="utf-8")
    for name, row_1, code in (("good.tsv", lines[1], 0), ("bad.tsv", row, 3)):
        path = tmp_path / name
        path.write_text("\n".join([lines[0], row_1] + lines[2:]) + "\n", encoding="utf-8")
        assert main(["segment", "--lexicon", str(path), "--input", str(src)]) == code, name


def test_unreadable_lexicon_is_a_data_error(tmp_path):
    bad = tmp_path / "lex.tsv"
    bad.write_bytes(b"# ngramlm-lexicon v1\t{}\n\xff b\t2\t1.0\t3\n")
    src = tmp_path / "in.txt"
    src.write_text("a b\n", encoding="utf-8")
    for lexicon in (bad, tmp_path / "missing.tsv"):
        assert main(["segment", "--lexicon", str(lexicon), "--input", str(src)]) == 3


def test_segment_input_errors_are_data_errors(corpus_dir, tmp_path):
    lexicon = str(corpus_dir / "lex.tsv")
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("topic00 caf\xe9\n".encode("latin-1"))
    for src in (tmp_path / "missing.txt", bad):
        assert main(["segment", "--lexicon", lexicon, "--input", str(src)]) == 3
    # the same bytes on stdin, under a strict UTF-8 stdin and under UTF-8
    # mode, whose stdin would pass them through as surrogates
    for mode in ({"PYTHONIOENCODING": "utf-8:strict"}, {"PYTHONUTF8": "1"}):
        env = {k: v for k, v in SRC_ENV.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
        r = subprocess.run([sys.executable, "-m", "ngramlm", "segment", "--lexicon", lexicon],
                           input=bad.read_bytes(), capture_output=True, env={**env, **mode})
        assert r.returncode == 3 and r.stdout == b"", (mode, r.stderr)
        assert r.stderr.startswith(b"data error: <stdin>: invalid UTF-8 at byte 11"), mode


def test_segment_file_and_stdin_agree(corpus_dir, tmp_path, capsys, monkeypatch):
    text = "topic00 t00p0a t00p0b\r\nfill01\rt00p0a t00p0b\x0cfill02\n\n  \nTOPIC00"
    src = tmp_path / "in.txt"
    src.write_bytes(text.encode("utf-8"))
    lexicon = str(corpus_dir / "lex.tsv")
    capsys.readouterr()
    assert main(["segment", "--lexicon", lexicon, "--input", str(src)]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode("utf-8"))))
    assert main(["segment", "--lexicon", lexicon]) == 0
    assert capsys.readouterr().out == from_file
    # lines split as a text-mode file splits them: \r\n, \r and \n only
    assert len(from_file.splitlines()) == 4


def test_ingest_and_segment_agree_on_where_a_document_ends(corpus_dir, tmp_path, capsys):
    # a form feed and U+2028 end no document: make-masks and extract-lexicon
    # (through ingest) and segment see one line here
    line = "topic00 t00p0a t00p0b\x0cfill01\u2028t00p0a t00p0b\n"
    src = tmp_path / "in.txt"
    src.write_bytes(line.encode("utf-8"))
    assert ingest([src]).documents == [tokenize_words(line)]
    capsys.readouterr()
    assert main(["segment", "--lexicon", str(corpus_dir / "lex.tsv"), "--input", str(src)]) == 0
    [out] = capsys.readouterr().out.splitlines()
    assert " ".join(out.split("\t")[1:]).split() == tokenize_words(line)


TRAIN_SMALL = ["train", "--layers", "1", "--hidden", "16", "--heads", "2", "--steps", "2",
               "--batch-size", "2"]


@pytest.fixture(scope="module")
def trained(corpus_dir, tmp_path_factory):
    """Comprehensive plans, a checkpoint trained on them and its export."""
    root = tmp_path_factory.mktemp("trained")
    plans = run_pipeline(corpus_dir, root, objective="comprehensive")
    ck, exported = root / "model.npz", root / "export.npz"
    assert main(TRAIN_SMALL + ["--plans", str(plans), "--out", str(ck)]) == 0
    assert main(["export", "--checkpoint", str(ck), "--out", str(exported)]) == 0
    return plans, ck, exported


def rewrite_store(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with its arrays edited by ``edit``."""
    with np.load(src) as z:
        store = {k: z[k] for k in z.files}
    edit(store)
    with open(dst, "wb") as f:
        np.savez(f, **store)


def _drop_moments(store):
    for key in [k for k in store if k.startswith(("a/m/", "a/v/"))]:
        del store[key]


def _extra(edit):
    """A store edit that applies ``edit`` to the metadata's ``extra`` dict."""
    def apply(store):
        meta = json.loads(store["__meta__"].tobytes().decode("utf-8"))
        edit(meta["extra"])
        store["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    return apply


# each edit applies to the trained checkpoint; None runs the exported one as written
@pytest.mark.parametrize("edit, command", [
    (lambda s: s.pop("p/ngram_w"), "eval-ppl"),
    (lambda s: s.update({"p/l0_wq": np.zeros((8, 3), np.float32)}), "eval-ppl"),
    (lambda s: s.update({"p/l0_wq": s["p/l0_wq"].astype(np.int64)}), "eval-ppl"),
    (lambda s: s.update({"p/l0_wq": s["p/l0_wq"].astype(np.float16)}), "eval-ppl"),
    (lambda s: s.update({"p/l0_bq": s["p/l0_bq"].astype(np.float64)}), "eval-ppl"),
    (lambda s: s.update({"p/extra_w": np.zeros(3, np.float32)}), "eval-ppl"),
    (lambda s: s.update({"p/ngram_b": s["p/ngram_b"][None]}), "eval-ppl"),
    (None, "eval-ppl"),
    (None, "resume"),
    (_drop_moments, "resume"),
    (lambda s: s.update({"a/m/l0_wq": np.zeros(3, np.float32)}), "resume"),
    (lambda s: s.update({"a/v/ngram_b": s["a/v/ngram_b"].astype(np.float64)}), "resume"),
    (_extra(lambda e: e.pop("adam_t")), "resume"),
    (_extra(lambda e: e.update(step=1.5)), "resume"),
    (_extra(lambda e: e.update(sample_seed=-1)), "resume"),
    (_extra(lambda e: e.update(sample_counter="3")), "resume"),
    (_extra(lambda e: e.update(sample_counter=2**64)), "resume"),
    (_extra(lambda e: e.update(train_config=[1])), "resume"),
], ids=["missing-tensor", "wrong-shape", "int64-tensor", "float16-tensor", "mixed-dtype",
        "extra-tensor", "ngram-b-2d", "exported-eval", "exported-resume", "missing-moments",
        "moment-shape", "moment-dtype", "missing-adam-t", "float-step", "negative-seed",
        "string-counter", "counter-above-64-bits", "train-config-not-object"])
def test_malformed_checkpoint_is_a_data_error(trained, tmp_path, capsys, edit, command):
    plans, ck, bad = trained
    if edit is not None:
        bad = tmp_path / "bad.npz"
        rewrite_store(ck, bad, edit)
    if command == "eval-ppl":
        argv = ["eval-ppl", "--plans", str(plans), "--checkpoint", str(bad)]
    else:
        argv = TRAIN_SMALL + ["--plans", str(plans), "--steps", "3", "--resume", str(bad),
                              "--out", str(tmp_path / "resumed.npz")]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("data error: ")


def test_non_finite_perplexity_is_a_numeric_error(trained, tmp_path, capsys):
    # a NaN n-gram bias makes every n-gram perplexity NaN; the checkpoint
    # holding it is refused as it loads: eval-ppl exits 4 and prints no
    # result (NaN is no JSON number), as a resumed train does
    plans, ck, _ = trained
    params, cfg, _, _ = load_checkpoint(ck)
    params["ngram_b"][...] = np.nan
    with pytest.raises(NumericError, match="non-finite n-gram perplexity nan"):
        eval_ngram_ppl(params, read_plan_file(plans)[1], cfg)
    bad = tmp_path / "nan.npz"
    rewrite_store(ck, bad, lambda s: s.update({"p/ngram_b": np.full_like(s["p/ngram_b"], np.nan)}))
    capsys.readouterr()
    assert main(["eval-ppl", "--plans", str(plans), "--checkpoint", str(bad)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"numeric error: checkpoint {bad}: tensor ngram_b holds")
    assert main(TRAIN_SMALL + ["--plans", str(plans), "--steps", "3", "--resume", str(bad),
                               "--out", str(tmp_path / "resumed.npz")]) == 4


@pytest.mark.parametrize("key, value", [("p/l0_wq", np.nan), ("p/ngram_b", -np.inf),
                                        ("a/v/l0_wq", np.inf), ("a/m/ngram_b", np.nan)],
                         ids=["nan-weight", "inf-bias", "inf-moment", "nan-moment"])
def test_non_finite_checkpoint_is_a_numeric_error(trained, corpus_dir, tmp_path, capsys,
                                                  key, value):
    # every command that reads the tensor exits 4 and writes no output file
    plans, ck, _ = trained
    bad = tmp_path / "bad.npz"

    def poison(store):
        store[key] = store[key].copy()
        store[key].flat[0] = value
    rewrite_store(ck, bad, poison)
    out, metrics = tmp_path / "out", tmp_path / "metrics.jsonl"
    commands = [TRAIN_SMALL + ["--plans", str(plans), "--steps", "3", "--resume", str(bad),
                               "--metrics", str(metrics), "--out", str(out)]]
    if key.startswith("p/"):  # only a resume reads the Adam moments
        commands += [
            ["eval-ppl", "--plans", str(plans), "--checkpoint", str(bad)],
            ["export", "--checkpoint", str(bad), "--out", str(out)],
            ["inspect-attention", "--checkpoint", str(bad), "--vocab",
             str(corpus_dir / "vocab.txt"), "--text", "topic00 fill00", "--out", str(out)],
        ]
    name = key.split("/")[-1]
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 4, argv[0]
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("numeric error: checkpoint "), (argv[0], err)
        assert f"tensor {name} holds a non-finite value" in err, (argv[0], err)
        assert not out.exists() and not metrics.exists(), argv[0]


def test_eval_ppl_refuses_plans_for_another_vocabulary(trained, tmp_path, capsys, monkeypatch):
    # plans made from another corpus name other vocabulary sizes in their
    # header: refused before any encoder pass, as train --resume refuses them
    _, ck, _ = trained
    spec = CollocationSpec(n_topics=4, phrases_per_topic=3)
    stream, inventory, _ = collocation_corpus(60, seed=9, spec=spec)
    write_corpus(stream, tmp_path / "corpus.txt")
    FineVocab.from_subwords(inventory).save(tmp_path / "vocab.txt")
    assert main(["extract-lexicon", "--corpus", str(tmp_path / "corpus.txt"), "--k2", "10",
                 "--k3", "4", "--min-count", "3", "--out", str(tmp_path / "lex.tsv")]) == 0
    foreign = run_pipeline(tmp_path, tmp_path)
    prov, _ = read_plan_file(foreign)
    _, cfg, _, _ = load_checkpoint(ck)
    theirs = (prov["fine_vocab_size"], prov["ngram_vocab_size"])
    ours = (cfg.fine_vocab_size, cfg.ngram_vocab_size)
    assert theirs[0] < ours[0] and theirs[1] < ours[1]
    monkeypatch.setattr("ngramlm.cli.eval_ngram_ppl", lambda *a: pytest.fail("plans evaluated"))
    capsys.readouterr()
    assert main(["eval-ppl", "--plans", str(foreign), "--checkpoint", str(ck)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("data error: ")
    assert (f"fine {theirs[0]} and n-gram {theirs[1]}" in err
            and f"fine {ours[0]} and n-gram {ours[1]}" in err), err


def flipped(data: bytes, offset: int, mask: int) -> bytes:
    return data[:offset] + bytes([data[offset] ^ mask]) + data[offset + 1:]


def assert_exit_codes_only(path, damaged, commands):
    """Each of ``damaged`` written to ``path`` and run through each command:
    every failure leaves ``main`` as an exit code, never as an exception."""
    for k, data in enumerate(damaged):
        path.write_bytes(data)
        for argv in commands:
            try:
                code = main(argv)
            except Exception as e:
                pytest.fail(f"case {k}: {type(e).__name__} escaped {argv[0]}: {e}")
            assert code in (0, 2, 3, 4), (k, argv[0], code)


def central_directory_edit(data: bytes, offset: int, value: bytes) -> bytes:
    """``data`` with ``value`` written at ``offset`` in its first central-directory entry."""
    at = data.index(b"PK\x01\x02") + offset
    return data[:at] + value + data[at + len(value):]


@pytest.mark.parametrize("offset, value", [(8, b"\x01"), (10, b"\x63\x00"), (6, b"\xff")],
                         ids=["encrypted-flag", "compression-method-0x63", "version-needed-0xff"])
def test_unsupported_zip_entry_is_a_data_error(trained, tmp_path, capsys, offset, value):
    plans, ck, _ = trained
    bad = tmp_path / "bad.npz"
    bad.write_bytes(central_directory_edit(ck.read_bytes(), offset, value))
    capsys.readouterr()
    assert main(["eval-ppl", "--plans", str(plans), "--checkpoint", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("data error: cannot read checkpoint")


def test_damaged_checkpoint_leaves_main_as_an_exit_code(trained, tmp_path):
    # byte flips, most in the zip and array headers, and cuts of a checkpoint,
    # through each command that reads one
    plans, ck, _ = trained
    few = tmp_path / "few.bin"  # two plans keep each command short
    prov, stored = read_plan_file(plans)
    write_plan_file(few, stored[:2], prov)
    good = ck.read_bytes()
    headers = sorted({m.start() + i for sig, size in ((b"PK\x03\x04", 160), (b"PK\x01\x02", 46),
                                                      (b"PK\x05\x06", 22))
                      for m in re.finditer(re.escape(sig), good) for i in range(size)})
    rnd = random.Random(7)
    offsets = rnd.sample(headers, 60) + rnd.sample(range(len(good)), 20)
    damaged = [flipped(good, i, rnd.randrange(1, 256)) for i in offsets]
    damaged += [good[: rnd.randrange(len(good))] for _ in range(10)]
    bad = tmp_path / "bad.npz"
    assert_exit_codes_only(bad, damaged, [
        ["eval-ppl", "--plans", str(few), "--checkpoint", str(bad)],
        ["export", "--checkpoint", str(bad), "--out", str(tmp_path / "export.npz")],
        TRAIN_SMALL + ["--plans", str(few), "--steps", "3", "--resume", str(bad),
                       "--out", str(tmp_path / "resumed.npz")],
    ])


def test_damaged_lexicon_leaves_main_as_an_exit_code(corpus_dir, tmp_path):
    # byte flips and cuts of a lexicon through each command that reads one
    good = (corpus_dir / "lex.tsv").read_bytes()
    rnd = random.Random(11)
    damaged = [flipped(good, rnd.randrange(len(good)), rnd.randrange(1, 256)) for _ in range(150)]
    damaged += [good[: rnd.randrange(len(good))] for _ in range(30)]
    src = tmp_path / "in.txt"
    src.write_text("topic00 t00p0a t00p0b fill01\n", encoding="utf-8")
    lex = tmp_path / "lex.tsv"
    assert_exit_codes_only(lex, damaged, [
        ["segment", "--lexicon", str(lex), "--input", str(src)],
        ["make-masks", "--corpus", str(corpus_dir / "corpus.txt"), "--lexicon", str(lex),
         "--vocab", str(corpus_dir / "vocab.txt"), "--objective", "comprehensive",
         "--out", str(tmp_path / "plans.bin")],
    ])


def test_train_refuses_a_negative_seed(corpus_dir, tmp_path, capsys):
    # make-masks reduces any integer seed mod 2**64; train does not
    plans = run_pipeline(corpus_dir, tmp_path, seed=-1)
    capsys.readouterr()
    assert main(TRAIN_SMALL + ["--plans", str(plans), "--seed", "-1",
                               "--out", str(tmp_path / "model.npz")]) == 2
    assert capsys.readouterr().err.startswith("error: seed must be non-negative")
    assert not (tmp_path / "model.npz").exists()


@pytest.mark.parametrize("command, args", [
    ("train", ["--hidden", "0", "--heads", "1"]),
    ("train", ["--ffn", "-3"]),
    ("train", ["--max-positions", "0"]),
    ("train", ["--layers", "-1"]),
    ("train", ["--generator-layers", "-1"]),
    ("train", ["--warmup", "-5"]),
    ("train", ["--checkpoint-every", "-1"]),
    ("make-masks", ["--max-positions", "0"]),
    ("train", ["--lr", "nan", "--steps", "1"]),
    ("train", ["--lr", "inf", "--steps", "1"]),
    ("train", ["--rtd-weight", "-1"]),
    ("make-masks", ["--rate", "1.5", "--max-positions", "2"]),
    ("make-masks", ["--rate", "nan", "--max-positions", "2"]),
    ("make-masks", ["--rate", "0", "--max-positions", "2"]),
], ids=["hidden-0", "ffn-negative", "max-positions-0", "layers-negative",
        "generator-layers-negative", "warmup-negative", "checkpoint-every-negative",
        "make-masks-max-positions-0", "lr-nan", "lr-inf", "rtd-weight-negative",
        "rate-above-1", "rate-nan", "rate-0"])
def test_bad_sizes_are_usage_errors(corpus_dir, tmp_path, capsys, command, args):
    out = tmp_path / "out.bin"
    if command == "train":
        argv = TRAIN_SMALL + ["--plans", str(run_pipeline(corpus_dir, tmp_path))]
    else:
        argv = ["make-masks", "--corpus", str(corpus_dir / "corpus.txt"),
                "--lexicon", str(corpus_dir / "lex.tsv"), "--vocab", str(corpus_dir / "vocab.txt"),
                "--objective", "explicit"]
    capsys.readouterr()
    assert main(argv + args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("plan_objective, objective", [
    ("explicit", "relation"),
    ("comprehensive", "explicit"),
])
def test_train_refuses_plans_of_another_objective(corpus_dir, tmp_path, capsys,
                                                  plan_objective, objective):
    plans = run_pipeline(corpus_dir, tmp_path, objective=plan_objective)
    capsys.readouterr()
    assert main(TRAIN_SMALL + ["--plans", str(plans), "--objective", objective,
                               "--out", str(tmp_path / "model.npz")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "model.npz").exists()


def test_relation_layout_plan_file_is_refused(trained, tmp_path, capsys):
    # plans whose slots already hold an identity, as relation_from_comprehensive
    # fills them: the generator would see no [M] at a slot, and evaluation
    # would score filled slots
    plans_path, ck, _ = trained
    prov, plans = read_plan_file(plans_path)
    filled = tmp_path / "filled.bin"
    write_plan_file(filled,
                    relation_from_comprehensive(plans, plans.gather("coarse")[0][:, 1])[0], prov)
    out, metrics = tmp_path / "model.npz", tmp_path / "metrics.jsonl"
    capsys.readouterr()
    assert main(TRAIN_SMALL + ["--plans", str(filled), "--objective", "relation",
                               "--metrics", str(metrics), "--out", str(out)]) == 2
    assert "relation training needs comprehensive-layout plans" in capsys.readouterr().err
    assert not out.exists() and not metrics.exists()
    assert main(["eval-ppl", "--plans", str(filled), "--checkpoint", str(ck)]) == 2
    assert "evaluation takes no relation-layout plans" in capsys.readouterr().err


def test_resume_refuses_a_mismatched_checkpoint(corpus_dir, tmp_path):
    plans = run_pipeline(corpus_dir, tmp_path, objective="comprehensive")
    ck = tmp_path / "model.npz"
    base = ["train", "--plans", str(plans), "--layers", "1", "--heads", "2",
            "--steps", "2", "--batch-size", "2"]
    assert main(base + ["--hidden", "16", "--out", str(ck)]) == 0
    resume = ["--resume", str(ck), "--out", str(tmp_path / "resumed.npz")]
    assert main(base + ["--hidden", "16", "--steps", "3"] + resume) == 0
    assert main(base + ["--hidden", "32"] + resume) == 2
    assert main(base + ["--hidden", "16", "--objective", "relation"] + resume) == 2


@pytest.mark.parametrize("args, saved, field", [
    (["--batch-size", "3"], None, "batch_size"),
    (["--lr", "0.5"], None, "lr"),
    (["--warmup", "1"], None, "warmup_steps"),
    (["--seed", "7"], None, "seed"),
    (["--rtd-weight", "0.5"], None, "rtd_weight"),
    ([], {"objective": 1}, "objective"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_resume_refuses_a_changed_training_setting(trained, tmp_path, capsys, args, saved, field):
    # every training setting but the step count and the checkpoint interval
    # must match the checkpoint's; a setting with no flag is changed in the
    # checkpoint's saved train_config instead
    plans, ck, _ = trained
    if saved is not None:
        rewrite_store(ck, tmp_path / "saved.npz",
                      _extra(lambda e: e["train_config"].update(saved)))
        ck = tmp_path / "saved.npz"
    out = tmp_path / "resumed.npz"
    capsys.readouterr()
    assert main(TRAIN_SMALL + ["--plans", str(plans), "--steps", "3", "--resume", str(ck),
                               "--out", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f": {field} " in err and err.count("(now ") == 1, err
    assert not out.exists()


def test_unchanged_resume_equals_an_uninterrupted_run(corpus_dir, tmp_path, monkeypatch):
    # a four-step relation run, and the same command resumed from its
    # step-2 checkpoint: byte-identical final checkpoints and metrics
    plans = run_pipeline(corpus_dir, tmp_path, objective="comprehensive")
    train_module = importlib.import_module("ngramlm.train")
    save = train_module._save_train_checkpoint

    def keep_each(path, params, cfg, tcfg, state, step, *rest):
        save(path, params, cfg, tcfg, state, step, *rest)
        shutil.copyfile(path, tmp_path / f"step-{step}.npz")

    monkeypatch.setattr(train_module, "_save_train_checkpoint", keep_each)
    argv = TRAIN_SMALL + ["--plans", str(plans), "--objective", "relation", "--steps", "4",
                          "--checkpoint-every", "2"]
    full, resumed = tmp_path / "full", tmp_path / "resumed"
    assert main(argv + ["--metrics", f"{full}.jsonl", "--out", f"{full}.npz"]) == 0
    resume = ["--resume", str(tmp_path / "step-2.npz")]
    assert main(argv + resume + ["--metrics", f"{resumed}.jsonl", "--out", f"{resumed}.npz"]) == 0
    assert Path(f"{resumed}.npz").read_bytes() == Path(f"{full}.npz").read_bytes()
    lines = Path(f"{full}.jsonl").read_text().splitlines()
    assert len(lines) == 4 and Path(f"{resumed}.jsonl").read_text().splitlines() == lines[2:]
    # the step count and the checkpoint interval may change on a resume
    assert main(argv + resume + ["--steps", "6", "--checkpoint-every", "3",
                                 "--out", str(tmp_path / "longer.npz")]) == 0


def test_resume_refuses_other_plans(trained, corpus_dir, tmp_path, capsys):
    # the checkpoint records the plan store's sha256: plans made with
    # another seed are refused, naming both digests; the same plans at
    # another path resume
    plans, ck, _ = trained
    want = read_plan_file(plans)[1].sha256()
    assert load_checkpoint(ck)[2]["plans_sha256"] == want
    other = run_pipeline(corpus_dir, tmp_path, seed=1, objective="comprehensive")
    got = read_plan_file(other)[1].sha256()
    assert got != want
    out = tmp_path / "resumed.npz"
    resume = ["--steps", "3", "--resume", str(ck), "--out", str(out)]
    capsys.readouterr()
    assert main(TRAIN_SMALL + ["--plans", str(other)] + resume) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and want in err and got in err, err
    assert not out.exists()
    copy = tmp_path / "copy" / "plans.bin"
    copy.parent.mkdir()
    shutil.copyfile(plans, copy)
    assert main(TRAIN_SMALL + ["--plans", str(copy)] + resume) == 0
    assert load_checkpoint(out)[2]["plans_sha256"] == want


def test_resume_of_a_checkpoint_without_a_plan_digest_logs_a_note(trained, tmp_path, caplog):
    # a checkpoint older than the digest resumes, with one logged note
    plans, ck, _ = trained
    old = tmp_path / "old.npz"
    rewrite_store(ck, old, _extra(lambda e: e.pop("plans_sha256")))
    out = tmp_path / "resumed.npz"
    with caplog.at_level("WARNING", logger="ngramlm.train"):
        assert main(TRAIN_SMALL + ["--plans", str(plans), "--steps", "3", "--resume", str(old),
                                   "--out", str(out)]) == 0
    notes = [r.getMessage() for r in caplog.records if r.name == "ngramlm.train"]
    assert notes == [f"checkpoint {old} has no plan digest"]
    assert load_checkpoint(out)[2]["plans_sha256"] == read_plan_file(plans)[1].sha256()


def test_resume_that_grows_the_steps_keeps_the_checkpoints_warmup(corpus_dir, tmp_path, capsys):
    # --warmup defaults to min(20, steps // 10), so a resume without it
    # takes the checkpoint's warmup; a --warmup that differs is refused
    plans = run_pipeline(corpus_dir, tmp_path)
    argv = TRAIN_SMALL + ["--plans", str(plans)]
    ck = tmp_path / "model.npz"
    assert main(argv + ["--steps", "10", "--out", str(ck)]) == 0
    metrics = tmp_path / "resumed.jsonl"
    resume = ["--steps", "20", "--resume", str(ck), "--out", str(tmp_path / "resumed.npz")]
    assert main(argv + resume + ["--metrics", str(metrics)]) == 0
    assert [json.loads(line)["step"] for line in metrics.read_text().splitlines()] == list(
        range(10, 20))
    assert load_checkpoint(tmp_path / "resumed.npz")[2]["train_config"]["warmup_steps"] == 1
    capsys.readouterr()
    assert main(argv + resume + ["--warmup", "2"]) == 2
    assert "warmup_steps 1 (now 2)" in capsys.readouterr().err


def test_resume_reads_its_checkpoint_once_and_builds_no_parameters(trained, tmp_path,
                                                                   monkeypatch):
    # the command reads the checkpoint once, for the warmup and for train(),
    # and trains the checkpoint's tensors without initialising any of its own
    plans, ck, _ = trained
    cli_module = importlib.import_module("ngramlm.cli")
    train_module = importlib.import_module("ngramlm.train")
    calls = []
    for module in (cli_module, train_module):
        load = module.load_checkpoint
        monkeypatch.setattr(module, "load_checkpoint",
                            lambda path, load=load: calls.append(("load", path)) or load(path))
    init = cli_module.init_params
    monkeypatch.setattr(cli_module, "init_params",
                        lambda *args, **kw: calls.append("init") or init(*args, **kw))
    out = tmp_path / "resumed.npz"
    assert main(TRAIN_SMALL + ["--plans", str(plans), "--steps", "3", "--resume", str(ck),
                               "--out", str(out)]) == 0
    assert calls == [("load", str(ck))]
    assert load_checkpoint(out)[2]["step"] == 3


@pytest.mark.parametrize("command, flag", [
    ("make-masks", "--out"), ("make-masks", "--dump-json"), ("train", "--out"),
    ("train", "--metrics"), ("export", "--out"), ("extract-lexicon", "--out"),
    ("inspect-attention", "--out"),
])
def test_output_in_a_missing_directory_is_a_data_error(trained, corpus_dir, tmp_path, capsys,
                                                       command, flag):
    plans, ck, _ = trained
    corpus, lexicon, vocab = (str(corpus_dir / f) for f in ("corpus.txt", "lex.tsv", "vocab.txt"))
    inputs = {
        "extract-lexicon": ["--corpus", corpus],
        "make-masks": ["--corpus", corpus, "--lexicon", lexicon, "--vocab", vocab],
        "train": TRAIN_SMALL[1:] + ["--plans", str(plans)],
        "export": ["--checkpoint", str(ck)],
        "inspect-attention": ["--checkpoint", str(ck), "--vocab", vocab,
                              "--text", "topic00 t00p0a t00p0b fill00"],
    }
    missing = tmp_path / "missing" / "output"
    outputs = {"--out": str(tmp_path / "output"), flag: str(missing)}
    if command == "train":
        outputs.setdefault("--metrics", str(tmp_path / "metrics.jsonl"))
    capsys.readouterr()
    assert main([command, *inputs[command], *(x for pair in outputs.items() for x in pair)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(missing) in err and "Traceback" not in err, err
    # a checkpoint path in a missing directory is refused before the first
    # step, and a dump path before the plan file is written
    assert not (tmp_path / "metrics.jsonl").exists()
    if flag != "--out":
        assert not (tmp_path / "output").exists()


@pytest.mark.parametrize("command, first, second", [
    ("make-masks", "--out", "--dump-json"), ("train", "--plans", "--out"),
    ("train", "--out", "--metrics"), ("train", "--resume", "--out"),
    ("extract-lexicon", "--corpus", "--out"), ("export", "--checkpoint", "--out"),
    ("inspect-attention", "--vocab", "--out"),
])
def test_an_output_that_names_an_input_or_output_is_a_usage_error(trained, corpus_dir, tmp_path,
                                                                   capsys, command, first,
                                                                   second):
    # the two flags name one file, the second through another spelling of
    # its path; refused before any file is read, so every input keeps its
    # bytes and no output is written
    plans, ck, _ = trained
    for src in (corpus_dir / "corpus.txt", corpus_dir / "lex.tsv", corpus_dir / "vocab.txt",
                plans, ck):
        shutil.copy(src, tmp_path / src.name)
    paths = {"--corpus": "corpus.txt", "--lexicon": "lex.tsv", "--vocab": "vocab.txt",
             "--plans": "plans.bin", "--checkpoint": "model.npz", "--resume": "model.npz",
             "--out": "output", "--dump-json": "dump.jsonl", "--metrics": "metrics.jsonl"}
    flags = {
        "make-masks": ["--corpus", "--lexicon", "--vocab", "--out"],
        "train": ["--plans", "--out"],
        "extract-lexicon": ["--corpus", "--out"],
        "export": ["--checkpoint", "--out"],
        "inspect-attention": ["--checkpoint", "--vocab", "--out"],
    }[command]
    argv = TRAIN_SMALL if command == "train" else [command]
    if command == "inspect-attention":
        argv = argv + ["--text", "topic00 fill00"]
    for flag in dict.fromkeys(flags + [first, second]):
        name = paths[first] if flag == second else paths[flag]
        argv = argv + [flag, os.path.join(tmp_path, "." if flag == second else "", name)]
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {second} ") and f"as {first}," in err, err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("extra", [20, -5])
def test_inspect_attention_refuses_a_vocabulary_of_another_size(trained, corpus_dir, tmp_path,
                                                                capsys, extra):
    # entries added after the reserved symbols move every subword's id, past
    # the checkpoint's fine ids into its n-gram rows; no CSV is written
    _, ck, _ = trained
    tokens = FineVocab.load(corpus_dir / "vocab.txt").tokens
    if extra > 0:
        tokens = [f"extra{i:02d}" for i in range(extra)] + tokens
    vocab = FineVocab.from_subwords(tokens[:len(tokens) + min(extra, 0)])
    vocab.save(tmp_path / "vocab.txt")
    csv = tmp_path / "attn.csv"
    capsys.readouterr()
    assert main(["inspect-attention", "--checkpoint", str(ck), "--vocab",
                 str(tmp_path / "vocab.txt"), "--text", "topic04 t04p1a t04p1b t04p2a",
                 "--out", str(csv)]) == 3
    fine = load_checkpoint(ck)[1].fine_vocab_size
    assert capsys.readouterr().err == (f"data error: {tmp_path / 'vocab.txt'} holds {len(vocab)} "
                                       f"subwords, but {ck} was trained on {fine}\n")
    assert len(vocab) == fine + extra and not csv.exists()


def test_train_resume_refuses_an_exported_checkpoint_by_name(trained, tmp_path, capsys):
    plans, _, exported = trained
    out = tmp_path / "resumed.npz"
    capsys.readouterr()
    assert main(TRAIN_SMALL + ["--plans", str(plans), "--steps", "3", "--resume", str(exported),
                               "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"data error: {exported}: an exported checkpoint has no "
                                       "heads, generator or Adam moments to resume\n")
    assert not out.exists()


def test_make_masks_records_what_it_skipped(corpus_dir, tmp_path, capsys):
    # the provenance header and the summary line carry make_plans' counts
    stream = ingest([corpus_dir / "corpus.txt"])
    lex = NGramLexicon.load(corpus_dir / "lex.tsv")
    jv = build_joint_vocab(FineVocab.load(corpus_dir / "vocab.txt"), lex)
    max_positions = sorted(map(len, stream.documents))[len(stream) // 2]
    want = make_plans(stream, lex, jv, Objective.EXPLICIT, seed=0, ngram_only=True,
                      max_positions=max_positions)
    c = want.counts
    assert c["skipped_over_max_positions"] > 0
    out = tmp_path / "plans.bin"
    capsys.readouterr()
    assert main(["make-masks", "--corpus", str(corpus_dir / "corpus.txt"),
                 "--lexicon", str(corpus_dir / "lex.tsv"), "--vocab", str(corpus_dir / "vocab.txt"),
                 "--ngram-only", "--max-positions", str(max_positions), "--out", str(out)]) == 0
    prov, got = read_plan_file(out)
    assert got == want and prov["plan_counts"] == c
    assert capsys.readouterr().out == (
        f"wrote {len(want)} plans to {out}; skipped {c['skipped_no_segment']} documents with "
        f"no segment, {c['skipped_over_max_positions']} over max positions and "
        f"{c['skipped_no_candidate']} with no n-gram candidate; "
        f"{c['fallback_segments']} masked segments fell back to contiguous\n")


def test_console_entry_point():
    for module in ("ngramlm.cli", "ngramlm"):
        r = subprocess.run([sys.executable, "-m", module, "--version"],
                           capture_output=True, text=True, env=SRC_ENV)
        assert r.returncode == 0
        assert r.stdout.strip() == ngramlm.__version__


COLD_START = """
import sys
from ngramlm.cli import main
from ngramlm.model import ModelConfig, encode, init_params

corpus, vocab, out = sys.argv[1:]
assert main(["extract-lexicon", "--corpus", corpus, "--k2", "24", "--min-count", "3",
             "--out", out + "/lex.tsv"]) == 0
assert main(["make-masks", "--corpus", corpus, "--lexicon", out + "/lex.tsv",
             "--vocab", vocab, "--out", out + "/plans.bin"]) == 0
assert "scipy.special" not in sys.modules, "loaded before the model ran"
cfg = ModelConfig(layers=1, hidden=8, heads=2, ffn=16, max_positions=8,
                  fine_vocab_size=5, ngram_vocab_size=1)
encode(init_params(cfg, 0), [1, 2], [1, 2], None, cfg)
assert "scipy.special" in sys.modules, "not loaded by the model"
"""


def test_scipy_loads_only_when_the_model_runs(corpus_dir, tmp_path):
    # the data-side commands never run the model, so they skip the
    # scipy.special import that the GELU's erf needs
    r = subprocess.run([sys.executable, "-c", COLD_START, str(corpus_dir / "corpus.txt"),
                        str(corpus_dir / "vocab.txt"), str(tmp_path)],
                       capture_output=True, text=True, env=SRC_ENV)
    assert r.returncode == 0, r.stderr
