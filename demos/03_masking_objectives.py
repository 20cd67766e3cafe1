"""The four masking objectives on one sentence, side by side.

Builds the classic six-word layout — segments [x1][x2 x3][x4][x5][x6]
with segments 2 and 4 masked — and prints each plan's context sequence,
query symbols, targets and the length-hiding attention mask.

Run:  python3 demos/03_masking_objectives.py
"""

import numpy as np

from ngramlm import (
    FineVocab,
    Objective,
    build_attention_mask,
    build_joint_vocab,
    build_plan,
)
from ngramlm.lexicon import NGramLexicon, ScoredNGram
from ngramlm.maskplan import relation_from_comprehensive, segment_example

words = tuple(f"x{i}" for i in range(1, 7))
vocab = FineVocab.from_subwords(words)
lex = NGramLexicon({2: [ScoredNGram(("x2", "x3"), 2, 5.0, 9)]})
jv = build_joint_vocab(vocab, lex)
ex = segment_example(words, lex, vocab)
masked = (2, 4)


def name(jid):
    kind, surf = jv.surface(jid)
    return surf if kind == "fine" else "<" + " ".join(surf) + ">"


def show(title, plan, rtd_labels=None):
    T, ids, positions = plan.T, plan.ids.tolist(), plan.positions.tolist()
    print(f"\n{title}")
    print("  context:", " ".join(name(i) for i in ids[:T]))
    if plan.Q:
        print("  queries:", " ".join(name(i) for i in ids[T:]),
              "at positions", tuple(positions[T:]))
    if len(plan.coarse):
        print("  coarse targets:", [(s, name(y)) for s, y in plan.coarse.tolist()])
    if len(plan.fine):
        print("  fine targets:  ", [(i, name(x)) for i, x in plan.fine.tolist()])
    if rtd_labels is not None:
        print("  rtd labels:    ", tuple(rtd_labels.tolist()), "(1 = original)")


print("sentence:", " ".join(words))
print("segments:", [" ".join(s) for s in ex.boundaries.segments()],
      "masked:", masked)

show("1. contiguous: one [M] per token, token targets",
     build_plan(Objective.CONTIGUOUS, ex, masked, jv))
show("2. explicit: one [M] per segment, joint-identity targets",
     build_plan(Objective.EXPLICIT, ex, masked, jv))
comp = build_plan(Objective.COMPREHENSIVE, ex, masked, jv)
show("3. comprehensive: explicit layout + [Mi] queries at the slot position",
     comp)
wrong = [vocab.index["x6"], vocab.index["x5"]]
# training fills the comprehensive plan's slots and derives the
# replaced-token labels in one step
filled, rtd_labels = relation_from_comprehensive(comp.store, wrong)
show("4. relation: slots filled with sampled identities, detect replacements",
     filled[0], rtd_labels)

print("\nlength-hiding attention mask for the comprehensive plan")
print("(rows attend to columns; '.' allowed, 'x' forbidden):")
m = build_attention_mask(comp)
labels = [name(i) for i in comp.ids.tolist()]
width = max(len(l) for l in labels)
print(" " * (width + 2) + " ".join(f"{l:>{width}}" for l in labels))
for label, row in zip(labels, m):
    cells = " ".join(f"{'.' if v == 0 else 'x':>{width}}" for v in row)
    print(f"{label:>{width}}  {cells}")
print("\ncontext rows never see the queries, so the number of [Mi] symbols")
print("— the n-gram's length — cannot leak into context representations.")
assert not np.isfinite(m[:comp.T, comp.T:]).any()
