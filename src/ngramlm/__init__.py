"""N-gram lexicon extraction, maximum-matching segmentation and n-gram
masked language model pretraining at desk scale."""

from .corpus import (
    CountTables,
    FineVocab,
    TokenizerConfig,
    WordStream,
    count_ngrams,
    ingest,
    subword_tokenize,
)
from .lexicon import (
    JointVocab,
    NGramLexicon,
    ScoredNGram,
    build_joint_vocab,
    extract_lexicon,
    t_statistic,
)
from .maskplan import (
    Objective,
    PlanStore,
    RngState,
    build_attention_mask,
    build_plan,
    plan_relation,
    sample_mask,
    segment_example,
)
from .model import (
    ModelConfig,
    encode,
    export_finetune_weights,
    head_logits,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .pipeline import make_plans
from .segmenter import BoundarySeq, enumerate_paths, extract_boundaries
from .train import (
    LossReport,
    TrainConfig,
    eval_ngram_ppl,
    generator_forward_and_sample,
    train,
)

__version__ = "0.1.0"
