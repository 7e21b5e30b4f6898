"""A frozen copy of the package as the benchmark was defined against it.

These modules are `src/sentattn` at git tree c5ee2a00d2a4a2cf2291ff0a7b22aa0326de6ed6,
byte for byte but for this docstring, without `cli`, `synth` and
`__main__`. The benchmark runs each call it times twice, once on the
package and once on this copy with the same inputs, right after each other,
and reports the package's time relative to the copy's (see
`perfbench/workloads.py`). A shared machine's slow stretches slow both
alike; a change to the package does not touch this copy and shows in full.
Never edit these files: every figure the benchmark has reported is relative
to them.
"""

from .corpus import (
    DatasetSplit,
    LabelVocabulary,
    MalformedIpc,
    PatentRecord,
    build_vocabulary,
    encode_labels,
    label_stats,
    load_corpus,
    parse_ipc,
    split_dataset,
)
from .encoder import (
    MEANPOOL,
    MINITRANSFORMER,
    ModelDims,
    encode_document,
    encode_sentence,
    encoder_backward,
    init_encoder,
)
from .head import (
    HeadParams,
    attention_forward,
    bce_loss,
    head_backward,
    head_forward,
    init_head,
    pool_labels,
    predict,
    score,
)
from .metrics import ConfusionCounts, macro_scores, micro_scores
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .segmenter import Sentence, segment, tokenize
from .trainer import TrainConfig, evaluate, grad_check, train

__version__ = "0.1.0"

__all__ = [
    "Checkpoint", "ConfusionCounts", "DatasetSplit", "HeadParams",
    "LabelVocabulary", "MalformedIpc", "MEANPOOL", "MINITRANSFORMER",
    "ModelDims", "PatentRecord", "Sentence", "TrainConfig",
    "attention_forward", "bce_loss", "build_vocabulary", "encode_document",
    "encode_labels", "encode_sentence", "encoder_backward", "evaluate",
    "grad_check", "head_backward", "head_forward", "init_encoder",
    "init_head", "label_stats", "load_checkpoint", "load_corpus",
    "macro_scores", "micro_scores", "parse_ipc", "pool_labels", "predict",
    "save_checkpoint", "score", "segment", "split_dataset", "tokenize",
    "train",
]
