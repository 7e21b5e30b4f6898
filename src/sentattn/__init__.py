"""Long-document multi-label classification with label-wise sentence attention.

Pipeline: segment a document into sentences, encode each sentence into an
h-dimensional CLS vector, stack them as the columns of the document matrix
D, attend over sentences per label, and score each label independently.
"""

from .corpus import (
    LabelVocabulary,
    MalformedIpc,
    PatentRecord,
    build_vocabulary,
    encode_labels,
    load_corpus,
    parse_ipc,
    split_of,
)
from .encoder import (
    MEANPOOL,
    MINITRANSFORMER,
    DocLayout,
    ModelDims,
    encode_document,
    encoder_backward,
    init_encoder,
)
from .head import HeadParams, bce_loss, head_backward, head_forward, init_head, predict
from .metrics import ConfusionCounts, macro_scores, micro_scores
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .segmenter import Sentence, segment
from .trainer import TrainConfig, evaluate, grad_check, train

__version__ = "0.1.0"

__all__ = [
    "Checkpoint", "ConfusionCounts", "DocLayout", "HeadParams",
    "LabelVocabulary", "MalformedIpc", "MEANPOOL", "MINITRANSFORMER",
    "ModelDims", "PatentRecord", "Sentence", "TrainConfig",
    "bce_loss", "build_vocabulary", "encode_document", "encode_labels",
    "encoder_backward", "evaluate", "grad_check", "head_backward",
    "head_forward", "init_encoder", "init_head",
    "load_checkpoint", "load_corpus", "macro_scores", "micro_scores",
    "parse_ipc", "predict", "save_checkpoint", "segment", "split_of",
    "train",
]
