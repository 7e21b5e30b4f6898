"""Where the traced run wraps the package, and the per-layer metrics it reports.

Each layer's public function is wrapped at the name its caller looks it
up by: `train()` finds `encode_document` as `sentattn.trainer.encode_document`,
the benchmark finds `load_corpus` as `sentattn.corpus.load_corpus`, and so
on. Metric names are `<module>.<function>.<stat>`, by the defining module.
"""

from __future__ import annotations

import os

import numpy as np

from .tracing import Tracer


def _count_segment(counters, args, kwargs, sentences):
    counters["segment.chars"] += len(args[0])
    if sentences:
        counters["segment.kept_chars"] += sentences[-1].end


def _count_tokenize(counters, args, kwargs, ids):
    counters["tokenize.tokens"] += len(ids) - 2  # without CLS and SEP


def _count_encode(counters, args, kwargs, result):
    counters["encode_document.sentences"] += len(args[0])


def _count_backward(counters, args, kwargs, grads):
    E = grads.get("E") if isinstance(grads, dict) else None
    if isinstance(E, np.ndarray) and E.ndim == 2:
        counters["encoder_backward.rows_touched"] += np.count_nonzero(E.any(axis=1))
        counters["encoder_backward.rows"] += E.shape[0]


def _count_save(counters, args, kwargs, result):
    counters["checkpoint.bytes"] = os.path.getsize(args[1])


# (span name, lookup site, counter)
SITES = (
    ("trainer.train", "sentattn.trainer:train", None),
    ("trainer.evaluate", "sentattn.trainer:evaluate", None),
    ("trainer.predict_records", "sentattn.trainer:predict_records", None),
    ("trainer.prepare_documents", "sentattn.trainer:prepare_documents", None),
    ("trainer.Adam.step", "sentattn.trainer:Adam.step", None),
    ("corpus.load_corpus", "sentattn.trainer:load_corpus", None),
    ("corpus.load_corpus", "sentattn.corpus:load_corpus", None),
    ("segmenter.segment", "sentattn.trainer:segment", _count_segment),
    ("segmenter.tokenize", "sentattn.trainer:tokenize", _count_tokenize),
    ("encoder.encode_document", "sentattn.trainer:encode_document", _count_encode),
    ("encoder.encoder_backward", "sentattn.trainer:encoder_backward", _count_backward),
    ("head.head_forward", "sentattn.trainer:head_forward", None),
    ("head.head_backward", "sentattn.trainer:head_backward", None),
    ("head.bce_loss", "sentattn.trainer:bce_loss", None),
    ("checkpoint.save_checkpoint", "sentattn.checkpoint:save_checkpoint", _count_save),
    ("checkpoint.load_checkpoint", "sentattn.checkpoint:load_checkpoint", None),
)

# name -> (unit, better)
PER_LAYER = {
    "trainer.Adam.step.s": ("s", "lower"),
    "trainer.Adam.step.calls": ("count", "lower"),
    "encoder.encoder_backward.s": ("s", "lower"),
    "encoder.encoder_backward.rows_touched_frac": ("frac", "higher"),
    "trainer.train.self_s": ("s", "lower"),
    "encoder.encode_document.s": ("s", "lower"),
    "encoder.encode_document.sentences": ("count", "lower"),
    "segmenter.segment.s": ("s", "lower"),
    "segmenter.segment.chars": ("count", "lower"),
    "segmenter.segment.kept_char_frac": ("frac", "higher"),
    "segmenter.tokenize.s": ("s", "lower"),
    "segmenter.tokenize.tokens": ("count", "lower"),
    "head.head_forward.s": ("s", "lower"),
    "head.head_backward.s": ("s", "lower"),
    "head.bce_loss.s": ("s", "lower"),
    "checkpoint.save_checkpoint.s": ("s", "lower"),
    "checkpoint.load_checkpoint.s": ("s", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "corpus.load_corpus.s": ("s", "lower"),
    "trainer.prepare_documents.s": ("s", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "train_docs_per_s": ("docs/s", "higher", 0.25),
    "time_to_quality_s": ("s", "lower", 0.25),
    "eval_docs_per_s": ("docs/s", "higher", 0.25),
    "predict_p50_ms": ("ms", "lower", 0.25),
    "predict_p99_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


def instrument(tracer: Tracer) -> None:
    for name, site, count in SITES:
        tracer.wrap(name, site, count)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric; a layer that was never called reads 0."""
    spans, c = tracer.summary(), tracer.counters

    def stat(name: str, key: str) -> float:
        return float(spans.get(name, {}).get(key, 0.0))

    return {
        "trainer.Adam.step.s": stat("trainer.Adam.step", "s"),
        "trainer.Adam.step.calls": stat("trainer.Adam.step", "calls"),
        "encoder.encoder_backward.s": stat("encoder.encoder_backward", "s"),
        "encoder.encoder_backward.rows_touched_frac":
            _ratio(c["encoder_backward.rows_touched"], c["encoder_backward.rows"]),
        "trainer.train.self_s": stat("trainer.train", "self_s"),
        "encoder.encode_document.s": stat("encoder.encode_document", "s"),
        "encoder.encode_document.sentences": c["encode_document.sentences"],
        "segmenter.segment.s": stat("segmenter.segment", "s"),
        "segmenter.segment.chars": c["segment.chars"],
        "segmenter.segment.kept_char_frac": _ratio(c["segment.kept_chars"], c["segment.chars"]),
        "segmenter.tokenize.s": stat("segmenter.tokenize", "s"),
        "segmenter.tokenize.tokens": c["tokenize.tokens"],
        "head.head_forward.s": stat("head.head_forward", "s"),
        "head.head_backward.s": stat("head.head_backward", "s"),
        "head.bce_loss.s": stat("head.bce_loss", "s"),
        "checkpoint.save_checkpoint.s": stat("checkpoint.save_checkpoint", "s"),
        "checkpoint.load_checkpoint.s": stat("checkpoint.load_checkpoint", "s"),
        "checkpoint.bytes": c["checkpoint.bytes"],
        "corpus.load_corpus.s": stat("corpus.load_corpus", "s"),
        "trainer.prepare_documents.s": stat("trainer.prepare_documents", "s"),
        "trace_overhead_frac": overhead_frac,
    }
