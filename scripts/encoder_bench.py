#!/usr/bin/env python3
"""Time each encoder's passes at four document shapes, and a 16-document training step at two.

Each shape is one seeded synthetic document: one token-id array and its
sentence lengths, as tokenization hands them over. Both encoder kinds run on
it with seeded float32 parameters and the document's layout built
beforehand, as preparing a document builds it once for every epoch; the
layout build is timed on its own. Per shape and kind it times the encoder's
forward and backward pass over the document alone (a one-document batch,
its BatchLayout built inside the timed call, as `predict_records` builds
it), and that forward followed by the head's (`document_forward_us`), which
is what scoring one request costs once it is prepared. At the `bench` and
`longdoc` shapes it also times one training step over a batch of 16 such
documents: the forward pass, the BCE loss and the backward pass, which
adds the gradients into the optimizer's sums, reported per document
(`batch16_step_us`).
Each round times every shape and kind in turn, ten calls in a row. Times
are in microseconds: median and quartiles over about --repeats calls.

* bench: the train-meanpool benchmark's documents: 32 sentences of 5-13
  tokens over a 60-word vocabulary, at the default dims.
* longdoc: the longdoc benchmark's: 128 sentences of 5-20 tokens over the
  same vocabulary, at its small dims (h=32, 4096 buckets, t_max=32, c=8).
* zipf-k128: 128 sentences of 30 tokens, ids Zipf-distributed over the
  32,768 buckets of the default dims.
* worst: 128 sentences of t_max = 64 tokens, ids uniform over the 32,768
  buckets (about 7,000 distinct ids).

Usage: python scripts/encoder_bench.py [--repeats N] [--tiny] [--out PATH] [--side before|after]
"""

import _bench  # pins BLAS to one thread, so before numpy
import sys
from time import perf_counter

import numpy as np

from sentattn.encoder import (ENCODER_KINDS, BatchLayout, DocLayout, ModelDims, encode_document,
                              encoder_backward, init_encoder)
from sentattn.head import bce_loss, head_backward, head_forward, init_head
from sentattn.trainer import Adam

DEFAULT_DIMS = ModelDims(h=64, c=50, v_buckets=32768, t_max=64, f=128)
LONGDOC_DIMS = ModelDims(h=32, c=8, v_buckets=4096, t_max=32, f=32)
TINY_DIMS = ModelDims(h=4, c=2, v_buckets=64, t_max=8, f=4)
VOCAB = 60  # distinct filler words in the benchmark corpora
BLOCK = 10  # calls in a row per shape and kind
BATCH = 16  # documents per training step, TrainConfig.batch_size's default
BATCH_SHAPES = ("bench", "longdoc")


def _shapes(tiny: bool) -> dict[str, tuple[ModelDims, int, tuple[int, int], str]]:
    """name -> (dims, k, (shortest, longest) sentence in tokens, id distribution)."""
    shapes = {
        "bench": (DEFAULT_DIMS, 32, (5, 13), "vocab"),
        "longdoc": (LONGDOC_DIMS, 128, (5, 20), "vocab"),
        "zipf-k128": (DEFAULT_DIMS, 128, (30, 30), "zipf"),
        "worst": (DEFAULT_DIMS, 128, (64, 64), "uniform"),
    }
    if tiny:
        return {name: (TINY_DIMS, 3, (3, TINY_DIMS.t_max), ids) for name, (_, _, _, ids) in shapes.items()}
    return shapes


def make_document(dims: ModelDims, k: int, lens: tuple[int, int], ids: str,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """k tokenized sentences (CLS, interior ids from the named distribution, SEP) as ids and lengths."""
    sentences = []
    counts = rng.integers(lens[0], lens[1] + 1, size=k)
    for m in counts:
        if ids == "vocab":
            interior = rng.integers(0, min(VOCAB, dims.v_buckets), size=m - 2)
        elif ids == "zipf":
            interior = (rng.zipf(1.2, size=m - 2) - 1) % dims.v_buckets
        else:
            interior = rng.integers(0, dims.v_buckets, size=m - 2)
        sentences.append(np.array([1, *(4 + interior), 2], dtype=np.int64))
    return np.concatenate(sentences), counts


def _document_forward(layout, params, head):
    """One document's encoder and head forward, as scoring one prepared request runs them."""
    batch = BatchLayout([layout])
    return head_forward(encode_document(batch, params)[0], head, batch.bounds)


def _training_step(layouts, targets, params, head, optimizer) -> float:
    """Forward, BCE, backward and gradient sums over one batch of documents."""
    batch = BatchLayout(layouts)
    D, cache = encode_document(batch, params)
    head_cache = head_forward(D, head, batch.bounds)
    loss = bce_loss(head_cache.logits, targets)
    dD = head_backward(head, head_cache, targets, optimizer.grad)
    encoder_backward(params, cache, dD, optimizer.grad)
    return loss


def time_shapes(documents: dict[str, tuple[ModelDims, list[tuple[np.ndarray, np.ndarray]]]], repeats: int,
                rng: np.random.Generator) -> dict[str, dict]:
    """Per shape: the layout build, each kind's passes over its first document, and a training step.

    Each round times every shape and kind in turn, BLOCK calls in a row, so
    calls run warm, as in an epoch over like documents, while a stretch in
    which the machine runs slower spreads over every shape and kind.
    """
    cases, steps = {}, {}
    for name, (dims, docs) in documents.items():
        layouts = [DocLayout(ids, lens) for ids, lens in docs]
        dD = rng.normal(size=(dims.h, len(docs[0][1]))).astype(np.float32)
        targets = rng.integers(0, 2, size=(len(docs), dims.c)).astype(np.int8)
        for kind in ENCODER_KINDS:
            params, head = init_encoder(kind, dims, rng), init_head(dims.c, dims.h, rng)
            sums = {n: np.zeros_like(tensor) for n, tensor in params.named_tensors()}
            cases[name, kind] = (params, head, layouts[0], dD, sums)
            if len(docs) > 1:
                tensors = {**dict(params.named_tensors()), **dict(head.named_tensors())}
                optimizer = Adam(tensors, 1e-3, 0.9, 0.999, 1e-8)
                steps[name, kind] = (layouts, targets, params, head, optimizer)
    times = {key: ([], [], []) for key in cases}
    step_times = {key: [] for key in steps}
    layout_times = {name: [] for name in documents}
    for i in range(-(-repeats // BLOCK) + 1):  # round 0 warms up
        for name, (_, docs) in documents.items():
            ids, lens = docs[0]
            for _ in range(BLOCK):
                t0 = perf_counter()
                DocLayout(ids, lens)
                if i:
                    layout_times[name].append(perf_counter() - t0)
        for key, (params, head, layout, dD, sums) in cases.items():
            for _ in range(BLOCK):
                t0 = perf_counter()
                _, cache = encode_document(BatchLayout([layout]), params)
                t1 = perf_counter()
                encoder_backward(params, cache, dD, sums)
                t2 = perf_counter()
                _document_forward(layout, params, head)
                t3 = perf_counter()
                if i:
                    times[key][0].append(t1 - t0)
                    times[key][1].append(t2 - t1)
                    times[key][2].append(t3 - t2)
        for key, (layouts, targets, params, head, optimizer) in steps.items():
            for _ in range(BLOCK):
                t0 = perf_counter()
                _training_step(layouts, targets, params, head, optimizer)
                if i:
                    step_times[key].append((perf_counter() - t0) / len(layouts))
                for total in optimizer.grad.values():  # the sums restart, as a step clears them
                    total[...] = 0.0
    results = {name: {"layout_us": _bench.stats(layout_times[name])} for name in documents}
    for (name, kind), (forward, backward, document) in times.items():
        results[name][kind] = {"forward_us": _bench.stats(forward), "backward_us": _bench.stats(backward),
                               "total_us": _bench.stats([f + b for f, b in zip(forward, backward)]),
                               "document_forward_us": _bench.stats(document)}
    for (name, kind), step in step_times.items():
        results[name][kind]["batch16_step_us"] = _bench.stats(step)
    return results


def main(argv: list[str] | None = None) -> int:
    args = _bench.parser(__doc__, 200, "toy-size documents, for tests").parse_args(argv)
    rng = np.random.default_rng(0)
    documents = {name: (dims, [make_document(dims, k, lens, ids, rng)
                               for _ in range(BATCH if name in BATCH_SHAPES else 1)])
                 for name, (dims, k, lens, ids) in _shapes(args.tiny).items()}
    timed = time_shapes(documents, args.repeats, rng)
    results = {}
    for name, (dims, docs) in documents.items():
        ids, lens = docs[0]
        results[name] = {
            "dims": {"h": dims.h, "c": dims.c, "v_buckets": dims.v_buckets, "t_max": dims.t_max, "f": dims.f},
            "k": len(lens), "tokens": len(ids), "distinct_ids": len(np.unique(ids)), "batch": len(docs),
            **timed[name],
        }
    _bench.report(args, shapes=results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
