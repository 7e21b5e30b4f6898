#!/usr/bin/env python3
"""Time each encoder's forward + backward pass per document at four document shapes.

Each shape is one seeded synthetic document: one token-id array and its
sentence lengths, as tokenization hands them over. Both encoder kinds run on
it with seeded float32 parameters and the document's layout built
beforehand, as preparing a document builds it once for every epoch; the
layout build is timed on its own. Each round times every shape and kind in turn, ten
calls in a row. BLAS runs on one thread. Prints one JSON object (times in
microseconds: median and quartiles over about --repeats calls), and writes
it to --out when given.

* bench: the train-meanpool benchmark's documents: 32 sentences of 5-13
  tokens over a 60-word vocabulary, at the default dims.
* longdoc: the longdoc benchmark's: 128 sentences of 5-20 tokens over the
  same vocabulary, at its small dims (h=32, 4096 buckets, t_max=32).
* zipf-k128: 128 sentences of 30 tokens, ids Zipf-distributed over the
  32,768 buckets of the default dims.
* worst: 128 sentences of t_max = 64 tokens, ids uniform over the 32,768
  buckets (about 7,000 distinct ids).

Usage: python scripts/encoder_bench.py [--repeats N] [--tiny] [--out PATH]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # read when numpy loads BLAS, so before the import

import argparse
import json
import platform
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from sentattn.encoder import (
    ENCODER_KINDS,
    DocLayout,
    ModelDims,
    encode_document,
    encoder_backward,
    init_encoder,
)

DEFAULT_DIMS = ModelDims(h=64, c=50, v_buckets=32768, t_max=64, f=128)
LONGDOC_DIMS = ModelDims(h=32, c=8, v_buckets=4096, t_max=32, f=32)
TINY_DIMS = ModelDims(h=4, c=2, v_buckets=64, t_max=8, f=4)
VOCAB = 60  # distinct filler words in the benchmark corpora
BLOCK = 10  # calls in a row per shape and kind


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


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _stats(seconds: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(np.asarray(seconds) * 1e6, [25, 50, 75])
    return {"median": round(float(median), 2), "q1": round(float(q1), 2), "q3": round(float(q3), 2)}


def time_shapes(documents: dict[str, tuple[ModelDims, np.ndarray, np.ndarray]], repeats: int,
                rng: np.random.Generator) -> dict[str, dict]:
    """Per shape: the layout build and each kind's forward and backward, in microseconds.

    Each round times every shape and kind in turn, BLOCK calls in a row, so
    calls run warm, as in an epoch over like documents, while a stretch in
    which the machine runs slower spreads over every shape and kind.
    """
    cases = {}
    for name, (dims, ids, lens) in documents.items():
        layout = DocLayout(ids, lens)
        dD = rng.normal(size=(dims.h, len(lens))).astype(np.float32)
        for kind in ENCODER_KINDS:
            cases[name, kind] = (init_encoder(kind, dims, rng), layout, dD)
    times = {key: ([], []) for key in cases}
    layout_times = {name: [] for name in documents}
    for i in range(-(-repeats // BLOCK) + 1):  # round 0 warms up
        for name, (_, ids, lens) in documents.items():
            for _ in range(BLOCK):
                t0 = perf_counter()
                DocLayout(ids, lens)
                if i:
                    layout_times[name].append(perf_counter() - t0)
        for key, (params, layout, dD) in cases.items():
            for _ in range(BLOCK):
                t0 = perf_counter()
                _, cache = encode_document(layout, params)
                t1 = perf_counter()
                encoder_backward(params, cache, dD)
                t2 = perf_counter()
                if i:
                    times[key][0].append(t1 - t0)
                    times[key][1].append(t2 - t1)
    results = {name: {"layout_us": _stats(layout_times[name])} for name in documents}
    for (name, kind), (forward, backward) in times.items():
        results[name][kind] = {"forward_us": _stats(forward), "backward_us": _stats(backward),
                               "total_us": _stats([f + b for f, b in zip(forward, backward)])}
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200)
    parser.add_argument("--tiny", action="store_true", help="toy-size documents, for tests")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    rng = np.random.default_rng(0)
    documents = {name: (dims, *make_document(dims, k, lens, ids, rng))
                 for name, (dims, k, lens, ids) in _shapes(args.tiny).items()}
    timed = time_shapes(documents, args.repeats, rng)
    results = {}
    for name, (dims, ids, lens) in documents.items():
        results[name] = {
            "dims": {"h": dims.h, "v_buckets": dims.v_buckets, "t_max": dims.t_max, "f": dims.f},
            "k": len(lens), "tokens": len(ids), "distinct_ids": len(np.unique(ids)),
            **timed[name],
        }
    report = {
        "machine": {"cpu": _cpu(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "repeats": args.repeats,
        "shapes": results,
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
