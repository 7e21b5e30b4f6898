#!/usr/bin/env python3
"""Time the package's file I/O: reading corpora and saving and loading checkpoints.

Stages, each on inputs generated here from a fixed seed:

* corpus/long_description: `load_corpus` on the longdoc benchmark's shape,
  60 records of a 4-word title, 12 abstract sentences and a description
  whose length is spread log-uniformly over 3k-128k characters (about
  2 MB in all).
* corpus/short_lines: `load_corpus` on 96 records of a 4-word title and
  32 abstract sentences, the train-meanpool benchmark's shape (about
  0.14 MB).
* checkpoint/<dims>/<kind>/save and .../load: `save_checkpoint` (fsync
  included) and `load_checkpoint` of a seeded fresh checkpoint, for both
  encoder kinds, at the default dims (h=64, c=50, v_buckets=32768,
  t_max=64, f=128) and the longdoc dims (h=32, c=8, v_buckets=4096,
  t_max=32, f=32).

Each stage gets one untimed call, then --repeats timed rounds; a round
calls every stage once, in the order above. Per stage it reports the
median and quartiles in milliseconds, the file size in bytes, and
`peak_x_file`: the tracemalloc peak of one more call, divided by the file
size. A corpus stage's peak includes the records it returns. A stage's
time includes the page faults of first touching memory that the stages
before it did not leave mapped, so it can move with its neighbours: a save
that allocates nothing leaves the load after it to fault in its pages.

Only `load_corpus`, `save_checkpoint`, `load_checkpoint`, `Checkpoint`,
`LabelVocabulary`, `ModelDims`, `init_encoder`, `init_head` and
`write_jsonl` are called, so the script times older versions of the
package too.

Usage: python scripts/io_bench.py [--repeats N] [--tiny] [--out PATH] [--side before|after]
"""

import _bench  # pins BLAS to one thread, so before numpy
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

from sentattn.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from sentattn.corpus import LabelVocabulary, PatentRecord, load_corpus
from sentattn.encoder import MEANPOOL, MINITRANSFORMER, ModelDims, init_encoder
from sentattn.head import init_head
from sentattn.synth import write_jsonl

VOCAB = (
    "rotor", "flange", "manifold", "coupling", "sensor", "array", "bracket",
    "conduit", "gasket", "spindle", "bearing", "housing", "piston", "valve",
    "clutch", "damper", "nozzle", "turbine", "pulley", "gearbox", "stator",
    "membrane", "filament", "resistor", "inductor", "capacitor", "solenoid",
    "actuator", "linkage", "cam", "ratchet", "sprocket", "shim", "washer",
    "the", "a", "of", "with", "and", "is", "to", "in", "coupled", "mounted",
    "arranged", "between", "first", "second", "wherein", "said",
)

# name -> (records, abstract sentences, description characters (min, max) or None)
CORPORA = {
    "long_description": (60, 12, (3_000, 128_000)),
    "short_lines": (96, 32, None),
}
TINY_CORPORA = {
    "long_description": (6, 2, (300, 3_000)),
    "short_lines": (8, 4, None),
}
DIMS = {
    "default": ModelDims(h=64, c=50, v_buckets=32768, t_max=64, f=128),
    "longdoc": ModelDims(h=32, c=8, v_buckets=4096, t_max=32, f=32),
}
TINY_DIMS = {
    "default": ModelDims(h=4, c=3, v_buckets=64, t_max=6, f=5),
    "longdoc": ModelDims(h=2, c=2, v_buckets=16, t_max=3, f=2),
}


def _sentence(rng: np.random.Generator, n_words: int) -> str:
    words = [str(w) for w in rng.choice(VOCAB, size=n_words)]
    return " ".join([words[0].capitalize(), *words[1:]]) + "."


def _text(rng: np.random.Generator, n_chars: int) -> str:
    parts, size = [], 0
    while size < n_chars:
        parts.append(_sentence(rng, int(rng.integers(6, 14))))
        size += len(parts[-1]) + 1
    return " ".join(parts)


def make_corpus(n_records: int, n_abstract: int, description: tuple[int, int] | None,
                rng: np.random.Generator) -> list[PatentRecord]:
    """Records whose i-th description length is the midpoint of the i-th of n equal log-width bins."""
    records = []
    for i in range(n_records):
        n_chars = 0 if description is None else \
            int(description[0] * (description[1] / description[0]) ** ((i + 0.5) / n_records))
        records.append(PatentRecord(
            id=f"io{i:05d}",
            title=_sentence(rng, 4)[:-1],
            abstract=" ".join(_sentence(rng, int(rng.integers(4, 9))) for _ in range(n_abstract)),
            description=_text(rng, n_chars),
            ipc_codes=["G06N 3/00"],
        ))
    return records


def make_checkpoint(dims: ModelDims, kind: str) -> Checkpoint:
    rng = np.random.default_rng(0)
    return Checkpoint(dims=dims, vocab=LabelVocabulary(codes=[f"A{i:02d}B" for i in range(dims.c)]),
                      encoder_params=init_encoder(kind, dims, rng),
                      head_params=init_head(dims.c, dims.h, rng))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run(tiny: bool, repeats: int, directory: Path) -> dict:
    rng = np.random.default_rng(0)
    stages = {}  # name -> (call, path of the file it reads or writes)
    for name, (n_records, n_abstract, description) in (TINY_CORPORA if tiny else CORPORA).items():
        path = directory / f"{name}.jsonl"
        write_jsonl(make_corpus(n_records, n_abstract, description, rng), path)
        stages[f"corpus/{name}"] = (lambda path=path: load_corpus(path), path)
    for dims_name, dims in (TINY_DIMS if tiny else DIMS).items():
        for kind in (MEANPOOL, MINITRANSFORMER):
            ckpt, path = make_checkpoint(dims, kind), directory / f"{dims_name}-{kind}.satn"
            stages[f"checkpoint/{dims_name}/{kind}/save"] = (lambda c=ckpt, p=path: save_checkpoint(c, p), path)
            stages[f"checkpoint/{dims_name}/{kind}/load"] = (lambda p=path: load_checkpoint(p), path)

    times = {name: [] for name in stages}
    for i in range(repeats + 1):
        for name, (call, _) in stages.items():
            t0 = perf_counter()
            call()
            if i:
                times[name].append(perf_counter() - t0)
    report = {}
    for name, (call, path) in stages.items():
        size = path.stat().st_size
        report[name] = {"file_bytes": size, "ms": _bench.stats(times[name], 1e3, 4),
                        "peak_x_file": round(_traced_peak(call) / size, 4)}
    return report


def main(argv: list[str] | None = None) -> int:
    args = _bench.parser(__doc__, 30, "toy-size corpora and checkpoints, for tests").parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        stages = run(args.tiny, args.repeats, Path(tmp))
    _bench.report(args, stages=stages)
    return 0


if __name__ == "__main__":
    sys.exit(main())
