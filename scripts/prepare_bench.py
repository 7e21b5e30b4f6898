#!/usr/bin/env python3
"""Time preprocessing per document, from record text to encoder layout, at three document shapes.

Each shape is a seeded synthetic corpus built like a benchmark workload's
documents. Per document it times three calls, in microseconds:

* segment_us: `segment` of the document's text;
* tokenize_us: one `token_ids` call per document, over all of those
  sentences, as `prepare_documents` makes it;
* prepare_us: `prepare_documents` of the one record, then reading its
  `layout`: the whole path from text to the layout that every encoder pass
  reads.

Only `segment`, `token_ids`, `prepare_documents` and `document_text` are
called, so the script times any version of the package whose signatures
match. Each round times every document of a shape once. Round 0 meets the
shape's words with a cold token memo: each shape's dims or words differ
from those of the shapes before it. It is reported apart, under "cold";
its prepare_us follows a token_ids call over the same document, so only
its tokenize_us is cold throughout. The warm rounds 1..N are the stages'
own entries. Prints one JSON object (median and quartiles over documents
and rounds), and writes it to --out when given.

A committed `before` and `after` come from separate processes, run one
after the other, and on a shared VM such a pair cannot resolve a
difference under about 2x: `segment_us`, whose code did not change,
read 61 -> 120 us between two such runs. To compare two versions, time
both interleaved in one process, importing each from its own checkout.

* abstract: the train-meanpool benchmark's documents, a 4-word title and
  32 abstract sentences of 4-8 words over a 60-word vocabulary, at the
  default dims (t_max=64, 32768 buckets, k_max=128).
* description: the longdoc benchmark's, with a description of 6-13-word
  sentences long enough that every document keeps k_max = 128 sentences,
  at its small dims (t_max=32, 4096 buckets).
* zipf: a vocabulary-rich corpus built like `adam_bench.make_zipf_corpus`,
  a 6-word title and 8 abstract sentences of 8-15 words drawn Zipf(1.1)
  over 30,000 word types, at the default dims. Its round 0 meets far more
  new words per document than the other shapes' do.

Usage: python scripts/prepare_bench.py [--repeats N] [--docs N] [--tiny] [--out PATH]
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from sentattn.corpus import PatentRecord
from sentattn.segmenter import segment, token_ids
from sentattn.trainer import document_text, prepare_documents

VOCAB = (
    "rotor", "flange", "manifold", "coupling", "sensor", "array", "bracket",
    "conduit", "gasket", "spindle", "bearing", "housing", "piston", "valve",
    "clutch", "damper", "nozzle", "turbine", "pulley", "gearbox", "stator",
    "membrane", "filament", "resistor", "inductor", "capacitor", "solenoid",
    "actuator", "linkage", "cam", "ratchet", "sprocket", "shim", "washer",
    "grommet", "ferrule", "bushing", "collar", "keyway", "detent", "the",
    "a", "of", "with", "and", "is", "to", "in", "coupled", "mounted",
    "arranged", "between", "first", "second", "lower", "upper", "inner",
    "outer", "wherein", "said",
)

# name -> (t_max, v_buckets, k_max, abstract sentences, description sentences, words per sentence,
#          title words, Zipf word types or None for VOCAB)
SHAPES = {
    "abstract": (64, 32768, 128, 32, 0, (4, 8), 4, None),
    "description": (32, 4096, 128, 12, 150, (6, 13), 4, None),
    "zipf": (64, 32768, 128, 8, 0, (8, 15), 6, 30_000),
}
TINY = {
    "abstract": (16, 64, 8, 4, 0, (2, 4), 4, None),
    "description": (8, 64, 8, 2, 10, (3, 6), 4, None),
    "zipf": (16, 64, 8, 2, 0, (3, 6), 6, 300),
}


def _sentence(rng: np.random.Generator, words: tuple[int, int], n_types: int | None) -> str:
    n_words = int(rng.integers(words[0], words[1] + 1))
    if n_types is None:
        picked = [str(w) for w in rng.choice(VOCAB, size=n_words)]
    else:
        picked = [f"w{r}" for r in (rng.zipf(1.1, size=n_words) - 1) % n_types]
    return " ".join([picked[0].capitalize(), *picked[1:]]) + "."


def make_records(n_docs: int, n_abstract: int, n_description: int, words: tuple[int, int],
                 title_words: int, n_types: int | None, rng: np.random.Generator) -> list[PatentRecord]:
    return [
        PatentRecord(
            id=f"doc{i}",
            title=_sentence(rng, (title_words, title_words), n_types)[:-1],
            abstract=" ".join(_sentence(rng, words, n_types) for _ in range(n_abstract)),
            description=" ".join(_sentence(rng, words, n_types) for _ in range(n_description)),
            ipc_codes=["G06N"],
        )
        for i in range(n_docs)
    ]


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


def time_shape(records: list[PatentRecord], t_max: int, v_buckets: int, k_max: int,
               use_description: bool, rounds: int) -> dict:
    times = {"segment_us": [], "tokenize_us": [], "prepare_us": []}
    cold = {name: [] for name in times}
    sentences = tokens = 0
    for i in range(rounds + 1):
        for record in records:
            t0 = perf_counter()
            kept = segment(document_text(record, use_description), k_max)
            t1 = perf_counter()
            ids, _ = token_ids((s.text for s in kept), t_max, v_buckets)
            t2 = perf_counter()
            docs, _ = prepare_documents([record], None, k_max, t_max, v_buckets, use_description,
                                        require_labels=False)
            docs[0].layout  # a version that builds layouts on first read builds it here
            t3 = perf_counter()
            for name, seconds in zip(times, (t1 - t0, t2 - t1, t3 - t2)):
                (times if i else cold)[name].append(seconds)
            if not i and record is records[0]:
                sentences, tokens = len(kept), len(ids)
    return {"first_document": {"sentences": sentences, "tokens": tokens},
            "cold": {name: _stats(seconds) for name, seconds in cold.items()},
            **{name: _stats(seconds) for name, seconds in times.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=10, help="timed rounds over each corpus")
    parser.add_argument("--docs", type=int, default=20, help="documents per shape")
    parser.add_argument("--tiny", action="store_true", help="toy-size documents, for tests")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.docs < 1:
        parser.error("--repeats and --docs must be >= 1")

    rng = np.random.default_rng(0)
    results = {}
    for name, (t_max, v_buckets, k_max, n_abstract, n_description, words, title_words, n_types) in \
            (TINY if args.tiny else SHAPES).items():
        records = make_records(args.docs, n_abstract, n_description, words, title_words, n_types, rng)
        results[name] = {
            "t_max": t_max, "v_buckets": v_buckets, "k_max": k_max,
            "use_description": bool(n_description),
            **time_shape(records, t_max, v_buckets, k_max, bool(n_description), args.repeats),
        }
    report = {
        "machine": {"cpu": _cpu(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "repeats": args.repeats,
        "docs": args.docs,
        "shapes": results,
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
