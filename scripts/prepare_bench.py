#!/usr/bin/env python3
"""Time preprocessing per document, from record text to encoder layout, at four document shapes.

Each shape is a seeded synthetic corpus built like a benchmark workload's
documents. Per document it times four calls, in microseconds:

* segment_us: `segment` of the document's text;
* tokenize_us: one `token_ids` call per document, over all of those
  sentences, as `prepare_documents` makes it;
* layout_us: the `DocLayout` build alone, from that `token_ids` output;
* prepare_us: `prepare_documents` of the one record: the whole path from
  text to the layout that every encoder pass reads.

Only `segment`, `token_ids`, `DocLayout`, `prepare_documents` and
`document_text` are called, so the script times any version of the package
whose signatures match. Each round times every document of a shape once.
Round 0 meets the shape's words with a cold token memo: each shape's dims
or words differ from those of the shapes before it. It is reported apart,
under "cold"; its prepare_us follows a token_ids call over the same
document, so only its tokenize_us is cold throughout. The warm rounds 1..N
are the stages' own entries. Times are medians and quartiles over
documents and rounds.

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
* marks: the description shape with every sentence ending in "!" or "?"
  instead of ".", so past the title, which `document_text` ends with ".",
  the scanner runs the full boundary pattern.

Usage: python scripts/prepare_bench.py [--repeats N] [--docs N] [--tiny] [--out PATH] [--side before|after]
"""

import _bench  # pins BLAS to one thread, so before numpy
import sys
from time import perf_counter

import numpy as np

from sentattn.corpus import PatentRecord
from sentattn.encoder import DocLayout
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
#          title words, Zipf word types or None for VOCAB, sentence terminators)
SHAPES = {
    "abstract": (64, 32768, 128, 32, 0, (4, 8), 4, None, "."),
    "description": (32, 4096, 128, 12, 150, (6, 13), 4, None, "."),
    "zipf": (64, 32768, 128, 8, 0, (8, 15), 6, 30_000, "."),
    "marks": (32, 4096, 128, 12, 150, (6, 13), 4, None, "!?"),
}
TINY = {
    "abstract": (16, 64, 8, 4, 0, (2, 4), 4, None, "."),
    "description": (8, 64, 8, 2, 10, (3, 6), 4, None, "."),
    "zipf": (16, 64, 8, 2, 0, (3, 6), 6, 300, "."),
    "marks": (8, 64, 8, 2, 10, (3, 6), 4, None, "!?"),
}


def _sentence(rng: np.random.Generator, words: tuple[int, int], n_types: int | None, marks: str) -> str:
    n_words = int(rng.integers(words[0], words[1] + 1))
    if n_types is None:
        picked = [str(w) for w in rng.choice(VOCAB, size=n_words)]
    else:
        picked = [f"w{r}" for r in (rng.zipf(1.1, size=n_words) - 1) % n_types]
    # one terminator draws nothing, so the "." shapes' words are the same as without marks
    mark = marks if len(marks) == 1 else str(rng.choice(list(marks)))
    return " ".join([picked[0].capitalize(), *picked[1:]]) + mark


def make_records(n_docs: int, n_abstract: int, n_description: int, words: tuple[int, int],
                 title_words: int, n_types: int | None, marks: str,
                 rng: np.random.Generator) -> list[PatentRecord]:
    return [
        PatentRecord(
            id=f"doc{i}",
            title=_sentence(rng, (title_words, title_words), n_types, marks)[:-1],
            abstract=" ".join(_sentence(rng, words, n_types, marks) for _ in range(n_abstract)),
            description=" ".join(_sentence(rng, words, n_types, marks) for _ in range(n_description)),
            ipc_codes=["G06N"],
        )
        for i in range(n_docs)
    ]


def time_shape(records: list[PatentRecord], t_max: int, v_buckets: int, k_max: int,
               use_description: bool, rounds: int) -> dict:
    times = {"segment_us": [], "tokenize_us": [], "layout_us": [], "prepare_us": []}
    cold = {name: [] for name in times}
    sentences = tokens = 0
    for i in range(rounds + 1):
        for record in records:
            t0 = perf_counter()
            kept = segment(document_text(record, use_description), k_max)
            t1 = perf_counter()
            ids, lens = token_ids((s.text for s in kept), t_max, v_buckets)
            t2 = perf_counter()
            DocLayout(ids, lens)
            t3 = perf_counter()
            prepare_documents([record], None, k_max, t_max, v_buckets, use_description, require_labels=False)
            t4 = perf_counter()
            for name, seconds in zip(times, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                (times if i else cold)[name].append(seconds)
            if not i and record is records[0]:
                sentences, tokens = len(kept), len(ids)
    return {"first_document": {"sentences": sentences, "tokens": tokens},
            "cold": {name: _bench.stats(seconds) for name, seconds in cold.items()},
            **{name: _bench.stats(seconds) for name, seconds in times.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = _bench.parser(__doc__, 10, "toy-size documents, for tests")
    parser.add_argument("--docs", type=_bench.positive, default=20, help="documents per shape")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    results = {}
    for name, (t_max, v_buckets, k_max, n_abstract, n_description, words, title_words, n_types, marks) in \
            (TINY if args.tiny else SHAPES).items():
        records = make_records(args.docs, n_abstract, n_description, words, title_words, n_types, marks, rng)
        results[name] = {
            "t_max": t_max, "v_buckets": v_buckets, "k_max": k_max,
            "use_description": bool(n_description),
            **time_shape(records, t_max, v_buckets, k_max, bool(n_description), args.repeats),
        }
    _bench.report(args, docs=args.docs, shapes=results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
