"""Seeded input generators for the benchmark workloads.

Every corpus is written as a JSONL file in a directory the caller owns;
the program under test only ever reads those files. The same seed always
gives byte-identical files.

* multi-label: 50 IPC subclasses, 1-3 labels per document, one evidence
  sentence per label among about 32 filler sentences.
* long-description: multi-label records whose `description` field holds
  filler sentences, lengths spread log-uniformly over a range of sizes.

`write_eval_subset` takes every k-th record of a corpus for evaluate.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from sentattn.corpus import PatentRecord, parse_ipc
from sentattn.hashing import stable_hash64, token_bucket
from sentattn.synth import write_jsonl

N_CODES = 50
LONGDOC_LABELS = 8

FILLER_WORDS = (
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


def ipc_codes(n: int = N_CODES) -> list[str]:
    """n distinct valid IPC subclasses, the same list for every seed."""
    codes = []
    for i in range(n):
        code = f"{'ABCDEFGH'[i % 8]}{10 + (7 * i) % 90:02d}{chr(65 + (11 * i) % 26)}"
        parse_ipc(code)
        codes.append(code)
    if len(set(codes)) != n:
        raise ValueError("generated IPC codes are not distinct")
    return codes


def evidence_word(label_index: int) -> str:
    return f"zq{label_index}evid"


def check_evidence_buckets(n_labels: int, v_buckets: int) -> None:
    """Evidence tokens must hash apart from each other and from every filler.

    The same rule as `sentattn.synth.check_no_bucket_collisions`, applied to
    this generator's evidence tokens and filler vocabulary.
    """
    evidence = {token_bucket(evidence_word(i), v_buckets) for i in range(n_labels)}
    fillers = {token_bucket(w, v_buckets) for w in FILLER_WORDS}
    if len(evidence) != n_labels or evidence & fillers:
        raise ValueError(f"evidence-token bucket collision at v_buckets={v_buckets}")


def _filler_sentence(rng: np.random.Generator, n_words: int) -> str:
    words = [str(w) for w in rng.choice(FILLER_WORDS, size=n_words)]
    return " ".join([words[0].capitalize(), *words[1:]]) + "."


def _evidence_sentence(rng: np.random.Generator, label: int, n_words: int) -> str:
    words = [str(w) for w in rng.choice(FILLER_WORDS, size=max(n_words - 1, 0))]
    words.insert(int(rng.integers(0, len(words) + 1)), evidence_word(label))
    return " ".join([words[0].capitalize(), *words[1:]]) + "."


def _words(rng: np.random.Generator) -> int:
    return int(rng.integers(4, 9))  # 4 to 8 words


def make_multilabel_corpus(
    seed: int,
    n_docs: int,
    n_sentences: int = 32,
    n_labels: int = N_CODES,
    prefix: str = "ml",
) -> list[PatentRecord]:
    """Documents with 1-3 labels, each label's evidence in one abstract sentence."""
    codes = ipc_codes(n_labels)
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_docs):
        labels = rng.choice(n_labels, size=int(rng.integers(1, 4)), replace=False)
        body = [_filler_sentence(rng, _words(rng)) for _ in range(n_sentences - 1)]
        slots = rng.choice(len(body), size=len(labels), replace=False)
        for slot, label in zip(slots, labels):
            body[int(slot)] = _evidence_sentence(rng, int(label), _words(rng))
        records.append(PatentRecord(
            id=f"{prefix}{seed}-{i:05d}",
            title=_filler_sentence(rng, 4)[:-1],
            abstract=" ".join(body),
            ipc_codes=[f"{codes[int(label)]} {int(rng.integers(1, 99))}/00" for label in labels],
        ))
    return records


def _description(rng: np.random.Generator, n_chars: int) -> str:
    parts, size = [], 0
    while size < n_chars:
        sentence = _filler_sentence(rng, int(rng.integers(6, 14)))
        parts.append(sentence)
        size += len(sentence) + 1
    return " ".join(parts)


def _id_in_split(base: str, split_seed: int, part: int) -> str:
    """The first id `base-j` that the id-hash split puts in part 0 (train), 1 or 2."""
    for j in itertools.count():
        rid = f"{base}-{j}"
        bucket = stable_hash64(split_seed, rid) % 10
        if max(bucket - 7, 0) == part:
            return rid
    raise AssertionError("unreachable")


def make_longdoc_corpus(
    seed: int, n_docs: int, min_chars: int, max_chars: int, split_seed: int,
    n_sentences: int = 12, n_labels: int = LONGDOC_LABELS,
) -> list[PatentRecord]:
    """Multi-label records with descriptions log-uniform in [min_chars, max_chars].

    Document i gets the i-th length of a fixed log-spaced grid (midpoints of
    n_docs equal log-width bins), and an id that the 8:1:1 split under
    split_seed puts in validation when i % 10 == 8 and in test when
    i % 10 == 9. So each split holds the same lengths for every seed, and
    the few longest documents, which dominate the cost, cannot move
    between splits; only words and ids change with the seed. With few
    labels every one of them reaches the training vocabulary.
    """
    records = make_multilabel_corpus(seed, n_docs, n_sentences=n_sentences,
                                     n_labels=n_labels, prefix="ld")
    rng = np.random.default_rng([seed, 1])
    ratio = max_chars / min_chars
    for i, record in enumerate(records):
        record.id = _id_in_split(record.id, split_seed, max(i % 10 - 7, 0))
        record.description = _description(rng, int(min_chars * ratio ** ((i + 0.5) / n_docs)))
    return records


def write_multilabel(directory: Path, seed: int, v_buckets: int, **kwargs) -> Path:
    check_evidence_buckets(N_CODES, v_buckets)
    path = directory / "multilabel.jsonl"
    write_jsonl(make_multilabel_corpus(seed, **kwargs), path)
    return path


def write_longdoc(directory: Path, seed: int, v_buckets: int, **kwargs) -> Path:
    check_evidence_buckets(kwargs.get("n_labels", LONGDOC_LABELS), v_buckets)
    path = directory / "longdoc.jsonl"
    write_jsonl(make_longdoc_corpus(seed, **kwargs), path)
    return path


def write_eval_subset(source: Path, n_docs: int) -> Path:
    """Every k-th line of a corpus file, n_docs lines in all, beside it.

    Evaluate calls on this subset are short, so a run holds many of them;
    taking every k-th line keeps the source's spread of document sizes.
    """
    lines = source.read_text(encoding="utf-8").splitlines()
    path = source.with_name(f"{source.stem}-eval.jsonl")
    path.write_text("\n".join(lines[:: max(len(lines) // n_docs, 1)][:n_docs]) + "\n",
                    encoding="utf-8")
    return path
