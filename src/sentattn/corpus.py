"""Patent corpus ingestion, IPC label handling, and dataset splitting.

The corpus file format is JSON lines: one object per line with fields
"id" (required), "title", "abstract", "description" (optional) and
"ipc_codes" (required, list of raw code strings). Labels are IPC
subclasses, i.e. the 4-character prefix like "B82Y"; anything after the
subclass letter (main group / subgroup) is discarded.

A file is read by one iterator, `iter_corpus`, which yields each record as
its line is parsed and counts what it reads in a LoadReport; `load_corpus`
is its list. Training, evaluation and the CLI commands iterate it, so a
caller holds a record's text only while it works on that record. The file
is read through a fixed 256 KiB buffer (`_READ_BUFFER`), not the file
system's block size: a patent description runs to tens of kilobytes, and a
small buffer makes hundreds of reads per megabyte.

The train/validation/test split is one per-id rule, `split_of`, and every
command selects its records by it as they go by: `train` itself, the others
through `split_records`.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .hashing import stable_hash64

IPC_SUBCLASS_RE = re.compile(r"^[A-H][0-9][0-9][A-Z]$")
SPLIT_NAMES = ("train", "validation", "test")

# iter_corpus skip reasons, in report order
SKIP_CORRUPT_LINE = "corrupt_line"
SKIP_BAD_ID = "bad_id"
SKIP_DUPLICATE_ID = "duplicate_id"
SKIP_BAD_FIELD = "bad_field"
SKIP_BAD_IPC = "bad_ipc"
SKIP_NO_TEXT = "no_text"

_READ_BUFFER = 256 * 1024  # bytes per read of a corpus file


class CorpusError(Exception):
    """Base class for corpus-level failures."""


class MalformedIpc(CorpusError):
    """Raw IPC string does not contain a valid [A-H][0-9][0-9][A-Z] subclass."""


class FileUnreadable(CorpusError):
    """Corpus file missing or not readable."""


class NoLabels(CorpusError):
    """No record yielded any parseable IPC code."""


class EmptyInput(CorpusError):
    """A corpus holds no usable record to work on."""


@dataclass
class PatentRecord:
    """One patent: text fields plus raw IPC code strings, parsed once when built."""

    id: str
    title: str = ""
    abstract: str = ""
    description: str = ""
    ipc_codes: list[str] = field(default_factory=list)
    malformed_codes: int = field(init=False, repr=False, compare=False)
    _codes: list[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen = set()
        self.malformed_codes = 0
        for raw in self.ipc_codes:
            try:
                seen.add(parse_ipc(raw))
            except MalformedIpc:
                self.malformed_codes += 1
        self._codes = sorted(seen)

    def normalized_codes(self) -> list[str]:
        """Distinct parseable subclasses, sorted; malformed codes are skipped."""
        return self._codes

    def without_text(self) -> RecordLabels:
        """The record's id and parsed codes, its text dropped: what a pass that is done with the text keeps."""
        return RecordLabels(self.id, self._codes)


class RecordLabels(NamedTuple):
    """A record's id and parsed codes, without its text.

    It answers `normalized_codes` as the record does, so `build_vocabulary`
    and `encode_labels` take it in the record's place. A tuple, not a copy
    of the record, because a pass over short documents makes one for every
    record it reads.
    """

    id: str
    codes: list[str]

    def normalized_codes(self) -> list[str]:
        return self.codes


@dataclass
class LoadReport:
    """Ingestion totals: lines read, records retained, per-reason skips."""

    read: int = 0
    retained: int = 0
    skipped: dict[str, int] = field(default_factory=dict)
    malformed_codes: int = 0

    def skip(self, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + 1

    @property
    def total_skipped(self) -> int:
        return sum(self.skipped.values())


@dataclass
class LabelVocabulary:
    """Ordered label space: codes by descending frequency, ties lexicographic."""

    codes: list[str]
    counts: list[int] | None = None

    def __post_init__(self) -> None:
        self._index = {code: i for i, code in enumerate(self.codes)}
        if len(self._index) != len(self.codes):
            raise ValueError("duplicate codes in vocabulary")

    def __len__(self) -> int:
        return len(self.codes)

    def index(self, code: str) -> int | None:
        return self._index.get(code)


def parse_ipc(raw: str) -> str:
    """Normalize a raw IPC string to its 4-character subclass.

    Whitespace anywhere is removed, letters uppercased, and everything after
    the subclass letter (main group "20/00" etc.) is truncated. Raises
    MalformedIpc if the leading 4 characters are not [A-H][0-9][0-9][A-Z].
    """
    if not isinstance(raw, str):
        raise MalformedIpc(f"not a string: {raw!r}")
    cleaned = "".join(raw.split()).upper()
    head = cleaned[:4]
    if not IPC_SUBCLASS_RE.match(head):
        raise MalformedIpc(f"no valid subclass in {raw!r}")
    return head


def _is_utf8(text: str) -> bool:
    """False for a string holding a lone surrogate, such as a JSON-escaped "\\ud800"."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _record_from_obj(obj: object, seen_ids: set[str], report: LoadReport) -> PatentRecord | None:
    if not isinstance(obj, dict):
        report.skip(SKIP_CORRUPT_LINE)
        return None
    rid = obj.get("id")
    if not isinstance(rid, str) or not rid or not _is_utf8(rid):
        report.skip(SKIP_BAD_ID)
        return None
    if rid in seen_ids:
        report.skip(SKIP_DUPLICATE_ID)
        return None
    texts = {}
    for name in ("title", "abstract", "description"):
        value = obj.get(name, "")
        if not isinstance(value, str) or not _is_utf8(value):
            report.skip(SKIP_BAD_FIELD)
            return None
        texts[name] = value
    codes = obj.get("ipc_codes")
    if not isinstance(codes, list) or any(not isinstance(c, str) or not _is_utf8(c) for c in codes):
        report.skip(SKIP_BAD_IPC)
        return None
    if not texts["title"].strip() and not texts["abstract"].strip():
        report.skip(SKIP_NO_TEXT)
        return None
    seen_ids.add(rid)
    return PatentRecord(id=rid, ipc_codes=codes, **texts)


def iter_corpus(path: str | Path, report: LoadReport) -> Iterator[PatentRecord]:
    """Yield a JSONL corpus file's records in file order; malformed lines are counted, never fatal.

    The file is opened at the first next(), which raises FileUnreadable if
    it cannot be, and read as bytes, one LF-terminated line at a time (CRLF
    works too); `report` counts each line as it is read, so it is complete
    once the iterator is. A line that
    is not valid UTF-8 or not valid JSON, or that the JSON decoder refuses
    (nesting past the recursion limit, an integer past the digit limit),
    counts as a corrupt line; lines of ASCII whitespace are skipped. A
    string that does not encode as UTF-8 (a JSON-escaped lone surrogate) is
    refused as bad_id, bad_field or bad_ipc, by its field. The first record
    of an id wins; a later one is skipped as duplicate_id.
    """
    path = Path(path)
    try:
        fh = path.open("rb", buffering=_READ_BUFFER)
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    seen_ids: set[str] = set()
    with fh:
        for line in fh:
            if line.isspace():
                continue
            report.read += 1
            try:
                obj = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError are ValueErrors
                report.skip(SKIP_CORRUPT_LINE)
                continue
            record = _record_from_obj(obj, seen_ids, report)
            if record is None:
                continue
            report.malformed_codes += record.malformed_codes
            report.retained += 1
            yield record
            del obj, record  # not held while the next line is read


def load_corpus(path: str | Path) -> tuple[list[PatentRecord], LoadReport]:
    """Every record `iter_corpus` yields from the file, in a list, and its finished report."""
    report = LoadReport()
    return list(iter_corpus(path, report)), report


def build_vocabulary(records: Iterable[PatentRecord | RecordLabels], top_c: int) -> LabelVocabulary:
    """Top-C most frequent subclasses; each record counts a code at most once.

    Ties break lexicographically ascending; with fewer than top_c distinct
    codes the vocabulary is simply all of them.
    """
    if top_c <= 0:
        raise ValueError("top_c must be positive")
    freq: Counter[str] = Counter()
    for record in records:
        freq.update(record.normalized_codes())
    if not freq:
        raise NoLabels("no record yielded any parseable IPC code")
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:top_c]
    return LabelVocabulary(codes=[c for c, _ in ranked], counts=[n for _, n in ranked])


def encode_labels(record: PatentRecord | RecordLabels, vocab: LabelVocabulary) -> np.ndarray | None:
    """Binarize a record's labels against the vocabulary.

    Returns None (record dropped) when no code falls inside the vocabulary;
    such records carry no positive label and are excluded from train/eval.
    """
    bits = np.zeros(len(vocab), dtype=np.int8)
    for code in record.normalized_codes():
        i = vocab.index(code)
        if i is not None:
            bits[i] = 1
    if not bits.any():
        return None
    return bits


def split_of(seed: int, rid: str) -> str:
    """The part of the seed's 8:1:1 id-hash split that holds `rid`.

    bucket = stable_hash64(seed, rid) mod 10; buckets 0-7 go to "train",
    8 to "validation", 9 to "test". The answer depends on the id alone,
    never on the other ids or their order.
    """
    bucket = stable_hash64(seed, rid) % 10
    return "train" if bucket <= 7 else "validation" if bucket == 8 else "test"


def split_records(records: Iterable[PatentRecord], seed: int, name: str) -> Iterable[PatentRecord]:
    """An iterator over the records that `split_of` puts in part `name`, in input order.

    It is a `filter`, which lets a record of another part go before it reads
    the next one. For "all" the records themselves are returned. The seed and
    the name are checked here, before any record is read.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if name == "all":
        return records
    if name not in SPLIT_NAMES:
        raise ValueError(f"unknown split name: {name!r}")
    return filter(lambda r: split_of(seed, r.id) == name, records)
