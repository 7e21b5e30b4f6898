"""Random and corrupted bytes fed to the two file loaders.

`load_corpus` must return a report or raise a `CorpusError`, and
`load_checkpoint` must return a checkpoint or raise a `CheckpointError`;
any other exception is a crash. `iter_corpus`, which the commands read
through, must yield what `load_corpus` returns, counting each record in
its report before yielding it.
"""

import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentattn.checkpoint import MAGIC, VERSION, Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from sentattn.corpus import CorpusError, LabelVocabulary, LoadReport, iter_corpus, load_corpus
from sentattn.encoder import MEANPOOL, ModelDims, init_encoder
from sentattn.head import init_head

from conftest import record_line

VALID_CORPUS = ("\n".join([
    record_line("p1", ["G06N 3/00", "H04L"]),
    record_line("p2", ["B82Y"], title="Ünïcode títle. Σ sentence.", abstract=""),
    '{"id": "p3", "title": "x", "description": "Long. Text.", "ipc_codes": ["A01B", "bad"]}',
]) + "\n").encode("utf-8")


def valid_checkpoint_bytes() -> bytes:
    dims = ModelDims(h=2, c=2, v_buckets=4, t_max=3, f=2)
    rng = np.random.default_rng(0)
    ckpt = Checkpoint(dims=dims, vocab=LabelVocabulary(codes=["A01B", "G06N"]),
                      encoder_params=init_encoder(MEANPOOL, dims, rng),
                      head_params=init_head(dims.c, dims.h, rng))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.satn"
        save_checkpoint(ckpt, path)
        return path.read_bytes()


VALID_CHECKPOINT = valid_checkpoint_bytes()
FIRST_CODE = 35  # magic, 6 u32 header fields, kind byte, code count, first code's length


def flip(blob: bytes, flips: list[tuple[int, int]]) -> bytes:
    out = bytearray(blob)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


def with_fixed_crc(blob: bytes) -> bytes:
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]) & 0xFFFFFFFF)


flips = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), min_size=1, max_size=8)


def load_corpus_bytes(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_bytes(data)
        try:
            records, report = load_corpus(path)
        except CorpusError:
            return
    assert report.retained == len(records)
    assert report.read == report.retained + report.total_skipped


def iterate_corpus_bytes(data: bytes):
    """iter_corpus, consumed one record at a time, against load_corpus on the same file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_bytes(data)
        try:
            expected = load_corpus(path)
        except CorpusError:
            return
        report = LoadReport()
        records = []
        for record in iter_corpus(path, report):
            assert report.retained == len(records) + 1
            records.append(record)
    assert (records, report) == expected


def load_checkpoint_bytes(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.satn"
        path.write_bytes(data)
        try:
            ckpt = load_checkpoint(path)
        except CheckpointError:
            return
    assert ckpt.version == VERSION


# No deadline: one example stalled by a busy machine (273 and 574 ms were seen,
# on inputs that rerun in 0.2 ms) fails a 200 ms deadline as Flaky.
class TestLoadCorpus:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=2000))
    @example(b"[" * 100_000 + b"\n")
    @example(b'{"id": "p", "n": ' + b"1" * 5000 + b"}\n")
    @example(b'{"id": "p", "title": "\\ud800 lone surrogate.", "ipc_codes": ["G06N"]}\n')
    @example(b"\xff\xfe\x00\n\r\n\x00{}\n")
    def test_random_bytes(self, data):
        load_corpus_bytes(data)

    @settings(max_examples=200, deadline=None)
    @given(flips, st.integers(0, len(VALID_CORPUS)))
    def test_flipped_and_truncated_valid_file(self, flips, keep):
        load_corpus_bytes(flip(VALID_CORPUS, flips)[:keep])

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(max_size=2000),
                     st.tuples(flips, st.integers(0, len(VALID_CORPUS)))
                     .map(lambda fk: flip(VALID_CORPUS, fk[0])[:fk[1]])))
    @example(VALID_CORPUS + VALID_CORPUS)  # every record again, each a duplicate id
    @example(b"[" * 100_000 + b"\n" + VALID_CORPUS)
    def test_iterator_yields_the_loaded_list(self, data):
        iterate_corpus_bytes(data)


class TestLoadCheckpoint:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(max_size=600),
                     st.binary(max_size=600).map(lambda b: MAGIC + struct.pack("<I", VERSION) + b)))
    def test_random_bytes(self, data):
        load_checkpoint_bytes(data)

    @settings(max_examples=300, deadline=None)
    @given(flips, st.booleans(), st.integers(0, len(VALID_CHECKPOINT)))
    @example([(FIRST_CODE, 0xFF)], True, len(VALID_CHECKPOINT))  # first code not UTF-8
    @example([(FIRST_CODE + 6 + i, ord(a) ^ ord(g)) for i, (a, g) in enumerate(zip("A01B", "G06N"))],
             True, len(VALID_CHECKPOINT))  # both codes "A01B"
    def test_flipped_and_truncated_valid_file(self, flips, fix_crc, keep):
        blob = flip(VALID_CHECKPOINT, flips)
        if fix_crc:
            blob = with_fixed_crc(blob)
        load_checkpoint_bytes(blob[:keep])
