import importlib.util
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentattn.corpus import (
    SPLIT_NAMES,
    FileUnreadable,
    LabelVocabulary,
    LoadReport,
    MalformedIpc,
    NoLabels,
    PatentRecord,
    build_vocabulary,
    encode_labels,
    load_corpus,
    parse_ipc,
    split_of,
    split_records,
)
from sentattn import corpus as corpus_mod
from sentattn.cli import main
from sentattn.hashing import fnv1a64, stable_hash64
from sentattn.synth import write_jsonl

from conftest import record_line, write_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# frozen from the pinned FNV-1a definition, computed independently
STABLE_HASH_PINS = {
    (42, "p0"): 5373429318438151495,
    (7, "abc"): 54728130322915206,
}


def valid_codes():
    return st.tuples(
        st.sampled_from("ABCDEFGH"),
        st.integers(0, 9),
        st.integers(0, 9),
        st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ"),
    ).map(lambda t: f"{t[0]}{t[1]}{t[2]}{t[3]}")


class TestParseIpc:
    def test_fig1_form(self):
        assert parse_ipc("B82Y 20/00") == "B82Y"

    def test_compact_and_bare_forms(self):
        assert parse_ipc("B82Y20/00") == "B82Y"
        assert parse_ipc("B82Y") == "B82Y"

    def test_lowercase_uppercased(self):
        assert parse_ipc("b82y") == "B82Y"

    @pytest.mark.parametrize("raw", ["Z99X 1/00", "I01A", "B8Y2", "", "B8", "8B2Y"])
    def test_malformed_rejected(self, raw):
        with pytest.raises(MalformedIpc):
            parse_ipc(raw)

    @given(valid_codes(), st.sampled_from(["", " 20/00", "20/00", " 1/08", "  7/12"]))
    def test_idempotent_on_canonical(self, code, suffix):
        parsed = parse_ipc(code + suffix)
        assert parsed == code
        assert parse_ipc(parsed) == parsed


def load_corpus_oracle(data: bytes) -> tuple[list[PatentRecord], LoadReport]:
    """load_corpus over the whole file split at LF, each piece judged as one line."""
    report = LoadReport()
    records, seen_ids = [], set()
    for line in data.split(b"\n"):
        if not line.strip():
            continue
        report.read += 1
        try:
            obj = json.loads(line.decode("utf-8"))
        except ValueError:
            report.skip("corrupt_line")
            continue
        record = corpus_mod._record_from_obj(obj, seen_ids, report)
        if record is not None:
            report.malformed_codes += record.malformed_codes
            records.append(record)
            report.retained += 1
    return records, report


def _record_bytes(i: int, title: str, codes: list[str]) -> bytes:
    return json.dumps({"id": f"p{i}", "title": title, "abstract": "It works.", "ipc_codes": codes},
                      ensure_ascii=False).encode("utf-8")


corpus_lines = st.one_of(
    st.builds(_record_bytes, st.integers(0, 3), st.text(max_size=80),
              st.lists(st.sampled_from(["G06N 3/00", "H04L", "ZZZZ"]), max_size=3)),
    st.sampled_from([
        b"", b" ", b"\t \x0b\x0c", b"\r",  # blank lines, CR left by a CRLF
        b"{not json",
        b'{"id": "p\xff7", "title": "t", "ipc_codes": ["G06N"]}',  # invalid UTF-8
        b'{"id": "p8", "title": "\\ud800 lone.", "ipc_codes": ["G06N"]}',  # lone-surrogate escape
        _record_bytes(9, "Long. " * 200, ["B82Y"]),
    ]),
)


class TestLoadCorpus:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(corpus_lines, st.sampled_from([b"\n", b"\r\n"])), max_size=8),
           st.booleans(), st.sampled_from([2, 3, 7, 64]))
    def test_lines_that_straddle_the_read_buffer(self, lines, last_lf, buffer):
        data = b"".join(line + eol for line, eol in lines)
        if lines and not last_lf:
            data = data[: -len(lines[-1][1])]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = Path(tmp) / "c.jsonl"
            path.write_bytes(data)
            mp.setattr(corpus_mod, "_READ_BUFFER", buffer)
            records, report = load_corpus(path)
        assert (records, report) == load_corpus_oracle(data)

    def test_valid_file(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [record_line(f"p{i}", ["G06N"]) for i in range(3)])
        records, report = load_corpus(path)
        assert len(records) == 3
        assert (report.read, report.retained, report.total_skipped) == (3, 3, 0)

    def test_corrupt_line_counted_not_fatal(self, tmp_path):
        lines = [record_line(f"p{i}", ["G06N"]) for i in range(5)]
        lines[2] = "{not json"
        path = write_corpus(tmp_path / "c.jsonl", lines)
        records, report = load_corpus(path)
        assert len(records) == 4
        assert report.skipped == {"corrupt_line": 1}

    def test_json_that_is_not_an_object_is_a_corrupt_line(self, tmp_path):
        lines = [record_line("p0", ["G06N"]), "[1, 2]", '"text"', "3", record_line("p1", ["G06N"])]
        records, report = load_corpus(write_corpus(tmp_path / "c.jsonl", lines))
        assert [r.id for r in records] == ["p0", "p1"]
        assert (report.read, report.retained) == (5, 2)
        assert report.skipped == {"corrupt_line": 3}

    def test_invalid_utf8_byte_is_one_corrupt_line(self, tmp_path):
        lines = [record_line(f"p{i}", ["G06N"]) for i in range(5)]
        blob = "\n".join(lines).encode("utf-8").replace(b"p2", b"p\xff2")
        path = tmp_path / "c.jsonl"
        path.write_bytes(blob + b"\n")
        records, report = load_corpus(path)
        assert [r.id for r in records] == ["p0", "p1", "p3", "p4"]
        assert (report.read, report.retained) == (5, 4)
        assert report.skipped == {"corrupt_line": 1}

    def test_crlf_line_endings(self, tmp_path):
        lines = [record_line(f"p{i}", ["G06N"], title="A T\u00e9st. It w\u00f6rks.") for i in range(3)]
        path = tmp_path / "c.jsonl"
        path.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode("utf-8"))
        records, report = load_corpus(path)
        assert [r.id for r in records] == ["p0", "p1", "p2"]
        assert records[0].title == "A T\u00e9st. It w\u00f6rks."
        assert (report.read, report.retained, report.total_skipped) == (3, 3, 0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        records, report = load_corpus(path)
        assert records == []
        assert (report.read, report.retained, report.total_skipped) == (0, 0, 0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileUnreadable):
            load_corpus(tmp_path / "nope.jsonl")

    def test_skip_reasons(self, tmp_path):
        lines = [
            record_line("ok", ["G06N"]),
            json.dumps({"title": "no id", "ipc_codes": []}),
            record_line("ok", ["G06N"]),  # duplicate id
            json.dumps({"id": "empty", "title": "", "abstract": " ", "ipc_codes": ["G06N"]}),
            json.dumps({"id": "badipc", "title": "t", "ipc_codes": "G06N"}),
        ]
        records, report = load_corpus(write_corpus(tmp_path / "c.jsonl", lines))
        assert [r.id for r in records] == ["ok"]
        assert report.skipped == {"bad_id": 1, "duplicate_id": 1, "no_text": 1, "bad_ipc": 1}

    @pytest.mark.parametrize("field, reason", [
        ("id", "bad_id"), ("title", "bad_field"), ("abstract", "bad_field"),
        ("description", "bad_field"), ("ipc_codes", "bad_ipc"),
    ])
    @pytest.mark.parametrize("surrogate", ["\ud800", "\udc00"], ids=["high", "low"])
    def test_lone_surrogate_is_refused_by_its_field(self, tmp_path, field, reason, surrogate):
        obj = {"id": "p1", "title": "A Tést.", "abstract": "It works.",
               "description": "Long text.", "ipc_codes": ["G06N 3/00"]}
        obj[field] = ["G06N" + surrogate] if field == "ipc_codes" else "bad" + surrogate
        line = json.dumps(obj)  # escapes the surrogate as \ud800, which the decoder accepts
        assert "\\u" in line
        records, report = load_corpus(write_corpus(tmp_path / "c.jsonl", [line, record_line("p2", ["G06N"])]))
        assert [r.id for r in records] == ["p2"]
        assert report.skipped == {reason: 1}

    def test_malformed_codes_counted(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [record_line("p1", ["G06N", "ZZZZ"])])
        _, report = load_corpus(path)
        assert report.malformed_codes == 1

    def test_each_code_parsed_once(self, tmp_path, monkeypatch):
        import sentattn.corpus as corpus_mod

        calls = []
        monkeypatch.setattr(corpus_mod, "parse_ipc", lambda raw: calls.append(raw) or parse_ipc(raw))
        lines = [record_line("p1", ["G06N 3/00", "ZZZZ", "H04L"]), record_line("p2", ["G06N"])]
        records, report = load_corpus(write_corpus(tmp_path / "c.jsonl", lines))
        assert calls == ["G06N 3/00", "ZZZZ", "H04L", "G06N"]
        assert report.malformed_codes == 1
        vocab = build_vocabulary(records, top_c=5)
        for r in records:
            encode_labels(r, vocab)
        assert records[0].normalized_codes() == ["G06N", "H04L"]
        assert len(calls) == 4


class TestBuildVocabulary:
    def test_toy_multiset(self, toy_records):
        vocab = build_vocabulary(toy_records, top_c=2)
        assert vocab.codes == ["G06N", "H04L"]
        assert vocab.counts == [3, 2]

    def test_lexicographic_tie_break(self):
        records = [
            PatentRecord(id="1", title="t", ipc_codes=["B01C"]),
            PatentRecord(id="2", title="t", ipc_codes=["B01C", "A01B"]),
            PatentRecord(id="3", title="t", ipc_codes=["A01B"]),
        ]
        assert build_vocabulary(records, top_c=1).codes == ["A01B"]

    def test_cap_above_distinct_count(self, toy_records):
        assert len(build_vocabulary(toy_records, top_c=50)) == 3

    def test_no_labels(self):
        with pytest.raises(NoLabels):
            build_vocabulary([PatentRecord(id="1", title="t", ipc_codes=["bogus"])], top_c=5)

    @given(st.permutations(range(6)))
    def test_permutation_invariance(self, order):
        records = [
            PatentRecord(id=str(i), title="t", ipc_codes=codes)
            for i, codes in enumerate([["G06N"], ["G06N"], ["H04L"], ["H04L", "G06N"], ["B82Y"], ["C07D"]])
        ]
        base = build_vocabulary(records, top_c=4)
        shuffled = build_vocabulary([records[i] for i in order], top_c=4)
        assert shuffled.codes == base.codes
        assert shuffled.counts == base.counts


class TestEncodeLabels:
    VOCAB = LabelVocabulary(codes=["G06N", "B82Y", "H04L"])

    def test_bits_align_with_vocab_order(self):
        record = PatentRecord(id="1", title="t", ipc_codes=["B82Y", "G06N"])
        assert encode_labels(record, self.VOCAB).tolist() == [1, 1, 0]

    def test_duplicates_collapse(self):
        record = PatentRecord(id="1", title="t", ipc_codes=["B82Y", "B82Y 20/00"])
        assert encode_labels(record, LabelVocabulary(codes=["B82Y"])).tolist() == [1]

    def test_out_of_vocab_dropped(self):
        record = PatentRecord(id="1", title="t", ipc_codes=["C07D"])
        assert encode_labels(record, LabelVocabulary(codes=["G06N", "B82Y"])) is None

    def test_retained_records_have_a_positive(self, toy_records):
        vocab = build_vocabulary(toy_records, top_c=2)
        for record in toy_records:
            bits = encode_labels(record, vocab)
            assert bits is None or bits.sum() >= 1


class TestSplitDataset:
    def test_hash_pins(self):
        for (seed, ident), expected in STABLE_HASH_PINS.items():
            assert stable_hash64(seed, ident) == expected
        assert fnv1a64(b"") == 0xCBF29CE484222325

    def test_frozen_bucket_counts(self):
        # independently computed with the pinned hash before the build
        counts = Counter(split_of(42, f"p{i}") for i in range(10000))
        assert counts == {"train": 7980, "validation": 1010, "test": 1010}

    def test_order_independence(self):
        records = [PatentRecord(id=f"id{i}", title="t") for i in range(200)]
        for name in SPLIT_NAMES:
            forward = list(split_records(records, 7, name))
            assert list(split_records(records[::-1], 7, name)) == forward[::-1]

    def test_single_id_lands_in_one_set(self):
        records = [PatentRecord(id="only", title="t")]
        assert [name for name in SPLIT_NAMES if list(split_records(records, 0, name))] == [split_of(0, "only")]

    def test_empty_input(self):
        for name in (*SPLIT_NAMES, "all"):
            assert list(split_records([], 0, name)) == []

    @settings(max_examples=25)
    @given(st.lists(st.text(min_size=1, max_size=12), max_size=60), st.integers(0, 2**63))
    def test_disjoint_and_exhaustive(self, ids, seed):
        """The three parts partition the records, keep input order, and agree with split_of."""
        records = [PatentRecord(id=rid, title="t") for rid in ids]
        position = {id(record): i for i, record in enumerate(records)}
        placed = []
        for name in SPLIT_NAMES:
            part = list(split_records(records, seed, name))
            where = [position[id(record)] for record in part]
            assert where == sorted(where)
            assert all(split_of(seed, record.id) == name for record in part)
            placed += where
        assert sorted(placed) == list(range(len(records)))
        assert split_records(records, seed, "all") is records

    def test_yields_as_the_records_come(self):
        """The seed and name are checked before a record is read; then a record is read per answer."""
        def unread():
            raise AssertionError("a record was read")
            yield

        for seed, name in ((-1, "train"), (0, "dev")):
            with pytest.raises(ValueError):
                split_records(unread(), seed, name)
        records = [PatentRecord(id=f"id{i}", title="t") for i in range(20)]
        pulled = []

        def source():
            for record in records:
                pulled.append(record)
                yield record

        first = next(iter(split_records(source(), 7, "train")))
        assert pulled == records[: records.index(first) + 1]

    @pytest.mark.parametrize("seed, name, match", [
        (0, "dev", "unknown split name"), (0, "", "unknown split name"),
        (-1, "train", "non-negative"), (-1, "all", "non-negative"),
    ])
    def test_refused_arguments(self, toy_records, seed, name, match):
        with pytest.raises(ValueError, match=match):
            split_records(toy_records, seed, name)

    def test_benchmark_inputs_use_the_same_rule(self):
        """perfbench/inputs.py keeps its own copy of the bucket rule; it must pick ids split_of agrees with."""
        spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        for seed in (0, 5, 42, 2**63):
            for base in (f"doc{i}" for i in range(40)):
                for part, name in enumerate(SPLIT_NAMES):
                    rid = inputs._id_in_split(base, seed, part)
                    assert split_of(seed, rid) == name


class TestLabelStats:
    """The per-code counts `stats` reports are `build_vocabulary`'s: each record counts once per code."""

    def stats_counts(self, capsys, path, *flags):
        code = main(["stats", str(path), *flags])
        assert code == 0
        return json.loads(capsys.readouterr().out)["counts"]

    def test_toy_counts(self, capsys, toy_records, tmp_path):
        write_jsonl(toy_records, tmp_path / "toy.jsonl")
        assert self.stats_counts(capsys, tmp_path / "toy.jsonl", "--top-c", "2") == {"G06N": 3, "H04L": 2}

    def test_duplicate_codes_count_once(self, capsys, tmp_path):
        path = write_corpus(tmp_path / "dup.jsonl", [record_line("1", ["G06N", "G06N 3/00"])])
        assert self.stats_counts(capsys, path) == {"G06N": 1}


def test_vocabulary_against_brute_force_oracle():
    rng = np.random.default_rng(3)
    sections = "ABCDEFGH"
    pool = [f"{sections[i % 8]}{i % 10}{(i * 7) % 10}{chr(65 + i % 26)}" for i in range(30)]
    records = []
    for i in range(1000):
        n = int(rng.integers(1, 4))
        codes = [pool[int(j)] for j in rng.integers(0, len(pool), size=n)]
        records.append(PatentRecord(id=f"r{i}", title="t", ipc_codes=codes))
    oracle = Counter()
    for r in records:
        oracle.update({parse_ipc(c) for c in r.ipc_codes})
    expected = sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    vocab = build_vocabulary(records, top_c=10)
    assert list(zip(vocab.codes, vocab.counts)) == expected
