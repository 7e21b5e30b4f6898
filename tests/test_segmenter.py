import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import segmenter_reference as reference
from sentattn import segmenter
from sentattn.corpus import PatentRecord
from sentattn.encoder import DocLayout
from sentattn.hashing import fnv1a64, token_bucket
from sentattn.segmenter import ABBREVIATIONS, CLS_ID, SEP_ID, EmptyText, segment, token_ids
from sentattn.trainer import document_text, prepare_documents

GOLDEN = json.loads((Path(__file__).parent / "data" / "segmenter_golden.json").read_text())

# frozen FNV-1a bucket ids at v_buckets=32768; pins the hash byte-for-byte
TOKEN_ID_PINS = {"a": 27792, "cat": 9003, ".": 2997, "the": 21888}


@pytest.mark.parametrize("case", GOLDEN, ids=[c["text"][:25] for c in GOLDEN])
def test_golden_file(case):
    got = [s.text for s in segment(case["text"], k_max=128)]
    assert got == case["sentences"]


class TestSegment:
    def test_two_plain_sentences(self):
        assert len(segment("This is A. This is B.", 128)) == 2

    def test_abbreviation_blocks_split(self):
        assert len(segment("See Fig. 2 for details.", 128)) == 1

    def test_decimal_blocks_split(self):
        assert len(segment("Accuracy was 3.14 percent.", 128)) == 1

    def test_no_boundary_single_sentence(self):
        out = segment("just some words without end", 128)
        assert [s.text for s in out] == ["just some words without end"]

    def test_empty_text(self):
        with pytest.raises(EmptyText):
            segment("   \n\t ", 128)

    def test_k_max_truncates_tail(self):
        text = " ".join(f"Sentence number {i} ends. And" for i in range(10))
        assert len(segment(text, 3)) == 3

    def test_spans_point_into_source(self):
        text = "First bit ends. Second bit follows."
        for s in segment(text, 128):
            assert text[s.start : s.end] == s.text

    @settings(max_examples=60)
    @given(st.text(min_size=1, max_size=300), st.integers(1, 20))
    def test_span_and_count_invariants(self, text, k_max):
        if not text.strip():
            with pytest.raises(EmptyText):
                segment(text, k_max)
            return
        out = segment(text, k_max)
        assert 1 <= len(out) <= k_max
        prev_end = -1
        for s in out:
            assert s.text
            assert not s.text[0].isspace() and not s.text[-1].isspace()
            assert s.start >= prev_end
            assert text[s.start : s.end] == s.text
            prev_end = s.end

    @settings(max_examples=60)
    @given(st.text(min_size=1, max_size=300))
    def test_resegmenting_a_sentence_is_stable(self, text):
        if not text.strip():
            return
        for s in segment(text, 64):
            again = segment(s.text, 64)
            assert [x.text for x in again] == [s.text]

    def test_deterministic(self):
        text = "One thing. Another thing! A third? Yes."
        assert segment(text, 128) == segment(text, 128)


class TestTokenize:
    def test_punctuation_detached(self):
        ids = token_ids(["A cat."], t_max=16, v_buckets=32768)[0]
        assert ids.tolist() == [CLS_ID, TOKEN_ID_PINS["a"], TOKEN_ID_PINS["cat"], TOKEN_ID_PINS["."], SEP_ID]

    def test_repeated_token_same_id(self):
        ids = token_ids(["spin spin"], t_max=8, v_buckets=64)[0]
        assert ids[1] == ids[2]

    def test_truncation(self):
        text = " ".join(f"w{i}" for i in range(100))
        ids = token_ids([text], t_max=10, v_buckets=64)[0]
        assert len(ids) == 10
        assert ids[0] == CLS_ID and ids[-1] == SEP_ID
        full = token_ids([text], t_max=256, v_buckets=64)[0]
        assert ids[1:-1].tolist() == full[1 : 1 + 8].tolist()

    def test_wrapping_punctuation(self):
        ids = token_ids(["(cap)."], t_max=16, v_buckets=512)[0]
        bare = token_ids(["( cap ) ."], t_max=16, v_buckets=512)[0]
        assert ids.tolist() == bare.tolist()

    @settings(max_examples=80)
    @given(st.text(min_size=1, max_size=120), st.integers(3, 40), st.integers(1, 5000))
    def test_length_and_reserved_id_invariants(self, text, t_max, v_buckets):
        if not text.split():
            return
        ids = token_ids([text], t_max, v_buckets)[0]
        assert 3 <= len(ids) <= t_max
        assert ids[0] == CLS_ID and ids[-1] == SEP_ID
        assert all(4 <= t < 4 + v_buckets for t in ids[1:-1])

    def test_t_max_floor(self):
        with pytest.raises(ValueError):
            token_ids(["word"], t_max=2, v_buckets=8)


@pytest.fixture
def empty_word_memo(monkeypatch):
    """An empty word memo, so a test sees every miss its own calls make."""
    monkeypatch.setattr(segmenter, "_word_ids", segmenter._WordIds(0, 0))


def outcome(fn, *args):
    """What a call returns, as plain values, or the type of what it raises."""
    try:
        out = fn(*args)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)
    if isinstance(out, list):
        return [(x.text, x.start, x.end) for x in out]
    return out.tolist()


# text assembled from what the boundary, abbreviation, decimal and token rules
# look at, including chars whose lowercase changes length or depends on context
PIECES = (
    *ABBREVIATIONS, *(a.upper() for a in ABBREVIATIONS), "et  al.", "Fig.2",
    ".", "!", "?", "...", '"', "\'", "”", "’", ")", "]", "}", "(", "_",
    " ", "  ", "\n", "\t", "\u00a0", "\u2003",
    "A", "Z", "a", "x", "3", "12", "3.14", "1.", ".5",
    "İ", "Σ", "ΑΣ", "σ", "K", "ß", "I", "word", "Word",
)
assembled = st.lists(st.sampled_from(PIECES), max_size=80).map("".join)
any_text = st.one_of(st.text(max_size=300), assembled)


class TestAgainstReference:
    """The linear segmenter and tokenizer against the full-scan code they replaced."""

    @settings(max_examples=400)
    @given(any_text, st.integers(1, 200))
    @example("", 1)
    @example(" \n\t", 3)
    @example("xİ.e. Then A. B", 2)
    @example("ΑΣ etc. Next one. And more", 1)
    @example("See xet al. Next", 4)
    @example("FIG. 2 shows. X", 3)
    @example("e.G. X", 2)
    @example("İfig. X", 2)
    @example("Fig.) X", 2)
    @example(" \n\t First one. Second one. \n", 5)
    # the scan looks for "." alone up to the first "!" or "?", and for the full rule past it
    @example("One. Two e.g. Three. Four! Five? Six", 2)
    @example("One. Two! Three e.g. Four? Five. Six", 3)
    @example('Is it?" Yes. Why?)] No.\' End', 4)
    @example("First point. Second i.e. point.) Third\n", 5)
    @example("Wow!Now. Next?No. Fig. 2? Yes", 4)
    def test_segment_spans_and_errors_match(self, text, k_max):
        assert outcome(segment, text, k_max) == outcome(reference.segment, text, k_max)

    @settings(max_examples=300)
    @given(st.text(alphabet=st.sampled_from("ab.!? \nAZ19İΣK"), max_size=200), st.integers(1, 5))
    def test_segment_matches_at_small_k_max(self, text, k_max):
        assert outcome(segment, text, k_max) == outcome(reference.segment, text, k_max)

    def test_is_abbreviation_matches_at_every_position(self):
        befores = ("", "x", "3", "_", ".", " ", "İ", "Σ", "ΑΣ", "K", "ß")
        abbrs = (*ABBREVIATIONS, *(a.upper() for a in ABBREVIATIONS))
        text = "".join(PIECES) + " ".join(b + a for a in abbrs for b in befores)
        for pos in range(len(text)):
            assert segmenter._is_abbreviation(text, pos) == reference._is_abbreviation(text, pos), pos

    @settings(max_examples=300)
    @given(any_text, st.integers(3, 40), st.integers(1, 5000))
    @example("((((a))))", 4, 64)
    @example("(" * 500, 10, 64)
    @example("_a_ a_b Σ. ΑΣ.", 16, 512)
    @example("a.", 8, 64)
    @example("ab)", 8, 64)
    @example("(a.", 8, 64)
    @example("a-b.", 8, 64)
    @example("x" * 40 + ".", 8, 64)
    @example("said. said.", 4, 64)
    def test_tokenize_ids_and_errors_match(self, text, t_max, v_buckets):
        ours = outcome(lambda: token_ids([text], t_max, v_buckets)[0])
        assert ours == outcome(reference.tokenize, text, t_max, v_buckets)

    @settings(max_examples=200)
    @given(st.lists(st.one_of(any_text, st.text(" \t\n\u00a0\u2003", max_size=3)), min_size=1,
                    max_size=40), st.integers(3, 40), st.integers(1, 5000))
    @example(["((((a))))", "said. ((((a))))", "a ((((a))))"], 4, 64)
    @example(["(((((((((a", "x))))))))))"], 5, 64)
    @example(["first one.", " \t ", "third"], 8, 64)
    def test_sentence_lists_match_the_reference(self, texts, t_max, v_buckets):
        # a document's ids are its sentences' reference ids one after another,
        # with the same errors; a cap of t_max - 2 may fall inside a word's tokens
        def expected():
            return np.concatenate([reference.tokenize(t, t_max, v_buckets) for t in texts])

        ours = outcome(lambda: token_ids(texts, t_max, v_buckets)[0])
        assert ours == outcome(expected)
        if not isinstance(ours, type):
            ids, lens = token_ids(texts, t_max, v_buckets)
            assert ids.dtype == np.int64 and ids.flags.writeable
            assert lens == [len(reference.tokenize(t, t_max, v_buckets)) for t in texts]


def prepared_layout(text, k_max, t_max, v_buckets):
    """The layout that prepare_documents builds for a record whose text is `text`."""
    docs, _ = prepare_documents([PatentRecord(id="d", title=text)], None, k_max, t_max, v_buckets,
                                require_labels=False)
    return docs[0].layout


def reference_layout(text, k_max, t_max, v_buckets):
    """The layout of the reference tokenizer's ids over the reference segmenter's sentences."""
    text = document_text(PatentRecord(id="d", title=text))
    sentences = [reference.tokenize(s.text, t_max, v_buckets) for s in reference.segment(text, k_max)]
    return DocLayout(np.concatenate(sentences), [len(s) for s in sentences])


def layout_outcome(build, *args):
    """A layout's arrays as plain values, or the type of what building it raises."""
    try:
        layout = build(*args)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)
    return [layout.lens.tolist(), layout.distinct.tolist(), layout.cell.tolist()]


class TestPreparedLayout:
    """prepare_documents' one pass from text to layout against the per-sentence reference."""

    @settings(max_examples=300)
    @given(any_text, st.integers(1, 20), st.integers(3, 40), st.integers(1, 5000))
    @example("", 4, 8, 64)
    @example("(cap). A cat!  Σ_x. 3.14 is İ. ((((", 3, 4, 64)
    @example("w " * 50 + ". Next one.", 2, 6, 512)
    @example(" \n said. (a. e.G. X b) Fig.) Y", 3, 5, 64)
    def test_layout_and_errors_match(self, text, k_max, t_max, v_buckets):
        assert layout_outcome(prepared_layout, text, k_max, t_max, v_buckets) \
            == layout_outcome(reference_layout, text, k_max, t_max, v_buckets)

    @pytest.mark.parametrize("t_max, v_buckets", [(2, 64), (8, 0)])
    def test_refused_dims_raise_as_tokenize_does(self, t_max, v_buckets):
        with pytest.raises(ValueError):
            prepared_layout("A cat.", 4, t_max, v_buckets)

    def test_builds_no_sentence_objects(self, monkeypatch):
        # prepare_documents slices sentence texts from the scanner's spans
        built = []
        real = segmenter.Sentence
        monkeypatch.setattr(segmenter, "Sentence", lambda *args: built.append(args) or real(*args))
        text = " One said. Fig. 2 shows it. Three (a). Four"
        assert prepared_layout(text, 8, 16, 64).lens.tolist() == [5, 8, 7, 3]
        assert built == []
        out = segmenter.segment(text, 8)
        assert len(built) == 4
        assert [(s.start, s.end) for s in out] == segmenter.sentence_spans(text, 8)


class TestBoundedWork:
    """Work counts, not wall-clock times."""

    def test_abbreviation_check_copies_only_a_window(self):
        text = "x" * (1_000_000 - 4) + "e.g."
        peaks = {}
        for name, check in (("new", segmenter._is_abbreviation), ("reference", reference._is_abbreviation)):
            tracemalloc.start()
            try:
                assert check(text, len(text) - 1) is False
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["new"] < 1024
        assert peaks["reference"] > 1_000_000

    def test_segment_stops_at_k_max(self, monkeypatch):
        calls = []
        real = segmenter._trimmed
        monkeypatch.setattr(segmenter, "_trimmed", lambda *args: calls.append(args) or real(*args))
        text = " ".join(f"Sentence number {i} ends here." for i in range(10_000))
        out = segmenter.segment(text, 3)
        assert [s.text for s in out] == [f"Sentence number {i} ends here." for i in range(3)]
        assert len(calls) <= 3

    def test_scanner_stops_at_k_max(self, monkeypatch):
        # every terminator here follows an "e", so each boundary is checked
        calls = []
        real = segmenter._is_abbreviation
        monkeypatch.setattr(segmenter, "_is_abbreviation", lambda *args: calls.append(args) or real(*args))
        text = " ".join(f"Sentence number {i} ends here." for i in range(10_000))
        assert len(segmenter.sentence_spans(text, 3)) == 3
        assert len(calls) == 3

    def test_tokenize_hashes_at_most_t_max_minus_two_tokens(self, monkeypatch, empty_word_memo):
        calls = []
        monkeypatch.setattr(segmenter, "token_bucket", lambda t, v: calls.append(t) or token_bucket(t, v))
        ids = segmenter.token_ids(["(" * 80_000 + " word" * 10_000], t_max=8, v_buckets=64)[0]
        assert len(ids) == 8
        # the long word is split only as far as 6 tokens; the 5 kept "word"s are
        # looked up, and the first of them hashed
        assert calls == ["("] * 6 + ["word"]

    # the unbounded per-word regex scan took 8.7 MB on the first of these
    @pytest.mark.parametrize("text, hashed", [
        ("(" * 500_000, ["("] * 62),
        ("-" * 100_000 + " word" * 10, ["-"] * 62 + ["word"]),
        ("a" + ")" * 500_000, ["a"] + [")"] * 61),
    ], ids=["open-parens", "dashes-then-words", "word-then-parens"])
    @pytest.mark.parametrize("through", ["tokenize", "prepare_documents"])
    def test_work_inside_one_word_stays_bounded(self, monkeypatch, empty_word_memo, text, hashed, through):
        calls = []
        monkeypatch.setattr(segmenter, "token_bucket", lambda t, v: calls.append(t) or token_bucket(t, v))
        tracemalloc.start()
        try:
            if through == "tokenize":
                lens = segmenter.token_ids([text], t_max=64, v_buckets=64)[1]
            else:
                lens = prepared_layout(text, 8, 64, 64).lens.tolist()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lens == [64]
        assert calls == hashed
        assert peak < 1_000_000, peak

    def test_token_regex_classes_are_the_str_methods(self):
        # token_ids's regex stands in for str.isalnum and str.isspace
        every_char = "".join(map(chr, range(sys.maxunicode + 1)))
        assert "".join(re.findall(r"[^\W_]", every_char)) == "".join(filter(str.isalnum, every_char))
        assert "".join(re.findall(r"\s", every_char)) == "".join(filter(str.isspace, every_char))

    def test_abbreviation_prefilter_is_exact(self):
        # the scanner checks for an abbreviation only after a char in the prefilter
        # set, so that set must hold every char whose lowercase ends in a listed
        # abbreviation's last letter before its closing point
        assert all(a.endswith(".") for a in ABBREVIATIONS)
        last_letters = {a.lower()[-2] for a in ABBREVIATIONS}
        ends = {c for c in map(chr, range(sys.maxunicode + 1)) if c.lower()[-1:] in last_letters}
        assert ends == segmenter._ABBREVIATION_ENDS == set("cCeEgGlLoOsS")


class TestTokenBucketMemo:
    """token_bucket, and the bounded word memo that token_ids serves ids from."""

    def test_memo_returns_the_hash(self):
        for token in ("the", "a", "ß", "σ", "ς", "日本", "x" * 300):
            for v_buckets in (1, 64, 32768):
                expected = 4 + fnv1a64(token.encode("utf-8")) % v_buckets
                assert token_bucket(token, v_buckets) == expected
                assert token_bucket(token, v_buckets) == expected  # the same on a second call

    def test_memo_holds_at_most_65536_words(self, empty_word_memo):
        words = [f"w{i}" for i in range(70_000)]
        ids, lens = token_ids(words, t_max=8, v_buckets=64)
        assert lens == [3] * len(words)
        assert ids[1::3].tolist() == [token_bucket(w, 64) for w in words]
        assert 0 < len(segmenter._word_ids) <= 65_536

    def test_memo_holds_at_most_262144_ids(self, empty_word_memo):
        # 5,000 words of 57 tokens each, 285,000 ids in all
        words = ["(" * 56 + f"{i:08d}" for i in range(5_000)]
        lens = token_ids(words, t_max=64, v_buckets=64)[1]
        assert lens == [59] * len(words)
        held = sum(len(v) // 8 for v in segmenter._word_ids.values())  # 8 bytes an id
        assert 0 < held == segmenter._word_ids.held <= 262_144

    def test_only_words_of_at_most_64_chars_are_kept(self, empty_word_memo):
        token_ids(["x" * 64 + " " + "y" * 65 + " (" + "z" * 63], t_max=16, v_buckets=64)
        assert set(segmenter._word_ids) == {"x" * 64, "(" + "z" * 63}

    def test_a_500k_char_word_is_not_kept(self, empty_word_memo):
        text = "(" * 500_000 + "A"
        tracemalloc.start()
        try:
            ids = token_ids([text], t_max=16, v_buckets=64)[0]
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ids.tolist() == reference.tokenize(text, 16, 64).tolist()
        assert len(segmenter._word_ids) == 0
        assert kept < 100_000, kept

    def test_alternating_dims_never_serve_another_dims_ids(self, empty_word_memo):
        # the first word splits into 13 tokens, so t_max decides how many it keeps
        text = "((((((cap)))))) said. Σ_x ((a)). w"
        for _ in range(3):
            for t_max, v_buckets in ((4, 64), (16, 64), (16, 512), (4, 512), (40, 5000), (16, 64)):
                got = token_ids([text, "Said cap."], t_max, v_buckets)[0].tolist()
                expected = [t for s in (text, "Said cap.") for t in reference.tokenize(s, t_max, v_buckets)]
                assert got == expected, (t_max, v_buckets)
