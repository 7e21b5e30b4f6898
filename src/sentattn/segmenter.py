"""Rule-based sentence segmentation and hashing tokenization.

The boundary rule set is pinned so segmentation is bit-exact everywhere:
a sentence ends at [.!?], optionally followed by a closing quote or
bracket, then whitespace, then an ASCII uppercase letter or digit.
A terminator ending a listed abbreviation (matched case-insensitively)
never splits. Nor does one between two digits, such as the point of
"3.14": the boundary pattern needs whitespace right after the terminator
and its closing marks, so a digit there never matches.

Preprocessing is linear in the text it keeps. One scanner,
`sentence_spans`, yields each sentence's [start, end) span and reads the
text only up to the end of the k_max-th sentence; `prepare_documents`
slices the spans itself, and `segment` wraps them in `Sentence` objects
for the CLI `segment` command. The abbreviation check runs only where the
char before the terminator is the last letter of a listed abbreviation, in
either case. Only the first sentence and the tail are trimmed: every other
sentence starts at the uppercase letter or digit after a boundary and ends
at its terminator or closing mark.

Tokenization splits a lowercased sentence on whitespace into at most
t_max - 2 words and keeps the first t_max - 2 tokens of them. A word that
is all alphanumeric is one token, and one that is alphanumeric but for a
single trailing mark is two; only the other words are split further, and
only as far as t_max - 2 tokens.

Tokens are mapped into a fixed id space by FNV-1a hashing instead of a
learned vocabulary. Ids 0-3 are reserved (PAD, CLS, SEP, UNK) and UNK is
unreachable under hashing. `token_ids` tokenizes a whole document's
sentences into one id array and each sentence's id count. A word is split
and hashed once per process: one module-level memo maps it to the ids of
its tokens, for the current (t_max, v_buckets), and is rebuilt when they
change. It keeps only words of at most 64 chars, and is cleared when it
holds 65,536 words or 262,144 ids, so its memory stays bounded.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .hashing import token_bucket

PAD_ID = 0
CLS_ID = 1
SEP_ID = 2
UNK_ID = 3

ABBREVIATIONS = ("Fig.", "No.", "U.S.", "e.g.", "i.e.", "et al.", "vs.", "etc.")
_ABBREVIATIONS_LOWER = tuple(a.lower() for a in ABBREVIATIONS)
# Lowercasing never maps a char to fewer than one char, so the last
# len(abbr) + 1 chars of a lowercased prefix come from at most that many
# source chars; a final-sigma change near the window's start stays non-ASCII
# and alphanumeric.
_ABBREVIATION_WINDOW = max(len(a) for a in ABBREVIATIONS) + 1
# the chars whose lowercase ends in a listed abbreviation's last letter
_ABBREVIATION_ENDS = frozenset("".join(a[-2] + a[-2].swapcase() for a in ABBREVIATIONS))

# terminator, optional closing quotes/brackets, whitespace, then upper/digit
_BOUNDARY_RE = re.compile(r'([.!?])(["\'”’)\]}]*)(\s+)(?=[A-Z0-9])')
# one token: an alphanumeric run up to the word's last alphanumeric char, or
# any other single non-space char; [^\W_] is exactly str.isalnum and \s is
# exactly str.isspace
_TOKEN_RE = re.compile(r"[^\W_](?:\S*[^\W_])?|\S")
# the word memo keeps words of at most this many chars, and at most this many
# words and ids. 65,536 short words take about 10 MB; the ids bound holds the
# memo near that when every word is 64 chars of punctuation, whose ids take
# about 2.4 kB a word at t_max = 64
_MEMO_WORD_CHARS = 64
_MEMO_WORDS = 1 << 16
_MEMO_IDS = 1 << 18


class EmptyText(Exception):
    """Input text contains no non-whitespace character."""


@dataclass(frozen=True)
class Sentence:
    """One sentence with its [start, end) character span in the source text."""

    text: str
    start: int
    end: int


def _is_abbreviation(text: str, term_pos: int) -> bool:
    """True when the terminator at term_pos ends a listed abbreviation."""
    window = text[max(0, term_pos + 1 - _ABBREVIATION_WINDOW) : term_pos + 1].lower()
    if not window.endswith(_ABBREVIATIONS_LOWER):  # the common miss, in one call
        return False
    for abbr in _ABBREVIATIONS_LOWER:
        if not window.endswith(abbr):
            continue
        before = len(window) - len(abbr) - 1
        if before < 0 or not window[before].isalnum():
            return True
    return False


def _trimmed(text: str, start: int, end: int) -> tuple[int, int]:
    """[start, end) without leading and trailing whitespace."""
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


def sentence_spans(text: str, k_max: int) -> list[tuple[int, int]]:
    """The [start, end) spans of at most k_max sentences under the pinned rule set.

    Nonempty text that yields no boundary comes back as a single span;
    whitespace-only input raises EmptyText. Stops reading at the end of the
    k_max-th sentence.
    """
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    if not text or text.isspace():
        raise EmptyText("text has no non-whitespace character")
    spans: list[tuple[int, int]] = []
    start = 0
    for match in _BOUNDARY_RE.finditer(text):
        term_pos = match.start(1)
        # at term_pos 0 this reads text[-1], and _is_abbreviation finds no letter before the point
        if text[term_pos - 1] in _ABBREVIATION_ENDS and _is_abbreviation(text, term_pos):
            continue
        # a sentence holds its terminator, and after a boundary it starts at [A-Z0-9]
        spans.append((start, match.end(2)) if spans else _trimmed(text, start, match.end(2)))
        if len(spans) == k_max:
            return spans
        start = match.end()
    spans.append(_trimmed(text, start, len(text)))
    return spans


def segment(text: str, k_max: int) -> list[Sentence]:
    """Split text into at most k_max sentences: `sentence_spans` as Sentence objects."""
    return [Sentence(text[start:end], start, end) for start, end in sentence_spans(text, k_max)]


def _word_tokens(word: str, need: int) -> list[str]:
    """The first `need` tokens of a whitespace-free word that is not all alphanumeric.

    Each char before the first alphanumeric one is a token, then the run up
    to the last alphanumeric char, then each char after it. That is
    `_TOKEN_RE` over the word, scanned only as far as the tokens still needed.
    A word whose tail is not alphanumeric still costs time linear in its
    length: its core token runs to the word's last alphanumeric char, and
    finding that char reads the whole word. The memo never keeps a word that
    long, so each occurrence pays again; the cost stays linear in the kept
    text. A scan built on `rstrip` was slower on a long alphanumeric word.
    """
    lead = 0
    while lead < need and lead < len(word) and not word[lead].isalnum():
        lead += 1
    if lead >= need or lead == len(word):
        return list(word[:lead])
    core = _TOKEN_RE.match(word, lead).end()
    return [*word[:lead], word[lead:core], *word[core : core + need - lead - 1]]


class _WordIds(dict):
    """Lowercased whitespace word -> the ids of its first t_max - 2 tokens, at one dims pair.

    A miss splits and hashes the word. Only words of at most `_MEMO_WORD_CHARS`
    chars are kept, and the memo is cleared when it holds `_MEMO_WORDS` words
    or `_MEMO_IDS` ids.
    """

    def __init__(self, t_max: int, v_buckets: int):
        super().__init__()
        self.dims = (t_max, v_buckets)
        self.held = 0  # ids in the kept tuples

    def __missing__(self, word: str) -> tuple[int, ...]:
        t_max, v_buckets = self.dims
        if word.isalnum():
            ids = (token_bucket(word, v_buckets),)
        # one trailing mark, as in "said."; word[-2] first, so "a))...)" is never copied
        elif word[0].isalnum() and word[-2].isalnum() and word[:-1].isalnum():
            ids = (token_bucket(word[:-1], v_buckets), token_bucket(word[-1], v_buckets))
        else:
            ids = tuple([token_bucket(token, v_buckets) for token in _word_tokens(word, t_max - 2)])
        if len(word) <= _MEMO_WORD_CHARS:
            if len(self) >= _MEMO_WORDS or self.held + len(ids) > _MEMO_IDS:
                self.clear()
                self.held = 0
            self.held += len(ids)
            self[word] = ids
        return ids


_word_ids = _WordIds(0, 0)


def token_ids(texts: Iterable[str], t_max: int, v_buckets: int) -> tuple[np.ndarray, list[int]]:
    """Hash sentences into one array of CLS ... SEP id runs, plus each run's length.

    Each sentence is lowercased and split on whitespace; leading and
    trailing punctuation detaches from a word as separate tokens, and the
    first t_max - 2 tokens are kept. Each word's ids come from the word
    memo. Never pads; padding is a batch concern.
    """
    global _word_ids
    if t_max < 3:
        raise ValueError("t_max must be >= 3")
    if v_buckets < 1:
        raise ValueError("v_buckets must be >= 1")
    if _word_ids.dims != (t_max, v_buckets):
        _word_ids = _WordIds(t_max, v_buckets)
    word_ids = _word_ids.__getitem__
    n = t_max - 2
    ids: list[int] = []
    lens: list[int] = []
    for text in texts:
        # every word yields a token, so the first n words hold the first n tokens
        words = text.lower().split(None, n)
        if not words:
            raise ValueError("cannot tokenize an empty sentence")
        start = len(ids)
        ids.append(CLS_ID)
        ids += chain.from_iterable(map(word_ids, words[:n]))
        del ids[start + 1 + n :]
        ids.append(SEP_ID)
        lens.append(len(ids) - start)
    return np.array(ids, dtype=np.int64), lens
