"""Rule-based sentence segmentation and hashing tokenization.

The boundary rule set is pinned so segmentation is bit-exact everywhere:
a sentence ends at [.!?], optionally followed by a closing quote or
bracket, then whitespace, then an ASCII uppercase letter or digit.
A terminator ending a listed abbreviation (matched case-insensitively)
or sitting between two digits never splits.

Preprocessing is linear in the text it keeps: `segment` reads the text only
up to the end of the k_max-th sentence, and `tokenize` stops after the
t_max - 2 tokens it keeps.

Tokens are mapped into a fixed id space by FNV-1a hashing instead of a
learned vocabulary; each distinct token is hashed once and then served from
a bounded memo. Ids 0-3 are reserved (PAD, CLS, SEP, UNK) and UNK is
unreachable under hashing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

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

_DIGITS = "0123456789"
# terminator, optional closing quotes/brackets, whitespace, then upper/digit
_BOUNDARY_RE = re.compile(r'([.!?])(["\'”’)\]}]*)(\s+)(?=[A-Z0-9])')
# one token: an alphanumeric run up to the word's last alphanumeric char, or
# any other single non-space char; [^\W_] is exactly str.isalnum and \s is
# exactly str.isspace
_TOKEN_RE = re.compile(r"[^\W_](?:\S*[^\W_])?|\S")


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
    for abbr in _ABBREVIATIONS_LOWER:
        if not window.endswith(abbr):
            continue
        before = len(window) - len(abbr) - 1
        if before < 0 or not window[before].isalnum():
            return True
    return False


def _is_decimal(text: str, term_pos: int) -> bool:
    prev_ok = term_pos > 0 and text[term_pos - 1] in _DIGITS
    next_ok = term_pos + 1 < len(text) and text[term_pos + 1] in _DIGITS
    return text[term_pos] == "." and prev_ok and next_ok


def _trimmed(text: str, start: int, end: int) -> Sentence | None:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    if start == end:
        return None
    return Sentence(text=text[start:end], start=start, end=end)


def segment(text: str, k_max: int) -> list[Sentence]:
    """Split text into at most k_max sentences under the pinned rule set.

    Nonempty text that yields no boundary comes back as a single sentence;
    whitespace-only input raises EmptyText. Stops reading at the end of the
    k_max-th sentence.
    """
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    if not text or text.isspace():
        raise EmptyText("text has no non-whitespace character")
    sentences: list[Sentence] = []
    start = 0
    for match in _BOUNDARY_RE.finditer(text):
        term_pos = match.start(1)
        if _is_abbreviation(text, term_pos) or _is_decimal(text, term_pos):
            continue
        sentence = _trimmed(text, start, match.end(2))
        if sentence is not None:
            sentences.append(sentence)
            if len(sentences) == k_max:
                return sentences
        start = match.end()
    tail = _trimmed(text, start, len(text))
    if tail is not None:
        sentences.append(tail)
    return sentences


def tokenize(text: str, t_max: int, v_buckets: int) -> np.ndarray:
    """Hash a sentence into a CLS ... SEP id sequence of length <= t_max.

    Lowercases, splits on whitespace, detaches leading/trailing punctuation
    as separate tokens, and keeps the first t_max - 2 interior tokens.
    Never pads; padding is a batch concern.
    """
    if t_max < 3:
        raise ValueError("t_max must be >= 3")
    if v_buckets < 1:
        raise ValueError("v_buckets must be >= 1")
    tokens = islice(_TOKEN_RE.finditer(text.lower()), t_max - 2)
    interior = [token_bucket(m.group(), v_buckets) for m in tokens]
    if not interior:
        raise ValueError("cannot tokenize an empty sentence")
    return np.array([CLS_ID, *interior, SEP_ID], dtype=np.int64)
