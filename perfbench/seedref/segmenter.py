"""Rule-based sentence segmentation and hashing tokenization.

The boundary rule set is pinned so segmentation is bit-exact everywhere:
a sentence ends at [.!?], optionally followed by a closing quote or
bracket, then whitespace, then an ASCII uppercase letter or digit.
A terminator ending a listed abbreviation (matched case-insensitively)
or sitting between two digits never splits.

Tokens are mapped into a fixed id space by FNV-1a hashing instead of a
learned vocabulary; ids 0-3 are reserved (PAD, CLS, SEP, UNK) and UNK is
unreachable under hashing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .hashing import token_bucket

PAD_ID = 0
CLS_ID = 1
SEP_ID = 2
UNK_ID = 3

ABBREVIATIONS = ("Fig.", "No.", "U.S.", "e.g.", "i.e.", "et al.", "vs.", "etc.")

_DIGITS = "0123456789"
# terminator, optional closing quotes/brackets, whitespace, then upper/digit
_BOUNDARY_RE = re.compile(r'([.!?])(["\'”’)\]}]*)(\s+)(?=[A-Z0-9])')


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
    prefix = text[: term_pos + 1].lower()
    for abbr in ABBREVIATIONS:
        abbr = abbr.lower()
        if not prefix.endswith(abbr):
            continue
        before = len(prefix) - len(abbr) - 1
        if before < 0 or not prefix[before].isalnum():
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
    whitespace-only input raises EmptyText.
    """
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    if not text.strip():
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
        start = match.end()
    tail = _trimmed(text, start, len(text))
    if tail is not None:
        sentences.append(tail)
    return sentences[:k_max]


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
    tokens: list[str] = []
    for word in text.lower().split():
        lead = []
        while word and not word[0].isalnum():
            lead.append(word[0])
            word = word[1:]
        trail = []
        while word and not word[-1].isalnum():
            trail.append(word[-1])
            word = word[:-1]
        tokens.extend(lead)
        if word:
            tokens.append(word)
        tokens.extend(reversed(trail))
    if not tokens:
        raise ValueError("cannot tokenize an empty sentence")
    interior = [token_bucket(t, v_buckets) for t in tokens[: t_max - 2]]
    return np.array([CLS_ID, *interior, SEP_ID], dtype=np.int64)
