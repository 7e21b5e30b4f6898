"""The full-scan segmenter and the per-character tokenizer that
`sentattn.segmenter` replaced, kept here as their oracle.

`segment` lowercases the whole prefix for every boundary candidate, tests
every boundary for a decimal point between two digits (which the boundary
pattern already rules out), and scans the whole text before it keeps the
first k_max sentences; `tokenize` strips punctuation one character at a time
and splits every word. They are moved unchanged; only their imports differ.
The boundary pattern and the sentence trimmer are verbatim copies too, so the
oracle does not change when the segmenter's private helpers do. Token ids
come from `token_bucket` per token, so the oracle shares no word memo with
the code under test.
"""

import re

import numpy as np

from sentattn.hashing import token_bucket
from sentattn.segmenter import ABBREVIATIONS, CLS_ID, SEP_ID, EmptyText, Sentence

# terminator, optional closing quotes/brackets, whitespace, then upper/digit
_BOUNDARY_RE = re.compile(r'([.!?])(["\'”’)\]}]*)(\s+)(?=[A-Z0-9])')

_DIGITS = "0123456789"


def _trimmed(text: str, start: int, end: int) -> Sentence | None:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    if start == end:
        return None
    return Sentence(text=text[start:end], start=start, end=end)


def _is_decimal(text: str, term_pos: int) -> bool:
    prev_ok = term_pos > 0 and text[term_pos - 1] in _DIGITS
    next_ok = term_pos + 1 < len(text) and text[term_pos + 1] in _DIGITS
    return text[term_pos] == "." and prev_ok and next_ok


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
