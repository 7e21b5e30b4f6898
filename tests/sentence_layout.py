"""Test support: layouts of documents given as per-sentence id arrays."""

import numpy as np

from sentattn.encoder import BatchLayout, DocLayout


def layout_of(sentences: list[np.ndarray]) -> DocLayout:
    """The layout of the sentences' ids laid end to end, as prepare_documents builds it."""
    ids = np.concatenate(sentences) if len(sentences) else np.empty(0, dtype=np.int64)
    return DocLayout(ids, [len(s) for s in sentences])


def batch_of(*documents: list[np.ndarray]) -> BatchLayout:
    """The batch of the documents' layouts, in order; each document is a list of sentence id arrays."""
    return BatchLayout([layout_of(sentences) for sentences in documents])
