"""Per-sentence meanpool encoder: the loop that the document-level encoder in
`sentattn.encoder` replaced, kept here as its oracle.

Each sentence is encoded on its own, cls = tanh(M @ mean_p(E[id_p] + P[p]) + q),
and the backward pass accumulates dense gradients sentence by sentence in
document order.
"""

from dataclasses import dataclass

import numpy as np

from sentattn.encoder import MeanPoolParams


@dataclass
class SentenceCache:
    ids: np.ndarray
    u: np.ndarray    # mean of input rows, (h,)
    cls: np.ndarray  # (h,)


def encode_sentence(ids: np.ndarray, params: MeanPoolParams) -> tuple[np.ndarray, SentenceCache]:
    X = params.E[ids] + params.P[: len(ids)]
    u = X.mean(axis=0)
    cls = np.tanh(params.M @ u + params.q)
    return cls, SentenceCache(ids=ids, u=u, cls=cls)


def encode_document(sentences: list[np.ndarray], params: MeanPoolParams):
    cols, caches = zip(*(encode_sentence(ids, params) for ids in sentences))
    return np.stack(cols, axis=1), list(caches)


def encoder_backward(params: MeanPoolParams, caches: list[SentenceCache], dD: np.ndarray) -> dict[str, np.ndarray]:
    """Dense gradients of every meanpool tensor."""
    grads = {name: np.zeros_like(t) for name, t in params.named_tensors()}
    for j, cache in enumerate(caches):
        da = dD[:, j] * (1.0 - cache.cls**2)
        grads["M"] += np.outer(da, cache.u)
        grads["q"] += da
        dx = (params.M.T @ da) / len(cache.ids)
        np.add.at(grads["E"], cache.ids, dx)
        grads["P"][: len(cache.ids)] += dx
    return grads
