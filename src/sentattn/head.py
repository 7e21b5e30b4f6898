"""Label-wise sentence attention head: attention pooling, scoring, BCE.

For each label i the head computes attention weights over a document's
sentence columns, alpha[i] = softmax_j(tanh(s_i . d_j)), pools them into a
label representation l_i = sum_j alpha[i][j] d_j, and scores the label with
its own linear map, score_i = sigmoid(w_i . l_i + b_i). A label is
predicted when its score strictly exceeds the threshold.

The tanh squashing caps attention logits to [-1, 1], so no sentence can
outweigh another by more than a factor of e^2. Softmax runs over each
document's sentences with max-subtraction; the BCE loss works on logits,
never on stored sigmoid outputs. With S = 0 every logit is tanh(0) = 0 and
alpha is exactly 1/k: the uniform-pooling ablation is this head with S held
at zero, not a separate path.

`head_forward` runs the whole chain over a batch in one pass: the
documents' columns side by side, each document's softmax a segment of
columns, reduced by np.maximum.reduceat and np.add.reduceat from its first
column, whatever the number of documents. Since w_i is linear, w_i . l_i
is the alpha-weighted sum of w_i . d_j, so each logit is a segment sum too
and no l_i is built. The cache keeps what `head_backward` reads, which
adds each gradient into the caller's arrays of the tensors' shapes, S's
only when they hold S, so the ablation's frozen S is never stepped.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .encoder import CacheMismatch, ShapeMismatch, TensorSet, TensorSpec, init_tensors


@dataclass
class HeadParams(TensorSet):
    S: np.ndarray  # attention vectors, row i for label i
    W: np.ndarray  # per-label classifier weights
    b: np.ndarray

    @staticmethod
    def spec(c: int, h: int) -> TensorSpec:
        return [("S", (c, h)), ("W", (c, h)), ("b", (c,))]


def init_head(c: int, h: int, rng: np.random.Generator, dtype: np.dtype | type = np.float32) -> HeadParams:
    """Seeded init matching the encoders: uniform weights, zero biases."""
    return init_tensors(HeadParams, HeadParams.spec(c, h), rng, dtype)


@dataclass
class HeadCache:
    D: np.ndarray       # (h, K): the batch's sentence columns
    bounds: np.ndarray  # n + 1 offsets: document d owns the columns bounds[d]:bounds[d + 1]
    zt: np.ndarray      # (c, K) tanh(S @ D)
    alpha: np.ndarray   # (c, K): each document's own softmax over its columns
    Y: np.ndarray       # (c, K) W @ D: each label's map applied to each sentence
    pooled: np.ndarray  # (n, c) w_i . l_i: each document's alpha-weighted sum of Y
    logits: np.ndarray  # (n, c) pooled + b
    scores: np.ndarray  # (n, c)


def predict(scores: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Multi-label decision: bit i = 1 iff score[i] > threshold, strictly."""
    return (scores > threshold).astype(np.int8)


def bce_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean-over-labels binary cross-entropy, computed stably from logits, summed over documents.

    Uses max(t,0) - t*y + log(1 + exp(-|t|)) per label; no log of a stored
    sigmoid output ever happens. The last axis holds the labels; each
    document's mean is taken over it.
    """
    if logits.shape != targets.shape:
        raise ShapeMismatch(f"logits {logits.shape} against targets {targets.shape}")
    t = logits.astype(np.float64)
    y = targets.astype(np.float64)
    per_label = np.maximum(t, 0.0) - t * y + np.log1p(np.exp(-np.abs(t)))
    return float(per_label.mean(axis=-1).sum())


def _sigmoid(t):
    # z = exp(t) below zero and exp(-t) above it, and never overflows
    z = np.exp(-np.abs(t))
    return np.where(t >= 0, 1, z) / (1 + z)


def _segments(bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each document's first column and its column count."""
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _attention(zt: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Each row of zt (c x K) softmaxed over each document's own columns, shifted by their max."""
    starts, counts = _segments(bounds)
    e = np.repeat(np.maximum.reduceat(zt, starts, axis=1), counts, axis=1)
    np.subtract(zt, e, out=e)
    np.exp(e, out=e)
    return np.divide(e, np.repeat(np.add.reduceat(e, starts, axis=1), counts, axis=1), out=e)


def head_forward(D: np.ndarray, params: HeadParams, bounds: Sequence[int] | None = None) -> HeadCache:
    """The whole chain over a batch's D (h x K): attention, logits (n x c) and scores.

    `bounds` holds the documents' column offsets, from 0 to K (None: D is
    one document). Attention is a softmax over each document's own
    columns. Since w_i is linear, w_i . l_i = sum_j alpha[i][j] (w_i . d_j):
    each document's logits are segment sums of alpha * Y, Y = W @ D, so no
    product runs per document and no label representation is built.
    """
    S = params.S
    if params.W.shape != S.shape or params.b.shape != S.shape[:1]:
        raise ShapeMismatch(f"W {params.W.shape} and b {params.b.shape} against S {S.shape}")
    if D.ndim != 2 or S.ndim != 2 or S.shape[1] != D.shape[0]:
        raise ShapeMismatch(f"S {S.shape} against D {D.shape}")
    bounds = np.array([0, D.shape[1]]) if bounds is None else np.asarray(bounds)
    zt = np.tanh(S @ D)
    alpha = _attention(zt, bounds)
    Y = params.W @ D
    pooled = np.add.reduceat(alpha * Y, bounds[:-1], axis=1).T
    logits = pooled + params.b
    return HeadCache(D=D, bounds=bounds, zt=zt, alpha=alpha, Y=Y, pooled=pooled, logits=logits,
                     scores=_sigmoid(logits))


def head_backward(
    params: HeadParams, cache: HeadCache, targets: np.ndarray, sums: dict[str, np.ndarray]
) -> np.ndarray:
    """Add the exact BCE gradients w.r.t. S, W, b, summed over the batch, into `sums`; return dD.

    Chains through the sigmoid (dlogit_i = (score_i - y_i)/c), the
    per-label linear maps, the convex pooling, each document's softmax
    Jacobian and the tanh. targets is (n, c), one row per document. `sums`
    maps each tensor's name to an array of its shape; a `sums` without "S"
    (the frozen S of the uniform ablation) gets no S gradient.
    """
    c = params.S.shape[0]
    if targets.shape != cache.scores.shape or targets.shape[-1] != c:
        raise CacheMismatch(f"targets {targets.shape} against {cache.scores.shape[0]} documents and c={c}")
    K = cache.alpha.shape[1]
    if cache.D.shape[1] != K or cache.bounds[-1] != K:
        raise CacheMismatch("cache is internally inconsistent")
    dlogits = (cache.scores - targets.astype(cache.scores.dtype)) / c
    counts = _segments(cache.bounds)[1]
    # each c x K product is built in place, so few are held at once
    dY = np.repeat(dlogits.T, counts, axis=1)
    dY *= cache.alpha  # also the weight of each d_j in dL
    # dalpha = g * Y, g each sentence's dlogits, so sum_j alpha_j dalpha_j = g * pooled, and
    # dpre = alpha * (dalpha - g * pooled) * (1 - zt^2) = dY * (Y - pooled) * (1 - zt^2)
    dpre = np.repeat(cache.pooled.T, counts, axis=1)
    np.subtract(cache.Y, dpre, out=dpre)
    dpre *= dY
    slope = np.square(cache.zt)
    dpre *= np.subtract(1.0, slope, out=slope)
    del slope
    if "S" in sums:
        sums["S"] += dpre @ cache.D.T
    sums["W"] += dY @ cache.D.T
    sums["b"] += dlogits.sum(axis=0)
    dD = params.S.T @ dpre
    del dpre
    dD += params.W.T @ dY
    return dD
