"""Label-wise sentence attention head: attention pooling, scoring, BCE.

For each label i the head computes attention weights over the document's
sentence columns, alpha[i] = softmax_j(tanh(s_i . d_j)), pools them into a
label representation l_i = sum_j alpha[i][j] d_j, and scores the label with
its own linear map, score_i = sigmoid(w_i . l_i + b_i). A label is
predicted when its score strictly exceeds the threshold.

The tanh squashing caps attention logits to [-1, 1], so no sentence can
outweigh another by more than a factor of e^2. Softmax runs over the
sentence axis with max-subtraction; the BCE loss works on logits, never on
stored sigmoid outputs. With S = 0 every logit is tanh(0) = 0 and alpha
is exactly 1/k: the uniform-pooling ablation is this head with S held at
zero, not a separate path.

`head_forward` runs the whole chain in one pass and keeps alpha, L, the
logits and the scores in its cache, which `head_backward` reads.
"""

from __future__ import annotations

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
    D: np.ndarray       # (h, k)
    zt: np.ndarray      # (c, k) tanh(S @ D)
    alpha: np.ndarray   # (c, k)
    L: np.ndarray       # (c, h)
    logits: np.ndarray  # (c,)
    scores: np.ndarray  # (c,)


def predict(scores: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Multi-label decision: bit i = 1 iff score[i] > threshold, strictly."""
    return (scores > threshold).astype(np.int8)


def bce_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean-over-labels binary cross-entropy, computed stably from logits.

    Uses max(t,0) - t*y + log(1 + exp(-|t|)) per label; no log of a stored
    sigmoid output ever happens.
    """
    if logits.shape != targets.shape:
        raise ShapeMismatch(f"logits {logits.shape} against targets {targets.shape}")
    t = logits.astype(np.float64)
    y = targets.astype(np.float64)
    per_label = np.maximum(t, 0.0) - t * y + np.log1p(np.exp(-np.abs(t)))
    return float(per_label.mean())


def _sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def head_forward(D: np.ndarray, params: HeadParams) -> HeadCache:
    """The whole chain over D (h x k): alpha (c x k), L = alpha @ D.T (c x h), logits, scores.

    All of them stay in the returned cache, which head_backward reads.
    """
    S = params.S
    if params.W.shape != S.shape or params.b.shape != S.shape[:1]:
        raise ShapeMismatch(f"W {params.W.shape} and b {params.b.shape} against S {S.shape}")
    if D.ndim != 2 or S.ndim != 2 or S.shape[1] != D.shape[0]:
        raise ShapeMismatch(f"S {S.shape} against D {D.shape}")
    zt = np.tanh(S @ D)
    e = np.exp(zt - zt.max(axis=1, keepdims=True))  # row softmax, max-subtracted for stability
    alpha = e / e.sum(axis=1, keepdims=True)
    L = alpha @ D.T
    logits = (params.W * L).sum(axis=1) + params.b
    return HeadCache(D=D, zt=zt, alpha=alpha, L=L, logits=logits, scores=_sigmoid(logits))


def head_backward(
    params: HeadParams, cache: HeadCache, targets: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact BCE gradients w.r.t. S, W, b plus dD for the encoder.

    Chains through the sigmoid (dlogit_i = (score_i - y_i)/c), the
    per-label linear maps, the convex pooling, the row-softmax Jacobian
    and the tanh.
    """
    c = params.S.shape[0]
    if targets.shape != (c,):
        raise CacheMismatch(f"targets {targets.shape} against c={c}")
    if cache.D.shape[1] != cache.alpha.shape[1]:
        raise CacheMismatch("cache is internally inconsistent")
    y = targets.astype(cache.scores.dtype)
    dlogits = (cache.scores - y) / c
    dL = dlogits[:, None] * params.W
    dalpha = dL @ cache.D
    dz = cache.alpha * (dalpha - (dalpha * cache.alpha).sum(axis=1, keepdims=True))
    dpre = dz * (1.0 - cache.zt**2)
    grads = {"S": dpre @ cache.D.T, "W": dlogits[:, None] * cache.L, "b": dlogits.copy()}
    dD = dL.T @ cache.alpha + params.S.T @ dpre
    return grads, dD
