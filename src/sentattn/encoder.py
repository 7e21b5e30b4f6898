"""Sentence encoders producing the h x k document matrix.

Each sentence's token-id sequence maps to one h-dimensional CLS vector;
stacking the k sentence vectors as columns gives the document matrix D.
Two compact trainable encoders are provided:

* MeanPool: cls = tanh(M @ mean_p(x_p) + q)
* MiniTransformer: one block of single-head scaled dot-product
  self-attention with residual, then a tanh FFN with residual; the CLS
  vector is the output row at position 0. No layer norm, so gradients
  stay hand-derivable.

Inputs to both are x_p = E[id_p] + P[p]. Backward passes are exact
analytic gradients, accumulated sentence by sentence in document order.
Storage is float32; gradient checking re-runs everything in float64 by
building float64 parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

MEANPOOL = "meanpool"
MINITRANSFORMER = "minitransformer"


class ShapeMismatch(Exception):
    """Parameter shapes inconsistent with the declared dimensions."""


class CacheMismatch(Exception):
    """Backward called with a cache that does not match the forward pass."""


@dataclass(frozen=True)
class ModelDims:
    """Fixed model dimensions; the per-document sentence count k varies."""

    h: int = 64
    c: int = 50
    v_buckets: int = 32768
    t_max: int = 64
    f: int = 128

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")


TensorSpec = list[tuple[str, tuple[int, ...]]]


class TensorSet:
    """Base of the parameter dataclasses: the field order is the checkpoint order.

    Each subclass declares its tensors once, as a (name, shape) spec in that
    order; init, named_tensors and the checkpoint layout all follow it.
    """

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def init_tensors(cls, spec: TensorSpec, rng: np.random.Generator, dtype: np.dtype | type):
    """Seeded init in spec order: matrices uniform in [-0.05, 0.05], vectors zero."""
    return cls(**{
        name: rng.uniform(-0.05, 0.05, size=shape).astype(dtype) if len(shape) == 2
        else np.zeros(shape, dtype=dtype)
        for name, shape in spec
    })


def _embedding_spec(dims: ModelDims) -> TensorSpec:
    """Token table (the 4 reserved ids, then the hash buckets) and positions, shared by both kinds."""
    return [("E", (4 + dims.v_buckets, dims.h)), ("P", (dims.t_max, dims.h))]


@dataclass
class MeanPoolParams(TensorSet):
    E: np.ndarray
    P: np.ndarray
    M: np.ndarray
    q: np.ndarray

    kind = MEANPOOL

    @staticmethod
    def spec(dims: ModelDims) -> TensorSpec:
        h = dims.h
        return _embedding_spec(dims) + [("M", (h, h)), ("q", (h,))]


@dataclass
class MiniTransformerParams(TensorSet):
    E: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    K: np.ndarray
    Vp: np.ndarray
    F1: np.ndarray
    F2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    kind = MINITRANSFORMER

    @staticmethod
    def spec(dims: ModelDims) -> TensorSpec:
        h, f = dims.h, dims.f
        return _embedding_spec(dims) + [
            ("Q", (h, h)), ("K", (h, h)), ("Vp", (h, h)),
            ("F1", (h, f)), ("F2", (f, h)), ("g1", (f,)), ("g2", (h,)),
        ]


EncoderParams = MeanPoolParams | MiniTransformerParams
ENCODER_PARAMS = {cls.kind: cls for cls in (MeanPoolParams, MiniTransformerParams)}
ENCODER_KINDS = tuple(ENCODER_PARAMS)


def init_encoder(
    kind: str,
    dims: ModelDims,
    rng: np.random.Generator,
    dtype: np.dtype | type = np.float32,
) -> EncoderParams:
    """Seeded init: weights uniform in [-0.05, 0.05], biases zero."""
    if kind not in ENCODER_PARAMS:
        raise ValueError(f"unknown encoder kind: {kind!r}")
    cls = ENCODER_PARAMS[kind]
    return init_tensors(cls, cls.spec(dims), rng, dtype)


def zero_grads(params: EncoderParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(t) for name, t in params.named_tensors()}


@dataclass
class MeanPoolCache:
    ids: np.ndarray
    u: np.ndarray    # mean of input rows, (h,)
    cls: np.ndarray  # (h,)


@dataclass
class MiniTransformerCache:
    ids: np.ndarray
    X: np.ndarray    # (m, h) input rows
    Qm: np.ndarray   # (m, h)
    Km: np.ndarray   # (m, h)
    Vm: np.ndarray   # (m, h)
    A: np.ndarray    # (m, m) row-softmax attention
    Z: np.ndarray    # (m, h) post-attention residual
    T1: np.ndarray   # (m, f) tanh FFN hidden


SentenceCache = MeanPoolCache | MiniTransformerCache


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def encode_sentence(ids: np.ndarray, params: EncoderParams) -> tuple[np.ndarray, SentenceCache]:
    """Encode one token-id sequence into its CLS vector plus backward cache."""
    m = len(ids)
    t_max = params.P.shape[0]
    if m < 3 or m > t_max:
        raise ShapeMismatch(f"token count {m} outside [3, {t_max}]")
    if ids.max() >= params.E.shape[0]:
        raise ShapeMismatch("token id outside embedding table")
    X = params.E[ids] + params.P[:m]
    if isinstance(params, MeanPoolParams):
        u = X.mean(axis=0)
        cls = np.tanh(params.M @ u + params.q)
        return cls, MeanPoolCache(ids=ids, u=u, cls=cls)
    Qm = X @ params.Q
    Km = X @ params.K
    Vm = X @ params.Vp
    A = _softmax_rows(Qm @ Km.T / np.sqrt(X.dtype.type(params.E.shape[1])))
    Z = X + A @ Vm
    T1 = np.tanh(Z @ params.F1 + params.g1)
    out = Z + T1 @ params.F2 + params.g2
    return out[0].copy(), MiniTransformerCache(ids=ids, X=X, Qm=Qm, Km=Km, Vm=Vm, A=A, Z=Z, T1=T1)


def encode_document(
    sentences: list[np.ndarray], params: EncoderParams
) -> tuple[np.ndarray, list[SentenceCache]]:
    """Stack per-sentence CLS vectors as the columns of D (h x k)."""
    if not sentences:
        raise ShapeMismatch("a document needs at least one sentence")
    cols = []
    caches = []
    for ids in sentences:
        cls, cache = encode_sentence(ids, params)
        cols.append(cls)
        caches.append(cache)
    return np.stack(cols, axis=1), caches


def _meanpool_backward(params, cache, dcls, grads):
    da = dcls * (1.0 - cache.cls**2)
    grads["M"] += np.outer(da, cache.u)
    grads["q"] += da
    dx = (params.M.T @ da) / len(cache.ids)
    np.add.at(grads["E"], cache.ids, dx)
    grads["P"][: len(cache.ids)] += dx


def _minitransformer_backward(params, cache, dcls, grads):
    m, h = cache.X.shape
    dout = np.zeros_like(cache.X)
    dout[0] = dcls
    # FFN with residual: out = Z + tanh(Z@F1 + g1)@F2 + g2
    dT1 = dout @ params.F2.T
    grads["F2"] += cache.T1.T @ dout
    grads["g2"] += dout.sum(axis=0)
    dH1 = dT1 * (1.0 - cache.T1**2)
    grads["F1"] += cache.Z.T @ dH1
    grads["g1"] += dH1.sum(axis=0)
    dZ = dout + dH1 @ params.F1.T
    # attention with residual: Z = X + A@Vm, A = softmax(Qm@Km.T / sqrt(h))
    dAtt = dZ
    dA = dAtt @ cache.Vm.T
    dVm = cache.A.T @ dAtt
    dscores = cache.A * (dA - (dA * cache.A).sum(axis=1, keepdims=True))
    scale = 1.0 / np.sqrt(cache.X.dtype.type(h))
    dQm = dscores @ cache.Km * scale
    dKm = dscores.T @ cache.Qm * scale
    grads["Q"] += cache.X.T @ dQm
    grads["K"] += cache.X.T @ dKm
    grads["Vp"] += cache.X.T @ dVm
    dX = dZ + dQm @ params.Q.T + dKm @ params.K.T + dVm @ params.Vp.T
    np.add.at(grads["E"], cache.ids, dX)
    grads["P"][:m] += dX


def encoder_backward(
    params: EncoderParams, caches: list[SentenceCache], dD: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of the loss w.r.t. every encoder tensor.

    dD holds the loss gradient for each CLS column; contributions are
    accumulated over the k sentences in document order. Untouched embedding
    rows stay zero.
    """
    if dD.ndim != 2 or dD.shape[1] != len(caches):
        raise CacheMismatch(f"dD shape {dD.shape} does not match {len(caches)} cached sentences")
    grads = zero_grads(params)
    for j, cache in enumerate(caches):
        if isinstance(params, MeanPoolParams) != isinstance(cache, MeanPoolCache):
            raise CacheMismatch("cache kind does not match params kind")
        if isinstance(params, MeanPoolParams):
            _meanpool_backward(params, cache, dD[:, j], grads)
        else:
            _minitransformer_backward(params, cache, dD[:, j], grads)
    return grads
