"""Sentence encoders producing the h x k document matrix.

Each sentence's token-id sequence maps to one h-dimensional CLS vector;
stacking the k sentence vectors as columns gives the document matrix D.
Two compact trainable encoders are provided:

* MeanPool: cls = tanh(M @ mean_p(x_p) + q). It runs on a whole document
  at once: the sentences' ids are concatenated, np.add.reduceat takes the
  per-sentence means, and the backward pass is the matching segment sum.
* MiniTransformer: one block of single-head scaled dot-product
  self-attention with residual, then a tanh FFN with residual; the CLS
  vector is the output row at position 0. No layer norm, so gradients
  stay hand-derivable. It encodes one sentence at a time.

Inputs to both are x_p = E[id_p] + P[p]. Backward passes are exact
analytic gradients. The E gradient is row-sparse (RowGrad): one row per
distinct token id of the document, summed in token order; every other
gradient is a dense array. Storage is float32; gradient checking re-runs
everything in float64 by building float64 parameters.
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


@dataclass
class RowGrad:
    """Gradient of a table that is zero outside a few rows."""

    ids: np.ndarray   # sorted distinct row indices
    rows: np.ndarray  # (len(ids), width): the gradient at those rows

    @classmethod
    def from_tokens(cls, ids: np.ndarray, token_rows: np.ndarray) -> "RowGrad":
        """Sum one gradient row per token into one row per distinct id, in token order."""
        distinct, slot = np.unique(ids, return_inverse=True)
        width = token_rows.shape[1]
        rows = np.zeros((len(distinct), width), dtype=token_rows.dtype)
        # the flat form of np.add.at is several times faster and adds in the same order
        flat_slot = (slot[:, None] * width + np.arange(width)).reshape(-1)
        np.add.at(rows.reshape(-1), flat_slot, token_rows.reshape(-1))
        return cls(ids=distinct, rows=rows)

    def add_to(self, table: np.ndarray) -> None:
        table[self.ids] += self.rows


@dataclass
class MeanPoolDocCache:
    """One document's meanpool forward, as its backward pass needs it."""

    ids: np.ndarray   # (n,) every sentence's token ids, concatenated in document order
    sent: np.ndarray  # (n,) each token's sentence index
    lens: np.ndarray  # (k,) tokens per sentence, in the parameter dtype
    U: np.ndarray     # (k, h) mean input row of each sentence
    D: np.ndarray     # (h, k) output columns


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


DocumentCache = MeanPoolDocCache | list[MiniTransformerCache]


def _check_tokens(ids: np.ndarray, lens: np.ndarray, params: EncoderParams) -> None:
    t_max = params.P.shape[0]
    bad = lens[(lens < 3) | (lens > t_max)]
    if bad.size:
        raise ShapeMismatch(f"token count {bad[0]} outside [3, {t_max}]")
    if ids.max() >= params.E.shape[0]:
        raise ShapeMismatch("token id outside embedding table")


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def encode_sentence(ids: np.ndarray, params: MiniTransformerParams) -> tuple[np.ndarray, MiniTransformerCache]:
    """Encode one token-id sequence into its minitransformer CLS vector plus backward cache."""
    if not isinstance(params, MiniTransformerParams):
        raise TypeError("meanpool encodes whole documents: use encode_document")
    m = len(ids)
    _check_tokens(ids, np.array([m]), params)
    X = params.E[ids] + params.P[:m]
    Qm = X @ params.Q
    Km = X @ params.K
    Vm = X @ params.Vp
    A = _softmax_rows(Qm @ Km.T / np.sqrt(X.dtype.type(params.E.shape[1])))
    Z = X + A @ Vm
    T1 = np.tanh(Z @ params.F1 + params.g1)
    out = Z + T1 @ params.F2 + params.g2
    return out[0].copy(), MiniTransformerCache(ids=ids, X=X, Qm=Qm, Km=Km, Vm=Vm, A=A, Z=Z, T1=T1)


def _meanpool_document(ids: np.ndarray, lens: np.ndarray, params: MeanPoolParams):
    starts = np.cumsum(lens) - lens
    sent = np.repeat(np.arange(len(lens)), lens)
    pos = np.arange(len(ids)) - starts[sent]
    X = params.E[ids] + params.P[pos]
    lens = lens.astype(X.dtype)
    U = np.add.reduceat(X, starts, axis=0) / lens[:, None]
    D = np.tanh(params.M @ U.T + params.q[:, None])
    return D, MeanPoolDocCache(ids=ids, sent=sent, lens=lens, U=U, D=D)


def encode_document(sentences: list[np.ndarray], params: EncoderParams) -> tuple[np.ndarray, DocumentCache]:
    """Encode a document's sentences as the columns of D (h x k), plus the backward cache.

    Meanpool runs on the whole document at once; the minitransformer
    encodes one sentence at a time.
    """
    if not sentences:
        raise ShapeMismatch("a document needs at least one sentence")
    if isinstance(params, MeanPoolParams):
        ids = np.concatenate(sentences)
        lens = np.array([len(s) for s in sentences])
        _check_tokens(ids, lens, params)
        return _meanpool_document(ids, lens, params)
    cols, caches = zip(*(encode_sentence(ids, params) for ids in sentences))
    return np.stack(cols, axis=1), list(caches)


def _meanpool_backward(params: MeanPoolParams, cache: MeanPoolDocCache, dD: np.ndarray):
    dA = dD * (1.0 - cache.D**2)
    dU = (params.M.T @ dA).T / cache.lens[:, None]  # every input row of sentence j gets dU[j]
    covers = np.arange(params.P.shape[0])[:, None] < cache.lens  # (t_max, k): sentence j has position p
    return {
        "E": RowGrad.from_tokens(cache.ids, dU[cache.sent]),
        "P": covers.astype(dU.dtype) @ dU,
        "M": dA @ cache.U,
        "q": dA.sum(axis=1),
    }


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
    grads["P"][:m] += dX
    return dX


def encoder_backward(
    params: EncoderParams, cache: DocumentCache, dD: np.ndarray
) -> dict[str, np.ndarray | RowGrad]:
    """Exact gradients of the loss w.r.t. every encoder tensor.

    dD holds the loss gradient for each column of D. The E gradient comes
    back row-sparse: one row per distinct token id of the document, each
    summed in token order. Every other gradient is dense.
    """
    meanpool = isinstance(cache, MeanPoolDocCache)
    k = len(cache.lens) if meanpool else len(cache)
    if dD.ndim != 2 or dD.shape[1] != k:
        raise CacheMismatch(f"dD shape {dD.shape} does not match {k} cached sentences")
    if isinstance(params, MeanPoolParams) != meanpool:
        raise CacheMismatch("cache kind does not match params kind")
    if meanpool:
        return _meanpool_backward(params, cache, dD)
    grads = {name: np.zeros_like(t) for name, t in params.named_tensors() if name != "E"}
    token_rows = [_minitransformer_backward(params, c, dD[:, j], grads) for j, c in enumerate(cache)]
    ids = np.concatenate([c.ids for c in cache])
    return {"E": RowGrad.from_tokens(ids, np.concatenate(token_rows)), **grads}
