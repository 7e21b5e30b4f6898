"""Sentence encoders producing the h x k document matrix.

Each sentence's token-id sequence maps to one h-dimensional CLS vector;
stacking the k sentence vectors as columns gives the document matrix D.
Both encoders run on a whole document at once: the sentences' ids are
concatenated, the inputs are x = E[id] + P[position in sentence], and
per-sentence sums are np.add.reduceat segment sums, whose backward pass
is the matching gather. Two compact trainable encoders are provided:

* MeanPool: cls = tanh(M @ mean_p(x_p) + q).
* MiniTransformer: one block of single-head scaled dot-product attention
  with residual, then a tanh FFN with residual; the CLS vector is the
  block's output row at position 0. Only that row reaches D, and the FFN
  and residuals act row by row, so each sentence needs one query,
  q0 = x_0 @ Q, softmaxed over its own keys: z0 = x_0 + sum_p a_p x_p @ Vp,
  cls = z0 + tanh(z0 @ F1 + g1) @ F2 + g2. No layer norm, so gradients
  stay hand-derivable.

Backward passes are exact analytic gradients. The E gradient is row-sparse
(RowGrad): one row per distinct token id of the document, summed in token
order; every other gradient is a dense array. Storage is float32; gradient
checking re-runs everything in float64 by building float64 parameters.
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
class EncoderCache:
    """One document's encoder forward, as its backward pass needs it.

    The layout is the same for both kinds; `saved` holds what the kind's
    own backward pass reads of its forward pass, in that order.
    """

    kind: str
    ids: np.ndarray     # (n,) every sentence's token ids, concatenated in document order
    lens: np.ndarray    # (k,) tokens per sentence
    starts: np.ndarray  # (k,) index of each sentence's first (CLS) token
    sent: np.ndarray    # (n,) each token's sentence index
    pos: np.ndarray     # (n,) each token's position in its sentence
    saved: tuple = ()


def _check_tokens(ids: np.ndarray, lens: np.ndarray, params: EncoderParams) -> None:
    t_max = params.P.shape[0]
    bad = lens[(lens < 3) | (lens > t_max)]
    if bad.size:
        raise ShapeMismatch(f"token count {bad[0]} outside [3, {t_max}]")
    if ids.min() < 0 or ids.max() >= params.E.shape[0]:
        raise ShapeMismatch("token id outside embedding table")


def _meanpool_forward(params: MeanPoolParams, doc: EncoderCache, X: np.ndarray):
    lens = doc.lens.astype(X.dtype)
    U = np.add.reduceat(X, doc.starts, axis=0) / lens[:, None]
    D = np.tanh(params.M @ U.T + params.q[:, None])
    return D, (lens, U, D)


def _meanpool_backward(params: MeanPoolParams, doc: EncoderCache, dD: np.ndarray):
    lens, U, D = doc.saved
    dA = dD * (1.0 - D**2)
    dU = (params.M.T @ dA).T / lens[:, None]  # every input row of sentence j gets dU[j]
    covers = np.arange(params.P.shape[0])[:, None] < lens  # (t_max, k): sentence j has position p
    return {
        "E": RowGrad.from_tokens(doc.ids, dU[doc.sent]),
        "P": covers.astype(dU.dtype) @ dU,
        "M": dA @ U,
        "q": dA.sum(axis=1),
    }


def _minitransformer_forward(params: MiniTransformerParams, doc: EncoderCache, X: np.ndarray):
    starts, sent = doc.starts, doc.sent
    X0 = X[starts]  # (k, h) CLS input rows
    q0 = X0 @ params.Q
    Km = X @ params.K
    Vm = X @ params.Vp
    scores = np.einsum("nh,nh->n", q0[sent], Km) / np.sqrt(X.dtype.type(X.shape[1]))
    # softmax over each sentence's own tokens, shifted by that sentence's max
    e = np.exp(scores - np.maximum.reduceat(scores, starts)[sent])
    a = e / np.add.reduceat(e, starts)[sent]
    Z0 = X0 + np.add.reduceat(a[:, None] * Vm, starts, axis=0)
    T1 = np.tanh(Z0 @ params.F1 + params.g1)
    cls = Z0 + T1 @ params.F2 + params.g2
    return cls.T, (X, q0, Km, Vm, a, Z0, T1)


def _minitransformer_backward(params: MiniTransformerParams, doc: EncoderCache, dD: np.ndarray):
    X, q0, Km, Vm, a, Z0, T1 = doc.saved
    starts, sent = doc.starts, doc.sent
    dcls = dD.T
    # FFN with residual: cls = Z0 + tanh(Z0@F1 + g1)@F2 + g2
    dH1 = (dcls @ params.F2.T) * (1.0 - T1**2)
    dZ0 = dcls + dH1 @ params.F1.T
    # attention with residual: Z0 = X0 + sum_i a_i Vm_i, a = softmax_i(q0 . Km_i / sqrt(h))
    dZ0_tokens = dZ0[sent]
    dVm = a[:, None] * dZ0_tokens
    da = np.einsum("nh,nh->n", dZ0_tokens, Vm)
    dscores = a * (da - np.add.reduceat(a * da, starts)[sent]) / np.sqrt(X.dtype.type(X.shape[1]))
    dq0 = np.add.reduceat(dscores[:, None] * Km, starts, axis=0)
    dKm = dscores[:, None] * q0[sent]
    dX = dKm @ params.K.T + dVm @ params.Vp.T
    dX[starts] += dZ0 + dq0 @ params.Q.T
    dP = np.zeros_like(params.P)
    RowGrad.from_tokens(doc.pos, dX).add_to(dP)
    return {
        "E": RowGrad.from_tokens(doc.ids, dX),
        "P": dP,
        "Q": X[starts].T @ dq0,
        "K": X.T @ dKm,
        "Vp": X.T @ dVm,
        "F1": Z0.T @ dH1,
        "F2": T1.T @ dcls,
        "g1": dH1.sum(axis=0),
        "g2": dcls.sum(axis=0),
    }


# each kind's (forward, backward) pair over the shared document layout
_PASSES = {
    MEANPOOL: (_meanpool_forward, _meanpool_backward),
    MINITRANSFORMER: (_minitransformer_forward, _minitransformer_backward),
}


def encode_document(sentences: list[np.ndarray], params: EncoderParams) -> tuple[np.ndarray, EncoderCache]:
    """Encode a document's sentences as the columns of D (h x k), plus the backward cache.

    Both kinds run on the whole document at once, over one layout: the
    sentences' ids concatenated, each token's sentence and position, and
    the input rows X = E[ids] + P[pos].
    """
    if not sentences:
        raise ShapeMismatch("a document needs at least one sentence")
    ids = np.concatenate(sentences)
    lens = np.array([len(s) for s in sentences])
    _check_tokens(ids, lens, params)
    starts = np.cumsum(lens) - lens
    sent = np.repeat(np.arange(len(lens)), lens)
    pos = np.arange(len(ids)) - starts[sent]
    doc = EncoderCache(kind=params.kind, ids=ids, lens=lens, starts=starts, sent=sent, pos=pos)
    D, doc.saved = _PASSES[params.kind][0](params, doc, params.E[ids] + params.P[pos])
    return D, doc


def encoder_backward(
    params: EncoderParams, cache: EncoderCache, dD: np.ndarray
) -> dict[str, np.ndarray | RowGrad]:
    """Exact gradients of the loss w.r.t. every encoder tensor.

    dD holds the loss gradient for each column of D. The E gradient comes
    back row-sparse: one row per distinct token id of the document, each
    summed in token order. Every other gradient is dense.
    """
    k = len(cache.lens)
    if dD.ndim != 2 or dD.shape[1] != k:
        raise CacheMismatch(f"dD shape {dD.shape} does not match {k} cached sentences")
    if cache.kind != params.kind:
        raise CacheMismatch("cache kind does not match params kind")
    return _PASSES[params.kind][1](params, cache, dD)
