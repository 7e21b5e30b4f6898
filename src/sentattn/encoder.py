"""Sentence encoders producing the h x k document matrix.

Each sentence's token-id sequence maps to one h-dimensional CLS vector;
stacking the k sentence vectors as columns gives the document matrix D.
Both encoders run on a whole document at once, over its DocLayout: the
document's sorted distinct ids, and each token, in document order, as its
cell in the distinct-id x sentence count matrix. The layout is built once
per document and reused by every pass. The inputs are
x = E[id] + P[position in sentence]. Two compact trainable encoders are
provided:

* MeanPool: cls = tanh(M @ mean_p(x_p) + q). It is linear up to the tanh,
  so the k sentence means are two small matmuls over the layout,
  U = (C.T @ E[distinct] + B.T @ P) / len, where C[i, j] counts distinct
  id i in sentence j and B[p, j] = [p < len_j]. The backward pass is the
  transposed pair: C @ dX for E's rows and B @ dX for P, where dX = dU / len
  is the gradient at each input row of a sentence.
* MiniTransformer: one block of single-head scaled dot-product attention
  with residual, then a tanh FFN with residual; the CLS vector is the
  block's output row at position 0. Only that row reaches D, and the FFN
  and residuals act row by row, so each sentence needs one query,
  q0 = x_0 @ Q, softmaxed over its own keys: z0 = x_0 + sum_p a_p x_p @ Vp,
  cls = z0 + tanh(z0 @ F1 + g1) @ F2 + g2. It builds the n input rows x,
  and its per-sentence sums are np.add.reduceat segment sums. No layer
  norm, so gradients stay hand-derivable.

Backward passes are exact analytic gradients. The E gradient is row-sparse
(RowGrad): one row per distinct token id of the document; every other
gradient is a dense array. Storage is float32; gradient checking re-runs
everything in float64 by building float64 parameters.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    def from_slots(cls, ids: np.ndarray, slot: np.ndarray, token_rows: np.ndarray) -> "RowGrad":
        """Sum one gradient row per token into row slot[t] (an index into ids), in token order."""
        width = token_rows.shape[1]
        rows = np.zeros((len(ids), width), dtype=token_rows.dtype)
        # the flat form of np.add.at is several times faster and adds in the same order
        flat_slot = (slot.astype(np.intp)[:, None] * width + np.arange(width)).reshape(-1)
        np.add.at(rows.reshape(-1), flat_slot, token_rows.reshape(-1))
        return cls(ids=ids, rows=rows)

    def add_to(self, table: np.ndarray) -> None:
        table[self.ids] += self.rows


_INDEX = np.iinfo(np.int32)


class DocLayout:
    """Where each token of one document sits; built once, read by every pass over it.

    `distinct` holds the document's sorted distinct token ids. Each token,
    in document order, is stored as its cell, slot * k + sentence, where
    slot is the index of its id in `distinct`: the cells index the
    distinct-id x sentence count matrix directly, and both kinds' E gradient
    is one row per distinct id with no per-pass np.unique. Indices are
    int32, so the layout of a tokenized document of two or more sentences
    is no larger than the int64 sentence list it is built from. len() is
    the sentence count k.
    """

    def __init__(self, sentences: Sequence[np.ndarray]):
        k = len(sentences)
        if not k:
            raise ShapeMismatch("a document needs at least one sentence")
        lens = [len(s) for s in sentences]
        self.lens = np.array(lens, dtype=np.int32)
        self.shortest, self.longest = min(lens), max(lens)
        ids = np.concatenate(sentences)
        # np.unique(ids, return_inverse=True) gives the same, at about 1.5 times
        # the cost on a document that is encoded only once
        ordered = np.sort(ids)
        first = np.empty(len(ids), dtype=bool)  # the first of each run of equal ids
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        distinct = ordered[first]
        if distinct.size and not _INDEX.min <= distinct[0] <= distinct[-1] <= _INDEX.max:
            raise ShapeMismatch("token id outside embedding table")
        if len(distinct) * k > _INDEX.max:
            raise ShapeMismatch(f"{len(distinct)} distinct ids x {k} sentences overflow the cell index")
        self.distinct = distinct.astype(np.int32)
        sent = np.repeat(np.arange(k), self.lens)
        self.cell = (np.searchsorted(distinct, ids) * k + sent).astype(np.int32)

    def __len__(self) -> int:
        return len(self.lens)


@dataclass
class EncoderCache:
    """One document's encoder forward, as its backward pass needs it.

    `saved` holds what the kind's own backward pass reads of its forward
    pass, in that order.
    """

    kind: str
    layout: DocLayout
    saved: tuple = ()


def _check_tokens(doc: DocLayout, params: EncoderParams) -> None:
    t_max = params.P.shape[0]
    if doc.shortest < 3 or doc.longest > t_max:
        bad = doc.shortest if doc.shortest < 3 else doc.longest
        raise ShapeMismatch(f"token count {bad} outside [3, {t_max}]")
    if doc.distinct[0] < 0 or doc.distinct[-1] >= params.E.shape[0]:
        raise ShapeMismatch("token id outside embedding table")


def _meanpool_forward(params: MeanPoolParams, doc: DocLayout):
    # U = (C.T @ E[distinct] + B.T @ P) / len: C[i, j] counts distinct id i in
    # sentence j and B[p, j] = [p < len_j]; dividing the k x h sums, not C and B, is cheaper
    k, nd, dtype = len(doc), len(doc.distinct), params.E.dtype
    C = np.bincount(doc.cell, minlength=nd * k).reshape(nd, k).astype(dtype)
    B = (np.arange(params.P.shape[0], dtype=doc.lens.dtype)[:, None] < doc.lens).astype(dtype)
    lens = doc.lens.astype(dtype)[:, None]
    U = (C.T @ params.E[doc.distinct] + B.T @ params.P) / lens
    D = np.tanh(params.M @ U.T + params.q[:, None])
    return D, (C, B, lens, U, D)


def _meanpool_backward(params: MeanPoolParams, cache: EncoderCache, dD: np.ndarray):
    C, B, lens, U, D = cache.saved
    dZ = dD * (1.0 - D**2)
    dX = (params.M.T @ dZ).T / lens  # every input row of sentence j gets dX[j]
    return {
        "E": RowGrad(ids=cache.layout.distinct, rows=C @ dX),
        "P": B @ dX,
        "M": dZ @ U,
        "q": dZ.sum(axis=1),
    }


def _minitransformer_forward(params: MiniTransformerParams, doc: DocLayout):
    slot, sent = np.divmod(doc.cell, len(doc))
    starts = np.cumsum(doc.lens) - doc.lens
    pos = np.arange(len(sent)) - starts[sent]
    X = params.E[doc.distinct[slot]] + params.P[pos]
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
    return cls.T, (slot, sent, starts, pos, X, q0, Km, Vm, a, Z0, T1)


def _minitransformer_backward(params: MiniTransformerParams, cache: EncoderCache, dD: np.ndarray):
    slot, sent, starts, pos, X, q0, Km, Vm, a, Z0, T1 = cache.saved
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
    return {
        "E": RowGrad.from_slots(cache.layout.distinct, slot, dX),
        "P": RowGrad.from_slots(np.arange(params.P.shape[0]), pos, dX).rows,
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


def encode_document(
    sentences: Sequence[np.ndarray] | DocLayout, params: EncoderParams
) -> tuple[np.ndarray, EncoderCache]:
    """Encode a document's sentences as the columns of D (h x k), plus the backward cache.

    Both kinds run on the whole document at once, over its DocLayout. Pass
    the layout itself to reuse it across passes; a sentence list gets a
    layout built for this call alone. Token counts and ids are checked
    against the params on every call.
    """
    doc = sentences if isinstance(sentences, DocLayout) else DocLayout(sentences)
    _check_tokens(doc, params)
    D, saved = _PASSES[params.kind][0](params, doc)
    return D, EncoderCache(kind=params.kind, layout=doc, saved=saved)


def encoder_backward(
    params: EncoderParams, cache: EncoderCache, dD: np.ndarray
) -> dict[str, np.ndarray | RowGrad]:
    """Exact gradients of the loss w.r.t. every encoder tensor.

    dD holds the loss gradient for each column of D. The E gradient comes
    back row-sparse: one row per distinct token id of the document. Every
    other gradient is dense.
    """
    k = len(cache.layout)
    if dD.ndim != 2 or dD.shape[1] != k:
        raise CacheMismatch(f"dD shape {dD.shape} does not match {k} cached sentences")
    if cache.kind != params.kind:
        raise CacheMismatch("cache kind does not match params kind")
    return _PASSES[params.kind][1](params, cache, dD)
