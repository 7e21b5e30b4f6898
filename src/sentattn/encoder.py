"""Sentence encoders producing the h x k document matrix.

Each sentence's token-id sequence maps to one h-dimensional CLS vector;
stacking the k sentence vectors as columns gives the document matrix D.
Both encoders run on a whole document at once, over its DocLayout: the
document's sorted distinct ids, and each token, in document order, as its
cell in the distinct-id x sentence count matrix. The layout is built once
per document, from its one token-id array and its sentence lengths, when
the document is prepared, and reused by every pass. The inputs are
x = E[id] + P[position in sentence]. Two compact trainable encoders are
provided. MeanPool is cls = tanh(M @ mean_p(x_p) + q). MiniTransformer is
one block of single-head scaled dot-product attention, then a tanh FFN,
each with residual, read at the CLS row. Only that row reaches D, so each
sentence needs one query, q0 = x_0 @ Q, and r = q0 @ K.T / sqrt(h) scores
its own tokens: a = softmax_p(x_p . r), z0 = x_0 + (sum_p a_p x_p) @ Vp,
cls = z0 + tanh(z0 @ F1 + g1) @ F2 + g2; no layer norm. Both kinds pool by
cell, with weights 1 (then / len) or the softmax a: sentence j's
sum_p w_p x_p is row j of C.T @ E[distinct] + B.T @ P, where C[i, j] sums
the weights of distinct id i in sentence j and B[p, j] the weight at
position p. The scores are E[distinct] @ r.T and P @ r.T read at each
token's two cells. No array has one row per token: each gradient that
reaches E or P is the transposed product, C @ g for E's rows, B @ g for P.

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

    def add_to(self, table: np.ndarray) -> None:
        table[self.ids] += self.rows


_INDEX = np.iinfo(np.int32)


class DocLayout:
    """Where each token of one document sits; built once, read by every pass over it.

    Built from the document's token ids, its sentences one after another,
    and each sentence's length. `distinct` holds the sorted distinct ids.
    Each token, in document order, is stored as its cell, slot * k +
    sentence, where slot is the index of its id in `distinct`: the cells
    index the distinct-id x sentence count matrix directly, and both kinds'
    E gradient is one row per distinct id with no per-pass np.unique.
    Indices are int32, so the layout of a tokenized document of two or more
    sentences is no larger than its int64 id array. len() is the sentence
    count k.
    """

    def __init__(self, ids: np.ndarray, lens: Sequence[int] | np.ndarray):
        self.lens = np.asarray(lens, dtype=np.int32)
        k = len(self.lens)
        if not k:
            raise ShapeMismatch("a document needs at least one sentence")
        self.shortest, self.longest = int(self.lens.min()), int(self.lens.max())
        if self.shortest < 0 or self.lens.sum() != len(ids):
            raise ShapeMismatch(f"sentence lengths do not sum to the {len(ids)} token ids")
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

    @classmethod
    def of_sentences(cls, sentences: Sequence[np.ndarray]) -> "DocLayout":
        """The layout of a list of per-sentence id arrays."""
        ids = np.concatenate(sentences) if len(sentences) else np.empty(0, dtype=np.int64)
        return cls(ids, [len(s) for s in sentences])

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


def _counts(cells: np.ndarray, rows: int, k: int, dtype, weights: np.ndarray | None = None):
    """The rows x k matrix whose entry (i, j) sums the weight (default 1) of each cell i * k + j."""
    return np.bincount(cells, weights, minlength=rows * k).reshape(rows, k).astype(dtype)


def _meanpool_forward(params: MeanPoolParams, doc: DocLayout):
    # U = (C.T @ E[distinct] + B.T @ P) / len: C[i, j] counts distinct id i in
    # sentence j and B[p, j] = [p < len_j]; dividing the k x h sums, not C and B, is cheaper
    k, nd, dtype = len(doc), len(doc.distinct), params.E.dtype
    C = _counts(doc.cell, nd, k, dtype)
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
    k, nd, t_max, dtype = len(doc), len(doc.distinct), params.P.shape[0], params.E.dtype
    sent = np.repeat(np.arange(k), doc.lens)
    starts = np.cumsum(doc.lens) - doc.lens
    pcell = (np.arange(len(sent)) - starts[sent]) * k + sent  # position * k + sentence
    Ed = params.E[doc.distinct]
    first = doc.cell[starts] // k  # slot of each sentence's first id
    X0 = Ed[first] + params.P[0]  # (k, h) CLS input rows
    q0 = X0 @ params.Q
    r = q0 @ params.K.T / np.sqrt(dtype.type(Ed.shape[1]))
    scores = (Ed @ r.T).ravel()[doc.cell] + (params.P @ r.T).ravel()[pcell]
    # softmax over each sentence's own tokens, shifted by that sentence's max
    e = np.exp(scores - np.maximum.reduceat(scores, starts)[sent])
    a = e / np.add.reduceat(e, starts)[sent]
    Ca, Ba = _counts(doc.cell, nd, k, dtype, a), _counts(pcell, t_max, k, dtype, a)
    Abar = Ca.T @ Ed + Ba.T @ params.P  # sum_t a_t x_t per sentence
    Z0 = X0 + Abar @ params.Vp
    T1 = np.tanh(Z0 @ params.F1 + params.g1)
    cls = Z0 + T1 @ params.F2 + params.g2
    return cls.T, (sent, starts, pcell, first, Ed, X0, q0, r, a, Ca, Ba, Abar, Z0, T1)


def _minitransformer_backward(params: MiniTransformerParams, cache: EncoderCache, dD: np.ndarray):
    sent, starts, pcell, first, Ed, X0, q0, r, a, Ca, Ba, Abar, Z0, T1 = cache.saved
    doc, dcls = cache.layout, dD.T
    # FFN with residual: cls = Z0 + tanh(Z0@F1 + g1)@F2 + g2
    dH1 = (dcls @ params.F2.T) * (1.0 - T1**2)
    dZ0 = dcls + dH1 @ params.F1.T
    # attention with residual: Z0 = X0 + Abar @ Vp, Abar = sum_t a_t x_t, a = softmax_t(x_t . r)
    G = dZ0 @ params.Vp.T  # gradient at Abar
    da = (Ed @ G.T).ravel()[doc.cell] + (params.P @ G.T).ravel()[pcell]
    ds = a * (da - np.add.reduceat(a * da, starts)[sent])
    Cs, Bs = _counts(doc.cell, *Ca.shape, Ed.dtype, ds), _counts(pcell, *Ba.shape, Ed.dtype, ds)
    dr = Cs.T @ Ed + Bs.T @ params.P
    scale = np.sqrt(Ed.dtype.type(Ed.shape[1]))
    dq0 = dr @ params.K / scale
    dX0 = dZ0 + dq0 @ params.Q.T
    # each token's dx_t = a_t G_j + ds_t r_j, summed by cell; sentences may share a first id
    E_rows = Ca @ G + Cs @ r
    np.add.at(E_rows, first, dX0)
    dP = Ba @ G + Bs @ r
    dP[0] += dX0.sum(axis=0)
    return {
        "E": RowGrad(ids=doc.distinct, rows=E_rows),
        "P": dP,
        "Q": X0.T @ dq0,
        "K": dr.T @ q0 / scale,
        "Vp": Abar.T @ dZ0,
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
    doc = sentences if isinstance(sentences, DocLayout) else DocLayout.of_sentences(sentences)
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
