"""Sentence encoders producing the h x K sentence matrix of a batch of documents.

Each sentence's token-id sequence maps to one h-dimensional CLS vector;
stacking a document's k sentence vectors as columns gives its matrix D, and
a batch's documents stand side by side, their columns concatenated into one
h x K matrix (K the batch's sentence count). Each document keeps its own
DocLayout: its sorted distinct ids, and each token, in document order, as
its cell in the distinct-id x sentence count matrix. The layout is built
once per document, by one argsort of its token-id array, when the
document is prepared, and reused by every pass; a BatchLayout
lines a batch's layouts up column by column. The inputs are
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

One pass runs over the whole batch. Only what reads a document's own rows
of E runs per document: its count matrices, C.T @ E[distinct], the
minitransformer's scores and E's gradient rows. B, P, every dense matrix
product and both kinds' nonlinearities run once over the K columns, so
every other gradient is computed once, summed over the batch.

Backward passes are exact analytic gradients, each added into the caller's
array of the tensor's own shape. E's rows are added one document at a time,
at that document's distinct ids, so two documents that read the same row
both reach it. Storage is float32; gradient checking re-runs everything in
float64 by building float64 parameters.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate
from dataclasses import dataclass, fields

import numpy as np

from .hashing import RESERVED_IDS

MEANPOOL = "meanpool"
MINITRANSFORMER = "minitransformer"


class ShapeMismatch(Exception):
    """Parameter shapes inconsistent with the declared dimensions."""


class CacheMismatch(Exception):
    """Backward called with a cache that does not match the forward pass."""


_INDEX = np.iinfo(np.int32)


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
        if self.t_max < 3:  # a sentence holds CLS, at least one token and SEP
            raise ValueError("t_max must be at least 3")
        if self.v_buckets > _INDEX.max + 1 - RESERVED_IDS:  # layouts hold token ids, the buckets' too, as int32
            raise ValueError(f"v_buckets must be at most {_INDEX.max + 1 - RESERVED_IDS}")


TensorSpec = list[tuple[str, tuple[int, ...]]]


class TensorSet:
    """Base of the parameter dataclasses: the field order is the checkpoint order.

    Each subclass declares its tensors once, as a (name, shape) spec in that
    order; init, named_tensors and the checkpoint layout all follow it.
    """

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


# Rows of a matrix drawn per uniform call: the rows come from the stream in
# order, so the bits match one call over the whole matrix, and no float64
# copy of a large table (16.8 MB at the default dims) is ever held. At h=64
# a 512-row chunk is a 256 KB temporary; on one Xeon core, drawing the
# default E took the same 11-14 ms in 512-row chunks as in 4,096-row ones.
_INIT_CHUNK_ROWS = 512


def _uniform(rng: np.random.Generator, shape: tuple[int, int], dtype: np.dtype | type) -> np.ndarray:
    """rng.uniform(-0.05, 0.05, size=shape).astype(dtype), drawn in chunks of rows."""
    out = np.empty(shape, dtype=dtype)
    for start in range(0, shape[0], _INIT_CHUNK_ROWS):
        chunk = out[start : start + _INIT_CHUNK_ROWS]
        chunk[...] = rng.uniform(-0.05, 0.05, size=chunk.shape)
    return out


def init_tensors(cls, spec: TensorSpec, rng: np.random.Generator, dtype: np.dtype | type):
    """Seeded init in spec order: matrices uniform in [-0.05, 0.05], vectors zero."""
    return cls(**{
        name: _uniform(rng, shape, dtype) if len(shape) == 2 else np.zeros(shape, dtype=dtype)
        for name, shape in spec
    })


def _embedding_spec(dims: ModelDims) -> TensorSpec:
    """Token table (the reserved ids, then the hash buckets) and positions, shared by both kinds."""
    return [("E", (RESERVED_IDS + dims.v_buckets, dims.h)), ("P", (dims.t_max, dims.h))]


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


class DocLayout:
    """Where each token of one document sits; built once, read by every pass over it.

    Built from the document's token ids, its sentences one after another,
    and each sentence's length, by one argsort of the ids: `distinct` holds
    the sorted distinct ids, and each token, in document order, is stored as
    its cell, slot * k + sentence, its slot (its id's index in `distinct`)
    being the count of distinct ids up to it in sorted order, less one. The
    cells index the distinct-id x sentence count matrix, so both kinds' E
    gradient is one row per distinct id. Indices are int32: from two
    sentences on, the layout is no larger than the int64 id array. len() is
    the sentence count k. `train` renumbers `distinct` into its compact
    embedding table in the same order, so `cell` holds.
    """

    def __init__(self, ids: np.ndarray, lens: Sequence[int] | np.ndarray):
        self.lens = np.asarray(lens, dtype=np.int32)
        k = len(self.lens)
        if not k:
            raise ShapeMismatch("a document needs at least one sentence")
        self.shortest, self.longest = int(self.lens.min()), int(self.lens.max())
        if self.shortest < 0 or self.lens.sum() != len(ids):
            raise ShapeMismatch(f"sentence lengths do not sum to the {len(ids)} token ids")
        order = ids.argsort()
        ordered = ids[order]
        first = np.concatenate(([True], ordered[1:] != ordered[:-1]))[: len(ids)]  # no ids: cut to no flags
        distinct = ordered[first]
        if distinct.size and not _INDEX.min <= distinct[0] <= distinct[-1] <= _INDEX.max:
            raise ShapeMismatch("token id outside embedding table")
        if len(distinct) * k > _INDEX.max:
            raise ShapeMismatch(f"{len(distinct)} distinct ids x {k} sentences overflow the cell index")
        self.distinct = distinct.astype(np.int32)
        self.cell = np.repeat(np.arange(-k, 0, dtype=np.int32), self.lens)  # sentence - k
        self.cell[order] += np.add.accumulate(first, dtype=np.int32) * k  # (slot + 1) * k

    def __len__(self) -> int:
        return len(self.lens)


class BatchLayout:
    """A batch of documents side by side: the columns of one h x K matrix, K its sentence count.

    `docs` keeps each document's own DocLayout, in batch order; document i
    owns the columns `bounds[i]:bounds[i + 1]`, and `lens` holds every
    sentence's length in column order. len() is K.
    """

    __slots__ = ("docs", "bounds", "lens")

    def __init__(self, docs: Sequence[DocLayout]):
        if not docs:
            raise ShapeMismatch("a batch needs at least one document")
        self.docs = docs
        self.bounds = np.array([0, *accumulate(map(len, docs))])
        self.lens = np.concatenate([doc.lens for doc in docs])

    def __len__(self) -> int:
        return int(self.bounds[-1])

    def columns(self):
        """(document, its first column, one past its last), in batch order."""
        return zip(self.docs, self.bounds, self.bounds[1:])


@dataclass
class EncoderCache:
    """One batch's encoder forward, as its backward pass needs it.

    `saved` holds what the kind's own backward pass reads of its forward
    pass, in that order; a list in it holds one item per document.
    """

    kind: str
    layout: BatchLayout
    saved: tuple = ()


def _check_tokens(batch: BatchLayout, params: EncoderParams) -> None:
    t_max = params.P.shape[0]
    for doc in batch.docs:
        if doc.shortest < 3 or doc.longest > t_max:
            bad = doc.shortest if doc.shortest < 3 else doc.longest
            raise ShapeMismatch(f"token count {bad} outside [3, {t_max}]")
        if doc.distinct[0] < 0 or doc.distinct[-1] >= params.E.shape[0]:
            raise ShapeMismatch("token id outside embedding table")


def _counts(cells: np.ndarray, rows: int, k: int, dtype, weights: np.ndarray | None = None):
    """The rows x k matrix whose entry (i, j) sums the weight (default 1) of each cell i * k + j."""
    return np.bincount(cells, weights, minlength=rows * k).reshape(rows, k).astype(dtype)


def _positions(lens: np.ndarray, t_max: int, dtype) -> np.ndarray:
    """B: the t_max x K matrix with B[p, j] = 1 for the positions p < len_j of sentence j."""
    return (np.arange(t_max, dtype=lens.dtype)[:, None] < lens).astype(dtype)


def _meanpool_forward(params: MeanPoolParams, batch: BatchLayout):
    # U = (C.T @ E[distinct] + B.T @ P) / len: C[i, j] counts distinct id i in
    # sentence j of one document and B[p, j] = [p < len_j] over the whole
    # batch; dividing the K x h sums, not C and B, is cheaper. Each C is kept
    # for the backward pass in the smallest unsigned type that holds its
    # longest sentence's length (uint8 at t_max < 256), a quarter of its
    # float32 size; B is cheap to rebuild there.
    dtype = params.E.dtype
    Cs = [_counts(doc.cell, len(doc.distinct), len(doc), np.min_scalar_type(doc.longest))
          for doc in batch.docs]
    U = np.concatenate([C.astype(dtype).T @ params.E[doc.distinct] for C, doc in zip(Cs, batch.docs)])
    lens = batch.lens.astype(dtype)[:, None]
    U = (U + _positions(batch.lens, params.P.shape[0], dtype).T @ params.P) / lens
    cls = np.tanh(U @ params.M.T + params.q)
    return cls.T, (Cs, lens, U, cls)


def _meanpool_backward(params: MeanPoolParams, cache: EncoderCache, dD: np.ndarray, sums) -> None:
    Cs, lens, U, cls = cache.saved
    batch, dtype = cache.layout, cls.dtype
    dZ = np.square(cls)
    np.subtract(1.0, dZ, out=dZ)
    dZ *= dD.T
    sums["M"] += dZ.T @ U
    sums["q"] += dZ.sum(axis=0)
    dX = dZ @ params.M
    dX /= lens  # every input row of sentence j gets dX[j]
    del dZ  # each K x h buffer is freed once read, so fewer are held at once
    sums["P"] += _positions(batch.lens, params.P.shape[0], dtype) @ dX
    for C, (doc, a, b) in zip(Cs, batch.columns()):
        sums["E"][doc.distinct] += C.astype(dtype) @ dX[a:b]


def _minitransformer_forward(params: MiniTransformerParams, batch: BatchLayout):
    K, t_max, dtype = len(batch), params.P.shape[0], params.E.dtype
    sent = np.repeat(np.arange(K), batch.lens)
    starts = np.cumsum(batch.lens) - batch.lens
    pcell = (np.arange(len(sent)) - starts[sent]) * K + sent  # position * K + column
    # per document: its layout, its rows of E, its columns and its tokens
    parts = [(doc, params.E[doc.distinct], slice(lo, hi), slice(starts[lo], starts[lo] + len(doc.cell)))
             for doc, lo, hi in batch.columns()]
    # the row in its document's Ed of each sentence's first id
    firsts = [doc.cell[starts[cols] - starts[cols.start]] // len(doc) for doc, _, cols, _ in parts]
    X0 = np.concatenate([Ed[first] for (_, Ed, _, _), first in zip(parts, firsts)]) + params.P[0]  # CLS rows
    q0 = X0 @ params.Q
    r = q0 @ params.K.T / np.sqrt(dtype.type(params.E.shape[1]))
    scores = np.concatenate([(Ed @ r[cols].T).ravel()[doc.cell] for doc, Ed, cols, _ in parts])
    scores += (params.P @ r.T).ravel()[pcell]
    # softmax over each sentence's own tokens, shifted by that sentence's max
    e = np.exp(scores - np.maximum.reduceat(scores, starts)[sent])
    a = e / np.add.reduceat(e, starts)[sent]
    Cas = [_counts(doc.cell, len(Ed), len(doc), dtype, a[tokens]) for doc, Ed, _, tokens in parts]
    Ba = _counts(pcell, t_max, K, dtype, a)
    Abar = np.concatenate([Ca.T @ Ed for Ca, (_, Ed, _, _) in zip(Cas, parts)])
    Abar += Ba.T @ params.P  # sum_t a_t x_t per sentence
    Z0 = X0 + Abar @ params.Vp
    T1 = np.tanh(Z0 @ params.F1 + params.g1)
    cls = Z0 + T1 @ params.F2 + params.g2
    return cls.T, (sent, starts, pcell, parts, firsts, X0, q0, r, a, Cas, Ba, Abar, Z0, T1)


def _minitransformer_backward(params: MiniTransformerParams, cache: EncoderCache, dD: np.ndarray, sums) -> None:
    sent, starts, pcell, parts, firsts, X0, q0, r, a, Cas, Ba, Abar, Z0, T1 = cache.saved
    dcls = dD.T
    # FFN with residual: cls = Z0 + tanh(Z0@F1 + g1)@F2 + g2
    dH1 = (dcls @ params.F2.T) * (1.0 - T1**2)
    dZ0 = dcls + dH1 @ params.F1.T
    # attention with residual: Z0 = X0 + Abar @ Vp, Abar = sum_t a_t x_t, a = softmax_t(x_t . r)
    G = dZ0 @ params.Vp.T  # gradient at Abar
    da = np.concatenate([(Ed @ G[cols].T).ravel()[doc.cell] for doc, Ed, cols, _ in parts])
    da += (params.P @ G.T).ravel()[pcell]
    ds = a * (da - np.add.reduceat(a * da, starts)[sent])
    Css = [_counts(doc.cell, len(Ed), len(doc), X0.dtype, ds[tokens]) for doc, Ed, _, tokens in parts]
    Bs = _counts(pcell, *Ba.shape, X0.dtype, ds)
    dr = np.concatenate([Cs.T @ Ed for Cs, (_, Ed, _, _) in zip(Css, parts)])
    dr += Bs.T @ params.P
    scale = np.sqrt(X0.dtype.type(X0.shape[1]))
    dq0 = dr @ params.K / scale
    dX0 = dZ0 + dq0 @ params.Q.T

    # each token's dx_t = a_t G_j + ds_t r_j, summed by cell; sentences may share a first id
    for Ca, Cs, first, (doc, _, cols, _) in zip(Cas, Css, firsts, parts):
        rows = Ca @ G[cols]
        rows += Cs @ r[cols]
        np.add.at(rows, first, dX0[cols])
        sums["E"][doc.distinct] += rows
    dP = Ba @ G + Bs @ r
    dP[0] += dX0.sum(axis=0)
    sums["P"] += dP
    sums["Q"] += X0.T @ dq0
    sums["K"] += dr.T @ q0 / scale
    sums["Vp"] += Abar.T @ dZ0
    sums["F1"] += Z0.T @ dH1
    sums["F2"] += T1.T @ dcls
    sums["g1"] += dH1.sum(axis=0)
    sums["g2"] += dcls.sum(axis=0)


# each kind's (forward, backward) pair over a batch's layout
_PASSES = {
    MEANPOOL: (_meanpool_forward, _meanpool_backward),
    MINITRANSFORMER: (_minitransformer_forward, _minitransformer_backward),
}


def encode_document(batch: BatchLayout, params: EncoderParams) -> tuple[np.ndarray, EncoderCache]:
    """Encode a batch's sentences as the columns of D (h x K), plus the backward cache.

    Both kinds run on the whole batch at once, over the layouts built when
    its documents were prepared. Token counts and ids are checked against
    the params on every call.
    """
    _check_tokens(batch, params)
    D, saved = _PASSES[params.kind][0](params, batch)
    return D, EncoderCache(kind=params.kind, layout=batch, saved=saved)


def encoder_backward(
    params: EncoderParams, cache: EncoderCache, dD: np.ndarray, sums: dict[str, np.ndarray]
) -> None:
    """Add the exact gradient of the loss w.r.t. every encoder tensor, summed over the batch, into `sums`.

    dD holds the loss gradient for each column of D. `sums` maps each
    tensor's name to an array of its shape; E's gradient reaches only the
    rows of the batch's distinct token ids.
    """
    k = len(cache.layout)
    if dD.ndim != 2 or dD.shape[1] != k:
        raise CacheMismatch(f"dD shape {dD.shape} does not match {k} cached sentences")
    if cache.kind != params.kind:
        raise CacheMismatch("cache kind does not match params kind")
    _PASSES[params.kind][1](params, cache, dD, sums)
