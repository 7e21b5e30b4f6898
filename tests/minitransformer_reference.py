"""Per-sentence minitransformer encoder: the loop that the whole-document
encoder in `sentattn.encoder` replaced, kept here as its oracle.

Each sentence runs the full block on its own: m x m single-head scaled
dot-product self-attention with residual, then a tanh FFN with residual
over all m rows; the CLS vector is the output row at position 0. The
backward pass accumulates gradients sentence by sentence in document order.
"""

from dataclasses import dataclass

import numpy as np

from sentattn.encoder import MiniTransformerParams, RowGrad


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


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def encode_sentence(ids: np.ndarray, params: MiniTransformerParams) -> tuple[np.ndarray, MiniTransformerCache]:
    m = len(ids)
    X = params.E[ids] + params.P[:m]
    Qm = X @ params.Q
    Km = X @ params.K
    Vm = X @ params.Vp
    A = _softmax_rows(Qm @ Km.T / np.sqrt(X.dtype.type(params.E.shape[1])))
    Z = X + A @ Vm
    T1 = np.tanh(Z @ params.F1 + params.g1)
    out = Z + T1 @ params.F2 + params.g2
    return out[0].copy(), MiniTransformerCache(ids=ids, X=X, Qm=Qm, Km=Km, Vm=Vm, A=A, Z=Z, T1=T1)


def encode_document(sentences: list[np.ndarray], params: MiniTransformerParams):
    cols, caches = zip(*(encode_sentence(ids, params) for ids in sentences))
    return np.stack(cols, axis=1), list(caches)


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


def encoder_backward(params: MiniTransformerParams, caches: list[MiniTransformerCache], dD: np.ndarray):
    """Gradients of every minitransformer tensor; E comes back as a RowGrad."""
    grads = {name: np.zeros_like(t) for name, t in params.named_tensors() if name != "E"}
    token_rows = [_minitransformer_backward(params, c, dD[:, j], grads) for j, c in enumerate(caches)]
    distinct, slot = np.unique(np.concatenate([c.ids for c in caches]), return_inverse=True)
    rows = np.zeros((len(distinct), params.E.shape[1]), dtype=params.E.dtype)
    np.add.at(rows, slot, np.concatenate(token_rows))
    return {"E": RowGrad(ids=distinct, rows=rows), **grads}
