"""Mini-batch training, evaluation, and gradient verification.

The training loop is fully deterministic for a fixed seed: id-hash split,
vocabulary built from the training split only, seeded parameter init,
seeded epoch shuffles, sequential gradient accumulation in document order
and 32-bit parameter arithmetic. Two runs with the same config produce
byte-identical checkpoints and logs.

Every document is prepared once, before any pass over it: segmented,
tokenized into one id array, and laid out as the DocLayout that every
training and validation pass over it reads.

Adam steps only the embedding table's live rows, those that have ever had
a gradient, which is exact. It holds their state in the order they went
live, so its memory follows the live rows, not the table; once gathering
them costs more, it moves the state into table order and steps the whole
table in place.

Model selection is validation micro-F1, and `train` holds the whole
stopping rule: the best-epoch parameters are snapshotted, into one copy
made at the first best and overwritten at each later one, and training
stops after `patience` epochs without a strict improvement (a tie is
none), or once train micro-F1 reaches `stop_at_train_f1`. grad_check
rebuilds a small random instance in float64 and compares every analytic
gradient against central finite differences.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import corpus as corpus_mod
from .checkpoint import Checkpoint, TrainMeta, model_tensors
from .corpus import LabelVocabulary, PatentRecord, load_corpus, split_records
from .encoder import (
    ENCODER_KINDS,
    MEANPOOL,
    DocLayout,
    EncoderParams,
    ModelDims,
    RowGrad,
    encode_document,
    encoder_backward,
    init_encoder,
)
from .head import HeadParams, bce_loss, head_backward, head_forward, init_head, predict
from .metrics import ConfusionCounts, macro_scores, micro_scores
from .metrics import report as metrics_report
from .segmenter import CLS_ID, SEP_ID, sentence_spans, token_ids

LEARNED = "learned"
UNIFORM = "uniform"
ATTENTION_MODES = (LEARNED, UNIFORM)


class EmptySplit(Exception):
    """A required split contains no usable document."""


class DimsMismatch(Exception):
    """No record in the split carries any label from the checkpoint vocabulary."""


class NonFiniteLoss(Exception):
    """Training loss became NaN or infinite."""


@dataclass
class TrainConfig:
    dims: ModelDims
    k_max: int = 128
    encoder: str = MEANPOOL
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 16
    max_epochs: int = 200
    patience: int = 10
    seed: int = 42
    use_description: bool = False
    attention_mode: str = LEARNED
    log_train_f1: bool = False
    stop_at_train_f1: float | None = None

    def __post_init__(self) -> None:
        if self.encoder not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind: {self.encoder!r}")
        if self.attention_mode not in ATTENTION_MODES:
            raise ValueError(f"unknown attention mode: {self.attention_mode!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("k_max", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # a NaN fails every comparison, so it is refused with the rest
        for name, high in (("lr", math.inf), ("adam_eps", math.inf), ("beta1", 1), ("beta2", 1)):
            if not 0 < getattr(self, name) < high:
                raise ValueError(f"{name} must lie in the open interval (0, {high})")
        if self.patience > self.max_epochs:
            raise ValueError("patience must not exceed max_epochs")
        if self.stop_at_train_f1 is not None and not self.log_train_f1:
            raise ValueError("stop_at_train_f1 needs log_train_f1, which computes train F1")


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_micro_f1: float
    val_macro_f1: float
    train_micro_f1: float | None = None


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    epochs: list[EpochLog]
    load_report: corpus_mod.LoadReport
    split_sizes: dict[str, int]
    dropped: dict[str, int]


@dataclass
class PreparedDoc:
    """One document as every pass reads it: its token layout, built once, and its label bits."""

    id: str
    layout: DocLayout
    target: np.ndarray | None


# Adam holds a row-sparse tensor's state in slot order while at most this
# share of its rows is live, and in table order from then on. Gathering n
# live rows, stepping the contiguous slot prefix in place and scattering the
# rows back costs about as much as stepping the whole table in place once n
# reaches three quarters of it (a 32,772 x 64 float32 table on one x86-64
# Xeon core, scripts/adam_bench.py).
_SLOT_ORDER_MAX_LIVE = 0.75


class _Slots:
    """The slot order of one table's live rows: slot i holds row `rows[i]`."""

    def __init__(self, n_rows: int):
        self.slot = np.full(n_rows, -1, dtype=np.intp)  # row -> slot; -1 until the row goes live
        self.rows = np.empty(n_rows, dtype=np.intp)     # slot -> row, the first n in use
        self.n = 0

    def of(self, ids: np.ndarray) -> np.ndarray:
        """The slots of distinct rows `ids`, each new row taking the next free slot."""
        slots = self.slot[ids]
        new = slots < 0
        if new.any():
            fresh = ids[new]
            end = self.n + len(fresh)
            slots[new] = self.slot[fresh] = np.arange(self.n, end)
            self.rows[self.n : end] = fresh
            self.n = end
        return slots


class Adam:
    """Mini-batch adaptive moment estimation with bias correction, stepping only live rows.

    `add` sums each document's gradients into buffers allocated once per
    run. Gradients of tensors it does not hold, such as the frozen S of a
    uniform-attention run, are dropped. A tensor's `grad`, `m` and `v` start
    in slot order: the first time a row-sparse gradient (RowGrad, the
    embedding table E's) reaches a row, the row takes the next free slot,
    and its state lives in that row of the buffers. So the state of n live
    rows is the buffers' first n rows, and pages past them are never
    written. A dense gradient moves its tensor's state into table order, as
    does `step` once more than _SLOT_ORDER_MAX_LIVE of a table's rows are
    live, and there it stays. `step` takes, per tensor, the live rows
    gathered from the table in slot order, or the whole table in place. It
    scales them to the batch mean, applies the textbook update one in-place
    operation at a time, scatters gathered rows back and clears the sums to
    +0.0. That is exact: a live row outside the batch sums +0.0, and a row
    never live has m = v = +0.0, which the update leaves unchanged bit for
    bit.
    """

    def __init__(self, tensors: dict[str, np.ndarray], lr: float, beta1: float, beta2: float, eps: float):
        self.tensors = tensors
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        # np.zeros, not zeros_like: no page is written before a row is
        self.grad = {name: np.zeros(p.shape, p.dtype) for name, p in tensors.items()}
        self.m = {name: np.zeros(p.shape, p.dtype) for name, p in tensors.items()}
        self.v = {name: np.zeros(p.shape, p.dtype) for name, p in tensors.items()}
        self._slots = {name: _Slots(len(p)) for name, p in tensors.items()}

    def _to_table_order(self, name: str) -> None:
        """Move one tensor's state from slot order into table order, if it is not there yet."""
        slots = self._slots.pop(name, None)
        if slots is None:
            return
        for state in (self.grad[name], self.m[name], self.v[name]):
            live = state[: slots.n].copy()
            state[: slots.n] = 0.0
            state[slots.rows[: slots.n]] = live

    def add(self, grads: dict[str, np.ndarray | RowGrad]) -> None:
        """Add one document's gradients to the batch sums."""
        for name, g in grads.items():
            if name not in self.grad:
                continue
            if not isinstance(g, RowGrad):
                self._to_table_order(name)
                self.grad[name] += g
            elif name in self._slots:
                # a RowGrad's ids are distinct, so are their slots, and += is exact
                self.grad[name][self._slots[name].of(g.ids)] += g.rows
            else:
                g.add_to(self.grad[name])

    def step(self, n_docs: int) -> None:
        """One update with the mean of the `n_docs` documents added since the last."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, table in self.tensors.items():
            slots = self._slots.get(name)
            if slots is not None and slots.n > _SLOT_ORDER_MAX_LIVE * len(table):
                self._to_table_order(name)
                slots = None
            # the whole table in place, or a copy of the live rows in slot order
            live = None if slots is None else slots.rows[: slots.n]
            p = table if live is None else table[live]
            g, m, v = self.grad[name][: len(p)], self.m[name][: len(p)], self.v[name][: len(p)]
            g *= 1.0 / n_docs
            a = np.empty_like(p)
            # m = beta1*m + (1-beta1)*g
            np.multiply(m, self.beta1, out=m)
            np.multiply(g, 1.0 - self.beta1, out=a)
            np.add(m, a, out=m)
            # v = beta2*v + ((1-beta2)*g)*g
            np.multiply(v, self.beta2, out=v)
            np.multiply(g, 1.0 - self.beta2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            # p -= (lr*m_hat) / (sqrt(v_hat) + eps); g is spent, so it holds the denominator
            np.divide(m, bc1, out=a)
            np.multiply(a, self.lr, out=a)
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            np.add(g, self.eps, out=g)
            np.divide(a, g, out=a)
            np.subtract(p, a, out=p)
            if live is not None:
                table[live] = p
            g[...] = 0.0


def document_text(record: PatentRecord, use_description: bool = TrainConfig.use_description) -> str:
    """Model input text: title + ". " + abstract, description only when asked."""
    parts = [record.title, record.abstract]
    if use_description:
        parts.append(record.description)
    return ". ".join(filter(None, (p.strip() for p in parts)))


def prepare_documents(
    records: list[PatentRecord],
    vocab: LabelVocabulary | None,
    k_max: int,
    t_max: int,
    v_buckets: int,
    use_description: bool = TrainConfig.use_description,
    require_labels: bool = True,
) -> tuple[list[PreparedDoc], int]:
    """Segment, tokenize and lay out records; returns (docs, dropped-for-no-label count).

    Each document's sentences are tokenized into one id array, each word's
    ids served from the segmenter's word memo, and its DocLayout is built
    from that array here, once.
    """
    docs: list[PreparedDoc] = []
    dropped = 0
    for record in records:
        target = None
        if vocab is not None:
            target = corpus_mod.encode_labels(record, vocab)
            if target is None and require_labels:
                dropped += 1
                continue
        text = document_text(record, use_description)
        sentences = (text[start:end] for start, end in sentence_spans(text, k_max))
        layout = DocLayout(*token_ids(sentences, t_max, v_buckets))
        docs.append(PreparedDoc(id=record.id, layout=layout, target=target))
    return docs, dropped


def _forward(enc_params: EncoderParams, head_params: HeadParams, doc: PreparedDoc):
    D, enc_cache = encode_document(doc.layout, enc_params)
    return head_forward(D, head_params), enc_cache


def _confusion(enc_params, head_params, docs, c: int) -> ConfusionCounts:
    """Threshold-0.5 predictions of every document, counted against its target."""
    counts = ConfusionCounts(c)
    for doc in docs:
        cache, _ = _forward(enc_params, head_params, doc)
        counts.accumulate(predict(cache.scores), doc.target)
    return counts


def train(
    config: TrainConfig,
    corpus_path,
    on_epoch: Callable[[EpochLog], None] | None = None,
) -> TrainResult:
    """Train encoder + head on the corpus file's 8:1:1 split.

    `on_epoch`, when given, is called with each epoch's log as soon as the
    epoch ends, so a caller can report progress while training runs.
    """
    records, load_report = load_corpus(corpus_path)
    if not records:
        raise EmptySplit("corpus holds no usable records")
    train_records = split_records(records, config.seed, "train")
    val_records = split_records(records, config.seed, "validation")
    if not train_records:
        raise EmptySplit("training split is empty")
    vocab = corpus_mod.build_vocabulary(train_records, config.dims.c)
    dims = replace(config.dims, c=len(vocab))

    train_docs, dropped_train = prepare_documents(
        train_records, vocab, config.k_max, dims.t_max, dims.v_buckets, config.use_description)
    val_docs, dropped_val = prepare_documents(
        val_records, vocab, config.k_max, dims.t_max, dims.v_buckets, config.use_description)
    if not val_docs:
        raise EmptySplit("validation split is empty")

    rng = np.random.default_rng(config.seed)
    enc_params = init_encoder(config.encoder, dims, rng, dtype=np.float32)
    head_params = init_head(dims.c, dims.h, rng, dtype=np.float32)
    tensors = dict(model_tensors(enc_params, head_params))
    if config.attention_mode == UNIFORM:
        # S = +0.0 makes every attention row exactly 1/k; S is never stepped
        head_params.S.fill(0.0)
        del tensors["S"]
    optimizer = Adam(tensors, config.lr, config.beta1, config.beta2, config.adam_eps)

    best_f1, since_best, best_snapshot = -math.inf, 0, None
    epochs: list[EpochLog] = []

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_docs))
        loss_sum = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [train_docs[i] for i in order[start : start + config.batch_size]]
            batch_loss = 0.0
            for doc in batch:
                cache, enc_cache = _forward(enc_params, head_params, doc)
                batch_loss += bce_loss(cache.logits, doc.target)
                head_grads, dD = head_backward(head_params, cache, doc.target)
                optimizer.add(encoder_backward(enc_params, enc_cache, dD))
                optimizer.add(head_grads)
            if not math.isfinite(batch_loss):
                raise NonFiniteLoss(f"epoch {epoch}, batch {start // config.batch_size}")
            optimizer.step(len(batch))
            loss_sum += batch_loss
        val_counts = _confusion(enc_params, head_params, val_docs, dims.c)
        val_micro = micro_scores(val_counts)[2]
        entry = EpochLog(
            epoch=epoch,
            train_loss=loss_sum / len(train_docs),
            val_micro_f1=val_micro,
            val_macro_f1=macro_scores(val_counts)[2],
        )
        if config.log_train_f1:
            train_counts = _confusion(enc_params, head_params, train_docs, dims.c)
            entry.train_micro_f1 = micro_scores(train_counts)[2]
        epochs.append(entry)
        if on_epoch is not None:
            on_epoch(entry)
        since_best += 1
        if val_micro > best_f1:  # strictly: a tie is no improvement
            best_f1, since_best = val_micro, 0
            if best_snapshot is None:
                best_snapshot = (copy.deepcopy(enc_params), copy.deepcopy(head_params))
            else:  # later bests overwrite the first one's buffers
                for (_, kept), (_, now) in zip(model_tensors(*best_snapshot),
                                               model_tensors(enc_params, head_params)):
                    np.copyto(kept, now)
        if since_best >= config.patience or (
                config.stop_at_train_f1 is not None and entry.train_micro_f1 >= config.stop_at_train_f1):
            break

    enc_best, head_best = best_snapshot
    ckpt = Checkpoint(
        dims=dims, vocab=vocab,
        encoder_params=enc_best, head_params=head_best,
        meta=TrainMeta(epochs_run=len(epochs), best_val_micro_f1=best_f1, seed=config.seed),
    )
    return TrainResult(
        checkpoint=ckpt,
        epochs=epochs,
        load_report=load_report,
        split_sizes={"train": len(train_records), "validation": len(val_records),
                     "test": len(records) - len(train_records) - len(val_records)},
        dropped={"train": dropped_train, "validation": dropped_val},
    )


def evaluate(
    ckpt: Checkpoint,
    corpus_path,
    split_name: str = "test",
    seed: int = TrainConfig.seed,
    k_max: int = TrainConfig.k_max,
    use_description: bool = TrainConfig.use_description,
) -> dict:
    """Forward + threshold-0.5 predict over one split, with the checkpoint's vocabulary."""
    if k_max <= 0:  # refused before any record is read, so an empty corpus gets the same answer
        raise ValueError("k_max must be positive")
    records, load_report = load_corpus(corpus_path)
    if not records:
        raise EmptySplit("corpus holds no usable records")
    selected = split_records(records, seed, split_name)
    if not selected:
        raise EmptySplit(f"split {split_name!r} is empty")
    docs, dropped = prepare_documents(
        selected, ckpt.vocab, k_max, ckpt.dims.t_max, ckpt.dims.v_buckets, use_description)
    if not docs:
        raise DimsMismatch(f"no record in split {split_name!r} carries a vocabulary label")
    counts = _confusion(ckpt.encoder_params, ckpt.head_params, docs, ckpt.dims.c)
    out = metrics_report(counts, labels=ckpt.vocab.codes)
    out["totals"] = {"documents": len(docs), "dropped": dropped, "skipped": load_report.total_skipped}
    return out


def predict_records(
    ckpt: Checkpoint,
    records: list[PatentRecord],
    k_max: int = TrainConfig.k_max,
    threshold: float = 0.5,
    with_attention: bool = False,
    use_description: bool = TrainConfig.use_description,
) -> list[dict]:
    """Score records against the checkpoint; labels in the input are ignored."""
    if not 0.0 <= threshold <= 1.0:  # NaN too
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    docs, _ = prepare_documents(
        records, None, k_max, ckpt.dims.t_max, ckpt.dims.v_buckets, use_description,
        require_labels=False)
    results = []
    for doc in docs:
        cache, _ = _forward(ckpt.encoder_params, ckpt.head_params, doc)
        bits = predict(cache.scores, threshold)
        entry = {
            "id": doc.id,
            "scores": {code: float(cache.scores[i]) for i, code in enumerate(ckpt.vocab.codes)},
            "predicted": [code for i, code in enumerate(ckpt.vocab.codes) if bits[i]],
        }
        if with_attention:
            entry["attention"] = cache.alpha.tolist()
        results.append(entry)
    return results


@dataclass
class GradCheckReport:
    kind: str
    max_rel_error: float
    worst_param: str
    n_checked: int


def grad_check(
    kind: str = MEANPOOL,
    seed: int = 0,
    eps: float = 1e-3,
    dims: ModelDims | None = None,
    k: int = 3,
) -> GradCheckReport:
    """Compare every analytic gradient to central finite differences (float64).

    Builds one random small instance; relative error per element is
    |analytic - fd| / max(1, |fd|). The matrices are scaled from the init's
    +-0.05 to +-0.5: at the init, the minitransformer's query-path term of
    dX is too small for the check to see.
    """
    if not eps > 0:  # NaN too
        raise ValueError("eps must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    dims = dims or ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=5)
    rng = np.random.default_rng(seed)
    enc_params = init_encoder(kind, dims, rng, dtype=np.float64)
    head_params = init_head(dims.c, dims.h, rng, dtype=np.float64)
    ids: list[int] = []
    lens = []
    for _ in range(k):
        m = int(rng.integers(3, dims.t_max + 1))
        ids += (CLS_ID, *rng.integers(4, 4 + dims.v_buckets, size=m - 2), SEP_ID)
        lens.append(m)
    targets = rng.integers(0, 2, size=dims.c).astype(np.int8)
    layout = DocLayout(np.array(ids, dtype=np.int64), lens)
    doc = PreparedDoc(id="gradcheck", layout=layout, target=targets)

    tensors = dict(model_tensors(enc_params, head_params))
    for tensor in tensors.values():
        tensor *= 10.0
    cache, enc_cache = _forward(enc_params, head_params, doc)
    head_grads, dD = head_backward(head_params, cache, targets)
    analytic = {**encoder_backward(enc_params, enc_cache, dD), **head_grads}
    for name, g in analytic.items():
        if isinstance(g, RowGrad):  # scatter the row-sparse E gradient into a dense table
            analytic[name] = np.zeros_like(tensors[name])
            g.add_to(analytic[name])

    def loss() -> float:
        c, _ = _forward(enc_params, head_params, doc)
        return bce_loss(c.logits, targets)

    worst = ("", -1.0)
    n_checked = 0
    for name, tensor in tensors.items():
        flat = tensor.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            loss_plus = loss()
            flat[i] = orig - eps
            loss_minus = loss()
            flat[i] = orig
            fd = (loss_plus - loss_minus) / (2.0 * eps)
            rel = abs(analytic[name].reshape(-1)[i] - fd) / max(1.0, abs(fd))
            n_checked += 1
            if not rel <= worst[1] and not math.isnan(worst[1]):  # the first NaN is the worst error
                worst = (f"{name}[{i}]", rel)
    return GradCheckReport(kind=kind, max_rel_error=worst[1], worst_param=worst[0], n_checked=n_checked)
