"""Mini-batch training, evaluation, and gradient verification.

The training loop is fully deterministic for a fixed seed and BLAS
kernel: id-hash split, vocabulary built from the training split only,
seeded parameter init, seeded epoch shuffles, a fixed order of summation
within each batch and 32-bit parameter arithmetic. Two runs with the same
config on the same kernel produce byte-identical checkpoints and logs.

Every document is prepared once, before any pass over it: segmented,
tokenized into one id array, and laid out as the DocLayout that every
training and validation pass over it reads. `train`, `evaluate` and
`predict_records` prepare along one path, `_prepared`: records are read
`READ_WINDOW` at a time, keeping only each record's id, codes and model
text; the window's texts are tokenized and let go, and then the window's
records are laid out. One label step, `_labelled`, then sets each
document's target. `train` reads the corpus file once, through
`iter_corpus`: a `filter` lets each test record go before the next is read,
and each laid-out record is filed by `split_of`. It builds the vocabulary
from the training codes and then labels its laid-out training and
validation documents, so a document the vocabulary drops is laid out
before it is dropped. `evaluate` labels each record of its split
as it is laid out, and `predict_records` scores each batch once its last
record is laid out, so none of them holds the file's text. Every pass
batches through one loop, `_batches`; each batch runs as one forward (and
in training one backward) pass over its documents' concatenated sentence
columns (BatchLayout), whose gradients go straight into the optimizer's
per-tensor sums. Training batches each epoch's shuffle by `batch_size`;
validation, evaluate and predict score in order, in batches of
TrainConfig.batch_size's default. In every pass an overflow, or a loss or
score that is not finite, raises NonFiniteLoss.

Training runs on a compact embedding table: the rows of E that some
prepared training or validation document reads, in table order, found by a
mask over the table, with each document's layout renumbered into it in
place, once. No other row can have a gradient or be read, so every other
row keeps its initial bits, and Adam and the best-epoch snapshot hold only
the compact rows. Adam steps each tensor whole and in place; a compact row
that has had no gradient yet is left unchanged bit for bit.

Model selection is validation micro-F1, and `train` holds the whole
stopping rule: the best-epoch parameters are snapshotted, into one copy
made at the first best and overwritten at each later one, and training
stops after `patience` epochs without a strict improvement (a tie is
none), or once train micro-F1 reaches `stop_at_train_f1`. At the end the
snapshot is written back into the live parameters and its compact rows
into the full table, which the checkpoint holds, so a run keeps one
embedding table. grad_check rebuilds a small random batch of two
documents in float64 and compares every analytic gradient against central
finite differences.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import corpus as corpus_mod
from .checkpoint import Checkpoint, TrainMeta, model_tensors
from .corpus import (
    SPLIT_NAMES, LabelVocabulary, LoadReport, PatentRecord, RecordLabels, iter_corpus, split_of,
    split_records,
)
from .encoder import (
    ENCODER_KINDS,
    MEANPOOL,
    BatchLayout,
    DocLayout,
    EncoderParams,
    ModelDims,
    encode_document,
    encoder_backward,
    init_encoder,
)
from .hashing import RESERVED_IDS
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
    """Training loss, or a model's score, became NaN or infinite."""


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


class PreparedDoc(NamedTuple):
    """One document as every pass reads it: its label bits and its layout, built once; `_batches` cuts it."""

    target: np.ndarray | None
    layout: DocLayout


class Adam:
    """Mini-batch adaptive moment estimation with bias correction, one dense step per tensor.

    `grad` holds one sum per tensor, allocated once per run, into which the
    backward passes add a batch's gradients; a tensor it does not hold, such
    as the frozen S of a uniform-attention run, has no sum and gets none.
    `step` scales each sum to the batch mean, applies the textbook update to
    the whole tensor one in-place operation at a time, and clears the sums
    to +0.0. A row that has had no gradient yet has m = v = +0.0, which the
    update leaves unchanged bit for bit.
    """

    def __init__(self, tensors: dict[str, np.ndarray], lr: float, beta1: float, beta2: float, eps: float):
        self.tensors = tensors
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.grad = {name: np.zeros_like(p) for name, p in tensors.items()}
        self.m = {name: np.zeros_like(p) for name, p in tensors.items()}
        self.v = {name: np.zeros_like(p) for name, p in tensors.items()}

    def step(self, n_docs: int) -> None:
        """One update with the mean of the `n_docs` documents' gradients added since the last."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.tensors.items():
            g, m, v = self.grad[name], self.m[name], self.v[name]
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
            g[...] = 0.0


def document_text(record: PatentRecord, use_description: bool = TrainConfig.use_description) -> str:
    """Model input text: title + ". " + abstract, description only when asked."""
    parts = [record.title, record.abstract]
    if use_description:
        parts.append(record.description)
    return ". ".join(filter(None, (p.strip() for p in parts)))


READ_WINDOW = 16  # records whose model text is held at once, and then whose id arrays wait for layout


def _prepared(records: Iterable[PatentRecord], k_max: int, t_max: int, v_buckets: int,
              use_description: bool) -> Iterator[tuple[RecordLabels, DocLayout]]:
    """Each record's id and codes (`without_text`), with its text's DocLayout, in input order.

    Records are read `READ_WINDOW` at a time, keeping only their model text
    (`document_text`); the window's texts are tokenized and let go, and its
    id arrays then laid out, each freed as its layout is built. Tokenizing
    each record right after its line was parsed ran about 7% slower on short
    documents, and laying each out right after its own tokenizing 1-4% slower.
    """
    records = iter(records)
    while window := [(record.without_text(), document_text(record, use_description))
                     for record in islice(records, READ_WINDOW)]:
        window = deque((record, token_ids((text[start:end] for start, end in sentence_spans(text, k_max)),
                                          t_max, v_buckets)) for record, text in window)
        while window:
            record, (ids, lens) = window.popleft()
            yield record, DocLayout(ids, lens)


def _labelled(prepared: Iterable[tuple[RecordLabels, DocLayout]], vocab: LabelVocabulary | None,
              require_labels: bool = True) -> tuple[list[PreparedDoc], int]:
    """PreparedDocs of laid-out records, each with its target, and how many were dropped.

    With a vocabulary, a record that carries none of its labels is dropped,
    unless `require_labels` is off; then, as without a vocabulary, its
    target is None.
    """
    docs: list[PreparedDoc] = []
    dropped = 0
    for record, layout in prepared:
        target = None if vocab is None else corpus_mod.encode_labels(record, vocab)
        if target is None and vocab is not None and require_labels:
            dropped += 1
        else:
            docs.append(PreparedDoc(target, layout))
    return docs, dropped


def prepare_documents(
    records: Iterable[PatentRecord],
    vocab: LabelVocabulary | None,
    k_max: int,
    t_max: int,
    v_buckets: int,
    use_description: bool = TrainConfig.use_description,
    require_labels: bool = True,
) -> tuple[list[PreparedDoc], int]:
    """Segment, tokenize and lay out records as they come; returns (docs, dropped-for-no-label count).

    Each text's sentences are tokenized into one id array, each word's ids
    served from the segmenter's word memo, and its DocLayout is built from
    that array, once. As in `train`, which cannot know the vocabulary while
    it reads, a record is laid out before its labels are checked.
    """
    return _labelled(_prepared(records, k_max, t_max, v_buckets, use_description), vocab, require_labels)


def _forward(enc_params: EncoderParams, head_params: HeadParams, batch: BatchLayout):
    D, enc_cache = encode_document(batch, enc_params)
    return head_forward(D, head_params, batch.bounds), enc_cache


def _batches(pairs: Iterable[tuple[object, DocLayout]], size: int = TrainConfig.batch_size):
    """(items, their BatchLayout) of `size` (item, layout) pairs at a time, each once its last is read."""
    pairs = iter(pairs)
    while chunk := list(islice(pairs, size)):
        items, layouts = zip(*chunk)
        yield items, BatchLayout(layouts)


def _scored(enc_params, head_params, batch: BatchLayout):
    """The head's forward cache of a batch that is only scored, under the caller's np.errstate(over="raise",
    invalid="raise"); NonFiniteLoss if the pass overflows, even to finite scores, or a score is not finite."""
    try:
        cache, _ = _forward(enc_params, head_params, batch)
    except FloatingPointError as exc:
        raise NonFiniteLoss(f"the model's forward pass: {exc}") from exc
    # NaN bytes raise no flag; scores lie in [0, 1], so their sum is finite unless one is not
    if not math.isfinite(cache.scores.sum()):
        raise NonFiniteLoss("the model scores a document NaN or infinite")
    return cache


def _confusion(enc_params, head_params, docs: list[PreparedDoc], c: int) -> ConfusionCounts:
    """Threshold-0.5 predictions of every document, counted against its target, a batch at a time."""
    counts = ConfusionCounts(c)
    with np.errstate(over="raise", invalid="raise"):
        for targets, batch in _batches(docs):
            counts.accumulate(predict(_scored(enc_params, head_params, batch).scores), np.stack(targets))
    return counts


def _step(enc_params, head_params, optimizer: Adam, batch: BatchLayout, targets: np.ndarray) -> float:
    """One mini-batch's forward, BCE and backward pass, its gradients added to the optimizer's sums.

    Returns the batch's loss. Each cache is freed once its backward pass
    has run, so the batch's largest arrays are not all held at once.
    """
    cache, enc_cache = _forward(enc_params, head_params, batch)
    loss = bce_loss(cache.logits, targets)
    dD = head_backward(head_params, cache, targets, optimizer.grad)
    del cache
    encoder_backward(enc_params, enc_cache, dD, optimizer.grad)
    return loss


def _compact_rows(docs: list[PreparedDoc], n_rows: int) -> np.ndarray:
    """The sorted rows of an n_rows table that some document reads; renumbers each layout into them.

    Built from a mask over the table, and each layout renumbered in place,
    so it takes memory in the table's size, not the corpus's. The
    renumbering is monotonic, so each document's `distinct` stays sorted
    and its `cell` holds.
    """
    read = np.zeros(n_rows, dtype=bool)
    for _, layout in docs:
        read[layout.distinct] = True
    renumbered = np.cumsum(read, dtype=np.int32)  # a read row's index among them, plus one
    renumbered -= 1
    for _, layout in docs:
        renumbered.take(layout.distinct, out=layout.distinct)
    return np.flatnonzero(read)


def train(
    config: TrainConfig,
    corpus_path,
    on_epoch: Callable[[EpochLog], None] | None = None,
) -> TrainResult:
    """Train encoder + head on the corpus file's 8:1:1 split.

    `on_epoch`, when given, is called with each epoch's log as soon as the
    epoch ends, so a caller can report progress while training runs.
    """
    load_report = LoadReport()
    # filter drops a test record before it reads the next; the others are filed by part once laid out
    records = filter(lambda r: split_of(config.seed, r.id) != "test", iter_corpus(corpus_path, load_report))
    prepared = {"train": [], "validation": []}
    for labels, layout in _prepared(records, config.k_max, config.dims.t_max, config.dims.v_buckets,
                                    config.use_description):
        prepared[split_of(config.seed, labels.id)].append((labels, layout))
    n_train, n_val = len(prepared["train"]), len(prepared["validation"])
    split_sizes = dict(zip(SPLIT_NAMES, (n_train, n_val, load_report.retained - n_train - n_val)))
    if not load_report.retained:
        raise EmptySplit("corpus holds no usable records")
    if not prepared["train"]:
        raise EmptySplit("training split is empty")
    vocab = corpus_mod.build_vocabulary((record for record, _ in prepared["train"]), config.dims.c)
    dims = replace(config.dims, c=len(vocab))
    # each list is popped, so a record's codes are freed once its document is labelled
    train_docs, dropped_train = _labelled(prepared.pop("train"), vocab)
    val_docs, dropped_val = _labelled(prepared.pop("validation"), vocab)
    if not val_docs:
        raise EmptySplit("validation split is empty")

    rng = np.random.default_rng(config.seed)
    enc_params = init_encoder(config.encoder, dims, rng, dtype=np.float32)
    head_params = init_head(dims.c, dims.h, rng, dtype=np.float32)
    # No pass reads, and no gradient reaches, a row of E that no prepared
    # document reads, so training runs on a compact table of the rows they
    # read, renumbered in order; every other row keeps its initial bits.
    table = enc_params.E
    rows = _compact_rows(train_docs + val_docs, len(table))
    enc_params.E = table[rows]
    tensors = dict(model_tensors(enc_params, head_params))
    if config.attention_mode == UNIFORM:
        # S = +0.0 makes every attention row exactly 1/k; S is never stepped
        head_params.S.fill(0.0)
        del tensors["S"]
    optimizer = Adam(tensors, config.lr, config.beta1, config.beta2, config.adam_eps)

    best_f1, since_best, best = -math.inf, 0, None
    epochs: list[EpochLog] = []

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_docs))
        loss_sum = 0.0
        with np.errstate(over="raise", invalid="raise"):  # once per epoch, not per batch: entering costs 1.2 us
            for index, (targets, batch) in enumerate(_batches((train_docs[j] for j in order), config.batch_size)):
                try:
                    batch_loss = _step(enc_params, head_params, optimizer, batch, np.stack(targets))
                    if not math.isfinite(batch_loss):  # a quiet NaN raises no flag
                        raise FloatingPointError("the loss is not finite")
                    optimizer.step(len(targets))
                except FloatingPointError as exc:
                    raise NonFiniteLoss(f"epoch {epoch}, batch {index}") from exc
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
            if best is None:
                best = {name: p.copy() for name, p in tensors.items()}
            else:  # later bests overwrite the first one's buffers
                for name, p in tensors.items():
                    np.copyto(best[name], p)
        if since_best >= config.patience or (
                config.stop_at_train_f1 is not None and entry.train_micro_f1 >= config.stop_at_train_f1):
            break

    for name, p in tensors.items():
        np.copyto(p, best[name])
    table[rows] = enc_params.E
    enc_params.E = table
    ckpt = Checkpoint(
        dims=dims, vocab=vocab,
        encoder_params=enc_params, head_params=head_params,
        meta=TrainMeta(epochs_run=len(epochs), best_val_micro_f1=best_f1, seed=config.seed),
    )
    return TrainResult(
        checkpoint=ckpt,
        epochs=epochs,
        load_report=load_report,
        split_sizes=split_sizes,
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
    load_report = LoadReport()
    docs, dropped = prepare_documents(
        split_records(iter_corpus(corpus_path, load_report), seed, split_name),
        ckpt.vocab, k_max, ckpt.dims.t_max, ckpt.dims.v_buckets, use_description)
    if not load_report.retained:
        raise EmptySplit("corpus holds no usable records")
    if not docs and not dropped:
        raise EmptySplit(f"split {split_name!r} is empty")
    if not docs:
        raise DimsMismatch(f"no record in split {split_name!r} carries a vocabulary label")
    counts = _confusion(ckpt.encoder_params, ckpt.head_params, docs, ckpt.dims.c)
    out = metrics_report(counts, labels=ckpt.vocab.codes)
    out["totals"] = {"documents": len(docs), "dropped": dropped, "skipped": load_report.total_skipped}
    return out


def predict_records(
    ckpt: Checkpoint,
    records: Iterable[PatentRecord],
    k_max: int = TrainConfig.k_max,
    threshold: float = 0.5,
    with_attention: bool = False,
    use_description: bool = TrainConfig.use_description,
) -> list[dict]:
    """Score records against the checkpoint; labels in the input are ignored.

    Records are prepared and scored `TrainConfig.batch_size` at a time, as
    they come, so an iterator over a file is read once and never held whole.
    """
    if not 0.0 <= threshold <= 1.0:  # NaN too
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    results = []
    with np.errstate(over="raise", invalid="raise"):
        for chunk, batch in _batches(_prepared(records, k_max, ckpt.dims.t_max, ckpt.dims.v_buckets,
                                               use_description)):
            cache = _scored(ckpt.encoder_params, ckpt.head_params, batch)
            bits = predict(cache.scores, threshold).tolist()
            for d, (record, scores) in enumerate(zip(chunk, cache.scores.tolist())):
                entry = {
                    "id": record.id,
                    "scores": dict(zip(ckpt.vocab.codes, scores)),
                    "predicted": [code for code, bit in zip(ckpt.vocab.codes, bits[d]) if bit],
                }
                if with_attention:
                    entry["attention"] = cache.alpha[:, batch.bounds[d] : batch.bounds[d + 1]].tolist()
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

    Builds one random small instance, a batch of two documents of k and
    k + 1 sentences whose loss is the sum of theirs; relative error per
    element is |analytic - fd| / max(1, |fd|). The matrices are scaled from
    the init's +-0.05 to +-0.5: at the init, the minitransformer's
    query-path term of dX is too small for the check to see.
    """
    if not eps > 0:  # NaN too
        raise ValueError("eps must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    dims = dims or ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=5)
    rng = np.random.default_rng(seed)
    enc_params = init_encoder(kind, dims, rng, dtype=np.float64)
    head_params = init_head(dims.c, dims.h, rng, dtype=np.float64)
    layouts = []
    for doc_k in (k, k + 1):  # two documents, of k and k + 1 sentences; CLS and SEP are rows of both
        ids: list[int] = []
        lens = []
        for _ in range(doc_k):
            m = int(rng.integers(3, dims.t_max + 1))
            ids += (CLS_ID, *rng.integers(RESERVED_IDS, RESERVED_IDS + dims.v_buckets, size=m - 2), SEP_ID)
            lens.append(m)
        layouts.append(DocLayout(np.array(ids, dtype=np.int64), lens))
    targets = rng.integers(0, 2, size=(len(layouts), dims.c)).astype(np.int8)
    batch = BatchLayout(layouts)

    tensors = dict(model_tensors(enc_params, head_params))
    for tensor in tensors.values():
        tensor *= 10.0
    cache, enc_cache = _forward(enc_params, head_params, batch)
    analytic = {name: np.zeros_like(tensor) for name, tensor in tensors.items()}
    dD = head_backward(head_params, cache, targets, analytic)
    encoder_backward(enc_params, enc_cache, dD, analytic)

    def loss() -> float:
        c, _ = _forward(enc_params, head_params, batch)
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
