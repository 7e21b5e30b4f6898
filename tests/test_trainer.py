import dataclasses
import hashlib
import json
import math
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
import zlib
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blas_core
from conftest import DATA_DIR
from sentence_layout import batch_of
from test_scripts import load_script
from sentattn.checkpoint import (
    BadMagic,
    Checkpoint,
    ChecksumMismatch,
    CheckpointError,
    TruncatedFile,
    UnsupportedVersion,
    load_checkpoint,
    save_checkpoint,
)
from sentattn import encoder, trainer
from sentattn.corpus import LabelVocabulary, NoLabels, load_corpus, split_of, split_records
from sentattn.encoder import (
    MEANPOOL,
    MINITRANSFORMER,
    ModelDims,
    encode_document,
    encoder_backward,
    init_encoder,
)
from sentattn.head import head_forward, init_head
from sentattn.synth import make_needle_corpus, needle_config, write_jsonl
from sentattn.trainer import (
    UNIFORM,
    Adam,
    DimsMismatch,
    EmptySplit,
    NonFiniteLoss,
    PreparedDoc,
    TrainConfig,
    document_text,
    evaluate,
    grad_check,
    predict_records,
    prepare_documents,
    train,
)

TINY_DIMS = ModelDims(h=8, c=4, v_buckets=256, t_max=12, f=8)


def tiny_config(**overrides):
    base = dict(dims=TINY_DIMS, k_max=8, encoder=MEANPOOL, lr=1e-2, batch_size=8,
                max_epochs=6, patience=6, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "tiny.jsonl"
    write_jsonl(make_needle_corpus(n_docs=48, n_labels=4, k=8, seed=1), path)
    return path


class TestTrainConfig:
    def test_stop_at_train_f1_needs_train_f1(self):
        with pytest.raises(ValueError, match="stop_at_train_f1 needs log_train_f1"):
            tiny_config(stop_at_train_f1=1.0)
        assert tiny_config(stop_at_train_f1=1.0, log_train_f1=True).stop_at_train_f1 == 1.0

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            tiny_config(seed=-1)

    @pytest.mark.parametrize("overrides, message", [
        ({"encoder": "lstm"}, "unknown encoder kind: 'lstm'"),
        ({"attention_mode": "hard"}, "unknown attention mode: 'hard'"),
        ({"k_max": 0}, "k_max must be positive"),
        ({"batch_size": -1}, "batch_size must be positive"),
        ({"max_epochs": 0, "patience": 0}, "max_epochs must be positive"),
        ({"patience": 0}, "patience must be positive"),
        ({"max_epochs": 3, "patience": 4}, "patience must not exceed max_epochs"),
    ])
    def test_refused_settings(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**overrides)

    @pytest.mark.parametrize("name, value", [
        ("lr", 0.0), ("lr", math.nan), ("lr", math.inf), ("adam_eps", math.nan), ("adam_eps", -1e-8),
        ("beta1", math.nan), ("beta1", 1.0), ("beta1", 0.0), ("beta2", 1.5), ("beta2", -math.inf),
    ])
    def test_adam_settings_outside_their_open_interval_are_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must lie in the open interval"):
            tiny_config(**{name: value})


class TestStopping:
    """train() against a scripted validation curve: one micro-F1 per epoch, in order."""

    @staticmethod
    def scripted(monkeypatch, curve):
        curve = list(curve)  # an epoch past the curve ends in IndexError

        def micro_scores(counts):
            return 0.0, 0.0, curve.pop(0)

        monkeypatch.setattr(trainer, "micro_scores", micro_scores)

    def run(self, monkeypatch, tiny_corpus, curve, **overrides):
        self.scripted(monkeypatch, curve)
        return train(tiny_config(**overrides), tiny_corpus)

    def assert_same_tensors(self, result, expected):
        for (name, kept), (_, want) in zip(result.checkpoint.tensors(), expected.checkpoint.tensors()):
            assert kept.tobytes() == want.tobytes(), name

    def test_peak_at_three_with_patience_two(self, monkeypatch, tiny_corpus):
        # the curve peaks at epoch 3; epochs 4 and 5 do not improve, so it stops after 5
        result = self.run(monkeypatch, tiny_corpus, [0.2, 0.5, 0.9, 0.8, 0.7, 0.95],
                          max_epochs=6, patience=2)
        assert [e.epoch for e in result.epochs] == [1, 2, 3, 4, 5]
        assert result.checkpoint.meta.epochs_run == 5
        assert result.checkpoint.meta.best_val_micro_f1 == 0.9
        epoch3 = self.run(monkeypatch, tiny_corpus, [0.2, 0.5, 0.9], max_epochs=3, patience=3)
        self.assert_same_tensors(result, epoch3)

    def test_ties_do_not_count_as_improvement(self, monkeypatch, tiny_corpus):
        result = self.run(monkeypatch, tiny_corpus, [0.5] * 4, max_epochs=6, patience=3)
        assert result.checkpoint.meta.epochs_run == 4
        assert result.checkpoint.meta.best_val_micro_f1 == 0.5
        epoch1 = self.run(monkeypatch, tiny_corpus, [0.5], max_epochs=1, patience=1)
        self.assert_same_tensors(result, epoch1)


class TestAdam:
    def test_first_step_size_is_learning_rate(self):
        p = np.array([1.0], dtype=np.float32)
        opt = Adam({"p": p}, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        assert set(opt.grad) == {"p"}
        opt.grad["p"] += np.array([4.0], dtype=np.float32)
        opt.step(1)
        # bias-corrected m_hat/sqrt(v_hat) == g/|g| on step 1
        assert p[0] == pytest.approx(0.9, abs=1e-6)

    def test_descends_a_quadratic(self):
        p = np.array([3.0], dtype=np.float64)
        opt = Adam({"p": p}, lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
        for _ in range(400):
            opt.grad["p"] += 2 * p
            opt.step(1)
        assert abs(p[0]) < 1e-2


    def test_in_place_step_is_the_textbook_formula_bit_for_bit(self):
        rng = np.random.default_rng(21)
        shapes = {"E": (40, 6), "q": (6,)}
        params = {n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}
        expected = {n: p.copy() for n, p in params.items()}
        m = {n: np.zeros_like(p) for n, p in params.items()}
        v = {n: np.zeros_like(p) for n, p in params.items()}
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = Adam(params, lr, beta1, beta2, eps)
        moments = (dict(opt.m), dict(opt.v))
        for t in range(1, 6):
            grads = {n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}
            grads["E"][::3] = 0.0  # rows a batch did not touch
            for n, g in grads.items():
                opt.grad[n] += g
            opt.step(1)
            for n, g in grads.items():
                m[n] = beta1 * m[n] + (1.0 - beta1) * g
                v[n] = beta2 * v[n] + (1.0 - beta2) * g * g
                m_hat = m[n] / (1.0 - beta1**t)
                v_hat = v[n] / (1.0 - beta2**t)
                expected[n] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for n in shapes:
                assert params[n].tobytes() == expected[n].tobytes(), (t, n)
                assert opt.m[n].tobytes() == m[n].tobytes(), (t, n)
                assert opt.v[n].tobytes() == v[n].tobytes(), (t, n)
        for n in shapes:
            assert opt.m[n] is moments[0][n] and opt.v[n] is moments[1][n]

    @staticmethod
    def textbook(p, m, v, g, t, lr, beta1, beta2, eps):
        """The whole-table update, one expression per line, in float32."""
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v

    @settings(max_examples=80, deadline=None)
    @given(n_rows=st.integers(2, 60), width=st.integers(1, 4),
           touched=st.lists(st.sets(st.integers(0, 58), max_size=5), min_size=2, max_size=6),
           seed=st.integers(0, 2**16))
    @example(n_rows=60, width=3, touched=[{1, 2}, {5}, set(), {1}], seed=0)  # most rows never live
    @example(n_rows=3, width=2, touched=[{0}, {1}], seed=1)  # ends with every row live
    def test_live_row_steps_equal_the_textbook_whole_table(self, n_rows, width, touched, seed):
        # Rows go live at random steps and most go silent again; the last row
        # is touched only at the last step. Stepping rows that have had no
        # gradient yet must leave them as the textbook update does.
        rng = np.random.default_rng(seed)
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
        params = {"E": rng.normal(size=(n_rows, width)).astype(np.float32),
                  "q": rng.normal(size=width).astype(np.float32)}
        params["E"][0, 0] = -0.0  # a signed zero, in a row that may never go live
        expected = {n: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for n, p in params.items()}
        opt = Adam(params, lr, beta1, beta2, eps)
        for t, subset in enumerate(touched, start=1):
            ids = np.array(sorted(i for i in subset if i < n_rows - 1), dtype=np.int64)
            if t == len(touched):
                ids = np.append(ids, n_rows - 1)
            grads = {n: np.zeros_like(p) for n, p in params.items()}
            grads["E"][ids] = rng.normal(size=(len(ids), width)).astype(np.float32)
            grads["q"][:] = rng.normal(size=width).astype(np.float32)
            opt.grad["E"][ids] += grads["E"][ids]  # as a backward pass adds a document's rows
            opt.grad["q"] += grads["q"]
            opt.step(1)
            for n, g in grads.items():
                expected[n] = self.textbook(*expected[n], g, t, lr, beta1, beta2, eps)
            for n in params:
                p, m, v = expected[n]
                assert params[n].tobytes() == p.tobytes(), (t, n)
                assert opt.m[n].tobytes() == m.tobytes(), (t, n)
                assert opt.v[n].tobytes() == v.tobytes(), (t, n)


def _document_grads(seed: int, dims: ModelDims, n_docs: int):
    """Adders of the encoder and head-like gradients of a few random meanpool documents (float32).

    Each adder adds one document's gradients into the sums it is given.
    """
    rng = np.random.default_rng(seed)
    params = init_encoder(MEANPOOL, dims, rng)

    def adder(cache, dD, db):
        def add(sums):
            encoder_backward(params, cache, dD, sums)
            sums["b"] += db
        return add

    docs = []
    for _ in range(n_docs):
        lens = rng.integers(3, dims.t_max + 1, size=int(rng.integers(1, 5)))
        sentences = [rng.integers(4, 12, size=m) for m in lens]  # ids shared across documents
        D, cache = encode_document(batch_of(sentences), params)
        dD = rng.normal(size=D.shape).astype(np.float32)
        docs.append(adder(cache, dD, rng.normal(size=3).astype(np.float32)))
    tensors = dict(params.named_tensors(), b=np.zeros(3, dtype=np.float32))
    return tensors, docs


class TestAdamBatch:
    DIMS = ModelDims(h=5, c=3, v_buckets=60, t_max=7, f=2)
    LR, BETA1, BETA2, EPS = 1e-2, 0.9, 0.999, 1e-8

    @staticmethod
    def alone(tensors, add):
        """One document's gradients, added into full-size zeros."""
        grads = {n: np.zeros_like(p) for n, p in tensors.items()}
        add(grads)
        return grads

    def dense_sum(self, tensors, docs):
        """The per-batch sum built densely: full-size zeros plus each document's own full-size gradient."""
        totals = {n: np.zeros_like(p) for n, p in tensors.items()}
        for add in docs:
            for n, g in self.alone(tensors, add).items():
                totals[n] += g
        return totals

    def adam(self, tensors):
        return Adam(tensors, self.LR, self.BETA1, self.BETA2, self.EPS)

    def test_scatter_add_equals_dense_sum_bit_for_bit(self):
        tensors, docs = _document_grads(5, self.DIMS, n_docs=4)
        opt = self.adam(tensors)
        for add in docs:
            add(opt.grad)
        expected = self.dense_sum(tensors, docs)
        for n in tensors:
            assert opt.grad[n].tobytes() == expected[n].tobytes(), n
        used = np.any([self.alone(tensors, add)["E"].any(axis=1) for add in docs], axis=0)
        untouched = np.flatnonzero(~used)
        assert len(untouched) > 0
        assert not opt.grad["E"][untouched].any()
        assert not np.signbit(opt.grad["E"][untouched]).any()  # +0.0, never -0.0

    def test_step_clears_to_positive_zero_and_the_buffers_are_reused(self):
        # Each step applies the textbook update to the batch mean, then leaves
        # every sum at +0.0 in the buffer it started in.
        tensors, docs = _document_grads(6, self.DIMS, n_docs=6)
        opt = self.adam(tensors)
        buffers = dict(opt.grad)
        expected = {n: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for n, p in tensors.items()}
        for t, batch in enumerate((docs[:3], docs[3:]), start=1):
            for add in batch:
                add(opt.grad)
            mean = self.dense_sum(tensors, batch)
            for n in mean:
                mean[n] *= 1.0 / len(batch)
                expected[n] = TestAdam.textbook(*expected[n], mean[n], t,
                                                self.LR, self.BETA1, self.BETA2, self.EPS)
            opt.step(len(batch))
            for n, total in opt.grad.items():
                assert tensors[n].tobytes() == expected[n][0].tobytes(), (t, n)
                assert total is buffers[n]
                assert not total.any() and not np.signbit(total).any(), n

    def test_step_finds_the_live_rows_without_a_set_operation(self, monkeypatch):
        tensors, docs = _document_grads(7, self.DIMS, n_docs=3)
        opt = self.adam(tensors)
        for add in docs:
            add(opt.grad)
        calls = []
        for name in ("unique", "concatenate", "union1d"):
            func = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, _f=func, _n=name, **k: calls.append(_n) or _f(*a, **k))
        opt.step(len(docs))
        assert not calls
        assert not opt.grad["E"].any()

    def test_memory_of_one_document_stays_far_below_the_table(self):
        # At the default dims, one document's backward plus its accumulation
        # must not allocate anything near a full-size E table.
        dims = ModelDims()
        rng = np.random.default_rng(0)
        params = init_encoder(MEANPOOL, dims, rng)
        opt = self.adam(dict(params.named_tensors()))
        sentences = [np.concatenate([[1], rng.integers(4, 4 + dims.v_buckets, size=m - 2), [2]])
                     for m in rng.integers(3, dims.t_max + 1, size=32)]
        D, cache = encode_document(batch_of(sentences), params)
        dD = rng.normal(size=D.shape).astype(np.float32)
        tracemalloc.start()
        try:
            encoder_backward(params, cache, dD, opt.grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.E.nbytes / 4, peak


class TestCompactRows:
    N_ROWS = 4 + 32768

    def prepared(self, n_docs, seed=0):
        rng = np.random.default_rng(seed)
        return [PreparedDoc(target=None,
                            layout=encoder.DocLayout(rng.integers(4, self.N_ROWS, size=90), [30, 30, 30]))
                for i in range(n_docs)]

    def test_rows_and_renumbering_match_the_sorted_union(self):
        docs = self.prepared(50)
        before = [doc.layout.distinct.copy() for doc in docs]
        rows, inverse = np.unique(np.concatenate(before), return_inverse=True)
        assert trainer._compact_rows(docs, self.N_ROWS).tolist() == rows.tolist()
        for doc, distinct in zip(docs, np.split(inverse, np.cumsum([len(d) for d in before])[:-1])):
            assert doc.layout.distinct.dtype == np.int32
            assert doc.layout.distinct.tolist() == distinct.tolist()

    def test_memory_is_bounded_by_the_table_not_the_corpus(self):
        # 2,000 documents read about 180,000 (document, id) pairs; a map built
        # from every pair, as np.unique over their concatenation, peaks near
        # 37 B a pair (6.8 MB here). The mask, the renumbering and the row
        # list take 13 B a table row (0.43 MB), whatever the corpus.
        docs = self.prepared(2000)
        tracemalloc.start()
        try:
            trainer._compact_rows(docs, self.N_ROWS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * self.N_ROWS, peak


class TestDocumentText:
    def test_title_and_abstract(self):
        from sentattn.corpus import PatentRecord

        r = PatentRecord(id="1", title="A widget", abstract="It spins.", description="Long text.")
        assert document_text(r) == "A widget. It spins."
        assert document_text(r, use_description=True) == "A widget. It spins.. Long text."

    def test_empty_title_skipped(self):
        from sentattn.corpus import PatentRecord

        r = PatentRecord(id="1", title="  ", abstract="It spins.")
        assert document_text(r) == "It spins."


class TestTrain:
    def test_deterministic_reruns_byte_identical(self, tiny_corpus, tmp_path):
        paths = []
        logs = []
        for run in range(2):
            result = train(tiny_config(), tiny_corpus)
            path = tmp_path / f"run{run}.satn"
            save_checkpoint(result.checkpoint, path)
            paths.append(path)
            logs.append([json.dumps(asdict(e)) for e in result.epochs])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert logs[0] == logs[1]

    # Tensor SHA-256 after 3 epochs with a 32,768-bucket table, one digest per
    # OpenBLAS kernel family, since each family sums float32 products in its
    # own order (tests/blas_core.py; recorded under OPENBLAS_CORETYPE). A core
    # outside the table skips these two tests, with its name in the reason;
    # test_kernel_families_agree_within_float32_rounding and the rerun test
    # above still run there.
    # Recorded when Adam still stepped every row: neither stepping only live
    # rows nor training on the compact table changed a bit. The
    # minitransformer digest was re-recorded when it became CLS-query
    # attention over the whole document, and again when its attention pooled
    # through weighted count matrices, and the meanpool digest when its
    # sentence means became matmuls over the count matrix. Both moved again
    # when each mini-batch became one pass over its documents' concatenated
    # sentence columns, whose gradients are summed by the batch's matmuls
    # rather than document by document; each change sums in another order.
    PINNED = {
        "SkylakeX": {MEANPOOL: "e9f8ea3a4610e413f13ff1dea83470cd4f9a34f51e56b52d59e1099e62e349fa",
                     MINITRANSFORMER: "79318236b0c04ea0672d015e7bdc2dc7a873f820682d83e4345d696f4c9f08fc"},
        "Haswell": {MEANPOOL: "2933c739721937922e8f4cc04c25a23ca19e1234ea9fa2437d2c1b5a73c7f03a",
                    MINITRANSFORMER: "927bb424de72cc6b0fdc68a05074f348f07b08e5bfc64f43efbbc6ced74a650f"},
        "Sandybridge": {MEANPOOL: "f76bf7fc2f7f1e53035131a7e2922b5b2866354b29b203f5b18465143a6f5934",
                        MINITRANSFORMER: "c7e7490b3d974be1e71af8c49f1077647659dce8c06ef1bf954c5c1fc151f826"},
        "Katmai": {MEANPOOL: "5b42b93e69ab3ebb3fdd5319841b0f2ca8c21b523a4ecdb6be8517e0933f21bb",
                   MINITRANSFORMER: "36c64d94599285e5d315ff74d18fbee40c009b59702fc483b415452f93b65e24"},
    }

    @staticmethod
    def pinned(table, kind):
        family = blas_core.family()
        if family is None:
            pytest.skip(f"no digests recorded for the BLAS core {blas_core.core_name()!r}")
        return table[family][kind]

    @pytest.mark.parametrize("kind", [MEANPOOL, MINITRANSFORMER])
    def test_tensors_are_pinned_with_a_full_size_table(self, kind, tiny_corpus):
        dims = ModelDims(h=16, c=4, v_buckets=32768, t_max=12, f=16)
        result = train(tiny_config(dims=dims, encoder=kind, max_epochs=3, patience=3), tiny_corpus)
        blob = b"".join(t.tobytes() for _, t in result.checkpoint.tensors())
        assert hashlib.sha256(blob).hexdigest() == self.pinned(self.PINNED, kind)

    # The same runs with uniform attention, over every tensor but S, recorded
    # when uniform attention was a separate head path that froze alpha at 1/k;
    # re-recorded with the count-matrix pooling of each kind, and with the
    # batch pass.
    PINNED_UNIFORM = {
        "SkylakeX": {MEANPOOL: "ed0b4524cec662f75a2d8dfaa7d2eb2897018a5b23852c33bac3ace3e3841f93",
                     MINITRANSFORMER: "171776f7889628a7ec44731ed244ba4fcb87ec00b1d04b541178831498bc103f"},
        "Haswell": {MEANPOOL: "baed6b65bc150521814ad64dcaf4e62fb569d9445f5b11671f25103a618e6e7f",
                    MINITRANSFORMER: "93a3b654a986eea18d74f1ce844b59df89bcac19d2c5f47ce1880596ecde4a4d"},
        "Sandybridge": {MEANPOOL: "39c4854a4f74f2d02b019c93c0d6e500c57e4e4d1be938561663e51e8068017c",
                        MINITRANSFORMER: "19dff24461bf50d20784ebfe4f836e1d8bad997688d0ae3b87b894ec25ec106b"},
        "Katmai": {MEANPOOL: "2a6038a1ebe2064eb7b96ed48d373cdc779e853e51629dd6216ea16a5281eb76",
                   MINITRANSFORMER: "b3c2389714c04e02e976afaba1314594bdaccd71914f0845ec9f5c629383742b"},
    }

    @pytest.mark.parametrize("kind", [MEANPOOL, MINITRANSFORMER])
    def test_uniform_tensors_but_s_are_pinned(self, kind, tiny_corpus):
        dims = ModelDims(h=16, c=4, v_buckets=32768, t_max=12, f=16)
        config = tiny_config(dims=dims, encoder=kind, max_epochs=3, patience=3, attention_mode=UNIFORM)
        tensors = train(config, tiny_corpus).checkpoint.tensors()
        blob = b"".join(t.tobytes() for name, t in tensors if name != "S")
        assert hashlib.sha256(blob).hexdigest() == self.pinned(self.PINNED_UNIFORM, kind)

    # Trains the pinned runs of both kinds in a fresh interpreter, under the
    # OPENBLAS_CORETYPE it was started with, and saves their tensors.
    PINNED_RUNS = """
import sys
import numpy as np
import blas_core
from test_trainer import tiny_config
from sentattn.encoder import ModelDims
from sentattn.trainer import train

dims = ModelDims(h=16, c=4, v_buckets=32768, t_max=12, f=16)
tensors = {}
for kind in ("meanpool", "minitransformer"):
    result = train(tiny_config(dims=dims, encoder=kind, max_epochs=3, patience=3), sys.argv[1])
    tensors.update({f"{kind}/{name}": t for name, t in result.checkpoint.tensors()})
np.savez(sys.argv[2], **tensors)
print(blas_core.core_name())
"""

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64") or blas_core.core_name() is None,
                        reason="selects x86-64 OpenBLAS kernels by OPENBLAS_CORETYPE")
    def test_kernel_families_agree_within_float32_rounding(self, tiny_corpus, tmp_path):
        # The pinned runs on this machine's kernels and on Prescott's, which
        # every x86-64 CPU can run (OpenBLAS reports them as Katmai), must
        # differ only by float32 rounding: every tensor within 1e-4, where
        # the weights reach about 0.1. SkylakeX against the other three
        # families differed by at most 1.8e-5 (minitransformer, Haswell), and
        # by at most 1.5e-6 for meanpool.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        runs, cores = [], []
        for i, coretype in enumerate((None, "Prescott")):
            run_env = dict(env, OPENBLAS_CORETYPE=coretype) if coretype else {
                k: v for k, v in env.items() if k != "OPENBLAS_CORETYPE"}
            argv = [sys.executable, "-c", self.PINNED_RUNS, str(tiny_corpus), str(tmp_path / f"{i}.npz")]
            out = subprocess.run(argv, env=run_env, capture_output=True, text=True, check=True)
            cores.append(out.stdout.strip())
            runs.append(np.load(tmp_path / f"{i}.npz"))
        if cores[0] == cores[1]:
            pytest.skip(f"OPENBLAS_CORETYPE=Prescott ran the same kernels as the default, {cores[0]}")
        assert runs[0].files == runs[1].files
        for name in runs[0].files:
            np.testing.assert_allclose(runs[0][name], runs[1][name], rtol=0, atol=1e-4, err_msg=name)

    def test_uniform_run_saves_s_at_positive_zero(self, tiny_corpus, tmp_path):
        result = train(tiny_config(attention_mode=UNIFORM), tiny_corpus)
        path = tmp_path / "uniform.satn"
        save_checkpoint(result.checkpoint, path)
        S = load_checkpoint(path).head_params.S
        assert S.shape == (4, TINY_DIMS.h)
        assert not S.any() and not np.signbit(S).any()

    def test_on_epoch_sees_each_log_in_order(self, tiny_corpus):
        seen = []
        result = train(tiny_config(max_epochs=3, patience=3), tiny_corpus, on_epoch=seen.append)
        assert [e.epoch for e in seen] == [1, 2, 3]
        assert seen == result.epochs

    def test_loss_decreases(self, tiny_corpus):
        result = train(tiny_config(max_epochs=10, patience=10), tiny_corpus)
        assert result.epochs[9].train_loss < result.epochs[0].train_loss

    def test_a_later_best_epoch_is_kept_apart_from_the_live_parameters(self, tiny_corpus):
        # Validation F1 here improves at epochs 1, 3 and 8 of 12: each later
        # best is copied into the first one's buffers, and training goes on.
        # Its checkpoint must be the parameters at the best epoch b, which a
        # run that stops at b returns.
        config = tiny_config(lr=0.2, max_epochs=12, patience=12)
        result = train(config, tiny_corpus)
        f1 = [e.val_micro_f1 for e in result.epochs]
        best = f1.index(max(f1)) + 1
        assert 1 < best < len(f1)
        assert result.checkpoint.meta.best_val_micro_f1 == max(f1)
        stopped = train(replace(config, max_epochs=best, patience=best), tiny_corpus)
        for (name, kept), (_, expected) in zip(result.checkpoint.tensors(), stopped.checkpoint.tensors()):
            assert kept.tobytes() == expected.tobytes(), name
        rerun = evaluate(result.checkpoint, tiny_corpus, split_name="validation", seed=3, k_max=8)
        assert rerun["micro"]["f1"] == max(f1)

    @staticmethod
    def read_rows(config, path, vocab, split_name):
        """The sorted distinct E rows that the prepared documents of one split read."""
        records = split_records(load_corpus(path)[0], config.seed, split_name)
        docs, _ = prepare_documents(records, vocab, config.k_max, config.dims.t_max, config.dims.v_buckets)
        return np.unique(np.concatenate([doc.layout.distinct for doc in docs]))

    def assert_unread_rows_keep_their_init(self, config, path):
        """Train, and check E's rows that no training document reads against a fresh draw.

        No such row ever has a gradient, so training must leave it as drawn.
        Returns the run's vocabulary and the rows that are read.
        """
        result = train(config, path)
        vocab = result.checkpoint.vocab
        read = self.read_rows(config, path, vocab, "train")
        E = result.checkpoint.encoder_params.E
        initial = init_encoder(config.encoder, config.dims, np.random.default_rng(config.seed),
                               dtype=np.float32).E
        unread = np.setdiff1d(np.arange(len(E)), read)
        assert len(unread) > 0
        assert E[unread].tobytes() == initial[unread].tobytes()
        assert (E[read] != initial[read]).any()
        return vocab, read

    @pytest.mark.parametrize("kind", [MEANPOOL, MINITRANSFORMER])
    def test_rows_no_training_document_reads_keep_their_initial_bits(self, kind, tiny_corpus):
        dims = ModelDims(h=16, c=4, v_buckets=32768, t_max=12, f=16)
        config = tiny_config(dims=dims, encoder=kind, max_epochs=3, patience=3)
        self.assert_unread_rows_keep_their_init(config, tiny_corpus)

    def test_unread_rows_keep_their_bits_once_adam_steps_the_whole_table(self, tmp_path):
        # Adam steps the whole compact table, which holds the rows that only
        # validation documents read. A vocabulary-rich corpus has such rows;
        # with no gradient and m = v = +0.0, each step must leave them as drawn.
        path = tmp_path / "zipf.jsonl"
        write_jsonl(load_script("adam_bench").make_zipf_corpus(80, 3000, np.random.default_rng(0)), path)
        config = tiny_config(dims=replace(TINY_DIMS, c=50, v_buckets=32768), max_epochs=3, patience=3)
        vocab, read = self.assert_unread_rows_keep_their_init(config, path)
        validation_only = np.setdiff1d(self.read_rows(config, path, vocab, "validation"), read)
        assert len(validation_only) > 0

    def test_adam_holds_only_the_rows_a_prepared_document_reads(self, tiny_corpus, monkeypatch):
        tables = []
        init = Adam.__init__

        def spy(opt, tensors, *args):
            tables.append(tensors["E"].shape)
            init(opt, tensors, *args)

        monkeypatch.setattr(Adam, "__init__", spy)
        dims = ModelDims(h=16, c=4, v_buckets=32768, t_max=12, f=16)
        config = tiny_config(dims=dims, max_epochs=1, patience=1)
        result = train(config, tiny_corpus)
        vocab = result.checkpoint.vocab
        read = np.union1d(self.read_rows(config, tiny_corpus, vocab, "train"),
                          self.read_rows(config, tiny_corpus, vocab, "validation"))
        assert tables == [(len(read), dims.h)]
        assert result.checkpoint.encoder_params.E.shape == (4 + dims.v_buckets, dims.h)

    # Run in a fresh interpreter, so that no memory freed by earlier tests is
    # reused unseen; prints the growth of the peak resident set over one
    # train() at the default dims, in units of the embedding table's size.
    TRAIN_PEAK_RSS = """
import sys
from sentattn.encoder import ModelDims
from sentattn.synth import make_needle_corpus, write_jsonl
from sentattn.trainer import TrainConfig, train

def status_kb(field):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(field + ":"))

write_jsonl(make_needle_corpus(n_docs=48, n_labels=4, k=8, seed=1), sys.argv[1])
before = status_kb("VmRSS")
result = train(TrainConfig(dims=ModelDims(), k_max=8, max_epochs=3, patience=3, seed=3), sys.argv[1])
print((status_kb("VmHWM") - before) * 1024 / result.checkpoint.encoder_params.E.nbytes)
"""

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc/self/status")
    def test_a_training_run_holds_one_embedding_table(self, tmp_path):
        # E is 8.4 MB at the default dims. Adam's state and the best-epoch
        # snapshot hold only the compact table of rows the documents read,
        # a few hundred here, so no second table. Their buffers stay under
        # numpy's 4 MB huge-page threshold, so the bound holds with numpy's
        # huge-page advice at its default.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", self.TRAIN_PEAK_RSS, str(tmp_path / "needle.jsonl")],
                             env=env, capture_output=True, text=True, check=True)
        assert float(out.stdout) < 1.5, out.stdout

    def test_vocabulary_from_training_split_only(self, tiny_corpus):
        result = train(tiny_config(), tiny_corpus)
        assert len(result.checkpoint.vocab) == 4
        assert result.split_sizes["train"] > 0

    def test_no_labels(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rows = [json.dumps({"id": f"r{i}", "title": "Text here.", "ipc_codes": ["bogus"]})
                for i in range(40)]
        path.write_text("\n".join(rows))
        with pytest.raises(NoLabels):
            train(tiny_config(), path)

    def test_empty_validation_split(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps({"id": "r0", "title": "Text here.", "ipc_codes": ["G06N"]}))
        with pytest.raises(EmptySplit, match="validation split is empty"):
            train(tiny_config(), path)

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(EmptySplit, match="corpus holds no usable records"):
            train(tiny_config(), path)

    def test_no_training_record(self, tmp_path):
        ids = [rid for rid in (f"r{i}" for i in range(100)) if split_of(3, rid) != "train"]
        path = tmp_path / "held_out.jsonl"
        path.write_text("\n".join(json.dumps({"id": rid, "title": "Text here.", "ipc_codes": ["G06N"]})
                                  for rid in ids))
        with pytest.raises(EmptySplit, match="training split is empty"):
            train(tiny_config(), path)

    def test_one_layout_per_document_for_the_whole_run(self, tiny_corpus, monkeypatch):
        built = []
        build = encoder.DocLayout.__init__

        def counting(layout, ids, lens):
            built.append(len(lens))
            build(layout, ids, lens)

        monkeypatch.setattr(encoder.DocLayout, "__init__", counting)
        result = train(tiny_config(max_epochs=3, patience=3, log_train_f1=True), tiny_corpus)
        assert len(result.epochs) == 3
        sizes, dropped = result.split_sizes, result.dropped
        docs = sizes["train"] - dropped["train"] + sizes["validation"] - dropped["validation"]
        assert len(built) == docs

    def test_forward_hands_encode_document_one_item_per_sentence(self, monkeypatch):
        # the benchmark's tracer counts sentences as len() of this argument: a batch's sentence count
        seen = []
        encode = trainer.encode_document

        def spy(batch, params):
            seen.append(len(batch))
            return encode(batch, params)

        monkeypatch.setattr(trainer, "encode_document", spy)
        rng = np.random.default_rng(0)
        enc_params = init_encoder(MEANPOOL, TINY_DIMS, rng)
        head_params = init_head(TINY_DIMS.c, TINY_DIMS.h, rng)
        sentences = [np.array([1, 5, 6, 2]), np.array([1, 7, 2]), np.array([1, 8, 9, 9, 2])]
        batch = batch_of(sentences, sentences[:2])
        for _ in range(2):
            trainer._forward(enc_params, head_params, batch)
        assert seen == [5, 5]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_names_the_batch(self, tiny_corpus):
        config = tiny_config(encoder=MINITRANSFORMER, lr=1e30, max_epochs=50, patience=50)
        with pytest.raises(NonFiniteLoss, match=r"epoch \d+, batch \d+"):
            train(config, tiny_corpus)


class TestEvaluate:
    def test_fully_overfit_run_scores_one_on_train(self, tmp_path):
        # text depends only on the label, so memorizing the training split
        # carries over to validation and the best-val checkpoint is the
        # fully-overfit one
        from sentattn.corpus import PatentRecord

        codes = ["A01B", "B82Y", "C07D", "G06N"]
        texts = {
            "A01B": ("Plow assembly", "The soil blade tills rows. A furrow guide steers."),
            "B82Y": ("Nanotube lattice", "The carbon mesh self assembles. Quantum dots align."),
            "C07D": ("Ring synthesis", "The heterocycle binds agents. A reagent bath mixes."),
            "G06N": ("Neural engine", "The tensor core learns weights. A gradient loop trains."),
        }
        records = []
        for i in range(48):
            code = codes[i % 4]
            title, abstract = texts[code]
            records.append(PatentRecord(id=f"clone{i:02d}", title=title, abstract=abstract,
                                        ipc_codes=[code + " 1/00"]))
        corpus = tmp_path / "clone.jsonl"
        write_jsonl(records, corpus)
        config = tiny_config(k_max=4, max_epochs=80, patience=80,
                             log_train_f1=True, stop_at_train_f1=1.0)
        result = train(config, corpus)
        assert result.epochs[-1].train_micro_f1 == 1.0
        out = evaluate(result.checkpoint, corpus, split_name="train", seed=3, k_max=4)
        assert out["micro"]["f1"] == 1.0

    def test_report_has_c_per_class_rows(self, tiny_corpus):
        result = train(tiny_config(), tiny_corpus)
        out = evaluate(result.checkpoint, tiny_corpus, split_name="test", seed=3, k_max=8)
        assert len(out["per_class"]) == 4
        assert set(out["totals"]) == {"documents", "dropped", "skipped"}

    def test_empty_split(self, tiny_corpus, tmp_path):
        result = train(tiny_config(), tiny_corpus)
        lonely = tmp_path / "lonely.jsonl"
        lonely.write_text(json.dumps({"id": "synth000", "title": "Post. Script.",
                                      "ipc_codes": ["A01B"]}))
        # synth000 hashes to train under seed 3, so the test split is empty
        with pytest.raises(EmptySplit, match="split 'test' is empty"):
            evaluate(result.checkpoint, lonely, split_name="test", seed=3, k_max=8)
        lonely.write_text("")
        with pytest.raises(EmptySplit, match="corpus holds no usable records"):
            evaluate(result.checkpoint, lonely, split_name="test", seed=3, k_max=8)

    def test_dims_mismatch_when_no_vocab_label_in_split(self, tiny_corpus, tmp_path):
        result = train(tiny_config(), tiny_corpus)
        alien = tmp_path / "alien.jsonl"
        rows = [json.dumps({"id": f"x{i}", "title": "Words here.", "ipc_codes": ["H99Z"]})
                for i in range(40)]
        alien.write_text("\n".join(rows))
        with pytest.raises(DimsMismatch):
            evaluate(result.checkpoint, alien, split_name="train", seed=3, k_max=8)

    def test_evaluate_is_deterministic(self, tiny_corpus):
        result = train(tiny_config(), tiny_corpus)
        a = evaluate(result.checkpoint, tiny_corpus, split_name="validation", seed=3, k_max=8)
        b = evaluate(result.checkpoint, tiny_corpus, split_name="validation", seed=3, k_max=8)
        assert a == b

    def test_saved_uniform_checkpoint_scores_with_uniform_attention(self, tmp_path):
        # learned attention over this run's S scores the validation split
        # differently from the uniform attention it was trained and selected
        # with (the tiny corpus scores alike under both)
        corpus = tmp_path / "needle.jsonl"
        write_jsonl(make_needle_corpus(n_docs=160), corpus)
        config = needle_config(UNIFORM, 60)
        result = train(config, corpus)
        path = tmp_path / "uniform.satn"
        save_checkpoint(result.checkpoint, path)
        ckpt = load_checkpoint(path)
        out = evaluate(ckpt, corpus, split_name="validation", seed=config.seed, k_max=config.k_max)
        assert out["micro"]["f1"] == result.checkpoint.meta.best_val_micro_f1
        records, _ = load_corpus(corpus)
        for row in predict_records(ckpt, records, k_max=config.k_max, with_attention=True):
            alpha = np.array(row["attention"])
            np.testing.assert_array_equal(alpha, np.full(alpha.shape, 1 / alpha.shape[1], np.float32))


def fresh_checkpoint(kind=MEANPOOL, seed=0, dims=ModelDims(h=4, c=3, v_buckets=16, t_max=6, f=5)):
    rng = np.random.default_rng(seed)
    codes = ["A01B", "G06N", "H04L"][: dims.c] if dims.c <= 3 else [f"A{i:02d}B" for i in range(dims.c)]
    return Checkpoint(
        dims=dims,
        vocab=LabelVocabulary(codes=codes),
        encoder_params=init_encoder(kind, dims, rng),
        head_params=init_head(dims.c, dims.h, rng),
    )


class TestPredictRecords:
    # predict_records scores a file in batches. A record's columns share the
    # batch's float32 matrix products, and BLAS picks their kernel, and with
    # it the order of each sum, by the product's shape (one column takes
    # gemv), so a record's scores can move in their last bits with the
    # records batched beside it. Measured: 0 to 5e-7 at h = 64.
    TOL = 1e-5

    @pytest.mark.parametrize("kind", (MEANPOOL, MINITRANSFORMER))
    def test_a_record_scores_alike_alone_and_in_a_file(self, kind):
        dims = ModelDims(h=64, c=50, v_buckets=4096, t_max=16, f=32)
        ckpt = fresh_checkpoint(kind, seed=5, dims=dims)
        for _, tensor in ckpt.encoder_params.named_tensors() + ckpt.head_params.named_tensors():
            tensor *= 10.0  # attention far from uniform
        # 41 records over three batches, of 8, 2 and 1 sentences
        records = [*make_needle_corpus(n_docs=24, n_labels=4, k=8, seed=1),
                   *make_needle_corpus(n_docs=16, n_labels=4, k=2, seed=2)]
        records.insert(20, dataclasses.replace(records[0], id="one", title="Only sentence", abstract=""))
        together = predict_records(ckpt, records, k_max=8, with_attention=True)
        assert {len(row["attention"][0]) for row in together} == {1, 2, 8}
        for record, row in zip(records, together):
            (alone,) = predict_records(ckpt, [record], k_max=8, with_attention=True)
            assert alone["id"] == row["id"] == record.id
            np.testing.assert_allclose(list(alone["scores"].values()), list(row["scores"].values()),
                                       rtol=0, atol=self.TOL)
            np.testing.assert_allclose(alone["attention"], row["attention"], rtol=0, atol=self.TOL)

    def test_a_generator_scores_like_the_list_one_batch_at_a_time(self, monkeypatch):
        ckpt = fresh_checkpoint(seed=5)
        records = make_needle_corpus(n_docs=41, n_labels=3, k=8, seed=1)
        as_list = predict_records(ckpt, records, k_max=8, with_attention=True)
        read, laid_out = [], []
        forward = trainer._forward

        def spy(enc_params, head_params, batch):
            laid_out.append((len(batch.docs), len(read)))
            return forward(enc_params, head_params, batch)

        def reading():
            for record in records:
                read.append(record.id)
                yield record

        monkeypatch.setattr(trainer, "_forward", spy)
        assert predict_records(ckpt, reading(), k_max=8, with_attention=True) == as_list
        assert [row["id"] for row in as_list] == read == [r.id for r in records]
        # each batch is scored when its last record has been read, and no later record
        batch = TrainConfig.batch_size
        assert laid_out == [(batch, batch), (batch, 2 * batch), (41 - 2 * batch, 41)]


class TestStreamedCorpus:
    # train and evaluate read the file one record at a time. A record is in
    # flight from its line to the next record's: its line's bytes, its
    # decoded text and its parsed fields, beside the record before it,
    # which the caller holds while the next is read. So descriptions that
    # use_description leaves unread raise the peak by about two records'
    # size (a record's line plus its text), not by one per record, as a list
    # of the file's records would (50 descriptions here, measured on such a list).
    DESCRIPTION = 100_000

    def test_long_descriptions_raise_the_peak_by_about_two_records(self, tmp_path):
        records = make_needle_corpus(n_docs=48, n_labels=4, k=8, seed=1)
        config = tiny_config(max_epochs=1, patience=1)
        long = ("Word here. " * (self.DESCRIPTION // 11 + 1))[: self.DESCRIPTION]
        peaks = {}
        for name, description in (("empty", ""), ("long", long)):
            path = tmp_path / f"{name}.jsonl"
            write_jsonl([replace(r, description=description) for r in records], path)
            ckpt = train(config, path).checkpoint  # first calls fill the word memo
            for stage, call in (("train", lambda: train(config, path)),
                                ("evaluate", lambda: evaluate(ckpt, path, split_name="all", seed=3, k_max=8))):
                tracemalloc.start()
                try:
                    call()
                    peaks[stage, name] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        record_size = 2 * self.DESCRIPTION
        for stage in ("train", "evaluate"):
            assert peaks[stage, "long"] - peaks[stage, "empty"] < 2.5 * record_size, peaks

    # train holds each kept token of its documents once, as the int32 cell of
    # its layout, not also as an int64 id until the vocabulary is built.
    # Measured: 4.76 B per added kept token, and 8.91 B when every id array
    # was held until then.
    BYTES_PER_KEPT_TOKEN = 6.8

    def test_training_peak_grows_by_the_layouts_not_the_token_ids(self, tmp_path):
        records = make_needle_corpus(n_docs=400, n_labels=4, k=8, seed=1)
        config = tiny_config(dims=replace(TINY_DIMS, t_max=8), k_max=128, use_description=True,
                             max_epochs=1, patience=1)
        peaks, tokens = {}, {}
        for name, description in (("none", ""), ("long", "Gear shaft lever plate bolt. " * 120)):
            corpus = [replace(r, description=description) for r in records]
            path = tmp_path / f"{name}.jsonl"
            write_jsonl(corpus, path)
            docs, _ = prepare_documents((r for r in corpus if split_of(config.seed, r.id) != "test"), None,
                                        config.k_max, config.dims.t_max, config.dims.v_buckets,
                                        config.use_description, require_labels=False)
            tokens[name] = sum(len(doc.layout.cell) for doc in docs)  # what train keeps; fills the word memo
            del docs
            tracemalloc.start()
            try:
                train(config, path)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        per_token = (peaks["long"] - peaks["none"]) / (tokens["long"] - tokens["none"])
        assert per_token < self.BYTES_PER_KEPT_TOKEN, (per_token, peaks, tokens)


# The committed version-1 files hold fresh_checkpoint(kind, dims=V1_DIMS),
# written by the save_checkpoint that built the whole file in memory first.
V1_DIMS = ModelDims(h=2, c=2, v_buckets=4, t_max=3, f=2)
V1_HEADER = 45  # magic, 6 u32 header fields, kind byte, code count, two 4-byte codes with their u16 lengths


class TestCheckpointFile:
    @pytest.mark.parametrize("kind", [MEANPOOL, MINITRANSFORMER])
    def test_round_trip_bit_exact(self, kind, tmp_path):
        ckpt = fresh_checkpoint(kind)
        path = tmp_path / "m.satn"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.kind == kind
        assert loaded.dims == ckpt.dims
        assert loaded.vocab.codes == ckpt.vocab.codes
        for (name, a), (_, b) in zip(ckpt.tensors(), loaded.tensors()):
            assert np.array_equal(a, b), name

    @pytest.mark.parametrize("kind", [MEANPOOL, MINITRANSFORMER])
    def test_saves_the_committed_v1_file_byte_for_byte(self, kind, tmp_path):
        path = tmp_path / "m.satn"
        save_checkpoint(fresh_checkpoint(kind, dims=V1_DIMS), path)
        assert path.read_bytes() == (DATA_DIR / f"checkpoint_v1_{kind}.satn").read_bytes()

    @pytest.mark.parametrize("kind", [MEANPOOL, MINITRANSFORMER])
    def test_loads_the_committed_v1_file_bit_for_bit(self, kind):
        blob = (DATA_DIR / f"checkpoint_v1_{kind}.satn").read_bytes()
        loaded = load_checkpoint(DATA_DIR / f"checkpoint_v1_{kind}.satn")
        assert (loaded.kind, loaded.dims, loaded.vocab.codes) == (kind, V1_DIMS, ["A01B", "G06N"])
        tensors = [t for _, t in loaded.tensors()]
        assert all(t.dtype == np.float32 and t.flags.aligned and t.flags.writeable for t in tensors)
        assert b"".join(t.tobytes() for t in tensors) == blob[V1_HEADER:-4]

    @pytest.mark.parametrize("kind", [MEANPOOL, MINITRANSFORMER])
    def test_save_and_load_hold_no_whole_file_copy(self, kind, tmp_path):
        # at the default dims: saving streams the tensors' own buffers, and
        # loading holds the file's bytes and the arrays, no slice of either
        ckpt = fresh_checkpoint(kind, dims=ModelDims())
        path = tmp_path / "m.satn"
        peaks = {}
        for name, call in (("save", lambda: save_checkpoint(ckpt, path)), ("load", lambda: load_checkpoint(path))):
            tracemalloc.start()
            try:
                call()
                peaks[name] = tracemalloc.get_traced_memory()[1] / path.stat().st_size
            finally:
                tracemalloc.stop()
        assert peaks["save"] < 0.25, peaks
        assert peaks["load"] < 2.25, peaks

    def test_round_trip_reproduces_forward_scores(self, tmp_path):
        ckpt = fresh_checkpoint()
        path = tmp_path / "m.satn"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        from sentattn.encoder import encode_document

        sentences = [np.array([1, 5, 9, 2]), np.array([1, 7, 2])]
        layout = batch_of(sentences)
        before, _ = encode_document(layout, ckpt.encoder_params)
        after, _ = encode_document(layout, loaded.encoder_params)
        s_before = head_forward(before, ckpt.head_params).scores
        s_after = head_forward(after, loaded.head_params).scores
        assert np.array_equal(s_before, s_after)

    def test_flipped_payload_byte(self, tmp_path):
        path = tmp_path / "m.satn"
        save_checkpoint(fresh_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[-40] ^= 0xFF  # inside the tensor payload
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    def test_flipped_vocab_byte(self, tmp_path):
        path = tmp_path / "m.satn"
        save_checkpoint(fresh_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[35] ^= 0xFF  # first byte of the first code, "A" -> an invalid UTF-8 lead byte
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    def test_every_flipped_byte_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "m.satn"
        save_checkpoint(fresh_checkpoint(MINITRANSFORMER), path)
        blob = path.read_bytes()
        for i in range(len(blob)):
            flipped = bytearray(blob)
            flipped[i] ^= 0xFF
            path.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    # Both callers of output_file: save_checkpoint (the ids without a prefix)
    # and the CLI's --out, whose failure main reports as exit 2.
    @pytest.mark.parametrize("writer, failing", [(writer, failing) for writer in ("checkpoint", "--out")
                                                 for failing in ("write", "fsync", "replace")],
                             ids=["write", "fsync", "replace", "--out-write", "--out-fsync", "--out-replace"])
    def test_failed_save_keeps_the_old_file_whole(self, tmp_path, tmp_path_factory, monkeypatch, writer, failing):
        import os

        from sentattn.cli import EXIT_DATA, main

        path = tmp_path / "m.satn"
        corpus = tmp_path_factory.mktemp("corpus") / "c.jsonl"
        write_jsonl(make_needle_corpus(n_docs=24, n_labels=4, k=8, seed=1), corpus)

        def save(seed):
            if writer == "checkpoint":
                save_checkpoint(fresh_checkpoint(seed=seed), path)
                return
            code = main(["split", str(corpus), "--seed", str(seed), "--out", str(path)])
            if code == EXIT_DATA:
                raise OSError("split --out failed")
            assert code == 0

        save(0)
        old = path.read_bytes()

        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        if failing == "write":
            from pathlib import Path

            real_open = Path.open

            class HalfFull:  # the disk fills up halfway through the blob
                def __init__(self, fh):
                    self.fh = fh

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.fh.close()

                def write(self, data):
                    self.fh.write(data[: len(data) // 2])
                    self.fh.flush()
                    fail()

            monkeypatch.setattr(Path, "open", lambda self, mode="r", *a, **k: (
                HalfFull(real_open(self, mode, *a, **k)) if "w" in mode else real_open(self, mode, *a, **k)))
        else:
            monkeypatch.setattr(os, failing, fail)
        with pytest.raises(OSError):
            save(1)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.satn"]
        save(1)
        assert path.read_bytes() != old
        assert [p.name for p in tmp_path.iterdir()] == ["m.satn"]

    def test_label_count_other_than_c_is_refused(self, tmp_path):
        dims = ModelDims(h=4, c=2, v_buckets=16, t_max=6, f=5)
        rng = np.random.default_rng(0)
        ckpt = Checkpoint(dims=dims, vocab=LabelVocabulary(codes=["A01B", "G06N"]),
                          encoder_params=init_encoder(MEANPOOL, dims, rng),
                          head_params=init_head(dims.c, dims.h, rng))
        path = tmp_path / "m.satn"
        for codes in (["A01B"], ["A01B", "G06N", "H04L"]):
            with pytest.raises(CheckpointError, match=f"{len(codes)} label codes for c = 2"):
                save_checkpoint(replace(ckpt, vocab=LabelVocabulary(codes=codes)), path)
            assert not path.exists()
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        # by hand: the code count (offset 29) raised to 3, a third code after
        # the two (which end at offset 45), and a valid CRC
        body = blob[:29] + struct.pack("<I", 3) + blob[33:45] + struct.pack("<H", 4) + b"H04L" + blob[45:-4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match="3 label codes for c = 2"):
            load_checkpoint(path)

    def test_tensor_of_the_wrong_shape_is_refused(self, tmp_path):
        ckpt = fresh_checkpoint()
        ckpt.head_params.W = np.zeros((3, 5), dtype=np.float32)
        path = tmp_path / "m.satn"
        with pytest.raises(CheckpointError, match=r"tensor W has shape \(3, 5\), expected \(3, 4\)"):
            save_checkpoint(ckpt, path)
        assert not path.exists()

    def test_truncated_mid_tensor(self, tmp_path):
        path = tmp_path / "m.satn"
        save_checkpoint(fresh_checkpoint(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedFile):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.satn"
        save_checkpoint(fresh_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.satn"
        save_checkpoint(fresh_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersion):
            load_checkpoint(path)

    def test_v_buckets_past_int32_token_ids_is_refused(self, tmp_path):
        # token ids run to 3 + v_buckets, and layouts hold them as int32
        assert ModelDims(v_buckets=2**31 - 4).v_buckets == 2**31 - 4
        with pytest.raises(ValueError, match="v_buckets must be at most 2147483644"):
            ModelDims(v_buckets=2**31 - 3)
        path = tmp_path / "m.satn"
        save_checkpoint(fresh_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[16:20] = (2**31 - 3).to_bytes(4, "little")  # the header's v_buckets
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="v_buckets must be at most"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.satn"
        save_checkpoint(fresh_checkpoint(), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestGradCheck:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(eps=0.0), "eps must be positive"), (dict(eps=-1e-3), "eps must be positive"),
        (dict(eps=float("nan")), "eps must be positive"),
        (dict(seed=-1), "seed must be non-negative"),
    ])
    def test_out_of_range_arguments_are_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            grad_check(**kwargs)

    def test_meanpool_tight(self):
        assert grad_check(kind=MEANPOOL, seed=1, eps=1e-3).max_rel_error < 1e-4

    def test_minitransformer_tight(self):
        assert grad_check(kind=MINITRANSFORMER, seed=1, eps=1e-3).max_rel_error < 1e-4

    def test_sees_a_dropped_query_path_term(self, monkeypatch):
        # Q enters the minitransformer's backward only through dq0 @ Q.T in
        # dX0, so a zero Q there is exactly the backward without that term
        forward, backward = encoder._PASSES[MINITRANSFORMER]

        def without_query_term(params, cache, dD, sums):
            backward(dataclasses.replace(params, Q=np.zeros_like(params.Q)), cache, dD, sums)

        monkeypatch.setitem(encoder._PASSES, MINITRANSFORMER, (forward, without_query_term))
        dims = ModelDims(h=8, c=3, v_buckets=8, t_max=6, f=6)
        report = grad_check(kind=MINITRANSFORMER, seed=0, eps=1e-3, dims=dims, k=4)
        assert report.max_rel_error > 1e-4, report

    @pytest.mark.parametrize("rows, named", [(slice(1, 2), "q[1]"), (slice(None), "q[0]")])
    def test_a_nan_gradient_is_the_worst_error_and_named(self, monkeypatch, rows, named):
        forward, backward = encoder._PASSES[MEANPOOL]

        def nan_query_gradient(params, cache, dD, sums):
            backward(params, cache, dD, sums)
            sums["q"][rows] = np.nan

        monkeypatch.setitem(encoder._PASSES, MEANPOOL, (forward, nan_query_gradient))
        report = grad_check(kind=MEANPOOL, seed=0)
        assert math.isnan(report.max_rel_error)
        assert report.worst_param == named

    def test_coarse_eps_degrades_without_crashing(self):
        fine = grad_check(kind=MEANPOOL, seed=2, eps=1e-3)
        coarse = grad_check(kind=MEANPOOL, seed=2, eps=1e-1)
        assert coarse.max_rel_error > fine.max_rel_error
        assert coarse.worst_param


class TestPrepareDocuments:
    def test_dropped_plus_retained_balances(self, tiny_corpus):
        from sentattn.corpus import load_corpus

        records, _ = load_corpus(tiny_corpus)
        vocab = LabelVocabulary(codes=["A01B", "B82Y"])  # two of the four synth labels
        docs, dropped = prepare_documents(records, vocab, k_max=8, t_max=12, v_buckets=64)
        assert len(docs) + dropped == len(records)
        for doc in docs:
            assert doc.target.sum() >= 1

    def test_sentence_budget_respected(self, tiny_corpus):
        from sentattn.corpus import load_corpus

        records, _ = load_corpus(tiny_corpus)
        docs, _ = prepare_documents(records, None, k_max=5, t_max=12, v_buckets=64,
                                    require_labels=False)
        assert all(1 <= len(d.layout) <= 5 for d in docs)

    # Preprocessing runs no float arithmetic, so unlike PINNED its layouts are
    # the same bits on every BLAS kernel. Recorded before the scanner read "."
    # boundaries alone and the layout build became one argsort; neither moved
    # a bit. The longdoc-shaped corpus keeps 128 of each document's 189
    # sentences, and its "!" and "?" boundaries take the full rule's scan.
    LAYOUT_DIGEST = "ac410017132dd29395599a9b6db7d2204a2d146a8057af63b27a815dca2765e3"

    def test_prepared_layouts_are_pinned(self):
        def longdoc(record):
            body = make_needle_corpus(n_docs=1, k=150, seed=int(record.id[5:]))[0].abstract
            return replace(record, description=body.replace(". C", "! C").replace(". G", "? G"))

        digest = hashlib.sha256()
        for records, dims, k_max, use_description in [
            (make_needle_corpus(n_docs=24, k=32, seed=5), ModelDims(), TrainConfig.k_max, False),
            ([longdoc(r) for r in make_needle_corpus(n_docs=8, k=40, seed=6)],
             ModelDims(h=32, c=8, v_buckets=4096, t_max=32, f=32), 128, True),
        ]:
            docs, _ = prepare_documents(records, None, k_max, dims.t_max, dims.v_buckets, use_description,
                                        require_labels=False)
            for doc in docs:
                for name in ("distinct", "cell", "lens"):
                    digest.update(getattr(doc.layout, name).astype("<i4").tobytes())
        assert sum(len(doc.layout) for doc in docs) == 8 * 128
        assert digest.hexdigest() == self.LAYOUT_DIGEST
