import dataclasses
import hashlib
import json
import math
import os
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

from sentence_layout import layout_of
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
from sentattn.corpus import LabelVocabulary, NoLabels, load_corpus, split_of
from sentattn.encoder import (
    MEANPOOL,
    MINITRANSFORMER,
    ModelDims,
    RowGrad,
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


def table_order(opt: Adam, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adam's grad, m and v of one tensor in table order, whichever order it holds them in."""
    states = (opt.grad[name], opt.m[name], opt.v[name])
    slots = opt._slots.get(name)
    if slots is None:
        return states
    out = []
    for state in states:
        full = np.zeros_like(state)
        full[slots.rows[: slots.n]] = state[: slots.n]
        out.append(full)
    return tuple(out)


class TestAdam:
    def test_first_step_size_is_learning_rate(self):
        p = np.array([1.0], dtype=np.float32)
        opt = Adam({"p": p}, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        # a gradient of a tensor the optimizer does not hold (a frozen S) is dropped
        opt.add({"p": np.array([4.0], dtype=np.float32), "S": np.array([1.0], dtype=np.float32)})
        assert set(opt.grad) == {"p"}
        opt.step(1)
        # bias-corrected m_hat/sqrt(v_hat) == g/|g| on step 1
        assert p[0] == pytest.approx(0.9, abs=1e-6)

    def test_descends_a_quadratic(self):
        p = np.array([3.0], dtype=np.float64)
        opt = Adam({"p": p}, lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
        for _ in range(400):
            opt.add({"p": 2 * p.copy()})
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
            opt.add(grads)
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
    @example(n_rows=60, width=3, touched=[{1, 2}, {5}, set(), {1}], seed=0)  # stays gathered
    @example(n_rows=3, width=2, touched=[{0}, {1}], seed=1)  # ends with every row live
    def test_live_row_steps_equal_the_textbook_whole_table(self, n_rows, width, touched, seed):
        # Rows go live at random steps and most go silent again; the last row
        # is touched only at the last step. Whether a step gathers the live
        # rows or falls back to the whole table, the bits must match.
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
            opt.add({"E": RowGrad(ids=ids, rows=grads["E"][ids]), "q": grads["q"]})
            opt.step(1)
            for n, g in grads.items():
                expected[n] = self.textbook(*expected[n], g, t, lr, beta1, beta2, eps)
            for n in params:
                p, m, v = expected[n]
                _, opt_m, opt_v = table_order(opt, n)
                assert params[n].tobytes() == p.tobytes(), (t, n)
                assert opt_m.tobytes() == m.tobytes(), (t, n)
                assert opt_v.tobytes() == v.tobytes(), (t, n)

    def test_a_fully_live_table_falls_back_to_the_whole_table(self):
        rng = np.random.default_rng(4)
        params = {"E": rng.normal(size=(4, 3)).astype(np.float32)}
        expected = (params["E"].copy(), np.zeros_like(params["E"]), np.zeros_like(params["E"]))
        opt = Adam(params, 1e-2, 0.9, 0.999, 1e-8)
        for t, ids in enumerate([np.array([2]), np.array([0, 3]), np.array([1])], start=1):
            g = np.zeros_like(params["E"])
            g[ids] = rng.normal(size=(len(ids), 3)).astype(np.float32)
            opt.add({"E": RowGrad(ids=ids, rows=g[ids])})
            opt.step(1)
            expected = self.textbook(*expected, g, t, 1e-2, 0.9, 0.999, 1e-8)
        assert "E" not in opt._slots  # every row is live: the state moved into table order
        _, m, v = table_order(opt, "E")
        assert params["E"].tobytes() == expected[0].tobytes()
        assert m.tobytes() == expected[1].tobytes()
        assert v.tobytes() == expected[2].tobytes()

    def test_a_dense_gradient_after_row_sparse_ones_moves_the_state_into_table_order(self):
        rng = np.random.default_rng(5)
        params = {"E": rng.normal(size=(6, 2)).astype(np.float32)}
        expected = (params["E"].copy(), np.zeros_like(params["E"]), np.zeros_like(params["E"]))
        opt = Adam(params, 1e-2, 0.9, 0.999, 1e-8)
        for t, ids in enumerate([np.array([4]), np.array([1, 4]), None], start=1):
            g = rng.normal(size=(6, 2)).astype(np.float32)
            if ids is None:
                opt.add({"E": g})
            else:
                g[np.setdiff1d(np.arange(6), ids)] = 0.0
                opt.add({"E": RowGrad(ids=ids, rows=g[ids])})
            opt.step(1)
            expected = self.textbook(*expected, g, t, 1e-2, 0.9, 0.999, 1e-8)
        assert "E" not in opt._slots
        assert params["E"].tobytes() == expected[0].tobytes()
        assert opt.m["E"].tobytes() == expected[1].tobytes()
        assert opt.v["E"].tobytes() == expected[2].tobytes()

    def test_memory_of_a_sparse_step_stays_far_below_the_table(self):
        # Beyond the gradient sums, m and v, which tracemalloc counts in full
        # (how much of them the OS maps is bounded by the next test), building
        # the optimizer and stepping 200 live E rows must not allocate
        # anything near a full-size table.
        rng = np.random.default_rng(0)
        dims = ModelDims()
        tensors = dict(init_encoder(MEANPOOL, dims, rng).named_tensors()
                       + init_head(dims.c, dims.h, rng).named_tensors())
        grads = {n: np.zeros_like(p) for n, p in tensors.items()}
        ids = np.sort(rng.choice(dims.v_buckets, size=200, replace=False)) + 4
        grads["E"] = RowGrad(ids=ids, rows=rng.normal(size=(200, dims.h)).astype(np.float32))
        tracemalloc.start()
        try:
            opt = Adam(tensors, 1e-3, 0.9, 0.999, 1e-8)
            opt.add(grads)
            opt.step(1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full_size = sum(t.nbytes for state in (opt.grad, opt.m, opt.v) for t in state.values())
        assert peak - full_size < tensors["E"].nbytes / 8, peak - full_size

    # Run in a fresh interpreter, where no memory freed by earlier tests can
    # be reused unseen; prints the growth of the resident set in MB.
    SPARSE_STEP_RSS = """
import numpy as np
from sentattn.encoder import MEANPOOL, ModelDims, RowGrad, init_encoder
from sentattn.head import init_head
from sentattn.trainer import Adam

def resident_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmRSS:"))

rng = np.random.default_rng(0)
dims = ModelDims()
tensors = dict(init_encoder(MEANPOOL, dims, rng).named_tensors()
               + init_head(dims.c, dims.h, rng).named_tensors())
grads = {n: np.zeros_like(p) for n, p in tensors.items()}
ids = np.sort(rng.choice(dims.v_buckets, size=200, replace=False)) + 4
grads["E"] = RowGrad(ids=ids, rows=rng.normal(size=(200, dims.h)).astype(np.float32))
before = resident_kb()
opt = Adam(tensors, 1e-3, 0.9, 0.999, 1e-8)
opt.add(grads)
opt.step(1)
print((resident_kb() - before) / 1024)
"""

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS from /proc/self/status")
    def test_resident_memory_of_a_sparse_step_stays_far_below_the_table(self):
        # E's grad, m and v take 8.4 MB each at the default dims. Held in
        # slot order, 200 live rows write only their first 50 KB, though
        # numpy's huge-page advice may map 2 MB around each.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", self.SPARSE_STEP_RSS], env=env,
                             capture_output=True, text=True, check=True)
        assert float(out.stdout) < 10, out.stdout


def _document_grads(seed: int, dims: ModelDims, n_docs: int):
    """Encoder and head-like gradients of a few random meanpool documents (float32)."""
    rng = np.random.default_rng(seed)
    params = init_encoder(MEANPOOL, dims, rng)
    docs = []
    for _ in range(n_docs):
        lens = rng.integers(3, dims.t_max + 1, size=int(rng.integers(1, 5)))
        sentences = [rng.integers(4, 12, size=m) for m in lens]  # ids shared across documents
        D, cache = encode_document(layout_of(sentences), params)
        dD = rng.normal(size=D.shape).astype(np.float32)
        grads = encoder_backward(params, cache, dD)
        grads["b"] = rng.normal(size=3).astype(np.float32)
        docs.append(grads)
    tensors = dict(params.named_tensors(), b=np.zeros(3, dtype=np.float32))
    return tensors, docs


class TestAdamBatch:
    DIMS = ModelDims(h=5, c=3, v_buckets=60, t_max=7, f=2)
    LR, BETA1, BETA2, EPS = 1e-2, 0.9, 0.999, 1e-8

    def dense_sum(self, tensors, docs):
        """The per-batch sum as it was built before: full-size zeros plus each dense gradient."""
        totals = {n: np.zeros_like(p) for n, p in tensors.items()}
        for grads in docs:
            for n, g in grads.items():
                if isinstance(g, RowGrad):
                    full = np.zeros_like(tensors[n])
                    g.add_to(full)
                    g = full
                totals[n] += g
        return totals

    def adam(self, tensors):
        return Adam(tensors, self.LR, self.BETA1, self.BETA2, self.EPS)

    def test_scatter_add_equals_dense_sum_bit_for_bit(self):
        tensors, docs = _document_grads(5, self.DIMS, n_docs=4)
        opt = self.adam(tensors)
        for grads in docs:
            opt.add(grads)
        expected = self.dense_sum(tensors, docs)
        grad = {n: table_order(opt, n)[0] for n in tensors}
        for n in tensors:
            assert grad[n].tobytes() == expected[n].tobytes(), n
        used = np.unique(np.concatenate([g["E"].ids for g in docs]))
        untouched = np.setdiff1d(np.arange(tensors["E"].shape[0]), used)
        assert len(untouched) > 0
        assert not grad["E"][untouched].any()
        assert not np.signbit(grad["E"][untouched]).any()  # +0.0, never -0.0

    def test_step_clears_to_positive_zero_and_the_buffers_are_reused(self):
        # Each step applies the textbook update to the batch mean, then leaves
        # every sum at +0.0 in the buffer it started in.
        tensors, docs = _document_grads(6, self.DIMS, n_docs=6)
        opt = self.adam(tensors)
        buffers = dict(opt.grad)
        expected = {n: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for n, p in tensors.items()}
        for t, batch in enumerate((docs[:3], docs[3:]), start=1):
            for grads in batch:
                opt.add(grads)
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
        for grads in docs:
            opt.add(grads)
        calls = []
        for name in ("unique", "concatenate", "union1d"):
            func = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, _f=func, _n=name, **k: calls.append(_n) or _f(*a, **k))
        opt.step(len(docs))
        assert not calls
        # after the first step the live rows are this batch's distinct rows
        ids = np.concatenate([g["E"].ids for g in docs])
        slots = opt._slots["E"]
        assert sorted(slots.rows[: slots.n].tolist()) == sorted(set(ids.tolist()))
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
        D, cache = encode_document(layout_of(sentences), params)
        dD = rng.normal(size=D.shape).astype(np.float32)
        tracemalloc.start()
        try:
            opt.add(encoder_backward(params, cache, dD))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.E.nbytes / 4, peak


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

    # Tensor SHA-256 after 3 epochs with a 32,768-bucket table, recorded when
    # Adam still stepped every row: stepping only live rows changes no bit.
    # The minitransformer digest was re-recorded when it became CLS-query
    # attention over the whole document, and again when its attention pooled
    # through weighted count matrices, and the meanpool digest when its
    # sentence means became matmuls over the count matrix; each sums in
    # another order.
    PINNED = {
        MEANPOOL: "fae5ff3338520e0382c032d438a9e15980e1ebc058d29c41352d4ff136f5c795",
        MINITRANSFORMER: "3245eef75ae01d5321127c1de5bb3d476a56fae60f715f47e222163fd4b532a2",
    }

    @pytest.mark.parametrize("kind", [MEANPOOL, MINITRANSFORMER])
    def test_tensors_are_pinned_with_a_full_size_table(self, kind, tiny_corpus):
        dims = ModelDims(h=16, c=4, v_buckets=32768, t_max=12, f=16)
        result = train(tiny_config(dims=dims, encoder=kind, max_epochs=3, patience=3), tiny_corpus)
        blob = b"".join(t.tobytes() for _, t in result.checkpoint.tensors())
        assert hashlib.sha256(blob).hexdigest() == self.PINNED[kind]

    # The same runs with uniform attention, over every tensor but S, recorded
    # when uniform attention was a separate head path that froze alpha at 1/k;
    # both re-recorded with the count-matrix pooling of their kind.
    PINNED_UNIFORM = {
        MEANPOOL: "61c0db6fee06fe5b726e04434f5957e4e9a270b528794781837175cb0767576b",
        MINITRANSFORMER: "2e75bb33668de2c1b5aa0f46b816882e677f5a71268b8998d9f7d32ded0423f5",
    }

    @pytest.mark.parametrize("kind", [MEANPOOL, MINITRANSFORMER])
    def test_uniform_tensors_but_s_are_pinned(self, kind, tiny_corpus):
        dims = ModelDims(h=16, c=4, v_buckets=32768, t_max=12, f=16)
        config = tiny_config(dims=dims, encoder=kind, max_epochs=3, patience=3, attention_mode=UNIFORM)
        tensors = train(config, tiny_corpus).checkpoint.tensors()
        blob = b"".join(t.tobytes() for name, t in tensors if name != "S")
        assert hashlib.sha256(blob).hexdigest() == self.PINNED_UNIFORM[kind]

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
        # the benchmark's tracer counts sentences as len() of this argument
        seen = []
        encode = trainer.encode_document

        def spy(doc, params):
            seen.append(len(doc))
            return encode(doc, params)

        monkeypatch.setattr(trainer, "encode_document", spy)
        rng = np.random.default_rng(0)
        enc_params = init_encoder(MEANPOOL, TINY_DIMS, rng)
        head_params = init_head(TINY_DIMS.c, TINY_DIMS.h, rng)
        sentences = [np.array([1, 5, 6, 2]), np.array([1, 7, 2]), np.array([1, 8, 9, 9, 2])]
        doc = PreparedDoc(id="d", layout=layout_of(sentences), target=None)
        for _ in range(2):
            trainer._forward(enc_params, head_params, doc)
        assert seen == [3, 3]

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


def fresh_checkpoint(kind=MEANPOOL, seed=0):
    dims = ModelDims(h=4, c=3, v_buckets=16, t_max=6, f=5)
    rng = np.random.default_rng(seed)
    return Checkpoint(
        dims=dims,
        vocab=LabelVocabulary(codes=["A01B", "G06N", "H04L"]),
        encoder_params=init_encoder(kind, dims, rng),
        head_params=init_head(dims.c, dims.h, rng),
    )


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

    def test_round_trip_reproduces_forward_scores(self, tmp_path):
        ckpt = fresh_checkpoint()
        path = tmp_path / "m.satn"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        from sentattn.encoder import encode_document

        sentences = [np.array([1, 5, 9, 2]), np.array([1, 7, 2])]
        layout = layout_of(sentences)
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

    @pytest.mark.parametrize("failing", ["write", "fsync", "replace"])
    def test_failed_save_keeps_the_old_file_whole(self, tmp_path, monkeypatch, failing):
        import os

        path = tmp_path / "m.satn"
        save_checkpoint(fresh_checkpoint(seed=0), path)
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
            save_checkpoint(fresh_checkpoint(seed=1), path)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.satn"]
        save_checkpoint(fresh_checkpoint(seed=1), path)
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

        def without_query_term(params, cache, dD):
            return backward(dataclasses.replace(params, Q=np.zeros_like(params.Q)), cache, dD)

        monkeypatch.setitem(encoder._PASSES, MINITRANSFORMER, (forward, without_query_term))
        dims = ModelDims(h=8, c=3, v_buckets=8, t_max=6, f=6)
        report = grad_check(kind=MINITRANSFORMER, seed=0, eps=1e-3, dims=dims, k=4)
        assert report.max_rel_error > 1e-4, report

    @pytest.mark.parametrize("rows, named", [(slice(1, 2), "q[1]"), (slice(None), "q[0]")])
    def test_a_nan_gradient_is_the_worst_error_and_named(self, monkeypatch, rows, named):
        forward, backward = encoder._PASSES[MEANPOOL]

        def nan_query_gradient(params, cache, dD):
            grads = backward(params, cache, dD)
            grads["q"][rows] = np.nan
            return grads

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
