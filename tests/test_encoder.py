import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meanpool_reference
import minitransformer_reference
from sentattn.encoder import (
    ENCODER_KINDS,
    ENCODER_PARAMS,
    MEANPOOL,
    MINITRANSFORMER,
    CacheMismatch,
    DocLayout,
    MeanPoolParams,
    ModelDims,
    RowGrad,
    ShapeMismatch,
    encode_document,
    encoder_backward,
    init_encoder,
)
from sentattn.head import HeadParams, init_head
from sentattn.trainer import grad_check

TANH_HALF = 0.46211715726000974  # frozen scalar oracle
DM_SCALAR = 0.3932238664829637   # 0.5 * (1 - tanh(0.5)^2), verified by finite differences


def scalar_meanpool():
    """h=1: every embedding row 0.5, P zero, M=[1], q=0."""
    return MeanPoolParams(
        E=np.full((8, 1), 0.5),
        P=np.zeros((6, 1)),
        M=np.array([[1.0]]),
        q=np.zeros(1),
    )


def seq(*ids):
    return np.array(ids, dtype=np.int64)


# the per-sentence loops that the whole-document encoders replaced
REFERENCES = {MEANPOOL: meanpool_reference, MINITRANSFORMER: minitransformer_reference}


def sentence_cls(ids, params):
    """One sentence through the document encoder, as a one-sentence document."""
    D, _ = encode_document([ids], params)
    return D[:, 0]


def dense(grad: RowGrad | np.ndarray, like: np.ndarray) -> np.ndarray:
    if isinstance(grad, np.ndarray):
        return grad
    table = np.zeros_like(like)
    grad.add_to(table)
    return table


def normal_params(kind, dims, seed):
    """Float64 params of one kind, every tensor standard normal."""
    rng = np.random.default_rng(seed)
    params = init_encoder(kind, dims, rng, dtype=np.float64)
    for _, tensor in params.named_tensors():
        tensor[...] = rng.normal(size=tensor.shape)
    return params


class TestMeanPool:
    def test_zero_params_give_zero_cls(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(0))
        params.M[:] = 0
        params.q[:] = 0
        cls = sentence_cls(seq(1, 5, 6, 2), params)
        assert np.all(cls == 0.0)

    def test_scalar_oracle(self):
        cls = sentence_cls(seq(1, 4, 5, 2), scalar_meanpool())
        assert cls.shape == (1,)
        assert math.isclose(cls[0], TANH_HALF, rel_tol=1e-12)

    def test_scalar_backward_oracle(self):
        params = scalar_meanpool()
        _, cache = encode_document([seq(1, 4, 5, 2)], params)
        grads = encoder_backward(params, cache, np.ones((1, 1)))
        assert math.isclose(grads["M"][0, 0], DM_SCALAR, rel_tol=1e-12)

    def test_cls_stays_inside_tanh_range(self):
        dims = ModelDims(h=8, c=2, v_buckets=32, t_max=10, f=4)
        rng = np.random.default_rng(5)
        params = init_encoder(MEANPOOL, dims, rng)
        params.M += rng.normal(scale=3.0, size=params.M.shape).astype(np.float32)
        for _ in range(20):
            ids = seq(1, *rng.integers(4, 36, size=5), 2)
            cls = sentence_cls(ids, params)
            assert np.all(cls > -1.0) and np.all(cls < 1.0)

    def test_swap_invariance_of_mean_path(self):
        # mean pooling sums E rows and P rows separately, so swapping two
        # interior tokens cannot change the CLS vector
        dims = ModelDims(h=4, c=2, v_buckets=16, t_max=8, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(2))
        a = sentence_cls(seq(1, 5, 9, 2), params)
        b = sentence_cls(seq(1, 9, 5, 2), params)
        np.testing.assert_allclose(a, b, atol=1e-6)


class TestMiniTransformer:
    def test_zero_params_pass_residual_only(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MINITRANSFORMER, dims, np.random.default_rng(0))
        for name, tensor in params.named_tensors():
            if name not in ("E", "P"):
                tensor[:] = 0
        cls = sentence_cls(seq(1, 5, 2), params)
        np.testing.assert_array_equal(cls, params.E[1] + params.P[0])

    def test_swap_sensitivity_through_positions(self):
        dims = ModelDims(h=4, c=2, v_buckets=16, t_max=8, f=4)
        params = init_encoder(MINITRANSFORMER, dims, np.random.default_rng(3))
        a = sentence_cls(seq(1, 5, 9, 2), params)
        b = sentence_cls(seq(1, 9, 5, 2), params)
        assert not np.array_equal(a, b)

    def test_cache_holds_no_token_by_h_rows(self):
        # attention pools through weighted count matrices, so what the backward
        # pass keeps grows with the distinct ids and positions, not the tokens
        dims = ModelDims(h=6, c=2, v_buckets=8, t_max=8, f=5)
        params = init_encoder(MINITRANSFORMER, dims, np.random.default_rng(3))
        sentences = [seq(1, 4, 4, 5, 2), seq(1, 5, 6, 6, 4, 4, 2), seq(1, 7, 2)]
        _, cache = encode_document(sentences, params)
        n = sum(map(len, sentences))
        assert n not in (len(sentences), len(cache.layout.distinct), dims.t_max, dims.h, dims.f)
        for saved in cache.saved:
            assert saved.ndim < 2 or n not in saved.shape, saved.shape


class TestEncodeDocument:
    @pytest.mark.parametrize("kind", [MEANPOOL, MINITRANSFORMER])
    def test_shape_and_column_order(self, kind):
        # Column j is sentence j encoded alone, both as a one-sentence document
        # and by the per-sentence reference. Both sum in another order than the
        # whole-document pass, so they are compared in float64.
        dims = ModelDims(h=5, c=2, v_buckets=16, t_max=8, f=4)
        params = init_encoder(kind, dims, np.random.default_rng(1), dtype=np.float64)
        sentences = [seq(1, 4, 2), seq(1, 5, 6, 2), seq(1, 7, 2)]
        D, cache = encode_document(sentences, params)
        assert D.shape == (5, 3)
        assert len(cache.layout) == 3
        for j, ids in enumerate(sentences):
            cls, _ = REFERENCES[kind].encode_sentence(ids, params)
            np.testing.assert_allclose(D[:, j], cls, rtol=0, atol=1e-12)
            np.testing.assert_allclose(D[:, j], sentence_cls(ids, params), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ENCODER_KINDS)
    def test_permuting_sentences_permutes_columns(self, kind):
        params = normal_params(kind, ModelDims(h=5, c=2, v_buckets=16, t_max=8, f=4), seed=6)
        sentences = [seq(1, 4, 2), seq(1, 5, 6, 7, 8, 9, 10, 2), seq(1, 7, 2), seq(1, 4, 4, 9, 2)]
        order = [2, 0, 3, 1]
        D, _ = encode_document(sentences, params)
        D_permuted, _ = encode_document([sentences[j] for j in order], params)
        np.testing.assert_allclose(D_permuted, D[:, order], rtol=0, atol=1e-12)

    def test_single_sentence(self):
        dims = ModelDims(h=3, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(1))
        D, _ = encode_document([seq(1, 4, 2)], params)
        assert D.shape == (3, 1)

    def test_identical_sentences_identical_columns(self):
        dims = ModelDims(h=3, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(1))
        D, _ = encode_document([seq(1, 4, 2), seq(1, 4, 2)], params)
        np.testing.assert_array_equal(D[:, 0], D[:, 1])

    def test_forward_reruns_bit_for_bit(self):
        dims = ModelDims(h=6, c=2, v_buckets=16, t_max=8, f=4)
        params = init_encoder(MINITRANSFORMER, dims, np.random.default_rng(9))
        sentences = [seq(1, 4, 11, 2), seq(1, 8, 2)]
        D1, _ = encode_document(sentences, params)
        D2, _ = encode_document(sentences, params)
        assert np.array_equal(D1, D2)

    def test_empty_document_rejected(self):
        dims = ModelDims(h=3, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(1))
        with pytest.raises(ShapeMismatch):
            encode_document([], params)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        for kind in (MINITRANSFORMER, MEANPOOL):
            params = init_encoder(kind, dims, np.random.default_rng(4))
            _, cache = encode_document([seq(1, 5, 2), seq(1, 6, 2)], params)
            grads = encoder_backward(params, cache, np.zeros((4, 2)))
            assert grads["E"].ids.tolist() == [1, 2, 5, 6]
            for name, g in grads.items():
                g = g.rows if isinstance(g, RowGrad) else g
                assert not g.any(), (kind, name)

    def test_untouched_embedding_rows_stay_zero(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(4))
        _, cache = encode_document([seq(1, 5, 2)], params)
        grads = encoder_backward(params, cache, np.ones((4, 1)))
        touched = {1, 5, 2}
        assert grads["E"].ids.tolist() == sorted(touched)
        dE = dense(grads["E"], params.E)
        for row in range(params.E.shape[0]):
            if row not in touched:
                assert not dE[row].any()
            else:
                assert dE[row].any()

    def test_cache_mismatch(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(4))
        _, cache = encode_document([seq(1, 5, 2)], params)
        with pytest.raises(CacheMismatch):
            encoder_backward(params, cache, np.ones((4, 3)))

    def test_cache_of_the_other_kind(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        rng = np.random.default_rng(4)
        meanpool = init_encoder(MEANPOOL, dims, rng)
        transformer = init_encoder(MINITRANSFORMER, dims, rng)
        _, cache = encode_document([seq(1, 5, 2)], transformer)
        with pytest.raises(CacheMismatch):
            encoder_backward(meanpool, cache, np.ones((4, 1)))

    def test_backward_covers_every_tensor_with_its_shape(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        for kind in (MEANPOOL, MINITRANSFORMER):
            params = init_encoder(kind, dims, np.random.default_rng(4))
            _, cache = encode_document([seq(1, 5, 2), seq(1, 6, 7, 2)], params)
            grads = encoder_backward(params, cache, np.ones((4, 2), dtype=np.float32))
            assert list(grads) == [name for name, _ in params.named_tensors()], kind
            assert isinstance(grads["E"], RowGrad)
            for name, tensor in params.named_tensors():
                g = dense(grads[name], tensor) if name == "E" else grads[name]
                assert g.shape == tensor.shape and g.dtype == tensor.dtype, (kind, name)


class TestRowGrad:
    def test_add_to_accumulates(self):
        table = np.ones((5, 2))
        RowGrad(ids=np.array([1, 3]), rows=np.array([[1.0, 2.0], [3.0, 4.0]])).add_to(table)
        assert table.tolist() == [[1, 1], [2, 3], [1, 1], [4, 5], [1, 1]]


@st.composite
def documents(draw, kind):
    """Float64 params of one kind and a document whose ids repeat within and across sentences."""
    h = draw(st.integers(1, 6))
    t_max = draw(st.integers(3, 9))
    n_ids = draw(st.integers(4, 7))  # few distinct ids, so repeats are common
    lens = draw(st.lists(st.integers(3, t_max), min_size=1, max_size=6))
    sentences = [np.array(draw(st.lists(st.integers(0, n_ids - 1), min_size=m, max_size=m)), dtype=np.int64)
                 for m in lens]
    f = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    params = normal_params(kind, ModelDims(h=h, c=2, v_buckets=n_ids, t_max=t_max, f=f), seed)
    dD = np.random.default_rng(seed).normal(size=(h, len(sentences)))
    return params, sentences, dD


def _fixed_document(kind, lens, repeat):
    """h=3, t_max=8; every sentence repeats id 4 when asked, and sentences share ids."""
    seed = sum(lens) + repeat
    params = normal_params(kind, ModelDims(h=3, c=2, v_buckets=8, t_max=8, f=2), seed)
    sentences = [np.array([4] * m if repeat else [1, *range(4, 4 + m - 2), 2], dtype=np.int64) for m in lens]
    return params, sentences, np.random.default_rng(seed).normal(size=(3, len(lens)))


def _distinct_document(kind, k=128):
    """k sentences of t_max = 8 tokens whose interior ids are all distinct across the document."""
    params = normal_params(kind, ModelDims(h=3, c=2, v_buckets=6 * k, t_max=8, f=2), seed=k)
    sentences = [np.array([1, *interior, 2], dtype=np.int64) for interior in np.arange(4, 4 + 6 * k).reshape(k, 6)]
    return params, sentences, np.random.default_rng(k).normal(size=(3, k))


def _one_interior_id(kind, lens=(3, 8, 5, 8, 4)):
    """Every interior token of the document is id 4, between CLS and SEP."""
    params = normal_params(kind, ModelDims(h=3, c=2, v_buckets=8, t_max=8, f=2), seed=len(lens))
    sentences = [np.array([1, *[4] * (m - 2), 2], dtype=np.int64) for m in lens]
    return params, sentences, np.random.default_rng(len(lens)).normal(size=(3, len(lens)))


def _scores_far_apart():
    """Sentence 0's attention scores sit about 1000 above sentence 1's.

    Q = K = I and E[4] = (38, 0), so sentence 0's scores are near
    38^2 / sqrt(2) = 1021 while sentence 1's stay near 0. A softmax shifted
    by the document's max rather than each sentence's own underflows every
    exp of sentence 1 to 0, and its attention to 0/0.
    """
    params = normal_params(MINITRANSFORMER, ModelDims(h=2, c=2, v_buckets=4, t_max=5, f=3), seed=8)
    params.P *= 0.1
    params.Q[...] = params.K[...] = np.eye(2)
    params.E[4] = (38.0, 0.0)
    sentences = [seq(4, 4, 4, 4), seq(5, 6, 7, 5, 3)]
    return params, sentences, np.random.default_rng(8).normal(size=(2, 2))


def assert_matches_reference(params, sentences, dD, tol):
    """D and every gradient equal the per-sentence reference loop's within tol."""
    reference = REFERENCES[params.kind]
    D, cache = encode_document(sentences, params)
    D_ref, caches_ref = reference.encode_document(sentences, params)
    assert np.isfinite(D).all()
    np.testing.assert_allclose(D, D_ref, rtol=0, atol=tol)
    grads = encoder_backward(params, cache, dD)
    expected = reference.encoder_backward(params, caches_ref, dD)
    assert list(grads) == [name for name, _ in params.named_tensors()]
    assert sorted(expected) == sorted(grads)
    assert grads["E"].ids.tolist() == sorted(set(np.concatenate(sentences).tolist()))
    for name, tensor in params.named_tensors():
        got, want = dense(grads[name], tensor), dense(expected[name], tensor)
        assert np.isfinite(got).all(), name
        np.testing.assert_allclose(got, want, rtol=0, atol=tol, err_msg=name)


class TestMeanPoolMatchesReference:
    """The document-level meanpool equals the per-sentence loop in float64."""

    TOL = 1e-10

    @settings(max_examples=150, deadline=None)
    @given(documents(MEANPOOL))
    @example(_fixed_document(MEANPOOL, [3], repeat=False))          # k = 1, shortest sentence
    @example(_fixed_document(MEANPOOL, [8], repeat=True))           # k = 1, t_max tokens, one id
    @example(_fixed_document(MEANPOOL, [3, 8, 3, 8], repeat=False))  # both extremes, shared ids
    @example(_fixed_document(MEANPOOL, [3, 8, 5], repeat=True))
    @example(_distinct_document(MEANPOOL))  # k = 128 at t_max, every interior id distinct
    @example(_one_interior_id(MEANPOOL))
    def test_forward_and_every_gradient(self, case):
        assert_matches_reference(*case, tol=self.TOL)


class TestMiniTransformerMatchesReference:
    """CLS-query attention over the whole document equals the per-sentence
    m x m block in float64."""

    TOL = 1e-10

    @settings(max_examples=150, deadline=None)
    @given(documents(MINITRANSFORMER))
    @example(_fixed_document(MINITRANSFORMER, [3], repeat=False))          # k = 1, shortest sentence
    @example(_fixed_document(MINITRANSFORMER, [8], repeat=True))           # k = 1, t_max tokens, one id
    @example(_fixed_document(MINITRANSFORMER, [3, 8, 3, 8], repeat=False))  # both extremes, shared ids
    @example(_fixed_document(MINITRANSFORMER, [3, 8, 5], repeat=True))
    @example(_distinct_document(MINITRANSFORMER))  # k = 128 at t_max, every interior id distinct
    @example(_one_interior_id(MINITRANSFORMER))
    @example(_scores_far_apart())
    def test_forward_and_every_gradient(self, case):
        assert_matches_reference(*case, tol=self.TOL)


class TestTensorSpec:
    DIMS = ModelDims(h=4, c=3, v_buckets=16, t_max=6, f=5)

    @pytest.mark.parametrize("kind", [MEANPOOL, MINITRANSFORMER])
    def test_spec_is_the_field_order_and_the_shapes(self, kind):
        rng = np.random.default_rng(0)
        params = init_encoder(kind, self.DIMS, rng)
        head = init_head(self.DIMS.c, self.DIMS.h, rng)
        declared = ENCODER_PARAMS[kind].spec(self.DIMS) + HeadParams.spec(self.DIMS.c, self.DIMS.h)
        built = [(name, t.shape) for name, t in params.named_tensors() + head.named_tensors()]
        assert built == declared

    @pytest.mark.parametrize("kind, digest", [
        (MEANPOOL, "76c69f2dd4d58fb72c7a6362f3a6d70c795c58532475c570d2dfd9450a2dc1c3"),
        (MINITRANSFORMER, "143f9bc227480f5ee1d3fd2fac26e2d99924f8df751c3b58f52f10aa609c1baa"),
    ])
    def test_init_stream_is_pinned(self, kind, digest):
        # The spec order is the RNG draw order: reordering a spec changes every
        # seeded checkpoint and the needle result.
        rng = np.random.default_rng(0)
        params = init_encoder(kind, self.DIMS, rng)
        head = init_head(self.DIMS.c, self.DIMS.h, rng)
        h = hashlib.sha256()
        for name, t in params.named_tensors() + head.named_tensors():
            h.update(name.encode() + t.tobytes())
        assert h.hexdigest() == digest

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown encoder kind"):
            init_encoder("lstm", self.DIMS, np.random.default_rng(0))


class TestGradientsAgainstFiniteDifferences:
    def test_meanpool_instance(self):
        report = grad_check(kind=MEANPOOL, seed=0, eps=1e-3)
        assert report.max_rel_error < 1e-4, report

    def test_minitransformer_named_instance(self):
        # h=2, 3-token sentences, random params, seed 7
        dims = ModelDims(h=2, c=2, v_buckets=8, t_max=3, f=4)
        report = grad_check(kind=MINITRANSFORMER, seed=7, eps=1e-3, dims=dims, k=2)
        assert report.max_rel_error < 1e-4, report


class TestShapeValidation:
    def test_token_id_outside_table(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            encode_document([seq(1, 500, 2)], params)

    def test_too_many_tokens(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=4, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            encode_document([seq(1, 4, 5, 6, 2)], params)

    def test_too_few_tokens_in_a_later_sentence(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            encode_document([seq(1, 4, 2), seq(1, 2)], params)

    @pytest.mark.parametrize("kind", ENCODER_KINDS)
    def test_negative_token_id(self, kind):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(kind, dims, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            encode_document([seq(1, 4, 2), seq(1, -3, 2)], params)

    @pytest.mark.parametrize("kind", ENCODER_KINDS)
    def test_a_layout_is_checked_against_the_params_of_every_encode(self, kind):
        # the layout is built once and kept, so the checks run per call, not per build
        rng = np.random.default_rng(0)
        layout = DocLayout.of_sentences([seq(1, *range(4, 34), 2), seq(1, 40, 2)])  # 32 tokens; ids up to 40
        encode_document(layout, init_encoder(kind, ModelDims(h=4, c=2, v_buckets=64, t_max=64, f=4), rng))
        short = init_encoder(kind, ModelDims(h=4, c=2, v_buckets=64, t_max=12, f=4), rng)
        with pytest.raises(ShapeMismatch, match=r"token count 32 outside \[3, 12\]"):
            encode_document(layout, short)
        narrow = init_encoder(kind, ModelDims(h=4, c=2, v_buckets=16, t_max=64, f=4), rng)  # 20 rows
        with pytest.raises(ShapeMismatch, match="token id outside embedding table"):
            encode_document(layout, narrow)


class TestDocLayout:
    def test_cells_are_slot_in_the_sorted_distinct_ids_times_k_plus_sentence(self):
        ids = seq(1, 9, 5, 2, 1, 5, 5, 7, 2, 1, 9, 2)
        layout = DocLayout(ids, [4, 5, 3])
        assert len(layout) == 3
        assert layout.lens.tolist() == [4, 5, 3]
        assert layout.distinct.tolist() == [1, 2, 5, 7, 9]
        slot, sent = np.divmod(layout.cell, 3)
        assert layout.distinct[slot].tolist() == ids.tolist()
        assert sent.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2]
        sentences = [seq(1, 9, 5, 2), seq(1, 5, 5, 7, 2), seq(1, 9, 2)]
        of_list = DocLayout.of_sentences(sentences)
        for name in ("lens", "distinct", "cell"):
            assert np.array_equal(getattr(of_list, name), getattr(layout, name)), name

    # every sentence holds CLS and SEP, so from two sentences on the distinct ids
    # and sentence lengths together number no more than the tokens of the id array
    @pytest.mark.parametrize("k, t_max, distinct", [(2, 3, True), (32, 12, False), (128, 64, True)])
    def test_no_larger_than_the_sentence_list(self, k, t_max, distinct):
        rng = np.random.default_rng(k)
        interior = rng.permutation(k * t_max) + 4 if distinct else rng.integers(4, 64, size=k * t_max)
        sentences = [np.array([1, *row, 2], dtype=np.int64) for row in interior.reshape(k, t_max)[:, : t_max - 2]]
        ids = np.concatenate(sentences)
        layout = DocLayout(ids, [len(s) for s in sentences])
        cached = layout.lens.nbytes + layout.distinct.nbytes + layout.cell.nbytes
        assert cached <= ids.nbytes

    def test_ids_beyond_the_index_type_are_refused(self):
        with pytest.raises(ShapeMismatch, match="token id outside embedding table"):
            DocLayout(seq(1, 2**31, 2), [3])

    @pytest.mark.parametrize("lens", [[], [2, 2], [3, 3, 1], [5, -1, 4]])
    def test_lengths_that_do_not_cover_the_ids_are_refused(self, lens):
        with pytest.raises(ShapeMismatch):
            DocLayout(seq(1, 4, 5, 2, 1, 6, 7, 2), lens)
