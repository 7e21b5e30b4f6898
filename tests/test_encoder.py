import hashlib
import math

import numpy as np
import pytest

from sentattn.encoder import (
    ENCODER_PARAMS,
    MEANPOOL,
    MINITRANSFORMER,
    CacheMismatch,
    MeanPoolParams,
    ModelDims,
    ShapeMismatch,
    encode_document,
    encode_sentence,
    encoder_backward,
    init_encoder,
    zero_grads,
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


class TestMeanPool:
    def test_zero_params_give_zero_cls(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(0))
        params.M[:] = 0
        params.q[:] = 0
        cls, _ = encode_sentence(seq(1, 5, 6, 2), params)
        assert np.all(cls == 0.0)

    def test_scalar_oracle(self):
        cls, _ = encode_sentence(seq(1, 4, 5, 2), scalar_meanpool())
        assert cls.shape == (1,)
        assert math.isclose(cls[0], TANH_HALF, rel_tol=1e-12)

    def test_scalar_backward_oracle(self):
        params = scalar_meanpool()
        _, cache = encode_sentence(seq(1, 4, 5, 2), params)
        grads = encoder_backward(params, [cache], np.ones((1, 1)))
        assert math.isclose(grads["M"][0, 0], DM_SCALAR, rel_tol=1e-12)

    def test_cls_stays_inside_tanh_range(self):
        dims = ModelDims(h=8, c=2, v_buckets=32, t_max=10, f=4)
        rng = np.random.default_rng(5)
        params = init_encoder(MEANPOOL, dims, rng)
        params.M += rng.normal(scale=3.0, size=params.M.shape).astype(np.float32)
        for _ in range(20):
            ids = seq(1, *rng.integers(4, 36, size=5), 2)
            cls, _ = encode_sentence(ids, params)
            assert np.all(cls > -1.0) and np.all(cls < 1.0)

    def test_swap_invariance_of_mean_path(self):
        # mean pooling sums E rows and P rows separately, so swapping two
        # interior tokens cannot change the CLS vector
        dims = ModelDims(h=4, c=2, v_buckets=16, t_max=8, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(2))
        a, _ = encode_sentence(seq(1, 5, 9, 2), params)
        b, _ = encode_sentence(seq(1, 9, 5, 2), params)
        np.testing.assert_allclose(a, b, atol=1e-6)


class TestMiniTransformer:
    def test_zero_params_pass_residual_only(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MINITRANSFORMER, dims, np.random.default_rng(0))
        for name, tensor in params.named_tensors():
            if name not in ("E", "P"):
                tensor[:] = 0
        ids = seq(1, 5, 2)
        cls, _ = encode_sentence(ids, params)
        np.testing.assert_array_equal(cls, params.E[1] + params.P[0])

    def test_swap_sensitivity_through_positions(self):
        dims = ModelDims(h=4, c=2, v_buckets=16, t_max=8, f=4)
        params = init_encoder(MINITRANSFORMER, dims, np.random.default_rng(3))
        a, _ = encode_sentence(seq(1, 5, 9, 2), params)
        b, _ = encode_sentence(seq(1, 9, 5, 2), params)
        assert not np.array_equal(a, b)


class TestEncodeDocument:
    @pytest.mark.parametrize("kind", [MEANPOOL, MINITRANSFORMER])
    def test_shape_and_column_order(self, kind):
        dims = ModelDims(h=5, c=2, v_buckets=16, t_max=8, f=4)
        params = init_encoder(kind, dims, np.random.default_rng(1))
        sentences = [seq(1, 4, 2), seq(1, 5, 6, 2), seq(1, 7, 2)]
        D, caches = encode_document(sentences, params)
        assert D.shape == (5, 3)
        assert len(caches) == 3
        for j, ids in enumerate(sentences):
            cls, _ = encode_sentence(ids, params)
            np.testing.assert_array_equal(D[:, j], cls)

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
        params = init_encoder(MINITRANSFORMER, dims, np.random.default_rng(4))
        _, caches = encode_document([seq(1, 5, 2), seq(1, 6, 2)], params)
        grads = encoder_backward(params, caches, np.zeros((4, 2)))
        for name, g in grads.items():
            assert not g.any(), name

    def test_untouched_embedding_rows_stay_zero(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(4))
        _, caches = encode_document([seq(1, 5, 2)], params)
        grads = encoder_backward(params, caches, np.ones((4, 1)))
        touched = {1, 5, 2}
        for row in range(params.E.shape[0]):
            if row not in touched:
                assert not grads["E"][row].any()

    def test_cache_mismatch(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(4))
        _, caches = encode_document([seq(1, 5, 2)], params)
        with pytest.raises(CacheMismatch):
            encoder_backward(params, caches, np.ones((4, 3)))

    def test_zero_grads_matches_param_shapes(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=6, f=4)
        params = init_encoder(MINITRANSFORMER, dims, np.random.default_rng(4))
        grads = zero_grads(params)
        for name, tensor in params.named_tensors():
            assert grads[name].shape == tensor.shape


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
            encode_sentence(seq(1, 500, 2), params)

    def test_too_many_tokens(self):
        dims = ModelDims(h=4, c=2, v_buckets=8, t_max=4, f=4)
        params = init_encoder(MEANPOOL, dims, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            encode_sentence(seq(1, 4, 5, 6, 2), params)
