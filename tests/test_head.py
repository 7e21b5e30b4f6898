import math
from types import SimpleNamespace

import numpy as np
import pytest

from sentattn.encoder import CacheMismatch, ShapeMismatch
from sentattn.head import HeadParams, _sigmoid, bce_loss, head_backward, head_forward, init_head, predict

E_SQUARED = math.e**2


def random_instance(rng, h, k, c, scale=1.0):
    D = rng.normal(scale=scale, size=(h, k))
    params = HeadParams(
        S=rng.normal(size=(c, h)),
        W=rng.normal(size=(c, h)),
        b=rng.normal(size=c),
    )
    return D, params


def forward(D, S, b=None):
    """head_forward over one document D with W = 0, and b = 0 unless given.

    Adds L = alpha @ D.T, the label representations, and keeps the
    document's own scores and logits.
    """
    b = np.zeros(len(S), dtype=S.dtype) if b is None else b
    cache = head_forward(D, HeadParams(S=S, W=np.zeros_like(S), b=b))
    return SimpleNamespace(alpha=cache.alpha, L=cache.alpha @ D.T, scores=cache.scores[0], logits=cache.logits[0])


def sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def batch_loss(D, params, targets, bounds):
    return bce_loss(head_forward(D, params, bounds).logits, targets)


def backward(params, cache, targets, frozen=()):
    """head_backward's sums, added into zero arrays of S, W and b's shapes but the frozen ones, and dD."""
    sums = {name: np.zeros_like(t) for name, t in params.named_tensors() if name not in frozen}
    dD = head_backward(params, cache, targets, sums)
    return sums, dD


def assert_gradients_match_finite_differences(D, params, targets, eps=1e-5, bounds=None):
    """Every head_backward gradient (S, W, b and dD) against central differences.

    targets holds one row per document; bounds the documents' column offsets.
    """
    grads, dD = backward(params, head_forward(D, params, bounds), targets)
    analytic = {**grads, "D": dD}
    tensors = {"S": params.S, "W": params.W, "b": params.b, "D": D}
    for name, tensor in tensors.items():
        flat = tensor.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = batch_loss(D, params, targets, bounds)
            flat[i] = orig - eps
            lm = batch_loss(D, params, targets, bounds)
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            rel = abs(analytic[name].reshape(-1)[i] - fd) / max(1.0, abs(fd))
            assert rel < 1e-4, (name, i, rel)


class TestAttentionForward:
    def test_single_sentence_gets_all_weight(self):
        alpha = forward(np.random.default_rng(0).normal(size=(3, 1)), np.zeros((4, 3))).alpha
        np.testing.assert_array_equal(alpha, np.ones((4, 1)))

    def test_zero_attention_matrix_is_uniform(self):
        D = np.random.default_rng(0).normal(size=(3, 5))
        alpha = forward(D, np.zeros((2, 3))).alpha
        np.testing.assert_allclose(alpha, 1.0 / 5.0, atol=1e-12)

    def test_scalar_softmax_oracle(self):
        alpha = forward(np.array([[0.0, 10.0]]), np.array([[1.0]])).alpha
        np.testing.assert_allclose(
            alpha, [[0.26894142218048994, 0.7310585778195101]], rtol=1e-10)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        D, params = random_instance(rng, h=6, k=9, c=4, scale=3.0)
        alpha = forward(D, params.S).alpha
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)

    def test_tanh_caps_sharpness(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            D, params = random_instance(rng, h=5, k=7, c=3, scale=50.0)
            alpha = forward(D, params.S).alpha
            ratio = alpha.max(axis=1) / alpha.min(axis=1)
            assert np.all(ratio <= E_SQUARED + 1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            forward(np.zeros((3, 2)), np.zeros((2, 4)))

    @pytest.mark.parametrize("W, b", [(np.ones((1, 4)), np.zeros(3)), (np.ones((3, 4)), np.zeros(1))],
                             ids=["W-of-one-row", "b-of-one-label"])
    def test_classifier_shapes_are_checked_against_S(self, W, b):
        # either one would broadcast into three scores
        with pytest.raises(ShapeMismatch):
            head_forward(np.ones((4, 2)), HeadParams(S=np.zeros((3, 4)), W=W, b=b))


class TestPoolLabels:
    def test_single_column(self):
        D = np.array([[1.0], [2.0]])
        cache = forward(D, np.random.default_rng(0).normal(size=(3, 2)))
        np.testing.assert_array_equal(cache.alpha, np.ones((3, 1)))
        np.testing.assert_array_equal(cache.L, [[1, 2], [1, 2], [1, 2]])

    def test_uniform_is_column_mean(self):
        rng = np.random.default_rng(3)
        D = rng.normal(size=(4, 6))
        cache = forward(D, np.zeros((2, 4)))
        np.testing.assert_array_equal(cache.alpha, np.full((2, 6), 1 / 6))
        np.testing.assert_allclose(cache.L[0], D.mean(axis=1), rtol=1e-12)

    def test_arithmetic_oracle(self):
        # tanh(s_1 . d_1) - tanh(s_0 . d_0) = ln 3 weighs the columns 1:3
        D = np.array([[1.0, 0.0], [0.0, 1.0]])
        s = math.atanh(math.log(3.0) / 2)
        cache = forward(D, np.array([[-s, s]]))
        np.testing.assert_allclose(cache.alpha, [[0.25, 0.75]], rtol=1e-15)
        np.testing.assert_allclose(cache.L, [[0.25, 0.75]], rtol=1e-15)

    def test_convex_hull_componentwise(self):
        rng = np.random.default_rng(4)
        D, params = random_instance(rng, h=5, k=8, c=3)
        L = forward(D, params.S).L
        lo, hi = D.min(axis=1), D.max(axis=1)
        for i in range(3):
            assert np.all(L[i] >= lo - 1e-12) and np.all(L[i] <= hi + 1e-12)


class TestScoreAndPredict:
    def test_zero_params_score_half(self):
        s = forward(np.ones((4, 2)), np.zeros((3, 4))).scores
        np.testing.assert_array_equal(s, 0.5)

    def test_bias_ten(self):
        s = forward(np.ones((2, 3)), np.ones((1, 2)), b=np.array([10.0])).scores
        assert math.isclose(s[0], 0.9999546021312976, rel_tol=1e-12)

    def test_quarter_from_logit_minus_ln3(self):
        s = forward(np.ones((1, 1)), np.ones((1, 1)), b=np.array([-math.log(3.0)])).scores
        assert math.isclose(s[0], 0.25, rel_tol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_is_the_two_branch_formula_bit_for_bit(self, dtype):
        info = np.finfo(dtype)
        edges = [0.0, info.smallest_subnormal, info.tiny, info.eps, 1.0, 17.0, 36.0, 88.7, 103.9,
                 709.7, 745.2, float(info.max), np.inf]
        t = np.array(edges + [-e for e in edges] + [np.nan], dtype=dtype)
        t = np.concatenate([t, np.random.default_rng(0).normal(scale=20, size=6000).astype(dtype)])
        pos = t >= 0
        expected = np.empty_like(t)
        expected[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
        et = np.exp(t[~pos])
        expected[~pos] = et / (1.0 + et)
        got = _sigmoid(t)
        assert got.dtype == dtype
        nan = np.isnan(t)
        assert np.isnan(got[nan]).all()  # a NaN stays NaN, though its sign bit may differ
        bits = f"u{info.bits // 8}"
        np.testing.assert_array_equal(got[~nan].view(bits), expected[~nan].view(bits))

    def test_predict_strict_at_threshold(self):
        np.testing.assert_array_equal(predict(np.array([0.5])), [0])

    def test_predict_above_below(self):
        np.testing.assert_array_equal(predict(np.array([0.51, 0.49])), [1, 0])

    def test_predict_all_high(self):
        np.testing.assert_array_equal(predict(np.full(5, 0.9)), [1] * 5)


class TestBceLoss:
    def test_perfect_prediction_limit(self):
        logits = np.array([30.0, -30.0])
        assert bce_loss(logits, np.array([1, 0])) < 1e-12

    def test_all_half(self):
        assert math.isclose(bce_loss(np.zeros(4), np.array([1, 0, 1, 1])), math.log(2), rel_tol=1e-15)

    def test_quarter_three_quarter_oracle(self):
        logits = np.array([-math.log(3.0), math.log(3.0)])
        loss = bce_loss(logits, np.array([1, 0]))
        assert math.isclose(loss, math.log(4.0), rel_tol=1e-12)

    def test_stable_at_extreme_logits(self):
        loss = bce_loss(np.array([800.0, -800.0]), np.array([0, 1]))
        assert math.isfinite(loss) and loss > 100

    def test_targets_of_another_shape_are_refused(self):
        with pytest.raises(ShapeMismatch, match=r"logits \(2,\) against targets \(3,\)"):
            bce_loss(np.zeros(2), np.array([1, 0, 1]))


class TestHeadBackward:
    def test_bias_gradient_closed_form_at_zero_weights(self):
        rng = np.random.default_rng(5)
        D = rng.normal(size=(4, 3))
        params = HeadParams(S=rng.normal(size=(2, 4)), W=np.zeros((2, 4)), b=np.array([0.3, -0.7]))
        cache = head_forward(D, params)
        targets = np.array([[1, 0]])
        grads, _ = backward(params, cache, targets)
        expected = (1.0 / (1.0 + np.exp(-params.b)) - targets[0]) / 2
        np.testing.assert_allclose(grads["b"], expected, rtol=1e-12)

    def test_gradients_vanish_at_perfect_fit(self):
        D = np.ones((2, 2))
        params = HeadParams(S=np.zeros((2, 2)), W=np.array([[50.0, 50.0], [-50.0, -50.0]]), b=np.zeros(2))
        cache = head_forward(D, params)
        grads, dD = backward(params, cache, np.array([[1, 0]]))
        for g in (*grads.values(), dD):
            assert np.max(np.abs(g)) < 1e-12

    def test_targets_of_another_label_count_are_refused(self):
        D, params = random_instance(np.random.default_rng(13), h=3, k=4, c=2)
        with pytest.raises(CacheMismatch, match="targets"):
            backward(params, head_forward(D, params), np.array([[1, 0, 1]]))

    def test_inconsistent_cache_is_refused(self):
        D, params = random_instance(np.random.default_rng(14), h=3, k=4, c=2)
        cache = head_forward(D, params)
        cache.D = D[:, :3]  # one sentence fewer than alpha has columns
        with pytest.raises(CacheMismatch, match="internally inconsistent"):
            backward(params, cache, np.array([[1, 0]]))

    def test_frozen_s_gets_no_gradient_and_changes_nothing_else(self):
        # the uniform ablation's optimizer holds no S: its sums get the same
        # W and b gradients, and the encoder the same dD, bit for bit
        rng = np.random.default_rng(15)
        D, params = random_instance(rng, h=3, k=5, c=2)
        bounds = np.array([0, 2, 5])
        targets = np.array([[1, 0], [0, 1]])
        cache = head_forward(D, params, bounds)
        learned, dD = backward(params, cache, targets)
        frozen, dD_frozen = backward(params, cache, targets, frozen=("S",))
        assert learned["S"].any()
        assert set(frozen) == {"W", "b"}
        assert dD_frozen.tobytes() == dD.tobytes()
        for name in ("W", "b"):
            assert frozen[name].tobytes() == learned[name].tobytes(), name

    def test_seed11_finite_difference_check(self):
        rng = np.random.default_rng(11)
        D, params = random_instance(rng, h=3, k=4, c=2)
        assert_gradients_match_finite_differences(D, params, np.array([[1, 0]]))


class TestHeadInvariants:
    def test_sentence_permutation_leaves_scores(self):
        rng = np.random.default_rng(6)
        D, params = random_instance(rng, h=5, k=7, c=3)
        base = head_forward(D, params)
        perm = rng.permutation(7)
        permuted = head_forward(D[:, perm], params)
        np.testing.assert_allclose(permuted.scores, base.scores, atol=1e-6)
        np.testing.assert_allclose(permuted.alpha, base.alpha[:, perm], atol=1e-6)

    def test_single_sentence_collapse(self):
        rng = np.random.default_rng(7)
        D, params = random_instance(rng, h=4, k=1, c=3)
        cache = head_forward(D, params)
        np.testing.assert_array_equal(cache.alpha @ D.T, np.tile(D[:, 0], (3, 1)))
        collapsed = sigmoid((params.W * D[:, 0]).sum(axis=1) + params.b)
        np.testing.assert_allclose(cache.scores[0], collapsed, rtol=1e-12)

    def test_positive_scaling_of_classifier_preserves_predictions(self):
        rng = np.random.default_rng(8)
        D, params = random_instance(rng, h=5, k=6, c=4)
        base = head_forward(D, params)
        assert np.all(np.abs(base.logits) > 1e-9)  # nonzero-logit premise
        scaled = HeadParams(S=params.S, W=2.5 * params.W, b=2.5 * params.b)
        np.testing.assert_array_equal(
            predict(head_forward(D, scaled).scores), predict(base.scores))


class TestUniformMode:
    """The uniform-pooling ablation is the learned head with S held at +0.0."""

    def test_alpha_is_one_over_k(self):
        rng = np.random.default_rng(9)
        for dtype in (np.float32, np.float64):
            for k in (*range(1, 65), 100, 127, 1000, 4095, 4096):
                D = rng.normal(size=(4, k)).astype(dtype)
                alpha = forward(D, np.zeros((3, 4), dtype=dtype)).alpha
                assert alpha.dtype == dtype
                np.testing.assert_array_equal(alpha, np.full((3, k), 1 / k, dtype=dtype))
        D, params = random_instance(rng, h=4, k=8, c=2)
        params.S[...] = 0.0
        np.testing.assert_array_equal(head_forward(D, params).alpha, np.full((2, 8), 1 / 8))

    def test_dD_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        D, params = random_instance(rng, h=3, k=4, c=2)
        params.S[...] = 0.0
        assert_gradients_match_finite_differences(D, params, np.array([[0, 1]]), eps=1e-6)


class TestBatch:
    """A batch is its documents' columns side by side; each document keeps its own softmax."""

    BOUNDS = [0, 1, 5, 12]  # documents of 1, 4 and 7 sentences

    def instance(self, seed):
        D, params = random_instance(np.random.default_rng(seed), h=5, k=self.BOUNDS[-1], c=3, scale=2.0)
        return D, params

    def test_each_document_scores_as_it_does_alone(self):
        D, params = self.instance(15)
        cache = head_forward(D, params, self.BOUNDS)
        assert cache.alpha.shape == (3, 12) and cache.logits.shape == cache.scores.shape == (3, 3)
        for d, (a, b) in enumerate(zip(self.BOUNDS, self.BOUNDS[1:])):
            alone = head_forward(D[:, a:b], params)
            np.testing.assert_allclose(cache.alpha[:, a:b], alone.alpha, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cache.alpha[:, a:b].sum(axis=1), 1.0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cache.scores[d], alone.scores[0], rtol=0, atol=1e-12)
            # the score is each label's own map at its pooled representation l_i = sum_j alpha[i][j] d_j
            L = cache.alpha[:, a:b] @ D[:, a:b].T
            np.testing.assert_allclose(cache.logits[d], (params.W * L).sum(axis=1) + params.b, rtol=0, atol=1e-12)

    def test_bce_loss_sums_each_documents_mean(self):
        D, params = self.instance(16)
        targets = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]])
        logits = head_forward(D, params, self.BOUNDS).logits
        expected = sum(bce_loss(row, target) for row, target in zip(logits, targets))
        assert math.isclose(bce_loss(logits, targets), expected, rel_tol=1e-14)

    def test_batch_finite_difference_check(self):
        D, params = self.instance(17)
        targets = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert_gradients_match_finite_differences(D, params, targets, bounds=self.BOUNDS)
