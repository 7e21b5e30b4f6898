import math

import numpy as np
import pytest

from sentattn.metrics import (
    ConfusionCounts,
    LengthMismatch,
    macro_scores,
    micro_scores,
    per_class_scores,
    report,
)


def naive_recount(pairs, c):
    """Independent per-pair recount oracle in pure Python."""
    tp = [0] * c
    fp = [0] * c
    fn = [0] * c
    for pred, target in pairs:
        for i in range(c):
            if pred[i] and target[i]:
                tp[i] += 1
            elif pred[i] and not target[i]:
                fp[i] += 1
            elif not pred[i] and target[i]:
                fn[i] += 1
    return tp, fp, fn


def naive_macro(tp, fp, fn):
    c = len(tp)
    ps = [tp[i] / (tp[i] + fp[i]) if tp[i] + fp[i] else 0.0 for i in range(c)]
    rs = [tp[i] / (tp[i] + fn[i]) if tp[i] + fn[i] else 0.0 for i in range(c)]
    p, r = sum(ps) / c, sum(rs) / c
    return p, r, 2 * p * r / (p + r) if p + r else 0.0


def naive_micro(tp, fp, fn):
    p = sum(tp) / (sum(tp) + sum(fp)) if sum(tp) + sum(fp) else 0.0
    r = sum(tp) / (sum(tp) + sum(fn)) if sum(tp) + sum(fn) else 0.0
    return p, r, 2 * p * r / (p + r) if p + r else 0.0


def two_class_fixture():
    counts = ConfusionCounts(2)
    counts.tp = np.array([1, 1])
    counts.fp = np.array([1, 0])
    counts.fn = np.array([0, 1])
    return counts


class TestAccumulate:
    def test_single_example(self):
        counts = ConfusionCounts(2)
        counts.accumulate(np.array([1, 0]), np.array([1, 1]))
        assert counts.tp.tolist() == [1, 0]
        assert counts.fp.tolist() == [0, 0]
        assert counts.fn.tolist() == [0, 1]

    def test_exact_prediction_grows_tp_only(self):
        counts = ConfusionCounts(3)
        target = np.array([1, 0, 1])
        counts.accumulate(target, target)
        assert counts.tp.tolist() == [1, 0, 1]
        assert not counts.fp.any() and not counts.fn.any()

    def test_inverted_prediction(self):
        counts = ConfusionCounts(2)
        counts.accumulate(np.array([0, 1]), np.array([1, 0]))
        assert counts.fp.tolist() == [0, 1]
        assert counts.fn.tolist() == [1, 0]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ConfusionCounts(2).accumulate(np.array([1]), np.array([1, 0]))


class TestMacroMicro:
    def test_all_correct(self):
        counts = ConfusionCounts(2)
        counts.accumulate(np.array([1, 1]), np.array([1, 1]))
        assert macro_scores(counts) == (1.0, 1.0, 1.0)
        assert micro_scores(counts) == (1.0, 1.0, 1.0)

    def test_two_class_fixture_macro(self):
        p, r, f1 = macro_scores(two_class_fixture())
        assert (p, r, f1) == (0.75, 0.75, 0.75)

    def test_two_class_fixture_micro(self):
        p, r, f1 = micro_scores(two_class_fixture())
        assert math.isclose(p, 2 / 3, rel_tol=1e-15)
        assert math.isclose(r, 2 / 3, rel_tol=1e-15)
        assert math.isclose(f1, 2 / 3, rel_tol=1e-15)

    def test_macro_differs_from_micro_on_fixture(self):
        # guards against macro/micro implementation swaps
        assert macro_scores(two_class_fixture())[2] != micro_scores(two_class_fixture())[2]

    def test_silent_class_contributes_zero(self):
        counts = ConfusionCounts(2)
        counts.accumulate(np.array([1, 0]), np.array([1, 0]))
        p, r, f1 = per_class_scores(counts)
        assert p[1] == r[1] == f1[1] == 0.0

    def test_no_predictions_with_positives(self):
        counts = ConfusionCounts(2)
        counts.accumulate(np.array([0, 0]), np.array([1, 1]))
        assert micro_scores(counts) == (0.0, 0.0, 0.0)

    def test_report_fields(self):
        out = report(two_class_fixture(), labels=["G06N", "H04L"])
        assert set(out) == {"per_class", "macro", "micro"}
        assert out["macro"]["f1"] == 0.75
        assert math.isclose(out["macro"]["f1_per_class_mean"], 2 / 3, rel_tol=1e-12)
        assert list(out["per_class"]) == ["G06N", "H04L"]


class TestOracleEquivalence:
    def test_random_pairs_match_naive_recount(self):
        rng = np.random.default_rng(17)
        c = 50
        pairs = [
            (rng.integers(0, 2, c), rng.integers(0, 2, c))
            for _ in range(300)
        ]
        counts = ConfusionCounts(c)
        for pred, target in pairs:
            counts.accumulate(pred, target)
        tp, fp, fn = naive_recount(pairs, c)
        assert counts.tp.tolist() == tp
        assert counts.fp.tolist() == fp
        assert counts.fn.tolist() == fn
        for got, want in zip(macro_scores(counts), naive_macro(tp, fp, fn)):
            assert abs(got - want) < 1e-12
        for got, want in zip(micro_scores(counts), naive_micro(tp, fp, fn)):
            assert abs(got - want) < 1e-12

    def test_micro_p_equals_r_when_set_bits_match(self):
        rng = np.random.default_rng(23)
        c = 10
        counts = ConfusionCounts(c)
        for _ in range(50):
            target = rng.integers(0, 2, c)
            pred = rng.permutation(target)  # same number of set bits
            counts.accumulate(pred, target)
        p, r, f1 = micro_scores(counts)
        assert p == r == f1
