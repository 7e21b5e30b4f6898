"""Multi-label confusion counting and macro/micro precision, recall, F1.

The zero-division convention is pinned: 0/0 counts as 0 for every
precision, recall and F1, which lets never-predicted rare classes depress
macro scores. Macro F1 is the harmonic mean of macro precision and macro
recall; the per-class-F1-mean variant is reported alongside for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class LengthMismatch(Exception):
    """Prediction and target vectors differ in length."""


@dataclass
class ConfusionCounts:
    """Per-class TP/FP/FN tallies over c classes."""

    c: int
    tp: np.ndarray = field(init=False)
    fp: np.ndarray = field(init=False)
    fn: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.tp = np.zeros(self.c, dtype=np.int64)
        self.fp = np.zeros(self.c, dtype=np.int64)
        self.fn = np.zeros(self.c, dtype=np.int64)

    def accumulate(self, predicted: np.ndarray, target: np.ndarray) -> None:
        """Add one example: TP += pred&target, FP += pred&~target, FN += ~pred&target."""
        if len(predicted) != self.c or len(target) != self.c:
            raise LengthMismatch(f"expected length {self.c}")
        p = np.asarray(predicted, dtype=bool)
        t = np.asarray(target, dtype=bool)
        self.tp += p & t
        self.fp += p & ~t
        self.fn += ~p & t


def _safe_div(num: np.ndarray | float, den: np.ndarray | float) -> np.ndarray:
    """num / den in float64, elementwise, and 0 where den is 0: the one zero-division rule."""
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def per_class_scores(counts: ConfusionCounts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class (precision, recall, F1) arrays with the 0/0 -> 0 rule."""
    p = _safe_div(counts.tp, counts.tp + counts.fp)
    r = _safe_div(counts.tp, counts.tp + counts.fn)
    return p, r, _safe_div(2.0 * p * r, p + r)


def macro_scores(counts: ConfusionCounts) -> tuple[float, float, float]:
    """Unweighted class means of P and R; F1 is their harmonic mean."""
    p, r, _ = per_class_scores(counts)
    macro_p, macro_r = float(p.mean()), float(r.mean())
    return macro_p, macro_r, float(_safe_div(2.0 * macro_p * macro_r, macro_p + macro_r))


def micro_scores(counts: ConfusionCounts) -> tuple[float, float, float]:
    """Class-pooled precision and recall; F1 is their harmonic mean."""
    tp = counts.tp.sum()
    micro_p = float(_safe_div(tp, tp + counts.fp.sum()))
    micro_r = float(_safe_div(tp, tp + counts.fn.sum()))
    return micro_p, micro_r, float(_safe_div(2.0 * micro_p * micro_r, micro_p + micro_r))


def report(counts: ConfusionCounts, labels: list[str]) -> dict:
    """Full JSON-ready metrics report: per-class block, keyed by label, plus macro and micro."""
    p, r, f1 = per_class_scores(counts)
    macro_p, macro_r, macro_f1 = macro_scores(counts)
    micro_p, micro_r, micro_f1 = micro_scores(counts)
    per_class = {
        name: {
            "tp": int(counts.tp[i]), "fp": int(counts.fp[i]), "fn": int(counts.fn[i]),
            "precision": float(p[i]), "recall": float(r[i]), "f1": float(f1[i]),
        }
        for i, name in enumerate(labels)
    }
    return {
        "per_class": per_class,
        "macro": {
            "precision": macro_p, "recall": macro_r, "f1": macro_f1,
            "f1_per_class_mean": float(f1.mean()),
        },
        "micro": {"precision": micro_p, "recall": micro_r, "f1": micro_f1},
    }
