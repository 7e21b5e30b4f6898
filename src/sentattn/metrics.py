"""Multi-label confusion counting and macro/micro precision, recall, F1.

The zero-division convention is pinned: 0/0 counts as 0 for per-class
precision and recall, which lets never-predicted rare classes depress
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


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _f1(p: float, r: float) -> float:
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def per_class_scores(counts: ConfusionCounts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class (precision, recall, F1) arrays with the 0/0 -> 0 rule."""
    p = _safe_div(counts.tp, counts.tp + counts.fp)
    r = _safe_div(counts.tp, counts.tp + counts.fn)
    denom = p + r
    f1 = np.zeros_like(p)
    np.divide(2.0 * p * r, denom, out=f1, where=denom > 0)
    return p, r, f1


def macro_scores(counts: ConfusionCounts) -> tuple[float, float, float]:
    """Unweighted class means of P and R; F1 is their harmonic mean."""
    p, r, _ = per_class_scores(counts)
    macro_p = float(p.mean())
    macro_r = float(r.mean())
    return macro_p, macro_r, _f1(macro_p, macro_r)


def micro_scores(counts: ConfusionCounts) -> tuple[float, float, float]:
    """Class-pooled precision and recall; F1 is their harmonic mean."""
    tp = int(counts.tp.sum())
    denom_p = tp + int(counts.fp.sum())
    denom_r = tp + int(counts.fn.sum())
    micro_p = tp / denom_p if denom_p else 0.0
    micro_r = tp / denom_r if denom_r else 0.0
    return micro_p, micro_r, _f1(micro_p, micro_r)


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
