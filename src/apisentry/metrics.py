"""Evaluation metrics for detection and next-call prediction.

Binary confusion metrics for the detector, support-weighted one-vs-rest
metrics for the multi-label next-call task, per-label ROC-AUC via the rank
statistic, and a report of rare labels the models tend to miss. All
functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import Corpus


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # (L, L) int64; rows = true label, cols = predicted

    @property
    def n_labels(self) -> int:
        return self.counts.shape[0]

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    averaging: str                    # "binary_positive_class" or "weighted"
    support: dict[int, int]
    degenerate: bool = False          # some 0/0 ratio was reported as 0


@dataclass(frozen=True)
class AucReport:
    per_label_auc: dict[int, float | None]   # None when only one class present
    supports: dict[int, int]


@dataclass(frozen=True)
class RareLabel:
    label: int
    frequency: int
    auc: float | None
    name: str | None = None


def confusion(preds, truths, n_labels: int) -> ConfusionMatrix:
    preds = np.asarray(preds, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if preds.shape != truths.shape:
        raise ValueError(f"length mismatch: {preds.shape} predictions vs {truths.shape} truths")
    if preds.size and (preds.max() >= n_labels or truths.max() >= n_labels
                       or preds.min() < 0 or truths.min() < 0):
        raise ValueError("labels out of range")
    counts = np.zeros((n_labels, n_labels), dtype=np.int64)
    np.add.at(counts, (truths, preds), 1)
    return ConfusionMatrix(counts=counts)


def _ratio(num: float, den: float) -> tuple[float, bool]:
    if den == 0:
        return 0.0, True
    return num / den, False


def _ratios(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_ratio per element: num / den, 0 where den is 0, and where that was."""
    zero = den == 0
    return np.divide(num, den, out=np.zeros_like(num), where=~zero), zero


def binary_metrics(cm: ConfusionMatrix, positive: int = 1) -> MetricsReport:
    """Precision/recall/F1 for the positive class plus overall accuracy."""
    if cm.n_labels != 2:
        raise ValueError(f"binary metrics need a 2x2 confusion matrix, got {cm.n_labels}x{cm.n_labels}")
    neg = 1 - positive
    tp = int(cm.counts[positive, positive])
    fp = int(cm.counts[neg, positive])
    fn = int(cm.counts[positive, neg])
    tn = int(cm.counts[neg, neg])
    precision, d1 = _ratio(tp, tp + fp)
    recall, d2 = _ratio(tp, tp + fn)
    f1, d3 = _ratio(2 * precision * recall, precision + recall)
    accuracy, d4 = _ratio(tp + tn, tp + tn + fp + fn)
    return MetricsReport(
        accuracy=accuracy, precision=precision, recall=recall, f1=f1,
        averaging="binary_positive_class",
        support={neg: tn + fp, positive: tp + fn},
        degenerate=d1 or d2 or d3 or d4)


def weighted_metrics(preds, truths, n_labels: int) -> MetricsReport:
    """One-vs-rest precision/recall/F1 per label, averaged with weights equal
    to the true-label supports. Accuracy is the confusion diagonal over the
    total, which equals the weighted recall exactly."""
    cm = confusion(preds, truths, n_labels)
    total = cm.total()
    if total == 0:
        raise ValueError("cannot compute metrics on empty inputs")
    diag = np.diag(cm.counts).astype(np.float64)
    pred_per_label = cm.counts.sum(axis=0).astype(np.float64)
    true_per_label = cm.counts.sum(axis=1).astype(np.float64)

    precision, d1 = _ratios(diag, pred_per_label)
    recall, _ = _ratios(diag, true_per_label)
    f1, d3 = _ratios(2 * precision * recall, precision + recall)
    weights = true_per_label / total
    return MetricsReport(
        accuracy=float(diag.sum() / total),
        precision=float((weights * precision).sum()),
        recall=float((weights * recall).sum()),
        f1=float((weights * f1).sum()),
        averaging="weighted",
        support={lab: int(true_per_label[lab]) for lab in range(n_labels)},
        degenerate=bool(((d1 | d3) & (true_per_label > 0)).any()))


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, ties sharing the average of their positions:
    scipy.stats.rankdata's "average" method, bit for bit, without importing
    scipy.stats (about 0.9 s and 50 MB)."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    new_group = np.r_[True, sorted_vals[1:] != sorted_vals[:-1]]
    bounds = np.r_[np.flatnonzero(new_group), len(values)]  # group starts, then n
    group = np.cumsum(new_group)  # 1-based group of each sorted value
    ranks = np.empty(len(values))
    ranks[order] = 0.5 * (bounds[group - 1] + bounds[group] + 1)
    return ranks


def roc_auc_per_label(scores, truths, n_labels: int) -> AucReport:
    """One-vs-rest AUC per label from per-sample score vectors.

    Uses the rank statistic AUC = (U - n_pos(n_pos+1)/2) / (n_pos * n_neg)
    with midranks for ties, which equals the trapezoidal area under the ROC
    curve. Labels with a single class present get None.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[1] != n_labels:
        raise ValueError(f"scores must be (n_samples, {n_labels})")
    if scores.shape[0] != truths.shape[0]:
        raise ValueError("length mismatch between scores and truths")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    per_label: dict[int, float | None] = {}
    supports: dict[int, int] = {}
    for lab in range(n_labels):
        member = truths == lab
        n_pos = int(member.sum())
        n_neg = len(truths) - n_pos
        supports[lab] = n_pos
        if n_pos == 0 or n_neg == 0:
            per_label[lab] = None
            continue
        ranks = _midranks(scores[:, lab])
        u = ranks[member].sum() - n_pos * (n_pos + 1) / 2.0
        per_label[lab] = float(u / (n_pos * n_neg))
    return AucReport(per_label_auc=per_label, supports=supports)


def rare_label_report(corpus: Corpus, auc: AucReport,
                      freq_threshold: float | None = None,
                      names: dict[int, str] | None = None) -> list[RareLabel]:
    """Labels called fewer than freq_threshold times across the corpus,
    sorted by ascending frequency. Defaults to 0.1% of all calls."""
    calls = np.fromiter(chain.from_iterable(t.calls for t in corpus.traces), dtype=np.int64)
    freq = np.bincount(calls, minlength=corpus.vocabulary_size)
    if freq_threshold is None:
        freq_threshold = 0.001 * len(calls)
    out = []
    for lab in range(corpus.vocabulary_size):
        if freq[lab] < freq_threshold:
            out.append(RareLabel(
                label=lab,
                frequency=int(freq[lab]),
                auc=auc.per_label_auc.get(lab),
                name=names.get(lab) if names else None))
    out.sort(key=lambda r: (r.frequency, r.label))
    return out
