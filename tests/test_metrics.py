import numpy as np
import pytest

from apisentry.corpus import Corpus, LabeledTrace
from apisentry.metrics import (
    binary_metrics,
    confusion,
    rare_label_report,
    roc_auc_per_label,
    weighted_metrics,
)


def pairwise_auc(scores, members):
    """Independent oracle: fraction of positive/negative pairs ranked
    correctly, ties counting half."""
    pos = [s for s, m in zip(scores, members) if m]
    neg = [s for s, m in zip(scores, members) if not m]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def per_class_metrics(preds, truths, n_labels):
    """Independent oracle: one-vs-rest metrics via explicit counting."""
    out = []
    for lab in range(n_labels):
        tp = sum(1 for p, t in zip(preds, truths) if p == lab and t == lab)
        fp = sum(1 for p, t in zip(preds, truths) if p == lab and t != lab)
        fn = sum(1 for p, t in zip(preds, truths) if p != lab and t == lab)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        out.append((precision, recall, f1, tp + fn))
    return out


class TestConfusion:
    def test_perfect_diagonal(self):
        cm = confusion([0, 1], [0, 1], 2)
        assert cm[0, 0] == 1 and cm[1, 1] == 1
        assert cm.sum() == 2

    def test_single_error(self):
        cm = confusion([1], [0], 2)
        assert cm[0, 1] == 1

    def test_empty(self):
        assert confusion([], [], 3).sum() == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0], 2)

    def test_permutation_invariant_totals(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 3, 40)
        truths = rng.integers(0, 3, 40)
        perm = rng.permutation(40)
        a = confusion(preds, truths, 3)
        b = confusion(preds[perm], truths[perm], 3)
        assert (a == b).all()


class TestBinaryMetrics:
    def test_hand_computed_case(self):
        # TP=2, FP=0, FN=1, TN=1
        m = binary_metrics(confusion([1, 1, 0, 0], [1, 1, 1, 0], 2))
        assert m.precision == 1.0
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(0.8)
        assert m.accuracy == pytest.approx(0.75)
        assert not m.degenerate

    def test_all_correct(self):
        m = binary_metrics(confusion([0, 1, 1], [0, 1, 1], 2))
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_degenerate_flagged_as_zero(self):
        m = binary_metrics(confusion([0, 0], [0, 0], 2))
        assert m.precision == 0.0 and m.recall == 0.0
        assert m.degenerate

    @pytest.mark.parametrize("counts", [confusion([0, 2], [1, 2], 3), np.arange(4)])
    def test_counts_other_than_2x2_refused(self, counts):
        with pytest.raises(ValueError, match=r"need a 2x2 confusion matrix, got shape"):
            binary_metrics(counts)


class TestWeightedMetrics:
    def test_hand_computed_case(self):
        m = weighted_metrics([0, 1, 1], [0, 0, 1], 2)
        assert m.accuracy == pytest.approx(2 / 3)
        assert m.precision == pytest.approx(5 / 6)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 / 3)

    def test_perfect(self):
        m = weighted_metrics([0, 1, 2], [0, 1, 2], 3)
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_matches_per_class_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n_labels = int(rng.integers(2, 6))
            n = int(rng.integers(3, 40))
            preds = rng.integers(0, n_labels, n)
            truths = rng.integers(0, n_labels, n)
            m = weighted_metrics(preds, truths, n_labels)
            oracle = per_class_metrics(preds, truths, n_labels)
            weights = [sup / n for _, _, _, sup in oracle]
            assert m.precision == pytest.approx(
                sum(w * p for w, (p, _, _, _) in zip(weights, oracle)), abs=1e-12)
            assert m.recall == pytest.approx(
                sum(w * r for w, (_, r, _, _) in zip(weights, oracle)), abs=1e-12)
            assert m.f1 == pytest.approx(
                sum(w * f for w, (_, _, f, _) in zip(weights, oracle)), abs=1e-12)
            # single-prediction identity
            assert m.recall == pytest.approx(m.accuracy, abs=1e-12)
            assert 0.0 <= m.f1 <= max(m.precision, m.recall) + 1e-12


class TestRocAuc:
    def test_perfect_ranking(self):
        scores = np.array([[0.1, 0.9], [0.2, 0.8], [0.9, 0.1]])
        report = roc_auc_per_label(scores, [1, 1, 0], 2)
        assert report[1] == 1.0

    def test_tie_convention(self):
        scores = np.array([[0.5, 0.5], [0.5, 0.5]])
        report = roc_auc_per_label(scores, [1, 0], 2)
        assert report[1] == 0.5

    def test_single_class_undefined(self):
        scores = np.array([[0.4, 0.6], [0.3, 0.7]])
        report = roc_auc_per_label(scores, [1, 1], 2)
        assert report[1] is None
        assert report[0] is None

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = 20
            n_labels = int(rng.integers(2, 5))
            scores = rng.random((n, n_labels))
            scores[rng.random((n, n_labels)) < 0.3] = 0.5  # force ties
            truths = rng.integers(0, n_labels, n)
            report = roc_auc_per_label(scores, truths, n_labels)
            for lab in range(n_labels):
                members = truths == lab
                if members.all() or not members.any():
                    assert report[lab] is None
                    continue
                oracle = pairwise_auc(scores[:, lab], members)
                assert report[lab] == pytest.approx(oracle, abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.random((30, 2))
        truths = rng.integers(0, 2, 30)
        a = roc_auc_per_label(scores, truths, 2)
        b = roc_auc_per_label(np.exp(3 * scores) + 1, truths, 2)
        assert a == b

    def test_negation_complements_without_ties(self):
        rng = np.random.default_rng(4)
        scores = rng.permutation(40).astype(float).reshape(20, 2)
        truths = rng.integers(0, 2, 20)
        if len(set(truths)) < 2:
            truths[0] = 1 - truths[0]
        a = roc_auc_per_label(scores, truths, 2)
        b = roc_auc_per_label(-scores, truths, 2)
        for lab in range(2):
            assert a[lab] + b[lab] == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        scores = np.array([[0.4, 0.6], [0.3, bad]])
        with pytest.raises(ValueError, match="finite"):
            roc_auc_per_label(scores, [1, 0], 2)


class TestRareLabels:
    def make_corpus(self):
        traces = (
            LabeledTrace("a", (0, 0, 0, 1), 1),
            LabeledTrace("b", (0, 1, 2), 0),
        )
        return Corpus(traces=traces, vocabulary_size=4)

    def test_never_occurring_label(self):
        corpus = self.make_corpus()
        auc = {0: 0.9, 1: 0.8, 2: None, 3: None}
        rows = rare_label_report(corpus, auc, freq_threshold=2)
        assert rows[0].label == 3 and rows[0].frequency == 0 and rows[0].auc is None

    def test_all_frequent(self):
        corpus = Corpus(traces=(LabeledTrace("a", (0, 1, 2, 3), 1),),
                        vocabulary_size=4)
        auc = {}
        assert rare_label_report(corpus, auc, freq_threshold=1) == []

    def test_names_attached(self):
        corpus = self.make_corpus()
        auc = {}
        rows = rare_label_report(corpus, auc, freq_threshold=2,
                                 names={2: "CopyFileW"})
        by_label = {r.label: r for r in rows}
        assert by_label[2].name == "CopyFileW"
