"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria 1-7 are self-contained properties with pinned tolerances. Criteria
8-10 need the public corpora converted to canonical CSV; point
APISENTRY_DATASET1 / APISENTRY_DATASET2 at those files to enable them.
"""

import json
import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from apisentry.cli import main
from apisentry.corpus import Corpus, LabeledTrace, SplitSpec, stratified_split
from apisentry.data import demo_corpus_path
from apisentry.gbdt import (
    GbdtConfig,
    default_bagging_configs,
    ensemble_predict_rows,
    rank_features,
    train_bagged,
    train_gbdt,
)
from apisentry.metrics import roc_auc_per_label, weighted_metrics
from apisentry.ngrams import build_vocabulary, corpus_matrix, prefix_samples
from apisentry.seqmodel import (
    BiLstmConfig,
    init_model,
    loss_and_grads,
    batch_loss,
    predict_distributions,
    predict_next_k,
    train,
)

from matrices import csr
from test_gbdt import (
    assert_root_split_attains_max,
    random_count_corpus,
    replay_leaf_weights,
)
from test_metrics import pairwise_auc, per_class_metrics


def report(number: int, name: str):
    """Prints one pass/fail line per criterion around the wrapped block."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[acceptance] criterion {number} ({name}): {verdict}")
            return False

    return _Ctx()


# --- criterion 1 ---------------------------------------------------------------

def test_criterion_1_gradient_check():
    cfg = BiLstmConfig(vocab_size=7, embed_dim=4, hidden=5, dropout_rate=0.0,
                       max_prefix_len=4, seed=11)
    samples = [((1, 2), 3), ((4, 5, 6, 0), 2), ((2, 4), 6), ((0,), 5)]
    with report(1, "Bi-LSTM analytic gradients vs central finite differences"):
        model = init_model(cfg)
        _, grads = loss_and_grads(model, samples)
        eps = 1e-4
        worst = 0.0
        for key in model.params:
            flat = model.params[key].reshape(-1)
            analytic = grads[key].reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + eps
                up = batch_loss(model, samples)
                flat[idx] = keep - eps
                down = batch_loss(model, samples)
                flat[idx] = keep
                numeric = (up - down) / (2 * eps)
                scale = max(abs(numeric), abs(analytic[idx]), 1e-6)
                worst = max(worst, abs(numeric - analytic[idx]) / scale)
        assert worst < 1e-3, f"worst relative gradient error {worst}"


# --- criterion 2 ---------------------------------------------------------------

def _cycle_traces(n_traces, seed, period=5, min_len=10, max_len=18):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_traces):
        start = int(rng.integers(0, period))
        length = int(rng.integers(min_len, max_len + 1))
        calls = [(start + i) % period for i in range(length)]
        samples.extend(prefix_samples(calls))
    return samples


def test_criterion_2_cyclic_grammar_learnability():
    with report(2, "period-5 cycle learned to >= 0.99 accuracy within 20 epochs"):
        cfg = BiLstmConfig(vocab_size=5, embed_dim=12, hidden=24, dropout_rate=0.3,
                           learning_rate=0.01, batch_size=64, max_epochs=20,
                           patience=20, val_fraction=0.1, max_prefix_len=20,
                           seed=42)
        model, rpt = train(_cycle_traces(200, seed=7), cfg)
        assert len(rpt.train_loss) <= 20
        held_out = _cycle_traces(40, seed=1234)
        preds = predict_distributions(model, held_out).argmax(axis=1)
        acc = weighted_metrics(preds, [s.next for s in held_out], cfg.vocab_size).accuracy
        assert acc >= 0.99, f"held-out next-call accuracy {acc}"
        for phase in range(5):
            seed_calls = [phase, (phase + 1) % 5]
            expect = [(phase + 2 + i) % 5 for i in range(10)]
            assert predict_next_k(model, seed_calls, 10) == expect


# --- criterion 3 ---------------------------------------------------------------

def test_criterion_3_split_optimality_and_leaf_replay():
    with report(3, "root splits match exhaustive enumeration; leaves match -G/(H+lambda)"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            X, y = random_count_corpus(rng, n_max=100, f_max=10)
            cfg = GbdtConfig(n_estimators=1, max_depth=3,
                             reg_lambda=float(rng.choice([0.5, 1.0, 2.0])))
            model = train_gbdt(csr(X), y, cfg)
            p = 1.0 / (1.0 + math.exp(-model.base_score))
            g = np.full(len(y), p) - y
            h = np.full(len(y), p * (1 - p))
            assert_root_split_attains_max(X, g, h, cfg, model.trees[0])
        for _ in range(10):
            X, y = random_count_corpus(rng, n_max=200, f_max=8)
            model = train_gbdt(csr(X), y, GbdtConfig(n_estimators=5, max_depth=3))
            for got, expect in replay_leaf_weights(model, X, y):
                assert got == pytest.approx(expect, abs=1e-10)


# --- criterion 4 ---------------------------------------------------------------

def _planted_corpus(n_good, n_mal, seed, vocab=15, planted=(7, 8, 9)):
    rng = np.random.default_rng(seed)
    a, b, c = planted

    def contains(calls):
        return any(tuple(calls[i:i + 3]) == planted for i in range(len(calls) - 2))

    traces = []
    for k in range(n_good):
        while True:
            calls = [int(v) for v in rng.integers(0, vocab, size=rng.integers(15, 26))]
            pos = int(rng.integers(0, len(calls) - 4))
            filler = int(rng.integers(0, vocab))
            while filler == c:
                filler = int(rng.integers(0, vocab))
            calls[pos:pos + 3] = [a, b, filler]   # both halves occur in goodware
            pos2 = int(rng.integers(0, len(calls) - 2))
            calls[pos2:pos2 + 2] = [b, c]
            if not contains(calls):
                break
        traces.append(LabeledTrace(f"g{k}", tuple(calls), 0))
    for k in range(n_mal):
        calls = [int(v) for v in rng.integers(0, vocab, size=rng.integers(15, 26))]
        pos = int(rng.integers(0, len(calls) - 3))
        calls[pos:pos + 3] = [a, b, c]
        traces.append(LabeledTrace(f"m{k}", tuple(calls), 1))
    return Corpus(traces=tuple(traces), vocabulary_size=vocab)


def test_criterion_4_separable_corpus_detection():
    with report(4, "planted 3-gram: perfect train, >= 99% held-out, rank 1"):
        corpus = _planted_corpus(150, 150, seed=5)
        train_c, test_c = stratified_split(
            corpus, SplitSpec(test_fraction=0.25, seed=8))
        vocab = build_vocabulary(train_c)
        X_train, y_train = corpus_matrix(train_c, vocab)
        X_test, y_test = corpus_matrix(test_c, vocab)
        detector = train_bagged(X_train, np.array(y_train),
                                configs=default_bagging_configs(), seed=42)
        train_preds, _ = ensemble_predict_rows(detector, X_train)
        assert (train_preds == np.array(y_train)).all(), "train accuracy below 100%"
        test_preds, _ = ensemble_predict_rows(detector, X_test)
        heldout = (test_preds == np.array(y_test)).mean()
        assert heldout >= 0.99, f"held-out accuracy {heldout}"
        top = rank_features(detector, vocab, k=1)
        assert top[0][0] == (7, 8, 9), f"rank-1 feature was {top[0][0]}"


# --- criterion 5 ---------------------------------------------------------------

def test_criterion_5_metric_oracles():
    with report(5, "weighted metrics and per-label AUC match brute-force oracles"):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            n_labels = int(rng.integers(2, 7))
            n = int(rng.integers(2, 40))
            preds = rng.integers(0, n_labels, n)
            truths = rng.integers(0, n_labels, n)
            scores = rng.random((n, n_labels))
            scores[rng.random((n, n_labels)) < 0.2] = 0.25  # inject ties
            m = weighted_metrics(preds, truths, n_labels)
            oracle = per_class_metrics(preds, truths, n_labels)
            weights = [sup / n for *_, sup in oracle]
            want_p = sum(w * p for w, (p, _, _, _) in zip(weights, oracle))
            want_r = sum(w * r for w, (_, r, _, _) in zip(weights, oracle))
            want_f = sum(w * f for w, (_, _, f, _) in zip(weights, oracle))
            assert abs(m.precision - want_p) <= 1e-12
            assert abs(m.recall - want_r) <= 1e-12
            assert abs(m.f1 - want_f) <= 1e-12
            assert abs(m.recall - m.accuracy) <= 1e-12  # micro identity
            auc = roc_auc_per_label(scores, truths, n_labels)
            for lab in range(n_labels):
                members = truths == lab
                if members.all() or not members.any():
                    assert auc[lab] is None
                else:
                    want = pairwise_auc(scores[:, lab], members)
                    assert abs(auc[lab] - want) <= 1e-12


# --- criterion 6 ---------------------------------------------------------------

def test_criterion_6_prefix_sample_reproduction():
    with report(6, "prefix samples of the 7-call example match the published table"):
        samples = prefix_samples([220, 233, 237, 220, 233, 290, 260])
        want = [
            ((220, 233), 237),
            ((220, 233, 237), 220),
            ((220, 233, 237, 220), 233),
            ((220, 233, 237, 220, 233), 290),
            ((220, 233, 237, 220, 233, 290), 260),
        ]
        assert [(s.prefix, s.next) for s in samples] == want


# --- criterion 7 ---------------------------------------------------------------

ARTIFACTS = ("cooked.csv", "train.csv", "test.csv", "train_bal.csv", "test_bal.csv",
             "vocab.tsv", "train.mat", "train.labels", "test.mat", "test.labels",
             "model.det", "predictions.csv", "report.json", "model.seq", "curves.csv")


def _full_pipeline(raw, seed=42):
    """The README pipeline in the working directory, every path relative to
    it; returns the bytes of each file there, manifests included."""
    run = lambda *argv: main([str(a) for a in argv])
    assert run("ingest", "--in", raw, "--collapse", "--out", "cooked.csv") == 0
    assert run("split", "--in", "cooked.csv", "--out-train", "train.csv",
               "--out-test", "test.csv", "--seed", seed) == 0
    assert run("balance", "--in", "train.csv", "--out", "train_bal.csv",
               "--test-in", "test.csv", "--test-out", "test_bal.csv", "--seed", seed) == 0
    assert run("featurize", "--vocab", "vocab.tsv", "--fit", "--in", "train_bal.csv",
               "--out", "train.mat", "--labels-out", "train.labels") == 0
    assert run("featurize", "--vocab", "vocab.tsv", "--in", "test_bal.csv",
               "--out", "test.mat", "--labels-out", "test.labels") == 0
    assert run("train-detector", "--train", "train.mat", "--labels", "train.labels",
               "--out", "model.det", "--seed", seed) == 0
    assert run("detect", "--model", "model.det", "--in", "test.mat",
               "--out", "predictions.csv") == 0
    assert run("evaluate", "--task", "detect", "--pred", "predictions.csv",
               "--truth", "test.labels", "--out", "report.json") == 0
    assert run("train-predictor", "--in", "train.csv", "--out", "model.seq",
               "--embed", 8, "--hidden", 8, "--max-epochs", 2, "--batch-size", 256,
               "--curves", "curves.csv", "--seed", seed) == 0
    return {path.name: path.read_bytes() for path in Path().iterdir()}


def test_criterion_7_pipeline_determinism(tmp_path, monkeypatch):
    with report(7, "seed-42 pipeline reruns are byte-identical, manifests included"):
        shutil.copy(demo_corpus_path(), tmp_path / "raw.csv")
        runs = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            runs.append(_full_pipeline(Path("..", "raw.csv")))
        first, second = runs
        assert set(first) == {*ARTIFACTS, *(name + ".manifest.json" for name in ARTIFACTS)}
        assert set(second) == set(first)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"


# --- criteria 8-10 (need the public corpora) -----------------------------------

_D1 = os.environ.get("APISENTRY_DATASET1")
_D2 = os.environ.get("APISENTRY_DATASET2")

needs_d1 = pytest.mark.skipif(not _D1, reason="set APISENTRY_DATASET1 to run")
needs_both = pytest.mark.skipif(not (_D1 and _D2),
                                reason="set APISENTRY_DATASET1 and APISENTRY_DATASET2 to run")


@pytest.fixture(scope="module")
def reproduction(tmp_path_factory):
    from apisentry.reproduce import run_reproduction

    outdir = tmp_path_factory.mktemp("reproduction")
    result = run_reproduction(dataset1=_D1, dataset2=_D2, outdir=outdir,
                              seed=42, seq_traces=0)
    assert result == [outdir / "summary.txt"]
    return outdir


@needs_d1
def test_criterion_8_dataset1_detection(reproduction):
    with report(8, "dataset 1 detection metrics within tolerance of targets"):
        got = json.loads((reproduction / "d1_detection_report.json").read_text())
        assert abs(got["accuracy"] - 95.85) <= 3.0
        assert abs(got["recall"] - 99.56) <= 3.0
        assert abs(got["precision"] - 92.70) <= 5.0
        assert abs(got["f1"] - 96.00) <= 3.0


@needs_both
def test_criterion_9_nextcall_accuracy(reproduction):
    with report(9, "next-call weighted accuracy within tolerance; ordering holds"):
        d1 = json.loads((reproduction / "dataset1_nextcall_report.json").read_text())
        d2 = json.loads((reproduction / "dataset2_nextcall_report.json").read_text())
        assert abs(d1["accuracy"] - 93.62) <= 4.0
        assert abs(d2["accuracy"] - 88.80) <= 5.0
        assert d1["accuracy"] > d2["accuracy"]


@needs_d1
def test_criterion_10_feature_ranking_overlap(reproduction):
    with report(10, "at least 3 of the reference top-10 n-grams in our top-10"):
        from apisentry.reproduce import REFERENCE_TOP_NGRAMS

        lines = (reproduction / "d1_features_top10.tsv").read_text().splitlines()[1:]
        ours = set()
        for line in lines:
            ids = line.split("\t")[1].strip("[]")
            ours.add(tuple(int(tok) for tok in ids.split(",")))
        overlap = sum(1 for ng, _ in REFERENCE_TOP_NGRAMS if ng in ours)
        assert overlap >= 3, f"overlap {overlap}"
