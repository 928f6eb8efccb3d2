"""End-to-end reference pipelines with a built-in comparison table.

Runs the detection pipeline (dataset 1 style: labeled, vocab 307) and the
next-call pipeline (both datasets) with the faithful default settings, then
prints each metric next to the reference target the tool is calibrated
against. Targets are goals, not guarantees: the exact split and seeds behind
the reference numbers are unpublished, so reruns land near them rather than
on them.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .corpus import Corpus, CorpusError, SplitSpec, canonicalize, load_corpus, \
    random_oversample, stratified_split
from .gbdt import default_bagging_configs, ensemble_predict_rows, rank_features, \
    save_detector, train_bagged
from .metrics import binary_metrics, confusion, rare_label_report, roc_auc_per_label, \
    weighted_metrics
from .ngrams import build_vocabulary, class_frequency, corpus_matrix, prefix_samples, \
    save_vocabulary
from .seeding import derive_seed
from .seqmodel import BiLstmConfig, predict_distributions, \
    save_curves, save_model, train

# Reference metrics bundled with the tool (percent).
DETECTION_TARGETS = {"accuracy": 95.85, "precision": 92.70, "recall": 99.56, "f1": 96.00}
DETECTION_TOLERANCES = {"accuracy": 3.0, "precision": 5.0, "recall": 3.0, "f1": 3.0}
NEXTCALL_TARGETS = {
    "dataset1": {"accuracy": 93.62, "precision": 93.58, "recall": 93.62, "f1": 93.52},
    "dataset2": {"accuracy": 88.80, "precision": 88.50, "recall": 88.80, "f1": 88.48},
}
NEXTCALL_TOLERANCES = {"dataset1": 4.0, "dataset2": 5.0}

# Reference top-10 2-grams/3-grams with (goodware, malware) occurrence counts.
REFERENCE_TOP_NGRAMS = [
    ((240, 117, 82), (1779, 12287)),
    ((117, 297, 199), (0, 6345)),
    ((35, 208, 240), (625, 14365)),
    ((199, 264), (17349, 16475)),
    ((215, 37), (549, 5129)),
    ((114, 215), (14582, 3064)),
    ((117, 215, 260), (12165, 934)),
    ((215, 37, 158), (397, 4993)),
    ((202, 260), (13248, 8108)),
    ((117, 215, 89), (44, 2276)),
]

# Call names reported as rare in both reference corpora.
REFERENCE_RARE_CALLS = [
    "CopyFileW", "GetUserNameExA", "GetDiskFreeSpaceExW",
    "SHGetSpecialFolderLocation", "HttpSendRequestA",
    "InternetGetConnectedState", "sendto", "RtlDecompressBuffer",
]

# Per dataset: its name, vocabulary cap, the sequence model's trace cap
# (0 = whole traces) and the summary line written when it is not supplied.
# Dataset 1 also feeds the detector.
DATASETS = (
    ("dataset1", 307, 0, "dataset 1 not supplied: detection half skipped"),
    ("dataset2", 342, 200, "dataset 2 not supplied: its next-call half skipped"),
)

NO_DATASETS = (
    "reproduce: no datasets supplied.\n"
    "Convert the public corpora to canonical CSV first, e.g.\n"
    "  apisentry adapt --layout wide --in calls.csv --vocab-size 307 --out d1.csv\n"
    "  apisentry adapt --layout seqcol --in families.csv --vocab-size 342 --out d2.csv\n"
    "then rerun with --dataset1 d1.csv and/or --dataset2 d2.csv.")


def _pct(x: float) -> float:
    return 100.0 * x


def _compare_rows(rows, out_lines) -> None:
    header = f"{'metric':<32}{'ours':>10}{'target':>10}{'tolerance':>11}  within"
    out_lines.append(header)
    out_lines.append("-" * len(header))
    for name, ours, target, tol in rows:
        ok = "yes" if abs(ours - target) <= tol else "NO"
        out_lines.append(f"{name:<32}{ours:>10.2f}{target:>10.2f}{tol:>11.1f}  {ok}")


def _detection_pipeline(corpus: Corpus, outdir: Path, seed: int,
                        top_k_features: int, quick: bool, lines: list[str]) -> None:
    lines += ["", "== dataset 1: early detection =="]
    spec = SplitSpec(test_fraction=0.2, seed=derive_seed(seed, "split"), stratified=True)
    train_c, test_c = stratified_split(corpus, spec)
    # faithful default: both sides are oversampled to balance
    train_c = random_oversample(train_c, derive_seed(seed, "balance-train"))
    test_c = random_oversample(test_c, derive_seed(seed, "balance-test"))

    vocab = build_vocabulary(train_c, min_count=1, top_k=top_k_features or None)
    save_vocabulary(vocab, outdir / "d1_vocab.tsv")
    X_train, y_train = corpus_matrix(train_c, vocab)
    X_test, y_test = corpus_matrix(test_c, vocab)

    configs = default_bagging_configs()
    if quick:
        configs = [replace(cfg, n_estimators=20) for cfg in configs]
    detector = train_bagged(X_train, np.array(y_train), configs=configs,
                            seed=derive_seed(seed, "bootstrap"), vocab_ref="d1_vocab.tsv")
    save_detector(detector, outdir / "d1_detector.det")
    preds, scores = ensemble_predict_rows(detector, X_test)
    m = binary_metrics(confusion(preds, np.array(y_test), 2))
    report = {"accuracy": _pct(m.accuracy), "precision": _pct(m.precision),
              "recall": _pct(m.recall), "f1": _pct(m.f1)}
    (outdir / "d1_detection_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    rows = [(f"detection {k}", report[k], DETECTION_TARGETS[k], DETECTION_TOLERANCES[k])
            for k in ("accuracy", "precision", "recall", "f1")]
    _compare_rows(rows, lines)

    ranked = rank_features(detector, vocab, k=10)
    feature_lines = ["rank\tngram\timportance\tclass0_count\tclass1_count"]
    ours_set = set()
    for rank, (ngram, importance) in enumerate(ranked, start=1):
        c0, c1 = class_frequency(train_c, ngram)
        ours_set.add(ngram)
        ids = ",".join(str(i) for i in ngram)
        feature_lines.append(f"{rank}\t[{ids}]\t{importance:.6f}\t{c0}\t{c1}")
    (outdir / "d1_features_top10.tsv").write_text(
        "\n".join(feature_lines) + "\n", encoding="utf-8")
    overlap = sum(1 for ng, _ in REFERENCE_TOP_NGRAMS if ng in ours_set)
    lines.append(f"top-10 n-gram overlap with reference list: {overlap}/10 "
                 f"(>= 3 expected)")


def _nextcall_pipeline(corpus: Corpus, tag: str, vocab_size: int, outdir: Path,
                       seed: int, seq_traces: int, trace_cap: int,
                       quick: bool, lines: list[str]) -> float:
    lines += ["", f"== {tag}: next-call prediction =="]
    spec = SplitSpec(test_fraction=0.2, seed=derive_seed(seed, f"{tag}-seq-split"),
                     stratified=False)
    train_c, test_c = stratified_split(corpus, spec)

    def collect(c: Corpus, cap_traces: int):
        traces = c.traces[:cap_traces] if cap_traces else c.traces
        samples = []
        for t in traces:
            calls = t.calls[-trace_cap:] if trace_cap else t.calls
            samples.extend(prefix_samples(calls))
        return samples

    train_samples = collect(train_c, seq_traces)
    test_samples = collect(test_c, max(1, seq_traces // 4) if seq_traces else 0)
    max_prefix = (trace_cap - 1) if trace_cap else 99
    config = BiLstmConfig(
        vocab_size=vocab_size,
        embed_dim=32 if quick else 64,
        hidden=32 if quick else 150,
        max_epochs=3 if quick else 50,
        max_prefix_len=max_prefix,
        seed=derive_seed(seed, f"{tag}-predictor"))
    model, report = train(train_samples, config)
    save_model(model, outdir / f"{tag}_predictor.seq")
    save_curves(report, outdir / f"{tag}_curves.csv")

    truths = np.array([s.next for s in test_samples], dtype=np.int64)
    dists = predict_distributions(model, test_samples)
    preds = dists.argmax(axis=1)
    m = weighted_metrics(preds, truths, vocab_size)
    auc = roc_auc_per_label(dists, truths, vocab_size)
    rare = rare_label_report(corpus, auc)
    rare_lines = ["label\tfrequency\tauc"]
    for r in rare:
        auc_txt = "undefined" if r.auc is None else f"{r.auc:.4f}"
        rare_lines.append(f"{r.label}\t{r.frequency}\t{auc_txt}")
    (outdir / f"{tag}_rare_labels.tsv").write_text(
        "\n".join(rare_lines) + "\n", encoding="utf-8")

    result = {"accuracy": _pct(m.accuracy), "precision": _pct(m.precision),
              "recall": _pct(m.recall), "f1": _pct(m.f1),
              "train_samples": len(train_samples), "test_samples": len(test_samples)}
    (outdir / f"{tag}_nextcall_report.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    targets = NEXTCALL_TARGETS[tag]
    tol = NEXTCALL_TOLERANCES[tag]
    rows = [(f"{tag} next-call {k}", result[k], targets[k], tol)
            for k in ("accuracy", "precision", "recall", "f1")]
    _compare_rows(rows, lines)
    if seq_traces:
        lines.append(f"note: trained on the first {seq_traces} traces of the split; "
                     f"run with top-level compute (seq_traces=0) to chase the targets")
    return result["accuracy"]


def run_reproduction(dataset1: str | None, dataset2: str | None, outdir: Path,
                     seed: int = 42, top_k_features: int = 4000,
                     seq_traces: int = 2000, quick: bool = False) -> list[Path]:
    """Run the halves whose datasets are supplied; returns the written
    summary. top_k_features=0 keeps every n-gram, seq_traces=0 every trace."""
    if not dataset1 and not dataset2:
        raise CorpusError(NO_DATASETS)
    # every supplied dataset is loaded and checked before anything is written
    corpora = [load_corpus(path) if path else None for path in (dataset1, dataset2)]
    for (tag, vocab_cap, _, _), path, corpus in zip(DATASETS, (dataset1, dataset2), corpora):
        if corpus is not None and corpus.vocabulary_size > vocab_cap:
            raise CorpusError(f"{path}: {tag} should have vocabulary size <= {vocab_cap}, "
                              f"got {corpus.vocabulary_size}")
    outdir.mkdir(parents=True, exist_ok=True)
    lines: list[str] = [f"apisentry reproduction run (seed {seed})"]
    accuracy = {}
    for (tag, vocab_cap, trace_cap, skipped), corpus in zip(DATASETS, corpora):
        if corpus is None:
            lines += ["", skipped]
            continue
        if tag == "dataset1":
            corpus = canonicalize(corpus, collapse=True, max_len=100)
            _detection_pipeline(corpus, outdir, seed, top_k_features, quick, lines)
        accuracy[tag] = _nextcall_pipeline(corpus, tag, vocab_cap, outdir, seed, seq_traces,
                                           trace_cap, quick, lines)
    if len(accuracy) == 2:
        acc1, acc2 = accuracy.values()
        ordering = "holds" if acc1 > acc2 else "DOES NOT HOLD"
        lines += ["", f"dataset1 accuracy > dataset2 accuracy: {ordering} "
                      f"({acc1:.2f} vs {acc2:.2f})"]
    lines += ["", "reference rare-call names (id mapping is corpus specific):"]
    lines += [f"  {name}" for name in REFERENCE_RARE_CALLS]
    summary = "\n".join(lines) + "\n"
    sys.stdout.write(summary)
    (outdir / "summary.txt").write_text(summary, encoding="utf-8")
    return [outdir / "summary.txt"]
