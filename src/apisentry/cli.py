"""apisentry command-line interface.

One task per invocation. Every run rewrites nothing it reads, derives all
randomness from the task seed through named streams, and drops a manifest
beside each output carrying the resolved configuration and content digests,
so identical inputs plus an identical seed give byte-identical outputs.

Exit codes: 0 success, 1 validation error (bad flags, missing or malformed
files), 2 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    CorpusError,
    SplitSpec,
    canonicalize,
    convert_seq_csv,
    convert_wide_csv,
    load_corpus,
    random_oversample,
    save_corpus,
    stratified_split,
)
from .gbdt import (
    GbdtConfig,
    default_bagging_configs,
    ensemble_predict_rows,
    load_detector,
    rank_features,
    save_detector,
    train_bagged,
)
from .metrics import (
    binary_metrics,
    confusion,
    rare_label_report,
    roc_auc_per_label,
    weighted_metrics,
)
from .ngrams import (
    _fmt,
    build_vocabulary,
    corpus_matrix,
    load_labels,
    load_matrix,
    load_vocabulary,
    prefix_samples,
    save_labels,
    save_matrix,
    save_vocabulary,
)
from .seeding import derive_seed
from .seqmodel import (
    BiLstmConfig,
    load_model,
    predict_next_k,
    save_curves,
    save_model,
    train,
)

class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CorpusError(f"{path}: line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _coerce(value: str, like):
    if isinstance(like, bool):
        return value.lower() in ("1", "true", "yes", "on")
    return type(like)(value)


class _Settings:
    """Resolution order: explicit flag, then config file, then default.

    The seed additionally consults APISENTRY_SEED between the config file
    and the built-in default of 42.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.file = _load_config_file(self.args.get("config"))
        self.resolved: dict[str, object] = {}

    def get(self, key: str, default):
        value = self.args.get(key)
        if value is None:
            raw = self.file.get(key)
            value = _coerce(raw, default) if raw is not None else default
        self.resolved[key] = value
        return value

    def seed(self) -> int:
        value = self.args.get("seed")
        if value is None:
            raw = self.file.get("seed") or os.environ.get("APISENTRY_SEED")
            value = int(raw) if raw is not None else 42
        self.resolved["seed"] = value
        return value


def _require_inputs(*paths) -> None:
    missing = [str(p) for p in paths if p and not Path(p).exists()]
    if missing:
        raise FileNotFoundError(f"missing input file(s): {', '.join(missing)}")


def _digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifests(command: str, settings: _Settings, inputs, outputs, t0: float) -> None:
    manifest = {
        "tool": "apisentry",
        "version": __version__,
        "command": command,
        "config": {k: str(v) if isinstance(v, Path) else v
                   for k, v in sorted(settings.resolved.items())},
        "inputs": {str(p): _digest(Path(p)) for p in inputs if p},
        "outputs": {str(p): _digest(Path(p)) for p in outputs if p},
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    for out in outputs:
        if out:
            Path(str(out) + ".manifest.json").write_text(text, encoding="utf-8")


def _load_names(path: str | None) -> dict[int, str] | None:
    if not path:
        return None
    names: dict[int, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        ident, _, name = line.partition(",")
        if not ident.isdigit():
            continue  # header or junk line
        names[int(ident)] = name.strip()
    return names


# --- command implementations --------------------------------------------------


def _cmd_ingest(args, s: _Settings) -> list[Path]:
    fmt = s.get("format", "csv")
    _require_inputs(args.infile)
    corpus = load_corpus(args.infile, format="jsonl" if fmt == "jsonl" else "canonical_csv")
    corpus = canonicalize(corpus, collapse=bool(s.get("collapse", False)),
                          max_len=s.get("max_len", 100))
    save_corpus(corpus, args.out)
    return [Path(args.out)]


def _cmd_adapt(args, s: _Settings) -> list[Path]:
    _require_inputs(args.infile)
    text = Path(args.infile).read_text(encoding="utf-8")
    layout = s.get("layout", "wide")
    vocab = s.get("vocab_size", 0) or None
    if layout == "wide":
        corpus = convert_wide_csv(
            text, label_col=s.get("label_col", "malware"),
            call_prefix=s.get("call_prefix", "t_"),
            id_col=s.get("id_col", "hash"),
            vocabulary_size=vocab)
    elif layout == "seqcol":
        corpus = convert_seq_csv(
            text, seq_col=s.get("seq_col", "calls"),
            delimiter=s.get("delimiter", " "),
            label_col=s.get("label_col", "") or None,
            constant_label=s.get("constant_label", 1),
            id_col=s.get("id_col", "hash"),
            vocabulary_size=vocab)
    else:
        raise CorpusError(f"unknown layout {layout!r}")
    save_corpus(corpus, args.out)
    return [Path(args.out)]


def _cmd_split(args, s: _Settings) -> list[Path]:
    _require_inputs(args.infile)
    corpus = load_corpus(args.infile)
    spec = SplitSpec(
        test_fraction=s.get("test_frac", 0.2),
        seed=derive_seed(s.seed(), "split"),
        stratified=not bool(s.get("no_stratify", False)))
    train_c, test_c = stratified_split(corpus, spec)
    save_corpus(train_c, args.out_train)
    save_corpus(test_c, args.out_test)
    return [Path(args.out_train), Path(args.out_test)]


def _cmd_balance(args, s: _Settings) -> list[Path]:
    _require_inputs(args.infile, args.test_in)
    seed = s.seed()
    corpus = load_corpus(args.infile)
    save_corpus(random_oversample(corpus, derive_seed(seed, "balance-train")), args.out)
    outputs = [Path(args.out)]
    if args.test_in:
        if not args.test_out:
            raise CorpusError("--test-out is required with --test-in")
        test_c = load_corpus(args.test_in)
        if not bool(s.get("skip_test", False)):
            test_c = random_oversample(test_c, derive_seed(seed, "balance-test"))
        save_corpus(test_c, args.test_out)
        outputs.append(Path(args.test_out))
    return outputs


def _cmd_featurize(args, s: _Settings) -> list[Path]:
    _require_inputs(args.infile)
    corpus = load_corpus(args.infile)
    if bool(s.get("fit", False)):
        vocab = build_vocabulary(corpus, min_count=s.get("min_count", 1),
                                 top_k=s.get("top_k", 0) or None)
        save_vocabulary(vocab, args.vocab)
    else:
        _require_inputs(args.vocab)
        vocab = load_vocabulary(args.vocab)
    matrix, labels = corpus_matrix(corpus, vocab)
    save_matrix(matrix, args.out)
    outputs = [Path(args.out)]
    if bool(s.get("fit", False)):
        outputs.append(Path(args.vocab))
    if args.labels_out:
        save_labels(labels, args.labels_out)
        outputs.append(Path(args.labels_out))
    return outputs


def _member_configs(s: _Settings) -> list[GbdtConfig]:
    lam = s.get("reg_lambda", 1.0)
    gam = s.get("gamma", 0.0)
    mch = s.get("min_child_hessian", 1.0)
    out = []
    for cfg in default_bagging_configs():
        out.append(GbdtConfig(
            learning_rate=cfg.learning_rate, max_depth=cfg.max_depth,
            n_estimators=cfg.n_estimators, reg_lambda=lam, gamma=gam,
            min_child_hessian=mch))
    return out


def _cmd_train_detector(args, s: _Settings) -> list[Path]:
    _require_inputs(args.train, args.labels)
    X = load_matrix(args.train)
    labels = load_labels(args.labels)
    if any(y is None for y in labels):
        raise CorpusError("training labels must all be 0 or 1")
    if len(labels) != X.shape[0]:
        raise CorpusError(f"{X.shape[0]} matrix rows but {len(labels)} labels")
    detector = train_bagged(
        X, np.array(labels), configs=_member_configs(s),
        seed=derive_seed(s.seed(), "bootstrap"),
        bootstrap=not bool(s.get("no_bootstrap", False)),
        combine=s.get("vote", "mean"),
        threshold=s.get("threshold", 0.5),
        vocab_ref=s.get("vocab_ref", ""))
    save_detector(detector, args.out)
    return [Path(args.out)]


def _cmd_detect(args, s: _Settings) -> list[Path]:
    _require_inputs(args.model, args.infile)
    detector = load_detector(args.model)
    X = load_matrix(args.infile)
    labels, scores = ensemble_predict_rows(detector, X)
    lines = ["row,label,score"]
    for i, (lab, sc) in enumerate(zip(labels, scores)):
        lines.append(f"{i},{int(lab)},{_fmt(sc)}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [Path(args.out)]


def _cmd_rank_features(args, s: _Settings) -> list[Path]:
    _require_inputs(args.model, args.vocab)
    detector = load_detector(args.model)
    vocab = load_vocabulary(args.vocab)
    if len(vocab) != detector.n_features:
        raise CorpusError(
            f"vocabulary has {len(vocab)} columns, detector expects {detector.n_features}")
    ranked = rank_features(detector, vocab, k=s.get("k", 10))
    lines = ["rank\tngram\timportance"]
    for rank, (ngram, importance) in enumerate(ranked, start=1):
        ids = ",".join(str(i) for i in ngram)
        lines.append(f"{rank}\t[{ids}]\t{_fmt(importance)}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        return [Path(args.out)]
    return []


def _cmd_train_predictor(args, s: _Settings) -> list[Path]:
    _require_inputs(args.infile)
    corpus = load_corpus(args.infile)
    vocab_size = s.get("vocab_size", 0) or corpus.vocabulary_size
    trace_cap = s.get("trace_cap", 0)
    samples = []
    for trace in corpus.traces:
        calls = trace.calls[-trace_cap:] if trace_cap else trace.calls
        if max(calls) >= vocab_size:
            raise CorpusError(
                f"trace {trace.id} has call id >= vocab size {vocab_size}")
        samples.extend(prefix_samples(calls))
    config = BiLstmConfig(
        vocab_size=vocab_size,
        embed_dim=s.get("embed", 64),
        hidden=s.get("hidden", 150),
        dropout_rate=s.get("dropout", 0.3),
        learning_rate=s.get("lr", 0.01),
        batch_size=s.get("batch_size", 128),
        max_epochs=s.get("max_epochs", 50),
        patience=s.get("patience", 3),
        val_fraction=s.get("val_frac", 0.1),
        max_prefix_len=s.get("max_prefix_len", 99),
        seed=derive_seed(s.seed(), "predictor"))
    model, report = train(samples, config)
    save_model(model, args.out)
    outputs = [Path(args.out)]
    if args.curves:
        save_curves(report, args.curves)
        outputs.append(Path(args.curves))
    return outputs


def _cmd_predict_next(args, s: _Settings) -> list[Path]:
    _require_inputs(args.model)
    model = load_model(args.model)
    try:
        seq = [int(tok) for tok in args.seq.split(",") if tok.strip()]
    except ValueError:
        raise CorpusError(f"--seq must be comma-separated integers, got {args.seq!r}")
    if not seq:
        raise CorpusError("--seq is empty")
    if min(seq) < 0 or max(seq) >= model.config.vocab_size:
        raise CorpusError(f"sequence ids must be in [0, {model.config.vocab_size})")
    preds = predict_next_k(model, seq, k=s.get("k", 1))
    sys.stdout.write(",".join(str(p) for p in preds) + "\n")
    return []


def _read_predictions_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    labels, scores = [], []
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        if not line.strip():
            continue
        _, label, score = line.split(",")
        labels.append(int(label))
        scores.append(float(score))
    return np.array(labels, dtype=np.int64), np.array(scores)


def _read_int_lines(path: Path) -> np.ndarray:
    return np.array([int(tok) for tok in path.read_text(encoding="utf-8").split()],
                    dtype=np.int64)


def _cmd_evaluate(args, s: _Settings) -> list[Path]:
    _require_inputs(args.pred, args.truth, args.scores, args.names, args.corpus)
    task = s.get("task", "detect")
    report: dict[str, object]
    if task == "detect":
        preds, scores = _read_predictions_csv(Path(args.pred))
        truths = _read_int_lines(Path(args.truth))
        cm = confusion(preds, truths, 2)
        m = binary_metrics(cm)
        score_col = scores
        if args.scores:
            score_col = np.array([float(t) for t in
                                  Path(args.scores).read_text().split()])
        if len(score_col) != len(truths):
            raise CorpusError(f"{args.scores or args.pred} has {len(score_col)} scores "
                              f"but {args.truth} has {len(truths)} truths")
        stacked = np.stack([1.0 - score_col, score_col], axis=1)
        auc_pos = roc_auc_per_label(stacked, truths, 2).per_label_auc[1]
        report = {
            "task": "detect", "n_samples": int(cm.total()),
            "accuracy": m.accuracy, "precision": m.precision,
            "recall": m.recall, "f1": m.f1, "averaging": m.averaging,
            "degenerate": m.degenerate,
            "support": {str(k): v for k, v in sorted(m.support.items())},
            "auc_positive": auc_pos,
        }
    elif task == "next-call":
        preds = _read_int_lines(Path(args.pred))
        truths = _read_int_lines(Path(args.truth))
        scores = None
        if args.scores:
            scores = np.array(
                [[float(tok) for tok in line.split(",")]
                 for line in Path(args.scores).read_text(encoding="utf-8").splitlines()
                 if line.strip()])
        n_labels = int(max(preds.max(), truths.max())) + 1 if len(preds) else 1
        if scores is not None:
            n_labels = max(n_labels, scores.shape[1])
            pad = n_labels - scores.shape[1]
            if pad:
                scores = np.hstack([scores, np.zeros((scores.shape[0], pad))])
        m = weighted_metrics(preds, truths, n_labels)
        report = {
            "task": "next-call", "n_samples": int(len(truths)),
            "accuracy": m.accuracy, "precision": m.precision,
            "recall": m.recall, "f1": m.f1, "averaging": m.averaging,
            "degenerate": m.degenerate,
        }
        if scores is not None:
            auc = roc_auc_per_label(scores, truths, n_labels)
            report["auc_per_label"] = {
                str(lab): value for lab, value in sorted(auc.per_label_auc.items())}
            if args.corpus:
                corpus = load_corpus(args.corpus)
                rare = rare_label_report(
                    corpus, auc,
                    freq_threshold=s.get("rare_threshold", 0) or None,
                    names=_load_names(args.names))
                report["rare_labels"] = [
                    {"label": r.label, "name": r.name, "frequency": r.frequency,
                     "auc": r.auc} for r in rare]
    else:
        raise CorpusError(f"unknown evaluate task {task!r}")
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    return [Path(args.out)]


def _cmd_reproduce(args, s: _Settings) -> list[Path]:
    from .reproduce import run_reproduction

    _require_inputs(args.dataset1, args.dataset2)
    return run_reproduction(
        dataset1=args.dataset1, dataset2=args.dataset2,
        outdir=Path(args.outdir), seed=s.seed(),
        top_k_features=s.get("top_k", 4000),
        seq_traces=s.get("seq_traces", 2000),
        quick=bool(s.get("quick", False)))


# --- parser -------------------------------------------------------------------


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="flat key=value settings file")
    p.add_argument("--seed", type=int, help="task seed (default 42; APISENTRY_SEED respected)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="apisentry", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"apisentry {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse, canonicalize and rewrite a corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=["csv", "jsonl"])
    p.add_argument("--collapse", action="store_true", default=None,
                   help="drop consecutive repeated calls")
    p.add_argument("--max-len", dest="max_len", type=int, help="prefix cap (default 100)")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("adapt", help="convert an upstream dataset file to canonical CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layout", choices=["wide", "seqcol"])
    p.add_argument("--label-col", dest="label_col")
    p.add_argument("--call-prefix", dest="call_prefix")
    p.add_argument("--id-col", dest="id_col")
    p.add_argument("--seq-col", dest="seq_col")
    p.add_argument("--delimiter", dest="delimiter")
    p.add_argument("--constant-label", dest="constant_label", type=int)
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    _add_common(p)

    p = sub.add_parser("split", help="stratified train/test split")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-train", dest="out_train", required=True)
    p.add_argument("--out-test", dest="out_test", required=True)
    p.add_argument("--test-frac", dest="test_frac", type=float)
    p.add_argument("--no-stratify", dest="no_stratify", action="store_true", default=None)
    _add_common(p)

    p = sub.add_parser("balance", help="random-oversample the minority class")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--test-in", dest="test_in")
    p.add_argument("--test-out", dest="test_out")
    p.add_argument("--skip-test", dest="skip_test", action="store_true", default=None,
                   help="copy the test corpus through unbalanced")
    _add_common(p)

    p = sub.add_parser("featurize", help="build/apply an n-gram vocabulary and vectorize")
    p.add_argument("--vocab", required=True, help="vocabulary file (written with --fit)")
    p.add_argument("--fit", action="store_true", default=None,
                   help="build the vocabulary from this corpus")
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="sparse count-matrix file")
    p.add_argument("--labels-out", dest="labels_out")
    _add_common(p)

    p = sub.add_parser("train-detector", help="train the 3-member boosted-tree ensemble")
    p.add_argument("--train", required=True, help="count-matrix file")
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vote", choices=["mean", "majority"])
    p.add_argument("--threshold", type=float)
    p.add_argument("--no-bootstrap", dest="no_bootstrap", action="store_true", default=None)
    p.add_argument("--reg-lambda", dest="reg_lambda", type=float)
    p.add_argument("--gamma", dest="gamma", type=float)
    p.add_argument("--min-child-hessian", dest="min_child_hessian", type=float)
    p.add_argument("--vocab-ref", dest="vocab_ref")
    _add_common(p)

    p = sub.add_parser("detect", help="score feature vectors with a trained detector")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("rank-features", help="top n-grams by gain importance")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("-k", dest="k", type=int)
    p.add_argument("--out")
    _add_common(p)

    p = sub.add_parser("train-predictor", help="train the next-call sequence model")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--embed", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--val-frac", dest="val_frac", type=float)
    p.add_argument("--max-prefix-len", dest="max_prefix_len", type=int)
    p.add_argument("--trace-cap", dest="trace_cap", type=int,
                   help="keep only each trace's last N calls (0 disables)")
    p.add_argument("--curves", help="write per-epoch loss curves CSV here")
    _add_common(p)

    p = sub.add_parser("predict-next", help="predict the next k calls for a sequence")
    p.add_argument("--model", required=True)
    p.add_argument("--seq", required=True, help="comma-separated call ids")
    p.add_argument("-k", dest="k", type=int)
    _add_common(p)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--task", choices=["detect", "next-call"])
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--scores")
    p.add_argument("--names", help="id,name CSV for display")
    p.add_argument("--corpus", help="corpus for rare-label frequencies")
    p.add_argument("--rare-threshold", dest="rare_threshold", type=int)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("reproduce", help="run both reference pipelines and compare "
                                         "against the bundled target metrics")
    p.add_argument("--dataset1", help="canonical CSV for the detection corpus (vocab 307)")
    p.add_argument("--dataset2", help="canonical CSV for the malware-families corpus (vocab 342)")
    p.add_argument("--outdir", required=True)
    p.add_argument("--top-k", dest="top_k", type=int,
                   help="feature cap for the detector (default 4000)")
    p.add_argument("--seq-traces", dest="seq_traces", type=int,
                   help="trace cap for the sequence model (0 = all; default 2000)")
    p.add_argument("--quick", action="store_true", default=None,
                   help="smaller models for a fast sanity pass")
    _add_common(p)

    return parser


_COMMANDS = {
    "ingest": _cmd_ingest,
    "adapt": _cmd_adapt,
    "split": _cmd_split,
    "balance": _cmd_balance,
    "featurize": _cmd_featurize,
    "train-detector": _cmd_train_detector,
    "detect": _cmd_detect,
    "rank-features": _cmd_rank_features,
    "train-predictor": _cmd_train_predictor,
    "predict-next": _cmd_predict_next,
    "evaluate": _cmd_evaluate,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    t0 = time.monotonic()
    settings = _Settings(args)
    try:
        result = _COMMANDS[args.command](args, settings)
    except (CorpusError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"apisentry: error: {exc}\n")
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    if isinstance(result, int):
        return result
    inputs = [args.__dict__.get(k) for k in
              ("infile", "train", "labels", "model", "vocab", "pred", "truth",
               "scores", "names", "corpus", "test_in", "config")]
    _write_manifests(args.command, settings, [p for p in inputs if p], result, t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
