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
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    CorpusError,
    SplitSpec,
    _LineReader,
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


_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}
_MAX_DECODE = 1000  # predict-next -k: each decoded call is one B=1 model pass


def _config_flags(path: str, commands: dict[str, _Parser], command: str) -> list[str]:
    """The flags of `command` that a --config file stands for. Each
    `key=value` line names an option dest; keys that only other commands
    have are skipped, so one file can serve a whole pipeline."""
    parser = commands[command]
    actions = {a.dest: a for a in parser._actions}
    try:
        reader = _LineReader(path)
    except (OSError, ValueError) as exc:
        parser.error(f"--config: {exc}")
    flags = []
    for line in reader:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        where = f"{path}: line {reader.pos}"
        if not eq:
            parser.error(f"{where}: expected key=value")
        if key in ("config", "help"):
            parser.error(f"{where}: {key!r} cannot be set from a config file")
        if key not in actions:
            if any(key in (a.dest for a in p._actions) for p in commands.values()):
                continue
            parser.error(f"{where}: unknown key {key!r}")
        option = actions[key].option_strings[-1]
        if actions[key].nargs == 0:
            if value.lower() not in _SWITCH_VALUES:
                parser.error(f"{where}: {key} must be one of "
                             f"{'/'.join(_SWITCH_VALUES)}, got {value!r}")
            if _SWITCH_VALUES[value.lower()]:
                flags.append(option)
        else:
            flags.append(f"{option}={value}" if option.startswith("--") else option + value)
    return flags


def _count(text: str, low: int = 0, high: int | None = None) -> int:
    """argparse type of count options: an integer from `low` to `high`, if given."""
    if not text.isdecimal() or int(text) < low or (high is not None and int(text) > high):
        what = "a non-negative integer" if high is None else f"an integer from {low} to {high}"
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return int(text)


class _InFile(str):
    """argparse type of options that name a file the command may read; the
    manifest digests each one that is not also an output."""


def _require_inputs(*paths) -> None:
    missing = [str(p) for p in paths if p and not Path(p).exists()]
    if missing:
        raise FileNotFoundError(f"missing input file(s): {', '.join(missing)}")


def _digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifests(command: str, config: dict, inputs, outputs, t0: float) -> None:
    manifest = {
        "tool": "apisentry",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): _digest(Path(p)) for p in inputs},
        "outputs": {str(p): _digest(Path(p)) for p in outputs},
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    for out in outputs:
        Path(str(out) + ".manifest.json").write_text(text, encoding="utf-8")


def _load_names(path: str | None) -> dict[int, str] | None:
    if not path:
        return None
    # a line that does not start with a number is a header, blank or junk
    rows = (line.strip().partition(",") for line in _LineReader(path))
    return {int(ident): name.strip() for ident, _, name in rows if ident.isdecimal()}


# --- command implementations --------------------------------------------------


def _cmd_ingest(args) -> list[Path]:
    _require_inputs(args.infile)
    corpus = load_corpus(args.infile,
                         format="jsonl" if args.format == "jsonl" else "canonical_csv")
    corpus = canonicalize(corpus, collapse=args.collapse, max_len=args.max_len)
    save_corpus(corpus, args.out)
    return [Path(args.out)]


def _cmd_adapt(args) -> list[Path]:
    _require_inputs(args.infile)
    reader = _LineReader(args.infile)
    vocab = args.vocab_size or None
    if args.layout == "wide":
        corpus = convert_wide_csv(
            reader, label_col="malware" if args.label_col is None else args.label_col,
            call_prefix=args.call_prefix, id_col=args.id_col, vocabulary_size=vocab)
    else:
        corpus = convert_seq_csv(
            reader, seq_col=args.seq_col, delimiter=args.delimiter,
            label_col=args.label_col or None, constant_label=args.constant_label,
            id_col=args.id_col, vocabulary_size=vocab)
    save_corpus(corpus, args.out)
    return [Path(args.out)]


def _cmd_split(args) -> list[Path]:
    _require_inputs(args.infile)
    corpus = load_corpus(args.infile)
    spec = SplitSpec(test_fraction=args.test_frac, seed=derive_seed(args.seed, "split"),
                     stratified=not args.no_stratify)
    train_c, test_c = stratified_split(corpus, spec)
    save_corpus(train_c, args.out_train)
    save_corpus(test_c, args.out_test)
    return [Path(args.out_train), Path(args.out_test)]


def _cmd_balance(args) -> list[Path]:
    _require_inputs(args.infile, args.test_in)
    corpus = load_corpus(args.infile)
    save_corpus(random_oversample(corpus, derive_seed(args.seed, "balance-train")), args.out)
    outputs = [Path(args.out)]
    if args.test_in:
        if not args.test_out:
            raise CorpusError("--test-out is required with --test-in")
        test_c = load_corpus(args.test_in)
        if not args.skip_test:
            test_c = random_oversample(test_c, derive_seed(args.seed, "balance-test"))
        save_corpus(test_c, args.test_out)
        outputs.append(Path(args.test_out))
    return outputs


def _cmd_featurize(args) -> list[Path]:
    _require_inputs(args.infile)
    corpus = load_corpus(args.infile)
    if args.fit:
        vocab = build_vocabulary(corpus, min_count=args.min_count, top_k=args.top_k or None)
        save_vocabulary(vocab, args.vocab)
    else:
        _require_inputs(args.vocab)
        vocab = load_vocabulary(args.vocab)
    matrix, labels = corpus_matrix(corpus, vocab)
    save_matrix(matrix, args.out)
    outputs = [Path(args.out)]
    if args.fit:
        outputs.append(Path(args.vocab))
    if args.labels_out:
        save_labels(labels, args.labels_out)
        outputs.append(Path(args.labels_out))
    return outputs


def _member_configs(args) -> list[GbdtConfig]:
    return [replace(cfg, reg_lambda=args.reg_lambda, gamma=args.gamma,
                    min_child_hessian=args.min_child_hessian)
            for cfg in default_bagging_configs()]


def _cmd_train_detector(args) -> list[Path]:
    _require_inputs(args.train, args.labels)
    X = load_matrix(args.train)
    labels = load_labels(args.labels)
    if any(y is None for y in labels):
        raise CorpusError("training labels must all be 0 or 1")
    if len(labels) != X.shape[0]:
        raise CorpusError(f"{X.shape[0]} matrix rows but {len(labels)} labels")
    detector = train_bagged(
        X, np.array(labels), configs=_member_configs(args),
        seed=derive_seed(args.seed, "bootstrap"), bootstrap=not args.no_bootstrap,
        combine=args.vote, threshold=args.threshold, vocab_ref=args.vocab_ref)
    save_detector(detector, args.out)
    return [Path(args.out)]


def _cmd_detect(args) -> list[Path]:
    _require_inputs(args.model, args.infile)
    detector = load_detector(args.model)
    X = load_matrix(args.infile)
    labels, scores = ensemble_predict_rows(detector, X)
    lines = ["row,label,score"]
    for i, (lab, sc) in enumerate(zip(labels, scores)):
        lines.append(f"{i},{int(lab)},{_fmt(sc)}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [Path(args.out)]


def _cmd_rank_features(args) -> list[Path]:
    _require_inputs(args.model, args.vocab)
    detector = load_detector(args.model)
    vocab = load_vocabulary(args.vocab)
    if len(vocab) != detector.n_features:
        raise CorpusError(
            f"vocabulary has {len(vocab)} columns, detector expects {detector.n_features}")
    ranked = rank_features(detector, vocab, k=args.k)
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


def _cmd_train_predictor(args) -> list[Path]:
    _require_inputs(args.infile)
    corpus = load_corpus(args.infile)
    vocab_size = args.vocab_size or corpus.vocabulary_size
    samples = []
    for trace in corpus.traces:
        calls = trace.calls[-args.trace_cap:] if args.trace_cap else trace.calls
        if max(calls) >= vocab_size:
            raise CorpusError(
                f"trace {trace.id} has call id >= vocab size {vocab_size}")
        samples.extend(prefix_samples(calls))
    config = BiLstmConfig(
        vocab_size=vocab_size, embed_dim=args.embed, hidden=args.hidden,
        dropout_rate=args.dropout, learning_rate=args.lr, batch_size=args.batch_size,
        max_epochs=args.max_epochs, patience=args.patience, val_fraction=args.val_frac,
        max_prefix_len=args.max_prefix_len, seed=derive_seed(args.seed, "predictor"))
    model, report = train(samples, config)
    save_model(model, args.out)
    outputs = [Path(args.out)]
    if args.curves:
        save_curves(report, args.curves)
        outputs.append(Path(args.curves))
    return outputs


def _cmd_predict_next(args) -> list[Path]:
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
    preds = predict_next_k(model, seq, k=args.k)
    sys.stdout.write(",".join(str(p) for p in preds) + "\n")
    return []


def _read_predictions_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    labels, scores = [], []
    with _LineReader(path) as reader:
        reader.next()  # the row,label,score header
        for line in reader:
            if line.strip():
                _, label, score = line.split(",")
                labels.append(int(label))
                scores.append(float(score))
    return np.array(labels, dtype=np.int64), np.array(scores)


def _read_numbers(path: Path, kind=int) -> np.ndarray:
    """Every whitespace-separated number in the file, read as `kind`."""
    with _LineReader(path) as reader:
        return np.array([kind(tok) for line in reader for tok in line.split()],
                        dtype=np.int64 if kind is int else np.float64)


def _read_score_rows(path: Path) -> np.ndarray:
    """Comma-separated scores, a row per non-blank line, all as long as the first."""
    rows: list[list[float]] = []
    with _LineReader(path) as reader:
        for line in reader:
            if line.strip():
                rows.append([float(tok) for tok in line.split(",")])
                if len(rows[-1]) != len(rows[0]):
                    raise ValueError(f"expected {len(rows[0])} scores, got {len(rows[-1])}")
        if not rows:
            raise ValueError("no score rows")
    return np.array(rows)


def _cmd_evaluate(args) -> list[Path]:
    _require_inputs(args.pred, args.truth, args.scores, args.names, args.corpus)
    report: dict[str, object]
    if args.task == "detect":
        preds, scores = _read_predictions_csv(Path(args.pred))
        truths = _read_numbers(Path(args.truth))
        cm = confusion(preds, truths, 2)
        m = binary_metrics(cm)
        score_col = _read_numbers(Path(args.scores), float) if args.scores else scores
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
    else:
        preds = _read_numbers(Path(args.pred))
        truths = _read_numbers(Path(args.truth))
        scores = None
        if args.scores:
            scores = _read_score_rows(Path(args.scores))
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
                    freq_threshold=args.rare_threshold or None,
                    names=_load_names(args.names))
                report["rare_labels"] = [
                    {"label": r.label, "name": r.name, "frequency": r.frequency,
                     "auc": r.auc} for r in rare]
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    return [Path(args.out)]


def _cmd_reproduce(args) -> list[Path]:
    from .reproduce import run_reproduction

    _require_inputs(args.dataset1, args.dataset2)
    return run_reproduction(
        dataset1=args.dataset1, dataset2=args.dataset2, outdir=Path(args.outdir),
        seed=args.seed, top_k_features=args.top_k, seq_traces=args.seq_traces,
        quick=args.quick)


# --- parser -------------------------------------------------------------------


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", type=_InFile,
                   help="flat key=value file of option dests; flags given here win")
    p.add_argument("--seed", type=int, default=os.environ.get("APISENTRY_SEED", 42),
                   help="task seed (default %(default)s, taken from APISENTRY_SEED if set)")


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="apisentry", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"apisentry {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse, canonicalize and rewrite a corpus")
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--collapse", action="store_true", help="drop consecutive repeated calls")
    p.add_argument("--max-len", dest="max_len", type=int, default=100,
                   help="prefix cap (default %(default)s)")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("adapt", help="convert an upstream dataset file to canonical CSV")
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layout", choices=["wide", "seqcol"], default="wide")
    p.add_argument("--label-col", dest="label_col",
                   help="label column (default: malware for wide, none for seqcol)")
    p.add_argument("--call-prefix", dest="call_prefix", default="t_")
    p.add_argument("--id-col", dest="id_col", default="hash")
    p.add_argument("--seq-col", dest="seq_col", default="calls")
    p.add_argument("--delimiter", dest="delimiter", default=" ")
    p.add_argument("--constant-label", dest="constant_label", type=int, default=1)
    p.add_argument("--vocab-size", dest="vocab_size", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("split", help="stratified train/test split")
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--out-train", dest="out_train", required=True)
    p.add_argument("--out-test", dest="out_test", required=True)
    p.add_argument("--test-frac", dest="test_frac", type=float, default=0.2)
    p.add_argument("--no-stratify", dest="no_stratify", action="store_true")
    _add_common(p)

    p = sub.add_parser("balance", help="random-oversample the minority class")
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--test-in", dest="test_in", type=_InFile)
    p.add_argument("--test-out", dest="test_out")
    p.add_argument("--skip-test", dest="skip_test", action="store_true",
                   help="copy the test corpus through unbalanced")
    _add_common(p)

    p = sub.add_parser("featurize", help="build/apply an n-gram vocabulary and vectorize")
    p.add_argument("--vocab", type=_InFile, required=True,
                   help="vocabulary file (written with --fit)")
    p.add_argument("--fit", action="store_true", help="build the vocabulary from this corpus")
    p.add_argument("--min-count", dest="min_count", type=_count, default=1)
    p.add_argument("--top-k", dest="top_k", type=_count, default=0)
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--out", required=True, help="sparse count-matrix file")
    p.add_argument("--labels-out", dest="labels_out")
    _add_common(p)

    p = sub.add_parser("train-detector", help="train the 3-member boosted-tree ensemble")
    p.add_argument("--train", type=_InFile, required=True, help="count-matrix file")
    p.add_argument("--labels", type=_InFile, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vote", choices=["mean", "majority"], default="mean")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--no-bootstrap", dest="no_bootstrap", action="store_true")
    p.add_argument("--reg-lambda", dest="reg_lambda", type=float, default=1.0)
    p.add_argument("--gamma", dest="gamma", type=float, default=0.0)
    p.add_argument("--min-child-hessian", dest="min_child_hessian", type=float, default=1.0)
    p.add_argument("--vocab-ref", dest="vocab_ref", default="")
    _add_common(p)

    p = sub.add_parser("detect", help="score feature vectors with a trained detector")
    p.add_argument("--model", type=_InFile, required=True)
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("rank-features", help="top n-grams by gain importance")
    p.add_argument("--model", type=_InFile, required=True)
    p.add_argument("--vocab", type=_InFile, required=True)
    p.add_argument("-k", dest="k", type=_count, default=10)
    p.add_argument("--out")
    _add_common(p)

    p = sub.add_parser("train-predictor", help="train the next-call sequence model")
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--vocab-size", dest="vocab_size", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--embed", type=int, default=64)
    p.add_argument("--hidden", type=int, default=150)
    p.add_argument("--dropout", type=float, default=0.3)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=128)
    p.add_argument("--max-epochs", dest="max_epochs", type=int, default=50)
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--val-frac", dest="val_frac", type=float, default=0.1)
    p.add_argument("--max-prefix-len", dest="max_prefix_len", type=int, default=99)
    p.add_argument("--trace-cap", dest="trace_cap", type=_count, default=0,
                   help="keep only each trace's last N calls (0 disables)")
    p.add_argument("--curves", help="write per-epoch loss curves CSV here")
    _add_common(p)

    p = sub.add_parser("predict-next", help="predict the next k calls for a sequence")
    p.add_argument("--model", type=_InFile, required=True)
    p.add_argument("--seq", required=True, help="comma-separated call ids")
    p.add_argument("-k", dest="k", type=partial(_count, low=1, high=_MAX_DECODE), default=1,
                   help=f"calls to decode, 1 to {_MAX_DECODE} (default %(default)s)")
    _add_common(p)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--task", choices=["detect", "next-call"], default="detect")
    p.add_argument("--pred", type=_InFile, required=True)
    p.add_argument("--truth", type=_InFile, required=True)
    p.add_argument("--scores", type=_InFile)
    p.add_argument("--names", type=_InFile, help="id,name CSV for display")
    p.add_argument("--corpus", type=_InFile, help="corpus for rare-label frequencies")
    p.add_argument("--rare-threshold", dest="rare_threshold", type=_count, default=0)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("reproduce", help="run both reference pipelines and compare "
                                         "against the bundled target metrics")
    p.add_argument("--dataset1", type=_InFile,
                   help="canonical CSV for the detection corpus (vocab 307)")
    p.add_argument("--dataset2", type=_InFile,
                   help="canonical CSV for the malware-families corpus (vocab 342)")
    p.add_argument("--outdir", required=True)
    p.add_argument("--top-k", dest="top_k", type=_count, default=4000,
                   help="feature cap for the detector (0 = no cap; default %(default)s)")
    p.add_argument("--seq-traces", dest="seq_traces", type=_count, default=2000,
                   help="trace cap for the sequence model (0 = all; default %(default)s)")
    p.add_argument("--quick", action="store_true",
                   help="smaller models for a fast sanity pass")
    _add_common(p)

    return parser, sub.choices


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
    argv = sys.argv[1:] if argv is None else [str(a) for a in argv]
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command and args.config:
            # file settings go in front of the flags, so explicit flags win
            flags = _config_flags(args.config, commands, args.command)
            try:
                args = parser.parse_args(argv[:1] + flags + argv[1:])
            except SystemExit:
                sys.stderr.write(f"apisentry: the rejected value is from {args.config}\n")
                raise
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    t0 = time.monotonic()
    try:
        result = _COMMANDS[args.command](args)
    except (CorpusError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"apisentry: error: {exc}\n")
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    config = {k: v for k, v in vars(args).items() if k != "command"}
    inputs = [v for v in config.values() if isinstance(v, _InFile) and Path(v) not in result]
    _write_manifests(args.command, config, inputs, result, t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
