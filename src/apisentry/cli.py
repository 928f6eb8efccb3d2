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
    _call_ids,
    _float,
    _int,
    _parse_label,
    canonicalize,
    convert_seq_csv,
    convert_wide_csv,
    load_corpus,
    random_oversample,
    save_corpus,
    stratified_split,
)
from .gbdt import (
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
    _format_rows,
    build_vocabulary,
    corpus_matrix,
    load_labels,
    load_matrix,
    load_vocabulary,
    save_labels,
    save_matrix,
    save_vocabulary,
    trace_samples,
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
    try:
        value = _int(text)
        if value < low or (high is not None and value > high):
            raise ValueError
    except ValueError:
        what = "a non-negative integer" if high is None else f"an integer from {low} to {high}"
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
    return value


# argparse types of the other numeric options and of labels, named in
# argparse's refusals
_INT, _FLOAT, _LABEL = partial(_int), partial(_float), partial(_parse_label)
_INT.__name__, _FLOAT.__name__, _LABEL.__name__ = "int", "float", "label"


class _InFile(str):
    """argparse type of options that name a file the command may read; the
    manifest digests each one."""


class _OutFile(str):
    """argparse type of options that name a file the command writes; the
    manifest lists each one, and `main` checks them before the command starts."""


def _require_outputs(outputs: list[Path], inputs: list[str]) -> None:
    """Refuse a missing output directory, an output that is a directory, and
    an output that resolves to an input or to another output."""
    missing = sorted({str(p.parent) for p in outputs if not p.parent.is_dir()})
    if missing:
        raise NotADirectoryError(f"missing output directory(ies): {', '.join(missing)}")
    directories = [str(p) for p in outputs if p.is_dir()]
    if directories:
        raise IsADirectoryError(f"output is a directory: {', '.join(directories)}")
    named = dict.fromkeys((Path(p).resolve() for p in inputs), "an input")
    for p in outputs:
        if p.resolve() in named:
            raise ValueError(f"output {p} is also {named[p.resolve()]}")
        named[p.resolve()] = "another output"


def _digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifests(command: str, config: dict, inputs, outputs) -> None:
    manifest = {
        "tool": "apisentry",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): _digest(Path(p)) for p in inputs},
        "outputs": {str(p): _digest(Path(p)) for p in outputs},
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    for out in outputs:
        Path(str(out) + ".manifest.json").write_text(text, encoding="utf-8")


def _load_names(path: str | None) -> dict[int, str] | None:
    """`id,name` per non-blank line; the first may be a header instead."""
    if not path:
        return None
    names = {}
    with _LineReader(path) as reader:
        for n, line in enumerate(filter(str.strip, reader)):
            ident, _, name = line.strip().partition(",")
            try:
                names[_int(ident)] = name.strip()
            except ValueError:
                if n:
                    raise
    return names


# --- command implementations --------------------------------------------------


def _cmd_ingest(args) -> None:
    corpus = load_corpus(args.infile,
                         format="jsonl" if args.format == "jsonl" else "canonical_csv")
    corpus = canonicalize(corpus, collapse=args.collapse, max_len=args.max_len)
    save_corpus(corpus, args.out)


def _cmd_adapt(args) -> None:
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


def _cmd_split(args) -> None:
    corpus = load_corpus(args.infile)
    spec = SplitSpec(test_fraction=args.test_frac, seed=derive_seed(args.seed, "split"),
                     stratified=not args.no_stratify)
    train_c, test_c = stratified_split(corpus, spec)
    save_corpus(train_c, args.out_train)
    save_corpus(test_c, args.out_test)


def _cmd_balance(args) -> None:
    if bool(args.test_in) != bool(args.test_out):
        raise CorpusError("--test-out is required with --test-in" if args.test_in
                          else "--test-in is required with --test-out")
    corpus = load_corpus(args.infile)
    test_c = load_corpus(args.test_in) if args.test_in else None  # both load before a save
    save_corpus(random_oversample(corpus, derive_seed(args.seed, "balance-train")), args.out)
    if test_c is not None:
        if not args.skip_test:
            test_c = random_oversample(test_c, derive_seed(args.seed, "balance-test"))
        save_corpus(test_c, args.test_out)


def _cmd_featurize(args) -> None:
    corpus = load_corpus(args.infile)
    if args.fit:
        vocab = build_vocabulary(corpus, min_count=args.min_count, top_k=args.top_k or None)
        save_vocabulary(vocab, args.vocab)
    else:
        vocab = load_vocabulary(args.vocab)
    matrix, labels = corpus_matrix(corpus, vocab)
    save_matrix(matrix, args.out)
    if args.labels_out:
        save_labels(labels, args.labels_out)


def _cmd_train_detector(args) -> None:
    X = load_matrix(args.train)
    labels = load_labels(args.labels)
    configs = [replace(cfg, reg_lambda=args.reg_lambda, gamma=args.gamma,
                       min_child_hessian=args.min_child_hessian)
               for cfg in default_bagging_configs()]
    detector = train_bagged(
        X, labels, configs=configs,
        seed=derive_seed(args.seed, "bootstrap"), bootstrap=not args.no_bootstrap,
        combine=args.vote, threshold=args.threshold, vocab_ref=args.vocab_ref)
    save_detector(detector, args.out)


def _cmd_detect(args) -> None:
    detector = load_detector(args.model)
    X = load_matrix(args.infile)
    labels, scores = ensemble_predict_rows(detector, X)
    lines = ["row,label,score"] + _format_rows(
        "%d,%d,%.17g", zip(range(len(labels)), labels.tolist(), scores.tolist()))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_rank_features(args) -> None:
    detector = load_detector(args.model)
    ranked = rank_features(detector, load_vocabulary(args.vocab), k=args.k)
    lines = ["rank\tngram\timportance"] + _format_rows("%d\t[%s]\t%.17g", (
        (rank, ",".join(map(str, ngram)), gain) for rank, (ngram, gain) in enumerate(ranked, 1)))
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")


def _cmd_train_predictor(args) -> None:
    corpus = load_corpus(args.infile)
    vocab_size = args.vocab_size or corpus.vocabulary_size
    samples = trace_samples(corpus.traces, args.trace_cap, vocab_size)
    config = BiLstmConfig(
        vocab_size=vocab_size, embed_dim=args.embed, hidden=args.hidden,
        dropout_rate=args.dropout, learning_rate=args.lr, batch_size=args.batch_size,
        max_epochs=args.max_epochs, patience=args.patience, val_fraction=args.val_frac,
        max_prefix_len=args.max_prefix_len, seed=derive_seed(args.seed, "predictor"))
    model, report = train(samples, config)
    save_model(model, args.out)
    if args.curves:
        save_curves(report, args.curves)


def _cmd_predict_next(args) -> None:
    model = load_model(args.model)
    try:
        seq = _call_ids([tok for tok in args.seq.split(",") if tok.strip()], args.seq)
    except CorpusError as exc:
        raise CorpusError(f"--seq {args.seq!r}: {exc}") from None
    preds = predict_next_k(model, seq, k=args.k)
    sys.stdout.write(",".join(str(p) for p in preds) + "\n")


def _read_predictions_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Labels and scores under a `row,label,score` header: rows 0, 1, 2, ...
    in order, each with a label of 0 or 1 and a finite score."""
    with _LineReader(path) as reader:
        if reader.next() != "row,label,score":
            raise ValueError("expected the header 'row,label,score'")
        table = reader.table(1, [("row", int), ("label", int), ("score", float)], ",",
                             what="'row,label,score'")[:, 0]
        reader.refuse(table["row"] == np.arange(len(table)), "row {0[row]} out of order")
        reader.refuse(np.isin(table["label"], (0, 1)), "label {0[label]} is not 0 or 1")
        reader.refuse(np.isfinite(table["score"]), "score {0[score]} is not finite")
    return table["label"], table["score"]


def _read_numbers(path: Path, kind=int, rule=None) -> np.ndarray:
    """One finite number per non-blank line, read as `kind`; each passing
    `rule`, a (test, refusal) pair, if given."""
    with _LineReader(path) as reader:
        numbers = reader.table(1, kind, what="one number per line")[:, 0]
        reader.refuse(np.isfinite(numbers), "{} is not finite")
        if rule:
            reader.refuse(rule[0](numbers), rule[1])
    return numbers


def _read_score_rows(path: Path) -> np.ndarray:
    """Comma-separated finite scores, a row per non-blank line, all as long as the first."""
    with _LineReader(path) as reader:
        first = next(filter(str.strip, reader.lines), None)
        if first is None:
            raise ValueError("no score rows")
        width = first.count(",") + 1
        scores = reader.table(width, float, ",", what=f"{width} scores")
        reader.refuse(np.isfinite(scores).all(1), "a score row holds a number that is not finite")
    return scores


def _cmd_evaluate(args) -> None:
    # every input is read, so a missing one is named, before an option is refused or a file written
    corpus = load_corpus(args.corpus) if args.corpus else None
    names = _load_names(args.names)
    report: dict[str, object]
    if args.task == "detect":
        preds, scores = _read_predictions_csv(Path(args.pred))
        truths = load_labels(args.truth)
        scores = _read_numbers(Path(args.scores), float) if args.scores else scores
    else:
        rule = (lambda v: v >= 0, "call id {} is negative")
        preds, truths = (_read_numbers(Path(path), rule=rule) for path in (args.pred, args.truth))
        scores = _read_score_rows(Path(args.scores)) if args.scores else None
    for path, what, items in ((args.pred, "predictions", preds),
                              (args.scores or args.pred, "scores", scores)):
        if items is not None and len(items) != len(truths):
            raise CorpusError(f"{path} has {len(items)} {what} "
                              f"but {args.truth} has {len(truths)} truths")
    if args.task == "detect":
        cm = confusion(preds, truths, 2)
        m = binary_metrics(cm)
        stacked = np.stack([1.0 - scores, scores], axis=1)
        auc_pos = roc_auc_per_label(stacked, truths, 2)[1]
        report = {
            "task": "detect", "n_samples": int(cm.sum()),
            "accuracy": m.accuracy, "precision": m.precision,
            "recall": m.recall, "f1": m.f1, "averaging": m.averaging,
            "degenerate": m.degenerate,
            "support": {str(k): v for k, v in sorted(m.support.items())},
            "auc_positive": auc_pos,
        }
    else:
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
                str(lab): value for lab, value in sorted(auc.items())}
            if corpus is not None:
                rare = rare_label_report(
                    corpus, auc, freq_threshold=args.rare_threshold or None, names=names)
                report["rare_labels"] = [
                    {"label": r.label, "name": r.name, "frequency": r.frequency,
                     "auc": r.auc} for r in rare]
    # only the next-call task's rare-label report uses these, and it needs scores and a corpus
    for option, needs in (("corpus", "scores"), ("names", "corpus"), ("rare_threshold", "corpus")):
        if getattr(args, option) and (args.task == "detect" or not getattr(args, needs)):
            why = "--task next-call" if args.task == "detect" else f"--{needs}"
            raise CorpusError(f"--{option.replace('_', '-')} needs {why}")
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


def _cmd_reproduce(args) -> list[Path]:
    from .reproduce import run_reproduction

    return run_reproduction(
        dataset1=args.dataset1, dataset2=args.dataset2, outdir=Path(args.outdir),
        seed=args.seed, top_k_features=args.top_k, seq_traces=args.seq_traces,
        quick=args.quick)


# --- parser -------------------------------------------------------------------


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="apisentry", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"apisentry {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse, canonicalize and rewrite a corpus")
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--collapse", action="store_true", help="drop consecutive repeated calls")
    p.add_argument("--max-len", dest="max_len", type=_INT, default=100,
                   help="prefix cap (default %(default)s)")
    p.add_argument("--out", type=_OutFile, required=True)

    p = sub.add_parser("adapt", help="convert an upstream dataset file to canonical CSV")
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--out", type=_OutFile, required=True)
    p.add_argument("--layout", choices=["wide", "seqcol"], default="wide")
    p.add_argument("--label-col", dest="label_col",
                   help="label column (default: malware for wide, none for seqcol)")
    p.add_argument("--call-prefix", dest="call_prefix", default="t_")
    p.add_argument("--id-col", dest="id_col", default="hash")
    p.add_argument("--seq-col", dest="seq_col", default="calls")
    p.add_argument("--delimiter", dest="delimiter", default=" ")
    p.add_argument("--constant-label", dest="constant_label", type=_LABEL, default=1)
    p.add_argument("--vocab-size", dest="vocab_size", type=_INT, default=0)

    p = sub.add_parser("split", help="stratified train/test split")
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--out-train", dest="out_train", type=_OutFile, required=True)
    p.add_argument("--out-test", dest="out_test", type=_OutFile, required=True)
    p.add_argument("--test-frac", dest="test_frac", type=_FLOAT, default=0.2)
    p.add_argument("--no-stratify", dest="no_stratify", action="store_true")

    p = sub.add_parser("balance", help="random-oversample the minority class")
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--out", type=_OutFile, required=True)
    p.add_argument("--test-in", dest="test_in", type=_InFile)
    p.add_argument("--test-out", dest="test_out", type=_OutFile)
    p.add_argument("--skip-test", dest="skip_test", action="store_true",
                   help="copy the test corpus through unbalanced")

    p = sub.add_parser("featurize", help="build/apply an n-gram vocabulary and vectorize")
    p.add_argument("--vocab", type=_InFile, required=True,
                   help="vocabulary file (written with --fit)")
    p.add_argument("--fit", action="store_true", help="build the vocabulary from this corpus")
    p.add_argument("--min-count", dest="min_count", type=_count, default=1)
    p.add_argument("--top-k", dest="top_k", type=_count, default=0)
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--out", type=_OutFile, required=True, help="sparse count-matrix file")
    p.add_argument("--labels-out", dest="labels_out", type=_OutFile)

    p = sub.add_parser("train-detector", help="train the 3-member boosted-tree ensemble")
    p.add_argument("--train", type=_InFile, required=True, help="count-matrix file")
    p.add_argument("--labels", type=_InFile, required=True)
    p.add_argument("--out", type=_OutFile, required=True)
    p.add_argument("--vote", choices=["mean", "majority"], default="mean")
    p.add_argument("--threshold", type=_FLOAT, default=0.5)
    p.add_argument("--no-bootstrap", dest="no_bootstrap", action="store_true")
    p.add_argument("--reg-lambda", dest="reg_lambda", type=_FLOAT, default=1.0)
    p.add_argument("--gamma", dest="gamma", type=_FLOAT, default=0.0)
    p.add_argument("--min-child-hessian", dest="min_child_hessian", type=_FLOAT, default=1.0)
    p.add_argument("--vocab-ref", dest="vocab_ref", default="")

    p = sub.add_parser("detect", help="score feature vectors with a trained detector")
    p.add_argument("--model", type=_InFile, required=True)
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--out", type=_OutFile, required=True)

    p = sub.add_parser("rank-features", help="top n-grams by gain importance")
    p.add_argument("--model", type=_InFile, required=True)
    p.add_argument("--vocab", type=_InFile, required=True)
    p.add_argument("-k", dest="k", type=_count, default=10)
    p.add_argument("--out", type=_OutFile)

    p = sub.add_parser("train-predictor", help="train the next-call sequence model")
    p.add_argument("--in", dest="infile", type=_InFile, required=True)
    p.add_argument("--vocab-size", dest="vocab_size", type=_INT, default=0)
    p.add_argument("--out", type=_OutFile, required=True)
    p.add_argument("--embed", type=_INT, default=64)
    p.add_argument("--hidden", type=_INT, default=150)
    p.add_argument("--dropout", type=_FLOAT, default=0.3)
    p.add_argument("--lr", type=_FLOAT, default=0.01)
    p.add_argument("--batch-size", dest="batch_size", type=_INT, default=128)
    p.add_argument("--max-epochs", dest="max_epochs", type=_INT, default=50)
    p.add_argument("--patience", type=_INT, default=3)
    p.add_argument("--val-frac", dest="val_frac", type=_FLOAT, default=0.1)
    p.add_argument("--max-prefix-len", dest="max_prefix_len", type=_INT, default=99)
    p.add_argument("--trace-cap", dest="trace_cap", type=_count, default=0,
                   help="keep only each trace's last N calls (0 disables)")
    p.add_argument("--curves", type=_OutFile, help="write per-epoch loss curves CSV here")

    p = sub.add_parser("predict-next", help="predict the next k calls for a sequence")
    p.add_argument("--model", type=_InFile, required=True)
    p.add_argument("--seq", required=True, help="comma-separated call ids")
    p.add_argument("-k", dest="k", type=partial(_count, low=1, high=_MAX_DECODE), default=1,
                   help=f"calls to decode, 1 to {_MAX_DECODE} (default %(default)s)")

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--task", choices=["detect", "next-call"], default="detect")
    p.add_argument("--pred", type=_InFile, required=True)
    p.add_argument("--truth", type=_InFile, required=True)
    p.add_argument("--scores", type=_InFile)
    p.add_argument("--names", type=_InFile, help="id,name CSV for display")
    p.add_argument("--corpus", type=_InFile, help="corpus for rare-label frequencies")
    p.add_argument("--rare-threshold", dest="rare_threshold", type=_count, default=0)
    p.add_argument("--out", type=_OutFile, required=True)

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

    for p in sub.choices.values():  # last, so they close every command's options
        p.add_argument("--config", type=_InFile,
                       help="flat key=value file of option dests; flags given here win")
        p.add_argument("--seed", type=_INT, default=os.environ.get("APISENTRY_SEED", 42),
                       help="task seed (default %(default)s, taken from APISENTRY_SEED if set)")
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
    if args.command == "featurize" and args.fit:
        args.vocab = _OutFile(args.vocab)  # --fit writes the vocabulary
    config = {k: v for k, v in vars(args).items() if k != "command"}
    outputs = [Path(v) for v in config.values() if isinstance(v, _OutFile) and v]
    inputs = [v for v in config.values() if isinstance(v, _InFile)]
    try:
        _require_outputs(outputs, inputs)
        written = _COMMANDS[args.command](args) or []  # only reproduce names its outputs
    except FileNotFoundError as exc:  # outputs were checked first, so this is an input
        sys.stderr.write(f"apisentry: error: missing input file(s): {exc.filename}\n")
        return 1
    except (CorpusError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"apisentry: error: {exc}\n")
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    _write_manifests(args.command, config, inputs, outputs + written)
    return 0


if __name__ == "__main__":
    sys.exit(main())
