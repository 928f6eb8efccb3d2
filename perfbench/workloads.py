"""The benchmark's three workloads.

Each workload generates its inputs from the seed, optionally prepares
artifacts, and then runs passes: one pass is one go through the workload's
fixed work, timed by the benchmark and checked afterwards. A pass returns a
`Pass` with its pipeline time, its operation counts, the digests of what it
wrote and the named end-to-end figures of that pass.

- detect-d1: the README's CLI detection pipeline, in-process through
  `apisentry.cli.main`, on a labeled corpus shaped like dataset 1. Load sits
  on n-gram vocabulary and matrix building, boosted-tree training and batch
  scoring, and the CLI's text matrix and model I/O. It never touches
  `seqmodel`.
- nextcall-d2: `train-predictor` at the paper's architecture on an unlabeled
  corpus shaped like dataset 2, then batch prediction and metrics on a fixed
  held-out sample set. Load sits on the LSTM scan, BPTT and Adam; long,
  uneven prefixes make padding waste visible. It never touches `gbdt`.
- triage-online: one client sends early prefixes of held-out d1-shaped traces
  one at a time, closed loop, no think time; each request vectorizes,
  scores with the loaded detector and decodes the next 5 calls with the
  loaded predictor. It reads models instead of writing them and makes
  1-row, latency-bound calls.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from apisentry import cli, corpus, gbdt, metrics, ngrams, seqmodel

import child
import gen
from spans import layer_of

HERE = Path(__file__).resolve().parent
LAYERS = ("corpus", "ngrams", "gbdt", "seqmodel", "metrics", "cli")
CHILD_TIMEOUT_S = 170

# Held-out quality floors, checked on every pass. The planted signal puts the
# seed commit well above them (detection on balanced sets, where a constant
# answer scores 0.5; next-call over 342 ids, where guessing scores 0.003), so
# a pass below one is a broken model, not an unlucky seed.
DETECT_FLOOR = 0.75
TRIAGE_FLOOR = 0.6
NEXTCALL_FLOOR = 0.01


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values):
    return statistics.median(values) if values else float("nan")


@dataclass
class Pass:
    """What one pass did, as seen by the benchmark."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    latencies_ms: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a failed check makes it a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


# --- tracing: which program names a traced pass wraps ------------------------

def _windows(c) -> int:
    return sum(max(len(t.calls) - 1, 0) + max(len(t.calls) - 2, 0) for t in c.traces)


def _size(path) -> dict:
    return {"bytes": os.path.getsize(path)}


# counters computed from a wrapped call's result and arguments, recorded on
# its span after the span has ended
CLI_COUNTERS = {
    "load_corpus": lambda r, *a, **k: {"traces": len(r), "calls": sum(len(t) for t in r.traces)},
    "build_vocabulary": lambda r, c, *a, **k: {"windows": _windows(c), "columns": len(r)},
    "corpus_matrix": lambda r, c, v: {"windows": _windows(c), "rows": r[0].shape[0],
                                      "nnz": int(r[0].nnz)},
    "save_matrix": lambda r, m, path: {**_size(path), "nnz": int(m.nnz)},
    "load_matrix": lambda r, path: {**_size(path), "nnz": int(r.nnz)},
    "save_detector": lambda r, d, path: _size(path),
    "load_detector": lambda r, path: _size(path),
    "save_model": lambda r, m, path: _size(path),
    "load_model": lambda r, path: _size(path),
    "ensemble_predict_rows": lambda r, d, X: {"rows": int(X.shape[0])},
    "prefix_samples": lambda r, t: {"samples": len(r)},
}


def _tree_counts(model, X, *a, **k):
    return {"trees": len(model.trees), "rows": int(X.shape[0]),
            "nodes": int(sum(t.n_nodes() for t in model.trees))}


def _batch_counts(loss, model, state, samples, **k):
    # seqmodel.train hands train_step (prefix, next) pairs
    cap = model.config.max_prefix_len
    lens = [min(len(prefix), cap) for prefix, _ in samples]
    width = max(lens)
    return {"batch": len(lens), "timesteps": width,
            "cells": width * len(lens), "real_cells": sum(lens)}


def install(tr) -> None:
    """Wrap the program's public names where their callers look them up:
    every function the CLI imports from another layer, `gbdt.train_gbdt`
    (called by `train_bagged`) and the training internals of `seqmodel`."""
    targets = [(attr, fn) for attr, fn in vars(cli).items()
               if inspect.isfunction(fn) and fn.__module__ != cli.__name__]
    for attr, fn in targets:
        layer = fn.__module__.rsplit(".", 1)[-1]
        if layer in LAYERS:
            tr.wrap(cli, attr, f"{layer}.{attr}", CLI_COUNTERS.get(attr))
    tr.wrap(gbdt, "train_gbdt", "gbdt.train_gbdt", _tree_counts)
    tr.wrap(seqmodel, "train_step", "seqmodel.train_step", _batch_counts)
    for attr in ("loss_and_grads", "apply_adam", "batch_loss"):
        tr.wrap(seqmodel, attr, f"seqmodel.{attr}")


def layer_breakdown(tr) -> dict:
    """Self time, its share of the pass and the span count of each layer,
    and of the benchmark's own code (`bench`)."""
    total = tr.durations("bench.pass")[0]
    self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
    calls = dict.fromkeys(LAYERS + ("bench",), 0)
    for span_name, seconds in tr.self_times().items():
        self_s[layer_of(span_name)] += seconds
    for r in tr.spans:
        calls[layer_of(r["name"])] += 1
    row = {"trace.spans": len(tr.spans)}
    for layer in self_s:
        row[f"{layer}.self_s"] = self_s[layer]
        row[f"{layer}.self_pct"] = 100.0 * self_s[layer] / total
        row[f"{layer}.calls"] = calls[layer]
    return row


def run_cli(tr, p: Pass, argv) -> float:
    """One CLI command in-process; returns its wall time."""
    argv = [str(a) for a in argv]
    t0 = time.perf_counter()
    with tr.span(f"cli.{argv[0]}"):
        rc = cli.main(argv)
    elapsed = time.perf_counter() - t0
    p.check(rc == 0, f"cli {argv[0]} exited {rc}")
    return elapsed


def run_child(args, what: str) -> None:
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *map(str, args)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{what} failed ({proc.returncode}): {proc.stderr[-2000:]}")


def probe_setup(args) -> float:
    """Seconds from starting a child process to its "ready" line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "setup", *map(str, args)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err[-2000:]}")
    return elapsed


def _sum(tr, name, key=None):
    if key is None:
        return sum(tr.durations(name))
    return sum(r["counts"].get(key, 0) for r in tr.named(name))


def _rate(num, den):
    return num / den if den > 0 else float("nan")


def cli_command_times(tr) -> dict:
    """cli.<command>_s for each command run. Only command spans belong to
    the cli layer (what the CLI calls is named after the layer it calls
    into), so `layer_breakdown`'s cli.self_s is the commands' own time."""
    out = {}
    for r in tr.spans:
        if layer_of(r["name"]) == "cli":
            key = f"{r['name']}_s"
            out[key] = out.get(key, 0.0) + r["end"] - r["start"]
    return out


class Workload:
    """Defaults for a workload with nothing to prepare or load: its set-up
    is importing the program."""

    min_passes = 1  # untraced passes a run makes even past its deadline

    def prepare(self) -> None:
        pass

    def setup_probe_args(self):
        return ["import"]

    def setup(self, tr) -> None:
        pass

    def setup_layer_metrics(self, tr) -> dict:
        return {}


# --- detect-d1 -----------------------------------------------------------------

class DetectD1(Workload):
    name = "detect-d1"
    why = ("CLI detection pipeline: n-gram vocabulary and matrices, boosted-tree "
           "training and batch scoring, text model I/O; never touches seqmodel")

    def __init__(self, workdir: Path, seed: int, smoke: bool):
        self.wd = workdir
        self.seed = seed
        self.n_traces = 123 if smoke else 615

    def generate(self) -> dict:
        c = gen.d1_corpus([self.seed, 0], self.n_traces)
        (self.wd / "raw.csv").write_text(c.to_csv(), encoding="utf-8")
        return {"d1": gen.shape(c)}

    def run_pass(self, tr) -> Pass:
        w = self.wd
        p = Pass()
        t = {}
        steps = [
            ("ingest", ["ingest", "--in", w / "raw.csv", "--collapse", "--max-len", "100",
                        "--out", w / "cooked.csv"]),
            ("split", ["split", "--in", w / "cooked.csv", "--out-train", w / "train.csv",
                       "--out-test", w / "test.csv", "--test-frac", "0.2"]),
            ("balance", ["balance", "--in", w / "train.csv", "--out", w / "train_bal.csv",
                         "--test-in", w / "test.csv", "--test-out", w / "test_bal.csv"]),
            ("featurize-fit", ["featurize", "--vocab", w / "vocab.tsv", "--fit",
                               "--in", w / "train_bal.csv", "--out", w / "train.mat",
                               "--labels-out", w / "train.labels"]),
            ("featurize-test", ["featurize", "--vocab", w / "vocab.tsv",
                                "--in", w / "test_bal.csv", "--out", w / "test.mat",
                                "--labels-out", w / "test.labels"]),
            ("train-detector", ["train-detector", "--train", w / "train.mat",
                                "--labels", w / "train.labels", "--out", w / "model.det"]),
            ("detect", ["detect", "--model", w / "model.det", "--in", w / "test.mat",
                        "--out", w / "pred.csv"]),
            ("evaluate", ["evaluate", "--task", "detect", "--pred", w / "pred.csv",
                          "--truth", w / "test.labels", "--out", w / "report.json"]),
        ]
        for key, argv in steps:
            t[key] = run_cli(tr, p, argv)
            if p.failed:
                break
        p.seconds = sum(t.values())
        if p.failed:
            return p

        lines = (w / "pred.csv").read_text(encoding="utf-8").splitlines()[1:]
        labels = np.array([int(x.split(",")[1]) for x in lines])
        scores = np.array([float(x.split(",")[2]) for x in lines])
        threshold = next(float(x.split()[1]) for x in
                         (w / "model.det").read_text(encoding="utf-8").splitlines()
                         if x.startswith("threshold "))
        p.check(bool(np.all((scores >= 0.0) & (scores <= 1.0))), "detect: score outside [0, 1]")
        p.check(bool(np.array_equal(labels, (scores >= threshold).astype(int))),
                "detect: label disagrees with threshold")
        report = json.loads((w / "report.json").read_text(encoding="utf-8"))
        p.check(report["n_samples"] == len(lines), "evaluate: sample count")
        p.check(report["accuracy"] >= DETECT_FLOOR,
                f"detector accuracy {report['accuracy']:.3f} below {DETECT_FLOOR}")
        p.digests = {name: sha256_file(w / name)
                     for name in ("vocab.tsv", "train.mat", "model.det", "pred.csv")}
        p.stats = {
            "detector_train_s": t["train-detector"],
            "detect_traces_per_s": len(lines) / (t["featurize-test"] + t["detect"]),
            "detect_f1": report["f1"],
        }
        return p

    def layer_metrics(self, tr) -> dict:
        out = {}
        load_s = _sum(tr, "corpus.load_corpus")
        out["corpus.load_s"] = load_s
        out["corpus.parse_calls_per_s"] = _rate(_sum(tr, "corpus.load_corpus", "calls"), load_s)
        out["corpus.canonicalize_s"] = _sum(tr, "corpus.canonicalize")
        out["corpus.split_s"] = _sum(tr, "corpus.stratified_split")
        out["corpus.oversample_s"] = _sum(tr, "corpus.random_oversample")
        out["corpus.save_s"] = _sum(tr, "corpus.save_corpus")
        vocab_s = _sum(tr, "ngrams.build_vocabulary")
        matrix_s = _sum(tr, "ngrams.corpus_matrix")
        out["ngrams.build_vocabulary_s"] = vocab_s
        out["ngrams.corpus_matrix_s"] = matrix_s
        out["ngrams.windows_per_s"] = _rate(
            _sum(tr, "ngrams.build_vocabulary", "windows")
            + _sum(tr, "ngrams.corpus_matrix", "windows"), vocab_s + matrix_s)
        first_matrix = tr.named("ngrams.corpus_matrix")[0]["counts"]
        out["ngrams.matrix_nnz"] = first_matrix["nnz"]
        out["ngrams.save_matrix_s"] = _sum(tr, "ngrams.save_matrix")
        out["ngrams.load_matrix_s"] = _sum(tr, "ngrams.load_matrix")
        out["ngrams.matrix_bytes"] = tr.named("ngrams.save_matrix")[0]["counts"]["bytes"]
        members = tr.named("gbdt.train_gbdt")
        for i, r in enumerate(members):
            out[f"gbdt.member{i}.train_gbdt_s"] = r["end"] - r["start"]
        trees = sum(r["counts"]["trees"] for r in members)
        out["gbdt.trees_per_s"] = _rate(trees, sum(r["end"] - r["start"] for r in members))
        out["gbdt.nodes_per_tree"] = _rate(sum(r["counts"]["nodes"] for r in members), trees)
        out["gbdt.predict_rows_per_s"] = _rate(_sum(tr, "gbdt.ensemble_predict_rows", "rows"),
                                               _sum(tr, "gbdt.ensemble_predict_rows"))
        out["gbdt.save_s"] = _sum(tr, "gbdt.save_detector")
        out["gbdt.load_s"] = _sum(tr, "gbdt.load_detector")
        out["gbdt.model_bytes"] = _sum(tr, "gbdt.save_detector", "bytes")
        out.update(cli_command_times(tr))
        return out


# --- nextcall-d2 ---------------------------------------------------------------

_HELDOUT_SEED = 7  # the held-out sample set is the same for every workload seed


class NextcallD2(Workload):
    name = "nextcall-d2"
    why = ("BiLSTM training at the paper's shapes on long, uneven prefixes: LSTM "
           "scan, BPTT, Adam and padding waste; never touches gbdt")

    TRACE_CAP = 200

    def __init__(self, workdir: Path, seed: int, smoke: bool):
        self.wd = workdir
        self.seed = seed
        self.smoke = smoke

    def generate(self) -> dict:
        n_train, n_held = (2, 2) if self.smoke else (5, 4)
        train = gen.d2_corpus([self.seed, 0], n_train)
        held = gen.d2_corpus(_HELDOUT_SEED, n_held)
        (self.wd / "train.csv").write_text(train.to_csv(), encoding="utf-8")
        (self.wd / "heldout.csv").write_text(held.to_csv(), encoding="utf-8")
        lens = np.minimum(train.lengths, self.TRACE_CAP)
        n_samples = int(np.maximum(lens - 2, 0).sum())
        self.n_train_samples = n_samples - int(np.floor(n_samples * 0.1 + 0.5))
        return {"d2_train": gen.shape(train), "d2_heldout": gen.shape(held)}

    def run_pass(self, tr) -> Pass:
        w = self.wd
        p = Pass()
        t0 = time.perf_counter()
        train_s = run_cli(tr, p, [
            "train-predictor", "--in", w / "train.csv", "--out", w / "model.seq",
            "--trace-cap", self.TRACE_CAP, "--max-prefix-len", self.TRACE_CAP - 1,
            "--max-epochs", 1, "--embed", 64, "--hidden", 150, "--batch-size", 128,
            "--dropout", 0.3])
        if p.failed:
            p.seconds = time.perf_counter() - t0
            return p
        model = tr.call("seqmodel.load_model", seqmodel.load_model, w / "model.seq",
                        counter=CLI_COUNTERS["load_model"])
        held = tr.call("corpus.load_corpus", corpus.load_corpus, w / "heldout.csv",
                       counter=CLI_COUNTERS["load_corpus"])
        samples = []
        for trace in held.traces:
            samples.extend(tr.call("ngrams.prefix_samples", ngrams.prefix_samples,
                                   trace.calls[-self.TRACE_CAP:],
                                   counter=CLI_COUNTERS["prefix_samples"]))
        t1 = time.perf_counter()
        dists = tr.call("seqmodel.predict_distributions", seqmodel.predict_distributions,
                        model, samples, counter=lambda r, m, s: {"samples": len(s)})
        predict_s = time.perf_counter() - t1
        vocab = model.config.vocab_size
        truths = np.array([s.next for s in samples], dtype=np.int64)
        preds = dists.argmax(axis=1)
        report = tr.call("metrics.weighted_metrics", metrics.weighted_metrics,
                         preds, truths, vocab)
        tr.call("metrics.roc_auc_per_label", metrics.roc_auc_per_label, dists, truths, vocab)
        p.seconds = time.perf_counter() - t0

        p.check(model.config.vocab_size == gen.D2_VOCAB, "load_model: vocabulary size")
        p.check(dists.shape == (len(samples), vocab), "predict_distributions: shape")
        p.check(bool(np.all(np.abs(dists.sum(axis=1) - 1.0) <= 1e-9)),
                "predict_distributions: a row does not sum to 1")
        p.check(bool(np.all((preds >= 0) & (preds < vocab))), "predicted id out of range")
        p.check(report.accuracy >= NEXTCALL_FLOOR,
                f"next-call accuracy {report.accuracy:.3f} below {NEXTCALL_FLOOR}")
        p.digests = {"model.seq": sha256_file(w / "model.seq"),
                     "predictions": sha256_bytes(dists.tobytes())}
        p.stats = {
            "predictor_train_samples_per_s": self.n_train_samples / train_s,
            "predict_samples_per_s": len(samples) / predict_s,
            "nextcall_acc": report.accuracy,
        }
        return p

    def prefix_samples_mb(self) -> float:
        """Peak Python heap of the CLI's sample preparation (load the corpus,
        cut every prefix), measured alone under tracemalloc."""
        c = corpus.load_corpus(self.wd / "train.csv")
        tracemalloc.start()
        try:
            samples = []
            for trace in c.traces:
                samples.extend(ngrams.prefix_samples(trace.calls[-self.TRACE_CAP:]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def layer_metrics(self, tr) -> dict:
        out = {"corpus.load_s": _sum(tr, "corpus.load_corpus")}
        out["ngrams.prefix_samples_s"] = _sum(tr, "ngrams.prefix_samples")
        out["ngrams.prefix_samples"] = _sum(tr, "ngrams.prefix_samples", "samples")
        out["ngrams.prefix_samples_mb"] = self.prefix_samples_mb()
        for name in ("train_step", "loss_and_grads", "apply_adam", "batch_loss"):
            out[f"seqmodel.{name}_ms"] = 1e3 * median(tr.durations(f"seqmodel.{name}"))
        steps = tr.named("seqmodel.train_step")
        out["seqmodel.train_steps"] = len(steps)
        out["seqmodel.batch_timesteps"] = _rate(
            sum(r["counts"]["timesteps"] for r in steps), len(steps))
        cells = sum(r["counts"]["cells"] for r in steps)
        out["seqmodel.pad_fraction"] = _rate(
            cells - sum(r["counts"]["real_cells"] for r in steps), cells)
        out["seqmodel.predict_distributions_samples_per_s"] = _rate(
            _sum(tr, "seqmodel.predict_distributions", "samples"),
            _sum(tr, "seqmodel.predict_distributions"))
        out["seqmodel.save_s"] = _sum(tr, "seqmodel.save_model")
        out["seqmodel.load_s"] = _sum(tr, "seqmodel.load_model")
        out["seqmodel.model_bytes"] = _sum(tr, "seqmodel.save_model", "bytes")
        out["metrics.weighted_metrics_s"] = _sum(tr, "metrics.weighted_metrics")
        out["metrics.roc_auc_s"] = _sum(tr, "metrics.roc_auc_per_label")
        out.update(cli_command_times(tr))
        return out


# --- triage-online -------------------------------------------------------------

class TriageOnline(Workload):
    name = "triage-online"
    why = ("one client sends early trace prefixes: vectorize, 1-row detector "
           "scoring and 5-call decoding from models loaded at start-up")

    K = 5
    CHECK_EVERY = 10  # requests cross-checked against the batched prediction paths
    min_passes = 3  # 240 requests leave at least 12 beyond p95

    def __init__(self, workdir: Path, seed: int, smoke: bool):
        self.wd = workdir
        self.seed = seed
        self.n_artifact = 123 if smoke else 205
        self.n_requests = 20 if smoke else 80

    def generate(self) -> dict:
        art = gen.d1_corpus([self.seed, 0], self.n_artifact)
        (self.wd / "artifact_raw.csv").write_text(art.to_csv(), encoding="utf-8")
        few = gen.Corpus(art.calls[:8], art.lengths[:8], None, art.vocab)
        (self.wd / "predictor_train.csv").write_text(few.to_csv(), encoding="utf-8")
        held = gen.d1_corpus([self.seed, 1], self.n_requests, malware_per_goodware=1)
        cooked = corpus.canonicalize(corpus.parse_corpus(held.to_csv()),
                                     collapse=True, max_len=100)
        rng = np.random.default_rng([self.seed, 2])
        cuts = np.round(np.linspace(10, 99, self.n_requests)).astype(int)
        cuts = cuts[rng.permutation(self.n_requests)]
        self.requests = []
        for trace, cut in zip(cooked.traces, cuts):
            cut = min(int(cut), len(trace.calls) - 1)
            self.requests.append((trace.calls[:cut], trace.calls[cut], trace.label))
        shapes = {"d1_artifact": gen.shape(art), "d1_heldout": gen.shape(held)}
        shapes["requests"] = {"count": len(self.requests),
                              "mean_prefix": float(np.mean([len(r[0]) for r in self.requests]))}
        return shapes

    def prepare(self) -> None:
        run_child(["prepare", self.wd], "triage artifact preparation")

    def setup_probe_args(self):
        return ["triage", self.wd]

    def setup(self, tr) -> None:
        w = self.wd
        self.vocab = tr.call("ngrams.load_vocabulary", ngrams.load_vocabulary, w / child.VOCAB)
        self.detector = tr.call("gbdt.load_detector", gbdt.load_detector, w / child.DETECTOR,
                                counter=CLI_COUNTERS["load_detector"])
        self.model = tr.call("seqmodel.load_model", seqmodel.load_model, w / child.PREDICTOR,
                             counter=CLI_COUNTERS["load_model"])
        self.artifact_digests = {name: sha256_file(w / name)
                                 for name in (child.VOCAB, child.DETECTOR, child.PREDICTOR)}

    def run_pass(self, tr) -> Pass:
        p = Pass()
        vocab_size = self.model.config.vocab_size
        threshold = self.detector.threshold
        outputs, labels, truths, first, nexts = [], [], [], [], []
        for i, (prefix, nxt_true, label_true) in enumerate(self.requests):
            with tr.request(i):
                with tr.span("bench.request"):
                    t0 = time.perf_counter()
                    fv = tr.call("ngrams.vectorize", ngrams.vectorize, prefix, self.vocab)
                    label, score = tr.call("gbdt.ensemble_predict", gbdt.ensemble_predict,
                                           self.detector, fv)
                    decoded = tr.call("seqmodel.predict_next_k", seqmodel.predict_next_k,
                                      self.model, prefix, self.K)
                    p.latencies_ms.append(1e3 * (time.perf_counter() - t0))
                ok = (0.0 <= score <= 1.0 and label == int(score >= threshold)
                      and len(decoded) == self.K
                      and all(0 <= c < vocab_size for c in decoded))
                if ok and i % self.CHECK_EVERY == 0:
                    ok = self.cross_check(tr, prefix, fv, label, score, decoded)
                p.check(ok, f"request {i}: output out of range or paths disagree")
            outputs.append(f"{label},{score!r},{','.join(map(str, decoded))}")
            labels.append(label)
            truths.append(label_true)
            first.append(decoded[0])
            nexts.append(nxt_true)
        p.seconds = sum(p.latencies_ms) / 1e3
        cm = tr.call("metrics.confusion", metrics.confusion, labels, truths, 2)
        detect = tr.call("metrics.binary_metrics", metrics.binary_metrics, cm)
        p.check(detect.accuracy >= TRIAGE_FLOOR,
                f"prefix detection accuracy {detect.accuracy:.3f} below {TRIAGE_FLOOR}")
        p.digests = dict(self.artifact_digests)
        p.digests["predictions"] = sha256_bytes("\n".join(outputs).encode())
        p.stats = {
            "detect_f1": detect.f1,
            "nextcall_acc": float(np.mean(np.array(first) == np.array(nexts))),
        }
        return p

    def cross_check(self, tr, prefix, fv, label, score, decoded) -> bool:
        """The request's answers against the batched paths: the detector's
        CSR row path on a 1-row matrix, and the predictor's batched forward
        pass on every prefix greedy decoding fed it, where each decoded id
        must be a most likely one (up to 1e-9, as the paths round apart)."""
        X = gbdt.as_feature_matrix([fv], self.detector.n_features)
        rows_label, rows_score = tr.call(
            "gbdt.ensemble_predict_rows", gbdt.ensemble_predict_rows,
            self.detector, X, counter=CLI_COUNTERS["ensemble_predict_rows"])
        seq = list(prefix)
        steps = [(seq + decoded[:j], decoded[j]) for j in range(self.K)]
        dists = tr.call("seqmodel.predict_distributions", seqmodel.predict_distributions,
                        self.model, steps)
        chosen = dists[np.arange(self.K), decoded]
        return (int(rows_label[0]) == label and abs(float(rows_score[0]) - score) <= 1e-12
                and bool(np.all(chosen >= dists.max(axis=1) - 1e-9)))

    def layer_metrics(self, tr) -> dict:
        out = {}
        for name, key in (("ngrams.vectorize", "ngrams.vectorize_ms"),
                          ("gbdt.ensemble_predict", "gbdt.predict_one_ms"),
                          ("gbdt.ensemble_predict_rows", "gbdt.predict_rows_1_ms"),
                          ("seqmodel.predict_next_k", "seqmodel.predict_next_k_ms")):
            out[key] = 1e3 * median(tr.durations(name))
        return out

    def setup_layer_metrics(self, tr) -> dict:
        return {
            "ngrams.load_vocabulary_s": _sum(tr, "ngrams.load_vocabulary"),
            "gbdt.load_s": _sum(tr, "gbdt.load_detector"),
            "gbdt.model_bytes": _sum(tr, "gbdt.load_detector", "bytes"),
            "seqmodel.load_s": _sum(tr, "seqmodel.load_model"),
            "seqmodel.model_bytes": _sum(tr, "seqmodel.load_model", "bytes"),
        }


WORKLOADS = {w.name: w for w in (DetectD1, NextcallD2, TriageOnline)}
