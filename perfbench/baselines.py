"""Re-measure single-layer figures at fixed sizes, outside the workloads.

    python3 perfbench/baselines.py --seed 1 [--out FILE]

Times, each the median of REPEATS calls on one input: n-gram vocabulary
and matrix building on 4,000 d1-shaped traces with top_k=4000, twenty
depth-5 boosted trees on that matrix, one BiLSTM `train_step` at B=128,
hidden 150 and vocab 307 on 99-call prefixes, and saving and loading that
model. These are the sizes the ROADMAP's scratch profile quoted, so later
changes can cite a measured baseline for each. The corpus comes from the
generator's overlapping d1 world, where no single n-gram separates the
classes, so the trees grow to full depth; `gbdt.nodes_per_tree` is reported
next to trees/s. The last stdout line is the JSON result, which also records
the environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import run  # pins BLAS threads before numpy is imported

run._import_program()

import numpy as np  # noqa: E402

import gen  # noqa: E402
from apisentry import corpus, gbdt, ngrams, seqmodel  # noqa: E402

REPEATS = 3


def timed(fn):
    times, result = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def measure(seed: int) -> dict:
    raw = gen.d1_corpus([seed, 9], 4000, overlapping=True)
    cooked = corpus.canonicalize(corpus.parse_corpus(raw.to_csv()), collapse=True, max_len=100)
    train, _ = corpus.stratified_split(cooked, corpus.SplitSpec(0.2, seed=seed))
    train = corpus.random_oversample(train, seed)
    out = {"corpus_traces": len(train)}

    out["ngrams.build_vocabulary_s"], vocab = timed(
        lambda: ngrams.build_vocabulary(train, top_k=4000))
    out["ngrams.corpus_matrix_s"], (X, y) = timed(
        lambda: ngrams.corpus_matrix(train, vocab))
    out["ngrams.matrix_shape"] = list(X.shape)
    out["ngrams.matrix_nnz"] = int(X.nnz)

    cfg = gbdt.GbdtConfig(max_depth=5, n_estimators=20)
    out["gbdt.train_20_trees_s"], model = timed(
        lambda: gbdt.train_gbdt(X, np.array(y), cfg))
    out["gbdt.trees_per_s"] = 20 / out["gbdt.train_20_trees_s"]
    out["gbdt.nodes_per_tree"] = sum(t.n_nodes() for t in model.trees) / 20

    config = seqmodel.BiLstmConfig(vocab_size=gen.D1_VOCAB, embed_dim=64, hidden=150,
                                   batch_size=128, max_prefix_len=99, seed=seed)
    rng = np.random.default_rng([seed, 10])
    samples = []
    for i in rng.choice(len(train), size=128, replace=False):
        calls = train.traces[int(i)].calls
        samples.append((calls[:len(calls) - 1], calls[-1]))
    net = seqmodel.init_model(config)
    state = seqmodel.init_adam(net)
    out["seqmodel.train_step_B128_s"], _ = timed(
        lambda: seqmodel.train_step(net, state, samples, dropout_seed=seed))
    out["seqmodel.batch_timesteps"] = max(len(p) for p, _ in samples)

    path = run.WORK / f"baseline-{seed}.seq"
    run.WORK.mkdir(exist_ok=True)
    try:
        out["seqmodel.save_s"], _ = timed(lambda: seqmodel.save_model(net, path))
        out["seqmodel.model_bytes"] = path.stat().st_size
        out["seqmodel.load_s"], _ = timed(lambda: seqmodel.load_model(path))
    finally:
        path.unlink(missing_ok=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    result = {"environment": run.environment(args.seed), "repeats": REPEATS,
              "figures": measure(args.seed)}
    text = json.dumps(result, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
