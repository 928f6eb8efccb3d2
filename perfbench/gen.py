"""Seeded synthetic corpora shaped like the paper's two datasets.

Both shapes are sampled from Markov chains over integer call ids. The chains
themselves (the "world") come from a fixed constant, so every workload seed
draws fresh traces from the same distribution and quality figures stay
comparable across seeds; the workload seed decides which traces are drawn.

- d1: labeled, 307 ids. Malware and goodware walk different chains and each
  trace carries its class's planted 3-grams within its first 60 calls, so
  detection is learnable even from the few goodware traces a 40:1 corpus
  has; early prefixes may still miss the planted calls. Chains have
  self-loops, so `ingest --collapse` has repeats to drop, and raw traces are
  longer than the 100-call cut. The planted 3-grams separate the classes
  with one split, so boosted trees stay shallow on this world.
- d1, overlapping: the same shape drawn from a harder world. The chains
  differ in few rows and both classes plant the same four 3-grams, at
  different rates, so no single n-gram separates the classes and boosted
  trees grow to full depth.
- d2: unlabeled, 342 ids, a handful of malware families, each its own chain,
  all sharing one frequent hub call. Lengths follow a fixed log-normal
  quantile grid, widely spread, with a tail beyond the 200-call cap.

Sampling is vectorised over traces: one `searchsorted` per time step moves
every trace at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

D1_VOCAB = 307
D2_VOCAB = 342
_WORLD_SEED = 20230609
D1_RAW_LEN = 140  # about 100 calls after repeat collapsing
_PLANT_WITHIN = 60  # planted 3-grams sit early, well before the 100-call cut
_D2_HUB = 0
_D2_HUB_SHARE = 0.2
_D2_FAMILIES = 8
_D2_MEDIAN_LEN = 50.0
_D2_SIGMA = 1.2
_D2_MAX_RAW_LEN = 320


@dataclass(frozen=True)
class Corpus:
    """Generated traces as a padded id matrix plus per-trace lengths."""

    calls: np.ndarray          # (n, max_len) int64, valid prefix of each row
    lengths: np.ndarray        # (n,) int64
    labels: np.ndarray | None  # (n,) int64 in {0, 1}, or None when unlabeled
    vocab: int

    def rows(self):
        for i in range(len(self.lengths)):
            yield self.calls[i, :self.lengths[i]]

    def to_csv(self) -> str:
        """The canonical corpus format `apisentry ingest` reads."""
        lines = [f"#vocab={self.vocab}"]
        for i, row in enumerate(self.rows()):
            label = "-" if self.labels is None else str(int(self.labels[i]))
            lines.append(label + "," + ",".join(map(str, row.tolist())))
        return "\n".join(lines) + "\n"


def _chain(rng, vocab: int, n_succ: int, self_loop: float) -> np.ndarray:
    """Row-stochastic matrix: each id has n_succ likely successors plus a
    self-loop, with a little uniform mass so every transition can occur."""
    succ = np.argsort(rng.random((vocab, vocab)), axis=1)[:, :n_succ]
    weights = rng.dirichlet(np.full(n_succ, 0.6), size=vocab)
    P = np.full((vocab, vocab), 0.02 / vocab)
    np.add.at(P, (np.arange(vocab)[:, None], succ), weights * (0.98 - self_loop))
    P[np.arange(vocab), np.arange(vocab)] += self_loop
    return P / P.sum(axis=1, keepdims=True)


def _perturb(rng, base: np.ndarray, share: float, n_succ: int, self_loop: float):
    """Replace a share of base's rows with fresh successor rows."""
    P = base.copy()
    rows = rng.random(len(P)) < share
    P[rows] = _chain(rng, len(P), n_succ, self_loop)[rows]
    return P


def _walk(rng, P: np.ndarray, n: int, length: int) -> np.ndarray:
    """n walks of the given length, all advanced together."""
    vocab = len(P)
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    # row s occupies (s, s+1] in the flattened table, so one searchsorted
    # over every row finds each walker's next id
    flat = (cum + np.arange(vocab)[:, None]).ravel()
    out = np.empty((n, length), dtype=np.int64)
    state = rng.integers(0, vocab, size=n)
    for t in range(length):
        out[:, t] = state
        idx = np.searchsorted(flat, state + rng.random(n), side="right")
        state = np.minimum(idx - state * vocab, vocab - 1)
    return out


def _plant(rng, calls: np.ndarray, rows: np.ndarray, motifs: np.ndarray,
           weights: np.ndarray, rate: float) -> None:
    """Overwrite 1 + Poisson(rate) random 3-call windows inside the first
    _PLANT_WITHIN calls of each given row with motifs drawn by the given
    weights."""
    counts = 1 + rng.poisson(rate, size=len(rows))
    owner = np.repeat(rows, counts)
    pos = (rng.random(len(owner)) * (_PLANT_WITHIN - 2)).astype(np.int64)
    which = rng.choice(len(motifs), size=len(owner), p=weights)
    for j in range(3):
        calls[owner, pos + j] = motifs[which, j]


@functools.cache
def _d1_world(overlapping: bool):
    """Per label: (chain, motifs, motif weights, extra plants per trace)."""
    if not overlapping:
        rng = np.random.default_rng(_WORLD_SEED)
        base = _chain(rng, D1_VOCAB, n_succ=6, self_loop=0.2)
        chains = {label: _perturb(rng, base, 0.3, 6, 0.2) for label in (0, 1)}
        motifs = {1: rng.integers(0, D1_VOCAB, size=(2, 3)),
                  0: rng.integers(0, D1_VOCAB, size=(1, 3))}
        # goodware's 3-gram occurs exactly once, so that a detector fitted to
        # a handful of goodware traces learns "present", not "present twice"
        return {label: (chains[label], motifs[label],
                        np.full(len(motifs[label]), 1.0 / len(motifs[label])), float(label))
                for label in (0, 1)}
    rng = np.random.default_rng(_WORLD_SEED + 2)
    base = _chain(rng, D1_VOCAB, n_succ=6, self_loop=0.2)
    motifs = rng.integers(0, D1_VOCAB, size=(4, 3))
    weights = {1: np.array([0.4, 0.3, 0.2, 0.1]), 0: np.array([0.1, 0.2, 0.3, 0.4])}
    return {label: (_perturb(rng, base, 0.05, 6, 0.2), motifs, weights[label], 1.0)
            for label in (0, 1)}


@functools.cache
def _d2_world():
    """One chain per family."""
    rng = np.random.default_rng(_WORLD_SEED + 1)
    base = _chain(rng, D2_VOCAB, n_succ=4, self_loop=0.05)
    chains = []
    for _ in range(_D2_FAMILIES):
        P = _perturb(rng, base, 0.5, 4, 0.05) * (1.0 - _D2_HUB_SHARE)
        # one hub call follows every call with a fixed share, like the
        # handle-closing calls that dominate real traces
        P[:, _D2_HUB] += _D2_HUB_SHARE
        chains.append(P)
    return chains


def d1_corpus(seed: int, n_traces: int, malware_per_goodware: int = 40,
              overlapping: bool = False) -> Corpus:
    """Labeled d1-shaped corpus: about malware_per_goodware malware traces
    per goodware trace, raw traces of D1_RAW_LEN calls, drawn from the
    overlapping world if asked."""
    world = _d1_world(overlapping)
    rng = np.random.default_rng(seed)
    n_good = max(2, round(n_traces / (malware_per_goodware + 1)))
    labels = np.ones(n_traces, dtype=np.int64)
    labels[rng.permutation(n_traces)[:n_good]] = 0
    calls = np.empty((n_traces, D1_RAW_LEN), dtype=np.int64)
    lengths = np.full(n_traces, D1_RAW_LEN, dtype=np.int64)
    for label in (0, 1):
        chain, motifs, weights, rate = world[label]
        rows = np.flatnonzero(labels == label)
        calls[rows] = _walk(rng, chain, len(rows), D1_RAW_LEN)
        _plant(rng, calls, rows, motifs, weights, rate=rate)
    return Corpus(calls=calls, lengths=lengths, labels=labels, vocab=D1_VOCAB)


def d2_corpus(seed: int, n_traces: int) -> Corpus:
    """Unlabeled d2-shaped corpus. Lengths are the log-normal quantiles
    (_D2_MEDIAN_LEN, _D2_SIGMA) at n_traces evenly spaced probabilities, so
    every seed gets the same length multiset; the seed shuffles which trace
    gets which length and family, and draws the calls."""
    chains = _d2_world()
    rng = np.random.default_rng(seed)
    nd = NormalDist(mu=float(np.log(_D2_MEDIAN_LEN)), sigma=_D2_SIGMA)
    grid = [nd.inv_cdf((i + 0.5) / n_traces) for i in range(n_traces)]
    lengths = np.clip(np.round(np.exp(grid)), 3, _D2_MAX_RAW_LEN).astype(np.int64)
    lengths = lengths[rng.permutation(n_traces)]
    family = rng.integers(0, _D2_FAMILIES, size=n_traces)
    width = int(lengths.max())
    calls = np.empty((n_traces, width), dtype=np.int64)
    for f in range(_D2_FAMILIES):
        idx = np.flatnonzero(family == f)
        if len(idx):
            calls[idx] = _walk(rng, chains[f], len(idx), width)
    return Corpus(calls=calls, lengths=lengths, labels=None, vocab=D2_VOCAB)


def shape(corpus: Corpus) -> dict:
    """Traces, mean and maximum length, class ratio, distinct 2-/3-grams."""
    lengths = corpus.lengths
    V = corpus.vocab
    out = {"traces": int(len(lengths)), "vocab": V,
           "mean_len": round(float(lengths.mean()), 3),
           "max_len": int(lengths.max()), "calls": int(lengths.sum())}
    for n in (2, 3):
        keys = np.zeros(0, dtype=np.int64)
        width = corpus.calls.shape[1]
        if width >= n:
            code = np.zeros((len(lengths), width - n + 1), dtype=np.int64)
            for j in range(n):
                code = code * V + corpus.calls[:, j:width - n + 1 + j]
            valid = np.arange(width - n + 1)[None, :] < (lengths - n + 1)[:, None]
            keys = code[valid]
        out[f"distinct_{n}grams"] = int(len(np.unique(keys)))
    if corpus.labels is not None:
        mal = int(corpus.labels.sum())
        good = int(len(lengths) - mal)
        out["malware"] = mal
        out["goodware"] = good
        out["malware_per_goodware"] = round(mal / max(good, 1), 3)
    return out
