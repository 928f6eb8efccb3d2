"""Gradient-boosted decision trees with logistic loss, plus a three-member
bagged ensemble for malware detection.

Training is Newton boosting: with current probability p, each sample
contributes gradient g = p - y and hessian h = p(1 - p); a leaf's weight is
-G/(H + lambda) over its samples and a split's gain is

    0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)) - gamma.

Splits are found by exact greedy search over the sorted unique values of
every feature: each (feature, distinct value) pair, 0.0 included, is coded
once as a global bin, and a node's candidate splits are scored from per-bin
histograms of g and h, which is equivalent to scanning the sorted column but
shares work across features. Thresholds are midpoints between adjacent
distinct values; samples with value <= threshold go left, in training as in
prediction, so feature values must be finite. Ties are broken toward the
lowest feature index, then the lowest threshold, so training is
deterministic. A round adds to each training row the weight of the leaf
growth put it in; nothing is re-predicted.

Prediction has one path for any number of rows (one vector is a 1-row
matrix): a member's trees, packed once into flat node arrays, descend
together level by level over a dense block of the columns they split on,
and leaf weights are summed in tree order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse

from .corpus import _LineReader
from .ngrams import NGramVocabulary, _config_lines, _fmt, _read_config, _sigmoid

# Rows descended together; bounds the dense split-column block and the
# (rows, trees) node matrix whatever the number of rows scored.
_ROW_BLOCK = 64


@dataclass(frozen=True)
class GbdtConfig:
    learning_rate: float = 0.1
    max_depth: int = 5
    n_estimators: int = 300
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_hessian: float = 1.0
    seed: int = 42

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0,1], got {self.learning_rate}")
        if not 1 <= self.max_depth <= 16:
            raise ValueError(f"max_depth must be in [1,16], got {self.max_depth}")
        if self.n_estimators < 0:
            raise ValueError("n_estimators must be >= 0")
        if self.reg_lambda < 0 or self.gamma < 0 or self.min_child_hessian < 0:
            raise ValueError("regularization parameters must be >= 0")


def default_bagging_configs() -> list[GbdtConfig]:
    """The three member configurations: learning rates 0.01/0.05/0.1,
    depths 4/3/5, estimator counts 100/200/300."""
    return [
        GbdtConfig(learning_rate=0.01, max_depth=4, n_estimators=100),
        GbdtConfig(learning_rate=0.05, max_depth=3, n_estimators=200),
        GbdtConfig(learning_rate=0.1, max_depth=5, n_estimators=300),
    ]


@dataclass
class RegressionTree:
    """Flattened binary tree; feature[i] < 0 marks node i as a leaf."""

    feature: np.ndarray    # int32
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32
    right: np.ndarray      # int32
    weight: np.ndarray     # float64, leaf weights
    gain: np.ndarray       # float64, split gains

    def n_nodes(self) -> int:
        return len(self.feature)


def as_feature_matrix(X, dim: int | None = None) -> sparse.csr_matrix:
    """Accept a list of 1-row matrices, a dense array, or a CSR matrix. A
    float64 CSR matrix is returned as is, not copied."""
    if sparse.issparse(X):
        return X.tocsr().astype(np.float64, copy=False)
    if isinstance(X, np.ndarray):
        return sparse.csr_matrix(X.astype(np.float64))
    rows = list(X)
    if not rows:
        raise ValueError("empty feature matrix")
    dims = {row.shape[1] for row in rows} | ({dim} if dim is not None else set())
    if len(dims) > 1:
        raise ValueError(f"feature dimension mismatch: {sorted(dims)}")
    return sparse.vstack(rows, format="csr").astype(np.float64, copy=False)


def _check_finite(X: sparse.csr_matrix) -> None:
    """Refuse a nan or infinite entry, naming the first one stored."""
    bad = np.flatnonzero(~np.isfinite(X.data))[:1]
    if bad.size:
        row = np.searchsorted(X.indptr, bad[0], side="right") - 1
        raise ValueError(f"entry ({row},{X.indices[bad[0]]}) holds {X.data[bad[0]]}; "
                         "feature values must be finite")


class _CodedMatrix:
    """Global bin coding of a CSR matrix for exact greedy splits.

    Each (column, distinct value) pair, 0.0 included, is one bin; bins run
    column by column, values ascending. `values[b]` is bin b's value,
    `offsets[j]` column j's first bin and `zero_bin[j]` its bin for 0.0,
    which also holds the implicit zeros. The CSR matrix stores each
    nonzero's bin + 1, so the sparse structure never holds an explicit zero;
    its CSC twin serves routing.
    """

    def __init__(self, X: sparse.csr_matrix):
        X = X.tocsr().astype(np.float64)
        X.sum_duplicates()
        X.eliminate_zeros()
        self.n, self.n_features = X.shape
        # every stored entry, then one 0.0 per column
        cols = np.concatenate([X.indices, np.arange(self.n_features)])
        vals = np.concatenate([X.data, np.zeros(self.n_features)])
        order = np.lexsort((vals, cols))
        cols, vals = cols[order], vals[order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = (cols[1:] != cols[:-1]) | (vals[1:] != vals[:-1])
        bins = np.empty(len(order), dtype=np.int64)
        bins[order] = np.cumsum(starts) - 1
        self.values = vals[starts]
        self.offsets = np.searchsorted(cols[starts], np.arange(self.n_features + 1))
        self.n_bins = len(self.values)
        self.zero_bin = bins[X.nnz:]
        self._coded_csr = sparse.csr_matrix((bins[:X.nnz] + 1, X.indices, X.indptr), X.shape)
        self._coded_csc = self._coded_csr.tocsc()

    def column_bins(self, j: int) -> np.ndarray:
        """Every row's bin in column j."""
        out = np.full(self.n, self.zero_bin[j])
        s, e = self._coded_csc.indptr[j], self._coded_csc.indptr[j + 1]
        out[self._coded_csc.indices[s:e]] = self._coded_csc.data[s:e] - 1
        return out

    def node_histograms(self, rows: np.ndarray, g: np.ndarray, h: np.ndarray):
        """Per-bin sums of g, h and sample counts for the given rows, with
        implicit zeros folded into each column's zero bin."""
        sub = self._coded_csr[rows]
        per_row = np.diff(sub.indptr)
        g_rows, h_rows = g[rows], h[rows]
        g_rep = np.repeat(g_rows, per_row)
        h_rep = np.repeat(h_rows, per_row)
        key = sub.data - 1
        # bincount yields int64 on empty input regardless of the weights dtype
        hist_g = np.bincount(key, weights=g_rep, minlength=self.n_bins).astype(np.float64)
        hist_h = np.bincount(key, weights=h_rep, minlength=self.n_bins).astype(np.float64)
        hist_n = np.bincount(key, minlength=self.n_bins)
        cols = sub.indices
        col_g = np.bincount(cols, weights=g_rep, minlength=self.n_features).astype(np.float64)
        col_h = np.bincount(cols, weights=h_rep, minlength=self.n_features).astype(np.float64)
        col_n = np.bincount(cols, minlength=self.n_features)
        hist_g[self.zero_bin] += g_rows.sum() - col_g
        hist_h[self.zero_bin] += h_rows.sum() - col_h
        hist_n[self.zero_bin] += len(rows) - col_n
        return hist_g, hist_h, hist_n


def _segment_cumsum(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Cumulative sums restarting at each column's first bin."""
    cs = np.cumsum(flat)
    starts = offsets[:-1]
    return cs - np.repeat(cs[starts] - flat[starts], np.diff(offsets))


def _best_split(coded: _CodedMatrix, hist_g, hist_h, hist_n,
                total_g, total_h, n_node, cfg: GbdtConfig):
    """Scan every candidate split at once; returns (feature, bin, gain) or
    None if no candidate has positive gain and admissible child hessians.

    Ties resolve to the lowest feature index, then the lowest threshold,
    because bins are ordered by (feature, value) and argmax takes the first
    maximum.
    """
    lam = cfg.reg_lambda
    offsets = coded.offsets
    left_g = _segment_cumsum(hist_g, offsets)
    left_h = _segment_cumsum(hist_h, offsets)
    left_n = _segment_cumsum(hist_n, offsets)
    right_g = total_g - left_g
    right_h = total_h - left_h
    valid = ((left_n > 0) & (left_n < n_node)
             & (left_h >= cfg.min_child_hessian)
             & (right_h >= cfg.min_child_hessian))
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 0.5 * (left_g ** 2 / (left_h + lam)
                      + right_g ** 2 / (right_h + lam)
                      - total_g ** 2 / (total_h + lam)) - cfg.gamma
    gain[~valid] = -np.inf
    b = int(np.argmax(gain))
    best = gain[b]
    if not np.isfinite(best) or best <= 0.0:
        return None
    return int(np.searchsorted(offsets, b, side="right")) - 1, b, float(best)


def _grow_tree(coded: _CodedMatrix, rows: np.ndarray, g: np.ndarray,
               h: np.ndarray, cfg: GbdtConfig) -> tuple[RegressionTree, np.ndarray]:
    """Grow one tree; also returns each row's leaf weight (0 outside rows)."""
    row_weight = np.zeros(coded.n)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    weight: list[float] = []
    gain: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        weight.append(0.0)
        gain.append(0.0)
        return len(feature) - 1

    stack = [(new_node(), rows, 0)]
    while stack:
        node, node_rows, depth = stack.pop()
        total_g = float(g[node_rows].sum())
        total_h = float(h[node_rows].sum())
        split = None
        hist_n = None
        if depth < cfg.max_depth and len(node_rows) >= 2:
            hist_g, hist_h, hist_n = coded.node_histograms(node_rows, g, h)
            split = _best_split(coded, hist_g, hist_h, hist_n, total_g, total_h,
                                len(node_rows), cfg)
        if split is None:
            weight[node] = -total_g / (total_h + cfg.reg_lambda)
            row_weight[node_rows] = weight[node]
            continue
        j, b, best_gain = split
        nxt = b + 1 + int(np.flatnonzero(hist_n[b + 1:coded.offsets[j + 1]])[0])
        thr = 0.5 * (coded.values[b] + coded.values[nxt])
        # by value, as prediction routes: a midpoint can round onto values[nxt]
        go_left = coded.values[coded.column_bins(j)[node_rows]] <= thr
        feature[node] = j
        threshold[node] = thr
        gain[node] = best_gain
        l_id, r_id = new_node(), new_node()
        left[node], right[node] = l_id, r_id
        stack.append((r_id, node_rows[~go_left], depth + 1))
        stack.append((l_id, node_rows[go_left], depth + 1))

    tree = RegressionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        weight=np.asarray(weight, dtype=np.float64),
        gain=np.asarray(gain, dtype=np.float64))
    return tree, row_weight


class _Forest:
    """A member's trees packed into flat node arrays, built once per model.

    Child indices are global and a leaf is its own left and right child, so
    `depth` levels of descent leave every row of every tree at its leaf.
    `position` maps each matrix column to its index in `columns`, the
    columns the trees split on, or to -1; `feature` holds those indices.
    """

    def __init__(self, trees: list[RegressionTree], n_features: int):
        offsets = np.cumsum([0] + [t.n_nodes() for t in trees])

        def cat(attr: str, dtype) -> np.ndarray:
            return np.concatenate([getattr(t, attr) for t in trees] + [np.zeros(0, dtype)])

        self.roots = offsets[:-1]
        own = np.arange(offsets[-1])
        node_offset = np.repeat(self.roots, np.diff(offsets))
        feature = cat("feature", np.int64)
        split = feature >= 0
        self.left = np.where(split, cat("left", np.int64) + node_offset, own)
        self.right = np.where(split, cat("right", np.int64) + node_offset, own)
        self.threshold = cat("threshold", np.float64)
        self.weight = cat("weight", np.float64)
        self.columns = np.unique(feature[split])
        self.position = np.full(n_features, -1)
        self.position[self.columns] = np.arange(len(self.columns))
        self.feature = np.where(split, self.position[feature], 0)
        self.depth, frontier = 0, self.roots[split[self.roots]]
        while len(frontier):
            frontier = np.concatenate([self.left[frontier], self.right[frontier]])
            frontier = frontier[split[frontier]]
            self.depth += 1


@dataclass
class GbdtModel:
    trees: list[RegressionTree]
    base_score: float
    config: GbdtConfig
    n_features: int
    feature_gain: dict[int, float]
    train_loss: list[float]  # mean logistic loss after each round; not persisted

    @cached_property
    def _forest(self) -> _Forest:
        return _Forest(self.trees, self.n_features)


def predict_margin_rows(model: GbdtModel, X) -> np.ndarray:
    """Margins of every row: all trees descend at once, level by level, and
    the leaf weights are summed in tree order after the base score."""
    X = as_feature_matrix(X, model.n_features)
    if X.shape[1] != model.n_features:
        raise ValueError(f"feature dimension mismatch: {X.shape[1]} != {model.n_features}")
    forest = model._forest
    margins = np.empty(X.shape[0])
    for start in range(0, X.shape[0], _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, X.shape[0])
        # the block's rows, dense over the split columns only
        lo, hi = X.indptr[start], X.indptr[stop]
        pos = forest.position[X.indices[lo:hi]]
        rows = np.repeat(np.arange(stop - start), np.diff(X.indptr[start:stop + 1]))
        block = np.zeros((stop - start, len(forest.columns)))
        np.add.at(block, (rows[pos >= 0], pos[pos >= 0]), X.data[lo:hi][pos >= 0])
        row_offset = np.arange(stop - start)[:, None] * block.shape[1]
        node = np.tile(forest.roots, (stop - start, 1))
        for _ in range(forest.depth):
            values = block.take(forest.feature[node] + row_offset)
            node = np.where(values <= forest.threshold[node],
                            forest.left[node], forest.right[node])
        terms = np.empty((stop - start, len(forest.roots) + 1))
        terms[:, 0] = model.base_score
        terms[:, 1:] = model.config.learning_rate * forest.weight[node]
        # cumsum adds left to right, the order of one-tree-at-a-time updates
        margins[start:stop] = np.cumsum(terms, axis=1)[:, -1]
    return margins


def predict_proba_rows(model: GbdtModel, X) -> np.ndarray:
    return _sigmoid(predict_margin_rows(model, X))


def predict_proba(model: GbdtModel, x: sparse.csr_matrix) -> float:
    """Probability of the positive (malware) class for one 1-row matrix."""
    return float(predict_proba_rows(model, x)[0])


def _mean_logloss(y: np.ndarray, p: np.ndarray) -> float:
    eps = 1e-15
    p = np.clip(p, eps, 1 - eps)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


def train_gbdt(X, y, config: GbdtConfig, base_score: float | None = None) -> GbdtModel:
    """Fit one boosted-tree model.

    base_score defaults to the log-odds of the training positive rate.
    Raises on single-class labels or an empty feature space.
    """
    Xc = as_feature_matrix(X)
    y = np.asarray(y, dtype=np.float64)
    if Xc.shape[0] != len(y):
        raise ValueError(f"got {Xc.shape[0]} rows but {len(y)} labels")
    if Xc.shape[1] == 0:
        raise ValueError("empty feature space")
    _check_finite(Xc)
    positives = float(y.sum())
    if base_score is None:
        if positives == 0 or positives == len(y):
            raise ValueError("labels contain a single class")
        rate = positives / len(y)
        base_score = float(np.log(rate / (1.0 - rate)))
    coded = _CodedMatrix(Xc)
    all_rows = np.arange(Xc.shape[0])
    margins = np.full(Xc.shape[0], base_score)
    trees: list[RegressionTree] = []
    losses: list[float] = []
    for _ in range(config.n_estimators):
        p = _sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        tree, row_weight = _grow_tree(coded, all_rows, g, h, config)
        trees.append(tree)
        margins = margins + config.learning_rate * row_weight
        losses.append(_mean_logloss(y, _sigmoid(margins)))
    gain_map: dict[int, float] = {}
    for tree in trees:
        for i in range(tree.n_nodes()):
            f = int(tree.feature[i])
            if f >= 0:
                gain_map[f] = gain_map.get(f, 0.0) + float(tree.gain[i])
    return GbdtModel(trees=trees, base_score=float(base_score), config=config,
                     n_features=Xc.shape[1], feature_gain=gain_map,
                     train_loss=losses)


@dataclass
class BaggedDetector:
    members: list[GbdtModel]
    threshold: float = 0.5
    combine: str = "mean"       # "mean" averages probabilities, "majority" votes
    vocab_ref: str = ""

    def __post_init__(self) -> None:
        if len(self.members) != 3:
            raise ValueError(f"a bagged detector has exactly 3 members, got {len(self.members)}")
        dims = {m.n_features for m in self.members}
        if len(dims) != 1:
            raise ValueError(f"members trained on different feature spaces: {sorted(dims)}")
        if self.combine not in ("mean", "majority"):
            raise ValueError(f"unknown combination rule {self.combine!r}")

    @property
    def n_features(self) -> int:
        return self.members[0].n_features


def train_bagged(X, y, configs: list[GbdtConfig] | None = None, seed: int = 42,
                 bootstrap: bool = True, combine: str = "mean",
                 threshold: float = 0.5, vocab_ref: str = "") -> BaggedDetector:
    """Train the three-member ensemble. Member i sees an independent
    bootstrap resample (same size, with replacement, seeded seed+i) unless
    bootstrap is disabled, in which case all members see the full data."""
    if configs is None:
        configs = default_bagging_configs()
    if len(configs) != 3:
        raise ValueError(f"exactly 3 member configs required, got {len(configs)}")
    Xc = as_feature_matrix(X)
    _check_finite(Xc)  # before resampling, so the entry keeps its row
    y = np.asarray(y, dtype=np.float64)
    members = []
    for i, cfg in enumerate(configs):
        cfg = replace(cfg, seed=seed + i)
        if bootstrap:
            rng = np.random.default_rng(seed + i)
            picks = rng.integers(0, Xc.shape[0], size=Xc.shape[0])
            members.append(train_gbdt(Xc[picks], y[picks], cfg))
        else:
            members.append(train_gbdt(Xc, y, cfg))
    return BaggedDetector(members=members, threshold=threshold,
                          combine=combine, vocab_ref=vocab_ref)


def _combine(detector: BaggedDetector, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """probs has one row per member; returns (labels, mean scores)."""
    score = probs.mean(axis=0)
    if detector.combine == "majority":
        votes = (probs >= detector.threshold).sum(axis=0)
        label = (votes >= 2).astype(np.int64)
    else:
        label = (score >= detector.threshold).astype(np.int64)
    return label, score


def ensemble_predict(detector: BaggedDetector, x: sparse.csr_matrix) -> tuple[int, float]:
    label, score = ensemble_predict_rows(detector, x)
    return int(label[0]), float(score[0])


def ensemble_predict_rows(detector: BaggedDetector, X) -> tuple[np.ndarray, np.ndarray]:
    X = as_feature_matrix(X, detector.n_features)
    probs = np.stack([predict_proba_rows(m, X) for m in detector.members])
    return _combine(detector, probs)


def rank_features(detector: BaggedDetector, vocab: NGramVocabulary,
                  k: int) -> list[tuple[tuple[int, ...], float]]:
    """Top-k n-grams by gain importance, summed over all members' trees and
    normalized to total 1. Ties break toward the lower column index."""
    total_gain = np.zeros(detector.n_features)
    for member in detector.members:
        for col, gval in member.feature_gain.items():
            total_gain[col] += gval
    total = total_gain.sum()
    importance = total_gain / total if total > 0 else total_gain
    order = sorted(range(detector.n_features), key=lambda c: (-importance[c], c))
    ngrams = vocab.column_ngrams()
    return [(ngrams[c], float(importance[c])) for c in order[:k]]


# --- persistence -------------------------------------------------------------

_FORMAT_TAG = "apisentry-detector v1"


def save_detector(detector: BaggedDetector, path: str | Path) -> None:
    lines = [_FORMAT_TAG,
             f"combine {detector.combine}",
             f"threshold {_fmt(detector.threshold)}",
             f"n_features {detector.n_features}",
             f"vocab_ref {detector.vocab_ref}",
             f"members {len(detector.members)}"]
    for i, m in enumerate(detector.members):
        lines.append(f"member {i}")
        lines += _config_lines(m.config)
        lines.append(f"base_score {_fmt(m.base_score)}")
        lines.append(f"trees {len(m.trees)}")
        for t, tree in enumerate(m.trees):
            lines.append(f"tree {t} {tree.n_nodes()}")
            for node in range(tree.n_nodes()):
                if tree.feature[node] >= 0:
                    lines.append(
                        f"s {tree.feature[node]} {_fmt(tree.threshold[node])} "
                        f"{tree.left[node]} {tree.right[node]} {_fmt(tree.gain[node])}")
                else:
                    lines.append(f"l {_fmt(tree.weight[node])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_detector(path: str | Path) -> BaggedDetector:
    with _LineReader(path) as reader:
        if reader.next() != _FORMAT_TAG:
            raise ValueError("not a detector file")
        combine = reader.field("combine")
        threshold = float(reader.field("threshold"))
        n_features = int(reader.field("n_features"))
        vocab_ref = reader.field("vocab_ref")
        n_members = int(reader.field("members"))
        members = []
        for i in range(n_members):
            reader.field("member")
            cfg = _read_config(reader, GbdtConfig)
            base_score = float(reader.field("base_score"))
            n_trees = int(reader.field("trees"))
            trees = []
            gain_map: dict[int, float] = {}
            for _ in range(n_trees):
                # node lines are read before any array is sized, so a node
                # count beyond the end of the file allocates nothing
                n_nodes = int(reader.field("tree").split()[1])
                if n_nodes < 1:
                    raise ValueError("a tree has at least one node")
                nodes = []
                for node in range(n_nodes):
                    parts = reader.next().split()
                    if parts[:1] == ["s"]:
                        f, thr, lo, hi, g = (int(parts[1]), float(parts[2]), int(parts[3]),
                                             int(parts[4]), float(parts[5]))
                        # children come after their parent, so descent ends
                        if not (0 <= f < n_features and node < lo < n_nodes
                                and node < hi < n_nodes):
                            raise ValueError(f"split node out of range {parts!r}")
                        nodes.append((f, thr, lo, hi, 0.0, g))
                        gain_map[f] = gain_map.get(f, 0.0) + g
                    elif parts[:1] == ["l"]:
                        nodes.append((-1, 0.0, -1, -1, float(parts[1]), 0.0))
                    else:
                        raise ValueError(f"bad node line {parts!r}")
                columns = list(zip(*nodes))
                feature, left, right = (np.array(columns[i], dtype=np.int32) for i in (0, 2, 3))
                thresholds, weight, gains = (np.array(columns[i], dtype=np.float64)
                                             for i in (1, 4, 5))
                trees.append(RegressionTree(feature, thresholds, left, right, weight, gains))
            members.append(GbdtModel(trees=trees, base_score=base_score, config=cfg,
                                     n_features=n_features, feature_gain=gain_map,
                                     train_loss=[]))
        return BaggedDetector(members=members, threshold=threshold,
                              combine=combine, vocab_ref=vocab_ref)
