"""Gradient-boosted decision trees with logistic loss, plus a three-member
bagged ensemble for malware detection.

Training is Newton boosting with integer row weights: with current
probability p, a row of label y and weight w counts as w samples of gradient
g = p - y and hessian h = p(1 - p); a leaf's weight is -G/(H + lambda) over
its rows' weighted sums and a split's gain is

    0.5 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)) - gamma.

Splits are found by exact greedy search over the sorted unique values of
every feature: columns equal on the training rows are coded once, as the
lowest of them, each (column, distinct value) pair, 0.0 included, is one
global bin, and a node's candidate splits are scored from per-bin histograms
of w*g, w*h and w, as a scan of each sorted column would. Thresholds are
midpoints between adjacent distinct values, or the lower value where the
midpoint rounds onto the upper one; samples with value <= threshold go left,
so feature values must be finite. Training routes a split node's rows by
bin, from the entries its histograms were built from: a column's bins ascend
with its values, so the same rows go left as in prediction. Ties go to the
lowest coded column, then the lowest threshold, so training is deterministic;
columns that differ but split a node alike may tie up to rounding either
way. A gain within a few ulps of the parent term is rounding: no split.
Growth skips work whose answer is known: a node is a leaf, with no histogram
built and no split scanned, if its hessian sum is below twice
min_child_hessian (less a few ulps), so no two children are both
admissible, or if its rows share one (g, h), so no split gains; the root,
the same rows in every tree, keeps its entries and cumulative counts once
per model. A round adds to each training row the weight of the leaf growth
put it in; nothing is re-predicted and no round loss is computed.
`train_gbdt` weighs every row 1; a bagged member's bootstrap resample is
integer weights over one coding of the distinct training rows.

Feature matrices are ngrams.CsrMatrix records, where a stored 0.0 is an
absent entry. Prediction has one path for any number of rows (one vector is
a 1-row matrix): a member's trees, packed once into flat node arrays,
descend together level by level over a dense block of the columns they
split on, and leaf weights are summed in tree order.

A feature's gain importance is the total gain of the split nodes that test
it, read off the trees: they are a member's only record of its splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import _LineReader, _finite, _float, _int
from .ngrams import CsrMatrix, NGramVocabulary, _config_lines, _format_rows, _read_config, _sigmoid

# Rows descended together; bounds the dense split-column block and the
# (rows, trees) node matrix whatever the number of rows scored.
_ROW_BLOCK = 64
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class GbdtConfig:
    learning_rate: float = 0.1
    max_depth: int = 5
    n_estimators: int = 300
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_hessian: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0,1], got {self.learning_rate}")
        if not 1 <= self.max_depth <= 16:
            raise ValueError(f"max_depth must be in [1,16], got {self.max_depth}")
        if self.n_estimators < 0:
            raise ValueError("n_estimators must be >= 0")
        for name in ("reg_lambda", "gamma", "min_child_hessian"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
            if getattr(self, name) == np.inf:
                raise ValueError(f"{name} must be finite, got inf")


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

    @classmethod
    def from_nodes(cls, nodes) -> RegressionTree:
        """The tree whose node i is the row nodes[i] = [feature, threshold,
        left, right, weight, gain] of a list or array; a leaf's feature and
        children are -1, its threshold and gain 0, and a split's weight 0."""
        feature, threshold, left, right, weight, gain = np.array(nodes, dtype=np.float64).T.copy()
        return cls(feature.astype(np.int32), threshold, left.astype(np.int32),
                   right.astype(np.int32), weight, gain)

    def n_nodes(self) -> int:
        return len(self.feature)


def as_feature_matrix(X, dim: int | None = None) -> CsrMatrix:
    """A CsrMatrix, returned as is, or a non-empty list of them, stacked row
    after row. Its values must be finite and, with dim given, its columns dim."""
    parts = [X] if isinstance(X, CsrMatrix) else list(X)
    if not parts or not all(isinstance(part, CsrMatrix) for part in parts):
        raise ValueError("a feature matrix is a CsrMatrix or a non-empty list of them")
    dims = {part.shape[1] for part in parts} | ({dim} if dim is not None else set())
    if len(dims) > 1:
        raise ValueError(f"feature dimension mismatch: {sorted(dims)}")
    X = parts[0] if len(parts) == 1 else CsrMatrix(
        np.concatenate([part.data for part in parts]),
        np.concatenate([part.indices for part in parts]),
        np.cumsum(np.concatenate([[0]] + [np.diff(part.indptr) for part in parts])),
        (sum(part.shape[0] for part in parts), dims.pop()))
    X.refuse(np.isfinite(X.data), "feature values must be finite")
    return X


def _distinct(tags, indptr: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each segment's number among the distinct ones, in order of first
    appearance, and the first of each; segment i is tags[i] and the bytes of
    indptr[i]:indptr[i + 1] in every array."""
    keys: dict = {}
    blobs = [(a.tobytes(), a.itemsize) for a in arrays]
    spans = zip(tags, indptr[:-1].tolist(), indptr[1:].tolist())
    inverse = np.array([keys.setdefault((tag, *(b[n * s:n * e] for b, n in blobs)), len(keys))
                        for tag, s, e in spans], np.int64)
    return inverse, np.unique(inverse, return_index=True)[1]


class _CodedMatrix:
    """Global bin coding of a feature matrix for exact greedy splits.

    Columns equal in their stored rows and values share one coded column c,
    named by the lowest of them, `features[c]`. Each (coded column, distinct
    value) pair, 0.0 included, is one bin; bins run coded column by coded
    column, values ascending. `values[b]` is bin b's value, `column[b]` its
    coded column, `offsets[c]` c's first bin and `zero_bin[c]` its bin for
    0.0, which also holds the implicit and the stored zeros. `coded` holds
    every other entry's bin, in the coded columns.
    """

    def __init__(self, X: CsrMatrix):
        self.n, self.n_features = X.shape
        if not self.n_features:
            raise ValueError("empty feature space")
        kept = X.data != 0
        rows = np.repeat(np.arange(self.n), np.diff(X.indptr))[kept]
        cols, vals = X.indices[kept], X.data[kept]
        by_col = np.argsort(cols, kind="stable")  # each column's entries, rows ascending
        col_ptr = np.searchsorted(cols[by_col], np.arange(self.n_features + 1))
        group, self.features = _distinct([0] * self.n_features, col_ptr, rows[by_col],
                                         vals[by_col])
        kept[kept] = self.features[group[cols]] == cols  # entries of the lowest columns
        indptr = np.concatenate([[0], np.cumsum(kept)])[X.indptr]
        nnz, n_coded, coded_cols = int(indptr[-1]), len(self.features), group[X.indices[kept]]
        # every kept entry, then one 0.0 per coded column
        cols = np.concatenate([coded_cols, np.arange(n_coded)])
        vals = np.concatenate([X.data[kept], np.zeros(n_coded)])
        order = np.lexsort((vals, cols))
        cols, vals = cols[order], vals[order]
        starts = np.append(True, (cols[1:] != cols[:-1]) | (vals[1:] != vals[:-1]))
        bins = np.empty(len(order), dtype=np.int64)
        bins[order] = np.cumsum(starts) - 1
        self.values, self.column = vals[starts], cols[starts]
        self.offsets = np.searchsorted(self.column, np.arange(n_coded + 1))
        self.n_bins = len(self.values)
        self.zero_bin = bins[nnz:]
        self.coded = CsrMatrix(bins[:nnz], coded_cols, indptr, (self.n, n_coded))

    def histograms(self, sub: CsrMatrix, *per_row: np.ndarray) -> list[np.ndarray]:
        """Per-bin sums of each array of per-row values over `sub`, a gather
        of distinct, ascending rows of `coded`, with implicit zeros folded
        into each column's zero bin."""
        entries = np.diff(sub.indptr)
        sums = []
        for v in per_row:
            rep = np.repeat(v, entries)
            # bincount yields int64 on empty input regardless of the weights dtype
            hist = np.bincount(sub.data, weights=rep, minlength=self.n_bins).astype(np.float64)
            hist[self.zero_bin] += v.sum() - np.bincount(sub.indices, weights=rep,
                                                         minlength=len(self.features))
            sums.append(hist)
        return sums


def _segment_cumsum(flat: np.ndarray, coded: _CodedMatrix) -> np.ndarray:
    """Cumulative sums over the bins, restarting at each column's first bin."""
    cs = np.cumsum(flat)
    starts = coded.offsets[:-1]
    return cs - (cs[starts] - flat[starts])[coded.column]


def _best_split(coded: _CodedMatrix, hist_g, hist_h, left_n,
                total_g, total_h, n_node, cfg: GbdtConfig):
    """Scan every candidate split at once; returns (coded column, bin, gain) or
    None if no candidate has admissible child hessians and a gain above the
    rounding of the parent term. `left_n` is the node's weighted per-bin
    counts, cumulated by _segment_cumsum, and n_node their total.

    Ties resolve to the lowest coded column, then the lowest threshold,
    because bins are ordered by (coded column, value) and argmax takes the
    first maximum; columns that differ but split the node alike may have
    gains apart in their last bits.
    """
    lam = cfg.reg_lambda
    left_g = _segment_cumsum(hist_g, coded)
    left_h = _segment_cumsum(hist_h, coded)
    right_g = total_g - left_g
    right_h = total_h - left_h
    valid = ((left_n > 0) & (left_n < n_node)
             & (left_h >= cfg.min_child_hessian)
             & (right_h >= cfg.min_child_hessian))
    parent = total_g ** 2 / (total_h + lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 0.5 * (left_g ** 2 / (left_h + lam)
                      + right_g ** 2 / (right_h + lam)
                      - parent) - cfg.gamma
    gain[~(valid & np.isfinite(gain))] = -np.inf
    b = int(np.argmax(gain))
    best = gain[b]
    # a gain within a few ulps of the parent term is rounding, not a split
    if not np.isfinite(best) or best <= 4 * _EPS * parent:
        return None
    return int(coded.column[b]), b, float(best)


def _grow_tree(coded: _CodedMatrix, g: np.ndarray, h: np.ndarray, w: np.ndarray,
               root: tuple, cfg: GbdtConfig) -> tuple[RegressionTree, np.ndarray]:
    """Grow one tree over root = (rows, their coded entries, their
    cumulated weighted per-bin counts), the rows of weight above 0; also
    returns each row's leaf weight, 0 outside the root.

    A node whose rows all have g = a and h = b is a leaf unscanned: a split
    into weights m and n - m gains 0.5 * (f(m) + f(n - m) - f(n)) - gamma
    with f(m) = a^2 m^2 / (b m + lambda), convex with f(0) = 0, so at most
    -gamma; at lambda = 0 it is 0 up to rounding, which _best_split refuses."""
    row_weight = np.zeros(coded.n)
    nodes: list = [None]
    stack = [(0, root[0], 0)]
    while stack:
        node, rows, depth = stack.pop()
        g_rows, h_rows, w_rows = g[rows], h[rows], w[rows]
        wg, wh = w_rows * g_rows, w_rows * h_rows
        total_g, total_h, n_node = float(wg.sum()), float(wh.sum()), float(w_rows.sum())
        split = None
        # below this, fl(total_h - left_h) < mch whenever left_h >= mch: _best_split finds nothing
        if (depth < cfg.max_depth and n_node >= 2
                and total_h >= 2 * cfg.min_child_hessian * (1 - 4 * _EPS)
                and (np.ptp(g_rows) > 0 or np.ptp(h_rows) > 0)):
            if node == 0:
                _, sub, left_n = root
                hist_g, hist_h = coded.histograms(sub, wg, wh)
            else:
                sub = coded.coded.take(rows)
                hist_g, hist_h, hist_n = coded.histograms(sub, wg, wh, w_rows)
                left_n = _segment_cumsum(hist_n, coded)
            split = _best_split(coded, hist_g, hist_h, left_n, total_g, total_h, n_node, cfg)
        if split is None:
            leaf = -total_g / (total_h + cfg.reg_lambda)
            nodes[node] = [-1, 0.0, -1, -1, leaf, 0.0]
            row_weight[rows] = leaf
            continue
        j, b, best_gain = split
        # the next bin of coded column j that holds a row of the node
        nxt = b + 1 + int(np.flatnonzero(left_n[b + 1:coded.offsets[j + 1]] > left_n[b])[0])
        thr = 0.5 * (coded.values[b] + coded.values[nxt])
        if thr == coded.values[nxt]:  # the midpoint rounded up: only values[b] separates
            thr = coded.values[b]
        # no row of the node holds a bin between b and nxt: bin <= b is value <= thr
        go_left = np.full(len(rows), coded.zero_bin[j] <= b)
        at = np.flatnonzero(sub.indices == j)
        go_left[np.searchsorted(sub.indptr, at, side="right") - 1] = sub.data[at] <= b
        nodes[node] = [coded.features[j], thr, len(nodes), len(nodes) + 1, 0.0, best_gain]
        stack.append((len(nodes) + 1, rows[~go_left], depth + 1))
        stack.append((len(nodes), rows[go_left], depth + 1))
        nodes += [None, None]
    return RegressionTree.from_nodes(nodes), row_weight


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

    @cached_property
    def _forest(self) -> _Forest:
        return _Forest(self.trees, self.n_features)


def predict_margin_rows(model: GbdtModel, X) -> np.ndarray:
    """Margins of every row: all trees descend at once, level by level, and
    the leaf weights are summed in tree order after the base score."""
    X = as_feature_matrix(X, model.n_features)
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


def _binary_labels(y, rows: int) -> np.ndarray:
    """y as floats, refused unless it holds one 0 or 1 per matrix row."""
    y = np.asarray(y)
    if y.shape != (rows,):
        raise ValueError(f"got {rows} rows but {y.size} labels")
    bad = y[(y != 0) & (y != 1)].tolist()
    if bad:
        raise ValueError(f"labels must be 0 or 1, got {bad[0]!r}")
    return y.astype(np.float64)


def _boost(coded: _CodedMatrix, y: np.ndarray, w: np.ndarray, config: GbdtConfig,
           base_score: float | None) -> GbdtModel:
    """The boosting loop over coded rows, row r of label y[r] counting w[r]
    times, as train_gbdt describes; a row of weight 0 is not trained on."""
    w = np.asarray(w, dtype=np.float64)
    if base_score is None:
        positives, total = float((w * y).sum()), float(w.sum())
        if positives == 0 or positives == total:
            raise ValueError("labels contain a single class")
        rate = positives / total
        base_score = float(np.log(rate / (1.0 - rate)))
    # the root: the same rows, entries and counts in every tree
    rows = np.flatnonzero(w > 0)
    sub = coded.coded.take(rows)
    root = rows, sub, _segment_cumsum(coded.histograms(sub, w[rows])[0], coded)
    margins = np.full(coded.n, base_score)
    trees: list[RegressionTree] = []
    for _ in range(config.n_estimators):
        p = _sigmoid(margins)
        tree, row_weight = _grow_tree(coded, p - y, p * (1.0 - p), w, root, config)
        trees.append(tree)
        margins = margins + config.learning_rate * row_weight
    return GbdtModel(trees=trees, base_score=float(base_score), config=config,
                     n_features=coded.n_features)


def train_gbdt(X, y, config: GbdtConfig, base_score: float | None = None) -> GbdtModel:
    """Fit one boosted-tree model, each row of weight 1.

    base_score defaults to the log-odds of the weighted positive rate.
    Raises on labels other than one 0 or 1 per row, single-class labels or
    an empty feature space.
    """
    Xc = as_feature_matrix(X)
    y = _binary_labels(y, Xc.shape[0])
    return _boost(_CodedMatrix(Xc), y, np.ones(Xc.shape[0]), config, base_score)


_SETTINGS = {"members": (lambda n: n == 3, "3"),
             "combine": (lambda rule: rule in ("mean", "majority"), "'mean' or 'majority'"),
             "threshold": (lambda t: 0.0 <= t <= 1.0, "in [0,1]")}


def _setting(name: str, value):
    """value, refused unless it is a valid detector setting `name`."""
    valid, expected = _SETTINGS[name]
    if not valid(value):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return value


@dataclass
class BaggedDetector:
    members: list[GbdtModel]
    threshold: float = 0.5
    combine: str = "mean"       # "mean" averages probabilities, "majority" votes
    vocab_ref: str = ""

    def __post_init__(self) -> None:
        _setting("members", len(self.members))
        dims = {m.n_features for m in self.members}
        if len(dims) != 1:
            raise ValueError(f"members trained on different feature spaces: {sorted(dims)}")
        _setting("combine", self.combine)
        _setting("threshold", self.threshold)

    @property
    def n_features(self) -> int:
        return self.members[0].n_features


def train_bagged(X, y, configs: list[GbdtConfig] | None = None, seed: int = 42,
                 bootstrap: bool = True, combine: str = "mean",
                 threshold: float = 0.5, vocab_ref: str = "") -> BaggedDetector:
    """Train the three-member ensemble. Member i sees an independent
    bootstrap resample (same size, with replacement, seeded seed+i) unless
    bootstrap is disabled, in which case all members see the full data.
    The distinct rows are coded once; a member's resample is the number of
    times it holds each of them, its integer row weights."""
    if configs is None:
        configs = default_bagging_configs()
    _setting("members", len(configs))  # before training, not after it
    _setting("combine", combine)
    _setting("threshold", threshold)
    Xc = as_feature_matrix(X)  # refuses a non-finite entry before resampling moves its row
    y = _binary_labels(y, Xc.shape[0])  # and a bad label before resampling drops it
    # each row's index among the distinct (label, stored columns, values) in order
    inverse, first = _distinct(y, Xc.indptr, Xc.indices, Xc.data)
    coded, n, members = _CodedMatrix(Xc.take(first)), Xc.shape[0], []
    for i, cfg in enumerate(configs):
        picks = (np.random.default_rng(seed + i).integers(0, n, size=n) if bootstrap
                 else np.arange(n))
        w = np.bincount(inverse[picks], minlength=len(first))
        members.append(_boost(coded, y[first], w, cfg, None))
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


def ensemble_predict(detector: BaggedDetector, x: CsrMatrix) -> tuple[int, float]:
    label, score = ensemble_predict_rows(detector, x)
    return int(label[0]), float(score[0])


def ensemble_predict_rows(detector: BaggedDetector, X) -> tuple[np.ndarray, np.ndarray]:
    X = as_feature_matrix(X, detector.n_features)
    probs = np.stack([predict_proba_rows(m, X) for m in detector.members])
    return _combine(detector, probs)


def rank_features(detector: BaggedDetector, vocab: NGramVocabulary,
                  k: int) -> list[tuple[tuple[int, ...], float]]:
    """Top-k n-grams by gain importance, normalized to total 1: each
    member's split gains summed per feature in tree-then-node order, then the
    members added in order. Ties break toward the lower column index."""
    if len(vocab) != detector.n_features:
        raise ValueError(
            f"vocabulary has {len(vocab)} columns, detector expects {detector.n_features}")
    total_gain = np.zeros(detector.n_features)
    for member in detector.members:
        feature = np.concatenate([t.feature for t in member.trees] + [np.zeros(0, np.int32)])
        gain = np.concatenate([t.gain for t in member.trees] + [np.zeros(0)])
        split = feature >= 0
        total_gain += np.bincount(feature[split], gain[split], detector.n_features)
    total = total_gain.sum()
    importance = total_gain / total if total > 0 else total_gain
    order = sorted(range(detector.n_features), key=lambda c: (-importance[c], c))
    ngrams = vocab.column_ngrams()
    return [(ngrams[c], float(importance[c])) for c in order[:k]]


# --- persistence -------------------------------------------------------------

_FORMAT_TAG = "apisentry-detector v3"
# a node line: the row RegressionTree.from_nodes takes
_NODE = np.dtype([("feature", np.int64), ("threshold", np.float64), ("left", np.int64),
                  ("right", np.int64), ("weight", np.float64), ("gain", np.float64)])


def save_detector(detector: BaggedDetector, path: str | Path) -> None:
    lines = [_FORMAT_TAG,
             f"combine {detector.combine}",
             "threshold %.17g" % detector.threshold,
             f"n_features {detector.n_features}",
             f"vocab_ref {detector.vocab_ref}",
             f"members {len(detector.members)}"]
    for i, m in enumerate(detector.members):
        lines.append(f"member {i}")
        lines += _config_lines(m.config)
        lines.append("base_score %.17g" % m.base_score)
        lines.append(" ".join(["trees"] + [str(t.n_nodes()) for t in m.trees]))
        columns = [np.concatenate([getattr(t, name) for t in m.trees] + [np.zeros(0)]).tolist()
                   for name in _NODE.names]
        lines += _format_rows("%d %.17g %d %d %.17g %.17g", zip(*columns))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_detector(path: str | Path) -> BaggedDetector:
    with _LineReader(path) as reader:
        if reader.next() != _FORMAT_TAG:
            raise ValueError(f"not an {_FORMAT_TAG!r} file")
        combine = _setting("combine", reader.field("combine"))
        threshold = _setting("threshold", _float(reader.field("threshold")))
        n_features = _int(reader.field("n_features"))
        if not 1 <= n_features < 2**31:  # a split's feature is an int32
            raise ValueError(f"n_features must be in 1..{2**31 - 1}, got {n_features}")
        vocab_ref = reader.field("vocab_ref")
        n_members = _setting("members", _int(reader.field("members")))
        members = []
        for i in range(n_members):
            if _int(reader.field("member")) != i:
                raise ValueError(f"expected member {i}")
            cfg = _read_config(reader, GbdtConfig)
            base_score = _finite(reader.field("base_score"))
            counts = [_int(n) for n in reader.field("trees").split()]
            if len(counts) != cfg.n_estimators:
                raise ValueError(f"{len(counts)} trees for n_estimators {cfg.n_estimators}")
            if min(counts, default=1) < 1:
                raise ValueError("a tree has at least one node")
            # read before any array is sized: counts beyond the file allocate nothing
            table = reader.table(1, _NODE, what="a node line", rows=sum(counts))[:, 0]
            nodes = np.column_stack([table[name] for name in _NODE.names])
            f, thr, lo, hi, w, gain = nodes.T
            ends = np.cumsum(counts, dtype=np.int64)
            own = np.arange(len(nodes)) - np.repeat(ends - counts, counts)  # index in its tree
            size, leaf = np.repeat(counts, counts), f == -1
            reader.refuse(np.isfinite(nodes).all(1), "a node holds a number that is not finite")
            reader.refuse(~leaf | (thr == 0) & (lo == -1) & (hi == -1) & (gain == 0),
                          "a leaf has a threshold, children or gain")
            reader.refuse(leaf | (w == 0), "a split has a weight")
            # children come after their parent, so descent ends
            reader.refuse(leaf | (0 <= f) & (f < n_features) & (own < lo) & (lo < size)
                          & (own < hi) & (hi < size), "split node out of range")
            trees = [RegressionTree.from_nodes(part) for part in np.split(nodes, ends)[:-1]]
            members.append(GbdtModel(trees=trees, base_score=base_score, config=cfg,
                                     n_features=n_features))
        for line in filter(str.strip, reader):  # blank lines alone may follow
            raise ValueError(f"expected the end of the file, got {line!r}")
        return BaggedDetector(members=members, threshold=threshold,
                              combine=combine, vocab_ref=vocab_ref)
