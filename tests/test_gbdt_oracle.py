"""Property tests: the global bin coding of the boosted trees against the
per-column `np.unique` coding it replaced, kept here as the oracle. On random
small CSR matrices equal columns must share one coded column, named by the
lowest of them, and that column's values and zero bin, each of its stored
entries' bin and the weighted histograms of a random row subset must come
out equal;
and the rows training routes must be the rows prediction routes. Gain
importance, read off the split nodes, must equal the per-member gain dicts
that training and loading used to fill, for trained and for reloaded
detectors. Every split of a one-tree model must reach the brute-force
maximum gain over the rows routed to it. Weighted tree growth with weights
of one, which builds no histogram for a node that cannot split, keeps the
root's counts and routes by bin, must grow bit for bit the trees and margins
of unweighted growth which scans every node and routes by value, kept here
as the oracle too, and no split may leave a child without a training row.
Integer row weights must grow the trees of the explicitly repeated rows, and
a bagged member the trees of its resample, up to ties that rounding breaks
either way; without bootstrap and duplicate rows, bagging writes the bytes
of one fit per member. No split of rows that share one gradient and hessian
may gain, and a separable fit, detect-d1 in small, builds the histograms of
its roots alone."""

import re
import tempfile
from dataclasses import replace
from itertools import pairwise
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from apisentry import gbdt
from apisentry.gbdt import (
    BaggedDetector,
    GbdtConfig,
    RegressionTree,
    _boost,
    _CodedMatrix,
    as_feature_matrix,
    default_bagging_configs,
    load_detector,
    predict_margin_rows,
    rank_features,
    save_detector,
    train_bagged,
    train_gbdt,
)
from apisentry.ngrams import CsrMatrix, NGramVocabulary, _sigmoid
from matrices import csr, to_scipy
from test_gbdt import (  # noqa: F401
    assert_root_split_attains_max, built, node_histograms, node_split, split_gain)


class ReferenceCoding:
    """Column j's observed values, implicit zeros included, mapped to their
    rank among the column's sorted unique values, one column at a time."""

    def __init__(self, X):
        X = to_scipy(X).copy()
        X.sum_duplicates()
        X.eliminate_zeros()
        self.n, self.n_features = X.shape
        csc = X.tocsc()
        self.uniques, zero_code, lengths = [], [], []
        codes = np.zeros(len(csc.data), dtype=np.int64)
        for j in range(self.n_features):
            s, e = csc.indptr[j], csc.indptr[j + 1]
            u = np.sort(np.append(np.unique(csc.data[s:e]), 0.0))
            self.uniques.append(u)
            zero_code.append(int(np.searchsorted(u, 0.0)))
            codes[s:e] = np.searchsorted(u, csc.data[s:e])
            lengths.append(len(u))
        self.zero_code = np.array(zero_code, dtype=np.int64)
        self.offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        self.n_bins = int(self.offsets[-1])
        self.codes = sparse.csc_matrix((codes + 1, csc.indices.copy(), csc.indptr.copy()),
                                       shape=X.shape).tocsr()

    def node_histograms(self, rows, g, h, w):
        sub = self.codes[rows]
        per_row = np.diff(sub.indptr)
        w_rows = w[rows]
        g_rows, h_rows = w_rows * g[rows], w_rows * h[rows]
        g_rep = np.repeat(g_rows, per_row)
        h_rep = np.repeat(h_rows, per_row)
        w_rep = np.repeat(w_rows, per_row)
        cols = sub.indices.astype(np.int64)
        key = self.offsets[cols] + sub.data.astype(np.int64) - 1
        hist_g = np.bincount(key, weights=g_rep, minlength=self.n_bins).astype(np.float64)
        hist_h = np.bincount(key, weights=h_rep, minlength=self.n_bins).astype(np.float64)
        hist_n = np.bincount(key, weights=w_rep, minlength=self.n_bins).astype(np.float64)
        col_g = np.bincount(cols, weights=g_rep, minlength=self.n_features).astype(np.float64)
        col_h = np.bincount(cols, weights=h_rep, minlength=self.n_features).astype(np.float64)
        col_n = np.bincount(cols, weights=w_rep, minlength=self.n_features).astype(np.float64)
        zero_pos = self.offsets[:-1] + self.zero_code
        hist_g[zero_pos] += g_rows.sum() - col_g
        hist_h[zero_pos] += h_rows.sum() - col_h
        hist_n[zero_pos] += w_rows.sum() - col_n
        return hist_g, hist_h, hist_n


# negatives, ties, explicit zeros and neighbouring floats
VALUES = [-3.0, -1.0, np.nextafter(-1.0, 0.0), -0.0, 0.0, 5e-324, 0.5, 1.0,
          np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 2.0, 1e6]
values = st.sampled_from(VALUES) | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw):
    """A CsrMatrix built from its parts, so stored zeros and unsorted column
    indices survive; some columns are empty. No (row, col) cell repeats: no
    producer makes one and load_matrix refuses one."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 5))
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), values),
                            max_size=n * m, unique_by=lambda e: e[:2]))
    entries.sort(key=lambda e: e[0])  # stable: columns stay in drawn order
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    indices = np.array([e[1] for e in entries], dtype=np.int64)
    data = np.array([e[2] for e in entries], dtype=np.float64)
    return CsrMatrix(data, indices, indptr, (n, m))


def row_subset(data, n):
    return np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))


@settings(max_examples=300, deadline=None)
@given(X=matrices(), data=st.data())
def test_global_bins_equal_the_per_column_oracle(X, data):
    coded, ref = _CodedMatrix(X), ReferenceCoding(X)
    # columns equal on every row share one coded column, named by the lowest
    dense = to_scipy(X).toarray()
    columns = [tuple(dense[:, j]) for j in range(X.shape[1])]
    lowest = sorted({columns.index(column) for column in columns})
    assert coded.features.tolist() == lowest
    sizes = [len(ref.uniques[j]) for j in lowest]
    assert coded.n_bins == sum(sizes)
    # each entry's bin + 1, so that an absent entry reads 0
    got = to_scipy(coded.coded)
    got.data = got.data + 1
    for c, j in enumerate(lowest):
        lo, hi = coded.offsets[c], coded.offsets[c + 1]
        assert np.array_equal(coded.values[lo:hi], ref.uniques[j])
        assert coded.zero_bin[c] == lo + ref.zero_code[j]
        codes = ref.codes[:, j].toarray().ravel()
        want = np.where(codes > 0, codes - 1, ref.zero_code[j]) + lo
        # every row's bin in coded column c: its entry's, or the zero bin
        column = got[:, [c]].toarray().ravel()
        assert np.array_equal(np.where(column > 0, column - 1, coded.zero_bin[c]), want)
    # at the oracle's entry positions in the lowest columns: stored zeros dropped
    want = ref.codes[:, lowest].tocsr()
    want.data = want.data + np.cumsum([0] + sizes)[want.indices]
    got.sort_indices()
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g, h = rng.normal(size=X.shape[0]), rng.random(X.shape[0])
    w = rng.integers(0, 4, X.shape[0]).astype(np.float64)
    rows = row_subset(data, X.shape[0])
    for got, expect in zip(node_histograms(coded, rows, g, h, w),
                           ref.node_histograms(rows, g, h, w)):
        expect = np.concatenate([expect[ref.offsets[j]:ref.offsets[j + 1]] for j in lowest])
        assert got.dtype == expect.dtype and np.array_equal(got, expect)


def assert_training_routes_as_prediction(X, y, cfg):
    """The margins training adds up, round by round, are prediction's."""
    # one class alone has no log-odds; any base score serves then
    base_score = None if 0 < y.sum() < len(y) else 0.0
    row_weights, grow = [], gbdt._grow_tree

    def recorded(*args):
        tree, row_weight = grow(*args)
        row_weights.append(row_weight)
        return tree, row_weight

    with mock.patch.object(gbdt, "_grow_tree", recorded):
        model = train_gbdt(X, y, cfg, base_score=base_score)
    margins = np.full(X.shape[0], model.base_score)
    for row_weight in row_weights:
        margins = margins + cfg.learning_rate * row_weight
    assert len(row_weights) == cfg.n_estimators
    assert np.array_equal(margins, predict_margin_rows(model, X))


@settings(max_examples=300, deadline=None)
@given(X=matrices(), data=st.data(), n_estimators=st.integers(1, 4),
       max_depth=st.integers(1, 4), min_child_hessian=st.sampled_from([0.0, 0.1]),
       learning_rate=st.sampled_from([0.3, 1.0]))
def test_training_margins_equal_the_margins_of_prediction(X, data, n_estimators, max_depth,
                                                          min_child_hessian, learning_rate):
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=X.shape[0],
                                    max_size=X.shape[0])), dtype=np.float64)
    cfg = GbdtConfig(learning_rate=learning_rate, max_depth=max_depth,
                     n_estimators=n_estimators, min_child_hessian=min_child_hessian)
    assert_training_routes_as_prediction(X, y, cfg)


def test_a_midpoint_that_rounds_up_is_replaced_by_the_lower_value():
    below = np.nextafter(1.0, 0.0)
    assert 0.5 * (below + 1.0) == 1.0
    X = csr(np.array([[below], [1.0], [below], [1.0]]))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    cfg = GbdtConfig(learning_rate=1.0, max_depth=1, n_estimators=1, min_child_hessian=0.0)
    tree = train_gbdt(X, y, cfg).trees[0]
    assert tree.threshold[0] == below
    assert tree.weight[tree.left[0]] < 0 < tree.weight[tree.right[0]]
    assert_training_routes_as_prediction(X, y, cfg)


def test_a_split_between_adjacent_floats_leaves_no_child_empty():
    X = csr(np.array([[np.nextafter(1.0, 0.0)], [1.0]]))
    y = np.array([0.0, 1.0])
    cfg = GbdtConfig(learning_rate=1.0, max_depth=1, n_estimators=1, min_child_hessian=0.0,
                     reg_lambda=0.0)
    tree = train_gbdt(X, y, cfg, base_score=0.0).trees[0]
    assert tree.feature[0] == 0 and tree.threshold[0] == np.nextafter(1.0, 0.0)
    assert [tree.weight[tree.left[0]], tree.weight[tree.right[0]]] == [-2.0, 2.0]


def reference_rank_features(detector, vocab, k):
    """rank_features as it was: one gain dict per member, filled node by
    node in tree order, then the dicts added into one array member by member."""
    total_gain = np.zeros(detector.n_features)
    for member in detector.members:
        gain_map = {}
        for tree in member.trees:
            for i in range(tree.n_nodes()):
                f = int(tree.feature[i])
                if f >= 0:
                    gain_map[f] = gain_map.get(f, 0.0) + float(tree.gain[i])
        for col, gval in gain_map.items():
            total_gain[col] += gval
    total = total_gain.sum()
    importance = total_gain / total if total > 0 else total_gain
    order = sorted(range(detector.n_features), key=lambda c: (-importance[c], c))
    ngrams = vocab.column_ngrams()
    return [(ngrams[c], float(importance[c])) for c in order[:k]]


@settings(max_examples=100, deadline=None)
@given(X=matrices(), data=st.data(),
       depths=st.lists(st.integers(1, 4), min_size=3, max_size=3),
       n_estimators=st.integers(0, 5))
def test_gain_importance_equals_the_gain_dict_oracle(X, data, depths, n_estimators):
    assume(X.shape[0] >= 2)
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=X.shape[0],
                                    max_size=X.shape[0])), dtype=np.float64)
    y[:2] = [0.0, 1.0]
    configs = [GbdtConfig(learning_rate=0.3, max_depth=d, n_estimators=n_estimators,
                          min_child_hessian=0.0) for d in depths]
    detector = train_bagged(X, y, configs=configs, bootstrap=False)
    vocab = NGramVocabulary(index={(c, c + 1): c for c in range(X.shape[1])},
                            counts=(1,) * X.shape[1])
    k = X.shape[1]
    assert rank_features(detector, vocab, k) == reference_rank_features(detector, vocab, k)
    with tempfile.TemporaryDirectory() as tmp:
        save_detector(detector, Path(tmp) / "model.det")
        loaded = load_detector(Path(tmp) / "model.det")
    assert rank_features(loaded, vocab, k) == reference_rank_features(detector, vocab, k)


# few distinct values, so columns repeat them; zeros and negatives included
SPLIT_VALUES = [-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 3.0]


def best_gain_is_zero(X, g, h, cfg):
    """Whether the best admissible split's gain is 0 up to rounding, as in a
    node whose rows are of one class with gamma 0: both training and the
    oracle may then round it to either side of 0, so either may split."""
    gains = [split_gain(X, g, h, cfg, j, 0.5 * (a + b))
             for j in range(X.shape[1]) for a, b in pairwise(np.unique(X[:, j]))]
    best = max((gain for gain in gains if gain is not None), default=None)
    return best is not None and abs(best) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), m=st.integers(1, 4),
       max_depth=st.integers(1, 4), reg_lambda=st.floats(0.0, 4.0),
       gamma=st.floats(0.0, 0.5), min_child_hessian=st.floats(0.0, 1.5))
def test_every_split_attains_the_brute_force_maximum(data, n, m, max_depth, reg_lambda,
                                                     gamma, min_child_hessian):
    X = np.array(data.draw(st.lists(st.lists(st.sampled_from(SPLIT_VALUES), min_size=m,
                                             max_size=m), min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), float)
    assume(0 < y.sum() < n)
    cfg = GbdtConfig(n_estimators=1, max_depth=max_depth, reg_lambda=reg_lambda,
                     gamma=gamma, min_child_hessian=min_child_hessian)
    model = train_gbdt(csr(X), y, cfg)
    tree = model.trees[0]
    p = _sigmoid(np.full(n, model.base_score))  # the gradients training used
    g, h = p - y, p * (1.0 - p)
    stack = [(0, np.arange(n), 0)]
    while stack:
        node, rows, depth = stack.pop()
        if depth == max_depth:  # a leaf by depth alone
            continue
        if not best_gain_is_zero(X[rows], g[rows], h[rows], cfg):
            assert_root_split_attains_max(X[rows], g[rows], h[rows], cfg, tree, node)
        if tree.feature[node] >= 0:
            left = X[rows, tree.feature[node]] <= tree.threshold[node]
            stack += [(tree.left[node], rows[left], depth + 1),
                      (tree.right[node], rows[~left], depth + 1)]


def reference_node_histograms(coded, rows, g, h):
    """A node's histograms as unweighted growth built them: every node, the
    root included, gathers its rows' entries and counts them."""
    sub = coded.coded.take(rows)
    per_row = np.diff(sub.indptr)
    g_rows, h_rows = g[rows], h[rows]
    g_rep = np.repeat(g_rows, per_row)
    h_rep = np.repeat(h_rows, per_row)
    hist_g = np.bincount(sub.data, weights=g_rep, minlength=coded.n_bins).astype(np.float64)
    hist_h = np.bincount(sub.data, weights=h_rep, minlength=coded.n_bins).astype(np.float64)
    hist_n = np.bincount(sub.data, minlength=coded.n_bins)
    cols = sub.indices
    col_g = np.bincount(cols, weights=g_rep, minlength=len(coded.features)).astype(np.float64)
    col_h = np.bincount(cols, weights=h_rep, minlength=len(coded.features)).astype(np.float64)
    col_n = np.bincount(cols, minlength=len(coded.features))
    hist_g[coded.zero_bin] += g_rows.sum() - col_g
    hist_h[coded.zero_bin] += h_rows.sum() - col_h
    hist_n[coded.zero_bin] += len(rows) - col_n
    return hist_g, hist_h, hist_n


def reference_segment_cumsum(flat, offsets):
    cs = np.cumsum(flat)
    starts = offsets[:-1]
    return cs - np.repeat(cs[starts] - flat[starts], np.diff(offsets))


def reference_best_split(coded, hist_g, hist_h, hist_n, total_g, total_h, n_node, cfg):
    """The unweighted split scan: integer counts, every cumulative sum
    rebuilt per node through np.repeat. Returns the coded column."""
    lam, offsets = cfg.reg_lambda, coded.offsets
    left_g = reference_segment_cumsum(hist_g, offsets)
    left_h = reference_segment_cumsum(hist_h, offsets)
    left_n = reference_segment_cumsum(hist_n, offsets)
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
    if not np.isfinite(best) or best <= 4 * np.finfo(np.float64).eps * parent:
        return None
    return int(np.searchsorted(offsets, b, side="right")) - 1, b, float(best)


def reference_grow_tree(coded, dense, g, h, cfg):
    """Unweighted growth that scans every node: every node above max_depth
    with two rows builds its histograms and is scanned, whatever its
    hessian sum and its rows' gradients. A split routes the rows of `dense`,
    the matrix as an array, by the value of the lowest column of the coded
    column it chose, as prediction does."""
    row_weight = np.zeros(coded.n)
    nodes = [None]
    stack = [(0, np.arange(coded.n), 0)]
    while stack:
        node, rows, depth = stack.pop()
        total_g = float(g[rows].sum())
        total_h = float(h[rows].sum())
        split = None
        if depth < cfg.max_depth and len(rows) >= 2:
            hist_g, hist_h, hist_n = reference_node_histograms(coded, rows, g, h)
            split = reference_best_split(coded, hist_g, hist_h, hist_n, total_g, total_h,
                                         len(rows), cfg)
        if split is None:
            leaf = -total_g / (total_h + cfg.reg_lambda)
            nodes[node] = [-1, 0.0, -1, -1, leaf, 0.0]
            row_weight[rows] = leaf
            continue
        j, b, best_gain = split
        nxt = b + 1 + int(np.flatnonzero(hist_n[b + 1:coded.offsets[j + 1]])[0])
        thr = 0.5 * (coded.values[b] + coded.values[nxt])
        if thr == coded.values[nxt]:
            thr = coded.values[b]
        go_left = dense[rows, coded.features[j]] <= thr
        nodes[node] = [coded.features[j], thr, len(nodes), len(nodes) + 1, 0.0, best_gain]
        stack.append((len(nodes) + 1, rows[~go_left], depth + 1))
        stack.append((len(nodes), rows[go_left], depth + 1))
        nodes += [None, None]
    return RegressionTree.from_nodes(nodes), row_weight


def nodes_reached(tree, rows):
    """The nodes of `tree` that some row passes through."""
    seen = {0}
    for x in rows:
        node = 0
        while tree.feature[node] >= 0:
            j = tree.feature[node]
            node = tree.left[node] if x[j] <= tree.threshold[node] else tree.right[node]
            seen.add(int(node))
    return seen


def reference_boost(X, y, cfg, base_score):
    """The trees and final margins of an unweighted boosting loop over
    reference_grow_tree. Each round's root histograms of g and h must equal
    the reference's too."""
    coded, dense = _CodedMatrix(X), to_scipy(X).toarray()
    root = np.arange(coded.n)
    margins = np.full(coded.n, base_score)
    trees = []
    for _ in range(cfg.n_estimators):
        p = _sigmoid(margins)
        g, h = p - y, p * (1.0 - p)
        for got, expect in zip(coded.histograms(coded.coded, g, h),
                               reference_node_histograms(coded, root, g, h)):
            assert got.dtype == expect.dtype and np.array_equal(got, expect)
        tree, row_weight = reference_grow_tree(coded, dense, g, h, cfg)
        trees.append(tree)
        margins = margins + cfg.learning_rate * row_weight
    return trees, margins


@settings(max_examples=300, deadline=None)
@given(X=matrices(), data=st.data(), n_estimators=st.integers(1, 20),
       max_depth=st.integers(1, 4), min_child_hessian=st.floats(0.0, 1.5),
       learning_rate=st.sampled_from([0.3, 1.0]), reg_lambda=st.sampled_from([0.0, 1.0]))
def test_growth_that_skips_hopeless_nodes_equals_growth_that_scans_every_node(
        X, data, n_estimators, max_depth, min_child_hessian, learning_rate, reg_lambda):
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=X.shape[0],
                                    max_size=X.shape[0])), dtype=np.float64)
    rate = y.sum() / len(y)
    base_score = float(np.log(rate / (1.0 - rate))) if 0 < rate < 1 else 0.0
    cfg = GbdtConfig(learning_rate=learning_rate, max_depth=max_depth,
                     n_estimators=n_estimators, reg_lambda=reg_lambda,
                     min_child_hessian=min_child_hessian)
    model = train_gbdt(X, y, cfg, base_score=base_score)
    dense = to_scipy(X).toarray()
    for tree in model.trees:  # both children of every split hold a training row
        assert nodes_reached(tree, dense) == set(range(tree.n_nodes()))
    trees, margins = reference_boost(X, y, cfg, base_score)
    assert_same_trees(model.trees, trees)
    assert np.array_equal(predict_margin_rows(model, X), margins)


def assert_same_trees(trees, expected):
    for got, expect in zip(trees, expected, strict=True):
        for name in ("feature", "threshold", "left", "right", "weight", "gain"):
            assert np.array_equal(getattr(got, name), getattr(expect, name)), name


# p near 0, 1/2 and 1, where h = p(1 - p) is still positive
MARGINS = st.floats(-40.0, -15.0) | st.floats(-1.0, 1.0) | st.floats(15.0, 36.0)


@settings(max_examples=300, deadline=None)
@given(X=matrices(), data=st.data(), copies=st.integers(1, 80), margin=MARGINS,
       label=st.integers(0, 1), reg_lambda=st.sampled_from([0.0, 1e-12, 1.0]),
       gamma=st.sampled_from([0.0, 0.1]), root=st.booleans())
def test_no_split_gains_on_rows_that_share_one_gradient_and_hessian(
        X, data, copies, margin, label, reg_lambda, gamma, root):
    X = as_feature_matrix([X] * copies)  # bins of many rows: sums of many equal terms
    n, p = X.shape[0], float(_sigmoid(margin))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # the rows outside the node hold other gradients, which it must not read
    g, h = rng.normal(size=n), rng.random(n)
    rows = np.arange(n) if root else np.flatnonzero(rng.random(n) < rng.random())
    assume(len(rows) >= 2)
    g[rows], h[rows] = p - label, p * (1.0 - p)
    w = rng.integers(0, 4, n).astype(np.float64)
    w[rows] = rng.integers(1, 4, len(rows))
    coded = _CodedMatrix(X)
    cfg = GbdtConfig(reg_lambda=reg_lambda, gamma=gamma, min_child_hessian=0.0)
    assert node_split(coded, rows, g, h, w, cfg) is None


def test_a_candidate_whose_gain_is_not_finite_leaves_the_others_admissible():
    # at lambda 0 and min_child_hessian 0, column 0 puts the two rows of zero
    # hessian alone on its right: a 0/0 gain, beside column 1's gain of 1
    X = csr(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    g, h = np.array([0.0, 0.0, 0.5, -0.5]), np.array([0.0, 0.0, 0.25, 0.25])
    coded = _CodedMatrix(X)
    cfg = GbdtConfig(reg_lambda=0.0, min_child_hessian=0.0)
    j, _, gain = node_split(coded, np.arange(4), g, h, np.ones(4), cfg)
    assert (j, gain) == (1, 1.0)


def planted_corpus(n=48, m=30, seed=18):
    """detect-d1 in small: count rows over m n-gram columns, three malware
    rows per goodware row, noise in every column but the first two, and a
    count planted in column 0 of each goodware row and column 1 of each
    malware row."""
    rng = np.random.default_rng(seed)
    y = (np.arange(n) % 4 != 0).astype(np.float64)
    D = rng.integers(1, 4, (n, m)) * (rng.random((n, m)) < 0.3)
    D[:, 0] = (y == 0) * rng.integers(1, 3, n)
    D[:, 1] = (y == 1) * rng.integers(1, 3, n)
    return csr(D), y


@pytest.mark.parametrize("reg_lambda", [0.0, 1.0])
def test_a_separable_fit_builds_the_histograms_of_its_roots_alone(built, reg_lambda):
    X, y = planted_corpus()
    cfg = GbdtConfig(max_depth=5, n_estimators=40, reg_lambda=reg_lambda)
    model = train_gbdt(X, y, cfg)
    # each root splits the classes apart, and each child holds one class at one margin
    assert built == [X.shape[0]] * sum(tree.n_nodes() > 1 for tree in model.trees)
    assert any(tree.n_nodes() > 1 for tree in model.trees)
    assert_same_trees(model.trees, reference_boost(X, y, cfg, model.base_score)[0])


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def assert_same_trees_up_to_a_tie(trees, expected):
    """Equal features and thresholds node for node, gains and leaf weights
    within 1e-12 relative, up to the first node where the two choose
    different splits, or a split and a leaf (of gain 0), whose gains are
    within 1e-12: a tie that rounding broke either way, after which the fits
    part and nothing more is compared."""
    for got, expect in zip(trees, expected, strict=True):
        for k in range(min(got.n_nodes(), expect.n_nodes())):
            if got.feature[k] < 0 and expect.feature[k] < 0:
                assert close(got.weight[k], expect.weight[k]), k
                continue
            assert close(got.gain[k], expect.gain[k]), k
            if (got.feature[k], got.threshold[k]) != (expect.feature[k], expect.threshold[k]):
                return
        assert got.n_nodes() == expect.n_nodes()


@settings(max_examples=300, deadline=None)
@given(X=matrices(), data=st.data(), n_estimators=st.integers(1, 8),
       max_depth=st.integers(1, 4), min_child_hessian=st.sampled_from([0.0, 0.5]),
       learning_rate=st.sampled_from([0.3, 1.0]), reg_lambda=st.sampled_from([0.0, 1.0]))
def test_integer_weights_grow_the_trees_of_repeated_rows(X, data, n_estimators, max_depth,
                                                         min_child_hessian, learning_rate,
                                                         reg_lambda):
    n = X.shape[0]
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), float)
    w = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    assume(w.sum() > 0)
    picks = np.repeat(np.arange(n), w)
    base_score = None if 0 < y[picks].sum() < len(picks) else 0.0
    cfg = GbdtConfig(learning_rate=learning_rate, max_depth=max_depth,
                     n_estimators=n_estimators, reg_lambda=reg_lambda,
                     min_child_hessian=min_child_hessian)
    weighted = _boost(_CodedMatrix(X), y, w, cfg, base_score)
    repeated = train_gbdt(X.take(picks), y[picks], cfg, base_score)
    assert weighted.base_score == repeated.base_score
    assert_same_trees_up_to_a_tie(weighted.trees, repeated.trees)


def reference_bagged_members(X, y, configs, seed, bootstrap):
    """Each member fit to its resample's rows, repeats included."""
    n = X.shape[0]
    members = []
    for i, cfg in enumerate(configs):
        picks = (np.random.default_rng(seed + i).integers(0, n, size=n) if bootstrap
                 else np.arange(n))
        members.append(train_gbdt(X.take(picks), y[picks], cfg))
    return members


@settings(max_examples=150, deadline=None)
@given(X=matrices(), data=st.data(), seed=st.integers(0, 2**16), bootstrap=st.booleans(),
       depths=st.lists(st.integers(1, 4), min_size=3, max_size=3),
       n_estimators=st.integers(0, 6))
def test_bagged_members_equal_members_fit_to_their_resamples(X, data, seed, bootstrap, depths,
                                                             n_estimators):
    # repeated rows, in any order, as oversampling leaves them
    copies = data.draw(st.lists(st.integers(0, X.shape[0] - 1), max_size=10))
    order = data.draw(st.permutations(list(range(X.shape[0])) + copies))
    X = X.take(np.array(order, dtype=np.int64))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=X.shape[0],
                                    max_size=X.shape[0])), dtype=np.float64)
    configs = [GbdtConfig(learning_rate=0.3, max_depth=d, n_estimators=n_estimators,
                          min_child_hessian=0.0) for d in depths]
    try:
        expected = reference_bagged_members(X, y, configs, seed, bootstrap)
    except ValueError as exc:  # a single-class resample
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            train_bagged(X, y, configs=configs, seed=seed, bootstrap=bootstrap)
        return
    detector = train_bagged(X, y, configs=configs, seed=seed, bootstrap=bootstrap)
    for member, expect in zip(detector.members, expected, strict=True):
        assert (member.config, member.base_score) == (expect.config, expect.base_score)
        assert_same_trees_up_to_a_tie(member.trees, expect.trees)


def small_configs():
    return [replace(cfg, n_estimators=cfg.n_estimators // 10) for cfg in default_bagging_configs()]


def test_bagging_without_bootstrap_over_distinct_rows_writes_train_gbdt_bytes(tmp_path):
    X, y = planted_corpus()
    rows = {(X.indices[s:e].tobytes(), X.data[s:e].tobytes()) for s, e in pairwise(X.indptr)}
    assert len(rows) == X.shape[0]
    configs = small_configs()
    bagged = train_bagged(X, y, configs=configs, seed=5, bootstrap=False)
    members = [train_gbdt(X, y, cfg) for cfg in configs]
    save_detector(bagged, tmp_path / "bagged.det")
    save_detector(BaggedDetector(members), tmp_path / "members.det")
    assert (tmp_path / "bagged.det").read_bytes() == (tmp_path / "members.det").read_bytes()


def test_bagging_codes_the_distinct_rows_once(monkeypatch):
    codings = []

    class Counted(_CodedMatrix):
        def __init__(self, X):
            super().__init__(X)
            codings.append(self)

    monkeypatch.setattr(gbdt, "_CodedMatrix", Counted)
    X, y = planted_corpus()
    row9 = X.take(np.array([9]))
    stored_zero = CsrMatrix(np.append(row9.data, 0.0), np.append(row9.indices, 29),
                            np.array([0, row9.nnz + 1]), row9.shape)
    assert 29 not in row9.indices
    # repeats of rows 0 and 5 merge; row 7 under the other label and row 9
    # with a stored zero do not
    X2 = as_feature_matrix([X, X.take(np.array([0, 5, 0, 7])), stored_zero])
    y2 = np.concatenate([y, y[[0, 5, 0]], 1 - y[[7]], y[[9]]])
    detector = train_bagged(X2, y2, configs=small_configs(), seed=3)
    assert len(codings) == 1 and codings[0].n == X.shape[0] + 2
    assert all(m.n_features == X.shape[1] for m in detector.members)
