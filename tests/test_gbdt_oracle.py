"""Property tests: the global bin coding of the boosted trees against the
per-column `np.unique` coding it replaced, kept here as the oracle. On random
small CSR matrices each column's values and zero bin, each stored entry's
bin and the histograms of a random row subset must come out equal; and the
rows training routes must be the rows prediction routes. Gain importance,
read off the split nodes, must equal the per-member gain dicts that training
and loading used to fill, for trained and for reloaded detectors. Every split
of a one-tree model must reach the brute-force maximum gain over the rows
routed to it."""

import tempfile
from itertools import pairwise
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from apisentry.gbdt import (
    GbdtConfig,
    _CodedMatrix,
    _mean_logloss,
    load_detector,
    predict_proba_rows,
    rank_features,
    save_detector,
    train_bagged,
    train_gbdt,
)
from apisentry.ngrams import CsrMatrix, NGramVocabulary, _sigmoid
from matrices import csr, to_scipy
from test_gbdt import assert_root_split_attains_max, split_gain


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

    def node_histograms(self, rows, g, h):
        sub = self.codes[rows]
        per_row = np.diff(sub.indptr)
        g_rows, h_rows = g[rows], h[rows]
        g_rep = np.repeat(g_rows, per_row)
        h_rep = np.repeat(h_rows, per_row)
        cols = sub.indices.astype(np.int64)
        key = self.offsets[cols] + sub.data.astype(np.int64) - 1
        hist_g = np.bincount(key, weights=g_rep, minlength=self.n_bins).astype(np.float64)
        hist_h = np.bincount(key, weights=h_rep, minlength=self.n_bins).astype(np.float64)
        hist_n = np.bincount(key, minlength=self.n_bins)
        col_g = np.bincount(cols, weights=g_rep, minlength=self.n_features).astype(np.float64)
        col_h = np.bincount(cols, weights=h_rep, minlength=self.n_features).astype(np.float64)
        col_n = np.bincount(cols, minlength=self.n_features)
        zero_pos = self.offsets[:-1] + self.zero_code
        hist_g[zero_pos] += g_rows.sum() - col_g
        hist_h[zero_pos] += h_rows.sum() - col_h
        hist_n[zero_pos] += len(rows) - col_n
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
    assert coded.n_bins == ref.n_bins
    for j in range(X.shape[1]):
        lo, hi = coded.offsets[j], coded.offsets[j + 1]
        assert np.array_equal(coded.values[lo:hi], ref.uniques[j])
        assert coded.zero_bin[j] == lo + ref.zero_code[j]
        dense = ref.codes[:, j].toarray().ravel()
        want = np.where(dense > 0, dense - 1, ref.zero_code[j]) + lo
        assert np.array_equal(coded.column_bins(j), want)
    # each entry's bin + 1, at the oracle's entry positions: stored zeros dropped
    want = ref.codes.copy()
    want.data = want.data + ref.offsets[want.indices]
    got = to_scipy(coded.coded)
    got.data = got.data + 1
    got.sort_indices()
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g, h = rng.normal(size=X.shape[0]), rng.random(X.shape[0])
    rows = row_subset(data, X.shape[0])
    for got, expect in zip(coded.node_histograms(rows, g, h), ref.node_histograms(rows, g, h)):
        assert got.dtype == expect.dtype and np.array_equal(got, expect)


def assert_training_routes_as_prediction(X, y, cfg):
    # one class alone has no log-odds; any base score serves then
    base_score = None if 0 < y.sum() < len(y) else 0.0
    model = train_gbdt(X, y, cfg, base_score=base_score)
    assert model.train_loss[-1] == _mean_logloss(y, predict_proba_rows(model, X))


@settings(max_examples=300, deadline=None)
@given(X=matrices(), data=st.data(), n_estimators=st.integers(1, 4),
       max_depth=st.integers(1, 4), min_child_hessian=st.sampled_from([0.0, 0.1]),
       learning_rate=st.sampled_from([0.3, 1.0]))
def test_training_loss_equals_the_loss_of_prediction(X, data, n_estimators, max_depth,
                                                      min_child_hessian, learning_rate):
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=X.shape[0],
                                    max_size=X.shape[0])), dtype=np.float64)
    cfg = GbdtConfig(learning_rate=learning_rate, max_depth=max_depth,
                     n_estimators=n_estimators, min_child_hessian=min_child_hessian)
    assert_training_routes_as_prediction(X, y, cfg)


def test_a_midpoint_that_rounds_up_routes_both_values_left():
    below = np.nextafter(1.0, 0.0)
    assert 0.5 * (below + 1.0) == 1.0
    X = csr(np.array([[below], [1.0], [below], [1.0]]))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    cfg = GbdtConfig(learning_rate=1.0, max_depth=1, n_estimators=1, min_child_hessian=0.0)
    assert train_gbdt(X, y, cfg).trees[0].threshold[0] == 1.0
    assert_training_routes_as_prediction(X, y, cfg)


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
