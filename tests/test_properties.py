"""Property tests: the packed-forest prediction path against a scalar
per-row descent, the one-vector wrappers against the rows path, and the
shared sigmoid at extreme inputs."""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from apisentry import gbdt, seqmodel
from apisentry.gbdt import (
    BaggedDetector,
    GbdtConfig,
    GbdtModel,
    RegressionTree,
    ensemble_predict,
    ensemble_predict_rows,
    predict_margin_rows,
    predict_proba,
    predict_proba_rows,
)
from apisentry.ngrams import FeatureVector

N_FEATURES = 5
weights = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def random_tree(draw):
    """A random valid tree in the layout _grow_tree builds; thresholds
    include integers so rows can land exactly on them."""
    feature, threshold, left, right, weight = [], [], [], [], []

    def grow(depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        weight.append(0.0)
        if depth < 4 and draw(st.booleans()):
            feature[node] = draw(st.integers(0, N_FEATURES - 1))
            threshold[node] = draw(st.sampled_from([0.5, 1.0, 1.5, 2.5, 3.0]))
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        else:
            weight[node] = draw(weights)
        return node

    grow(0)
    n = len(feature)
    return RegressionTree(
        feature=np.array(feature, dtype=np.int32), threshold=np.array(threshold),
        left=np.array(left, dtype=np.int32), right=np.array(right, dtype=np.int32),
        weight=np.array(weight), gain=np.zeros(n))


@st.composite
def random_model(draw):
    trees = draw(st.lists(random_tree(), min_size=0, max_size=6))
    cfg = GbdtConfig(learning_rate=draw(st.sampled_from([0.01, 0.1, 0.3, 1.0])),
                     max_depth=4, n_estimators=len(trees))
    return GbdtModel(trees=trees, base_score=draw(weights), config=cfg,
                     n_features=N_FEATURES, feature_gain={}, train_loss=[])


count_rows = st.lists(st.lists(st.integers(0, 4), min_size=N_FEATURES, max_size=N_FEATURES),
                      min_size=1, max_size=30)


def scalar_margin(model, row):
    """Oracle: walk each tree node by node and add its leaf weight."""
    margin = model.base_score
    for tree in model.trees:
        node = 0
        while tree.feature[node] >= 0:
            value = row[tree.feature[node]]
            node = tree.left[node] if value <= tree.threshold[node] else tree.right[node]
        margin += model.config.learning_rate * float(tree.weight[node])
    return margin


def feature_vector(row):
    return FeatureVector(counts={c: v for c, v in enumerate(row) if v}, dim=len(row))


@settings(max_examples=150, deadline=None)
@given(model=random_model(), rows=count_rows, block=st.sampled_from([1, 2, 7, 64]))
def test_forest_equals_scalar_descent(model, rows, block):
    with mock.patch.object(gbdt, "_ROW_BLOCK", block):
        got = predict_margin_rows(model, sparse.csr_matrix(np.array(rows, dtype=float)))
    want = np.array([scalar_margin(model, row) for row in rows])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(model=random_model(), row=count_rows.map(lambda rows: rows[0]))
def test_one_vector_equals_one_row(model, row):
    X = sparse.csr_matrix(np.array([row], dtype=float))
    assert predict_proba(model, feature_vector(row)) == predict_proba_rows(model, X)[0]


def test_zero_trees_predict_base_score():
    model = GbdtModel(trees=[], base_score=0.25, config=GbdtConfig(n_estimators=0),
                      n_features=N_FEATURES, feature_gain={}, train_loss=[])
    X = sparse.csr_matrix(np.ones((3, N_FEATURES)))
    assert predict_margin_rows(model, X).tolist() == [0.25, 0.25, 0.25]


@settings(max_examples=40, deadline=None)
@given(members=st.lists(random_model(), min_size=3, max_size=3), rows=count_rows,
       combine=st.sampled_from(["mean", "majority"]),
       threshold=st.sampled_from([0.3, 0.5, 0.7]))
def test_ensemble_predict_equals_its_row(members, rows, combine, threshold):
    detector = BaggedDetector(members=members, threshold=threshold, combine=combine)
    labels, scores = ensemble_predict_rows(detector, np.array(rows, dtype=float))
    for r, row in enumerate(rows):
        assert ensemble_predict(detector, feature_vector(row)) == (labels[r], scores[r])


def test_seqmodel_sigmoid_extremes_do_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = seqmodel._sigmoid(np.array([-800.0, 0.0, 800.0]))
    assert out[0] < 1e-300 and out[1] == 0.5 and out[2] == 1.0
