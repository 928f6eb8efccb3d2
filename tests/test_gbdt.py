import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from apisentry.gbdt import (
    BaggedDetector,
    GbdtConfig,
    GbdtModel,
    RegressionTree,
    _CodedMatrix,
    _best_split,
    _combine,
    _segment_cumsum,
    as_feature_matrix,
    default_bagging_configs,
    ensemble_predict,
    ensemble_predict_rows,
    load_detector,
    predict_proba_rows,
    rank_features,
    save_detector,
    train_bagged,
    train_gbdt,
)
from apisentry.ngrams import NGramVocabulary
from matrices import csr, to_scipy


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def mean_logloss(y, p):
    p = np.clip(p, 1e-15, 1 - 1e-15)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


def fv(counts, dim):
    """A 1-row count matrix with the given {column: count} entries."""
    return csr(sparse.coo_matrix((list(counts.values()), ([0] * len(counts), list(counts))),
                                 shape=(1, dim)))


def split_gain(X, g, h, cfg, j, thr):
    left = X[:, j] <= thr
    gl, hl = g[left].sum(), h[left].sum()
    gr, hr = g[~left].sum(), h[~left].sum()
    if not left.any() or left.all():
        return None
    if hl < cfg.min_child_hessian or hr < cfg.min_child_hessian:
        return None
    return 0.5 * (gl * gl / (hl + cfg.reg_lambda)
                  + gr * gr / (hr + cfg.reg_lambda)
                  - (gl + gr) ** 2 / (hl + hr + cfg.reg_lambda)) - cfg.gamma


def brute_force_best_split(X, g, h, cfg):
    """Oracle: enumerate every feature and every midpoint between adjacent
    distinct values; first strictly-better candidate wins, so ties resolve
    to the lowest feature then the lowest threshold."""
    best = None
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        for a, b in zip(values, values[1:]):
            thr = 0.5 * (a + b)
            gain = split_gain(X, g, h, cfg, j, thr)
            if gain is None:
                continue
            if best is None or gain > best[0]:
                best = (gain, j, thr)
    if best is None or best[0] <= 0:
        return None
    return best


def assert_root_split_attains_max(X, g, h, cfg, tree, node=0):
    """The chosen root split, or the split at `node` when X, g and h are the
    rows routed to it, must reach the exhaustive-enumeration maximum gain.
    Distinct features can induce identical partitions, so equally-good
    splits are accepted as ties; the exact (feature, threshold) is required
    whenever the maximum is unique."""
    oracle = brute_force_best_split(X, g, h, cfg)
    if oracle is None:
        assert tree.feature[node] < 0
        return
    max_gain, j, thr = oracle
    assert tree.feature[node] >= 0, "implementation refused a positive-gain split"
    chosen = split_gain(X, g, h, cfg, int(tree.feature[node]), float(tree.threshold[node]))
    assert chosen is not None
    tol = 1e-9 * max(1.0, abs(max_gain))
    assert chosen >= max_gain - tol, (
        f"split gain {chosen} below enumerated maximum {max_gain}")
    if tree.feature[node] != j or abs(tree.threshold[node] - thr) > 1e-12:
        assert abs(chosen - max_gain) <= tol, "non-tied split differs from oracle"


def replay_leaf_weights(model, X, y):
    """Oracle: re-derive every leaf weight by routing the training samples
    through each tree at the margins that tree was fitted against."""
    margins = np.full(X.shape[0], model.base_score)
    lam = model.config.reg_lambda
    checks = []
    for tree in model.trees:
        p = 1.0 / (1.0 + np.exp(-margins))
        g = p - y
        h = p * (1.0 - p)
        leaf_of = np.zeros(X.shape[0], dtype=int)
        for r in range(X.shape[0]):
            node = 0
            while tree.feature[node] >= 0:
                value = X[r, tree.feature[node]]
                node = tree.left[node] if value <= tree.threshold[node] else tree.right[node]
            leaf_of[r] = node
        for leaf in np.unique(leaf_of):
            rows = leaf_of == leaf
            expect = -g[rows].sum() / (h[rows].sum() + lam)
            checks.append((float(tree.weight[leaf]), float(expect)))
        margins = margins + model.config.learning_rate * tree.weight[leaf_of]
    return checks


def random_count_corpus(rng, n_max=100, f_max=10):
    n = int(rng.integers(8, n_max + 1))
    n_features = int(rng.integers(1, f_max + 1))
    X = rng.integers(0, 6, size=(n, n_features)).astype(float)
    y = rng.integers(0, 2, size=n).astype(float)
    if y.sum() == 0:
        y[0] = 1
    if y.sum() == n:
        y[0] = 0
    return X, y


class TestLeafFormula:
    def test_single_sample_first_tree_weight(self):
        # at base score 0, p = 0.5, so g = -0.5 and h = 0.25; with lambda 1
        # the root leaf weight is 0.5 / 1.25 = 0.4
        cfg = GbdtConfig(learning_rate=0.1, max_depth=4, n_estimators=1, reg_lambda=1.0)
        model = train_gbdt([fv({0: 1}, 1)], [1], cfg, base_score=0.0)
        tree = model.trees[0]
        assert tree.n_nodes() == 1
        assert tree.weight[0] == pytest.approx(0.4, abs=1e-15)

    def test_empty_ensemble_predicts_base(self):
        cfg = GbdtConfig(n_estimators=0)
        model = train_gbdt([fv({0: 1}, 1), fv({}, 1)], [1, 0], cfg)
        x = fv({0: 3}, 1)
        assert predict_proba_rows(model, x)[0] == pytest.approx(sigmoid(model.base_score))

    def test_single_class_rejected_without_base(self):
        cfg = GbdtConfig(n_estimators=1)
        with pytest.raises(ValueError, match="single class"):
            train_gbdt([fv({0: 1}, 1), fv({0: 2}, 1)], [1, 1], cfg)

    def test_empty_feature_space_rejected(self):
        cfg = GbdtConfig(n_estimators=1)
        with pytest.raises(ValueError, match="empty feature space"):
            train_gbdt(csr(np.zeros((4, 0))), [0, 1, 0, 1], cfg)


class TestLabels:
    """Both trainers take one 0 or 1 per matrix row and refuse anything else
    before converting or resampling it."""

    X = csr(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0], [3.0, 0.0]]))
    CFG = GbdtConfig(n_estimators=1)

    @pytest.mark.parametrize("y", [[0, 1, 0, 1, 1], [0, 1, 0]])
    def test_bagged_refuses_a_label_count_other_than_the_rows(self, y):
        with pytest.raises(ValueError, match=f"got 4 rows but {len(y)} labels"):
            train_bagged(self.X, y, configs=[self.CFG] * 3, seed=1)

    @pytest.mark.parametrize("bad, y", [(-1, [0, 1, -1, 1]), (2, [0, 2, 0, 2])])
    def test_bagged_refuses_a_label_other_than_0_or_1(self, bad, y):
        with pytest.raises(ValueError, match=f"labels must be 0 or 1, got {bad}$"):
            train_bagged(self.X, y, configs=[self.CFG] * 3, seed=1)

    @pytest.mark.parametrize("bad, y", [(0.5, [0, 1, 0.5, 1]), (2, [0, 2, 0, 2]),
                                        (None, [0, 1, None, 1])])
    def test_gbdt_refuses_a_label_other_than_0_or_1(self, bad, y):
        with pytest.raises(ValueError, match=f"labels must be 0 or 1, got {bad}$"):
            train_gbdt(self.X, np.array(y), self.CFG)


class TestPredictProba:
    def test_single_leaf_tree(self):
        cfg = GbdtConfig(learning_rate=1.0, max_depth=1, n_estimators=1, reg_lambda=1.0)
        tree = RegressionTree(
            feature=np.array([-1], dtype=np.int32), threshold=np.zeros(1),
            left=np.array([-1], dtype=np.int32), right=np.array([-1], dtype=np.int32),
            weight=np.array([0.4]), gain=np.zeros(1))
        model = GbdtModel(trees=[tree], base_score=0.0, config=cfg, n_features=2)
        assert predict_proba_rows(model, fv({}, 2))[0] == pytest.approx(sigmoid(0.4), abs=1e-12)

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(10)
        X, y = random_count_corpus(rng)
        model = train_gbdt(csr(X), y, GbdtConfig(n_estimators=10, max_depth=3))
        probs = predict_proba_rows(model, csr(X))
        assert (probs > 0).all() and (probs < 1).all()

    def test_constant_on_untested_features(self):
        rng = np.random.default_rng(11)
        X, y = random_count_corpus(rng, n_max=60, f_max=4)
        X = np.hstack([X, np.zeros((X.shape[0], 1))])  # constant column is never split on
        model = train_gbdt(csr(X), y, GbdtConfig(n_estimators=5, max_depth=2))
        tested = {int(f) for t in model.trees for f in t.feature if f >= 0}
        untested = [j for j in range(X.shape[1]) if j not in tested]
        assert X.shape[1] - 1 in untested
        x = {j: int(X[0, j]) for j in range(X.shape[1]) if X[0, j]}
        bumped = dict(x)
        bumped[untested[0]] = bumped.get(untested[0], 0) + 7
        dim = X.shape[1]
        both = predict_proba_rows(model, [fv(x, dim), fv(bumped, dim)])
        assert both[0] == both[1]


class TestTraining:
    def test_separating_stump_reaches_perfect_accuracy(self):
        # column 0 count > 0 iff malware; a depth-1 stump separates it
        # (verified by the brute-force oracle below)
        rng = np.random.default_rng(12)
        n = 40
        y = np.array([0, 1] * (n // 2), dtype=float)
        X = np.zeros((n, 2))
        X[:, 0] = y * rng.integers(1, 4, n)
        X[:, 1] = rng.integers(0, 3, n)
        cfg = GbdtConfig(learning_rate=0.3, max_depth=1, n_estimators=50)
        g = np.full(n, 0.0) + (0.5 - y)  # p=0.5 at a balanced base score
        oracle = brute_force_best_split(X, -(y - 0.5), np.full(n, 0.25), cfg)
        assert oracle is not None and oracle[1] == 0
        model = train_gbdt(csr(X), y, cfg)
        preds = (predict_proba_rows(model, csr(X)) >= 0.5).astype(float)
        assert (preds == y).all()
        assert len(model.trees) <= 50

    def test_training_loss_monotonically_nonincreasing(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            X, y = random_count_corpus(rng, n_max=80, f_max=6)
            model = train_gbdt(csr(X), y, GbdtConfig(n_estimators=30, max_depth=3))
            losses = [mean_logloss(y, predict_proba_rows(replace(model, trees=model.trees[:k]),
                                                         csr(X)))
                      for k in range(1, len(model.trees) + 1)]
            assert (np.diff(losses) <= 1e-12).all()

    def test_root_split_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            X, y = random_count_corpus(rng, n_max=60, f_max=6)
            cfg = GbdtConfig(n_estimators=1, max_depth=3)
            model = train_gbdt(csr(X), y, cfg)
            p = sigmoid(model.base_score)
            g = np.full(len(y), p) - y
            h = np.full(len(y), p * (1 - p))
            assert_root_split_attains_max(X, g, h, cfg, model.trees[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_is_refused(self, bad):
        X = np.arange(6.0).reshape(6, 1)
        X[3, 0] = bad
        y = np.array([0.0, 1.0] * 3)

        def refused(row):
            return pytest.raises(ValueError, match=rf"entry \({row},0\) holds {bad}; "
                                                   "feature values must be finite")

        with refused(3):
            train_gbdt(csr(X), y, GbdtConfig(n_estimators=2))
        # named by its row before the bootstrap resamples
        X[[3, 5]] = X[[5, 3]]
        with refused(5):
            train_bagged(csr(X), y)

    def test_leaf_weights_match_replay(self):
        rng = np.random.default_rng(15)
        X, y = random_count_corpus(rng, n_max=100, f_max=5)
        model = train_gbdt(csr(X), y, GbdtConfig(n_estimators=8, max_depth=3))
        for got, expect in replay_leaf_weights(model, X, y):
            assert got == pytest.approx(expect, abs=1e-10)

    def test_a_gain_positive_only_by_rounding_is_no_split(self):
        # with lambda and gamma 0 the node of the three class-1 rows has
        # gain 0 exactly, which rounds to 2.2e-16 on column 2
        X = np.array([[-2, -2, -2], [-2, -2, -2], [-2, -2, -1], [-2, -2, -1], [-2, -2, -0.5]])
        y = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        cfg = GbdtConfig(n_estimators=1, max_depth=2, reg_lambda=0.0, gamma=0.0,
                         min_child_hessian=0.0)
        tree = train_gbdt(csr(X), y, cfg).trees[0]
        assert tree.feature.tolist() == [2, -1, -1]
        assert tree.threshold[0] == -1.5

    def test_a_column_equal_to_a_lower_one_never_splits(self):
        # column 39 is column 1 again; summed separately, their gains could
        # differ in the last bits and the higher index win the tie
        rng = np.random.default_rng(2)
        A = rng.integers(0, 4, (30, 40)) * (rng.random((30, 40)) < 0.5).astype(float)
        A[:, 39] = A[:, 1]
        y = rng.integers(0, 2, 30)
        model = train_gbdt(csr(A), y, GbdtConfig(max_depth=1, n_estimators=30))
        features = np.concatenate([tree.feature for tree in model.trees])
        assert 1 in features and 39 not in features


@pytest.fixture
def built(monkeypatch):
    """The size of every node that builds histograms of g and h; the root's
    counts, summed once per model, are no node's."""
    sizes, histograms = [], _CodedMatrix.histograms

    def counted(coded, sub, *per_row):
        if len(per_row) > 1:
            sizes.append(sub.shape[0])
        return histograms(coded, sub, *per_row)

    monkeypatch.setattr(_CodedMatrix, "histograms", counted)
    return sizes


def node_histograms(coded, rows, g, h, w):
    """The per-bin sums of w*g, w*h and w of a node's rows, as growth builds them."""
    w_rows = w[rows]
    return coded.histograms(coded.coded.take(rows), w_rows * g[rows], w_rows * h[rows], w_rows)


def node_split(coded, rows, g, h, w, cfg):
    """_best_split over the node of the given distinct, ascending rows."""
    hist_g, hist_h, hist_n = node_histograms(coded, rows, g, h, w)
    return _best_split(coded, hist_g, hist_h, _segment_cumsum(hist_n, coded),
                       float((w[rows] * g[rows]).sum()), float((w[rows] * h[rows]).sum()),
                       float(w[rows].sum()), cfg)


class TestHopelessNodes:
    # one separating column; at base score 0 every row has h = 0.25, so the
    # root's hessian sum is 1.0 and each 2-row child's is 0.5
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])

    def tree(self, min_child_hessian):
        cfg = GbdtConfig(n_estimators=1, max_depth=2, min_child_hessian=min_child_hessian)
        return train_gbdt(csr(self.X), self.y, cfg).trees[0]

    def test_hessian_sum_of_exactly_twice_the_minimum_still_splits(self, built):
        tree = self.tree(0.5)
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.threshold[0] == 0.5
        # the children's 0.5 is below 2 * 0.5: leaves, unscanned
        assert built == [4]

    @pytest.mark.parametrize("mch", [0.6, 1.0])
    def test_a_node_below_the_margin_builds_no_histogram(self, built, mch):
        tree = self.tree(mch)
        assert tree.n_nodes() == 1 and tree.weight[0] == 0.0
        assert built == []

    def test_without_a_minimum_every_node_is_scanned(self, built):
        # the columns tie at the root, and each 3-row child holds both classes
        X = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        cfg = GbdtConfig(n_estimators=1, max_depth=2, min_child_hessian=0.0)
        assert train_gbdt(csr(X), y, cfg).trees[0].feature.tolist() == [0, 1, 1, -1, -1, -1, -1]
        assert sorted(built) == [3, 3, 6]

    def test_uniform_children_build_no_histogram(self, built):
        # each 2-row child holds one class at one margin, so one (g, h): no split gains
        assert self.tree(0.0).feature.tolist() == [0, -1, -1]
        assert built == [4]


class TestBagging:
    def separable_data(self, n=60):
        rng = np.random.default_rng(16)
        y = np.array([0, 1] * (n // 2), dtype=float)
        X = np.zeros((n, 3))
        X[:, 0] = y * rng.integers(1, 3, n)
        X[:, 1] = rng.integers(0, 4, n)
        X[:, 2] = rng.integers(0, 2, n)
        return X, y

    def test_default_configs(self):
        cfgs = default_bagging_configs()
        assert [(c.learning_rate, c.max_depth, c.n_estimators) for c in cfgs] == [
            (0.01, 4, 100), (0.05, 3, 200), (0.1, 5, 300)]

    def test_deterministic_under_seed(self, tmp_path):
        X, y = self.separable_data()
        cfgs = [GbdtConfig(learning_rate=0.1, max_depth=2, n_estimators=5)] * 3
        a = train_bagged(csr(X), y, configs=cfgs, seed=7)
        b = train_bagged(csr(X), y, configs=cfgs, seed=7)
        pa, pb = tmp_path / "a.det", tmp_path / "b.det"
        save_detector(a, pa)
        save_detector(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_separable_corpus_perfect_train_accuracy(self):
        X, y = self.separable_data()
        cfgs = [GbdtConfig(learning_rate=0.1, max_depth=2, n_estimators=30)] * 3
        det = train_bagged(csr(X), y, configs=cfgs, seed=5)
        labels, _ = ensemble_predict_rows(det, csr(X))
        assert (labels == y).all()

    def test_mean_combination_and_boundary(self):
        probs = np.array([[0.2], [0.4], [0.9]])
        label, score = _combine(BaggedDetector(
            members=self._stub_members(), threshold=0.5), probs)
        assert score[0] == pytest.approx(0.5, abs=1e-12)
        assert label[0] == 1  # boundary: score >= threshold

    def test_unanimous_half(self):
        det = self._stub_detector([0.0, 0.0, 0.0])  # sigmoid(0) = 0.5 each
        label, score = ensemble_predict(det, fv({}, 1))
        assert score == 0.5 and label == 1

    def test_below_threshold(self):
        logit_01 = math.log(0.1 / 0.9)
        det = self._stub_detector([logit_01] * 3)
        label, score = ensemble_predict(det, fv({}, 1))
        assert label == 0 and score == pytest.approx(0.1, abs=1e-12)

    def test_majority_vote(self):
        logit_09 = math.log(0.9 / 0.1)
        logit_01 = math.log(0.1 / 0.9)
        det = self._stub_detector([logit_09, logit_09, logit_01], combine="majority")
        label, _ = ensemble_predict(det, fv({}, 1))
        assert label == 1

    def test_score_equals_member_mean_any_order(self):
        X, y = self.separable_data()
        cfgs = [GbdtConfig(learning_rate=0.1, max_depth=2, n_estimators=10)] * 3
        det = train_bagged(csr(X), y, configs=cfgs, seed=9)
        member_probs = np.stack([predict_proba_rows(m, csr(X)) for m in det.members])
        _, score = ensemble_predict_rows(det, csr(X))
        assert np.allclose(score, member_probs.mean(axis=0), atol=1e-12)
        flipped = BaggedDetector(members=det.members[::-1], threshold=det.threshold)
        _, score2 = ensemble_predict_rows(flipped, csr(X))
        assert np.allclose(score, score2, atol=1e-12)

    def _stub_members(self, weights=(0.0, 0.0, 0.0)):
        cfg = GbdtConfig(learning_rate=1.0, max_depth=1, n_estimators=1)
        members = []
        for w in weights:
            tree = RegressionTree(
                feature=np.array([-1], dtype=np.int32), threshold=np.zeros(1),
                left=np.array([-1], dtype=np.int32),
                right=np.array([-1], dtype=np.int32),
                weight=np.array([float(w)]), gain=np.zeros(1))
            members.append(GbdtModel(trees=[tree], base_score=0.0, config=cfg,
                                     n_features=1))
        return members

    def _stub_detector(self, margins, combine="mean"):
        return BaggedDetector(members=self._stub_members(margins), combine=combine)


class TestRankFeatures:
    def _detector_with_gains(self, gains_by_member, n_features=5):
        """One member per dict; each (feature, gain) pair is one tree, a
        stump splitting on that feature with that gain."""
        cfg = GbdtConfig(n_estimators=1)
        members = []
        for gains in gains_by_member:
            trees = [RegressionTree.from_nodes([[f, 0.5, 1, 2, 0.0, g],
                                                [-1, 0.0, -1, -1, -0.1, 0.0],
                                                [-1, 0.0, -1, -1, 0.1, 0.0]])
                     for f, g in gains.items()]
            members.append(GbdtModel(trees=trees, base_score=0.0, config=cfg,
                                     n_features=n_features))
        return members

    def _vocab(self, n):
        entries = [(i, i + 1) for i in range(n)]
        return NGramVocabulary(index={ng: i for i, ng in enumerate(entries)},
                               counts=tuple([1] * n))

    def test_single_feature_mass(self):
        det = BaggedDetector(members=self._detector_with_gains([{3: 2.0}, {3: 1.0}, {3: 5.0}]))
        ranked = rank_features(det, self._vocab(5), k=2)
        assert ranked[0] == ((3, 4), 1.0)
        assert ranked[1][1] == 0.0

    def test_unsplit_feature_has_zero_importance(self):
        det = BaggedDetector(members=self._detector_with_gains([{0: 1.0}, {1: 1.0}, {}]))
        ranked = dict(rank_features(det, self._vocab(5), k=5))
        assert ranked[(4, 5)] == 0.0

    def test_k_truncated_to_feature_count(self):
        det = BaggedDetector(members=self._detector_with_gains([{0: 1.0}, {}, {}]))
        assert len(rank_features(det, self._vocab(5), k=99)) == 5

    @pytest.mark.parametrize("width", [4, 6])
    def test_vocabulary_of_another_width_is_refused(self, width):
        det = BaggedDetector(members=self._detector_with_gains([{0: 1.0}, {}, {}]))
        with pytest.raises(ValueError,
                           match=f"vocabulary has {width} columns, detector expects 5"):
            rank_features(det, self._vocab(width), k=3)


# A detector file as the v1 writer wrote it: each member's config carried a
# seed line that nothing read.
V1_MEMBER = """\
member {i}
learning_rate 0.5
max_depth 1
n_estimators 1
reg_lambda 1
gamma 0
min_child_hessian 0
seed {seed}
base_score 0
trees 1
tree 0 3
s 0 1.5 1 2 0.17142857142857143
l -0.2857142857142857
l 0.40000000000000002
"""
V1_DETECTOR = ("apisentry-detector v1\ncombine mean\nthreshold 0.5\nn_features 2\n"
               "vocab_ref vocab.tsv\nmembers 3\n"
               + "".join(V1_MEMBER.format(i=i, seed=42 + i) for i in range(3)))
# v2 is v1 without the seed lines
V2_DETECTOR = re.sub(r"seed \d+\n", "", V1_DETECTOR.replace(" v1\n", " v2\n", 1))


class TestPersistence:
    def test_v1_file_is_refused_naming_the_tag(self, tmp_path):
        path = tmp_path / "v1.det"
        path.write_text(V1_DETECTOR)
        with pytest.raises(ValueError, match="line 1: not an 'apisentry-detector v2' file$"):
            load_detector(path)
        path.write_text(V2_DETECTOR)
        save_detector(load_detector(path), tmp_path / "v2.det")
        assert (tmp_path / "v2.det").read_text() == V2_DETECTOR

    @pytest.mark.parametrize("line, bad, want", [("member 1", "member 7", "member 1"),
                                                 ("tree 0 3", "tree 99 3", "tree 0")])
    def test_an_index_off_its_position_is_refused_at_its_line(self, tmp_path, line, bad, want):
        lines = V2_DETECTOR.splitlines()
        at = lines.index(line)
        lines[at] = bad
        path = tmp_path / "bad.det"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line {at + 1}: expected {want}$"):
            load_detector(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        X, y = random_count_corpus(rng, n_max=50, f_max=4)
        cfgs = [GbdtConfig(learning_rate=0.1, max_depth=3, n_estimators=7)] * 3
        det = train_bagged(csr(X), y, configs=cfgs, seed=3, vocab_ref="vocab v1")
        p1 = tmp_path / "one.det"
        p2 = tmp_path / "two.det"
        save_detector(det, p1)
        loaded = load_detector(p1)
        save_detector(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.vocab_ref == "vocab v1"
        _, score_a = ensemble_predict_rows(det, csr(X))
        _, score_b = ensemble_predict_rows(loaded, csr(X))
        assert (score_a == score_b).all()


class TestFeatureMatrix:
    def test_accepts_feature_vectors(self):
        X = as_feature_matrix([fv({0: 2}, 3), fv({2: 1}, 3)])
        assert X.shape == (2, 3)
        assert to_scipy(X).toarray().tolist() == [[2, 0, 0], [0, 0, 1]]

    def test_stacks_multi_row_items_row_after_row(self):
        parts = [np.array([[0, 1, 2], [3, 0, 0]]), np.zeros((2, 3)), np.array([[0, 0, 4]])]
        X = as_feature_matrix([csr(part) for part in parts])
        assert X.shape == (5, 3) and X.nnz == 4 and X.indptr[-1] == 4
        assert np.array_equal(to_scipy(X).toarray(), np.vstack(parts))

    def test_matrix_is_returned_as_is(self):
        X = fv({1: 3}, 2)
        assert as_feature_matrix(X, 2) is X

    @pytest.mark.parametrize("X", [np.ones((2, 3)), [np.ones((1, 3))], [[1.0, 2.0]], []])
    def test_anything_else_is_refused(self, X):
        with pytest.raises(ValueError, match="a feature matrix is a CsrMatrix"):
            as_feature_matrix(X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_is_refused_in_prediction_too(self, bad):
        model = train_gbdt(csr(np.eye(2)), [0, 1], GbdtConfig(n_estimators=1))
        with pytest.raises(ValueError, match=rf"entry \(1,0\) holds {bad}; .* finite"):
            predict_proba_rows(model, csr(np.array([[1.0, 0.0], [bad, 1.0]])))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            as_feature_matrix([fv({0: 1}, 2), fv({0: 1}, 3)])
        with pytest.raises(ValueError, match=r"mismatch: \[2, 3\]"):
            as_feature_matrix(fv({0: 1}, 2), 3)

    def test_stored_zeros_are_inert(self, tmp_path):
        rng = np.random.default_rng(18)
        X, y = random_count_corpus(rng, n_max=40, f_max=4)
        plain = csr(X)
        # a stored 0.0 or -0.0 in every cell the matrix leaves empty
        holes = np.argwhere(X == 0)
        signed = np.where(np.arange(len(holes)) % 2, -0.0, 0.0)
        zeros = sparse.coo_matrix((np.concatenate([plain.data, signed]),
                                   (np.concatenate([np.nonzero(X)[0], holes[:, 0]]),
                                    np.concatenate([np.nonzero(X)[1], holes[:, 1]]))), X.shape)
        stored = csr(zeros)
        assert stored.nnz == X.size and np.signbit(stored.data).any()
        cfgs = [GbdtConfig(learning_rate=0.3, max_depth=3, n_estimators=4)] * 3
        for name, matrix in (("plain", plain), ("stored", stored)):
            save_detector(train_bagged(matrix, y, configs=cfgs, seed=2), tmp_path / name)
        assert (tmp_path / "plain").read_bytes() == (tmp_path / "stored").read_bytes()
        detector = load_detector(tmp_path / "plain")
        for a, b in zip(ensemble_predict_rows(detector, plain),
                        ensemble_predict_rows(detector, stored)):
            assert a.tobytes() == b.tobytes()
