"""Property tests: the packed-forest prediction path against a scalar
per-row descent, the one-row wrappers against the rows path, the
shared sigmoid at extreme inputs and in place, the AUC midranks against scipy,
save/load round trips of the corpus, vocabulary and detector files, and the
number rule's readers on every integer and float the writers spell."""

import warnings
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

from apisentry import gbdt, seqmodel
from apisentry.corpus import (Corpus, LabeledTrace, _finite, _int, parse_corpus,
                              serialize_corpus)
from apisentry.gbdt import (
    BaggedDetector,
    GbdtConfig,
    GbdtModel,
    RegressionTree,
    ensemble_predict,
    ensemble_predict_rows,
    load_detector,
    predict_margin_rows,
    predict_proba_rows,
    save_detector,
)
from apisentry.metrics import _midranks
from apisentry.ngrams import CsrMatrix, NGramVocabulary, load_vocabulary, save_vocabulary
from matrices import csr

N_FEATURES = 5
weights = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def random_tree(draw):
    """A random valid tree in the layout _grow_tree builds; thresholds
    include integers so rows can land exactly on them."""
    feature, threshold, left, right, weight, gain = [], [], [], [], [], []

    def grow(depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        weight.append(0.0)
        gain.append(0.0)
        if depth < 4 and draw(st.booleans()):
            feature[node] = draw(st.integers(0, N_FEATURES - 1))
            threshold[node] = draw(st.sampled_from([0.5, 1.0, 1.5, 2.5, 3.0]))
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
            gain[node] = draw(st.floats(0.0, 50.0))
        else:
            weight[node] = draw(weights)
        return node

    grow(0)
    n = len(feature)
    return RegressionTree(
        feature=np.array(feature, dtype=np.int32), threshold=np.array(threshold),
        left=np.array(left, dtype=np.int32), right=np.array(right, dtype=np.int32),
        weight=np.array(weight), gain=np.array(gain))


@st.composite
def random_model(draw):
    trees = draw(st.lists(random_tree(), min_size=0, max_size=6))
    cfg = GbdtConfig(learning_rate=draw(st.sampled_from([0.01, 0.1, 0.3, 1.0])),
                     max_depth=4, n_estimators=len(trees))
    return GbdtModel(trees=trees, base_score=draw(weights), config=cfg,
                     n_features=N_FEATURES)


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


def one_row(row):
    """A 1-row matrix built from the nonzero counts of `row` alone."""
    cols = [c for c, v in enumerate(row) if v]
    return CsrMatrix(np.array([row[c] for c in cols], dtype=np.float64),
                     np.array(cols, dtype=np.int64), np.array([0, len(cols)]), (1, len(row)))


@settings(max_examples=150, deadline=None)
@given(model=random_model(), rows=count_rows, block=st.sampled_from([1, 2, 7, 64]))
def test_forest_equals_scalar_descent(model, rows, block):
    with mock.patch.object(gbdt, "_ROW_BLOCK", block):
        got = predict_margin_rows(model, csr(np.array(rows, dtype=float)))
    want = np.array([scalar_margin(model, row) for row in rows])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(model=random_model(), row=count_rows.map(lambda rows: rows[0]))
def test_one_vector_equals_one_row(model, row):
    X = csr(np.array([row], dtype=float))
    assert predict_proba_rows(model, one_row(row))[0] == predict_proba_rows(model, X)[0]


def test_zero_trees_predict_base_score():
    model = GbdtModel(trees=[], base_score=0.25, config=GbdtConfig(n_estimators=0),
                      n_features=N_FEATURES)
    X = csr(np.ones((3, N_FEATURES)))
    assert predict_margin_rows(model, X).tolist() == [0.25, 0.25, 0.25]


@settings(max_examples=40, deadline=None)
@given(members=st.lists(random_model(), min_size=3, max_size=3), rows=count_rows,
       combine=st.sampled_from(["mean", "majority"]),
       threshold=st.sampled_from([0.3, 0.5, 0.7]))
def test_ensemble_predict_equals_its_row(members, rows, combine, threshold):
    detector = BaggedDetector(members=members, threshold=threshold, combine=combine)
    labels, scores = ensemble_predict_rows(detector, csr(np.array(rows, dtype=float)))
    for r, row in enumerate(rows):
        assert ensemble_predict(detector, one_row(row)) == (labels[r], scores[r])


def test_seqmodel_sigmoid_extremes_do_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = seqmodel._sigmoid(np.array([-800.0, 0.0, 800.0]))
    assert out[0] < 1e-300 and out[1] == 0.5 and out[2] == 1.0


EDGES = [700.0, -700.0, 800.0, -800.0, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308]


@settings(max_examples=300, deadline=None)
@given(z=arrays(np.float64, st.integers(1, 40),
                elements=st.sampled_from(EDGES) | st.floats(allow_subnormal=True)))
def test_sigmoid_in_place_is_the_expression_bit_for_bit(z):
    expect = 1.0 / (1.0 + np.exp(-np.maximum(z, -700.0)))
    assert seqmodel._sigmoid(z).tobytes() == expect.tobytes()
    out = z.copy()
    assert seqmodel._sigmoid(out, out=out) is out
    assert out.tobytes() == expect.tobytes()
    for x in z[:3].tolist():  # Python floats too, as the boosted-tree tests pass
        expect = 1.0 / (1.0 + np.exp(-np.maximum(x, -700.0)))
        assert np.float64(seqmodel._sigmoid(x)).tobytes() == expect.tobytes()


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from([-1.5, 0.0, 0.25, 0.5, 3.0]) | st.floats(-9, 9),
                       min_size=1, max_size=60))
def test_midranks_equal_scipy_average_ranks(values):
    values = np.array(values)
    assert np.array_equal(_midranks(values), rankdata(values, method="average"))


call_ids = st.integers(0, 2**63 - 1) | st.integers(0, 9)
# one line of text: no character that str.splitlines breaks at
line_text = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)


@settings(max_examples=100, deadline=None)
@given(traces=st.lists(st.tuples(st.sampled_from([0, 1, None]),
                                 st.lists(call_ids, min_size=1, max_size=8)),
                       min_size=1, max_size=6),
       spare_ids=st.integers(0, 5), format=st.sampled_from(["canonical_csv", "jsonl"]))
def test_corpus_text_round_trip(traces, spare_ids, format):
    # jsonl declares no vocabulary: its size is one past the largest call id
    vocab = max(max(calls) for _, calls in traces) + 1 + (format == "canonical_csv") * spare_ids
    corpus = Corpus(traces=tuple(LabeledTrace(id=f"t{i + 1}", calls=tuple(calls), label=label)
                                 for i, (label, calls) in enumerate(traces)),
                    vocabulary_size=vocab)
    back = parse_corpus(serialize_corpus(corpus, format), format=format)
    assert [(t.label, t.calls) for t in back.traces] == [(t.label, t.calls) for t in corpus.traces]
    assert back.vocabulary_size == corpus.vocabulary_size


@settings(max_examples=100, deadline=None)
@given(counts=st.dictionaries(st.lists(call_ids, min_size=2, max_size=3).map(tuple),
                              st.integers(1, 10**12), max_size=12))
def test_vocabulary_file_round_trip(counts):
    vocab = NGramVocabulary(index={ng: col for col, ng in enumerate(counts)},
                            counts=tuple(counts.values()))
    with TemporaryDirectory() as tmp:
        save_vocabulary(vocab, Path(tmp) / "v.tsv")
        assert load_vocabulary(Path(tmp) / "v.tsv") == vocab


@settings(max_examples=40, deadline=None)
@given(members=st.lists(random_model(), min_size=3, max_size=3), rows=count_rows,
       combine=st.sampled_from(["mean", "majority"]), threshold=st.floats(0.0, 1.0),
       vocab_ref=line_text)
def test_detector_file_round_trip(members, rows, combine, threshold, vocab_ref):
    detector = BaggedDetector(members=members, threshold=threshold, combine=combine,
                              vocab_ref=vocab_ref)
    X = csr(np.array(rows, dtype=float))
    with TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.det", Path(tmp) / "b.det"
        save_detector(detector, first)
        loaded = load_detector(first)
        save_detector(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    want, got = ensemble_predict_rows(detector, X), ensemble_predict_rows(loaded, X)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(want, got))


@settings(max_examples=500, deadline=None)
@given(n=st.integers(-2**63, 2**63 - 1), x=st.floats(allow_nan=False, allow_infinity=False))
def test_number_readers_read_what_the_writers_spell(n, x):
    assert _int(str(n)) == n
    assert _finite("%.17g" % x) == x
