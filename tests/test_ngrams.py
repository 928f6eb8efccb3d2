import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from apisentry import ngrams
from apisentry.corpus import Corpus, CorpusError, LabeledTrace
from apisentry.ngrams import (
    NGramVocabulary,
    build_vocabulary,
    class_frequency,
    corpus_matrix,
    load_matrix,
    load_vocabulary,
    prefix_samples,
    save_matrix,
    save_vocabulary,
    vectorize,
)
from matrices import csr, to_scipy


def trace(calls, label=1, tid="t"):
    return LabeledTrace(id=tid, calls=tuple(calls), label=label)


def make_corpus(specs, vocab=400):
    traces = tuple(trace(c, lab, f"t{i}") for i, (lab, c) in enumerate(specs))
    return Corpus(traces=traces, vocabulary_size=vocab)


def vocab_of(entries):
    return NGramVocabulary(index={tuple(ng): i for i, ng in enumerate(entries)},
                           counts=tuple(1 for _ in entries))


class TestVocabulary:
    def test_single_trace_enumeration(self):
        corpus = make_corpus([(1, [1, 2, 3])])
        vocab = build_vocabulary(corpus, min_count=0)
        assert set(vocab.index) == {(1, 2), (2, 3), (1, 2, 3)}
        assert len(vocab) == 3

    def test_threshold_filters_all(self):
        corpus = make_corpus([(1, [1, 2, 3])])
        assert len(build_vocabulary(corpus, min_count=2)) == 0

    def test_counts_accumulate_across_traces(self):
        corpus = make_corpus([(1, [1, 2]), (0, [1, 2])])
        vocab = build_vocabulary(corpus, min_count=2)
        assert set(vocab.index) == {(1, 2)}
        assert vocab.counts == (2,)

    def test_first_occurrence_order(self):
        corpus = make_corpus([(1, [4, 5, 6]), (0, [9, 9])])
        vocab = build_vocabulary(corpus)
        assert vocab.index[(4, 5)] == 0
        assert vocab.index[(5, 6)] == 1
        assert vocab.index[(4, 5, 6)] == 2
        assert vocab.index[(9, 9)] == 3

    def test_top_k_by_frequency(self):
        corpus = make_corpus([(1, [1, 2]), (1, [1, 2]), (1, [3, 4])])
        vocab = build_vocabulary(corpus, top_k=1)
        assert set(vocab.index) == {(1, 2)}

    def test_too_many_distinct_ids_refused_before_keys_wrap(self, monkeypatch):
        monkeypatch.setattr(ngrams, "_MAX_RADIX", 4)
        assert len(build_vocabulary(make_corpus([(1, [1, 2, 3])]))) == 3
        with pytest.raises(CorpusError, match="more than 3 distinct call ids"):
            build_vocabulary(make_corpus([(1, [1, 2, 3, 4])]))

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            build_vocabulary(Corpus(traces=(), vocabulary_size=1))

    def test_roundtrip(self, tmp_path):
        corpus = make_corpus([(1, [1, 2, 3, 1, 2])])
        vocab = build_vocabulary(corpus)
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)
        again = load_vocabulary(path)
        assert again.index == vocab.index
        assert again.counts == vocab.counts

    def test_repeated_ngram_rejected_with_line(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("#min_count=1\n0\t1,2\t3\n1\t1,2\t4\n")
        with pytest.raises(ValueError) as err:
            load_vocabulary(path)
        assert str(err.value) == f"{path}: line 3: duplicate n-gram (1, 2)"


def vocabulary_file(tmp_path, body):
    path = tmp_path / "vocab.tsv"
    path.write_text("#min_count=1\n" + body)
    return path


@pytest.mark.parametrize("body, message", [
    ("0\t1,2\t3\n1\t-1,2\t5\n", "line 3: call id outside 0..2**63-1 in -1,2"),
    (f"0\t1,{2**63},2\t3\n", f"line 2: call id outside 0..2**63-1 in 1,{2**63},2"),
    ("0\t1,2\t3\n1\t2,3\t0\n", "line 3: count 0 below 1"),
    ("0\t-1,2\t-5\n", "line 2: call id outside 0..2**63-1 in -1,2"),
    ("0\t1,2\t-5\n", "line 2: count -5 below 1"),
])
def test_vocabulary_refuses_ids_and_counts_build_never_writes(tmp_path, body, message):
    path = vocabulary_file(tmp_path, body)
    with pytest.raises(ValueError) as err:
        load_vocabulary(path)
    assert str(err.value) == f"{path}: {message}"


def test_vocabulary_accepts_the_largest_64_bit_id(tmp_path):
    path = vocabulary_file(tmp_path, f"0\t{2**63 - 1},0\t1\n")
    assert load_vocabulary(path).index == {(2**63 - 1, 0): 0}


def counts(row):
    """{column: count} of a 1-row matrix's stored entries."""
    assert row.shape[0] == 1
    return dict(zip(row.indices.tolist(), row.data.tolist()))


class TestVectorize:
    def test_direct_count(self):
        fv = vectorize([1, 2, 1, 2], vocab_of([(1, 2), (2, 1)]))
        assert fv.shape == (1, 2)
        assert counts(fv) == {0: 2, 1: 1}

    def test_oov_only(self):
        fv = vectorize([8, 9, 8], vocab_of([(1, 2)]))
        assert fv.shape == (1, 1)
        assert counts(fv) == {}

    def test_single_trigram_hit(self):
        fv = vectorize([220, 233, 237], vocab_of([(220, 233, 237)]))
        assert counts(fv) == {0: 1}

    def test_every_column_hit_on_building_corpus(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            corpus = make_corpus(
                [(int(rng.integers(0, 2)),
                  [int(v) for v in rng.integers(0, 6, size=rng.integers(2, 20))])
                 for _ in range(int(rng.integers(1, 8)))])
            vocab = build_vocabulary(corpus, min_count=0)
            totals = np.zeros(len(vocab))
            for t in corpus.traces:
                for col, cnt in counts(vectorize(t, vocab)).items():
                    totals[col] += cnt
            assert (totals >= 1).all()

    def test_additive_up_to_junction_windows(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = [int(v) for v in rng.integers(0, 5, size=rng.integers(2, 15))]
            b = [int(v) for v in rng.integers(0, 5, size=rng.integers(2, 15))]
            corpus = make_corpus([(1, a + b)])
            vocab = build_vocabulary(corpus, min_count=0)
            joint = to_scipy(vectorize(a + b, vocab)).toarray()
            partial = (to_scipy(vectorize(a, vocab)).toarray()
                       + to_scipy(vectorize(b, vocab)).toarray())
            diff = np.abs(joint - partial).sum()
            assert diff <= 2 * 1 + 2 * 2  # at most 2(n-1) junction windows per n


class TestClassFrequency:
    def test_absent(self):
        corpus = make_corpus([(0, [1, 2]), (1, [3, 4])])
        assert class_frequency(corpus, (9, 9)) == (0, 0)

    def test_double_hit_in_malware(self):
        corpus = make_corpus([(1, [5, 6, 5, 6])])
        assert class_frequency(corpus, (5, 6)) == (0, 2)

    def test_matches_bruteforce_window_recount(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            corpus = make_corpus(
                [(int(rng.integers(0, 2)),
                  [int(v) for v in rng.integers(0, 4, size=rng.integers(2, 12))])
                 for _ in range(int(rng.integers(1, 50)))])
            vocab = build_vocabulary(corpus, min_count=0)
            # sum of class frequencies over all vocab n-grams equals the
            # total window count over all traces
            total = sum(sum(class_frequency(corpus, ng)) for ng in vocab.index)
            windows = sum(max(0, len(t.calls) - 1) + max(0, len(t.calls) - 2)
                          for t in corpus.traces)
            assert total == windows


class TestPrefixSamples:
    def test_seven_call_trace(self):
        samples = prefix_samples([220, 233, 237, 220, 233, 290, 260])
        assert len(samples) == 5
        assert samples[0].prefix == (220, 233) and samples[0].next == 237
        assert samples[-1].prefix == (220, 233, 237, 220, 233, 290)
        assert samples[-1].next == 260

    def test_minimal(self):
        samples = prefix_samples([1, 2, 3])
        assert [(s.prefix, s.next) for s in samples] == [((1, 2), 3)]

    def test_below_minimum(self):
        assert prefix_samples([1, 2]) == []

    def test_a_sample_is_a_pair(self):
        [sample] = prefix_samples([1, 2, 3])
        prefix, nxt = sample
        assert (prefix, nxt) == ((1, 2), 3) == sample

    def test_count_and_reconstruction(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            calls = [int(v) for v in rng.integers(0, 9, size=rng.integers(1, 25))]
            samples = prefix_samples(calls)
            assert len(samples) == max(0, len(calls) - 2)
            for s in samples:
                joined = list(s.prefix) + [s.next]
                assert calls[:len(joined)] == joined


def assert_same_matrix(got, want):
    assert got.shape == want.shape
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part


@st.composite
def count_cells(draw):
    """A shape, 0 rows and 0 columns included, and distinct cells of it with
    integer counts, 0 included, in row-major order."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = sorted(draw(st.sets(st.tuples(st.integers(0, max(n_rows - 1, 0)),
                                          st.integers(0, max(n_cols - 1, 0))),
                                max_size=n_rows * n_cols)))
    counts = draw(st.lists(st.integers(0, 3) | st.integers(0, 2**53), min_size=len(cells),
                           max_size=len(cells)))
    return (n_rows, n_cols), cells, counts


def cells_matrix(shape, cells, counts):
    rows = np.array([r for r, _ in cells], dtype=np.int64)
    return ngrams.CsrMatrix(np.array(counts, dtype=np.float64),
                            np.array([c for _, c in cells], dtype=np.int64),
                            np.searchsorted(rows, np.arange(shape[0] + 1)), shape)


@settings(max_examples=200, deadline=None)
@given(case=count_cells())
def test_a_saved_matrix_loads_back_array_by_array(tmp_path_factory, case):
    matrix = cells_matrix(*case)
    path = tmp_path_factory.mktemp("m") / "m.txt"
    save_matrix(matrix, path)
    assert_same_matrix(load_matrix(path), matrix)


@settings(max_examples=200, deadline=None)
@given(case=count_cells(), data=st.data())
def test_shuffled_triplets_load_as_scipy_sorts_them(tmp_path_factory, case, data):
    (n_rows, n_cols), cells, counts = case
    lines = data.draw(st.permutations([f"{r},{c},{v}" for (r, c), v in zip(cells, counts)]))
    path = tmp_path_factory.mktemp("m") / "m.txt"
    path.write_text("\n".join([f"{n_rows},{n_cols}"] + lines) + "\n")
    want = sparse.coo_matrix((np.array(counts, dtype=np.float64),
                              ([r for r, _ in cells], [c for _, c in cells])),
                             shape=(n_rows, n_cols)).tocsr()
    want.sort_indices()
    got = load_matrix(path)
    assert got.shape == want.shape
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


@settings(max_examples=200, deadline=None)
@given(case=count_cells(), data=st.data())
def test_a_repeated_cell_is_refused_at_its_second_line(tmp_path_factory, case, data):
    (n_rows, n_cols), cells, counts = case
    assume(cells)
    lines = data.draw(st.permutations([f"{r},{c},{v}" for (r, c), v in zip(cells, counts)]))
    first = data.draw(st.integers(0, len(lines) - 1))
    again = data.draw(st.integers(first + 1, len(lines)))
    r, c, _ = lines[first].split(",")
    lines.insert(again, f"{r},{c},{data.draw(st.integers(0, 9))}")
    path = tmp_path_factory.mktemp("m") / "m.txt"
    path.write_text("\n".join([f"{n_rows},{n_cols}"] + lines) + "\n")
    with pytest.raises(ValueError) as err:
        load_matrix(path)
    # line 1 is the header
    assert str(err.value) == f"{path}: line {again + 2}: duplicate entry ({r},{c})"


class TestMatrixIO:
    def test_roundtrip(self, tmp_path):
        corpus = make_corpus([(1, [1, 2, 3]), (0, [2, 3, 2])])
        vocab = build_vocabulary(corpus)
        matrix, labels = corpus_matrix(corpus, vocab)
        path = tmp_path / "m.txt"
        save_matrix(matrix, path)
        assert_same_matrix(load_matrix(path), matrix)
        assert labels == [1, 0]

    def test_header_has_dimensions(self, tmp_path):
        matrix = csr(np.array([[0, 2], [1, 0]]))
        path = tmp_path / "m.txt"
        save_matrix(matrix, path)
        assert path.read_text().splitlines()[0] == "2,2"

    @pytest.mark.parametrize("body, message", [
        ("0,1,2\n0,1,5\n", "line 3: duplicate entry (0,1)"),
        ("0,1,-1\n", "line 2: negative count -1"),
        ("2,0,1\n", "line 2: entry (2,0) outside the 2x3 shape"),
        ("0,3,1\n", "line 2: entry (0,3) outside the 2x3 shape"),
        ("-1,0,1\n", "line 2: entry (-1,0) outside the 2x3 shape"),
        ("0,1\n", "line 2: expected 'row,col,count'"),
    ])
    def test_bad_triplets_rejected_with_line(self, tmp_path, body, message):
        path = tmp_path / "m.txt"
        path.write_text("2,3\n" + body)
        with pytest.raises(ValueError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}: {message}"

    def test_text_is_pinned_for_unordered_entries(self, tmp_path):
        matrix = csr(sparse.coo_matrix(([3.0, 1.0, 2.0, 7.0], ([2, 0, 2, 0], [1, 4, 0, 0])),
                                       shape=(3, 5)))
        path = tmp_path / "m.txt"
        save_matrix(matrix, path)
        assert path.read_text() == "3,5\n0,0,7\n0,4,1\n2,0,2\n2,1,3\n"

    @pytest.mark.parametrize("matrix, message", [
        (csr([[0.5, 2.7]]), "entry (0,0) holds 0.5"),
        (csr([[0, 2.7]]), "entry (0,1) holds 2.7"),
        (csr(np.array([[-1, 2]])), "entry (0,0) holds -1.0"),
        (csr([[3, np.nan]]), "entry (0,1) holds nan"),
        (csr([[np.inf, 1]]), "entry (0,0) holds inf"),
        (csr([[2.0 ** 63, 1]]), "entry (0,0) holds 9.223372036854776e+18"),
        (csr(sparse.coo_matrix(([0.5, -1.0], ([2, 0], [0, 1])), shape=(3, 2))),
         "entry (0,1) holds -1.0"),
        # the first bad entry stored, the first line save_matrix would write
        (ngrams.CsrMatrix(np.array([-1.0, 0.5]), np.array([2, 0]), np.array([0, 2, 2]), (2, 3)),
         "entry (0,2) holds -1.0"),
    ])
    def test_value_that_would_not_read_back_is_refused(self, tmp_path, matrix, message):
        # whatever save_matrix writes, load_matrix reads back equal
        path = tmp_path / "m.txt"
        with pytest.raises(ValueError) as err:
            save_matrix(matrix, path)
        assert str(err.value) == f"{message}; counts must be integers in [0, 2**63)"
        assert not path.exists()

    def test_matrix_without_entries_is_the_header_alone(self, tmp_path):
        path = tmp_path / "m.txt"
        save_matrix(csr(np.zeros((2, 4))), path)
        assert path.read_text() == "2,4\n"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2;3\n")
        with pytest.raises(ValueError, match="line 1"):
            load_matrix(path)
