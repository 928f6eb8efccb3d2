import numpy as np
import pytest
from scipy import sparse

from apisentry.corpus import Corpus, CorpusError, LabeledTrace
from apisentry.ngrams import (
    NGramVocabulary,
    build_vocabulary,
    class_frequency,
    corpus_matrix,
    extract_ngrams,
    load_matrix,
    load_vocabulary,
    pad_prefix,
    prefix_samples,
    save_matrix,
    save_vocabulary,
    vectorize,
)


def trace(calls, label=1, tid="t"):
    return LabeledTrace(id=tid, calls=tuple(calls), label=label)


def make_corpus(specs, vocab=400):
    traces = tuple(trace(c, lab, f"t{i}") for i, (lab, c) in enumerate(specs))
    return Corpus(traces=traces, vocabulary_size=vocab)


def vocab_of(entries):
    return NGramVocabulary(index={tuple(ng): i for i, ng in enumerate(entries)},
                           counts=tuple(1 for _ in entries))


class TestExtract:
    def test_bigrams(self):
        assert extract_ngrams([1, 2, 3], 2) == [(1, 2), (2, 3)]

    def test_trigram_first_window(self):
        grams = extract_ngrams([220, 233, 237, 220, 233, 290, 260], 3)
        assert grams[0] == (220, 233, 237)
        assert len(grams) == 5

    def test_too_short(self):
        assert extract_ngrams([7], 2) == []

    def test_bad_n(self):
        with pytest.raises(ValueError):
            extract_ngrams([1, 2, 3], 4)


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


class TestVectorize:
    def test_direct_count(self):
        fv = vectorize([1, 2, 1, 2], vocab_of([(1, 2), (2, 1)]))
        assert fv.counts == {0: 2, 1: 1}

    def test_oov_only(self):
        fv = vectorize([8, 9, 8], vocab_of([(1, 2)]))
        assert fv.counts == {}

    def test_single_trigram_hit(self):
        fv = vectorize([220, 233, 237], vocab_of([(220, 233, 237)]))
        assert fv.counts == {0: 1}

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
                for col, cnt in vectorize(t, vocab).counts.items():
                    totals[col] += cnt
            assert (totals >= 1).all()

    def test_additive_up_to_junction_windows(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = [int(v) for v in rng.integers(0, 5, size=rng.integers(2, 15))]
            b = [int(v) for v in rng.integers(0, 5, size=rng.integers(2, 15))]
            corpus = make_corpus([(1, a + b)])
            vocab = build_vocabulary(corpus, min_count=0)
            joint = vectorize(a + b, vocab).counts
            partial = vectorize(a, vocab).counts
            for col, cnt in vectorize(b, vocab).counts.items():
                partial[col] = partial.get(col, 0) + cnt
            diff = sum(abs(joint.get(c, 0) - partial.get(c, 0))
                       for c in set(joint) | set(partial))
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

    def test_count_and_reconstruction(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            calls = [int(v) for v in rng.integers(0, 9, size=rng.integers(1, 25))]
            samples = prefix_samples(calls)
            assert len(samples) == max(0, len(calls) - 2)
            for s in samples:
                joined = list(s.prefix) + [s.next]
                assert calls[:len(joined)] == joined


class TestPadPrefix:
    def test_left_pad(self):
        assert pad_prefix([5, 6], 4, 0) == [0, 0, 5, 6]

    def test_exact_fit(self):
        assert pad_prefix([1, 2, 3, 4], 4, 0) == [1, 2, 3, 4]

    def test_overflow(self):
        with pytest.raises(ValueError):
            pad_prefix([1, 2, 3, 4, 5], 4, 0)


class TestMatrixIO:
    def test_roundtrip(self, tmp_path):
        corpus = make_corpus([(1, [1, 2, 3]), (0, [2, 3, 2])])
        vocab = build_vocabulary(corpus)
        matrix, labels = corpus_matrix(corpus, vocab)
        path = tmp_path / "m.txt"
        save_matrix(matrix, path)
        again = load_matrix(path)
        assert again.shape == matrix.shape
        assert (again != matrix).nnz == 0
        assert labels == [1, 0]

    def test_header_has_dimensions(self, tmp_path):
        matrix = sparse.csr_matrix(np.array([[0, 2], [1, 0]]))
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

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2;3\n")
        with pytest.raises(ValueError, match="line 1"):
            load_matrix(path)
