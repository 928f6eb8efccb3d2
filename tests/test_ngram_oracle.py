"""Property tests: the keyed n-gram encoder against the per-window dict
implementation it replaced, kept here as the oracle. On random corpora the
vocabulary (order and counts), the CSR count matrix and the class counts
must come out equal."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from apisentry.corpus import Corpus, LabeledTrace
from apisentry.ngrams import (
    NGramVocabulary,
    build_vocabulary,
    class_frequency,
    corpus_matrix,
    vectorize,
)
from matrices import csr, to_scipy


def windows(calls):
    """(trace, n, position) order: every 2-gram, then every 3-gram."""
    calls = tuple(calls)
    return [calls[i:i + n] for n in (2, 3) for i in range(len(calls) - n + 1)]


def reference_vocabulary(corpus, min_count=1, top_k=None):
    counts, first_seen = {}, {}
    for trace in corpus.traces:
        for ng in windows(trace.calls):
            if ng not in counts:
                first_seen[ng] = len(first_seen)
                counts[ng] = 1
            else:
                counts[ng] += 1
    kept = [ng for ng, c in counts.items() if c >= max(min_count, 1)]
    if top_k is not None and top_k < len(kept):
        kept.sort(key=lambda ng: (-counts[ng], first_seen[ng]))
        kept = kept[:top_k]
    kept.sort(key=lambda ng: first_seen[ng])
    return {ng: col for col, ng in enumerate(kept)}, tuple(counts[ng] for ng in kept)


def reference_vector(calls, index):
    out = {}
    for ng in windows(calls):
        col = index.get(ng)
        if col is not None:
            out[col] = out.get(col, 0) + 1
    return out


def reference_matrix(corpus, index):
    rows, cols, vals = [], [], []
    for r, trace in enumerate(corpus.traces):
        counts = reference_vector(trace.calls, index)
        rows.extend([r] * len(counts))
        cols.extend(counts)
        vals.extend(counts.values())
    return csr(sparse.coo_matrix(
        (np.asarray(vals, dtype=np.float64),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(len(corpus), len(index))))


def reference_class_frequency(corpus, ngram):
    totals = [0, 0]
    for trace in corpus.traces:
        totals[trace.label] += sum(1 for ng in windows(trace.calls) if ng == tuple(ngram))
    return totals[0], totals[1]


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part


# small pools force repeated n-grams; large ones test that keys never wrap
id_pools = st.sampled_from([
    [0, 1, 2],
    [3, 7, 8, 300],
    list(range(12)),
    [2**62 - 1, 2**62, 2**62 + 1, 5],
    [2**63 - 1, 2**63 - 2, 0, 1],
])


@st.composite
def corpora(draw, pool):
    traces = draw(st.lists(
        st.tuples(st.integers(0, 1), st.lists(st.sampled_from(pool), min_size=1, max_size=9)),
        min_size=1, max_size=12))
    return Corpus(traces=tuple(LabeledTrace(id=f"t{i}", calls=tuple(calls), label=label)
                               for i, (label, calls) in enumerate(traces)),
                  vocabulary_size=max(pool) + 1)


@st.composite
def cases(draw):
    pool = draw(id_pools)
    # the applied corpus may hold ids the vocabulary never saw
    absent = draw(st.lists(st.integers(0, 2**63 - 1), max_size=2))
    return draw(corpora(pool)), draw(corpora(pool + absent))


@settings(max_examples=300, deadline=None)
@given(case=cases(), min_count=st.integers(0, 3),
       top_k=st.none() | st.integers(0, 12))
def test_keyed_encoder_equals_the_dict_oracle(case, min_count, top_k):
    train, other = case
    vocab = build_vocabulary(train, min_count=min_count, top_k=top_k)
    index, counts = reference_vocabulary(train, min_count, top_k)
    assert list(vocab.index.items()) == list(index.items())
    assert vocab.counts == counts
    for corpus in (train, other):
        matrix, labels = corpus_matrix(corpus, vocab)
        assert_same_csr(matrix, reference_matrix(corpus, index))
        assert labels == [t.label for t in corpus.traces]
        for r, trace in enumerate(corpus.traces):
            assert_same_csr(vectorize(trace, vocab), csr(to_scipy(matrix)[r]))
    for ngram in list(index) + windows(other.traces[0].calls):
        assert class_frequency(train, ngram) == reference_class_frequency(train, ngram)


def test_ties_at_the_top_k_cut_go_to_the_first_seen():
    corpus = Corpus(traces=(LabeledTrace("a", (5, 6), 1), LabeledTrace("b", (1, 2), 0),
                            LabeledTrace("c", (1, 2, 5, 6, 9), 1)), vocabulary_size=10)
    for k in range(6):
        index, counts = reference_vocabulary(corpus, top_k=k)
        vocab = build_vocabulary(corpus, top_k=k)
        assert list(vocab.index.items()) == list(index.items()) and vocab.counts == counts
    assert list(build_vocabulary(corpus, top_k=3).index) == [(5, 6), (1, 2), (2, 5)]


def test_empty_vocabulary_gives_an_empty_feature_space():
    corpus = Corpus(traces=(LabeledTrace("a", (1,), 1), LabeledTrace("b", (2, 3), 0)),
                    vocabulary_size=4)
    vocab = build_vocabulary(corpus, min_count=2)
    assert vocab == NGramVocabulary(index={}, counts=())
    matrix, _ = corpus_matrix(corpus, vocab)
    assert matrix.shape == (2, 0) and matrix.nnz == 0
    assert vectorize([2, 3], vocab).shape == (1, 0)
