import io

import numpy as np
import pytest

from apisentry.corpus import (
    Corpus,
    CorpusError,
    LabeledTrace,
    SplitSpec,
    canonicalize,
    collapse_consecutive_repeats,
    convert_seq_csv,
    convert_wide_csv,
    load_corpus,
    parse_corpus,
    random_oversample,
    serialize_corpus,
    stratified_split,
    truncate_prefix,
)


def trace(calls, label=1, tid="t"):
    return LabeledTrace(id=tid, calls=tuple(calls), label=label)


def make_corpus(specs, vocab=None):
    traces = tuple(trace(calls, label, f"t{i}") for i, (label, calls) in enumerate(specs))
    if vocab is None:
        vocab = 1 + max(max(c) for _, c in specs)
    return Corpus(traces=traces, vocabulary_size=vocab)


class TestParse:
    def test_simple_row(self):
        corpus = parse_corpus("1,220,233,237\n")
        assert len(corpus) == 1
        assert corpus.traces[0].label == 1
        assert corpus.traces[0].calls == (220, 233, 237)

    def test_empty_file_is_an_error(self):
        with pytest.raises(CorpusError, match="no traces"):
            parse_corpus("")

    def test_header_sets_vocabulary(self):
        corpus = parse_corpus("#vocab=307\n0,1,2\n")
        assert corpus.vocabulary_size == 307

    def test_vocabulary_defaults_to_max_plus_one(self):
        corpus = parse_corpus("0,5,9\n1,2,3\n")
        assert corpus.vocabulary_size == 10

    def test_id_beyond_declared_vocabulary(self):
        with pytest.raises(CorpusError, match="exceeds"):
            parse_corpus("#vocab=5\n0,1,7\n")

    def test_malformed_row_reports_line(self):
        with pytest.raises(CorpusError, match="line 2"):
            parse_corpus("0,1,2\n0,x,2\n")

    def test_empty_sequence_rejected(self):
        with pytest.raises(CorpusError, match="empty sequence"):
            parse_corpus("0,1,2\n1\n")

    @pytest.mark.parametrize("fmt, text", [
        ("canonical_csv", f"0,1,2\n1,{2**63 - 1},{2**63}\n"),
        ("jsonl", '{"calls":[1,2]}\n{"calls":[%d,%d]}\n' % (2**63 - 1, 2**63)),
    ])
    def test_call_id_beyond_64_bits_rejected_with_file_and_line(self, tmp_path, fmt, text):
        path = tmp_path / "corpus.txt"
        path.write_text(text)
        with pytest.raises(CorpusError) as err:
            load_corpus(path, format=fmt)
        assert str(err.value) == f"{path}: line 2: call id {2**63} does not fit in 64 bits"

    def test_largest_64_bit_call_id_accepted(self):
        corpus = parse_corpus(f"1,{2**63 - 1},0\n")
        assert corpus.traces[0].calls == (2**63 - 1, 0)

    def test_unlabeled_marker(self):
        corpus = parse_corpus("-,4,5\n")
        assert corpus.traces[0].label is None

    def test_byte_stream_input(self):
        corpus = parse_corpus(io.BytesIO(b"#vocab=9\n1,8,3\n"))
        assert corpus.traces[0].calls == (8, 3)

    def test_jsonl(self):
        corpus = parse_corpus(
            '{"id":"abc","label":1,"calls":[1,2,3]}\n{"id":"d","label":null,"calls":[4]}\n',
            format="jsonl")
        assert corpus.traces[0].id == "abc"
        assert corpus.traces[1].label is None
        assert corpus.vocabulary_size == 5

    def test_jsonl_rejects_empty_calls(self):
        with pytest.raises(CorpusError, match="empty sequence"):
            parse_corpus('{"id":"a","label":0,"calls":[]}\n', format="jsonl")

    def test_roundtrip_is_identity_on_content(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            specs = [(int(rng.integers(0, 2)),
                      [int(v) for v in rng.integers(0, 40, size=rng.integers(1, 30))])
                     for _ in range(int(rng.integers(1, 15)))]
            corpus = make_corpus(specs, vocab=40)
            for fmt in ("canonical_csv", "jsonl"):
                again = parse_corpus(serialize_corpus(corpus, fmt), format=fmt)
                assert again.content() == corpus.content()
                assert again.vocabulary_size >= max(max(c) for _, c in specs) + 1


class TestCollapse:
    def test_adjacent_dedup(self):
        assert collapse_consecutive_repeats(trace([5, 5, 7, 7, 5])).calls == (5, 7, 5)

    def test_identity_on_repeat_free(self):
        assert collapse_consecutive_repeats(trace([1, 2, 3])).calls == (1, 2, 3)

    def test_single_run(self):
        assert collapse_consecutive_repeats(trace([9, 9, 9, 9])).calls == (9,)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t = trace([int(v) for v in rng.integers(0, 4, size=rng.integers(1, 40))])
            once = collapse_consecutive_repeats(t)
            assert collapse_consecutive_repeats(once).calls == once.calls


class TestTruncate:
    def test_caps_long_trace(self):
        t = trace(range(150))
        assert truncate_prefix(t, 100).calls == tuple(range(100))

    def test_short_trace_unchanged(self):
        t = trace([1, 2, 3, 4, 5, 6, 7])
        assert truncate_prefix(t, 100) is t

    def test_boundary(self):
        assert truncate_prefix(trace([4, 5, 6]), 2).calls == (4, 5)

    def test_max_len_below_two_rejected(self):
        with pytest.raises(CorpusError):
            truncate_prefix(trace([1, 2]), 1)

    def test_truncated_collapse_is_prefix(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            t = trace([int(v) for v in rng.integers(0, 5, size=rng.integers(1, 60))])
            collapsed = collapse_consecutive_repeats(t)
            cut = truncate_prefix(collapsed, 10)
            assert len(cut.calls) <= 10
            assert collapsed.calls[:len(cut.calls)] == cut.calls


class TestSplit:
    def test_exact_ratio(self):
        corpus = make_corpus([(0, [1, 2])] * 10 + [(1, [3, 4])] * 10)
        train, test = stratified_split(corpus, SplitSpec(test_fraction=0.2, seed=1))
        assert test.class_counts() == {0: 2, 1: 2}
        assert train.class_counts() == {0: 8, 1: 8}

    def test_deterministic(self):
        corpus = make_corpus([(i % 2, [i + 1, i + 2]) for i in range(30)])
        spec = SplitSpec(test_fraction=0.3, seed=99)
        first = stratified_split(corpus, spec)
        second = stratified_split(corpus, spec)
        assert [t.id for t in first[1]] == [t.id for t in second[1]]

    def test_degenerate_class(self):
        corpus = make_corpus([(0, [1, 2])] + [(1, [3, 4])] * 9)
        with pytest.raises(CorpusError, match="too few"):
            stratified_split(corpus, SplitSpec(test_fraction=0.2, seed=1))

    def test_partition_by_id(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n0, n1 = int(rng.integers(4, 20)), int(rng.integers(4, 20))
            corpus = make_corpus([(0, [1, 2])] * n0 + [(1, [3])] * n1)
            train, test = stratified_split(
                corpus, SplitSpec(test_fraction=0.25, seed=int(rng.integers(1 << 30))))
            train_ids = {t.id for t in train}
            test_ids = {t.id for t in test}
            assert not train_ids & test_ids
            assert train_ids | test_ids == {t.id for t in corpus.traces}

    def test_unlabeled_cannot_stratify(self):
        corpus = Corpus(traces=(trace([1], None, "a"), trace([2], None, "b")),
                        vocabulary_size=3)
        with pytest.raises(CorpusError, match="labeled"):
            stratified_split(corpus, SplitSpec(test_fraction=0.5, seed=0))

    def test_unstratified_allows_unlabeled(self):
        corpus = Corpus(traces=tuple(trace([i + 1], None, f"t{i}") for i in range(10)),
                        vocabulary_size=11)
        train, test = stratified_split(
            corpus, SplitSpec(test_fraction=0.2, seed=5, stratified=False))
        assert len(test) == 2 and len(train) == 8


class TestOversample:
    def test_balances_counts(self):
        corpus = make_corpus([(0, [1, 2])] * 3 + [(1, [3, 4])] * 10)
        balanced = random_oversample(corpus, seed=0)
        assert balanced.class_counts() == {0: 10, 1: 10}

    def test_reference_scale_counts(self):
        corpus = make_corpus([(0, [1])] * 1079 + [(1, [2])] * 42797)
        balanced = random_oversample(corpus, seed=42)
        assert balanced.class_counts() == {0: 42797, 1: 42797}

    def test_balanced_corpus_is_fixed_point(self):
        corpus = make_corpus([(0, [1, 2])] * 5 + [(1, [3, 4])] * 5)
        assert random_oversample(corpus, seed=1) is corpus

    def test_originals_retained_and_ids_unchanged(self):
        corpus = make_corpus([(0, [1, 2])] * 2 + [(1, [3, 4])] * 7)
        balanced = random_oversample(corpus, seed=3)
        assert balanced.traces[:len(corpus)] == corpus.traces
        assert {t.id for t in balanced.traces} == {t.id for t in corpus.traces}

    def test_single_class_rejected(self):
        corpus = make_corpus([(1, [1, 2])] * 4)
        with pytest.raises(CorpusError, match="two classes"):
            random_oversample(corpus, seed=0)


class TestAdapters:
    def test_wide_layout(self):
        text = "hash,t_0,t_1,t_2,malware\nabc,4,4,7,1\ndef,1,2,3,0\n"
        corpus = convert_wide_csv(text, label_col="malware", call_prefix="t_",
                                  id_col="hash", vocabulary_size=307)
        assert corpus.traces[0].id == "abc"
        assert corpus.traces[0].calls == (4, 4, 7)
        assert corpus.traces[1].label == 0
        assert corpus.vocabulary_size == 307

    @pytest.mark.parametrize("label", ["yes", "", "2", "true"])
    def test_wide_label_other_than_0_1_or_dash_rejected_with_line(self, label):
        text = f"t_0,t_1,malware\n4,5,1\n6,7,{label}\n"
        with pytest.raises(CorpusError,
                           match=f"^line 3: label must be 0, 1 or '-', got '{label}'$"):
            convert_wide_csv(text, label_col="malware", call_prefix="t_")

    @pytest.mark.parametrize("convert, text", [
        (lambda t: convert_wide_csv(t, label_col="malware", call_prefix="t_"),
         "t_0,t_1,malware\n4,5,1\n\n4,-5,0\n"),
        (lambda t: convert_seq_csv(t, seq_col="calls"), "calls\n4 5\n\n4 -5\n"),
    ])
    def test_negative_call_id_rejected_with_line(self, convert, text):
        with pytest.raises(CorpusError, match="^line 4: negative call id$"):
            convert(text)

    def test_seqcol_layout(self):
        text = "hash,calls\nx,10 11 12\ny,3 4\n"
        corpus = convert_seq_csv(text, seq_col="calls", id_col="hash",
                                 vocabulary_size=342)
        assert corpus.traces[0].calls == (10, 11, 12)
        assert all(t.label == 1 for t in corpus.traces)

    def test_canonicalize_pipeline(self):
        corpus = parse_corpus("1," + ",".join(["7"] * 5 + ["8"] * 3 + ["9"] * 200) + "\n")
        cooked = canonicalize(corpus, collapse=True, max_len=100)
        assert cooked.traces[0].calls == (7, 8, 9)
