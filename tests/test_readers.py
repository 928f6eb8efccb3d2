"""Fuzzing every file reader: a valid small file with one mutation either
loads, or raises ValueError naming the file and, for a fault on one line,
that line's number. The sequence model and count matrix files are a text
header and a raw payload: a mutation of the payload alone loads or is a
fault of the whole file, and any byte there may be one that is not UTF-8."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apisentry import cli
from apisentry.corpus import (
    _LineReader,
    convert_seq_csv,
    convert_wide_csv,
    load_corpus,
    parse_corpus,
    save_corpus,
)
from apisentry.gbdt import (
    GbdtConfig,
    ensemble_predict_rows,
    load_detector,
    save_detector,
    train_bagged,
)
from apisentry.ngrams import (
    build_vocabulary,
    load_labels,
    load_matrix,
    load_vocabulary,
    save_labels,
    save_matrix,
    save_vocabulary,
)
from apisentry.seqmodel import _HEADER_LINES, BiLstmConfig, init_model, load_model, save_model
from matrices import csr

# Errors about a whole file rather than one of its lines.
WHOLE_FILE = (r"no traces|call id \d+ exceeds vocabulary size \d+|no score rows|"
              r"the payload holds \d+ bytes, not \d+|"
              r"tensor '[\w.]+' holds a number that is not finite|"
              r"indptr must rise from 0 to \d+|"
              r"entry \(\d+,-?\d+\) holds -?\d+; (columns must ascend within a row, in 0\.\.\d+|"
              r"counts must be >= 0)")


def _detector_check(path):
    detector = load_detector(path)
    ensemble_predict_rows(detector, csr(np.ones((2, detector.n_features))))


READERS = {
    "corpus.csv": load_corpus,
    "corpus.jsonl": lambda path: load_corpus(path, format="jsonl"),
    "wide.csv": lambda path: convert_wide_csv(_LineReader(path), label_col="malware",
                                              call_prefix="t_", id_col="hash"),
    "seq.csv": lambda path: convert_seq_csv(_LineReader(path), seq_col="calls",
                                            label_col="y", id_col="hash"),
    "vocab.tsv": load_vocabulary,
    "train.mat": load_matrix,
    "train.labels": load_labels,
    "model.det": _detector_check,
    "model.seq": load_model,
    "pred.csv": cli._read_predictions_csv,
    "truth.txt": cli._read_numbers,
    "scores.txt": lambda path: cli._read_numbers(path, float),
    "score_rows.csv": cli._read_score_rows,
    "names.csv": cli._load_names,
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One small valid file per reader, written by the program's own writers
    where it has one."""
    d = tmp_path_factory.mktemp("valid")
    corpus = parse_corpus("#vocab=6\n0,1,2,3,1\n1,4,5,4,3\n0,2,3,1\n1,5,4,5\n")
    save_corpus(corpus, d / "corpus.csv")
    save_corpus(corpus, d / "corpus.jsonl", format="jsonl")
    (d / "wide.csv").write_text("hash,t_0,t_1,t_2,malware\nabc,4,4,7,1\ndef,1,2,3,0\n")
    (d / "seq.csv").write_text("hash,calls,y\na,1 2 3,0\nb,3 2 1,1\n")
    vocab = build_vocabulary(corpus)
    save_vocabulary(vocab, d / "vocab.tsv")
    X = csr(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0],
                      [2.0, 1.0, 0.0], [0.0, 3.0, 1.0]]))
    save_matrix(X, d / "train.mat")
    save_labels([0, 1, 0, 1], d / "train.labels")
    config = GbdtConfig(n_estimators=2, max_depth=2)
    save_detector(train_bagged(X, np.array([0, 1, 1, 0]), configs=[config] * 3),
                  d / "model.det")
    save_model(init_model(BiLstmConfig(vocab_size=4, embed_dim=2, hidden=2), seed=0),
               d / "model.seq")
    (d / "pred.csv").write_text("row,label,score\n0,1,0.9\n1,0,0.25\n")
    (d / "truth.txt").write_text("1\n0\n")
    (d / "scores.txt").write_text("0.9\n0.25\n")
    (d / "score_rows.csv").write_text("0.5,0.25,0.25\n0.1,0.8,0.1\n")
    (d / "names.csv").write_text("id,name\n0,NtOpenFile\n1,NtClose\n")
    for name, read in READERS.items():
        read(d / name)  # each starting file loads
    return d


# the text header lines of the files a raw payload follows
HEADER_LINES = {"model.seq": _HEADER_LINES, "train.mat": 4}


def text_end(name: str, data: bytes) -> int:
    """Where the text of a file ends: at the end of the header of a file a
    raw payload follows, or at the end of any other file."""
    if name not in HEADER_LINES:
        return len(data)
    return len(data) - len(data.split(b"\n", HEADER_LINES[name])[-1])


@st.composite
def mutation(draw, data: bytes, end: int | None = None) -> tuple[bytes, int | None]:
    """One mutation of `data`, and for an invalid UTF-8 byte before `end`,
    where its text ends, the number of the line it lands on."""
    lines = data.splitlines(keepends=True)
    kind = draw(st.sampled_from(["truncate", "delete", "duplicate", "char", "byte"]))
    if kind in ("truncate", "delete", "duplicate"):
        i = draw(st.integers(0, len(lines) - 1))
        new = {"truncate": lines[:i], "delete": lines[:i] + lines[i + 1:],
               "duplicate": lines[:i + 1] + lines[i:]}[kind]
        return b"".join(new), None
    i = draw(st.integers(0, len(data) - 1))
    if kind == "char":
        char = draw(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")))
        return data[:i] + char.encode("utf-8") + data[i + 1:], None
    byte = draw(st.sampled_from([0x80, 0xbf, 0xc0, 0xe0, 0xfe, 0xff]))
    line = data.count(b"\n", 0, i) + 1 if i < (len(data) if end is None else end) else None
    return data[:i] + bytes([byte]) + data[i + 1:], line


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_file_loads_or_names_file_and_line(valid, tmp_path_factory, name, data):
    original = (valid / name).read_bytes()
    end = text_end(name, original)
    mutated, bad_byte_line = data.draw(mutation(original, end))
    payload_only = end < len(original) and mutated.startswith(original[:end])
    path = tmp_path_factory.getbasetemp() / f"mutated-{name}"
    path.write_bytes(mutated)
    try:
        READERS[name](path)
    except ValueError as exc:
        message = str(exc)
    else:
        assert bad_byte_line is None, "invalid UTF-8 was read"
        return
    where = re.match(rf"{re.escape(str(path))}: (line (\d+): |({WHOLE_FILE})$)", message)
    assert where, message
    if payload_only:
        assert where.group(3), message
    if bad_byte_line is not None:
        assert int(where.group(2)) == bad_byte_line, message
    elif where.group(2):
        assert 1 <= int(where.group(2)) <= len(mutated.splitlines()) + 1, message


def test_reader_prefixes_each_error_once():
    with pytest.raises(ValueError) as err:
        with _LineReader("f.txt", text="a\nb\n") as reader:
            for line in reader:
                if line == "b":
                    [][0]
    assert type(err.value) is ValueError
    assert str(err.value) == "f.txt: line 2: list index out of range"


def test_error_after_the_last_line_names_only_the_file(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("#vocab=3\n0,1,5\n")
    with pytest.raises(ValueError) as err:
        load_corpus(path)
    assert str(err.value) == f"{path}: call id 5 exceeds vocabulary size 3"
