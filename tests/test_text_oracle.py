"""The whole-file text readers and row writers against the per-line code they
replaced, kept here as the reference: the writers write the same bytes, the
readers read equal arrays, and a mutated file that the reference refuses is
refused at the same line. The sequence model file's reference reads and
writes its raw payload one float at a time, the count matrix file's reads
its raw payload one integer at a time, and the vocabulary's reads each
line's numbers one by one. The new readers refuse more than the reference in
a few listed ways (TIGHTER), and never accept what it refuses."""

import math
import re
import struct
from dataclasses import fields
from itertools import chain, pairwise
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from matrices import mat_bytes
from test_readers import mutation, valid  # noqa: F401 (valid is a fixture)

from apisentry import cli
from apisentry.corpus import _int, _LineReader
from apisentry.ngrams import (
    _VOCAB_ROW,
    NGramVocabulary,
    _read_config,
    load_matrix,
    load_vocabulary,
)
from apisentry.seqmodel import (
    _FORMAT_TAG,
    BiLstmConfig,
    BiLstmModel,
    TrainReport,
    _param_shapes,
    init_model,
    load_model,
    save_curves,
    save_model,
)

# --- the reference: the per-line readers and per-value writers replaced ------


def _fmt(x: float) -> str:
    """The float spelling the writers replaced: 17 significant digits."""
    return format(float(x), ".17g")


def ref_config_lines(cfg):
    return [f"{f.name} {(_fmt if f.type == 'float' else str)(getattr(cfg, f.name))}"
            for f in fields(cfg)]


def ref_load_matrix(path):
    """The count matrix file: a text header, then indptr, indices and counts
    as raw little-endian int64, read one number at a time."""
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 4)
    payload = parts[-1] if len(parts) > 4 else b""
    with _LineReader(path, text=data[:len(data) - len(payload)]) as reader:
        if reader.next() != "apisentry-matrix v2":
            raise ValueError("not a matrix file")
        n_rows, n_cols = (int(d) for d in reader.field("shape").split())
        if min(n_rows, n_cols) < 0:
            raise ValueError("negative shape")
        nnz = int(reader.field("nnz"))
        if nnz < 0:
            raise ValueError("negative nnz")
        n = n_rows + 1 + 2 * nnz
        if int(reader.field("payload")) != 8 * n:
            raise ValueError("payload size")
        reader.pos = 0
        if len(payload) != 8 * n:
            raise ValueError("payload length")
        values = [struct.unpack_from("<q", payload, 8 * k)[0] for k in range(n)]
        indptr, indices, counts = values[:n_rows + 1], values[n_rows + 1:n - nnz], values[n - nnz:]
        if indptr[0] != 0 or indptr[-1] != nnz or any(a > b for a, b in pairwise(indptr)):
            raise ValueError("indptr")
        for lo, hi in pairwise(indptr):
            row = indices[lo:hi]
            if not all(0 <= c < n_cols for c in row) or any(a >= b for a, b in pairwise(row)):
                raise ValueError("columns")
        if any(c < 0 for c in counts):
            raise ValueError("negative count")
    return (np.array(counts, np.float64), np.array(indices, np.int64),
            np.array(indptr, np.int64), (n_rows, n_cols))


def ref_load_vocabulary(path):
    """The vocabulary file read line by line, each number by _int."""
    built_from, min_count = "", 1
    index: dict = {}
    counts: list = []
    with _LineReader(path) as reader:
        for line in reader:
            if line.startswith("#built_from="):
                built_from = line[len("#built_from="):]
            elif line.startswith("#min_count="):
                min_count = _int(line[len("#min_count="):])
            elif line.strip():
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError("expected 3 tab-separated fields")
                col, count = _int(parts[0]), _int(parts[2])
                ng = tuple(map(_int, parts[1].split(",")))
                if len(ng) not in (2, 3):
                    raise ValueError("n-gram must have 2 or 3 ids")
                if not all(0 <= i < 2**63 for i in ng):
                    raise ValueError(f"call id outside 0..2**63-1 in {parts[1]}")
                if col != len(counts):
                    raise ValueError("column indices must be dense and ordered")
                if ng in index:
                    raise ValueError(f"duplicate n-gram {ng}")
                if count < 1:
                    raise ValueError(f"count {count} below 1")
                index[ng] = col
                counts.append(count)
    return NGramVocabulary(index=index, counts=tuple(counts),
                           built_from=built_from, min_count=min_count)


# The sequence model file: a text header, then every fused tensor as raw
# little-endian float64, read and written one float at a time.
REF_HEADER_LINES = 1 + len(fields(BiLstmConfig)) + 9 + 1  # tag, config, tensors, payload
REF_TENSORS = ["emb", "fw.W", "fw.U", "fw.b", "bw.W", "bw.U", "bw.b", "dense.W", "dense.b"]


def ref_load_model(path):
    data = Path(path).read_bytes()
    parts = data.split(b"\n", REF_HEADER_LINES)
    payload = parts[-1] if len(parts) > REF_HEADER_LINES else b""
    head = data[:len(data) - len(payload)]
    with _LineReader(path, text=head) as reader:
        if reader.next() != _FORMAT_TAG:
            raise ValueError("not a sequence model file")
        cfg = _read_config(reader, BiLstmConfig)
        shapes = _param_shapes(cfg)
        assert list(shapes) == REF_TENSORS
        for key, want in shapes.items():
            shape = tuple(int(d) for d in reader.field(f"tensor {key}").split())
            if shape != want:
                raise ValueError(f"tensor {key!r} has wrong shape {shape}")
        n = sum(int(np.prod(shape)) for shape in shapes.values())
        if int(reader.field("payload")) != 8 * n:
            raise ValueError("payload size")
        reader.pos = 0
        if len(payload) != 8 * n:
            raise ValueError("payload length")
        values = [struct.unpack_from("<d", payload, 8 * k)[0] for k in range(n)]
        if not all(map(math.isfinite, values)):
            raise ValueError("not finite")
        params, start = {}, 0
        for key, shape in shapes.items():
            size = int(np.prod(shape))
            params[key] = np.array(values[start:start + size], dtype=np.float64).reshape(shape)
            start += size
    return BiLstmModel(params=params, config=cfg)


def ref_model_bytes(model):
    lines = [_FORMAT_TAG] + ref_config_lines(model.config)
    floats = []
    for key in REF_TENSORS:
        tensor = model.params[key]
        lines.append(f"tensor {key} " + " ".join(map(str, tensor.shape)))
        floats += [float(x) for x in tensor.reshape(-1)]
    lines.append(f"payload {8 * len(floats)}")
    return ("\n".join(lines) + "\n").encode() + b"".join(struct.pack("<d", x) for x in floats)


def ref_detect_text(labels, scores):
    lines = ["row,label,score"]
    for i, (lab, sc) in enumerate(zip(labels, scores)):
        lines.append(f"{i},{int(lab)},{_fmt(sc)}")
    return "\n".join(lines) + "\n"


def ref_curves_text(report):
    lines = ["epoch,train_loss,val_loss"]
    for i, (tr, vl) in enumerate(zip(report.train_loss, report.val_loss), start=1):
        lines.append(f"{i},{_fmt(tr)},{_fmt(vl)}")
    return "\n".join(lines) + "\n"


def ref_read_predictions_csv(path):
    labels, scores = [], []
    with _LineReader(path) as reader:
        reader.next()
        for line in reader:
            if line.strip():
                _, label, score = line.split(",")
                labels.append(int(label))
                scores.append(float(score))
    return np.array(labels, dtype=np.int64), np.array(scores)


def ref_read_numbers(path, kind=int):
    with _LineReader(path) as reader:
        return np.array([kind(tok) for line in reader for tok in line.split()],
                        dtype=np.int64 if kind is int else np.float64)


def ref_read_score_rows(path):
    rows = []
    with _LineReader(path) as reader:
        for line in reader:
            if line.strip():
                rows.append([float(tok) for tok in line.split(",")])
                if len(rows[-1]) != len(rows[0]):
                    raise ValueError(f"expected {len(rows[0])} scores, got {len(rows[-1])}")
        if not rows:
            raise ValueError("no score rows")
    return np.array(rows)


def _matrix(path):
    m = load_matrix(path)
    return m.data, m.indices, m.indptr, m.shape


def _params(load):
    return lambda path: load(path).params


# name in test_readers' valid fixture: (new reader, reference, messages the
# new reader may refuse with where the reference accepts)
PAIRS = {
    "train.mat": (_matrix, ref_load_matrix, r"'.+' is not an integer"),
    "model.seq": (_params(load_model), _params(ref_load_model), r"'.+' is not an integer"),
    "pred.csv": (cli._read_predictions_csv, ref_read_predictions_csv,
                 r"expected the header 'row,label,score'|expected 'row,label,score'|"
                 r"row \S+ out of order|label \S+ is not 0 or 1|score \S+ is not finite"),
    "truth.txt": (cli._read_numbers, ref_read_numbers, r"expected one number per line"),
    "scores.txt": (lambda p: cli._read_numbers(p, float), lambda p: ref_read_numbers(p, float),
                   r"expected one number per line|\S+ is not finite"),
    "score_rows.csv": (cli._read_score_rows, ref_read_score_rows,
                       r"expected \d+ scores|a score row holds a number that is not finite"),
}

# Where the reference accepts a line that a table refuses as unreadable, the
# line holds one of these: a character other than printable ASCII (a tab
# included), an underscore inside a number, a number numpy's parser does not
# take for an integer, or an integer beyond 64 bits.
TIGHTER = re.compile(r"[^ -~]|\d_\d|\d[.eE]|[+-]?(inf|nan)|\d{19}", re.IGNORECASE)


EARNS = {
    # the reference ignored the row column, and read every number on a line
    "pred.csv": lambda line: TIGHTER.search(line) or not re.fullmatch(r" *\+?\d+ *",
                                                                     line.split(",")[0]),
    "truth.txt": lambda line: TIGHTER.search(line) or len(line.split()) > 1,
    "scores.txt": lambda line: TIGHTER.search(line) or len(line.split()) > 1,
}


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True) \
        and np.asarray(a).dtype == np.asarray(b).dtype


def _outcome(read, path):
    """The result of reading `path`, or the exception it raised."""
    try:
        return read(path), None
    except Exception as exc:  # the reference raises OverflowError too
        return None, exc


def _line(exc, path):
    found = re.match(rf"{re.escape(str(path))}: line (\d+): (.*)", str(exc), re.DOTALL)
    return (int(found.group(1)), found.group(2)) if found else (None, str(exc))


@pytest.mark.parametrize("name", sorted(PAIRS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_file_is_refused_where_the_reference_refuses(valid, tmp_path_factory,  # noqa: F811
                                                             name, data):
    new, ref, tighter = PAIRS[name]
    mutated, _ = data.draw(mutation((valid / name).read_bytes()))
    path = tmp_path_factory.getbasetemp() / f"oracle-{name}"
    path.write_bytes(mutated)
    got, got_exc = _outcome(new, path)
    want, want_exc = _outcome(ref, path)
    lines = mutated.decode("utf-8", "replace").splitlines()
    if got_exc is None:
        assert want_exc is None, f"accepted what the reference refuses: {want_exc}"
        assert _same(got, want)
        return
    assert isinstance(got_exc, ValueError), got_exc
    line, message = _line(got_exc, path)
    if want_exc is None:  # a tightening: a listed message, on a line that earns it
        assert re.fullmatch(tighter, message), message
        if message.startswith("expected") and "header" not in message:
            assert EARNS.get(name, TIGHTER.search)(lines[line - 1]), (lines[line - 1], message)
        return
    want_line, want_message = _line(want_exc, path)
    if not isinstance(want_exc, ValueError):
        assert line is not None, got_exc  # the reference's OverflowError named no line
    elif want_line != line:
        # a tensor row of the wrong width: the reference blamed the block's last row
        wrong_width = re.search(r"input array dimensions|cannot reshape", want_message) \
            and message.startswith("expected a row of") and line <= want_line
        earlier = line is not None and want_line is not None and line < want_line \
            and TIGHTER.search(lines[line - 1])
        assert wrong_width or earlier, (got_exc, want_exc)
    else:
        assert line == want_line


# --- valid files: equal arrays ------------------------------------------------

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
                     1e300, -1e300, 1.7976931348623157e308, 0.1, 1 / 3]))
COUNTS = st.one_of(st.integers(0, 2**63 - 1),
                   st.sampled_from([0, 1, 2**53 + 1, 2**62, 2**63 - 1025, 2**63 - 1]))
SPELLINGS = [lambda x: repr(float(x)), "%.17g".__mod__, "%.3e".__mod__, "%.25f".__mod__,
             "%+.20E".__mod__]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_model_writes_and_reads_as_the_reference(tmp_path_factory, data):
    model = init_model(BiLstmConfig(vocab_size=3, embed_dim=2, hidden=1), seed=0)
    for key, value in model.params.items():
        model.params[key] = data.draw(arrays(np.float64, value.shape, elements=FLOATS), key)
    path = tmp_path_factory.mktemp("m") / "model.seq"
    save_model(model, path)
    assert path.read_bytes() == ref_model_bytes(model)
    got, want = load_model(path).params, ref_load_model(path).params
    assert _same(got, want)
    for key, value in model.params.items():
        assert np.array_equal(got[key].view(np.int64), value.view(np.int64)), key


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_matrix_reads_as_the_reference(tmp_path_factory, data):
    n_rows, n_cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    cells = sorted(data.draw(st.sets(st.tuples(st.integers(0, max(n_rows - 1, 0)),
                                               st.integers(0, max(n_cols - 1, 0))),
                                     max_size=(n_rows * n_cols))))
    indptr = np.searchsorted([r for r, _ in cells], np.arange(n_rows + 1))
    counts = [data.draw(COUNTS) for _ in cells]
    path = tmp_path_factory.mktemp("m") / "m.mat"
    path.write_bytes(mat_bytes((n_rows, n_cols), indptr, [c for _, c in cells], counts))
    assert _same(_matrix(path), ref_load_matrix(path))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_vocabulary_reads_as_the_reference(valid, tmp_path_factory, data):  # noqa: F811
    """Up to three mutations: where the reference refuses the file, the
    whole-file reader refuses it at the same line, and where it accepts,
    the reader returns an equal vocabulary, its index in column order;
    except that a count beyond 64 bits, which the reference reads, is
    refused."""
    mutated = (valid / "vocab.tsv").read_bytes()
    for _ in range(data.draw(st.integers(1, 3))):
        if mutated:
            mutated, _ = data.draw(mutation(mutated))
    path = tmp_path_factory.getbasetemp() / "oracle-vocab.tsv"
    path.write_bytes(mutated)
    got, got_exc = _outcome(load_vocabulary, path)
    want, want_exc = _outcome(ref_load_vocabulary, path)
    if got_exc is None:
        assert want_exc is None, want_exc
        assert got == want and list(got.index) == list(want.index)
        return
    assert isinstance(got_exc, ValueError), got_exc
    line, message = _line(got_exc, path)
    want_line = _line(want_exc, path)[0] if want_exc is not None else math.inf
    if line != want_line:  # earlier, on a count the reference reads beyond 64 bits
        count = mutated.decode().splitlines()[line - 1].split("\t")[-1]
        assert line < want_line and message == _VOCAB_ROW and int(count) >= 2**63, \
            (got_exc, want_exc)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_evaluate_inputs_read_as_the_reference(tmp_path_factory, data):
    n = data.draw(st.integers(0, 6))
    # bounded, so that no spelling rounds a score to an infinity
    scores = data.draw(arrays(np.float64, (n, 3), elements=FLOATS.filter(lambda x: abs(x) <= 1e300)))
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    ids = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
    spell = data.draw(st.sampled_from(SPELLINGS))
    d = tmp_path_factory.mktemp("e")
    (d / "pred.csv").write_text("".join(
        f"{line}\n" for line in chain(["row,label,score"], (
            f"{i},{y},{spell(s)}" for i, (y, s) in enumerate(zip(labels, scores[:, 0]))))))
    (d / "truth.txt").write_text("".join(f"{i}\n" for i in ids))
    (d / "scores.txt").write_text("".join(f"{spell(s)}\n" for s in scores[:, 1]))
    (d / "rows.csv").write_text("".join(f"{','.join(map(spell, r))}\n" for r in scores))
    for new, ref, name in [(cli._read_predictions_csv, ref_read_predictions_csv, "pred.csv"),
                           (cli._read_numbers, ref_read_numbers, "truth.txt"),
                           (lambda p: cli._read_numbers(p, float),
                            lambda p: ref_read_numbers(p, float), "scores.txt")]:
        assert _same(new(d / name), ref(d / name)), name
    if n:
        assert _same(cli._read_score_rows(d / "rows.csv"), ref_read_score_rows(d / "rows.csv"))


# --- writers: the same bytes --------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_detect_writes_as_the_reference(tmp_path_factory, data):
    n = data.draw(st.integers(0, 8))
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    scores = data.draw(arrays(np.float64, n, elements=FLOATS))
    d = tmp_path_factory.mktemp("d")
    for name in ("model.det", "x.mat"):
        (d / name).write_text("")
    with mock.patch.object(cli, "load_detector"), mock.patch.object(cli, "load_matrix"), \
            mock.patch.object(cli, "ensemble_predict_rows", return_value=(labels, scores)):
        assert cli.main(["detect", "--model", d / "model.det", "--in", d / "x.mat",
                         "--out", d / "pred.csv"]) == 0
    assert (d / "pred.csv").read_text() == ref_detect_text(labels, scores)


@settings(max_examples=100, deadline=None)
@given(losses=st.lists(st.tuples(FLOATS, FLOATS), max_size=6))
def test_curves_write_as_the_reference(tmp_path_factory, losses):
    report = TrainReport(train_loss=[a for a, _ in losses], val_loss=[b for _, b in losses],
                         best_epoch=1)
    path = tmp_path_factory.mktemp("c") / "curves.csv"
    save_curves(report, path)
    assert path.read_text() == ref_curves_text(report)


# --- the one float spelling ---------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1e-308, -1e-307, 1e308, -1.7976931348623157e308, 1.7976931348623157e308,
               float("inf"), float("-inf"), float("nan"), 0.1, 1 / 3, 2.0**53 + 2]
SPELLED = st.one_of(
    st.floats(),  # nan, infinities and subnormals included
    st.sampled_from(EDGE_FLOATS),
    st.floats(1e300, 1.7976931348623157e308), st.floats(-1.7976931348623157e308, -1e300),
    st.floats(-1e-300, 1e-300),  # exponents near -308, subnormals included
    st.integers(),
    st.sampled_from([2**53 + 1, -(2**63), 2**63 - 1, 2**1023, 2**1024, -(10**400)]),
    st.floats().map(np.float64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
)


@settings(max_examples=400, deadline=None)
@given(x=SPELLED)
def test_percent_17g_spells_a_number_as_the_reference(x):
    """Every writer spells a float `%.17g`; for a float, a Python int and a
    numpy float64 or int32 scalar it is the reference's `_fmt` spelling, and
    an int beyond the float range is refused by both."""
    try:
        want = _fmt(x)
    except OverflowError:
        with pytest.raises(OverflowError):
            "%.17g" % x
        return
    assert "%.17g" % x == want
