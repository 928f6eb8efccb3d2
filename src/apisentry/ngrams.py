"""N-gram features and next-call training samples.

Traces become either 2-gram/3-gram count rows of a CsrMatrix, the package's
one sparse matrix type (detector input), or (prefix, next call) pairs
(sequence-model input). The vocabulary is built once from a training corpus
and is immutable afterwards; out-of-vocabulary n-grams are dropped.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, CorpusError, LabeledTrace, _LineReader, _float, _int, _loadtxt

NGram = tuple[int, ...]


def _sigmoid(z, out=None):
    """Logistic function, into `out` if given (z itself may be). z is clipped
    below at -700 so exp(-z) never overflows: above 700 the result is 1.0."""
    z = np.negative(np.maximum(z, -700.0, out=out), out=out)
    return np.divide(1.0, np.add(1.0, np.exp(z, out=out), out=out), out=out)


def _format_rows(fmt: str, rows) -> list[str]:
    """`fmt % row` for each row, a sequence of fields: one %-format per line.
    Every float in a file is written `%.17g`, 17 significant digits, so a
    reload is bit-exact."""
    return list(map(fmt.__mod__, map(tuple, rows)))


_KINDS = {"int": _int, "float": _float}


def _config_lines(cfg) -> list[str]:
    """One `name value` line per field of a config dataclass, in declaration
    order; float fields are written `%.17g`."""
    return [("%s %.17g" if f.type == "float" else "%s %s") % (f.name, getattr(cfg, f.name))
            for f in fields(cfg)]


def _read_config(reader: _LineReader, cls):
    """The config dataclass `cls` from the lines _config_lines wrote."""
    read = {f.name: (_KINDS[f.type](reader.field(f.name)), reader.pos) for f in fields(cls)}
    try:
        return cls(**{name: value for name, (value, _) in read.items()})
    except ValueError as exc:  # at the line of the field the message names, if any
        reader.pos = read.get(str(exc).partition(" ")[0], (None, reader.pos))[1]
        raise


@dataclass(frozen=True)
class NGramVocabulary:
    """Bijection between observed n-grams and dense column indices."""

    index: dict[NGram, int]
    counts: tuple[int, ...]          # training occurrence count per column

    def __len__(self) -> int:
        return len(self.index)

    def column_ngrams(self) -> list[NGram]:
        return sorted(self.index, key=self.index.__getitem__)

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct call ids, the n-gram keys under them sorted, and their
        columns. A last key above every window's stops each search in range."""
        grams = self.column_ngrams()
        ids = np.unique(np.fromiter(chain.from_iterable(grams), np.int64))
        # an n-gram's own key is the last of its 2n - 3 windows
        keys, _ = _windows(grams, ids)
        keys = keys[np.cumsum([2 * len(g) - 3 for g in grams], dtype=np.int64) - 1]
        cols = np.argsort(keys)
        return ids, np.append(keys[cols], np.iinfo(np.int64).max), cols


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """Compressed sparse rows: row r holds data[k] in column indices[k] for k
    in indptr[r]:indptr[r + 1]. A row names a column at most once."""

    data: np.ndarray     # float64; int64 bins in the boosted trees' coding
    indices: np.ndarray  # int64 column of each entry
    indptr: np.ndarray   # int64, shape[0] + 1 offsets into data
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def take(self, rows: np.ndarray) -> CsrMatrix:
        """The matrix of the given rows, in that order, repeats included."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        at = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CsrMatrix(self.data[at], self.indices[at], indptr, (len(rows), self.shape[1]))

    def refuse(self, ok: np.ndarray, rule: str) -> None:
        """Raise ValueError naming the first stored entry whose `ok` is False."""
        for k in np.flatnonzero(~ok)[:1]:
            row = np.searchsorted(self.indptr, k, side="right") - 1
            raise ValueError(f"entry ({row},{self.indices[k]}) holds {self.data[k]}; {rule}")


class PrefixSample(NamedTuple):
    """A (prefix, next call) training pair cut from one trace."""

    prefix: tuple[int, ...]
    next: int


def _calls(trace) -> tuple[int, ...]:
    return tuple(trace.calls) if isinstance(trace, LabeledTrace) else tuple(trace)


_MAX_RADIX = 2**21 - 1  # R² + R³ < 2**63 up to this radix, so no key wraps int64


def _windows(seqs, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every 2-gram and 3-gram window of the call sequences `seqs` as one
    int64 key, ordered by (sequence, n, position), and the sequence of each.

    A call id stands for its rank in the sorted array `ids`, or for len(ids)
    when absent. Under the radix R = len(ids) + 1 a 2-gram (a, b) is a·R + b
    and a 3-gram is R² + (a·R + b)·R + c: distinct n-grams get distinct keys,
    and a window with an absent id matches no n-gram of ids in `ids`."""
    radix = len(ids) + 1
    if radix > _MAX_RADIX:
        raise CorpusError(f"more than {_MAX_RADIX - 1} distinct call ids")
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    calls = np.fromiter(chain.from_iterable(seqs), np.int64, int(lengths.sum()))
    rank = np.searchsorted(ids, calls)
    rank[np.append(ids, -1)[rank] != calls] = len(ids)
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(calls))  # calls from here on
    pair = rank[:-1] * radix + rank[1:]  # a·R + b for the window starting at each call
    two, three = (np.flatnonzero(left >= n) for n in (2, 3))  # where the windows start
    keys = np.concatenate([pair[two], radix**2 + pair[three] * radix + rank[three + 2]])
    rows = np.repeat(np.arange(len(seqs)), lengths)[np.concatenate([two, three])]
    order = np.argsort(rows, kind="stable")  # merges each sequence's 2-gram and 3-gram runs
    return keys[order], rows[order]


def build_vocabulary(corpus: Corpus, min_count: int = 1,
                     top_k: int | None = None) -> NGramVocabulary:
    """Collect every 2-gram and 3-gram occurring at least min_count times.

    Columns are numbered in first-occurrence order over the corpus. With
    top_k set, only the k most frequent n-grams are kept (ties broken by
    first occurrence), still numbered in first-occurrence order."""
    if len(corpus) == 0:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    seqs = [trace.calls for trace in corpus.traces]
    ids = np.unique(np.fromiter(chain.from_iterable(seqs), np.int64))
    keys, _ = _windows(seqs, ids)
    # first occurrences from the inverse: return_index would argsort the keys stably
    unique, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    first = np.full(len(unique), len(keys))
    np.minimum.at(first, inverse, np.arange(len(keys)))
    kept = np.flatnonzero(counts >= max(min_count, 1))
    if top_k is not None and top_k < len(kept):
        kept = kept[np.lexsort((first[kept], -counts[kept]))][:top_k]
    kept = kept[np.argsort(first[kept])]
    # the ranks (a, b, c) of each key [R² +] (a·R + b)·R + c; a 2-gram's a is 0
    radix = len(ids) + 1
    is_three = unique[kept] >= radix**2
    digits = ids[(unique[kept] - radix**2 * is_three)[:, None] // [radix**2, radix, 1] % radix]
    grams = [tuple(d if three else d[1:]) for d, three in zip(digits.tolist(), is_three.tolist())]
    return NGramVocabulary(index={ng: col for col, ng in enumerate(grams)},
                           counts=tuple(counts[kept].tolist()))


def _count_matrix(seqs, vocab: NGramVocabulary) -> CsrMatrix:
    """The vocabulary n-gram counts, one row per call sequence."""
    ids, keys, cols = vocab._lookup
    found, rows = _windows(seqs, ids)
    at = np.searchsorted(keys, found)
    hit = keys[at] == found
    cells, counts = np.unique(rows[hit] * len(vocab) + cols[at[hit]], return_counts=True)
    indptr = np.searchsorted(cells, np.arange(len(seqs) + 1) * len(vocab))
    return CsrMatrix(counts.astype(np.float64), cells % len(vocab), indptr, (len(seqs), len(vocab)))


def vectorize(trace, vocab: NGramVocabulary) -> CsrMatrix:
    """Count the vocabulary n-grams occurring in one trace: a 1-row matrix."""
    return _count_matrix([_calls(trace)], vocab)


def class_frequency(corpus: Corpus, ngram: NGram) -> tuple[int, int]:
    """Total occurrences of one 2-gram or 3-gram in class-0 and class-1 traces."""
    if len(ngram) not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {len(ngram)}")
    if any(t.label is None for t in corpus.traces):
        raise CorpusError("class_frequency requires a labeled corpus")
    matrix, labels = corpus_matrix(corpus, NGramVocabulary({tuple(ngram): 0}, (1,)))
    rows = np.repeat(np.asarray(labels, np.int64), np.diff(matrix.indptr))  # each entry's label
    totals = np.bincount(rows, matrix.data, minlength=2)
    return int(totals[0]), int(totals[1])


def prefix_samples(trace) -> list[PrefixSample]:
    """Cut one sample per growing prefix: (first n calls, call n+1) for
    n from 2 to len-1. Traces shorter than 3 yield nothing."""
    seq = _calls(trace)
    return [PrefixSample(prefix=seq[:n], next=seq[n]) for n in range(2, len(seq))]


def trace_samples(traces, cap: int, vocab_size: int) -> list[PrefixSample]:
    """The prefix samples of each trace's last `cap` calls (every call if cap
    is 0), trace after trace. A call id at or above vocab_size among those
    calls is refused, naming its trace."""
    samples = []
    for trace in traces:
        calls = trace.calls[-cap:]  # [-0:] is the whole trace
        if max(calls) >= vocab_size:
            raise CorpusError(f"trace {trace.id} has call id >= vocab size {vocab_size}")
        samples.extend(prefix_samples(calls))
    return samples


def corpus_matrix(corpus: Corpus, vocab: NGramVocabulary) -> tuple[CsrMatrix, list[int | None]]:
    """Vectorize a whole corpus into a count matrix plus its labels."""
    return (_count_matrix([trace.calls for trace in corpus.traces], vocab),
            [trace.label for trace in corpus.traces])


# --- persistence -------------------------------------------------------------

def save_vocabulary(vocab: NGramVocabulary, path: str | Path) -> None:
    rows = zip(vocab.column_ngrams(), vocab.counts, strict=True)
    Path(path).write_text("".join(f"{col}\t{','.join(map(str, ng))}\t{count}\n"
                                  for col, (ng, count) in enumerate(rows)), encoding="utf-8")


_VOCAB_ROW = "expected a column, 2 or 3 call ids and a count, each a 64-bit integer"


def _vocabulary(lines: list[str]) -> NGramVocabulary:
    """The vocabulary a file's lines hold, its n-gram lines read as one table
    of integers; raises ValueError if any line breaks a rule."""
    data = [line for line in lines if line.strip()]
    if any(line.count("\t") != 2 for line in data):
        raise ValueError("expected 3 tab-separated fields")
    fields = "\n".join(data).split("\t")  # each line's 3 fields in turn
    commas = np.array([ids.count(",") for ids in fields[1::2]], np.int64)
    # a 2-gram's third id is -1: each row is 5 wide, wider with a comma outside its ids
    fields[1::2] = [ids + ",-1" * (n == 1) for ids, n in zip(fields[1::2], commas.tolist())]
    table = _loadtxt(",".join(fields).split("\n")[:len(data)], 5, np.int64, ",")
    if table is None or not np.isin(commas, (1, 2)).all():
        raise ValueError(_VOCAB_ROW)
    three, index = commas == 2, {}
    grams = [g if t else g[:2] for g, t in zip(map(tuple, table[:, 1:4].tolist()), three.tolist())]
    for bad, rule in [((table[:, 1:3] < 0).any(axis=1) | three & (table[:, 3] < 0),
                       "call id outside 0..2**63-1 in {ids}"),
                      (table[:, 0] != np.arange(len(table)), "column indices must be dense and ordered"),
                      ([index.setdefault(g, k) != k for k, g in enumerate(grams)],
                       "duplicate n-gram {gram}"),
                      (table[:, 4] < 1, "count {count} below 1")]:
        for k in np.flatnonzero(bad)[:1]:
            raise ValueError(rule.format(ids=data[k].split("\t")[1], gram=grams[k],
                                         count=table[k, 4]))
    return NGramVocabulary(index, tuple(table[:, 4].tolist()))


def _refuses(lines: list[str]) -> bool:
    try:
        _vocabulary(lines)
    except ValueError:
        return True
    return False


def load_vocabulary(path: str | Path) -> NGramVocabulary:
    """Read a vocabulary file whole. One that breaks a rule is refused at the
    first line that breaks one with the lines before it, found by bisection."""
    with _LineReader(path) as reader:
        try:
            return _vocabulary(reader.lines)
        except ValueError:
            lines = reader.lines
            reader.pos = 1 + bisect_left(range(len(lines)), True,
                                         key=lambda k: _refuses(lines[:k + 1]))
            _vocabulary(lines[:reader.pos])


_MATRIX_TAG = "apisentry-matrix v2"


def save_matrix(matrix: CsrMatrix, path: str | Path) -> None:
    """Write a count matrix: the tag, `shape R C`, `nnz N` and `payload
    <bytes>` lines, then indptr, indices and counts as raw little-endian
    int64. Every count must be an integer in [0, 2**63), so load_matrix
    reads back what was written."""
    data = matrix.data
    matrix.refuse((data >= 0) & (data < 2.0 ** 63) & (np.floor(data) == data),
                  "counts must be integers in [0, 2**63)")
    arrays = [np.ascontiguousarray(a, "<i8") for a in (matrix.indptr, matrix.indices, data)]
    header = [_MATRIX_TAG, "shape %d %d" % matrix.shape, f"nnz {matrix.nnz}",
              f"payload {sum(a.nbytes for a in arrays)}\n"]
    Path(path).write_bytes("\n".join(header).encode("utf-8") + b"".join(arrays))


def load_matrix(path: str | Path) -> CsrMatrix:
    """A matrix save_matrix wrote. Its payload is read only once the header
    claims its arrays' size; indptr must then rise from 0 to nnz, each row's
    columns ascend inside the shape and each count be >= 0."""
    with open(path, "rb") as f, _LineReader(path, b"".join(islice(f, 4))) as reader:
        if reader.next() != _MATRIX_TAG:
            raise ValueError(f"not an {_MATRIX_TAG!r} file")
        shape = tuple(map(_int, reader.field("shape").split()))
        if len(shape) != 2 or min(shape) < 0:
            raise ValueError(f"expected two sizes >= 0, got {shape}")
        nnz = _int(reader.field("nnz"))
        if nnz < 0:
            raise ValueError(f"nnz {nnz} below 0")
        size, claimed = 8 * (shape[0] + 1 + 2 * nnz), _int(reader.field("payload"))
        if claimed != size:
            raise ValueError(f"the arrays take {size} bytes, not {claimed}")
        payload, reader.pos = f.read(), 0  # what follows is about the payload as a whole
        if len(payload) != size:
            raise ValueError(f"the payload holds {len(payload)} bytes, not {size}")
        indptr, indices, counts = np.split(np.frombuffer(payload, "<i8"),
                                           [shape[0] + 1, shape[0] + 1 + nnz])
        if indptr[0] != 0 or indptr[-1] != nnz or (np.diff(indptr) < 0).any():
            raise ValueError(f"indptr must rise from 0 to {nnz}")
        matrix = CsrMatrix(counts, indices, indptr, shape)
        rising = np.diff(indices, prepend=-1) > 0
        rising[indptr[:-1][np.diff(indptr) > 0]] = True  # a row's first column
        matrix.refuse(rising & (indices >= 0) & (indices < shape[1]),
                      f"columns must ascend within a row, in 0..{shape[1] - 1}")
        matrix.refuse(counts >= 0, "counts must be >= 0")
    return CsrMatrix(counts.astype(np.float64), indices, indptr, shape)


def save_labels(labels, path: str | Path) -> None:
    lines = ["-" if y is None else str(int(y)) for y in labels]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_labels(path: str | Path) -> np.ndarray:
    """One label, 0 or 1, per non-blank line, as an int64 array."""
    with _LineReader(path) as reader:
        labels = reader.table(1, np.int64, what="a label of 0 or 1")[:, 0]
        reader.refuse(np.isin(labels, (0, 1)), "label {} is not 0 or 1")
    return labels
