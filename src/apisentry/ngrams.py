"""N-gram features and next-call training samples.

Traces become either 2-gram/3-gram count rows of a CsrMatrix, the package's
one sparse matrix type (detector input), or (prefix, next call) pairs
(sequence-model input). The vocabulary is built once from a training corpus
and is immutable afterwards; out-of-vocabulary n-grams are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, CorpusError, LabeledTrace, _LineReader, _parse_label

NGram = tuple[int, ...]


def _sigmoid(z):
    """Logistic function. z is clipped below at -700 so exp(-z) never
    overflows; above 700, exp(-z) < 1e-304 and the result is already 1.0."""
    return 1.0 / (1.0 + np.exp(-np.maximum(z, -700.0)))


def _fmt(x: float) -> str:
    """Float text with 17 significant digits, so a reload is bit-exact."""
    return format(float(x), ".17g")


def _finite(text: str) -> float:
    """The number _fmt wrote; nan and infinities are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


_KINDS = {"int": int, "float": float}


def _config_lines(cfg) -> list[str]:
    """One `name value` line per field of a config dataclass, in declaration
    order; float fields go through _fmt."""
    return [f"{f.name} {(_fmt if _KINDS[f.type] is float else str)(getattr(cfg, f.name))}"
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
    built_from: str = ""
    min_count: int = 1

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
    unique, first, counts = np.unique(keys, return_index=True, return_counts=True)
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
                           counts=tuple(counts[kept].tolist()),
                           built_from=corpus.provenance, min_count=min_count)


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


def corpus_matrix(corpus: Corpus, vocab: NGramVocabulary) -> tuple[CsrMatrix, list[int | None]]:
    """Vectorize a whole corpus into a count matrix plus its labels."""
    return (_count_matrix([trace.calls for trace in corpus.traces], vocab),
            [trace.label for trace in corpus.traces])


# --- persistence -------------------------------------------------------------

def save_vocabulary(vocab: NGramVocabulary, path: str | Path) -> None:
    lines = [f"#built_from={vocab.built_from}", f"#min_count={vocab.min_count}"]
    rows = zip(vocab.column_ngrams(), vocab.counts, strict=True)
    lines += [f"{col}\t{','.join(map(str, ng))}\t{count}" for col, (ng, count) in enumerate(rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_vocabulary(path: str | Path) -> NGramVocabulary:
    built_from, min_count = "", 1
    index: dict[NGram, int] = {}
    counts: list[int] = []
    with _LineReader(path) as reader:
        for line in reader:
            if line.startswith("#built_from="):
                built_from = line[len("#built_from="):]
            elif line.startswith("#min_count="):
                min_count = int(line[len("#min_count="):])
            elif line.strip():
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError("expected 3 tab-separated fields")
                col, ng, count = int(parts[0]), tuple(map(int, parts[1].split(","))), int(parts[2])
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


def save_matrix(matrix: CsrMatrix, path: str | Path) -> None:
    """Write a count matrix as 'row,col,count' triplets, row by row, under a
    'rows,cols' header. Every stored value must be a non-negative integer
    below 2**63, so load_matrix reads back what was written."""
    data = matrix.data
    matrix.refuse((data >= 0) & (data < 2.0 ** 63) & (np.floor(data) == data),
                  "counts must be integers in [0, 2**63)")
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    triplets = map("{},{},{}".format, rows.tolist(), matrix.indices.tolist(),
                   data.astype(np.int64).tolist())
    lines = chain([f"{matrix.shape[0]},{matrix.shape[1]}"], triplets)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_matrix(path: str | Path) -> CsrMatrix:
    """Read a matrix save_matrix wrote, its lines in any order. Each (row, col)
    appears at most once, inside the header's shape, with a count >= 0."""
    cells, vals = [], []
    with _LineReader(path) as reader:
        try:
            n_rows, n_cols = map(int, reader.next().split(","))
            if min(n_rows, n_cols) < 0:
                raise ValueError
        except ValueError:
            raise ValueError("expected a 'rows,cols' header") from None
        for line in reader:
            if not line.strip():
                continue
            try:
                r, c, v = map(int, line.split(","))
            except ValueError:
                raise ValueError("expected 'row,col,count'") from None
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ValueError(f"entry ({r},{c}) outside the {n_rows}x{n_cols} shape")
            if v < 0:
                raise ValueError(f"negative count {v}")
            cells.extend((r, c))
            vals.append(v)
        try:
            rows, cols = np.asarray(cells, np.int64).reshape(-1, 2).T
            order = np.lexsort((cols, rows))  # stable: a repeated cell's first line comes first
            indptr = np.searchsorted(rows[order], np.arange(n_rows + 1))
        except (MemoryError, OverflowError, ValueError):
            reader.pos = 1
            raise ValueError(f"cannot allocate the {n_rows}x{n_cols} shape") from None
        repeat = (np.diff(rows[order]) == 0) & (np.diff(cols[order]) == 0)
        if repeat.any():
            k = int(order[1:][repeat].min())  # the first entry to repeat a cell
            # entry k is on the (k + 2)-th non-blank line: line 1 is the header
            reader.pos = 1 + int(np.flatnonzero([ln.strip() != "" for ln in reader.lines])[k + 1])
            raise ValueError(f"duplicate entry ({rows[k]},{cols[k]})")
    return CsrMatrix(np.asarray(vals, np.float64)[order], cols[order], indptr, (n_rows, n_cols))


def save_labels(labels, path: str | Path) -> None:
    lines = ["-" if y is None else str(int(y)) for y in labels]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_labels(path: str | Path) -> list[int | None]:
    """One label per non-blank line: 0, 1 or - (unlabeled)."""
    with _LineReader(path) as reader:
        return [_parse_label(line.strip()) for line in reader if line.strip()]
