"""N-gram features and next-call training samples.

Traces become either sparse 2-gram/3-gram count vectors (detector input) or
(prefix, next call) pairs (sequence-model input). The vocabulary is built
once from a training corpus and is immutable afterwards; out-of-vocabulary
n-grams are dropped at vectorization time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy import sparse

from .corpus import Corpus, CorpusError, LabeledTrace, _LineReader, _parse_label

NGram = tuple[int, ...]


def _sigmoid(z):
    """Logistic function. z is clipped below at -700 so exp(-z) never
    overflows; above 700, exp(-z) < 1e-304 and the result is already 1.0."""
    return 1.0 / (1.0 + np.exp(-np.maximum(z, -700.0)))


def _fmt(x: float) -> str:
    """Float text with 17 significant digits, so a reload is bit-exact."""
    return format(float(x), ".17g")


_KINDS = {"int": int, "float": float}


def _config_lines(cfg) -> list[str]:
    """One `name value` line per field of a config dataclass, in declaration
    order; float fields go through _fmt."""
    return [f"{f.name} {(_fmt if _KINDS[f.type] is float else str)(getattr(cfg, f.name))}"
            for f in fields(cfg)]


def _read_config(reader: _LineReader, cls):
    """The config dataclass `cls` from the lines _config_lines wrote."""
    return cls(**{f.name: _KINDS[f.type](reader.field(f.name)) for f in fields(cls)})


@dataclass(frozen=True)
class NGramVocabulary:
    """Bijection between observed n-grams and dense column indices."""

    index: dict[NGram, int]
    counts: tuple[int, ...]          # training occurrence count per column
    built_from: str = ""
    min_count: int = 1

    @property
    def size(self) -> int:
        return len(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def column_ngrams(self) -> list[NGram]:
        out: list[NGram | None] = [None] * len(self.index)
        for ng, col in self.index.items():
            out[col] = ng
        return out  # type: ignore[return-value]


@dataclass(frozen=True)
class FeatureVector:
    """Sparse n-gram counts for one trace."""

    counts: dict[int, int]
    dim: int


@dataclass(frozen=True)
class PrefixSample:
    """A (prefix, next call) training pair cut from one trace."""

    prefix: tuple[int, ...]
    next: int


def _calls(trace) -> tuple[int, ...]:
    return tuple(trace.calls) if isinstance(trace, LabeledTrace) else tuple(trace)


def extract_ngrams(calls, n: int) -> list[NGram]:
    """All length-n sliding windows, in order; empty if the trace is shorter."""
    if n not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {n}")
    seq = _calls(calls)
    return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]


def build_vocabulary(corpus: Corpus, min_count: int = 1,
                     top_k: int | None = None) -> NGramVocabulary:
    """Collect every 2-gram and 3-gram occurring at least min_count times.

    Columns are numbered in first-occurrence order over the corpus. With
    top_k set, only the k most frequent n-grams are kept (ties broken by
    first occurrence) and the survivors are renumbered in first-occurrence
    order.
    """
    if len(corpus) == 0:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    counts: dict[NGram, int] = {}
    first_seen: dict[NGram, int] = {}
    for trace in corpus.traces:
        for n in (2, 3):
            for ng in extract_ngrams(trace.calls, n):
                if ng not in counts:
                    first_seen[ng] = len(first_seen)
                    counts[ng] = 1
                else:
                    counts[ng] += 1
    threshold = max(min_count, 1)
    kept = [ng for ng, c in counts.items() if c >= threshold]
    if top_k is not None and top_k < len(kept):
        kept.sort(key=lambda ng: (-counts[ng], first_seen[ng]))
        kept = kept[:top_k]
    kept.sort(key=lambda ng: first_seen[ng])
    index = {ng: col for col, ng in enumerate(kept)}
    return NGramVocabulary(
        index=index,
        counts=tuple(counts[ng] for ng in kept),
        built_from=corpus.provenance,
        min_count=min_count,
    )


def vectorize(trace, vocab: NGramVocabulary) -> FeatureVector:
    """Count the vocabulary n-grams occurring in one trace."""
    out: dict[int, int] = {}
    seq = _calls(trace)
    index = vocab.index
    for n in (2, 3):
        for i in range(len(seq) - n + 1):
            col = index.get(tuple(seq[i:i + n]))
            if col is not None:
                out[col] = out.get(col, 0) + 1
    return FeatureVector(counts=out, dim=len(vocab))


def class_frequency(corpus: Corpus, ngram: NGram) -> tuple[int, int]:
    """Total occurrences of one n-gram in class-0 and class-1 traces."""
    n = len(ngram)
    target = tuple(ngram)
    totals = [0, 0]
    for trace in corpus.traces:
        if trace.label is None:
            raise CorpusError("class_frequency requires a labeled corpus")
        seq = trace.calls
        hits = sum(1 for i in range(len(seq) - n + 1) if seq[i:i + n] == target)
        totals[trace.label] += hits
    return totals[0], totals[1]


def prefix_samples(trace) -> list[PrefixSample]:
    """Cut one sample per growing prefix: (first n calls, call n+1) for
    n from 2 to len-1. Traces shorter than 3 yield nothing."""
    seq = _calls(trace)
    return [PrefixSample(prefix=seq[:n], next=seq[n]) for n in range(2, len(seq))]


def pad_prefix(prefix, max_len: int, pad_id: int) -> list[int]:
    """Left-pad a prefix with pad_id up to max_len."""
    seq = list(_calls(prefix))
    if len(seq) > max_len:
        raise ValueError(f"prefix of length {len(seq)} exceeds max_len {max_len}")
    return [pad_id] * (max_len - len(seq)) + seq


def _stack_vectors(vectors, n_rows: int, dim: int) -> sparse.csr_matrix:
    """CSR count matrix with one row per feature vector (any iterable)."""
    rows, cols, vals = [], [], []
    for r, fv in enumerate(vectors):
        if fv.dim != dim:
            raise ValueError(f"feature dimension mismatch: {fv.dim} != {dim}")
        rows.extend([r] * len(fv.counts))
        cols.extend(fv.counts)
        vals.extend(fv.counts.values())
    return sparse.csr_matrix(
        (np.asarray(vals, dtype=np.float64),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(n_rows, dim))


def corpus_matrix(corpus: Corpus, vocab: NGramVocabulary) -> tuple[sparse.csr_matrix, list[int | None]]:
    """Vectorize a whole corpus into a CSR count matrix plus its labels."""
    vectors = (vectorize(trace, vocab) for trace in corpus.traces)
    return (_stack_vectors(vectors, len(corpus), len(vocab)),
            [trace.label for trace in corpus.traces])


# --- persistence -------------------------------------------------------------

def save_vocabulary(vocab: NGramVocabulary, path: str | Path) -> None:
    lines = [f"#built_from={vocab.built_from}", f"#min_count={vocab.min_count}"]
    ngrams = vocab.column_ngrams()
    for col, ng in enumerate(ngrams):
        ids = ",".join(str(i) for i in ng)
        lines.append(f"{col}\t{ids}\t{vocab.counts[col]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_vocabulary(path: str | Path) -> NGramVocabulary:
    built_from = ""
    min_count = 1
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
                col = int(parts[0])
                ng = tuple(map(int, parts[1].split(",")))
                if len(ng) not in (2, 3):
                    raise ValueError("n-gram must have 2 or 3 ids")
                if col != len(counts):
                    raise ValueError("column indices must be dense and ordered")
                if ng in index:
                    raise ValueError(f"duplicate n-gram {ng}")
                index[ng] = col
                counts.append(int(parts[2]))
    return NGramVocabulary(index=index, counts=tuple(counts),
                           built_from=built_from, min_count=min_count)


def save_matrix(matrix: sparse.spmatrix, path: str | Path) -> None:
    """Write a sparse count matrix as 'row,col,count' triplets under a
    'rows,cols' header."""
    coo = matrix.tocoo()
    lines = [f"{matrix.shape[0]},{matrix.shape[1]}"]
    order = np.lexsort((coo.col, coo.row))
    for i in order:
        lines.append(f"{coo.row[i]},{coo.col[i]},{int(coo.data[i])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_matrix(path: str | Path) -> sparse.csr_matrix:
    """Read a matrix written by save_matrix. Each (row, col) appears at most
    once, inside the header's shape, with a count >= 0."""
    rows, cols, vals = [], [], []
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
            rows.append(r)
            cols.append(c)
            vals.append(v)
        matrix = sparse.csr_matrix(
            (np.asarray(vals, dtype=np.float64),
             (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
            shape=(n_rows, n_cols))
        if matrix.nnz < len(vals):  # the conversion summed repeated entries
            _, first = np.unique(np.asarray(rows) * n_cols + np.asarray(cols), return_index=True)
            k = int(np.setdiff1d(np.arange(len(vals)), first)[0])
            # entry k is on the (k + 2)-th non-blank line: line 1 is the header
            reader.pos = 1 + int(np.flatnonzero([ln.strip() != "" for ln in reader.lines])[k + 1])
            raise ValueError(f"duplicate entry ({rows[k]},{cols[k]})")
    return matrix


def save_labels(labels, path: str | Path) -> None:
    lines = ["-" if y is None else str(int(y)) for y in labels]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_labels(path: str | Path) -> list[int | None]:
    """One label per non-blank line: 0, 1 or - (unlabeled)."""
    with _LineReader(path) as reader:
        return [_parse_label(line.strip()) for line in reader if line.strip()]
