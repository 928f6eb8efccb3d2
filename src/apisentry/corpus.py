"""Canonical corpora of integer API-call traces.

A corpus is an immutable collection of labeled traces plus the size of the
call-id space they are drawn from. Parsing, canonicalization, splitting and
rebalancing all return new corpora; nothing mutates in place, so corpora are
safe to share across workers.

Canonical on-disk format (UTF-8, LF):
    #vocab=<int>              optional first line
    <label>,<id>,<id>,...     one trace per line, label in {0, 1, -}

The jsonl format carries one object per line with fields ``id`` (text),
``label`` (0/1/null) and ``calls`` (array of ints).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import groupby, islice
from pathlib import Path
from typing import IO

import numpy as np

DEFAULT_MAX_LEN = 100


class CorpusError(ValueError):
    """Malformed corpus data or an operation applied to an unfit corpus."""


@dataclass(frozen=True)
class LabeledTrace:
    """One process run: an ordered, non-empty sequence of integer call ids."""

    id: str
    calls: tuple[int, ...]
    label: int | None = None

    def __len__(self) -> int:
        return len(self.calls)


@dataclass(frozen=True)
class Corpus:
    traces: tuple[LabeledTrace, ...]
    vocabulary_size: int

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)

    def class_counts(self) -> dict[int, int]:
        return dict(Counter(t.label for t in self.traces if t.label is not None))


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    seed: int = 42
    stratified: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.test_fraction < 1.0:
            raise CorpusError(f"test_fraction must be in (0,1), got {self.test_fraction}")


class _LineReader:
    """Reads a file, or text (bytes as UTF-8), front to back and keeps `pos`
    on the number of the line being parsed (0 while none is, so also once
    every line has been read). As a context manager it prefixes any
    ValueError or IndexError raised in its block, once, with the file's name
    and that line: `{path}: line {n}: {message}`. A CorpusError stays a
    CorpusError; any other error becomes a ValueError."""

    def __init__(self, path: str | Path | None = None, text: str | bytes | None = None):
        self.path = path
        self.pos = 0
        if text is None:
            text = Path(path).read_bytes()
        if isinstance(text, bytes):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                self.pos = exc.object.count(b"\n", 0, exc.start) + 1
                self.__exit__(None, exc, None)  # prefixed like an error in a block
        self.lines = text.splitlines()
        self._rest = enumerate(self.lines, 1)

    def __enter__(self) -> "_LineReader":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, (ValueError, IndexError)):
            where = f"{self.path}: " if self.path else ""
            where += f"line {self.pos}: " if self.pos else ""
            raise (CorpusError if isinstance(exc, CorpusError) else ValueError)(
                f"{where}{exc}") from exc

    def __iter__(self):
        for self.pos, line in self._rest:
            yield line
        self.pos = 0

    def next(self) -> str:
        self.pos, line = next(self._rest, (len(self.lines) + 1, None))
        if line is None:
            raise ValueError("unexpected end of file")
        return line

    def field(self, name: str) -> str:
        line = self.next()
        if not line.startswith(name + " ") and line != name:
            raise ValueError(f"expected {name!r}, got {line!r}")
        return line[len(name) + 1:]

    def table(self, width: int, dtype=np.float64, sep: str | None = None,
              what: str = "a row", rows: int | None = None) -> np.ndarray:
        """The next `rows` lines, or all the rest of the lines but blank ones,
        as an (n, width) array read by one np.loadtxt; a structured dtype is
        1 wide. If that fails, the first line that does not read alone, a
        blank one among `rows` included, is refused with `expected {what}`.
        Leaves `pos` on the last line read."""
        start = self.pos
        body = self.lines[start:] if rows is None else self.lines[start:start + rows]
        kept = list(filter(str.strip, body)) if rows is None else body
        table = _loadtxt(kept, width, dtype, sep)
        if table is None or len(body) < (rows or 0):  # short of `rows`: nothing to scan
            for self.pos, line in enumerate(body if table is None else (), start + 1):
                bad = _loadtxt([line], width, dtype, sep) is None
                if bad and (line.strip() or rows is not None):
                    raise ValueError(f"expected {what}")
            self.pos = len(self.lines) + 1
            raise ValueError("unexpected end of file")
        next(islice(self._rest, len(body), len(body)), None)
        self.pos = start + len(body)
        self._table = start, body, table
        return table

    def refuse(self, ok: np.ndarray, message: str) -> None:
        """Raise ValueError(message.format(*row)) at the line of the first row
        of the last table whose `ok` is False."""
        for k in np.flatnonzero(~ok)[:1]:
            start, body, table = self._table
            self.pos = start + 1 + [i for i, line in enumerate(body) if line.strip()][k]
            raise ValueError(message.format(*table[k]))


def _plain(text: str) -> bool:
    r"""The number rule: text that holds a number is printable ASCII without
    '_'. int() and float() read '1_0' as 10 and non-ASCII digits as ASCII
    ones; np.loadtxt reads '1\u01fe2' as 4722 and a '\x1f' as a space."""
    return text.isascii() and text.isprintable() and "_" not in text


def _int(text: str) -> int:
    """int(text), for text that keeps the number rule."""
    if not _plain(text):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _float(text: str) -> float:
    """float(text), for text that keeps the number rule; nan and the
    infinities read, for settings whose own checks name them."""
    if not _plain(text):
        raise ValueError(f"{text!r} is not a number")
    return float(text)


def _finite(text: str) -> float:
    """float(text), for text that keeps the number rule; nan and the
    infinities are refused."""
    value = _float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _loadtxt(lines: list[str], width: int, dtype, sep: str | None) -> np.ndarray | None:
    """The (len(lines), width) array np.loadtxt reads from the lines, or None.
    Only text that keeps the number rule is read."""
    if not lines:
        return np.empty((0, width), dtype)
    text = "".join(lines)
    try:
        if text.strip() and _plain(text):
            table = np.loadtxt(lines, dtype, comments=None, delimiter=sep, ndmin=2)
            return table if table.shape == (len(lines), width) else None
    except (ValueError, OverflowError):
        return None


def _reader(source) -> _LineReader:
    """The reader given, or an unnamed reader over text, bytes or a stream."""
    if isinstance(source, _LineReader):
        return source
    if isinstance(source, Path):
        raise TypeError("parse_corpus takes a stream or text, not a path; use load_corpus")
    if not isinstance(source, (str, bytes)):
        source = source.read()
    return _LineReader(text=source)


def _parse_label(token: str) -> int | None:
    if token == "-":
        return None
    if token in ("0", "1"):
        return int(token)
    raise CorpusError(f"label must be 0, 1 or '-', got {token!r}")


def _call_ids(tokens, text: str | None = None) -> tuple[int, ...]:
    """Call ids from ints, or from text tokens by the number rule (_plain),
    tested once on `text`, the line the tokens were split from at commas, if
    given (a join costs more than the test)."""
    if not tokens or tokens == [""]:
        raise CorpusError("empty sequence")
    if text is None:
        text = "" if isinstance(tokens[0], int) else "".join(tokens)
    try:
        if not _plain(text):
            raise ValueError
        calls = tuple(map(int, tokens))
    except ValueError:
        raise CorpusError("malformed call id") from None
    if min(calls) < 0:
        raise CorpusError("negative call id")
    if max(calls) >= 2**63:
        raise CorpusError(f"call id {max(calls)} does not fit in 64 bits")
    return calls


def _corpus(traces: list[LabeledTrace], vocabulary_size: int | None) -> Corpus:
    """Whole-file checks: some trace, and every call id below the vocabulary size."""
    if not traces:
        raise CorpusError("no traces")
    max_id = max(max(t.calls) for t in traces)
    vocab = max_id + 1 if vocabulary_size is None else vocabulary_size
    if max_id >= vocab:
        raise CorpusError(f"call id {max_id} exceeds vocabulary size {vocab}")
    return Corpus(traces=tuple(traces), vocabulary_size=vocab)


def parse_corpus(source: str | bytes | IO, format: str = "canonical_csv") -> Corpus:
    """Parse a corpus from canonical CSV or jsonl content.

    The vocabulary size is the declared ``#vocab=`` header when present,
    otherwise one plus the largest call id seen.
    """
    if format not in ("canonical_csv", "jsonl"):
        raise CorpusError(f"unknown corpus format {format!r}")
    traces: list[LabeledTrace] = []
    declared_vocab: int | None = None
    with _reader(source) as reader:
        for line in reader:
            line = line.strip()
            if not line:
                continue
            if format == "canonical_csv" and line.startswith("#"):
                if not traces and line.startswith("#vocab=") and declared_vocab is None:
                    try:
                        declared_vocab = _int(line[len("#vocab="):])
                    except ValueError:
                        raise CorpusError(f"bad vocabulary header {line!r}") from None
                    if declared_vocab < 1:
                        raise CorpusError("vocabulary size must be >= 1")
                    continue
                raise CorpusError(f"unexpected comment {line!r}")
            trace_id = f"t{len(traces) + 1}"
            if format == "canonical_csv":
                fields = line.split(",")
                label = _parse_label(fields[0].strip())
                calls = _call_ids(fields[1:], line)
            else:
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"malformed json ({exc.msg})") from None
                if not isinstance(obj, dict) or "calls" not in obj:
                    raise CorpusError("object must carry a 'calls' field")
                calls = obj["calls"]
                if not isinstance(calls, list) or not all(
                        isinstance(c, int) and not isinstance(c, bool) for c in calls):
                    raise CorpusError("calls must be a list of integers")
                calls = _call_ids(calls)
                label = obj.get("label")
                if label not in (None, 0, 1):
                    raise CorpusError("label must be 0, 1 or null")
                trace_id = str(obj.get("id") or trace_id)
            traces.append(LabeledTrace(id=trace_id, calls=calls, label=label))
        return _corpus(traces, declared_vocab)


def serialize_corpus(corpus: Corpus, format: str = "canonical_csv") -> str:
    if format == "canonical_csv":
        out = [f"#vocab={corpus.vocabulary_size}"] + [
            ("-" if t.label is None else str(t.label)) + "," + ",".join(map(str, t.calls))
            for t in corpus.traces]
        return "\n".join(out) + "\n"
    if format == "jsonl":
        out = [json.dumps({"id": t.id, "label": t.label, "calls": list(t.calls)},
                          separators=(",", ":")) for t in corpus.traces]
        return "\n".join(out) + "\n"
    raise CorpusError(f"unknown corpus format {format!r}")


def load_corpus(path: str | Path, format: str = "canonical_csv") -> Corpus:
    return parse_corpus(_LineReader(path), format=format)


def save_corpus(corpus: Corpus, path: str | Path, format: str = "canonical_csv") -> None:
    Path(path).write_text(serialize_corpus(corpus, format=format), encoding="utf-8")


def collapse_consecutive_repeats(trace: LabeledTrace) -> LabeledTrace:
    """Drop every call equal to its immediate predecessor."""
    if not trace.calls:
        raise CorpusError("trace has no calls")
    kept = tuple(call for call, _ in groupby(trace.calls))
    return trace if len(kept) == len(trace.calls) else replace(trace, calls=kept)


def truncate_prefix(trace: LabeledTrace, max_len: int) -> LabeledTrace:
    """Keep only the first max_len calls."""
    if max_len < 2:
        raise CorpusError(f"max_len must be >= 2, got {max_len}")
    if len(trace.calls) <= max_len:
        return trace
    return replace(trace, calls=trace.calls[:max_len])


def canonicalize(corpus: Corpus, collapse: bool = True,
                 max_len: int = DEFAULT_MAX_LEN) -> Corpus:
    """Apply repeat collapsing and prefix truncation to every trace."""
    traces = map(collapse_consecutive_repeats, corpus.traces) if collapse else corpus.traces
    return replace(corpus, traces=tuple(truncate_prefix(t, max_len) for t in traces))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def stratified_split(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Split into train/test corpora; per-class test counts are
    round(class_count * test_fraction) when stratified.

    Deterministic under the split seed. Trace order within each side follows
    the input corpus.
    """
    n = len(corpus)
    if n < 2:
        raise CorpusError("need at least 2 traces to split")
    if spec.stratified:
        groups: dict[int | None, list[int]] = {}
        for i, t in enumerate(corpus.traces):
            if t.label is None:
                raise CorpusError("stratified split requires every trace to be labeled")
            groups.setdefault(t.label, []).append(i)
    else:
        groups = {None: list(range(n))}  # one group of every trace
    rng = np.random.default_rng(spec.seed)
    test_idx: set[int] = set()
    for label in sorted(groups):
        members = groups[label]
        k = _round_half_up(len(members) * spec.test_fraction)
        if k < 1 or k >= len(members):
            raise CorpusError("test_fraction leaves one side empty" if label is None else
                              f"class {label} has {len(members)} traces, too few to stratify "
                              f"at test_fraction={spec.test_fraction}")
        order = rng.permutation(len(members))
        test_idx.update(members[j] for j in order[:k])

    train = tuple(t for i, t in enumerate(corpus.traces) if i not in test_idx)
    test = tuple(t for i, t in enumerate(corpus.traces) if i in test_idx)
    return replace(corpus, traces=train), replace(corpus, traces=test)


def random_oversample(corpus: Corpus, seed: int) -> Corpus:
    """Balance a two-class corpus by duplicating minority traces with
    replacement until both class counts match the majority count.

    All original traces are retained in order; duplicates are appended.
    """
    counts = corpus.class_counts()
    if sum(counts.values()) != len(corpus):
        raise CorpusError("oversampling requires every trace to be labeled")
    if len(counts) != 2:
        raise CorpusError(f"oversampling requires exactly two classes, found {len(counts)}")
    (minority, n_min), (_, n_maj) = sorted(counts.items(), key=lambda kv: kv[1])
    if n_min == n_maj:
        return corpus
    pool = [t for t in corpus.traces if t.label == minority]
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(pool), size=n_maj - n_min)
    extra = tuple(pool[int(i)] for i in picks)
    return replace(corpus, traces=corpus.traces + extra)


# --- adapters for upstream dataset files ------------------------------------

def _column(header: list[str], name: str | None) -> int | None:
    return header.index(name) if name and name in header else None


def _convert(text: str | _LineReader, columns, id_col: str | None,
             vocabulary_size: int | None) -> Corpus:
    """The adapters' loop: a header, then a trace per non-blank row of as many
    fields; `columns(header)` returns the reader of a row's (calls, label)."""
    traces = []
    with _reader(text) as reader:
        rows = (line.split(",") for line in reader if line.strip())
        header = [h.strip() for h in next(rows, [])]
        if not header:
            raise CorpusError("no traces")
        read, id_pos = columns(header), _column(header, id_col)
        for fields in rows:
            if len(fields) != len(header):
                raise CorpusError(f"expected {len(header)} fields")
            calls, label = read(fields)
            trace_id = fields[id_pos].strip() if id_pos is not None else f"t{len(traces) + 1}"
            traces.append(LabeledTrace(id=trace_id, calls=calls, label=label))
        return _corpus(traces, vocabulary_size)


def convert_wide_csv(text: str | _LineReader, label_col: str, call_prefix: str,
                     id_col: str | None = None,
                     vocabulary_size: int | None = None) -> Corpus:
    """Adapt a wide CSV (one call per column, columns named
    ``<call_prefix>0..<call_prefix>N``) into a canonical corpus. The label
    column holds 0, 1 or - (unlabeled), as in the canonical format. Every
    other column named with the prefix must end in a non-negative integer."""
    def columns(header):
        label_pos = _column(header, label_col)
        if label_pos is None:
            raise CorpusError(f"label column {label_col!r} not in header")
        try:
            call_pos = sorted((_int(h[len(call_prefix):]), i) for i, h in enumerate(header)
                              if h.startswith(call_prefix) and h not in (label_col, id_col))
            if call_pos and call_pos[0][0] < 0:
                raise ValueError(f"{call_pos[0][0]} is negative")
        except ValueError as exc:
            raise CorpusError(f"call column index after {call_prefix!r}: {exc}") from None
        if not call_pos:
            raise CorpusError(f"no call columns with prefix {call_prefix!r}")
        return lambda fields: (_call_ids([fields[i] for _, i in call_pos]),
                               _parse_label(fields[label_pos].strip()))
    return _convert(text, columns, id_col, vocabulary_size)


def convert_seq_csv(text: str | _LineReader, seq_col: str, delimiter: str = " ",
                    label_col: str | None = None, constant_label: int | None = 1,
                    id_col: str | None = None,
                    vocabulary_size: int | None = None) -> Corpus:
    """Adapt a CSV carrying each trace as one delimited string column."""
    def columns(header):
        seq_pos, label_pos = _column(header, seq_col), _column(header, label_col)
        if seq_pos is None:
            raise CorpusError(f"sequence column {seq_col!r} not in header")
        if label_col and label_pos is None:
            raise CorpusError(f"label column {label_col!r} not in header")
        return lambda fields: (
            _call_ids([tok for tok in fields[seq_pos].strip().split(delimiter) if tok]),
            constant_label if label_pos is None else _parse_label(fields[label_pos].strip()))
    return _convert(text, columns, id_col, vocabulary_size)
