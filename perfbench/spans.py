"""In-memory span tracing from outside the program.

A traced pass replaces public functions at the module attribute where their
callers look them up (for example `apisentry.cli.train_bagged`, which the
CLI's command code calls, or `apisentry.seqmodel.train_step`, which
`seqmodel.train` calls), so no program file changes. The benchmark's own
calls into the program go through `Tracer.call`, which opens a span around
them. An untraced pass installs nothing and calls through `NullTracer`.

Span record, one JSON object per line when written out:

    {"id": 7, "name": "gbdt.train_gbdt", "start": 1.25, "end": 3.5,
     "parent": 6, "request": null, "counts": {"trees": 300}}

`start` and `end` are seconds on the tracer's monotonic clock, `parent` is the
id of the innermost span open when this one began (null at the root),
`request` groups the spans of one triage request, and `counts` holds work
counters recorded at the same boundary. A span's name is `<layer>.<what>`;
the layer is the text before the first dot.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class NullTracer:
    """Calls straight through; used by untraced passes."""

    def call(self, name, fn, *args, counter=None, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        yield

    @contextmanager
    def request(self, request_id):
        yield


class Tracer:
    """Records spans in memory and can wrap program functions in them."""

    def __init__(self, after: "Tracer | None" = None):
        """A tracer that continues `after`'s clock and span ids, so several
        tracers of one run can be written to one file."""
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._request = None
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = after._t0 if after else time.perf_counter()
        self._first_id = after._first_id + len(after.spans) if after else 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> dict:
        rec = {"id": self._first_id + len(self.spans), "name": name,
               "start": time.perf_counter() - self._t0, "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "request": self._request, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter() - self._t0
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextmanager
    def request(self, request_id):
        self._request = request_id
        try:
            yield
        finally:
            self._request = None

    def call(self, name, fn, *args, counter=None, **kwargs):
        rec = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(rec)
        if counter is not None:
            rec["counts"].update(counter(result, *args, **kwargs))
        return result

    # -- installing wrappers -------------------------------------------------

    def wrap(self, module, attr: str, name: str, counter=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, counter=counter, **kwargs)

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reading -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]

    def named(self, name: str) -> list[dict]:
        return [r for r in self.spans if r["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds each span spent outside its child spans, summed by span
        name. Children never overlap (one thread), so subtracting their
        durations leaves exactly the uncovered part of the parent."""
        child = defaultdict(float)
        for r in self.spans:
            if r["parent"] is not None:
                child[r["parent"]] += r["end"] - r["start"]
        out: dict[str, float] = defaultdict(float)
        for r in self.spans:
            out[r["name"]] += (r["end"] - r["start"]) - child[r["id"]]
        return dict(out)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
