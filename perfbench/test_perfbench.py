"""Smoke-sized self-test of the benchmark. It checks structure only, never
timings:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
from spans import Tracer  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_lists_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "detect-d1", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_generator_is_seeded():
    a, b = gen.d1_corpus([5, 0], 82), gen.d1_corpus([5, 0], 82)
    assert (a.calls == b.calls).all() and (a.labels == b.labels).all()
    assert not (gen.d1_corpus([6, 0], 82).calls == a.calls).all()
    shape = gen.shape(a)
    assert shape["traces"] == 82 and shape["goodware"] == 2
    assert shape["distinct_3grams"] >= shape["distinct_2grams"] > 0
    hard = gen.d1_corpus([5, 0], 82, overlapping=True)
    assert (hard.calls == gen.d1_corpus([5, 0], 82, overlapping=True).calls).all()
    assert not (hard.calls == a.calls).all()
    d2 = gen.d2_corpus([5, 0], 10)
    assert d2.labels is None and d2.lengths.max() <= d2.calls.shape[1]


def test_self_time_subtracts_children_and_spans_are_json_lines(tmp_path):
    tr = Tracer()
    with tr.request(4):
        with tr.span("cli.detect"):
            tr.call("gbdt.load_detector", sum, [1, 2], counter=lambda r, xs: {"n": r})
    parent, kid = tr.spans
    assert kid["parent"] == parent["id"] and kid["request"] == 4 and kid["counts"] == {"n": 3}
    self_times = tr.self_times()
    total = parent["end"] - parent["start"]
    assert self_times["cli.detect"] == pytest.approx(total - (kid["end"] - kid["start"]))
    tr.write(tmp_path / "spans.jsonl")
    rows = [json.loads(x) for x in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [r["name"] for r in rows] == ["cli.detect", "gbdt.load_detector"]
    assert set(rows[0]) == {"id", "name", "start", "end", "parent", "request", "counts"}
    later = Tracer(after=tr)  # continues the ids and the clock
    with later.span("bench.pass"):
        pass
    assert later.spans[0]["id"] == 2 and later.spans[0]["start"] >= kid["end"]
