"""apisentry benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from `src/` there,
nothing is installed. One workload runs in this process: it generates its
inputs from the seed, prepares artifacts if it needs them, times its set-up,
then runs passes over its fixed work until S seconds have gone and checks
every pass. With --trace 0 the passes run untraced and the last line of
standard output is a JSON object with the end-to-end metrics of
BENCHMARK.json; with --trace 1 untraced and traced passes alternate, spans
are written to .bench_work/, and the JSON carries the per-layer metrics.
Everything above the JSON line is a readable report with every named metric.
`--workload all` runs each workload in a process of its own and prints
their reports one after another.

Exit codes: 0 measured (the JSON says whether outputs were correct), 1 bad
arguments, 2 the program or its sources are missing or a step crashed.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, here and in every
# child process, which inherits the environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7
NAMES = ["detect-d1", "nextcall-d2", "triage-online"]

# Units of the named figures in the report; the rest follow their suffix.
UNITS = {"request_ms_p50": "ms", "request_ms_p95": "ms", "detect_f1": "ratio",
         "nextcall_acc": "ratio", "error_rate": "ratio", "seqmodel.pad_fraction": "ratio"}
SUFFIX_UNITS = (("_pct", "%"), ("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                ("_bytes", "bytes"))


def unit_of(key: str) -> str:
    if key in UNITS:
        return UNITS[key]
    return next((unit for suffix, unit in SUFFIX_UNITS if key.endswith(suffix)), "count")


def _die(msg: str, code: int = 2):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(code)


def _import_program():
    """Import the program from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "apisentry" / "__init__.py").is_file():
        _die(f"no program sources at {src}/apisentry; run from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import apisentry
    if Path(apisentry.__file__).resolve().parent != (src / "apisentry").resolve():
        _die(f"imported apisentry from {apisentry.__file__}, not from {src}")
    return apisentry


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(idx / "level"))
        kind = _read(str(idx / "type"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(str(idx / "size"))
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    git_sha = "unknown"  # a checkout without .git; src_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=10).stdout.strip() or git_sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "apisentry").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpu_model": cpu, **caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_version,
        "blas_threads": int(BLAS_THREADS), "seed": seed,
    }


def _percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    import numpy as np

    import workloads
    from spans import NullTracer, Tracer

    WORK.mkdir(exist_ok=True)
    wd = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    wd.mkdir()
    try:
        w = workloads.WORKLOADS[name](wd, seed, smoke)
        t0 = time.perf_counter()
        shapes = w.generate()
        gen_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        w.prepare()
        prepare_s = time.perf_counter() - t0
        probes = [workloads.probe_setup(w.setup_probe_args())
                  for _ in range(2 if smoke else SETUP_PROBES)]
        setup_tr = Tracer() if trace else NullTracer()
        w.setup(setup_tr)

        untraced, traced = [], []
        last_tr = setup_tr if trace else None
        deadline = time.perf_counter() + seconds
        while True:
            use_trace = trace and len(untraced) > len(traced)
            tr = Tracer(after=last_tr) if use_trace else NullTracer()
            if use_trace:
                workloads.install(tr)
            try:
                with tr.span("bench.pass"):
                    p = w.run_pass(tr)
            finally:
                if use_trace:
                    tr.unwrap_all()
            (traced if use_trace else untraced).append((p, tr))
            if use_trace:
                last_tr = tr
            if (time.perf_counter() >= deadline and len(untraced) >= w.min_passes
                    and (traced or not trace)):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        all_passes = [p for p, _ in untraced + traced]
        attempted = sum(p.attempted for p in all_passes)
        failed = sum(p.failed for p in all_passes)
        errors = [e for p in all_passes for e in p.errors]
        digests = all_passes[0].digests
        for p in all_passes[1:]:
            if p.digests != digests:
                errors.append("outputs differ between passes over the same inputs")
                failed += 1
                break

        named = {"setup_s": statistics.median(probes),
                 "pipeline_s": statistics.median(p.seconds for p, _ in untraced)}
        # a pass stopped by a failed command has only its time
        complete = [p for p, _ in untraced if p.stats]
        for key in complete[0].stats if complete else ():
            named[key] = statistics.median(p.stats[key] for p in complete)
        latencies = [x for p, _ in untraced for x in p.latencies_ms]
        if latencies:
            named["request_ms_p50"] = _percentile(latencies, 50)
            named["request_ms_p95"] = _percentile(latencies, 95)
        named["peak_rss_mb"] = peak_rss_mb
        named["error_rate"] = failed / max(attempted, 1)

        result = {
            "workload": name, "why": w.why, "seed": seed, "seconds": seconds,
            "trace": int(trace), "smoke": smoke, "correct": failed == 0,
            "attempted": attempted, "failed": failed, "errors": errors[:20],
            "environment": environment(seed), "corpus_shape": shapes,
            "input_generation_s": gen_s, "artifact_preparation_s": prepare_s,
            "setup_probes_s": probes, "passes": len(untraced), "traced_passes": len(traced),
            "pass_seconds": [p.seconds for p, _ in untraced],
            "digests": digests, "end_to_end": named,
        }
        if trace:
            spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
            spans_path.unlink(missing_ok=True)
            setup_tr.write(spans_path)
            per_pass = []
            for _, tr in traced:
                per_pass.append({**workloads.layer_breakdown(tr), **w.layer_metrics(tr)})
                tr.write(spans_path)
            layer = {k: float(np.nanmedian([row[k] for row in per_pass])) for k in per_pass[0]}
            layer.update(w.setup_layer_metrics(setup_tr))
            untraced_s = statistics.median(p.seconds for p, _ in untraced)
            traced_s = statistics.median(p.seconds for p, _ in traced)
            layer["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
            result["per_layer"] = layer
        return result
    finally:
        shutil.rmtree(wd, ignore_errors=True)


def report_lines(result: dict) -> list[str]:
    lines = [f"== {result['workload']} (seed {result['seed']}, {result['passes']} passes"
             f"{', %d traced' % result['traced_passes'] if result['trace'] else ''}) =="]
    lines.append(f"why: {result['why']}")
    lines.append(f"corpus: {json.dumps(result['corpus_shape'], sort_keys=True)}")
    lines.append(f"input generation {result['input_generation_s']:.3f} s, "
                 f"artifact preparation {result['artifact_preparation_s']:.3f} s")
    lines.append("set-up probes (s): " + " ".join(f"{x:.4f}" for x in result["setup_probes_s"]))
    lines.append("untraced passes (s): " + " ".join(f"{x:.4f}" for x in result["pass_seconds"]))
    for key, value in result["end_to_end"].items():
        lines.append(f"  {key:<34} {value:>14.6g} {unit_of(key)}")
    for key, value in result.get("per_layer", {}).items():
        lines.append(f"  {key:<44} {value:>14.6g} {unit_of(key)}")
    lines.append(f"digests: {json.dumps(result['digests'], sort_keys=True)}")
    lines.append(f"correct: {result['correct']} ({result['failed']} of "
                 f"{result['attempted']} operations failed)")
    for err in result["errors"]:
        lines.append(f"  error: {err}")
    return lines


def result_line(result: dict) -> str:
    """The JSON line of BENCHMARK.json's end-to-end metrics, or of its
    per-layer metrics for a traced run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed, values = ((spec["per_layer"], result["per_layer"]) if result["trace"]
                      else (spec["end_to_end"], result["end_to_end"]))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def _stop(signum, frame):
    # turn SIGTERM into an exception so work directories are removed and
    # child processes are killed and waited for on the way out
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    ap.add_argument("--out", help="also write the full results as JSON here")
    args = ap.parse_args(argv)
    _import_program()
    # the CLI's seed for splits, resampling and initialisation, here and in
    # child processes
    os.environ["APISENTRY_SEED"] = str(args.seed)

    if args.workload == "all":
        results = []
        for name in NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(WORK / f"all-{name}.json")]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                _die(f"{name} exited {proc.returncode}")
            results.append(json.loads((WORK / f"all-{name}.json").read_text()))
            print("\n".join(report_lines(results[-1])), flush=True)
        if args.out:
            Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        print(json.dumps({r["workload"]: json.loads(result_line(r)) for r in results}))
        return 0

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print("\n".join(report_lines(result)))
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
