#!/usr/bin/env python3
"""Benchmark of tlsekit: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload tall|kron|tables --seed N \
        --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it records the machine
and the BLAS configuration. perfbench/README.md describes the workloads,
the metrics and the checks.
"""
from __future__ import annotations

import os

# One BLAS thread, fixed before NumPy loads: on two threads the problems of
# these workloads ran two to five times slower (README, "Reference figures").
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up processes per run; setup_s is their median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

#: Fewest measured rounds, whatever --seconds says.
MIN_ROUNDS = 3

WORKLOAD_NAMES = ("tall", "kron", "tables")


def _load_tlsekit():
    """Import tlsekit from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import tlsekit

    if not Path(tlsekit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"tlsekit was imported from {tlsekit.__file__}, not from src/")
    return tlsekit


def setup_child(workload, seed, folder, trace):
    """One set-up: import tlsekit, generate the inputs, write them."""
    start = time.perf_counter()
    _load_tlsekit()
    imported = time.perf_counter()
    import tracing
    import workloads

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workloads.write_inputs(workload, seed, Path(folder))
    done = time.perf_counter()
    result = {"setup_s": done - start, "init.import_s": imported - start}
    if tracer:
        result.update(tracing.setup_layer_times(tracer.spans))
    print(json.dumps(result))


def run_setups(args, folder):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", str(folder),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", str(args.trace)]
    results = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(r[key] for r in results) for key in results[0]}


def peak_mb(fn):
    """Peak tracemalloc memory of one call, in MB (1e6 bytes)."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "tlsekit" / "__init__.py").is_file():
        print(f"error: no tlsekit sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        setup_child(args.workload, args.seed, args.setup_child, args.trace)
        return 0

    folder = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, folder)
    finally:
        shutil.rmtree(folder, ignore_errors=True)


def measure(args, folder):
    setup = run_setups(args, folder)
    tk = _load_tlsekit()
    import numpy as np

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](folder, args.seed)
    problems = wl.verify()
    big = wl.peak_case()
    solve_peak = peak_mb(lambda: tk.solve_qr_svd(big.problem))
    report_peak = peak_mb(lambda: tk.condition_report(big.problem, solution=big.solution,
                                                      method=wl.mode))

    runner = workloads.Runner(wl.passes)
    tracer = tracing.Tracer() if args.trace else None
    traced_rounds = []
    min_rounds = MIN_ROUNDS + 1 if args.trace else MIN_ROUNDS
    rounds = 0
    gc.disable()
    end = time.perf_counter() + args.seconds
    try:
        while rounds < min_rounds or time.perf_counter() < end:
            gc.collect()
            # Traced runs alternate traced and untraced rounds, so that the
            # tracing overhead is measured within one run.
            traced = bool(tracer) and rounds % 2 == 1
            restore = None
            if traced:
                tracer.round = rounds
                runner.tracer = tracer
                restore = tracing.install(tracer)
                traced_rounds.append(rounds)
            try:
                wl.round(runner)
            finally:
                if restore:
                    restore()
                runner.tracer = None
            rounds += 1
    finally:
        gc.enable()

    if args.trace:
        layer = tracing.layer_metrics(tracer.spans, traced_rounds)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer.items()}
        for name, (unit, _) in tracing.SETUP_METRICS.items():
            metrics[name] = {"value": setup[name], "unit": unit}
        untraced = [i for i in range(rounds) if i not in traced_rounds]
        traced_pipeline = runner.value("pipeline_s", traced_rounds)
        metrics["trace.pipeline_s"] = {"value": traced_pipeline, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_pipeline - runner.value("pipeline_s", untraced), "unit": "s"}
    else:
        metrics = {"setup_s": {"value": setup["setup_s"], "unit": "s"}}
        for name in ("solve_s", "closed_s", "nwtls_s", "report_s", "pipeline_s"):
            metrics[name] = {"value": runner.value(name), "unit": "s"}
        metrics["solve_peak_mb"] = {"value": solve_peak, "unit": "MB"}
        metrics["report_peak_mb"] = {"value": report_peak, "unit": "MB"}

    problems += runner.unexpected
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "report_mode": wl.mode, "round_totals": runner.round_totals(),
        "setup": setup, "peak_case": big.name, "unexpected_failures": problems,
        "environment": environment(np),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(info, indent=1))
    if tracer:
        tracer.write(OUT / f"spans-{stem}.json")
    print(json.dumps({"info": info["environment"], "rounds": rounds, "report_mode": wl.mode}))
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
