"""nodalscope benchmark: one workload, timed rounds, independent checks.

    python3 perfbench/run.py --workload {ensemble,nodal,report} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
./src). Set-up is timed in fresh interpreter processes: each starts, imports
the package, makes the inputs from the seed and writes them; setup_s is the
median of three. The main process then loads those inputs and repeats
identical rounds of the workload until S seconds have passed (at least one
round). With --trace 0 it reports wall_s (median round time) and
peak_rss_mb; with --trace 1 it wraps the package's public functions and
reports per-round layer metrics. The outputs of the first round are checked
against computations made apart from the program; later rounds must repeat
them exactly. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# One process, one BLAS thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
SETUP_TIMEOUT = 150


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("ensemble", "nodal", "report"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prepare", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_workloads():
    if not (SRC / "nodalscope" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'nodalscope'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    return workloads


def _setup_seconds(args, run_dir: Path) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--prepare", str(run_dir)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.prepare is not None:
        wl = _import_workloads().WORKLOADS[args.workload]
        run_dir = Path(args.prepare)
        run_dir.mkdir(parents=True, exist_ok=True)
        wl.prepare(args.seed, run_dir)
        return 0

    workloads = _import_workloads()
    from nodalscope import geometry, scan
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]
    run_dir = HERE / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        setup_s = _setup_seconds(args, run_dir)
        inputs = wl.load(run_dir)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        times, first, mismatch, extra = [], None, 0, {}
        start = time.perf_counter()
        while True:
            # each round pays what a fresh process pays: empty cover cache
            geometry._cached_cover.cache_clear()
            gc.collect()
            t0 = time.perf_counter()
            raw = wl.run_round(inputs)
            times.append(time.perf_counter() - t0)
            snap = wl.snapshot(inputs, raw)
            if first is None:
                first = snap
            elif not wl.same(first, snap):
                mismatch += 1
            for key, val in wl.written(snap).items():
                extra[key] = extra.get(key, 0) + val
            del raw
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds = len(times)
        if tracer:
            tracer.uninstall()
            layers = tracer.layer_metrics(rounds, scan.NODE_BUDGET, extra)
            trace_dir = HERE / "traces"
            trace_dir.mkdir(exist_ok=True)
            tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.json")
        outcome = wl.check(inputs, first)
        if mismatch:
            outcome.problems.append(f"{mismatch} later rounds differ from "
                                    f"the first")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    values = layers if args.trace else {
        "setup_s": setup_s,
        "wall_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
    }
    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} are "
                         f"not both measured and declared in BENCHMARK.json")
    metrics = {}
    for key, val in values.items():
        if units[key] != "s" and float(val).is_integer():
            val = int(val)
        metrics[key] = {"value": val, "unit": units[key]}
    print(f"{args.workload}: {rounds} rounds, round times "
          f"{[round(t, 3) for t in times]}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted * rounds,
        "failed": outcome.failed * rounds,
        "metrics": metrics,
    }))
    return 0


def _declared_units(kind: str) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: m["unit"] for m in declared}


if __name__ == "__main__":
    sys.exit(main())
