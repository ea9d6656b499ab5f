"""Measured end-to-end benchmark of the EdgePC reproduction.

Runs one workload for a fixed time and prints what it measured, one
metric a line with its unit and sample count, then one JSON object as
the last line of standard output::

    python3 perfbench/run.py --workload seg_indoor --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` makes a separate traced run: timing wrappers around each
layer's public entry points give the per-layer metrics, and the spans
are written to ``perfbench/out/``.  ``--workload all`` runs every
workload, untraced and traced, each in its own process.

The metrics in the JSON line are the ones ``BENCHMARK.json`` names;
the lines above it add the rest (every ladder rung, error rate,
environment).  The program is imported from ``src/`` of the checkout
this file sits in, and only from there.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("seg_indoor", "cls_dgcnn", "serve_guarded", "scene_exact")


#: Fresh interpreters timed importing the program; setup_s counts the
#: median.
IMPORT_REPEATS = 5
_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); "
    "import repro, repro.partition, repro.serving; "
    "print(time.perf_counter() - start)"
)


def import_program() -> float:
    """Import the program from this checkout; returns the median time a
    fresh interpreter takes to import it."""
    src = os.path.join(ROOT, "src")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, src],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        times.append(float(proc.stdout))
    sys.path.insert(0, src)
    import repro

    origin = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([origin, src]) != src:
        raise SystemExit(f"repro was imported from {origin}, not {src}")
    return statistics.median(times)


def blas_threads() -> int:
    """OpenBLAS thread count of the loaded NumPy, or -1 if unknown."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return -1


def declared_metrics(trace: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import_s = import_program()
    sys.path.insert(0, HERE)
    import numpy

    import workloads

    if workload == "serve_guarded":
        run = workloads.run_serve(seed, seconds, trace, import_s)
    else:
        run = workloads.run_offline(
            workloads.OFFLINE[workload], seed, seconds, trace, import_s
        )
    print(
        f"{workload} seed={seed} seconds={seconds} trace={int(trace)} "
        f"nproc={os.cpu_count()} blas_threads={blas_threads()} "
        f"numpy={numpy.__version__}"
    )
    for note in run.notes:
        print(f"  {note}")
    for name, metric in sorted(run.metrics.items()):
        print(
            f"  {name:40s} {metric['value']:14.6g} {metric['unit']:9s}"
            f" n={metric['samples']}"
        )
    ops = run.ops
    print(
        f"  ops attempted={ops.attempted} failed={ops.failed} "
        f"error_rate={ops.error_rate:.6g} {dict(ops.reasons)}"
    )
    if run.recorder is not None:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace_{workload}_seed{seed}.jsonl")
        run.recorder.dump(path, {"workload": workload, "seed": seed})
        print(f"  spans: {len(run.recorder.spans)} written to {path}")
    missing = [
        name for name in declared_metrics(trace) if name not in run.metrics
    ]
    if missing:
        raise SystemExit(f"{workload} did not measure {missing}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {
                "value": _finite(run.metrics[name]["value"]),
                "unit": run.metrics[name]["unit"],
            }
            for name in declared_metrics(trace)
        },
    }
    print(json.dumps(result))
    return 0


def _finite(value: float):
    """JSON has no NaN or infinity; report those as null."""
    return value if math.isfinite(value) else None


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, one process each."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                ],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace} failed", file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
