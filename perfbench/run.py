"""edue benchmark runner.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Runs one workload in this process, from the root of a source checkout,
and prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separately traced loop with
``--trace 1``.  The line before it holds the run info and every failed
command.  Working files go to ``.perfbench_work/`` and are removed at
exit; the run record (and the spans of a traced run) go to
``.perfbench_out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("autodiff", "container", "raters", "model", "disagreement", "metrics",
           "harness", "storage", "config", "cli")


def apply_shims() -> list[str]:
    """Import-time fixes applied from outside, listed in the run info."""
    shims = []
    # numpy 2 removed np.trapz; edue.harness reads it eagerly on import.
    if not hasattr(np, "trapz"):
        np.trapz = np.trapezoid
        shims.append("np.trapz = np.trapezoid")
    return shims


def import_edue() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    return {name: importlib.import_module(f"edue.{name}") for name in MODULES}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_info() -> dict:
    build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": build.get("name"), "version": build.get("version"),
            "threads": None,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ}}
    # OpenBLAS reports its thread count through its own C API.
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def parse_args(argv):
    p = argparse.ArgumentParser(description="edue benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                   help="input sizes; 'tiny' is for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    shims = apply_shims()
    start = time.perf_counter()
    try:
        edue = import_edue()
    except ImportError as exc:
        print(f"perfbench: cannot import edue from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    tracer = tracing.Tracer(edue) if args.trace else None
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    bench = workloads.Bench(edue, work, workloads.SCALES[args.scale], args.seed, tracer)
    if tracer is not None:
        tracer.install()
    try:
        workloads.WORKLOADS[args.workload](bench, args.seconds, bool(args.trace))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        cycles = len(bench.traced_cycle_seconds)
        traced_s = sum(bench.traced_cycle_seconds) / cycles
        untraced_s = sum(bench.cycle_seconds) / len(bench.cycle_seconds)
        metrics = {name: {"value": value, "unit": tracing.PER_LAYER[name]["unit"]}
                   for name, value in tracer.per_layer(cycles, traced_s, untraced_s).items()}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = bench.end_to_end(peak_mb)

    failed = [op for op in bench.ops if op.failed]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_info(), "git_commit": git_commit(),
        "shims": shims, "import_s": import_s,
        "setup_s_each": bench.setup_seconds,
        "calib_median": (statistics.median(op.calib for op in bench.ops)
                         if bench.calibrate else None),
        "wall_rates_median": {name: statistics.median(v)
                              for name, v in bench.rates(calibrated=False).items()},
        "cycle_s_each": bench.cycle_seconds,
        "traced_cycle_s_each": bench.traced_cycle_seconds,
        "problems": bench.problems,
        "failed_ops": [op.summary(ROOT) for op in failed],
    }
    result = {"correct": not bench.problems and not any(op.problems for op in bench.ops),
              "attempted": len(bench.ops), "failed": len(failed), "metrics": metrics}

    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"run_info": info, "result": result,
                   "ops": [op.summary(ROOT) for op in bench.ops]}, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(f"{stem}-spans.json")
    print(json.dumps({"run_info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
