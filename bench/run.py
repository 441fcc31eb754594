"""Benchmark of the mscontrast package: one workload per run, one result line.

Run from the root of a checkout, with the BLAS pool pinned before Python
starts (BENCHMARK.json holds the exact command):

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 bench/run.py --workload train-scenes --seed 0 --seconds 35 --trace 0

With ``--trace 0`` the result line carries the end-to-end metrics of an
untraced run; with ``--trace 1`` the per-layer metrics of a traced one, and
the spans go to ``.bench_out/``.  The line before the result holds the
workload's details: thread count, check failures, per-step losses and the
figures that have no bound.  The exit code is 0 when the run finished, even
if a check failed (the result line says ``"correct": false``), and 2 when the
package cannot be found next to the benchmark.
"""

import argparse
import ctypes
import importlib
import json
import logging
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("autodiff", "labels", "sampling", "losses", "projector", "scenes", "metrics", "model",
           "config", "training")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def process_age() -> float:
    """Seconds since this process started, from the kernel's clock; 0 where it is not exposed."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)


# set-up time is the process's age here plus the time since, so it counts the
# interpreter's start-up and every import that follows
STARTED, STARTED_AGE = time.perf_counter(), process_age()


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def import_package():
    """Import mscontrast from this checkout's src/, never from anywhere else."""
    if not (SRC / "mscontrast" / "__init__.py").is_file():
        raise ImportError(f"no mscontrast package under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("mscontrast")
    if Path(package.__file__).resolve().parent != SRC / "mscontrast":
        raise ImportError(f"mscontrast imported from {package.__file__}, not from {SRC}")
    for name in MODULES:
        importlib.import_module(f"mscontrast.{name}")
    return package


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        ms = import_package()
    except ImportError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    # the package warns on every scale without a positive pair; that is expected here
    logging.getLogger("mscontrast").setLevel(logging.ERROR)

    tracer = spans.Tracer() if args.trace else None
    phases = workloads.Phases(STARTED, STARTED_AGE, tracer, ms)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        outcome = workloads.WORKLOADS[args.workload](ms, args.seed, args.seconds, phases, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    if tracer is not None:
        metrics = tracer.metrics()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
    else:
        metrics = {
            "setup_s": {"value": phases.setup_s, "unit": "s"},
            "images_per_s": {"value": outcome.images_per_s, "unit": "images/s"},
            "peak_rss_mb": {"value": phases.peak_rss_mb, "unit": "MB"},
        }
        trace_path = None

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "failures": outcome.failures,
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
        "not_traced": phases.untraced,
        **outcome.info,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
