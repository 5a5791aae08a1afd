"""Benchmark of moyalmetric: one workload, one seed, one result line.

    python3 perfbench/run.py --workload single-sheet --seed 1 --seconds 25 --trace 0

Run it from anywhere; it imports the library from ``src/`` beside this
directory and nowhere else, and exits with status 2 when that is missing.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the run: the machine, the BLAS thread count in effect, the tail
percentile used, the certified sum and any failed checks.  See README.md
beside this file for what each metric means.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "out"

# One BLAS thread for every workload: the solver workloads work on 42x42 and
# 168x168 matrices where a second thread only adds noise, and one thread
# is at most nproc on every machine.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 5
CHILD_TIMEOUT_S = 150
LAYERS = ("fock", "lengthop", "spectral", "doubling", "starprod")
WORKLOAD_NAMES = ("single-sheet", "two-sheet", "exact-routes")


def _openblas_runtime() -> tuple[str | None, int | None]:
    """Config string and thread count of the OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), int(get_threads())
    return None, None


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    runtime, threads = _openblas_runtime()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime": runtime,
        "blas_threads": threads,
        "blas_threads_pinned": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
    }


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it, by
    nearest rank; the median when that percentile would lie below it."""
    n = len(samples)
    p = 100 * (n - 10) // n
    if p <= 50:
        return 50, statistics.median(samples)
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def setup_once(name: str, seed: int, sizes_name: str) -> float:
    """Seconds a fresh interpreter takes to import the library, build the
    contexts and generate the inputs of one workload."""
    code = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{name!r}].make_inputs({seed}, workloads.SIZES[{sizes_name!r}])\n"
        "print(time.perf_counter() - start)\n"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True)
    return float(child.stdout)


def forked(fn):
    """Return ``fn()`` computed in a forked child process.  The child starts
    with this process's imports and inputs but fills its own caches, as a
    fresh command-line process would; the parent waits for it to end."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        status = 1
        try:
            with os.fdopen(write, "wb") as fh:
                pickle.dump(fn(), fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"forked pass ended with wait status {status}")
    return pickle.loads(data)


def untraced_run(name: str, seed: int, seconds: float, sizes_name: str):
    """Set up SETUP_REPS times in fresh processes, then make passes over the
    op list while the next one, as long as the longest so far, still ends
    within ``seconds``; there is always one pass.  A cold workload makes
    each pass in a forked child and checks it there; otherwise a repeated
    pass must reproduce the checked first one exactly."""
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[name]
    tracer = Tracer(False)
    setup_s = [setup_once(name, seed, sizes_name) for _ in range(SETUP_REPS)]
    inp = wl.make_inputs(seed, workloads.SIZES[sizes_name])

    def timed_pass():
        pass_latencies: list[float] = []
        start = perf_counter()
        outs = wl.run_pass(inp, tracer, pass_latencies)
        return perf_counter() - start, pass_latencies, outs

    def cold_pass():
        elapsed, pass_latencies, outs = timed_pass()
        pass_checks = workloads.Checks()
        return elapsed, pass_latencies, pass_checks, wl.check(inp, outs, tracer, pass_checks)

    checks = workloads.Checks()
    latencies: list[float] = []
    pass_s: list[float] = []
    round_s: list[float] = []  # whole passes with fork and checks, for the budget
    figures = first = None
    begin = perf_counter()
    while True:
        start = perf_counter()
        if wl.cold:
            elapsed, pass_latencies, pass_checks, pass_figures = forked(cold_pass)
            checks.merge(pass_checks)
            figures = figures or pass_figures
        else:
            elapsed, pass_latencies, outs = timed_pass()
            if first is None:
                first = outs
                figures = wl.check(inp, outs, tracer, checks)
                first_failed = checks.failed
            else:
                want, got = wl.values(first), wl.values(outs)
                differ = sum(a != b for a, b in zip(want, got))
                checks.expect(not differ and not first_failed,
                              f"pass {len(pass_s) + 1}: {differ} outputs differ from pass 1",
                              count=len(want), bad=min(len(want), differ + first_failed))
        latencies += pass_latencies
        pass_s.append(elapsed)
        round_s.append(perf_counter() - start)
        if perf_counter() - begin + max(round_s) > seconds:
            break

    tail_p, tail = tail_percentile(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(pass_s), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "pass_ratio": (1.0 - checks.failed / checks.attempted, "ratio"),
        "certified_ratio": (figures.certified / figures.reference, "ratio"),
    }
    info = {
        "passes": len(pass_s),
        "pass_s": pass_s,
        "round_s": round_s,
        "ops_timed": len(latencies),
        "tail_percentile": tail_p,
        "setup_reps_s": setup_s,
        "fail_ratio": checks.failed / checks.attempted,
        "certified_sum": figures.certified,
        "reference_sum": figures.reference,
    }
    return checks, metrics, info


def traced_run(name: str, seed: int, sizes_name: str):
    """One untraced pass of ``name`` in a fresh process, then one traced pass
    of every workload here, ``name`` first, all at the traced sizes.  So
    every layer is measured, and each exact-routes pass starts with no
    length operator cached."""
    import workloads
    from spans import Tracer

    sizes_name = workloads.TRACED_SIZES[sizes_name]
    sizes = workloads.SIZES[sizes_name]
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", "0", "--sizes", sizes_name],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if child.returncode != 0:
        raise RuntimeError(f"untraced reference pass failed:\n{child.stderr}")
    untraced = json.loads(child.stdout.strip().splitlines()[-1])

    tracer = Tracer(True)
    checks = workloads.Checks()
    figures = {}
    for wname in [name] + [w for w in WORKLOAD_NAMES if w != name]:
        wl = workloads.WORKLOADS[wname]
        tracer.tags = {"workload": wname}
        with tracer.span("fock.states"):
            inp = wl.make_inputs(seed, sizes)
        with tracer.span("bench.pass"):
            outs = wl.run_pass(inp, tracer, [])
        with tracer.span("bench.check"):
            figures[wname] = wl.check(inp, outs, tracer, checks)
    wall = {w: tracer.durations("bench.pass", workload=w)[0] for w in WORKLOAD_NAMES}

    metrics = workloads.layer_metrics(tracer, figures, sizes)
    metrics["fock.states_s"] = (tracer.durations("fock.states", workload=name)[0], "s")
    self_s = tracer.self_times()
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = (self_s.get(layer, 0.0), "s")
    metrics["trace.overhead_s"] = (wall[name] - untraced["metrics"]["wall_s"]["value"], "s")

    trace_path = TRACE_DIR / f"trace-{name}-seed{seed}.jsonl"
    tracer.write_jsonl(trace_path, {"workload": name, "seed": seed, "machine": machine_info()})
    checks.attempted += untraced["attempted"]
    checks.failed += untraced["failed"]
    info = {
        "traced_sizes": sizes_name,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "traced_wall_s": wall,
        "untraced_wall_s": untraced["metrics"]["wall_s"]["value"],
        "fail_ratio": checks.failed / checks.attempted,
    }
    return checks, metrics, info


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--sizes", default="full", choices=("full", "probe", "tiny"),
                        help="problem sizes: probe is what traced runs use, tiny is "
                             "for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "moyalmetric" / "__init__.py").is_file():
        print(f"error: the library source {SRC / 'moyalmetric'} is missing", file=sys.stderr)
        return 2
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import moyalmetric

    if Path(moyalmetric.__file__).resolve().parent != SRC / "moyalmetric":
        print(f"error: imported moyalmetric from {moyalmetric.__file__}", file=sys.stderr)
        return 2

    machine = machine_info()
    if machine["blas_threads"] not in (None, BLAS_THREADS):
        print(f"error: BLAS runs {machine['blas_threads']} threads, not {BLAS_THREADS}",
              file=sys.stderr)
        return 1
    if args.trace:
        checks, metrics, info = traced_run(args.workload, args.seed, args.sizes)
    else:
        checks, metrics, info = untraced_run(args.workload, args.seed, args.seconds, args.sizes)
    for note in checks.notes:
        print(f"check failed: {note}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "sizes": args.sizes,
            "machine": machine, **info, "failures": checks.notes}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
