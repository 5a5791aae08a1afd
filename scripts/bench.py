#!/usr/bin/env python3
"""Time the solver and square-length layers and record them with the
machine in a JSON file.

Micro-timings at N=48, theta=1 of the layers that ``perfbench --trace 1``
does not report: one ``DiracCalculus._dz``; one splitting-loop iteration on
one sheet and on two (the sheet's projection, then the singular value
thresholding ``spectral._shrink``), and the two-sheet projection alone
(``doubling._doubled_project``); and, over the square-length grid (levels 0..6 displaced over a 5x5 lattice
of amplitude sqrt(2)), one ``d_L2`` and one ``modified_length`` call with
the state moments already cached, and the first touch of both moments
(``mean_energy``, ``mean_ladder``) of one displaced state.  The translation
layers: one ``fock._displacement_eigh`` (the eigenpairs of one amplitude),
one ``displace`` of a pure state and one ``spectral._translation_dual`` at
N=48, and one pure ``displace`` at N=128; each context's generator
eigendecomposition is built before the timing starts, as a run builds it
once.  BLAS is held at one thread.  Each figure is the median and quartiles
of ``ROUNDS`` timed rounds, per call.  ``generator_eighs`` counts the dense
``eigh`` calls made in ``fock`` while a fresh context proves
``TRANSLATION_PAIRS`` translation pairs with ``distance_solver`` at the
``suite --quick`` budget.

Runs of different source trees go into one file under their labels, so
a parent commit and a change can be recorded side by side:

    PYTHONPATH=<parent>/src python3 scripts/bench.py --label parent --out BENCH.json
    PYTHONPATH=src python3 scripts/bench.py --label change --out BENCH.json

Only the standard library, numpy and the library under test are used.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

N = 48
N_LARGE = 128
THETA = 1.0
ROUNDS = 30
TRANSLATION_PAIRS = 8
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


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
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
    }


def timed(fn, calls: int, per: int = 1, reset=None) -> dict:
    """Median and quartiles, in microseconds per call, of ``ROUNDS`` rounds
    of ``calls`` calls each, after one untimed warm-up call.  One ``fn()``
    makes ``per`` calls; ``reset``, if given, runs untimed before each."""
    if reset is not None:
        reset()
    fn()
    per_call = []
    for _ in range(ROUNDS):
        busy = 0.0
        for _ in range(calls):
            if reset is not None:
                reset()
            start = perf_counter()
            fn()
            busy += perf_counter() - start
        per_call.append(busy / (calls * per) * 1e6)
    q1, med, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
    return {"median_us": med, "q1_us": q1, "q3_us": q3, "rounds": ROUNDS,
            "calls": calls * per}


def generator_eighs() -> dict:
    """Dense eigh calls made in ``fock`` while a fresh context builds and
    proves ``TRANSLATION_PAIRS`` translation pairs."""
    import numpy as np

    from moyalmetric import displace, eigenstate, make_context
    from moyalmetric.spectral import DiracCalculus, SolverConfig, distance_solver

    calls = []
    real = np.linalg.eigh

    def counted(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "moyalmetric.fock":
            calls.append(1)
        return real(*args, **kwargs)

    ctx = make_context(N, THETA, tol=1.1e-10)  # a context no other layer has built
    calc = DiracCalculus(ctx)
    cfg = SolverConfig(iterations=300)
    np.linalg.eigh = counted
    try:
        for k in range(TRANSLATION_PAIRS):
            base = eigenstate(ctx, k % 3)
            kappa = (0.5 + 0.15 * k) * complex(math.cos(0.7 * k), math.sin(0.7 * k))
            distance_solver(calc, base, displace(base, kappa), cfg)
    finally:
        np.linalg.eigh = real
    return {"contexts": 1, "pairs": TRANSLATION_PAIRS, "calls": len(calls)}


def measure() -> dict:
    import numpy as np

    from moyalmetric import displace, eigenstate, make_context
    from moyalmetric.doubling import _doubled_project, _two_sheets, make_doubled, reference_lambda
    from moyalmetric.fock import _displacement_eigh
    from moyalmetric.lengthop import d_L2, modified_length
    from moyalmetric.spectral import DiracCalculus, _one_sheet, _shrink, _translation_dual

    ctx = make_context(N, THETA)
    calc = DiracCalculus(ctx)
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((2, N, N)) + 1j * rng.standard_normal((2, N, N))
    herm = 0.5 * (raw + raw.conj().swapaxes(-1, -2))
    dd = make_doubled(calc, reference_lambda(calc, 0))
    m = ctx.interior_dim
    duals = rng.standard_normal((2, 2 * m, 2 * m)) + 1j * rng.standard_normal((2, 2 * m, 2 * m))

    def loop_iteration(sheet):
        """One splitting-loop step from the dual pair (z, u)."""
        size = sheet.size
        z, u = duals[0, :size, :size], duals[1, :size, :size]
        return lambda: _shrink(sheet.project(z - u) + u, 0.5)

    shifts = np.linspace(-math.sqrt(2.0), math.sqrt(2.0), 5)
    grid = [displace(eigenstate(ctx, m), complex(x, y))
            for m in range(7) for x in shifts for y in shifts]
    pairs = len(grid) ** 2

    def sweep(length):
        return lambda: [length(s1, s2) for s1 in grid for s2 in grid]

    def touch_moments():
        for s in grid:
            s.mean_energy, s.mean_ladder

    def forget_moments():
        for s in grid:  # the moments are cached_property values
            s.__dict__.pop("mean_energy", None)
            s.__dict__.pop("mean_ladder", None)

    kappa = 0.9 + 0.6j
    level_one = eigenstate(ctx, 1)
    ctx_large = make_context(N_LARGE, THETA)
    level_one_large = eigenstate(ctx_large, 1)

    return {
        "displacement_eigh": timed(lambda: _displacement_eigh(ctx, kappa), 200),
        "displace_pure": timed(lambda: displace(level_one, kappa), 50),
        "translation_dual": timed(lambda: _translation_dual(calc, level_one.rho, kappa), 50),
        "displace_pure_N128": timed(lambda: displace(level_one_large, kappa), 10),
        "dz": timed(lambda: calc._dz(herm[0]), 200),
        "loop_iteration": timed(loop_iteration(_one_sheet(calc, herm[0])), 20),
        "doubled_loop_iteration": timed(loop_iteration(_two_sheets(dd, herm)), 5),
        "doubled_project": timed(lambda: _doubled_project(dd, herm, duals[0]), 20),
        "d_L2": timed(sweep(d_L2), 1, per=pairs),
        "modified_length": timed(sweep(modified_length), 1, per=pairs),
        "moments_first_touch": timed(touch_moments, 1, per=len(grid), reset=forget_moments),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this run in the file")
    ap.add_argument("--out", required=True, type=Path,
                    help="JSON file; runs under other labels are kept")
    args = ap.parse_args()

    # Before numpy loads BLAS.
    for var in BLAS_ENV:
        os.environ[var] = "1"
    record = {"machine": machine_info(), "N": N, "theta": THETA,
              "generator_eighs": generator_eighs(), "timings": measure()}

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("runs", {})[args.label] = record
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    for name, t in record["timings"].items():
        print(f"{name:32s} {t['median_us']:12.2f} us  (q1 {t['q1_us']:.2f}, q3 {t['q3_us']:.2f})")
    print(f"generator_eighs                  {record['generator_eighs']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
