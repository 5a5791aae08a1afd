#!/usr/bin/env python3
"""Reproduce every table and figure from one deterministic run.

Drives the batch CLI in-process so the whole pipeline shares one operator
cache, then finishes with the verification battery.  Full settings take
about 45 s on two cores, nearly all of it the battery's doubled splitting
loops on the pairs no explicit dual covers; --quick drops truncations and
solver budgets for a pass of a few seconds over the same commands.

    python3 scripts/reproduce_all.py
    python3 scripts/reproduce_all.py --quick --output-dir out-quick
"""

from __future__ import annotations

import argparse
import sys
import time

from moyalmetric import cli


def build_plan(quick: bool) -> list[list[str]]:
    scale = (
        ["--trunc-dim", "32", "--solver-iterations", "300"]
        if quick
        else []
    )
    plan = [
        ["distance", "eigen:0", "eigen:1", "--method", "all", "--with-certificate"],
        ["distance", "eigen:0", "translated:eigen:0:2+0i", "--method", "closed"],
        ["distance", "eigen:0", "coherent:1+0i", "--method", "solver"],
        ["qlength", "eigen:1", "translated:eigen:2:2+0i"],
        ["qlength", "eigen:1", "eigen:2"],
        ["spectrum", "--count", "8", "--plot"],
        ["pythagoras", "--family", "0", "--kappa", "0,1"],
        ["asymptotics", "--family", "0", "--kappa", "0..10", "--plot"],
        ["counterexample", "--indices", "0,2,4,6"],
        ["riemann", "--family", "0", "--plot"],
        ["oracle"],
        ["optimal-element", "--xi", "0.0", "--upto", "6"],
        ["suite", "--quick"] if quick else ["suite"],
    ]
    return [argv + scale for argv in plan]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="reduced truncation and solver budgets")
    ap.add_argument("--output-dir", default="out",
                    help="directory for all generated files (default: out)")
    args = ap.parse_args()

    results: list[tuple[str, int, float]] = []
    for argv in build_plan(args.quick):
        label = " ".join(argv)
        print(f"\n=== moyalmetric {label}")
        start = time.perf_counter()
        rc = cli.main(argv + ["--output-dir", args.output_dir])
        results.append((label, rc, time.perf_counter() - start))

    print("\n=== summary")
    for label, rc, seconds in results:
        mark = "ok" if rc == 0 else f"exit {rc}"
        print(f"{mark:>7}  {seconds:7.1f} s  {label}")
    worst = max(rc for _, rc, _ in results)
    total = sum(seconds for _, _, seconds in results)
    print(f"total {total:.1f} s, worst exit code {worst}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
