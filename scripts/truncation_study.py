#!/usr/bin/env python3
"""Truncation study: how fast the certified quantities settle in N.

Uses the library directly rather than the CLI, which is the intended way to
script experiments.  For each truncation the study records the vacuum
square length, the modified length of a shifted pair, the relative
identification gap at (0,1), the bottom of Sp(L^2), which the sector
decomposition of the length operator makes cheap at every truncation, and
``corner_s_min``, the smallest nonzero singular value of the derivative map
on the seminorm's corner: the explicit-dual bounds charge their residual at
sqrt(m) / s_min, so its decay in N predicts how that charge grows.

    python3 scripts/truncation_study.py
    python3 scripts/truncation_study.py --dims 16,32,64,128
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from moyalmetric import (
    DiracCalculus,
    build_length,
    d_L2,
    displace,
    eigenstate,
    length_vs_optimal_discrepancy,
    make_context,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", default="16,24,32,48,64",
                    help="comma-separated truncations (default 16,24,32,48,64)")
    ap.add_argument("--theta", type=float, default=1.0)
    ap.add_argument("--out", default="out/truncation_study.csv")
    args = ap.parse_args()

    dims = [int(d) for d in args.dims.split(",")]
    rows = []
    for dim in dims:
        ctx = make_context(dim, args.theta)
        calc = DiracCalculus(ctx)
        vacuum_sq = d_L2(eigenstate(ctx, 0), eigenstate(ctx, 0))
        pair_sq = d_L2(
            displace(eigenstate(ctx, 0), 0.5), displace(eigenstate(ctx, 1), -0.5j)
        )
        gap01 = length_vs_optimal_discrepancy(calc, 0, 1).rel_gap
        floor = float(build_length(ctx).spectrum[0])
        s_min = calc.corner_s_min
        rows.append((dim, vacuum_sq, pair_sq, gap01, floor, s_min))
        print(
            f"N={dim:3d}  vacuum d_L2 = {vacuum_sq:.12g}  shifted-pair d_L2 = "
            f"{pair_sq:.12g}  rel gap(0,1) = {gap01:.12g}  min Sp(L2) = {floor:.12g}  "
            f"corner s_min = {s_min:.12g}"
        )

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trunc_dim", "vacuum_d_L2", "shifted_pair_d_L2",
                         "rel_gap_01", "min_spec_L2", "corner_s_min"])
        writer.writerows(rows)
    print(f"wrote {args.out}")

    # The moment-route quantities are exact once the state support fits
    # under the guarded edge, so any drift between rows is a real signal.
    first, last = rows[0], rows[-1]
    drift = abs(first[1] - last[1]) + abs(first[2] - last[2])
    if drift > 1e-9:
        print(f"warning: moment-route drift {drift:.3e} across truncations",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
