"""Official verification gate.

Runs every criterion of the battery at full settings (truncation 64, solver
computations at truncation 48, theta = 1) and reports one line per
criterion.  A criterion failing here means a certified quantity of the
library is off at its stated tolerance; the ratio printed is worst observed
residual over tolerance, so anything above 1 is a real miss, not noise.

The battery takes about 50 s on two shared cores (the whole Tier-1 suite
about 75 s), dominated by the 200 random bracket checks of criterion 5,
whose doubled splitting loops bracket every pair that no explicit dual
proves.
Criterion 2 is no longer a long pole: an explicit dual proves the
translation element optimal on all nine of its pairs, the ninth, whose path
states leak past the seminorm's corner, through its exact projection, so
no pair runs the splitting loop.
"""

from __future__ import annotations

import pytest

from moyalmetric.acceptance import CRITERIA, run_one

pytestmark = pytest.mark.acceptance


@pytest.mark.parametrize(
    "index", range(1, len(CRITERIA) + 1), ids=[name for name, _ in CRITERIA]
)
def test_criterion(index):
    res = run_one(index)
    mark = "pass" if res.passed else "FAIL"
    line = (
        f"criterion {res.index:2d} {mark}  {res.name}  "
        f"worst ratio {res.worst:.3g}  ({res.seconds:.1f} s)"
    )
    print(line)
    assert res.passed, f"{line}\n  {res.detail}"
