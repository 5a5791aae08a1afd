"""Smoke test of the benchmark itself, at tiny sizes (N=16, a few ops).

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--sizes", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _expected(trace: int) -> dict[str, str]:
    """Metric names and units the run must print; at tiny sizes every
    per-size layer metric is reported for N=16 only."""
    rows = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {re.sub(r"\.N\d+$", ".N16", m["name"]): m["unit"] for m in rows}


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("seed,trace", [(0, 0), (1, 0), (0, 1)])
def test_result_schema_and_clean_run(workload, seed, trace):
    result = _bench(workload, seed, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _expected(trace)
    for value in metrics.values():
        assert set(value) == {"value", "unit"}
        assert isinstance(value["value"], float)


def _perturb_single(monkeypatch):
    real = workloads.seeded_candidates
    monkeypatch.setattr(workloads, "seeded_candidates",
                        lambda *a: {k: v + 0.5 for k, v in real(*a).items()})


def _perturb_two(monkeypatch):
    real = workloads.single_route
    monkeypatch.setattr(workloads, "single_route", lambda *a: real(*a) + 0.1)


def _perturb_exact(monkeypatch):
    monkeypatch.setattr(workloads, "OBSTRUCTION_RESIDUAL", workloads.OBSTRUCTION_RESIDUAL + 0.01)


@pytest.mark.parametrize("workload,perturb", [
    ("single-sheet", _perturb_single),
    ("two-sheet", _perturb_two),
    ("exact-routes", _perturb_exact),
])
def test_perturbed_reference_fails_a_check(monkeypatch, workload, perturb):
    checks, metrics, info = run.untraced_run(workload, 0, 0.0, "tiny")
    assert checks.failed == 0
    perturb(monkeypatch)
    checks, metrics, info = run.untraced_run(workload, 0, 0.0, "tiny")
    assert info["fail_ratio"] > 0
    assert metrics["pass_ratio"][0] < 1.0
