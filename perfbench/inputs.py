"""Seeded input generator for the benchmark workloads.

Everything random in a run comes from here, from one
``numpy.random.Generator`` per workload seeded with ``[seed, workload id]``,
so one seed gives the same states on every machine.  The library only
receives the generated states.  A draw whose state would leak past the
guarded edge of the truncation is redrawn from the same stream, which keeps
generation deterministic.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from moyalmetric import (
    FockContext,
    LeakageError,
    QState,
    coherent_state,
    displace,
    eigenstate,
    mixed_state,
    superposition_state,
)

_MAX_DRAWS = 200


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _complex(rng: np.random.Generator, scale: float) -> complex:
    return complex(*(scale * rng.standard_normal(2)))


def _redraw(draw):
    for _ in range(_MAX_DRAWS):
        try:
            return draw()
        except LeakageError:
            continue
    raise RuntimeError(f"no draw fitted the truncation in {_MAX_DRAWS} attempts")


@dataclass(frozen=True)
class Pair:
    """Two states plus what the benchmark knows about them in closed form."""

    group: str
    s1: QState
    s2: QState
    kappa: complex | None = None  # translation amplitude s1 -> s2, when known


def translation_pair(ctx: FockContext, rng: np.random.Generator) -> Pair:
    """A base state and its translate; the distance is |kappa| exactly."""

    def draw() -> Pair:
        if rng.random() < 0.5:
            base = eigenstate(ctx, int(rng.integers(0, 3)))
        else:
            base = coherent_state(ctx, _complex(rng, 0.4))
        kappa = rng.uniform(0.5, 2.0) * complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))
        return Pair("translation", base, displace(base, kappa), kappa)

    return _redraw(draw)


def _number_mixture(ctx: FockContext, rng: np.random.Generator) -> QState:
    k = int(rng.integers(2, 4))
    levels = rng.choice(7, size=k, replace=False)
    weights = rng.dirichlet(np.ones(k))
    return mixed_state([eigenstate(ctx, int(m)) for m in levels], weights.tolist())


def diagonal_pair(ctx: FockContext, rng: np.random.Generator, i: int) -> Pair:
    """Number states (even i) or number-state mixtures (odd i): the LP is exact."""
    if i % 2 == 0:
        m, n = rng.choice(7, size=2, replace=False)
        return Pair("diagonal", eigenstate(ctx, int(m)), eigenstate(ctx, int(n)))
    return Pair("diagonal", _number_mixture(ctx, rng), _number_mixture(ctx, rng))


def _superposition(ctx: FockContext, rng: np.random.Generator) -> QState:
    idx = sorted(rng.choice(7, size=2, replace=False).tolist())
    coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return superposition_state(ctx, idx, coeffs.tolist())


def general_pair(ctx: FockContext, rng: np.random.Generator, i: int) -> Pair:
    """Superpositions (even i), or a coherent state against a displaced
    number state (odd i): no closed form and no LP applies."""

    def draw() -> Pair:
        if i % 2 == 0:
            return Pair("general", _superposition(ctx, rng), _superposition(ctx, rng))
        s1 = coherent_state(ctx, _complex(rng, 0.6))
        s2 = displace(eigenstate(ctx, int(rng.integers(1, 3))), _complex(rng, 0.7))
        return Pair("general", s1, s2)

    return _redraw(draw)


def random_state(ctx: FockContext, rng: np.random.Generator) -> QState:
    """One of four state kinds in equal shares, as in the two-sheet gate."""

    def draw() -> QState:
        kind = int(rng.integers(0, 4))
        if kind == 0:
            return eigenstate(ctx, int(rng.integers(0, 6)))
        if kind == 1:
            return displace(eigenstate(ctx, int(rng.integers(0, 3))), _complex(rng, 0.7))
        if kind == 2:
            return coherent_state(ctx, _complex(rng, 0.6))
        return _superposition(ctx, rng)

    return _redraw(draw)


def family_pair(ctx: FockContext, rng: np.random.Generator, m: int) -> Pair:
    """Two translates of number state m; kappa is their relative shift."""

    def draw() -> Pair:
        ka, kb = _complex(rng, 0.6), _complex(rng, 0.6)
        base = eigenstate(ctx, m)
        return Pair("family", displace(base, ka), displace(base, kb), kb - ka)

    return _redraw(draw)


def displaced_grid(ctx: FockContext) -> list[tuple[int, complex, QState]]:
    """The square-length gate's grid: levels 0..6 shifted over a 5x5 lattice
    of amplitude sqrt(2).  Below N=32 that grid leaks, so levels 0..2 over
    amplitude 0.7 stand in."""
    levels, amp = (7, math.sqrt(2.0)) if ctx.trunc_dim >= 32 else (3, 0.7)
    vals = np.linspace(-amp, amp, 5)
    points = [complex(x, y) for x in vals for y in vals]
    return [(m, p, displace(eigenstate(ctx, m), p)) for m in range(levels) for p in points]
