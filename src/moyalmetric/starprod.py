"""Star product of the quantum plane, with quadrature oracles.

The production route is the matrix one: multiplication of coefficient
matrices in the number basis. The other routes exist to validate it and
each other on Schwartz-class symbols sampled over a finite grid:

* ``star_integral_report``: the double-integral kernel form, with phase
  exp(2i (u1 v2 - u2 v1) / theta), and a certified error bound.  The
  orientation is pinned by two facts checked in the test suite: the
  ground Gaussian 2 exp(-|x|^2/theta) is idempotent, and the holomorphic
  coordinate (x1 + i x2)/sqrt(2) multiplies it to zero from the left,
  matching the annihilator acting on the ground projector.
* ``star_fourier``: transform both factors, twisted-convolve, transform
  back; the overall normalization is (2 pi)^-4 with unnormalized forward
  transforms.

Quadratures are tensor-product trapezoid sums over [-R, R]^2; validity is
certified by the boundary decay of both symbols (every boundary sample
below 1e-8), and reported error bounds combine a two-grid difference with
the certified boundary terms.
All four-variable kernels factor over the grid axes, so every route costs
a handful of dense matrix products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fock import Operator, _require_same_ctx

__all__ = [
    "SampledSymbol",
    "star_fourier",
    "star_integral_report",
    "star_matrix",
    "vacuum_symbol",
]

_MAX_POINTS = 1025
_DECAY = 1e-8


def _grid_size(r: float, h: float) -> int:
    """Samples per axis over [-r, r] at step h; r and h must be finite and
    positive with r/h integral, and the grid within the desk-scale cap."""
    if not (math.isfinite(r) and r > 0 and math.isfinite(h) and h > 0):
        raise ValueError(
            f"box half-width and grid step must be finite and positive, got r={r}, h={h}"
        )
    steps = r / h
    if not 2 * steps + 1 <= _MAX_POINTS + 1e-6:
        raise ValueError(
            f"grid of {2 * steps + 1:g} points exceeds the desk-scale cap {_MAX_POINTS}"
        )
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"r/h must be an integer, got {steps}")
    return 2 * int(round(steps)) + 1


@dataclass(frozen=True)
class SampledSymbol:
    """Complex samples of a rapidly decaying function on [-r, r]^2.

    ``values[i, j]`` is f(axis[i], axis[j]) on a grid of step h, so r and h
    are finite and positive, r/h is an integer and ``values`` is square
    with 2 r/h + 1 rows; ``decay_cert`` is the largest magnitude on the
    boundary ring and certifies that the grid captures the symbol's mass.
    """

    r: float
    h: float
    values: np.ndarray
    decay_cert: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        n = _grid_size(self.r, self.h)
        if vals.shape != (n, n):
            raise ValueError(
                f"grid mismatch: r={self.r}, h={self.h} need {n}x{n} values, "
                f"got shape {vals.shape}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def axis(self) -> np.ndarray:
        n = self.values.shape[0]
        return np.linspace(-self.r, self.r, n)

    @classmethod
    def from_function(cls, fn: Callable, r: float, h: float) -> "SampledSymbol":
        axis = np.linspace(-r, r, _grid_size(r, h))
        x1, x2 = np.meshgrid(axis, axis, indexing="ij")
        vals = np.asarray(fn(x1, x2), dtype=complex)
        ring = max(
            float(np.abs(vals[0, :]).max()),
            float(np.abs(vals[-1, :]).max()),
            float(np.abs(vals[:, 0]).max()),
            float(np.abs(vals[:, -1]).max()),
        )
        return cls(r=float(r), h=float(h), values=vals, decay_cert=ring)


def vacuum_symbol(theta: float, r: float, h: float) -> SampledSymbol:
    """Ground-state Gaussian 2 exp(-|x|^2/theta), the idempotent symbol."""
    if not theta > 0:
        raise ValueError("theta must be positive")
    return SampledSymbol.from_function(
        lambda x1, x2: 2.0 * np.exp(-(x1**2 + x2**2) / theta), r, h
    )


def _require_same_grid(f: SampledSymbol, g: SampledSymbol) -> None:
    if f.r != g.r or f.h != g.h or f.values.shape != g.values.shape:
        raise ValueError(
            f"symbol grids differ: ({f.r}, {f.h}, {f.values.shape}) vs "
            f"({g.r}, {g.h}, {g.values.shape})"
        )


def _require_decay(sym: SampledSymbol) -> None:
    if not sym.decay_cert < _DECAY:
        raise ValueError(
            f"decay certification failed: boundary magnitude {sym.decay_cert:.3e} "
            f"is not below {_DECAY:.3e}"
        )


def _grid_index(sym: SampledSymbol, x) -> tuple[int, int]:
    x1, x2 = float(x[0]), float(x[1])
    if max(abs(x1), abs(x2)) > sym.r / 2 + 1e-9:
        raise ValueError(
            f"evaluation point {x} outside the grid interior |x_i| <= {sym.r / 2}"
        )
    out = []
    for xi in (x1, x2):
        steps = xi / sym.h
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"evaluation point {x} does not lie on the sampling grid")
        out.append(int(round(steps)))
    return out[0], out[1]


def _shifted(values: np.ndarray, i1: int, i2: int) -> np.ndarray:
    """out[i, j] = values[i + i1, j + i2], zero outside the array."""
    n = values.shape[0]
    out = np.zeros_like(values)
    r0, r1 = max(0, -i1), min(n, n - i1)
    c0, c1 = max(0, -i2), min(n, n - i2)
    if r0 < r1 and c0 < c1:
        out[r0:r1, c0:c1] = values[r0 + i1 : r1 + i1, c0 + i2 : c1 + i2]
    return out


def _weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


# ---------------------------------------------------------------------------
# routes


def star_matrix(f: Operator, g: Operator) -> Operator:
    """Product in the matrix basis; the star transported through the
    coefficient isomorphism, associative for free."""
    _require_same_ctx(f.ctx, g.ctx)
    return Operator(f.ctx, f.mat @ g.mat)


def _kernel_quadrature(
    fx: np.ndarray, gx: np.ndarray, axis: np.ndarray, h: float, theta: float
) -> complex:
    # Four-variable kernel exp(2i (u1 v2 - u2 v1)/theta) factors per axis,
    # so the v-integral is two matrix products and the u-sum one contraction.
    w = _weights(len(axis))
    w2 = np.outer(w, w)
    fw = fx * w2
    gw = gx * w2
    freq = 2.0 * axis / theta
    a = np.exp(-1j * np.outer(freq, axis))  # [u2, v1]
    c = np.exp(1j * np.outer(axis, freq))  # [v2, u1]
    m = a @ gw @ c
    total = np.einsum("ij,ji->", fw, m)
    return complex(total) * h**4 / (math.pi * theta) ** 2


def star_integral_report(
    f: SampledSymbol,
    g: SampledSymbol,
    x,
    theta: float = 1.0,
) -> tuple[complex, float]:
    """Kernel quadrature of (f*g)(x) plus a certified error bound.

    The bound adds the halved-grid difference, the boundary-decay terms
    (certified magnitudes times one extra domain's worth of mass), and a
    rounding floor.  Points must lie on the grid, inside |x_i| <= r/2.
    """
    _require_same_grid(f, g)
    _require_decay(f)
    _require_decay(g)
    if not theta > 0:
        raise ValueError("theta must be positive for the kernel quadrature")
    i1, i2 = _grid_index(f, x)
    fx = _shifted(f.values, i1, i2)
    gx = _shifted(g.values, i1, i2)
    axis = f.axis
    val = _kernel_quadrature(fx, gx, axis, f.h, theta)
    coarse = _kernel_quadrature(fx[::2, ::2], gx[::2, ::2], axis[::2], 2 * f.h, theta)
    cell = f.h**2
    l1f = cell * float(np.abs(f.values).sum())
    l1g = cell * float(np.abs(g.values).sum())
    area = (2.0 * f.r) ** 2
    decay = (
        f.decay_cert * area * l1g
        + g.decay_cert * area * l1f
        + f.decay_cert * g.decay_cert * area**2
    ) / (math.pi * theta) ** 2
    bound = abs(val - coarse) + decay + 1e-12 * (1.0 + abs(val))
    return val, float(bound)


def star_fourier(
    f: SampledSymbol,
    g: SampledSymbol,
    x,
    theta: float = 1.0,
) -> complex:
    """Transform, twisted-convolve, transform back.

    (f*g)(x) = (2 pi)^-4 iint Ff(k') Fg(q) exp(-i theta (k'_1 q_2 -
    k'_2 q_1)/2) exp(i (k'+q).x) dk' dq.  The q-sum is a plain transform
    of Fg at points shifted linearly in k', so the whole evaluation is
    four dense matrix products on the dual grid.  The phase stays slow as
    theta shrinks, which makes this the route of choice for commutative-
    limit sweeps.  x need not be a grid point.  The dual grid has step
    pi / r and reaches |k| <= min(14 / sqrt(min(theta, 1)), 0.95 pi / h).
    """
    _require_same_grid(f, g)
    _require_decay(f)
    _require_decay(g)
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    x1, x2 = float(x[0]), float(x[1])
    if max(abs(x1), abs(x2)) > f.r / 2 + 1e-9:
        raise ValueError(f"evaluation point {x} outside the grid interior")
    axis = f.axis
    h = f.h
    scale = math.sqrt(min(theta, 1.0)) if theta > 0 else 1.0
    k_cut = min(14.0 / scale, 0.95 * math.pi / h)
    hk = math.pi / f.r
    nk = int(math.ceil(k_cut / hk))
    k_axis = hk * np.arange(-nk, nk + 1)
    wx = _weights(len(axis))
    wk = _weights(len(k_axis))

    fwd = np.exp(-1j * np.outer(k_axis, axis)) * wx[None, :]
    big_f = h * h * (fwd @ f.values @ fwd.T)  # [k1, k2]
    big_g = h * h * (fwd @ g.values @ fwd.T)

    y1 = x1 + 0.5 * theta * k_axis  # indexed by k'_2
    y2 = x2 - 0.5 * theta * k_axis  # indexed by k'_1
    p = np.exp(1j * np.outer(y1, k_axis)) * wk[None, :]  # [k'_2, q1]
    q = np.exp(1j * np.outer(k_axis, y2)) * wk[:, None]  # [q2, k'_1]
    gm = hk * hk * (p @ big_g @ q)  # [k'_2, k'_1]

    ph1 = np.exp(1j * k_axis * x1) * wk
    ph2 = np.exp(1j * k_axis * x2) * wk
    total = hk * hk * np.einsum("i,j,ij,ji->", ph1, ph2, big_f, gm)
    return complex(total) / (2.0 * math.pi) ** 4
