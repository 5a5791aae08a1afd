"""Two-sheet extension of the spectral metric.

The doubled geometry carries one copy of the quantum plane on each sheet
and a constant internal entry ``Lambda`` coupling the sheets.  States live
on a definite sheet; the distance between opposite sheets mixes the
single-sheet transverse distance with the internal rung 1/|Lambda| in
quadrature.  The interest of the construction is calibration: fixing
|Lambda|^-2 to the self square length of a reference family makes the
squared doubled distance reproduce the square length on that family.

The doubled commutator has one interior block row and column per (sheet,
component): an anti-diagonal derivative pair for each sheet, and
sheet-coupling blocks proportional to the element difference twisted by
the grading.  Because the grading anticommutes with the derivative
blocks, mixing a unit element with sheet-dependent constants leaves the
doubled seminorm at one, which is what produces exact hypotenuse
certificates.

The grading also means the commutator only joins the odd blocks to the
even ones, so its chiral block K (``_chiral_block``, 2m x 2m) carries all
of its singular values; the tests keep the 4m x 4m commutator as the
oracle for K.  The pair solver is the prove-or-search core of ``spectral``
on stacked element pairs, with one seed, the hypotenuse lift of the
single-sheet certificate, and this module's operations for the splitting
loop (``_two_sheets``): the projection onto the dual constraint and the
least-squares element, both through the normal operator K* K, which splits
into a sheet-sum and a sheet-difference half, each block diagonal by
offset (``_normal_solve``); a Gram eigendecomposition of K for the search
seminorm; and the dual bound ``_doubled_upper``.  A full SVD of K
(``_doubled_seminorm``) is the independent feasibility check.  On one
sheet ||K(x, x)|| = p(x) and ||K(x1, x2)|| >= max(p(x1), p(x2)), so
same-sheet pairs take the single-sheet route and no pair solve.

On opposite sheets every fact about a pair is decided once, in
``_opposite_sheets``, and ``doubled_distance`` and ``pythagoras_check``
only format that record.  Equal states and translates by kappa sit at
hypot(|kappa|, 1/|Lambda|) by translation covariance, and an explicit dual
of K (``_doubled_dual``: the single-sheet path mean split along the path,
with the rung spread evenly over it) usually proves the seed optimal, so
no search runs; elsewhere the splitting loop brackets the pair.

Single-sheet work (the closed form, LP or solver route) comes from
``spectral``; this module only adds what the second sheet brings: the
rung, the hypotenuse mix and the pair solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple, Sequence

import numpy as np

from .fock import (
    LeakageError,
    QState,
    _require_same_ctx,
    displace,
    eigenstate,
)
from .lengthop import _family_square_length, d_L2, modified_length
from .spectral import (
    _TINY,
    DiracCalculus,
    DistanceReport,
    SolverConfig,
    _bound_note,
    _corner_split,
    _eigen_sum,
    _first_kernel,
    _hermitize,
    _mean_kernel,
    _objective,
    _path_moments,
    _prove_or_search,
    _Sheet,
    _single_route,
    _top_singular_value,
    _translation_amplitude,
)

__all__ = [
    "DoubledDirac",
    "PythagorasResult",
    "SheetState",
    "SweepRow",
    "doubled_distance",
    "identification_sweep",
    "make_doubled",
    "pythagoras_check",
    "reference_lambda",
]

@dataclass(frozen=True)
class SheetState:
    """A surface state pinned to sheet 1 or sheet 2."""

    state: QState
    sheet: int

    def __post_init__(self) -> None:
        if self.sheet not in (1, 2):
            raise ValueError(f"sheet must be 1 or 2, got {self.sheet!r}")


@dataclass(frozen=True)
class DoubledDirac:
    """Doubled derivative calculus with internal entry Lambda."""

    calc: DiracCalculus
    Lambda: complex

    def __post_init__(self) -> None:
        if not abs(self.Lambda) >= _TINY:
            raise ValueError(f"the internal entry Lambda must be nonzero, got {self.Lambda!r}")

    @property
    def ctx(self):
        return self.calc.ctx

    @property
    def internal_distance(self) -> float:
        """Distance between the two copies of one state: 1/|Lambda|."""
        return 1.0 / abs(self.Lambda)

    @cached_property
    def _transverse_inverse(self) -> np.ndarray:
        """The sheet-difference half of N = K* K, inverted offset by offset.

        With s = (x1 + x2)/sqrt(2) and t = (x2 - x1)/sqrt(2), ||K x||_F^2 =
        ||A s||^2 + ||A t||^2 + 4 |Lambda|^2 ||crop t||^2 for A = sqrt(2) crop
        dz, so N is A* A on s and A* A + 4 |Lambda|^2 P on t, P the crop to
        levels 0..m-1.  On the entries t_d of offset d its form is t_d^T M_d
        t_d, M_d = 2 B_d^T B_d + 4 |Lambda|^2 c_d P_d, with B_d the offset
        block (``DiracCalculus._offset_blocks``), c_d = 2 for d >= 1 and 1
        on the diagonal, and P_d dropping the entry at level m.  The stack
        holds each M_d^-1, off its kernel E = |m><m| at d = 0, laid out as
        ``DiracCalculus._offset_pinv``: 0.33 MB at N=48, per Lambda.
        """
        m = self.ctx.interior_dim
        weight = 4.0 * abs(self.Lambda) ** 2
        stack = np.zeros(((m + 1) // 2 + 1, m + 1, m + 1))
        for d, (block, _, _) in enumerate(self.calc._offset_blocks()):
            t = min(d, m + 1 - d)
            r0, n = (0 if d == t else d), m + 1 - d
            normal = 2.0 * block.T @ block
            normal[np.arange(n - 1), np.arange(n - 1)] += weight * (1.0 if d == 0 else 2.0)
            keep = n - 1 if d == 0 else n
            stack[t, r0 : r0 + keep, r0 : r0 + keep] = np.linalg.inv(normal[:keep, :keep])
        return stack


def make_doubled(calc: DiracCalculus, Lambda: complex) -> DoubledDirac:
    """Couple two copies of the plane through a constant internal entry."""
    return DoubledDirac(calc=calc, Lambda=complex(Lambda))


def reference_lambda(calc: DiracCalculus, m: int) -> float:
    """Internal entry calibrated on the level-m family.

    |Lambda|^-2 equals the self square length of the level-m state, which
    is four times its mean energy; with this choice the squared doubled
    distance between opposite-sheet members of the family reproduces
    their square length.
    """
    ctx = calc.ctx
    if int(m) != m or not 0 <= m < ctx.interior_dim:
        raise ValueError(f"reference level must satisfy 0 <= m < {ctx.interior_dim}")
    return 1.0 / math.sqrt(4.0 * ctx.theta * (m + 0.5))


# ---------------------------------------------------------------------------
# chiral block of the doubled commutator, its adjoint, and the pair solver


def _chiral_block(dd: DoubledDirac, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Chiral block K = C[(s1c1, s2c0), (s1c0, s2c1)] of the doubled commutator.

    C is the interior block matrix over the (sheet, component) blocks
    (s1c0, s1c1, s2c0, s2c1), each of interior size, with nonzero blocks
    at (row, column)

        (s c0, s c1): -i sqrt(2) crop(dzbar a_s)    (s1c0, s2c0):  conj(Lambda) delta
        (s c1, s c0): -i sqrt(2) crop(dz a_s)       (s1c1, s2c1): -conj(Lambda) delta
                                                    (s2c0, s1c0): -Lambda delta
                                                    (s2c1, s1c1):  Lambda delta

    for s in {1, 2} and delta = crop(a2 - a1); its operator norm is the
    doubled seminorm.  The grading diag(1, -1, -1, 1) over the blocks
    anticommutes with every block of C, so C only joins the even blocks
    (s1c0, s2c1) to the odd ones (s1c1, s2c0): its odd-row, even-column
    part is K and its even-row, odd-column part is -K* for Hermitian
    elements, where C is anti-Hermitian.  Hence sigma_max(C) = sigma_max(K),
    with K of size 2m x 2m.

    Both K and its adjoint read the corner directly, so that a projection
    of the doubled splitting loop stays a small part of its iteration: for
    Hermitian elements crop(dzbar a2) = crop(dz a2)*, and crop(dz a)[i, j] =
    (a[i, j+1] l_{j+1} - l_i a[i-1, j]) / theta with l_0 = 0.
    """
    mc = dd.ctx.interior_dim
    ell = dd.calc._ladder[:mc]
    x = np.stack([a1, a2])
    d = x[:, :mc, 1 : mc + 1] * ell
    d[:, 1:] -= ell[:-1, None] * x[:, : mc - 1, :mc]
    d = d * (_ROOT / dd.ctx.theta)
    delta = x[1, :mc, :mc] - x[0, :mc, :mc]
    out = np.empty((2 * mc, 2 * mc), dtype=complex)
    out[:mc, :mc] = d[0]
    out[:mc, mc:] = -np.conj(dd.Lambda) * delta
    out[mc:, :mc] = -dd.Lambda * delta
    out[mc:, mc:] = -d[1].T.conj()
    return out


_ROOT = -1j * math.sqrt(2.0)  # the factor of both derivative blocks of K
_TWIST = np.array([_ROOT, np.conj(_ROOT)])[:, None, None]


def _chiral_adjoint(dd: DoubledDirac, w: np.ndarray) -> np.ndarray:
    """Herm K* W: the stacked Hermitian pair g with <W, K x> = <g1, x1> +
    <g2, x2> for every Hermitian pair x.  The adjoint of dz is -dzbar, so
    sheet 1 reads -i sqrt(2) dzbar(pad W11) and, up to Herm, sheet 2 its
    conjugate times dzbar(pad W22*), where dzbar(pad Y)[i, j] = (l_{i+1}
    Y[i+1, j] - Y[i, j-1] l_j) / theta; the coupling blocks add the rest.
    """
    mc, n = dd.ctx.interior_dim, dd.ctx.trunc_dim
    ell = dd.calc._ladder[:mc]
    y = np.stack([w[:mc, :mc], w[mc:, mc:].T.conj()])
    g = np.zeros((2, n, n), dtype=complex)
    g[:, : mc - 1, :mc] = ell[:-1, None] * y[:, 1:]
    g[:, :mc, 1 : mc + 1] -= y * ell
    g *= _TWIST / dd.ctx.theta
    coupling = dd.Lambda * w[:mc, mc:] + np.conj(dd.Lambda) * w[mc:, :mc]
    g[0, :mc, :mc] += coupling
    g[1, :mc, :mc] -= coupling
    return _hermitize(g)


def _doubled_seminorm(dd: DoubledDirac, a1: np.ndarray, a2: np.ndarray) -> float:
    """Doubled seminorm by a full SVD of the chiral block, independent of
    the Gram eigendecomposition the search uses."""
    return float(np.linalg.svd(_chiral_block(dd, a1, a2), compute_uv=False)[0])


def _normal_solve(dd: DoubledDirac, r: np.ndarray) -> np.ndarray:
    """N^+ r for N = K* K and a stacked Hermitian pair r read on the corner:
    the corner pair x off the joint kernel of K with N x = r off it.  N is
    A* A on r_s = (r1 + r2)/sqrt(2), whose pseudo-inverse is P_d P_d^T for
    the stacked P_d of ``DiracCalculus._offset_pinv``, and the t-half
    ``DoubledDirac._transverse_inverse`` on r_t = (r2 - r1)/sqrt(2); then
    x = ((x_s - x_t), (x_s + x_t))/sqrt(2), all square roots folded into 1/2.
    """
    calc = dd.calc
    pinv = calc._offset_pinv[0]
    r1, r2 = calc._offset_gather(r[0]), calc._offset_gather(r[1])
    s, t = (c.view(float).reshape(*c.shape, 2) for c in (r1 + r2, r2 - r1))
    s = pinv @ (pinv.transpose(0, 2, 1) @ s)
    t = dd._transverse_inverse @ t
    return np.stack([calc._offset_scatter(0.5 * (s - t)), calc._offset_scatter(0.5 * (s + t))])


def _doubled_project(dd: DoubledDirac, g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pi(W) = W - K N^+ (Herm K* W - g): the nearest 2m x 2m W in Frobenius
    norm whose Herm K* W is the corner of the stacked pairing g minus its
    joint-kernel component, which N^+ drops (``_normal_solve``)."""
    x = _normal_solve(dd, _chiral_adjoint(dd, w) - g)
    return w - _chiral_block(dd, x[0], x[1])


def _two_sheets(dd: DoubledDirac, g: np.ndarray) -> _Sheet:
    """The splitting loop's operations on the doubled geometry, for the
    stacked pairing g: the least squares K^+ U = N^+ Herm K* U, and the
    search seminorm from one Gram eigendecomposition of K."""
    return _Sheet(g, 2 * dd.ctx.interior_dim, partial(_doubled_project, dd, g),
                  lambda u: _normal_solve(dd, _chiral_adjoint(dd, u)),
                  lambda x: _top_singular_value(_chiral_block(dd, *x)),
                  partial(_doubled_upper, dd, g))


def _hypotenuse_pair(
    dd: DoubledDirac, unit_mat: np.ndarray, gap: float
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal mix of a unit element with sheet constants.

    For a base element of seminorm one whose single-sheet evaluation gap
    is ``gap``, the returned pair has doubled seminorm exactly one and
    opposite-sheet evaluation gap hypot(gap, 1/|Lambda|).
    """
    if gap < 0:
        unit_mat, gap = -unit_mat, -gap
    d_i = dd.internal_distance
    h = math.hypot(gap, d_i)
    cfac = gap / h
    shift = -(d_i**2) / h
    eye = np.eye(dd.ctx.trunc_dim)
    return cfac * unit_mat, cfac * unit_mat + shift * eye


def _doubled_dual(dd: DoubledDirac, rho1: np.ndarray, kappa: complex) -> np.ndarray:
    """The doubled path-mean dual of rho1 on sheet 1 against its translate by
    kappa on sheet 2, in the 2m x 2m block layout of the chiral block.

    With rho_t = U(t kappa) rho1 U(t kappa)*, d = 1/|Lambda| and M_w =
    crop(int_0^1 w(t) rho_t dt),

        W = [[ i conj(kappa) M_(1-t),     conj(Lambda) d^2/2 M_1 ],
             [ Lambda d^2/2 M_1,          i kappa M_t            ]].

    The coupling blocks pass -M_1 to sheet 1 and +M_1 to sheet 2, and the
    diagonal blocks integrate the path by parts, so Herm K*(W) = (rho1,
    -rho2) up to the weight of the path states outside the crop.  W is the
    path integral of C(t) (x) crop(rho_t) with C(t) = [[i conj(kappa)
    (1 - t), conj(Lambda) d^2/2], [Lambda d^2/2, i kappa t]], whose nuclear
    norm squared ||C||_F^2 + 2 |det C| is |kappa|^2 + d^2 at every t, so
    ||W||_* <= hypot(|kappa|, d): the coupling is spread evenly along the
    path, the only tight choice.  At kappa = 0 it is the equal-state dual
    [[0, rho1/(2 Lambda)], [rho1/(2 conj(Lambda)), 0]], cropped.
    """
    calc = dd.calc
    mc = dd.ctx.interior_dim
    lam = dd.Lambda
    mean, first = (calc._crop(x) for x in _path_moments(
        dd.ctx, rho1, kappa, (_mean_kernel, _first_kernel)))
    coupling = 0.5 * dd.internal_distance**2
    out = np.empty((2 * mc, 2 * mc), dtype=complex)
    out[:mc, :mc] = 1j * np.conj(kappa) * (mean - first)
    out[:mc, mc:] = np.conj(lam) * coupling * mean
    out[mc:, :mc] = lam * coupling * mean
    out[mc:, mc:] = 1j * kappa * first
    return out


def _doubled_upper(dd: DoubledDirac, g: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """(upper, leakage) of a dual W for the stacked evaluation pair g.

    The doubled distance is taken over corner pairs x = (x1, x2), levels
    0..m, modulo the joint kernel of K.  With A = sqrt(2) crop dz, K11 =
    -i A x1 and K22 = -i (A x2)*, each blind to span{1_m, E} with 1_m the
    identity on levels 0..m-1 and E = |m><m|, and the coupling blocks read
    crop(x2 - x1), so the joint kernel is {(c 1_m + b1 E, c 1_m + b2 E)}.
    Split each sheet's residual r_i = corner(g_i - Herm K*(W)_i) as r_i =
    gamma_i 1_m + eta_i E + r_i_perp (``_corner_split``) and x_i = c_i 1_m
    + e_i E + a_i with a_i orthogonal to both.  Then

        <g, x> = <W, K x> + sum_i <r_i_perp, a_i>
                 + m (gamma1 + gamma2)(c1 + c2)/2 + eta1 e1 + eta2 e2
                 + m (gamma1 - gamma2)(c1 - c2)/2.

    Write p = ||K x||.  Each a_i is orthogonal to A's kernel, so ||a_i||_F
    <= ||A a_i||_F / s_min <= sqrt(m) p / s_min.  The coupling block has
    norm |Lambda| ||crop(x2 - x1)|| <= p, and crop(x2 - x1) = (c2 - c1) 1_m
    + crop(a2 - a1), so |c1 - c2| <= p / |Lambda| + 2 sqrt(m) p / s_min.
    Hence, off the joint kernel,

        upper = ||W||_* + (||r1_perp||_F + ||r2_perp||_F) sqrt(m) / s_min
                + (m/2) |gamma1 - gamma2| (1/|Lambda| + 2 sqrt(m) / s_min).

    ``leakage`` is what the definition drops: the residual's joint-kernel
    component, the Frobenius norm of (eta1, eta2, sqrt(m/2) (gamma1 +
    gamma2)), plus g's weight outside the corner on either sheet.
    """
    calc = dd.calc
    m = dd.ctx.interior_dim
    img = _chiral_adjoint(dd, w)
    (gam1, eta1, perp1, out1), (gam2, eta2, perp2, out2) = (
        _corner_split(calc, gi, ii) for gi, ii in zip(g, img))
    charge = math.sqrt(m) / calc.corner_s_min
    nuclear = float(np.linalg.svd(w, compute_uv=False).sum())
    upper = (nuclear + (perp1 + perp2) * charge
             + 0.5 * m * abs(gam1 - gam2) * (dd.internal_distance + 2.0 * charge))
    leakage = math.hypot(eta1, eta2, math.sqrt(0.5 * m) * (gam1 + gam2)) + math.hypot(out1, out2)
    return upper, leakage


# ---------------------------------------------------------------------------
# distances


class _OppositeSheets(NamedTuple):
    """What ``_opposite_sheets`` decides about one opposite-sheet pair."""

    single: DistanceReport
    kappa: complex | None
    value: float
    feasibility: float
    upper: float | None


def _opposite_sheets(
    dd: DoubledDirac, s1: QState, s2: QState, cfg: SolverConfig
) -> _OppositeSheets:
    """Every fact about s1 on sheet 1 against s2 on sheet 2, decided once.

    ``kappa`` is the translation amplitude from s1 to s2: 0 for states equal
    entrywise to 1e-12, else read by ``_translation_amplitude`` (a common
    ancestor of the two ``translated`` tag chains, or two families at one
    level), and None when neither applies.  ``single`` is the single-sheet
    route's report of the pair.

    The pair solver is ``_prove_or_search`` on stacked element pairs, with
    pairing g = Herm(rho1, -rho2) and one seed: the hypotenuse lift of the
    single route's certificate, or the zero-rung pair when the route has
    none.  The single value is the best ratio over a portfolio that holds
    every other single-sheet seed, and hypot is monotone in the gap, so that
    lift dominates theirs and no value falls below it.  Where kappa is
    known, the doubled path-mean dual (``_doubled_dual``) may prove the seed
    optimal and no search runs; elsewhere the splitting loop runs.  ``upper``
    is the proven bound, over corner pairs modulo the joint kernel of K, or
    None where the leakage exceeds ctx.tol; ``feasibility`` is the full SVD
    of ``_doubled_seminorm``.
    """
    single = _single_route(dd.calc, s1, s2, cfg)
    drho = s1.rho - s2.rho
    base, gap = np.zeros(drho.shape), 0.0
    if single.certificate is not None and single.feasibility > _TINY:
        base = single.certificate.mat / single.feasibility
        gap = _objective(_hermitize(drho), base)
    seed = np.stack(_hypotenuse_pair(dd, base, gap))
    kappa = 0.0 if float(np.abs(drho).max()) < 1e-12 else _translation_amplitude(s1, s2)
    g = _hermitize(np.stack([s1.rho, -s2.rho]))
    duals = [] if kappa is None else [_doubled_dual(dd, s1.rho, kappa)]
    # The seed has doubled seminorm one, so the core always returns an element.
    value, best, upper = _prove_or_search(_two_sheets(dd, g), [seed], duals, cfg, dd.ctx.tol)
    return _OppositeSheets(single, kappa, value, _doubled_seminorm(dd, best[0], best[1]), upper)


def doubled_distance(
    dd: DoubledDirac,
    ss1: SheetState,
    ss2: SheetState,
    cfg: SolverConfig | None = None,
) -> DistanceReport:
    """Distance between sheet states of the doubled geometry.

    Same-sheet pairs project onto the single-sheet distance: the report is
    the single-sheet route's (closed form, LP or solver, with its ``gap``
    and ``upper``), its note prefixed by the projection, and no pair solve
    runs.

    Opposite-sheet pairs only format what ``_opposite_sheets`` decides.  A
    state and its translate by kappa, equal states included at kappa = 0,
    are the closed form hypot(|kappa|, 1/|Lambda|), by translation
    covariance; the pair solver's value cross-checks it, and its excess is
    an arithmetic failure.  Every other pair reports the larger of the
    pair solver's certified lower bound and the quadrature ansatz over the
    single-sheet value.  ``upper`` carries the pair solver's proven bound,
    from the doubled path-mean dual or the splitting loop, raised to the
    reported value, wherever the leakage is at most ctx.tol, and ``note``
    names the corner definition it holds for.
    """
    if cfg is None:
        cfg = SolverConfig()
    _require_same_ctx(dd.ctx, ss1.state.ctx)
    _require_same_ctx(dd.ctx, ss2.state.ctx)
    if ss1.sheet > ss2.sheet:
        ss1, ss2 = ss2, ss1
    sa, sb = ss1.state, ss2.state

    if ss1.sheet == ss2.sheet:
        route = _single_route(dd.calc, sa, sb, cfg)
        note = f"sheet-{ss1.sheet} projection" + (f"; {route.note}" if route.note else "")
        return replace(route, note=note)

    d_i = dd.internal_distance
    pair = _opposite_sheets(dd, sa, sb, cfg)
    if pair.kappa is not None:
        value = math.hypot(abs(pair.kappa), d_i)
        if pair.value > value + 1e-6:
            raise ArithmeticError(
                f"pair solver exceeded the closed doubled distance: "
                f"{pair.value:.12g} > {value:.12g}"
            )
        method, gap = "closed-form", abs(value - pair.value)
        if pair.kappa == 0:
            note = "opposite sheets, equal surface states: internal rung 1/|Lambda|"
        else:
            note = ("opposite sheets, translates: transverse shift and internal "
                    "rung combine in quadrature")
        note += f"; pair-solver cross-check at {pair.value:.9g}"
    else:
        ansatz = math.hypot(pair.single.value, d_i)
        value = max(pair.value, ansatz)
        method, gap = "convex-solver", abs(value - ansatz)
        domain = f"corner pairs, levels 0..{dd.ctx.interior_dim}, modulo the joint kernel"
        note = (
            f"opposite sheets, cross family: {_bound_note(pair.upper, domain)}; the "
            "quadrature ansatz over the single-sheet estimate "
            f"{pair.single.value:.9g} gives {ansatz:.9g}"
        )
    return DistanceReport(
        value=value,
        method=method,
        certificate=None,
        feasibility=pair.feasibility,
        gap=gap,
        note=note,
        upper=None if pair.upper is None else max(pair.upper, value),
    )


class PythagorasResult(NamedTuple):
    """Squared opposite-sheet distance and its quadrature bracket; ``upper``
    is the square of the pair solver's proven bound, from the doubled dual
    or the splitting loop, over corner pairs modulo the joint kernel, or
    None where the leakage exceeds ctx.tol."""

    lhs: float
    rhs_equal: float
    rhs_lo: float
    rhs_hi: float
    upper: float | None = None


def pythagoras_check(
    dd: DoubledDirac, s1: QState, s2: QState, cfg: SolverConfig | None = None
) -> PythagorasResult:
    """Squared opposite-sheet distance against its quadrature bracket.

    ``lhs`` is the squared pair-solver value for (s1 on sheet 1, s2 on
    sheet 2); ``rhs_equal`` sums the squared single-sheet distance and the
    squared internal rung.  The bracket [rhs_lo, rhs_hi] spans one to two
    times that sum; leaving it is an arithmetic failure, not a data
    condition, because the pair solver's seed, the hypotenuse lift of the
    single-sheet certificate, realizes rhs_lo exactly and feasible values
    cannot exceed the doubled supremum.

    Equal states and translates (see ``_opposite_sheets``) usually run no
    doubled search: the doubled path-mean dual proves the seed optimal.
    Elsewhere the doubled splitting loop runs, and may raise ``lhs`` above
    rhs_lo.  ``upper`` records the squared proven bound wherever the leakage
    is at most ctx.tol.  The constant rhs_hi stays the outer check.
    """
    if cfg is None:
        cfg = SolverConfig()
    _require_same_ctx(dd.ctx, s1.ctx)
    _require_same_ctx(dd.ctx, s2.ctx)
    pair = _opposite_sheets(dd, s1, s2, cfg)
    rhs_equal = pair.single.value**2 + dd.internal_distance**2
    rhs_lo, rhs_hi = rhs_equal, 2.0 * rhs_equal
    lhs = pair.value**2
    tol = 1e-6 * max(1.0, rhs_equal)
    if lhs < rhs_lo - tol or lhs > rhs_hi + tol:
        raise ArithmeticError(
            f"squared doubled distance {lhs:.12g} left its bracket "
            f"[{rhs_lo:.12g}, {rhs_hi:.12g}]"
        )
    upper = None if pair.upper is None else pair.upper**2
    return PythagorasResult(lhs=lhs, rhs_equal=rhs_equal, rhs_lo=rhs_lo, rhs_hi=rhs_hi,
                            upper=upper)


# ---------------------------------------------------------------------------
# identification sweep


class SweepRow(NamedTuple):
    """One comparison of the identification sweep.

    ``separation`` is |dk| on the same-family and shift series and the
    partner level n on the level series; ``length`` is the square length
    on the same-family series and the modified length on the others.
    ``closed`` marks a row whose translate would leak past the guarded
    edge, so its length comes from the family closed form.
    """

    separation: float
    distance: float
    length: float
    rel_gap: float
    closed: bool


def _closed_modified(ctx, m: int, n: int, delta: float) -> float:
    """Family closed form of the modified length for shifted level pairs."""
    em = ctx.theta * (m + 0.5)
    en = ctx.theta * (n + 0.5)
    base = 2.0 * em + 2.0 * en - 4.0 * math.sqrt(em * en)
    return math.sqrt(base + delta**2)


def identification_sweep(
    calc: DiracCalculus,
    family: int,
    kappa_grid: Sequence[complex],
) -> tuple[list[SweepRow], list[SweepRow], list[SweepRow]]:
    """Compare the two metric identifications along a reference family.

    Returns the same-family, cross-family shift and cross-family level
    series, as lists of ``SweepRow``.  Same-family rows compare the square
    length (pair trace on actual density matrices) against the squared
    doubled distance, with the rung 1/|Lambda| calibrated on the family by
    ``reference_lambda``; their relative residual must vanish, and the
    function raises otherwise.  Cross-family rows compare the certified
    spectral-distance estimate against the modified length, for level m at
    the first shift against level m + 1 at each grid shift, and for level m
    against each partner level n up to m + 50 or the guarded edge; the
    relative gap is required to shrink monotonically along growing shift
    separation (from separation one onward) and along growing level
    separation.

    Shifted states are built whenever they fit the truncation; rows whose
    translate would leak past the guarded edge fall back to the family
    closed forms, already cross-validated at small parameters, and are
    flagged ``closed``.
    """
    ctx = calc.ctx
    if int(family) != family or not 0 <= family < ctx.interior_dim - 1:
        raise ValueError(f"family level must satisfy 0 <= m < {ctx.interior_dim - 1}")
    family = int(family)
    grid = [complex(k) for k in kappa_grid]
    if not grid:
        raise ValueError("kappa grid must not be empty")

    d_i = 1.0 / reference_lambda(calc, family)
    kref = grid[0]

    base = eigenstate(ctx, family)
    try:
        ref = displace(base, kref)
    except LeakageError:
        ref = None

    def measured(measure, state: QState, kappa: complex) -> float | None:
        """measure(ref, state translated by kappa); None when either leaks."""
        try:
            return None if ref is None else measure(ref, displace(state, kappa))
        except LeakageError:
            return None

    same: list[SweepRow] = []
    for kappa in grid:
        delta = abs(kappa - kref)
        dprime = math.hypot(delta, d_i)
        sq = measured(d_L2, base, kappa)
        closed = sq is None
        if closed:
            sq = _family_square_length(ctx.theta, family, family, delta)
        same.append(SweepRow(delta, dprime, sq, abs(sq - dprime**2) / sq, closed))

    partner = family + 1
    ladder_value = _eigen_sum(ctx, family, partner)
    partner_base = eigenstate(ctx, partner)
    shift: list[SweepRow] = []
    for kappa in grid:
        delta = abs(kappa - kref)
        est = ladder_value if delta < 1e-12 else delta
        dmod = measured(modified_length, partner_base, kappa)
        closed = dmod is None
        if closed:
            dmod = _closed_modified(ctx, family, partner, delta)
        shift.append(SweepRow(delta, est, dmod, 1.0 - est / dmod, closed))

    level: list[SweepRow] = []
    for n in range(family + 1, min(family + 51, ctx.interior_dim)):
        est = _eigen_sum(ctx, family, n)
        dmod = modified_length(eigenstate(ctx, family), eigenstate(ctx, n))
        level.append(SweepRow(n, est, dmod, 1.0 - est / dmod, False))

    for row in same:
        if not row.rel_gap < 1e-6:
            raise ArithmeticError(
                f"identification residual {row.rel_gap:.3e} at |dk|={row.separation:g}; "
                "the square length and the squared doubled distance disagree"
            )
    tail = sorted((r.separation, r.rel_gap) for r in shift if r.separation >= 1.0 - 1e-12)
    for (d_a, g_a), (d_b, g_b) in zip(tail, tail[1:]):
        if d_b > d_a + 1e-12 and not g_b < g_a + 1e-12:
            raise ArithmeticError(
                f"relative gap failed to shrink from separation {d_a:g} "
                f"({g_a:.6g}) to {d_b:g} ({g_b:.6g})"
            )
    for a, b in zip(level, level[1:]):
        if not b.rel_gap < a.rel_gap + 1e-12:
            raise ArithmeticError(
                "relative gap failed to shrink along growing level separation"
            )

    return same, shift, level
