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
of its singular values and the 4m x 4m commutator is never built; the
tests keep it as the oracle for K.  The pair solver runs the shared
prove-or-search core of ``spectral`` (``_portfolio_ascent``) on stacked
element pairs; its search is the restarted ascent (``_restarted_ascent``),
with one Gram eigendecomposition of K per iteration and the subgradient
from its adjoint (``_chiral_adjoint``), until K has a projection of its own
for the splitting loop that the single sheet runs.  A full SVD of K
(``_doubled_seminorm``) is kept as the independent feasibility check.

Same-sheet pairs are the single-sheet problem itself, so they take the
single-sheet route and no pair solve.  The diagonal blocks of K are
-i A x1 and -i (A x2)* with A = sqrt(2) crop dz, so ||K(x, x)|| = p(x) and
||K(x1, x2)|| >= max(p(x1), p(x2)): on one sheet the doubled distance is
the plane's own.

On opposite sheets every fact about a pair is decided once, in
``_opposite_sheets``: the translation amplitude kappa (0 for equal states),
the single-sheet report, and the pair solver's value, feasibility and
upper bound; ``doubled_distance`` and ``pythagoras_check`` only format
that record.  The pair solver has one seed, the hypotenuse lift of the
single-sheet certificate.  Equal states and translates by kappa sit at
hypot(|kappa|, 1/|Lambda|) by translation covariance, and have an explicit
dual of K (``_doubled_dual``): the single-sheet path mean split along the
path, with the rung spread evenly over it, whose nuclear norm is at most
that hypotenuse.  Where it proves the seed optimal, up to the corner
leakage and residual charge of ``_doubled_upper``, the pair solver runs no
ascent and reports that upper bound; elsewhere it ascends.

Single-sheet work (the closed form, LP or solver route) comes from
``spectral``; this module only adds what the second sheet brings: the
rung, the hypotenuse mix and the pair solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
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
    _corner_split,
    _eigen_sum,
    _first_kernel,
    _hermitize,
    _mean_kernel,
    _objective,
    _path_moments,
    _portfolio_ascent,
    _restarted_ascent,
    _single_route,
    _top_singular_pair,
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
    """
    calc = dd.calc
    mc = dd.ctx.interior_dim
    root2 = math.sqrt(2.0)
    lam = dd.Lambda
    delta = calc._crop(a2 - a1)
    out = np.empty((2 * mc, 2 * mc), dtype=complex)
    out[:mc, :mc] = -1j * root2 * calc._crop(calc._dz(a1))
    out[:mc, mc:] = -np.conj(lam) * delta
    out[mc:, :mc] = -lam * delta
    out[mc:, mc:] = -1j * root2 * calc._crop(calc._dzbar(a2))
    return out


def _chiral_adjoint(dd: DoubledDirac, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of the chiral block: <W, K(X1, X2)> = <g1, X1> + <g2, X2>.

    W is 2m x 2m in the block layout of K; the adjoints of dz and dzbar are
    -dzbar and -dz, and the crop adjoint pads with zeros.  Used for the
    seminorm subgradient of the pair solver.
    """
    calc = dd.calc
    mc = dd.ctx.interior_dim
    root2 = math.sqrt(2.0)
    lam = dd.Lambda
    g1 = -1j * root2 * calc._dzbar(calc._pad(w[:mc, :mc]))
    g2 = -1j * root2 * calc._dz(calc._pad(w[mc:, mc:]))
    g_delta = -lam * w[:mc, mc:] - np.conj(lam) * w[mc:, :mc]
    g1[:mc, :mc] -= g_delta
    g2[:mc, :mc] += g_delta
    return g1, g2


def _doubled_seminorm(dd: DoubledDirac, a1: np.ndarray, a2: np.ndarray) -> float:
    """Doubled seminorm by a full SVD of the chiral block, independent of
    the Gram eigendecomposition the ascent uses."""
    return float(np.linalg.svd(_chiral_block(dd, a1, a2), compute_uv=False)[0])


def _doubled_pair(dd: DoubledDirac, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Doubled seminorm of a stacked Hermitian pair and a subgradient there.

    The top pair K v = sigma u of the chiral block is a top singular pair
    of the whole commutator, so u v* through the chiral adjoint is a
    subgradient.
    """
    sigma, u, v = _top_singular_pair(_chiral_block(dd, x[0], x[1]))
    return sigma, _hermitize(np.stack(_chiral_adjoint(dd, np.outer(u, v.conj()))))


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
    img = _hermitize(np.stack(_chiral_adjoint(dd, w)))
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

    The pair solver is the shared core ``_portfolio_ascent`` on stacked
    element pairs, with evaluation pair g = Herm(rho1, -rho2) and one seed:
    the hypotenuse lift of the single route's certificate, or the zero-rung
    pair when the route has none.  The single value is the best ratio over
    a portfolio that holds every other single-sheet seed, and hypot is
    monotone in the gap, so that lift dominates their lifts.  Where kappa
    is known, the doubled path-mean dual (``_doubled_dual``) may prove the
    seed optimal: leakage at most ctx.tol and its upper bound within ctx.tol
    max(1, value) of the value.  No ascent runs then and ``upper`` carries
    that bound; it is None wherever the ascent runs.  ``value`` is the pair
    solver's, and its ``feasibility`` the full SVD of ``_doubled_seminorm``.
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
    bounds = None if kappa is None else [_doubled_upper(dd, g, _doubled_dual(dd, s1.rho, kappa))]
    # The seed has doubled seminorm one, so the core always returns an element.
    pair = partial(_doubled_pair, dd)
    value, best, upper = _portfolio_ascent(
        g, pair, [seed], dd.ctx.tol, bounds, partial(_restarted_ascent, g, pair, cfg, (97,))
    )
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
    single-sheet value.  The pair solver runs no ascent where the doubled
    path-mean dual proves its seed optimal; ``upper`` then carries that
    bound, raised to the reported value, and is None wherever the ascent
    ran.
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
        note = (
            "opposite sheets, cross family: certified lower bound; the "
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
    is the square of the doubled dual's proven bound, or None where the
    ascent ran."""

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
    doubled ascent: the doubled path-mean dual proves the seed optimal, and
    ``upper`` records its bound squared.  The constant rhs_hi stays the
    outer check.
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
