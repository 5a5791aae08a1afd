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
oracle for K.  Its diagonal blocks are the one-sheet map A = sqrt(2) crop
dz of each sheet's element, -i A x1 and -i (A x2)*, and its coupling blocks
read crop(x2 - x1).  The pair solver is the prove-or-search core of
``spectral`` on stacked element pairs, with one seed, the hypotenuse lift
of the single-sheet certificate, and the doubled sheet (``_two_sheets``):
the map K, its adjoint Herm K* (``_chiral_adjoint``), the pseudo-inverse of
the normal operator K* K, which splits into a sheet-sum half, the one-sheet
(A* A)^+, and a sheet-difference half, each block diagonal by offset
(``_normal_solve``), and the rung 1/|Lambda|, the one term by which the dual
bound ``_Sheet.upper`` of two sheets differs from that of one.  A full SVD of
K (``_doubled_seminorm``) is the independent feasibility check.  On one
sheet ||K(x, x)|| = p(x) and ||K(x1, x2)|| >= max(p(x1), p(x2)), so
same-sheet pairs take the single-sheet route and no pair solve.

On opposite sheets every fact about a pair is decided once, in
``_opposite_sheets``, and ``doubled_distance`` and ``pythagoras_check``
only format that record.  Equal states and translates by kappa sit at
hypot(|kappa|, 1/|Lambda|) by translation covariance, and an explicit dual
of K (``_doubled_dual``: the single-sheet path mean split along the path,
with the rung spread evenly over it) usually proves the seed optimal, so no
search runs; elsewhere the splitting loop, started from the seed, brackets
the pair.  The seed lifts the single-sheet route's certificate, so the
route runs first and the doubled solve after it.

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
    _eigen_sum,
    _first_kernel,
    _hermitize,
    _mean_kernel,
    _objective,
    _path_moments,
    _prove_or_search,
    _Sheet,
    _single_route,
    _Solve,
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
        if not math.isfinite(abs(self.Lambda)):
            raise ValueError(f"the internal entry Lambda must be finite, got {self.Lambda!r}")
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
        (``DiracCalculus._offset_stack``) holds each M_d^-1, off its kernel
        E = |m><m| at d = 0, per Lambda.
        """
        weight = 4.0 * abs(self.Lambda) ** 2

        def square(d: int, block: np.ndarray) -> np.ndarray:
            n = block.shape[1]
            normal = 2.0 * block.T @ block
            normal[np.arange(n - 1), np.arange(n - 1)] += weight * (1.0 if d == 0 else 2.0)
            keep = n - 1 if d == 0 else n
            out = np.zeros((n, n))
            out[:keep, :keep] = np.linalg.inv(normal[:keep, :keep])
            return out

        return self.calc._offset_stack(square)


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


def _chiral_block(dd: DoubledDirac, x: np.ndarray) -> np.ndarray:
    """Chiral block K = C[(s1c1, s2c0), (s1c0, s2c1)] of the doubled
    commutator, for the Hermitian pair x = (a1, a2).

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
    with K of size 2m x 2m.  For Hermitian elements crop(dzbar a2) =
    crop(dz a2)*, so with A = sqrt(2) crop dz (``DiracCalculus._corner_map``)
    the diagonal blocks of K are -i A a1 and -i (A a2)*.
    """
    mc = dd.ctx.interior_dim
    x = np.asarray(x)
    d = dd.calc._corner_map(x)
    delta = x[1, :mc, :mc] - x[0, :mc, :mc]
    out = np.empty((2 * mc, 2 * mc), dtype=complex)
    out[:mc, :mc] = -1j * d[0]
    out[:mc, mc:] = -np.conj(dd.Lambda) * delta
    out[mc:, :mc] = -dd.Lambda * delta
    out[mc:, mc:] = -1j * d[1].T.conj()
    return out


def _chiral_adjoint(dd: DoubledDirac, w: np.ndarray) -> np.ndarray:
    """Herm K* W: the stacked Hermitian pair g with <W, K x> = <g1, x1> +
    <g2, x2> for every Hermitian pair x.  The diagonal blocks -i A x1 and
    -i (A x2)* give Herm A* (i W11) and Herm A* (-i W22*)
    (``DiracCalculus._corner_adjoint``); the coupling blocks add the rest.
    """
    mc = dd.ctx.interior_dim
    g = dd.calc._corner_adjoint(np.stack([1j * w[:mc, :mc], -1j * w[mc:, mc:].T.conj()]))
    coupling = _hermitize(dd.Lambda * w[:mc, mc:] + np.conj(dd.Lambda) * w[mc:, :mc])
    g[0, :mc, :mc] += coupling
    g[1, :mc, :mc] -= coupling
    return g


def _doubled_seminorm(dd: DoubledDirac, a1: np.ndarray, a2: np.ndarray) -> float:
    """Doubled seminorm by a full SVD of the chiral block, independent of
    the Gram eigendecomposition the search uses."""
    return float(np.linalg.svd(_chiral_block(dd, (a1, a2)), compute_uv=False)[0])


def _normal_solve(dd: DoubledDirac, r: np.ndarray) -> np.ndarray:
    """N^+ r for N = K* K and a stacked Hermitian pair r read on the corner:
    the corner pair x off the joint kernel of K with N x = r off it.  N is
    A* A on r_s = (r1 + r2)/sqrt(2), whose pseudo-inverse is the one-sheet
    stack ``DiracCalculus._normal_pinv``, and the t-half
    ``DoubledDirac._transverse_inverse`` on r_t = (r2 - r1)/sqrt(2); then
    x = ((x_s - x_t), (x_s + x_t))/sqrt(2), all square roots folded into 1/2.
    """
    calc = dd.calc
    r1, r2 = calc._offset_gather(r[0]), calc._offset_gather(r[1])
    s = calc._normal_pinv @ (r1 + r2)
    t = dd._transverse_inverse @ (r2 - r1)
    return np.stack([calc._offset_scatter(0.5 * (s - t)), calc._offset_scatter(0.5 * (s + t))])


def _two_sheets(dd: DoubledDirac, g: np.ndarray) -> _Sheet:
    """The doubled geometry for the stacked pairing g: its map the chiral
    block K, the two halves of N^+ (``_normal_solve``) and the rung
    1/|Lambda|."""
    return _Sheet(g, 2 * dd.ctx.interior_dim, partial(_chiral_block, dd),
                  partial(_chiral_adjoint, dd), partial(_normal_solve, dd), dd.calc,
                  dd.internal_distance)


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


# ---------------------------------------------------------------------------
# distances


class _OppositeSheets(NamedTuple):
    """What ``_opposite_sheets`` decides about one opposite-sheet pair."""

    single: DistanceReport
    kappa: complex | None
    solve: _Solve


def _lifted_seed(dd: DoubledDirac, drho: np.ndarray, single: DistanceReport) -> np.ndarray:
    """The pair solver's one seed: the hypotenuse lift of the single route's
    certificate, or the zero-rung pair when the route has none.

    The lift mixes the base, the certificate at seminorm one, with sheet
    constants: for a base whose single-sheet evaluation gap is ``gap``, the
    pair has doubled seminorm exactly one and opposite-sheet evaluation gap
    hypot(gap, 1/|Lambda|).
    """
    base, gap = np.zeros(drho.shape), 0.0
    if single.certificate is not None and single.feasibility > _TINY:
        base = single.certificate.mat / single.feasibility
        gap = _objective(_hermitize(drho), base)
    if gap < 0:
        base, gap = -base, -gap
    d_i = dd.internal_distance
    h = math.hypot(gap, d_i)
    lifted = gap / h * base
    return np.stack([lifted, lifted - d_i**2 / h * np.eye(dd.ctx.trunc_dim)])


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
    pairing g = Herm(rho1, -rho2) and one seed (``_lifted_seed``).  The
    single value is the best ratio over a portfolio that holds every other
    single-sheet seed, and hypot is monotone in the gap, so the lift of its
    certificate dominates theirs and no value falls below it.  Where kappa
    is known, the doubled path-mean dual (``_doubled_dual``) may prove the
    seed optimal and no search runs; elsewhere the splitting loop runs,
    started from the seed's multiplier K(seed)/rho.  ``solve.upper`` is
    the proven bound, over corner pairs modulo the joint kernel of K, or
    None where the leakage exceeds ctx.tol.
    """
    drho = s1.rho - s2.rho
    kappa = 0.0 if float(np.abs(drho).max()) < 1e-12 else _translation_amplitude(s1, s2)
    sheet = _two_sheets(dd, _hermitize(np.stack([s1.rho, -s2.rho])))
    duals = [] if kappa is None else [_doubled_dual(dd, s1.rho, kappa)]
    single = _single_route(dd.calc, s1, s2, cfg)
    seed = _lifted_seed(dd, drho, single)
    solve = _prove_or_search(sheet, [seed], duals, cfg, seed)
    return _OppositeSheets(single, kappa, solve)


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
    an arithmetic failure.  Every other pair reports the pair solver's
    certified lower bound, and ``gap`` its distance to the quadrature ansatz
    over the single-sheet value.  ``feasibility`` is the full SVD of the
    pair solver's element (``_doubled_seminorm``).  ``upper`` carries the
    pair solver's proven bound, from the doubled path-mean dual or the
    splitting loop, raised to the reported value, wherever the leakage is at
    most ctx.tol, and ``note`` names the corner definition it holds for.
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
    single, kappa, solve = _opposite_sheets(dd, sa, sb, cfg)
    if kappa is not None:
        value = math.hypot(abs(kappa), d_i)
        if solve.value > value + 1e-6:
            raise ArithmeticError(
                f"pair solver exceeded the closed doubled distance: "
                f"{solve.value:.12g} > {value:.12g}"
            )
        method, gap = "closed-form", abs(value - solve.value)
        if kappa == 0:
            note = "opposite sheets, equal surface states: internal rung 1/|Lambda|"
        else:
            note = ("opposite sheets, translates: transverse shift and internal "
                    "rung combine in quadrature")
        note += f"; pair-solver cross-check at {solve.value:.9g}"
    else:
        ansatz = math.hypot(single.value, d_i)
        value, method, gap = solve.value, "convex-solver", abs(solve.value - ansatz)
        domain = f"corner pairs, levels 0..{dd.ctx.interior_dim}, modulo the joint kernel"
        note = (
            f"opposite sheets, cross family: {_bound_note(solve.upper, domain)}; the "
            "quadrature ansatz over the single-sheet estimate "
            f"{single.value:.9g} gives {ansatz:.9g}"
        )
    # The seed has doubled seminorm one, so the core always returns an element.
    return DistanceReport(
        value=value,
        method=method,
        certificate=None,
        feasibility=_doubled_seminorm(dd, *solve.element),
        gap=gap,
        note=note,
        upper=None if solve.upper is None else max(solve.upper, value),
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
    lhs = pair.solve.value**2
    tol = 1e-6 * max(1.0, rhs_equal)
    if lhs < rhs_lo - tol or lhs > rhs_hi + tol:
        raise ArithmeticError(
            f"squared doubled distance {lhs:.12g} left its bracket "
            f"[{rhs_lo:.12g}, {rhs_hi:.12g}]"
        )
    upper = None if pair.solve.upper is None else pair.solve.upper**2
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
