"""Verification battery for the library's certified quantities.

Ten numbered criteria probe the load-bearing results end to end: closed-form
distances against the linear program, solver certificates against the exact
translation amplitude, the square-length closed form, the spectral floor, the
two-sheet quadrature relation, the identification of the two metrics, the
no-square-length-operator obstruction, the optimal-element identities, the
star-product quadrature oracle and the property-level floors.  Each criterion
reports a worst residual-to-tolerance ratio; at most 1.0 passes.

The battery runs at two sizes.  Full settings (truncation 64, solver
computations at 48, deformation scale 1) are the official gate and also what
``tests/test_acceptance.py`` executes; ``quick=True`` drops to truncation 32
with trimmed solver budgets and fewer random pairs for a fast smoke run.
Criteria never raise: an exception inside a check is converted into a failed
result carrying the message, so one broken quantity cannot hide the state of
the other nine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .config import RunConfig
from .doubling import (
    identification_sweep,
    make_doubled,
    pythagoras_check,
    reference_lambda,
)
from .fock import (
    FockContext,
    annihilation,
    coherent_state,
    creation,
    displace,
    eigenstate,
    hamiltonian,
    mixed_state,
    superposition_state,
    uncertainty_product,
)
from .lengthop import build_length, counterexample_L2prime, d_L, d_L2, modified_length
from .spectral import (
    DiracCalculus,
    SolverConfig,
    _objective,
    distance_diagonal_lp,
    distance_solver,
    length_vs_optimal_discrepancy,
    lipschitz_seminorm,
    optimal_element_eigenstates,
    optimal_element_translation,
)
from .starprod import star_fourier, star_integral_report, vacuum_symbol

__all__ = ["CriterionResult", "SuiteSettings", "settings_from", "run_all", "run_one"]


@dataclass(frozen=True)
class SuiteSettings:
    """Contexts and budgets for one battery run.

    Both contexts carry the run's theta, tol and leakage bound: ``ctx`` at
    the full truncation, ``solver_ctx`` at the solver's (at most 48).
    """

    ctx: FockContext
    solver_ctx: FockContext
    solver: SolverConfig
    pair_count: int


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    worst: float
    detail: str
    seconds: float


def settings_from(cfg: RunConfig | None = None, quick: bool = False) -> SuiteSettings:
    if cfg is None:
        cfg = RunConfig()
    if quick:
        cfg = replace(
            cfg,
            trunc_dim=min(cfg.trunc_dim, 32),
            solver_iterations=min(cfg.solver_iterations, 300),
        )
    return SuiteSettings(
        ctx=cfg.context(),
        solver_ctx=replace(cfg, trunc_dim=min(cfg.trunc_dim, 48)).context(),
        solver=cfg.solver(),
        pair_count=40 if quick else 200,
    )


# ---------------------------------------------------------------------------
# criteria; each returns (worst ratio, detail)


def _c1_additivity(st: SuiteSettings) -> tuple[float, str]:
    """Linear program against the additive partial-sum closed form."""
    ctx = st.ctx
    calc = DiracCalculus(ctx)
    tol = 1e-9
    worst = 0.0
    count = 0
    for m in range(0, 7):
        for n in range(m + 1, 7):
            got = distance_diagonal_lp(calc, eigenstate(ctx, m), eigenstate(ctx, n)).value
            want = math.sqrt(ctx.theta) * sum(
                1.0 / math.sqrt(2.0 * k) for k in range(m + 1, n + 1)
            )
            worst = max(worst, abs(got - want))
            count += 1
    return worst / tol, f"{count} eigenstate pairs; worst |lp - sum| = {worst:.3e} (tol {tol:g})"


def _c2_translation_certificates(st: SuiteSettings) -> tuple[float, str]:
    """Solver certificates must evaluate to the translation amplitude."""
    ctx = st.solver_ctx
    calc = DiracCalculus(ctx)
    bases = [eigenstate(ctx, 0), eigenstate(ctx, 1), coherent_state(ctx, 1.0)]
    worst_eval = 0.0
    worst_floor = 0.0
    worst_feas = 0.0
    for base in bases:
        for kappa in (0.5, 1.0, 2.0):
            shifted = displace(base, kappa)
            rep = distance_solver(calc, base, shifted, st.solver)
            drho = base.rho - shifted.rho
            drho = 0.5 * (drho + drho.conj().T)
            evaluation = abs(_objective(drho, rep.certificate.mat))
            worst_eval = max(worst_eval, abs(evaluation - kappa))
            worst_floor = max(worst_floor, (0.98 * kappa) / rep.value)
            worst_feas = max(worst_feas, max(0.0, rep.feasibility - 1.0))
    ratio = max(worst_eval / 1e-6, worst_floor, worst_feas / 1e-8)
    return ratio, (
        f"9 translation pairs; worst |evaluation - amplitude| = {worst_eval:.3e} "
        f"(tol 1e-6), tightest value/0.98-amplitude margin = {1.0 / worst_floor:.4f}"
    )


def _c3_square_length(st: SuiteSettings) -> tuple[float, str]:
    """Square length against 2E_m + 2E_n + |shift difference|^2."""
    ctx = st.ctx
    theta = ctx.theta
    vals = np.linspace(-math.sqrt(2.0), math.sqrt(2.0), 5)
    points = [complex(x, y) for x in vals for y in vals]
    families = {
        (m, p): displace(eigenstate(ctx, m), p) for m in range(7) for p in points
    }
    worst = 0.0
    for m in range(7):
        for n in range(7):
            base = 2.0 * theta * (m + 0.5) + 2.0 * theta * (n + 0.5)
            for p in points:
                s1 = families[(m, p)]
                for q in points:
                    got = d_L2(s1, families[(n, q)])
                    worst = max(worst, abs(got - (base + abs(p - q) ** 2)))
    delta = 0.35 - 0.2j
    worst_inv = 0.0
    for (m, p), (n, q) in [((0, points[0]), (1, points[7])), ((2, points[12]), (3, points[24]))]:
        s1, s2 = families[(m, p)], families[(n, q)]
        moved = d_L2(displace(s1, delta), displace(s2, delta))
        worst_inv = max(worst_inv, abs(moved - d_L2(s1, s2)))
    ratio = max(worst / 1e-6, worst_inv / 1e-8)
    return ratio, (
        f"{49 * len(points) ** 2} displaced pairs; worst closed-form residual = "
        f"{worst:.3e} (tol 1e-6), translation-invariance drift = {worst_inv:.3e} (tol 1e-8)"
    )


def _c4_minimal_length(st: SuiteSettings) -> tuple[float, str]:
    """Spectral floor 2*theta and the vacuum diagonal length sqrt(2*theta)."""
    ctx = st.ctx
    theta = ctx.theta
    tol = 1e-6
    floor = float(build_length(ctx).spectrum[0])
    r1 = abs(floor - 2.0 * theta) / tol
    states = [eigenstate(ctx, m) for m in range(6)]
    gap00 = abs(d_L(states[0], states[0]) - math.sqrt(2.0 * theta))
    r2 = gap00 / tol
    min_other = math.inf
    for m in range(6):
        for n in range(m, 6):
            if m == 0 and n == 0:
                continue
            gap = abs(d_L(states[m], states[n]) - math.sqrt(d_L2(states[m], states[n])))
            min_other = min(min_other, gap)
    # Equality must single out the vacuum diagonal: everywhere else the
    # length operator's root drops strictly below the square root of the
    # square length.
    r3 = tol / min_other
    ratio = max(r1, r2, r3)
    return ratio, (
        f"floor residual {abs(floor - 2 * theta):.3e}, vacuum length residual "
        f"{gap00:.3e} (tol 1e-6); nearest off-vacuum equality gap {min_other:.3e}"
    )


def _random_state(ctx: FockContext, rng: np.random.Generator):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return eigenstate(ctx, int(rng.integers(0, 6)))
    if kind == 1:
        shift = complex(*(0.7 * rng.standard_normal(2)))
        return displace(eigenstate(ctx, int(rng.integers(0, 3))), shift)
    if kind == 2:
        label = complex(*(0.6 * rng.standard_normal(2)))
        return coherent_state(ctx, label)
    idx = sorted(rng.choice(7, size=2, replace=False).tolist())
    coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return superposition_state(ctx, idx, coeffs.tolist())


# Criterion 5 draws its random pairs from a generator of its own, and
# checks them at a budget of its own, fixed whatever the run's settings.
_C5_PAIR_SEED = (0, 5)
_C5_LIGHT = SolverConfig(iterations=80)


def _c5_pythagoras(st: SuiteSettings) -> tuple[float, str]:
    """Doubled-sheet quadrature: closed equality plus solver brackets."""
    ctx = st.ctx
    # corner amplitudes reach |kappa| = 2, the edge of the checked range
    vals = (-math.sqrt(2.0), 0.0, math.sqrt(2.0))
    points = [complex(x, y) for x in vals for y in vals]
    worst_eq = 0.0
    count = 0
    for m in range(4):
        base = eigenstate(ctx, m)
        shifted = {p: displace(base, p) for p in points}
        d_i2 = d_L2(base, base)
        for i, p in enumerate(points):
            for q in points[i:]:
                s1, s2 = shifted[p], shifted[q]
                lhs = abs(p - q) ** 2 + d_i2
                rhs = modified_length(s1, s2) ** 2 + math.sqrt(
                    d_L2(s1, s1) * d_L2(s2, s2)
                )
                worst_eq = max(worst_eq, abs(lhs - rhs) / max(1.0, rhs))
                count += 1

    sctx = st.solver_ctx
    scalc = DiracCalculus(sctx)
    doubles = [make_doubled(scalc, reference_lambda(scalc, m)) for m in range(3)]
    rng = np.random.default_rng(_C5_PAIR_SEED)
    violations = 0
    slack = 0.0
    bracketed, widest, rose = 0, 0.0, 0
    for k in range(st.pair_count):
        s1 = _random_state(sctx, rng)
        s2 = _random_state(sctx, rng)
        dd = doubles[k % len(doubles)]
        try:
            res = pythagoras_check(dd, s1, s2, _C5_LIGHT)
        except ArithmeticError:
            violations += 1
            continue
        slack = max(slack, (res.lhs - res.rhs_lo) / max(1.0, res.rhs_hi - res.rhs_lo))
        rose += res.lhs > res.rhs_lo + sctx.tol * max(1.0, res.rhs_lo)
        if res.upper is not None:
            bracketed += 1
            widest = max(widest, math.sqrt(res.upper / res.lhs) - 1.0)
    ratio = max(worst_eq / 1e-6, math.inf if violations else 0.0)
    return ratio, (
        f"{count} closed family pairs; worst equality residual = {worst_eq:.3e} "
        f"(tol 1e-6); {st.pair_count} random pairs with {violations} bracket "
        f"violations (max bracket position {slack:.3f}); {bracketed} carry an "
        f"upper bound (widest relative bracket {widest:.3e}) and {rose} rose "
        "above the lift"
    )


def _c6_identification(st: SuiteSettings) -> tuple[float, str]:
    """Spectral distance vs modified length: equality on one family,
    shrinking relative gap across families."""
    ctx = st.ctx
    calc = DiracCalculus(ctx)
    vals = np.linspace(-math.sqrt(2.0), math.sqrt(2.0), 5)
    points = list(
        dict.fromkeys(
            complex(x, y) for x in (0.0, *vals[:3]) for y in (0.0, vals[1])
        )
    )
    base = eigenstate(ctx, 0)
    shifted = {p: displace(base, p) for p in points}
    worst_eq = 0.0
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            dmod = modified_length(shifted[p], shifted[q])
            worst_eq = max(worst_eq, abs(dmod - abs(p - q)))

    _, shift, level = identification_sweep(calc, 0, [complex(k) for k in range(11)])
    first_level, last_level, shift_ten = level[0], level[-1], shift[10]
    r_first = abs(first_level.rel_gap - 0.0341) / 1e-4
    r_level = last_level.rel_gap / 0.01
    r_shift = shift_ten.rel_gap / 0.01
    ratio = max(worst_eq / 1e-6, r_first, r_level, r_shift)
    return ratio, (
        f"family equality residual {worst_eq:.3e} (tol 1e-6); gap(0,1) = "
        f"{first_level.rel_gap:.6f} (target 0.0341 +- 1e-4); gap at n={last_level.separation} = "
        f"{last_level.rel_gap:.5f} and at |dk|=10 = {shift_ten.rel_gap:.5f} (both < 0.01)"
    )


def _c7_counterexample(st: SuiteSettings) -> tuple[float, str]:
    """Frozen obstruction residual, reproduced through literal pair traces."""
    ctx = st.ctx
    tol = 1e-4
    res = counterexample_L2prime(ctx, 0, 2, 4, 6)
    r1 = abs(res.residual - 2.04412) / tol

    # Literal Kronecker assembly, kept apart from the sector blocks behind
    # the closed route so that the two routes stay independent.
    n = ctx.trunc_dim
    a = annihilation(ctx).mat.real
    h = hamiltonian(ctx).mat.real
    eye = np.eye(n)
    l2 = np.kron(h, eye)
    l2 += np.kron(eye, h)
    l2 -= np.kron(a, a.T)
    l2 -= np.kron(a.T, a)
    l2 *= 2.0
    t4 = l2.reshape(n, n, n, n)

    def pair(sa, sb) -> float:
        return float(np.einsum("ij,kl,jlik->", sa.rho, sb.rho, t4).real)

    def dmod2(sa, sb) -> float:
        return abs(pair(sa, sb) - math.sqrt(pair(sa, sa) * pair(sb, sb)))

    i, j, k, l = 0, 2, 4, 6
    target = eigenstate(ctx, l)
    triple = superposition_state(ctx, [i, j, k], [1.0, 1.0, 1.0])
    lhs = 3.0 * dmod2(triple, target)
    rhs = 0.0
    for a, b in ((i, j), (i, k), (j, k)):
        rhs += 2.0 * dmod2(superposition_state(ctx, [a, b], [1.0, 1.0]), target)
    for a in (i, j, k):
        rhs -= dmod2(eigenstate(ctx, a), target)
    tensor_residual = lhs - rhs
    r2 = abs(res.residual - tensor_residual) / tol
    ratio = max(r1, r2)
    return ratio, (
        f"closed-route residual {res.residual:.6f} (frozen 2.04412 +- 1e-4); "
        f"tensor-route residual {tensor_residual:.6f}, route gap "
        f"{abs(res.residual - tensor_residual):.3e}"
    )


def _c8_optimal_elements(st: SuiteSettings) -> tuple[float, str]:
    """Unit seminorm, derivative defect and the radial-element gap."""
    ctx = st.ctx
    calc = DiracCalculus(ctx)
    s_elt = lipschitz_seminorm(calc, optimal_element_translation(calc, 0.0))
    r1 = abs(s_elt - 1.0) / 1e-10
    # The derivative as the literal commutator -[a*, A] / theta with the
    # creation operator, kept apart from the calculus behind the ladder
    # element's own defect check.
    chain = optimal_element_eigenstates(calc, upto=6).mat
    ad = creation(ctx).mat
    d = -(ad @ chain - chain @ ad) / ctx.theta
    defect = np.eye(ctx.trunc_dim) - 2.0 * (d @ d.conj().T)
    m = ctx.interior_dim
    want = np.zeros((m, m))
    want[0, 0] = 1.0
    defect_resid = float(np.abs(defect[:m, :m] - want).max())
    r2 = defect_resid / 1e-12
    # The radial-element gap against the moment route of the modified
    # length, which never forms the radial element.
    disc = length_vs_optimal_discrepancy(calc, 0, 1)
    moment = modified_length(eigenstate(ctx, 0), eigenstate(ctx, 1))
    radial_resid = abs(disc.d_L_mod - moment)
    r3 = radial_resid / 1e-8
    ratio = max(r1, r2, r3)
    return ratio, (
        f"translation seminorm residual {abs(s_elt - 1):.2e} (tol 1e-10); "
        f"defect residual {defect_resid:.2e} (tol 1e-12); radial gap vs moment "
        f"route {radial_resid:.2e} (tol 1e-8)"
    )


def _c9_star_oracle(st: SuiteSettings) -> tuple[float, str]:
    """Quadrature vs matrix route within the certified bound; round-trip."""
    theta = st.ctx.theta
    f0 = vacuum_symbol(theta, 8.0, 1.0 / 16.0)
    worst_bound = 0.0
    worst_match = 0.0
    worst_four = 0.0
    for x in ((0.0, 0.0), (0.5, -0.25)):
        val, bound = star_integral_report(f0, f0, x, theta=theta)
        want = 2.0 * math.exp(-(x[0] ** 2 + x[1] ** 2) / theta)
        worst_bound = max(worst_bound, bound)
        worst_match = max(worst_match, abs(val - want) / bound)
        four = star_fourier(f0, f0, x, theta=theta)
        worst_four = max(worst_four, abs(four - val))
    ratio = max(worst_bound / 1e-5, worst_match, worst_four / 1e-6)
    return ratio, (
        f"two evaluation points; bound {worst_bound:.2e} (cap 1e-5), route "
        f"mismatch at {worst_match:.3f} of the bound, round-trip drift "
        f"{worst_four:.2e} (tol 1e-6)"
    )


def _c10_property_floor(st: SuiteSettings) -> tuple[float, str]:
    """Metric axioms, uncertainty floor and truncation-halving stability."""
    ctx = st.ctx
    calc = DiracCalculus(ctx)
    theta = ctx.theta
    diag = [eigenstate(ctx, m) for m in range(5)]
    diag.append(mixed_state([diag[0], diag[2]], [0.5, 0.5]))
    diag.append(mixed_state([diag[1], diag[3]], [0.3, 0.7]))
    dist = {}
    for i, s in enumerate(diag):
        for j, t in enumerate(diag):
            dist[(i, j)] = distance_diagonal_lp(calc, s, t).value
    worst_axiom = 0.0
    for i in range(len(diag)):
        worst_axiom = max(worst_axiom, abs(dist[(i, i)]))
        for j in range(len(diag)):
            worst_axiom = max(worst_axiom, abs(dist[(i, j)] - dist[(j, i)]))
            for k in range(len(diag)):
                worst_axiom = max(
                    worst_axiom, dist[(i, k)] - dist[(i, j)] - dist[(j, k)]
                )

    samples = [
        eigenstate(ctx, 0),
        eigenstate(ctx, 3),
        coherent_state(ctx, 1.0),
        displace(eigenstate(ctx, 1), 0.5 + 0.5j),
        superposition_state(ctx, [0, 1], [1.0, 1.0j]),
    ]
    worst_floor = max(
        theta / 2.0 - uncertainty_product(s) for s in samples
    )

    half = replace(ctx, trunc_dim=ctx.trunc_dim // 2)
    drifts = []
    for make in (
        lambda c: d_L2(coherent_state(c, 1.0), eigenstate(c, 2)),
        lambda c: d_L2(eigenstate(c, 0), eigenstate(c, 0)),
        lambda c: modified_length(displace(eigenstate(c, 0), 0.5), eigenstate(c, 1)),
        lambda c: d_L(eigenstate(c, 0), eigenstate(c, 0)),
        lambda c: float(build_length(c).spectrum[0]),
    ):
        v_full, v_half = make(ctx), make(half)
        drifts.append(abs(v_full - v_half) / max(1.0, abs(v_full)))
    worst_drift = max(drifts)
    ratio = max(worst_axiom / 1e-8, max(0.0, worst_floor) / 1e-8, worst_drift / 1e-6)
    return ratio, (
        f"metric-axiom residual {worst_axiom:.2e} (tol 1e-8); worst dip below "
        f"the theta/2 uncertainty floor {max(0.0, worst_floor):.2e} (tol 1e-8); "
        f"worst halving drift {worst_drift:.2e} (tol 1e-6)"
    )


CRITERIA: tuple[tuple[str, Callable[[SuiteSettings], tuple[float, str]]], ...] = (
    ("eigenstate distance additivity", _c1_additivity),
    ("translation distance certificates", _c2_translation_certificates),
    ("square-length closed form", _c3_square_length),
    ("minimal length floor", _c4_minimal_length),
    ("sheet-doubling quadrature", _c5_pythagoras),
    ("metric identification asymptotics", _c6_identification),
    ("square-length operator obstruction", _c7_counterexample),
    ("optimal element identities", _c8_optimal_elements),
    ("star-product oracle", _c9_star_oracle),
    ("axioms, uncertainty and convergence", _c10_property_floor),
)


def run_one(
    index: int, cfg: RunConfig | None = None, quick: bool = False
) -> CriterionResult:
    """Run a single criterion (1-based index)."""
    if not 1 <= index <= len(CRITERIA):
        raise ValueError(f"criterion index must lie in 1..{len(CRITERIA)}, got {index}")
    name, fn = CRITERIA[index - 1]
    st = settings_from(cfg, quick)
    start = time.perf_counter()
    try:
        worst, detail = fn(st)
        passed = bool(worst <= 1.0)
    except Exception as exc:  # a broken criterion must not kill the battery
        worst, detail, passed = math.inf, f"error: {exc}", False
    return CriterionResult(
        index=index,
        name=name,
        passed=passed,
        worst=float(worst),
        detail=detail,
        seconds=time.perf_counter() - start,
    )


def run_all(
    cfg: RunConfig | None = None,
    quick: bool = False,
    progress: Callable[[CriterionResult], None] | None = None,
) -> list[CriterionResult]:
    """Run the full battery in order, streaming results to ``progress``."""
    results = []
    for index in range(1, len(CRITERIA) + 1):
        res = run_one(index, cfg, quick)
        if progress is not None:
            progress(res)
        results.append(res)
    return results
