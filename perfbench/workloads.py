"""The benchmark's workloads, the checks on their outputs and their layer figures.

Each workload is a closed loop: one client in one process makes the next
library call only after the previous one has returned.  A workload has
three parts:

* ``make_inputs(seed, sizes)``: set-up, the contexts and generated states;
* ``run_pass(inputs, tracer, latencies)``: the timed phase, one pass over a
  fixed op list, returning the library's outputs;
* ``check(inputs, outputs, tracer, checks)``: untimed verification of every
  output against the benchmark's own references.

Only public functions of ``fock``, ``lengthop``, ``spectral``, ``doubling``
and ``starprod`` are called; each timed call is wrapped in a span.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from moyalmetric import QState, eigenstate, make_context
from moyalmetric.doubling import (
    PythagorasResult,
    SheetState,
    doubled_distance,
    make_doubled,
    pythagoras_check,
    reference_lambda,
)
from moyalmetric.lengthop import (
    build_length,
    counterexample_L2prime,
    d_L,
    d_L2,
    modified_length,
)
from moyalmetric.spectral import (
    DiracCalculus,
    SolverConfig,
    closed_form_for,
    distance_diagonal_lp,
    distance_solver,
    lipschitz_seminorm,
    optimal_element_translation,
)
from moyalmetric.starprod import star_fourier, star_integral_report, vacuum_symbol

import inputs
from spans import Tracer

THETA = 1.0
QUICK = SolverConfig(iterations=300, restarts=2, seed=0)  # the `suite --quick` budget
LIGHT = SolverConfig(iterations=80, restarts=1, seed=0)  # the two-sheet gate's budget
GROUPS = ("translation", "diagonal", "general")

# Frozen reference values and tolerances of the output checks.
FEASIBILITY_CAP = 1.0 + 1e-8
VALUE_TOL = 1e-6
EXACT_TOL = 1e-9
OBSTRUCTION_RESIDUAL = 2.04412
OBSTRUCTION_TOL = 1e-4
STAR_BOUND_CAP = 1e-5
STAR_POINTS = ((0.0, 0.0), (0.5, -0.25))


@dataclass(frozen=True)
class Sizes:
    """Problem sizes: ``FULL`` for untraced runs, ``PROBE`` for traced ones,
    ``TINY`` for the smoke test."""

    solver_n: int  # truncation of both solver workloads
    length_ns: tuple[int, ...]  # truncations of the exact routes, ascending
    pairs_per_group: int  # single-sheet pairs per group
    pyth_pairs: int  # two-sheet random pairs, cycling the rung over families 0-2
    family_pairs: int  # two-sheet opposite-sheet pairs from one family
    d_L_pairs: int  # warm pair traces at each length size


# Untraced exact-routes passes stop at N=48: one cold N=64 pass (~37 s, most
# of it one memory-bound eigh) is a single sample per run and spread past
# every bound on a shared machine, while at N<=48 a run fits several.
FULL = Sizes(48, (16, 32, 48), 8, 5, 2, 8)
# Traced runs pass once over every workload, so they use shorter op lists
# and add the N=64 length operator.
PROBE = Sizes(48, (16, 32, 48, 64), 2, 3, 1, 8)
TINY = Sizes(16, (16,), 1, 3, 1, 4)
SIZES = {"full": FULL, "probe": PROBE, "tiny": TINY}
TRACED_SIZES = {"full": "probe", "probe": "probe", "tiny": "tiny"}


class Checks:
    """Counts checked outputs and notes the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str, count: int = 1, bad: int | None = None) -> None:
        """Record ``count`` outputs, ``bad`` of them failed (all when not ok)."""
        self.attempted += count
        bad = (0 if ok else count) if bad is None else bad
        if bad:
            self.failed += bad
            if len(self.notes) < 20:
                self.notes.append(what)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes = (self.notes + other.notes)[:20]


@dataclass
class Figures:
    """Outcome of checking one pass: certified values against the
    benchmark's references, and non-timing layer figures."""

    certified: float = 0.0
    reference: float = 0.0
    layer: dict[str, float] = field(default_factory=dict)


def _pairing(drho: np.ndarray, mat: np.ndarray) -> float:
    """Re tr(drho mat)."""
    return float(np.sum(drho * mat.T).real)


def _is_diagonal(state: QState) -> bool:
    rho = state.rho
    return float(np.abs(rho - np.diag(np.diag(rho))).max()) <= state.ctx.tol


def eigen_sum(m: int, n: int) -> float:
    """The additive number-state distance, summed by the benchmark itself."""
    lo, hi = sorted((m, n))
    return math.sqrt(THETA) * sum(1.0 / math.sqrt(2.0 * k) for k in range(lo + 1, hi + 1))


def seeded_candidates(
    calc: DiracCalculus, s1: QState, s2: QState, tracer: Tracer, op: int
) -> dict[str, float]:
    """Values of the seeded certificates a solver must at least reach: the
    phase-aligned translation element, the LP and the closed form."""
    drho = s1.rho - s2.rho
    drho = 0.5 * (drho + drho.conj().T)
    out: dict[str, float] = {}
    gap = s2.mean_ladder - s1.mean_ladder
    if abs(gap) > 1e-12:
        with tracer.span("spectral.optimal_element_translation", op):
            elt = optimal_element_translation(calc, math.atan2(gap.imag, gap.real))
        with tracer.span("spectral.lipschitz_seminorm", op):
            norm = lipschitz_seminorm(calc, elt)
        out["translation"] = abs(_pairing(drho, elt.mat)) / norm
    if _is_diagonal(s1) and _is_diagonal(s2):
        with tracer.span("spectral.distance_diagonal_lp", op):
            out["lp"] = distance_diagonal_lp(calc, s1, s2).value
    with tracer.span("spectral.closed_form_for", op):
        closed = closed_form_for(calc, s1, s2)
    if closed is not None:
        out["closed"] = closed.value
    return out


def single_route(
    calc: DiracCalculus, s1: QState, s2: QState, cfg: SolverConfig, tracer: Tracer, op: int
) -> float:
    """Closed form, else the LP, else the solver: the one-sheet value the
    two-sheet check stands on, computed by the benchmark."""
    with tracer.span("bench.single_route", op):
        with tracer.span("spectral.closed_form_for", op):
            closed = closed_form_for(calc, s1, s2)
        if closed is not None:
            return closed.value
        if _is_diagonal(s1) and _is_diagonal(s2):
            with tracer.span("spectral.distance_diagonal_lp", op):
                return distance_diagonal_lp(calc, s1, s2).value
        with tracer.span("spectral.distance_solver", op):
            return distance_solver(calc, s1, s2, cfg).value


# ---------------------------------------------------------------------------
# single-sheet: the seeded ascent on one sheet


@dataclass(frozen=True)
class SingleInputs:
    calc: DiracCalculus
    pairs: list[inputs.Pair]


class SingleSheet:
    name = "single-sheet"
    cold = False

    @staticmethod
    def make_inputs(seed: int, sizes: Sizes) -> SingleInputs:
        rng = inputs.rng_for(seed, SingleSheet.name)
        ctx = make_context(sizes.solver_n, THETA)
        pairs = []
        for i in range(sizes.pairs_per_group):
            pairs.append(inputs.translation_pair(ctx, rng))
            pairs.append(inputs.diagonal_pair(ctx, rng, i))
            pairs.append(inputs.general_pair(ctx, rng, i))
        return SingleInputs(DiracCalculus(ctx), pairs)

    @staticmethod
    def run_pass(inp: SingleInputs, tracer: Tracer, latencies: list[float]) -> list:
        out = []
        for i, p in enumerate(inp.pairs):
            with tracer.span("spectral.distance_solver", i, group=p.group):
                start = perf_counter()
                out.append(distance_solver(inp.calc, p.s1, p.s2, QUICK))
                latencies.append(perf_counter() - start)
        return out

    @staticmethod
    def values(reports: list) -> list[float]:
        return [rep.value for rep in reports]

    @staticmethod
    def check(inp: SingleInputs, reports: list, tracer: Tracer, checks: Checks) -> Figures:
        fig = Figures()
        wins = 0
        for i, (p, rep) in enumerate(zip(inp.pairs, reports)):
            feasible = rep.certificate is not None and rep.feasibility <= FEASIBILITY_CAP
            if rep.certificate is not None:
                with tracer.span("spectral.lipschitz_seminorm", i):
                    feasible = feasible and lipschitz_seminorm(inp.calc, rep.certificate) <= FEASIBILITY_CAP
            cands = seeded_candidates(inp.calc, p.s1, p.s2, tracer, i)
            ref = max(cands.values(), default=0.0)
            ok = feasible and rep.value >= ref - EXACT_TOL
            if p.group == "translation":
                ok = ok and abs(rep.value - abs(p.kappa)) <= VALUE_TOL
            elif p.group == "diagonal":
                ok = ok and abs(rep.value - cands["lp"]) <= VALUE_TOL
            checks.expect(ok, f"single-sheet pair {i} ({p.group}): value {rep.value!r}, "
                              f"feasibility {rep.feasibility!r}, candidates {cands}")
            wins += rep.value > ref + EXACT_TOL
            fig.certified += rep.value
            fig.reference += ref
        fig.layer["spectral.ascent_win_ratio"] = wins / len(reports)
        return fig


# ---------------------------------------------------------------------------
# two-sheet: the doubled ascent behind the Pythagoras bracket


@dataclass(frozen=True)
class TwoInputs:
    calc: DiracCalculus
    doubles: list
    pyth: list[inputs.Pair]
    family: list[tuple[int, inputs.Pair]]


class TwoSheet:
    name = "two-sheet"
    cold = False

    @staticmethod
    def make_inputs(seed: int, sizes: Sizes) -> TwoInputs:
        rng = inputs.rng_for(seed, TwoSheet.name)
        ctx = make_context(sizes.solver_n, THETA)
        calc = DiracCalculus(ctx)
        doubles = [make_doubled(calc, reference_lambda(calc, m)) for m in range(3)]
        pyth = [
            inputs.Pair("random", inputs.random_state(ctx, rng), inputs.random_state(ctx, rng))
            for _ in range(sizes.pyth_pairs)
        ]
        family = [(k % 3, inputs.family_pair(ctx, rng, k % 3)) for k in range(sizes.family_pairs)]
        return TwoInputs(calc, doubles, pyth, family)

    @staticmethod
    def run_pass(inp: TwoInputs, tracer: Tracer, latencies: list[float]) -> list:
        out = []
        for i, p in enumerate(inp.pyth):
            with tracer.span("doubling.pythagoras_check", i):
                start = perf_counter()
                try:
                    out.append(pythagoras_check(inp.doubles[i % 3], p.s1, p.s2, LIGHT))
                except ArithmeticError as exc:  # the library's bracket violation
                    out.append(exc)
                latencies.append(perf_counter() - start)
        for j, (m, p) in enumerate(inp.family):
            op = len(inp.pyth) + j
            with tracer.span("doubling.doubled_distance", op):
                start = perf_counter()
                out.append(doubled_distance(
                    inp.doubles[m], SheetState(p.s1, 1), SheetState(p.s2, 2), LIGHT))
                latencies.append(perf_counter() - start)
        return out

    @staticmethod
    def values(outs: list) -> list[float]:
        return [
            math.nan if isinstance(o, ArithmeticError)
            else o.lhs if isinstance(o, PythagorasResult) else o.value
            for o in outs
        ]

    @staticmethod
    def check(inp: TwoInputs, outs: list, tracer: Tracer, checks: Checks) -> Figures:
        fig = Figures()
        wins = 0
        for i, (p, res) in enumerate(zip(inp.pyth, outs)):
            if isinstance(res, ArithmeticError):
                checks.expect(False, f"two-sheet pair {i}: {res}")
                continue
            d_i = inp.doubles[i % 3].internal_distance
            own = single_route(inp.calc, p.s1, p.s2, LIGHT, tracer, i)
            scale = max(1.0, res.rhs_equal)
            ok = (
                abs(own**2 + d_i**2 - res.rhs_equal) <= EXACT_TOL * scale
                and res.rhs_lo - VALUE_TOL * scale <= res.lhs <= res.rhs_hi + VALUE_TOL * scale
            )
            checks.expect(ok, f"two-sheet pair {i}: lhs {res.lhs!r}, bracket "
                              f"[{res.rhs_lo!r}, {res.rhs_hi!r}], own single route {own!r}")
            wins += res.lhs > res.rhs_lo + EXACT_TOL * scale
            fig.certified += math.sqrt(res.lhs)
            fig.reference += math.hypot(own, d_i)
        for j, ((m, p), rep) in enumerate(zip(inp.family, outs[len(inp.pyth):])):
            want = math.hypot(abs(p.kappa), inp.doubles[m].internal_distance)
            ok = abs(rep.value - want) <= EXACT_TOL * max(1.0, want) and rep.feasibility <= FEASIBILITY_CAP
            checks.expect(ok, f"two-sheet family pair {j}: value {rep.value!r}, want {want!r}")
            fig.certified += rep.value
            fig.reference += want
        fig.layer["doubling.ascent_win_ratio"] = wins / len(inp.pyth)
        return fig


# ---------------------------------------------------------------------------
# exact-routes: the pair-space length operator, the LP and the star product


def rss_mb() -> float:
    """Resident set size of this process now (Linux)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmRSS line in /proc/self/status")


@dataclass(frozen=True)
class LengthSize:
    ctx: object
    grid: list  # (level, shift, state) of the displaced grid
    d_L_pairs: list[tuple[QState, QState]]  # the first pair is (e0, e0)


@dataclass(frozen=True)
class ExactInputs:
    sizes: list[LengthSize]
    number_pairs: list[tuple[int, int]]
    symbol: object


class ExactRoutes:
    name = "exact-routes"
    cold = True  # each pass runs in a fresh process, with no length operator cached

    @staticmethod
    def make_inputs(seed: int, sizes: Sizes) -> ExactInputs:
        rng = inputs.rng_for(seed, ExactRoutes.name)
        out = []
        for n in sizes.length_ns:
            ctx = make_context(n, THETA)
            grid = inputs.displaced_grid(ctx)
            e0 = eigenstate(ctx, 0)
            picks = rng.integers(0, len(grid), size=(sizes.d_L_pairs - 1, 2))
            pairs = [(e0, e0)] + [(grid[a][2], grid[b][2]) for a, b in picks]
            out.append(LengthSize(ctx, grid, pairs))
        number_pairs = [(m, n) for m in range(12) for n in range(m + 1, 12)]
        return ExactInputs(out, number_pairs, vacuum_symbol(THETA, 8.0, 1.0 / 16.0))

    @staticmethod
    def run_pass(inp: ExactInputs, tracer: Tracer, latencies: list[float]) -> dict:
        start = perf_counter()
        out: dict = {"sizes": []}
        top = inp.sizes[-1]
        for size in inp.sizes:
            n = size.ctx.trunc_dim
            rec: dict = {}
            rss_before = rss_mb()
            with tracer.span("lengthop.build_length", n=n):
                op = build_length(size.ctx)
            with tracer.span("lengthop.spectrum", n=n):
                rec["floor"] = float(op.spectrum[0])
            with tracer.span("lengthop.L", n=n):
                rec["root_shape"] = op.L.shape
            rec["rss_growth"] = rss_mb() - rss_before
            rec["L2_shape"] = op.L2.shape
            rec["d_L"] = []
            for k, (a, b) in enumerate(size.d_L_pairs):
                with tracer.span("lengthop.d_L", k, n=n):
                    rec["d_L"].append(d_L(a, b))
            states = [s for _, _, s in size.grid]
            with tracer.span("lengthop.d_L2", n=n, calls=len(states) ** 2):
                rec["d_L2"] = [d_L2(a, b) for a in states for b in states]
            with tracer.span("lengthop.modified_length", n=n, calls=len(states) ** 2):
                rec["modified"] = [modified_length(a, b) for a in states for b in states]
            out["sizes"].append(rec)
        with tracer.span("lengthop.counterexample_L2prime", n=top.ctx.trunc_dim):
            out["obstruction"] = counterexample_L2prime(top.ctx, 0, 2, 4, 6).residual
        calc = DiracCalculus(top.ctx)
        out["lp"], out["closed"] = [], []
        for k, (m, n) in enumerate(inp.number_pairs):
            a, b = eigenstate(top.ctx, m), eigenstate(top.ctx, n)
            with tracer.span("spectral.distance_diagonal_lp", k):
                out["lp"].append(distance_diagonal_lp(calc, a, b))
            with tracer.span("spectral.closed_form_for", k):
                out["closed"].append(closed_form_for(calc, a, b))
        out["star"] = []
        for k, x in enumerate(STAR_POINTS):
            with tracer.span("starprod.star_integral_report", k):
                val, bound = star_integral_report(inp.symbol, inp.symbol, x, theta=THETA)
            with tracer.span("starprod.star_fourier", k):
                four = star_fourier(inp.symbol, inp.symbol, x, theta=THETA)
            out["star"].append((val, bound, four))
        # One op is the whole cold pass, as one `spectrum`/`qlength` process
        # runs it; its short calls drift too much between runs to bound.
        latencies.append(perf_counter() - start)
        return out

    @staticmethod
    def check(inp: ExactInputs, out: dict, tracer: Tracer, checks: Checks) -> Figures:
        fig = Figures()
        for size, rec in zip(inp.sizes, out["sizes"]):
            n = size.ctx.trunc_dim
            checks.expect(rec["L2_shape"] == (n * n, n * n), f"N={n}: L2 shape {rec['L2_shape']}")
            checks.expect(abs(rec["floor"] - 2 * THETA) <= VALUE_TOL,
                          f"N={n}: min Sp(L2) = {rec['floor']!r}, want 2 theta")
            checks.expect(rec["root_shape"] == (n * n, n * n)
                          and abs(rec["d_L"][0] - math.sqrt(2 * THETA)) <= VALUE_TOL,
                          f"N={n}: d_L(e0, e0) = {rec['d_L'][0]!r}, want sqrt(2 theta)")
            for (a, b), v in zip(size.d_L_pairs, rec["d_L"]):
                checks.expect(v <= math.sqrt(d_L2(a, b)) + EXACT_TOL,
                              f"N={n}: d_L {v!r} above sqrt(d_L2)")
            levels = np.array([m for m, _, _ in size.grid])
            shifts = np.array([p for _, p, _ in size.grid])
            energy = THETA * (levels + 0.5)
            want = (2 * energy[:, None] + 2 * energy[None, :]
                    + np.abs(shifts[:, None] - shifts[None, :]) ** 2).ravel()
            got = np.array(rec["d_L2"])
            bad = int(np.count_nonzero(~(np.abs(got - want) <= VALUE_TOL)))
            checks.expect(bad == 0, f"N={n}: {bad} d_L2 values off the closed form",
                          count=got.size, bad=bad)
            # Translates of one level: the modified length is the shift.
            same = (levels[:, None] == levels[None, :]).ravel()
            dist = np.abs(shifts[:, None] - shifts[None, :]).ravel()
            mod = np.array(rec["modified"])
            good = np.isfinite(mod) & (mod >= 0) & (~same | (np.abs(mod - dist) <= VALUE_TOL))
            bad = int(np.count_nonzero(~good))
            checks.expect(bad == 0, f"N={n}: {bad} modified lengths off", count=mod.size, bad=bad)
            fig.layer[f"lengthop.rss_mb.N{n}"] = rec["rss_growth"]
        checks.expect(abs(out["obstruction"] - OBSTRUCTION_RESIDUAL) <= OBSTRUCTION_TOL,
                      f"obstruction residual {out['obstruction']!r}")
        for (m, n), lp, closed in zip(inp.number_pairs, out["lp"], out["closed"]):
            want = eigen_sum(m, n)
            checks.expect(abs(lp.value - want) <= EXACT_TOL and lp.feasibility <= FEASIBILITY_CAP,
                          f"LP ({m}, {n}) = {lp.value!r}, want {want!r}")
            checks.expect(closed is not None and abs(closed.value - want) <= EXACT_TOL,
                          f"closed form ({m}, {n}) = {closed}, want {want!r}")
            fig.certified += lp.value + (closed.value if closed is not None else 0.0)
            fig.reference += 2 * want
        for x, (val, bound, four) in zip(STAR_POINTS, out["star"]):
            want = 2.0 * math.exp(-(x[0] ** 2 + x[1] ** 2) / THETA)
            checks.expect(bound < STAR_BOUND_CAP and abs(val - want) <= bound
                          and abs(four - val) <= bound,
                          f"star at {x}: integral {val!r}, fourier {four!r}, bound {bound!r}")
        return fig


WORKLOADS = {w.name: w for w in (SingleSheet, TwoSheet, ExactRoutes)}


def layer_metrics(tracer: Tracer, figures: dict[str, Figures], sizes: Sizes) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass of every workload."""

    def median(name: str, workload: str, scale: float, **match) -> float:
        return statistics.median(tracer.durations(name, workload=workload, **match)) * scale

    out: dict[str, tuple[float, str]] = {}
    for n in sizes.length_ns:
        ex = ExactRoutes.name
        out[f"lengthop.assemble_s.N{n}"] = (median("lengthop.build_length", ex, 1, n=n), "s")
        out[f"lengthop.eigh_s.N{n}"] = (median("lengthop.spectrum", ex, 1, n=n), "s")
        out[f"lengthop.sqrt_s.N{n}"] = (median("lengthop.L", ex, 1, n=n), "s")
        out[f"lengthop.d_L_ms.N{n}"] = (median("lengthop.d_L", ex, 1e3, n=n), "ms")
    top = sizes.length_ns[-1]
    [d2] = [s for s in tracer.spans if s["name"] == "lengthop.d_L2" and s["n"] == top]
    out["lengthop.d_L2_us"] = ((d2["end"] - d2["start"]) / d2["calls"] * 1e6, "us")
    out["lengthop.obstruction_s"] = (median("lengthop.counterexample_L2prime", ExactRoutes.name, 1), "s")
    out[f"lengthop.rss_mb.N{top}"] = (figures[ExactRoutes.name].layer[f"lengthop.rss_mb.N{top}"], "MB")

    ss = SingleSheet.name
    out["spectral.seminorm_us"] = (median("spectral.lipschitz_seminorm", ss, 1e6), "us")
    solver = tracer.durations("spectral.distance_solver", workload=ss)
    for group in GROUPS:
        out[f"spectral.solver_ms.{group}"] = (
            median("spectral.distance_solver", ss, 1e3, group=group), "ms")
    out["spectral.iter_us"] = (
        statistics.median(solver) / (QUICK.iterations * QUICK.restarts) * 1e6, "us")
    out["spectral.ascent_win_ratio"] = (figures[ss].layer["spectral.ascent_win_ratio"], "ratio")
    out["spectral.lp_us"] = (median("spectral.distance_diagonal_lp", ExactRoutes.name, 1e6), "us")
    out["spectral.closed_form_us"] = (median("spectral.closed_form_for", ExactRoutes.name, 1e6), "us")

    ts = TwoSheet.name
    out["doubling.pyth_ms"] = (median("doubling.pythagoras_check", ts, 1e3), "ms")
    out["doubling.doubled_distance_ms"] = (median("doubling.doubled_distance", ts, 1e3), "ms")
    out["doubling.single_route_ms"] = (median("bench.single_route", ts, 1e3), "ms")
    out["doubling.ascent_win_ratio"] = (figures[ts].layer["doubling.ascent_win_ratio"], "ratio")

    out["starprod.integral_ms"] = (median("starprod.star_integral_report", ExactRoutes.name, 1e3), "ms")
    out["starprod.fourier_ms"] = (median("starprod.star_fourier", ExactRoutes.name, 1e3), "ms")
    return out
