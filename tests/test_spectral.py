"""Oracle tests for the Dirac calculus, spectral distances and optimal elements.

Reference values are recomputed in the tests from the level energies and
partial sums; brute-force enumerations back the linear-program reduction.
"""
import cmath
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from moyalmetric import (
    LeakageError,
    Operator,
    QState,
    coherent_state,
    displace,
    displacement_operator,
    eigenstate,
    evaluate,
    identity,
    make_context,
    mixed_state,
    quadratures,
    superposition_state,
)
from moyalmetric.spectral import (
    DiracCalculus,
    DistanceReport,
    SolverConfig,
    closed_form_for,
    distance_diagonal_lp,
    distance_solver,
    length_vs_optimal_discrepancy,
    lipschitz_seminorm,
    optimal_element_eigenstates,
    optimal_element_translation,
    _corner_adjoint,
    _dual_upper,
    _eigen_sum,
    _first_kernel,
    _hermitize,
    _lp_dual,
    _mean_kernel,
    _objective,
    _path_moments,
    _one_sheet,
    _project,
    _sheet_seminorm,
    _single_route,
    _splitting_loop,
    _top_singular_value,
    _translation_amplitude,
    _translation_dual,
    _translation_seed,
)
from moyalmetric.doubling import _two_sheets, make_doubled, reference_lambda
from moyalmetric.fock import _displacement_eigh


def eigen_distance(m, n, theta=1.0):
    lo, hi = sorted((m, n))
    lam = math.sqrt(theta)
    return lam * sum(1.0 / math.sqrt(2 * k) for k in range(lo + 1, hi + 1))


class TestDiracCalculus:
    def test_holomorphic_derivative_of_ladder(self, ctx32):
        calc = DiracCalculus(ctx32)
        from moyalmetric import annihilation

        d = calc.dz(annihilation(ctx32)).mat
        m = ctx32.interior_dim
        assert np.abs(d[:m, :m] - np.eye(m)).max() < 1e-13

    def test_antiholomorphic_derivative_of_raising(self, ctx32):
        calc = DiracCalculus(ctx32)
        from moyalmetric import creation

        d = calc.dzbar(creation(ctx32)).mat
        m = ctx32.interior_dim
        assert np.abs(d[:m, :m] - np.eye(m)).max() < 1e-13

    def test_mixed_derivative_vanishes(self, ctx32):
        calc = DiracCalculus(ctx32)
        from moyalmetric import creation

        assert np.abs(calc.dz(creation(ctx32)).mat).max() < 1e-14

    def test_derivatives_commute_on_interior(self, ctx32):
        from moyalmetric import annihilation, creation

        calc = DiracCalculus(ctx32)
        a = annihilation(ctx32)
        ad = creation(ctx32)
        f = Operator(ctx32, a.mat @ a.mat + ad.mat @ a.mat)
        one = calc.dz(calc.dzbar(f)).mat
        two = calc.dzbar(calc.dz(f)).mat
        m = ctx32.interior_dim
        assert np.abs(one[:m, :m] - two[:m, :m]).max() < 1e-12


class TestSeminorm:
    def test_identity_has_zero_seminorm(self, ctx32):
        calc = DiracCalculus(ctx32)
        assert lipschitz_seminorm(calc, identity(ctx32)) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("xi", [0.0, 0.7, math.pi / 3, -2.1])
    def test_translation_element_is_unit(self, ctx64, xi):
        calc = DiracCalculus(ctx64)
        el = optimal_element_translation(calc, xi)
        assert lipschitz_seminorm(calc, el) == pytest.approx(1.0, abs=1e-10)

    def test_ladder_element_is_unit(self, ctx64):
        calc = DiracCalculus(ctx64)
        el = optimal_element_eigenstates(calc, upto=10)
        assert lipschitz_seminorm(calc, el) == pytest.approx(1.0, abs=1e-10)

    def test_homogeneity(self, ctx32):
        calc = DiracCalculus(ctx32)
        q1, _ = quadratures(ctx32)
        one = lipschitz_seminorm(calc, q1)
        three = lipschitz_seminorm(calc, Operator(ctx32, 3.0 * q1.mat, hermitian=True))
        assert three == pytest.approx(3.0 * one, rel=1e-12)

    def test_rejects_non_hermitian(self, ctx32):
        from moyalmetric import annihilation

        calc = DiracCalculus(ctx32)
        with pytest.raises(ValueError):
            lipschitz_seminorm(calc, annihilation(ctx32))


class TestClosedForm:
    def test_translation(self, ctx32):
        calc = DiracCalculus(ctx32)
        base = eigenstate(ctx32, 0)
        rep = closed_form_for(calc, base, displace(base, 2.0))
        assert rep.value == pytest.approx(2.0, abs=1e-12)
        assert rep.method == "closed-form"
        assert rep.feasibility <= 1 + 1e-8

    def test_translation_complex_parameter(self, ctx32):
        calc = DiracCalculus(ctx32)
        base = eigenstate(ctx32, 0)
        rep = closed_form_for(calc, base, displace(base, 1.0 - 1.0j))
        assert rep.value == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_adjacent_eigenstates(self, ctx32):
        calc = DiracCalculus(ctx32)
        rep = closed_form_for(calc, eigenstate(ctx32, 0), eigenstate(ctx32, 1))
        assert rep.value == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_additive_chain(self, ctx32):
        calc = DiracCalculus(ctx32)
        level = lambda k: eigenstate(ctx32, k)
        rep = closed_form_for(calc, level(0), level(3))
        want = (1 / math.sqrt(2)) * (1 + 1 / math.sqrt(2) + 1 / math.sqrt(3))
        assert rep.value == pytest.approx(want, abs=1e-12)
        mid = closed_form_for(calc, level(0), level(1)).value
        mid += closed_form_for(calc, level(1), level(3)).value
        assert rep.value == pytest.approx(mid, abs=1e-12)

    def test_unordered_input_normalized(self, ctx32):
        calc = DiracCalculus(ctx32)
        s0, s3 = eigenstate(ctx32, 0), eigenstate(ctx32, 3)
        assert closed_form_for(calc, s3, s0).value == closed_form_for(calc, s0, s3).value

    def test_scale_covariance(self):
        from moyalmetric import make_context

        ctx = make_context(32, 4.0, 1e-10)
        calc = DiracCalculus(ctx)
        rep = closed_form_for(calc, eigenstate(ctx, 0), eigenstate(ctx, 1))
        assert rep.value == pytest.approx(2 / math.sqrt(2), abs=1e-12)

    def test_equal_indices_zero(self, ctx32):
        calc = DiracCalculus(ctx32)
        assert closed_form_for(calc, eigenstate(ctx32, 2), eigenstate(ctx32, 2)).value == 0.0

    def test_certificate_pairing_matches_value(self, ctx32):
        calc = DiracCalculus(ctx32)
        rep = closed_form_for(calc, eigenstate(ctx32, 1), eigenstate(ctx32, 4))
        gap = evaluate(eigenstate(ctx32, 1), rep.certificate) - evaluate(
            eigenstate(ctx32, 4), rep.certificate
        )
        assert abs(gap) == pytest.approx(rep.value, abs=1e-12)

    @pytest.mark.parametrize("levels", ((0, 1), (0, 3), (2, 5)))
    @pytest.mark.parametrize("mu", (0.5, 1.0, 1.5 + 0.5j, -2.0 + 1.0j))
    def test_common_shift_certificate_pairs_the_translated_states(self, ctx48, levels, mu):
        calc = DiracCalculus(ctx48)
        s1, s2 = (displace(eigenstate(ctx48, k), mu) for k in levels)
        rep = closed_form_for(calc, s1, s2)
        assert rep.value == pytest.approx(eigen_distance(*levels), abs=1e-12)
        assert rep.feasibility <= 1 + 1e-12
        gap = evaluate(s1, rep.certificate) - evaluate(s2, rep.certificate)
        assert abs(abs(gap) - rep.value) <= 1e-12

    def test_family_dispatch(self, ctx32):
        calc = DiracCalculus(ctx32)
        s1 = eigenstate(ctx32, 2)
        s2 = displace(eigenstate(ctx32, 2), 0.5 + 0.5j)
        rep = closed_form_for(calc, s1, s2)
        assert rep is not None
        assert rep.value == pytest.approx(abs(0.5 + 0.5j), abs=1e-12)
        rep2 = closed_form_for(calc, eigenstate(ctx32, 0), eigenstate(ctx32, 3))
        assert rep2.value == pytest.approx(eigen_distance(0, 3), abs=1e-12)
        assert closed_form_for(calc, s2, eigenstate(ctx32, 0)) is None


class TestDiagonalLP:
    def test_adjacent_eigenstates(self, ctx32):
        calc = DiracCalculus(ctx32)
        rep = distance_diagonal_lp(calc, eigenstate(ctx32, 0), eigenstate(ctx32, 1))
        assert rep.value == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert rep.increments[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert np.abs(rep.increments[1:]).max() < 1e-12
        assert rep.feasibility <= 1 + 1e-8

    def test_identical_states(self, ctx32):
        calc = DiracCalculus(ctx32)
        s = eigenstate(ctx32, 3)
        assert distance_diagonal_lp(calc, s, s).value == pytest.approx(0.0, abs=1e-14)

    def test_mixed_versus_eigenstate_frozen(self, ctx32):
        calc = DiracCalculus(ctx32)
        mixed = mixed_state([eigenstate(ctx32, 0), eigenstate(ctx32, 1)], [0.5, 0.5])
        rep = distance_diagonal_lp(calc, mixed, eigenstate(ctx32, 2))
        assert rep.value == pytest.approx(0.85355339059327376, abs=1e-12)

    def test_matches_brute_force(self, ctx16):
        # Enumerate extreme increment sequences on the support; increments
        # past the support cannot contribute because the tail sums vanish.
        calc = DiracCalculus(ctx16)
        mixed = mixed_state(
            [eigenstate(ctx16, 0), eigenstate(ctx16, 1), eigenstate(ctx16, 4)],
            [0.3, 0.3, 0.4],
        )
        other = mixed_state([eigenstate(ctx16, 2), eigenstate(ctx16, 3)], [0.5, 0.5])
        rep = distance_diagonal_lp(calc, mixed, other)
        diff = np.diag(other.rho - mixed.rho).real
        caps = [1.0 / math.sqrt(2 * k) for k in range(1, 6)]
        best = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=5):
            alpha = np.concatenate(([0.0], np.cumsum([s * c for s, c in zip(signs, caps)])))
            best = max(best, abs(float(diff[:6] @ alpha)))
        assert rep.value == pytest.approx(best, abs=1e-9)

    def test_matches_closed_form_grid(self, ctx48):
        calc = DiracCalculus(ctx48)
        for m in range(5):
            for n in range(m + 1, 6):
                rep = distance_diagonal_lp(calc, eigenstate(ctx48, m), eigenstate(ctx48, n))
                assert rep.value == pytest.approx(eigen_distance(m, n), abs=1e-9)

    def test_symmetry(self, ctx32):
        calc = DiracCalculus(ctx32)
        s1 = mixed_state([eigenstate(ctx32, 0), eigenstate(ctx32, 3)], [0.7, 0.3])
        s2 = eigenstate(ctx32, 1)
        assert distance_diagonal_lp(calc, s1, s2).value == pytest.approx(
            distance_diagonal_lp(calc, s2, s1).value, abs=1e-13
        )

    def test_triangle_inequality_sampled(self, ctx32):
        calc = DiracCalculus(ctx32)
        states = [
            eigenstate(ctx32, 0),
            eigenstate(ctx32, 2),
            mixed_state([eigenstate(ctx32, 1), eigenstate(ctx32, 3)], [0.5, 0.5]),
            mixed_state([eigenstate(ctx32, 0), eigenstate(ctx32, 4)], [0.25, 0.75]),
        ]
        dist = lambda x, y: distance_diagonal_lp(calc, x, y).value
        for s1, s2, s3 in itertools.permutations(states, 3):
            assert dist(s1, s3) <= dist(s1, s2) + dist(s2, s3) + 1e-8

    def test_rejects_non_diagonal(self, ctx32):
        calc = DiracCalculus(ctx32)
        s = superposition_state(ctx32, [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError):
            distance_diagonal_lp(calc, s, eigenstate(ctx32, 0))

    def test_certificate_evaluation_reaches_value(self, ctx32):
        calc = DiracCalculus(ctx32)
        mixed = mixed_state([eigenstate(ctx32, 1), eigenstate(ctx32, 2)], [0.4, 0.6])
        rep = distance_diagonal_lp(calc, mixed, eigenstate(ctx32, 0))
        gap = evaluate(mixed, rep.certificate) - evaluate(eigenstate(ctx32, 0), rep.certificate)
        assert abs(gap) == pytest.approx(rep.value, abs=1e-12)


QUICK_SOLVER = SolverConfig(iterations=300)


class TestSolver:
    def test_adjacent_eigenstates_lower_bound(self, ctx48):
        calc = DiracCalculus(ctx48)
        rep = distance_solver(calc, eigenstate(ctx48, 0), eigenstate(ctx48, 1), QUICK_SOLVER)
        closed = 1 / math.sqrt(2)
        assert rep.value >= 0.98 * closed
        assert rep.value <= closed + 1e-8
        assert rep.feasibility <= 1 + 1e-8
        assert rep.gap is not None and rep.gap < 0.02 * closed + 1e-8

    def test_translated_eigenstate(self, ctx48):
        calc = DiracCalculus(ctx48)
        phi = eigenstate(ctx48, 2)
        moved = displace(phi, 1.0)
        rep = distance_solver(calc, phi, moved, QUICK_SOLVER)
        assert rep.value >= 0.98
        assert rep.value <= 1.0 + 1e-8
        cert = rep.certificate.mat
        ref = optimal_element_translation(calc, 0.0).mat
        cert_dir = cert / np.linalg.norm(cert)
        ref_dir = ref / np.linalg.norm(ref)
        if float(np.sum((cert_dir * ref_dir.conj()).real)) < 0:
            cert_dir = -cert_dir
        assert np.abs(cert_dir - ref_dir).max() < 1e-3

    def test_identical_states(self, ctx48):
        calc = DiracCalculus(ctx48)
        s = coherent_state(ctx48, 1.0)
        rep = distance_solver(calc, s, s, QUICK_SOLVER)
        assert rep.value == 0.0

    def test_deterministic(self, ctx32):
        # Calls on fresh calculi give the same report bit for bit; nothing
        # reads cfg.restarts or cfg.seed.
        cfg = SolverConfig(iterations=120, restarts=2, seed=5)
        s1 = eigenstate(ctx32, 0)
        s2 = superposition_state(ctx32, [1, 3], [1.0, 1.0])
        one = distance_solver(DiracCalculus(ctx32), s1, s2, cfg)
        assert one.upper is not None
        for other in (cfg, SolverConfig(iterations=120, restarts=7, seed=11)):
            two = distance_solver(DiracCalculus(ctx32), s1, s2, other)
            assert (two.value, two.upper, two.feasibility, two.gap, two.note) == (
                one.value, one.upper, one.feasibility, one.gap, one.note)
            assert two.certificate.mat.tobytes() == one.certificate.mat.tobytes()

    def test_coherent_translation_portfolio(self, ctx48):
        calc = DiracCalculus(ctx48)
        base = coherent_state(ctx48, 1.0)
        moved = displace(base, 0.5j)
        rep = distance_solver(calc, base, moved, QUICK_SOLVER)
        assert rep.value == pytest.approx(0.5, abs=1e-6)
        assert rep.value >= 0.98 * 0.5
        assert rep.feasibility <= 1 + 1e-8

    def test_note_mentions_regularization(self, ctx32):
        # The note names the bounds and the corner definition they hold for.
        calc = DiracCalculus(ctx32)
        rep = distance_solver(
            calc, eigenstate(ctx32, 0), eigenstate(ctx32, 2), QUICK_SOLVER
        )
        assert "regularization" in rep.note
        assert rep.upper is not None and "upper bound over corner elements, levels 0..28" in rep.note

    def test_closed_form_runs_once_on_diagonal_pairs(self, ctx32, monkeypatch):
        from moyalmetric import spectral

        calls = []
        real = spectral.closed_form_for

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(spectral, "closed_form_for", counted)
        calc = DiracCalculus(ctx32)
        rep = distance_solver(calc, eigenstate(ctx32, 0), eigenstate(ctx32, 3),
                              SolverConfig(iterations=5))
        assert len(calls) == 0
        assert rep.gap == pytest.approx(abs(rep.value - eigen_distance(0, 3)), abs=0)

    def test_distance_all_builds_the_ladder_element_once(self, tmp_path, monkeypatch, capsys):
        from moyalmetric import cli, spectral

        calls = []
        real = spectral.optimal_element_eigenstates

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(spectral, "optimal_element_eigenstates", counted)
        rc = cli.main(["distance", "eigen:0", "eigen:3", "--method", "all",
                       "--trunc-dim", "32", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        assert len(calls) == 1


class TestSingleRoute:
    def test_translation_seed_follows_the_mean_gap(self, ctx32):
        calc = DiracCalculus(ctx32)
        base = eigenstate(ctx32, 1)
        assert _translation_seed(calc, base, eigenstate(ctx32, 3)) is None
        kappa = 0.6 - 0.8j
        moved = displace(base, kappa)
        seed = _translation_seed(calc, base, moved)
        assert lipschitz_seminorm(calc, Operator(ctx32, seed)) == pytest.approx(1.0, abs=1e-12)
        assert _objective(moved.rho - base.rho, seed) == pytest.approx(abs(kappa), abs=1e-9)

    def test_routes_in_order(self, ctx32):
        calc = DiracCalculus(ctx32)
        cfg = SolverConfig(iterations=20)
        e0, e2 = eigenstate(ctx32, 0), eigenstate(ctx32, 2)
        cases = [
            (e0, displace(e0, 0.5), "closed-form"),
            (mixed_state([e0, e2], [0.5, 0.5]), e2, "diagonal-lp"),
            (coherent_state(ctx32, 0.5), e2, "convex-solver"),
        ]
        for s1, s2, method in cases:
            assert _single_route(calc, s1, s2, cfg).method == method


ORACLE_DIMS = (8, 16, 24)


@st.composite
def top_pair_cases(draw, m):
    """Complex m x m matrices: generic, with a repeated top singular value,
    or zero, over twelve decades of scale."""
    kind = draw(st.sampled_from(["generic", "repeated", "zero"]))
    if kind == "zero":
        return np.zeros((m, m), dtype=complex)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    if kind == "repeated":
        u, _ = np.linalg.qr(x)
        v, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        sv = np.sort(rng.uniform(0.1, 1.0, m))[::-1]
        sv[1] = sv[0]
        x = (u * sv) @ v.conj().T
    return scale * x


def random_hermitian(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (raw + raw.conj().T)


@pytest.mark.parametrize("n", ORACLE_DIMS)
class TestTopSingularPair:
    @given(data=st.data())
    def test_matches_svd(self, n, data):
        x = data.draw(top_pair_cases(make_context(n, 1.0, 1e-10).interior_dim))
        sigma = _top_singular_value(x)
        want = float(np.linalg.svd(x, compute_uv=False)[0])
        assert abs(sigma - want) <= 1e-12 * want

    @given(seed=st.integers(0, 2**32 - 1))
    def test_sheet_pair_is_seminorm_and_subgradient(self, n, seed):
        # The search seminorm matches the SVD oracle, and the adjoint A* of a
        # top singular pair u v* of A x, which the loop's multiplier becomes
        # at the optimum, is a subgradient there: Euler's identity <S, x> =
        # p(x) and the subgradient inequality p(y) >= <S, y>.
        calc = DiracCalculus(make_context(n, 1.0, 1e-10))
        rng = np.random.default_rng(seed)
        x = random_hermitian(rng, n)
        y = random_hermitian(rng, n)
        p = _sheet_seminorm(calc, x)
        want = lipschitz_seminorm(calc, Operator(calc.ctx, x, hermitian=True))
        assert abs(p - want) <= 1e-12 * want
        u, _, vh = np.linalg.svd(calc._crop(calc._dz(x)))
        sub = _corner_adjoint(calc, np.outer(u[:, 0], vh[0]))
        assert np.array_equal(sub, sub.conj().T)
        assert _objective(sub, x) == pytest.approx(p, rel=1e-10)
        p_y = lipschitz_seminorm(calc, Operator(calc.ctx, y, hermitian=True))
        assert _objective(sub, y) <= p_y * (1 + 1e-10)


def sheets(ctx, weight=1.0):
    """The splitting loop's operations on one sheet and on two, for weight
    times the pairing of two states that no seeded candidate or explicit
    dual serves."""
    calc = DiracCalculus(ctx)
    rho1 = weight * eigenstate(ctx, 0).rho
    rho2 = weight * superposition_state(ctx, [1, 3], [1.0, 1.0j]).rho
    dd = make_doubled(calc, reference_lambda(calc, 0))
    return {
        "one-sheet": _one_sheet(calc, _hermitize(rho1 - rho2)),
        "two-sheet": _two_sheets(dd, _hermitize(np.stack([rho1, -rho2]))),
    }


@pytest.mark.parametrize("sheet", ["one-sheet", "two-sheet"])
class TestSplittingCore:
    def test_projection_meets_the_constraint(self, ctx16, sheet):
        # Pi(W) meets the dual constraint, so its upper bound carries no
        # residual charge; projecting it again moves it by roundoff only;
        # and W - Pi(W) is orthogonal to the directions of the constraint
        # set, which Pi(W) - Pi(0) spans.
        ops = sheets(ctx16)[sheet]
        rng = np.random.default_rng(3)
        w = rng.standard_normal((ops.size,) * 2) + 1j * rng.standard_normal((ops.size,) * 2)
        once = ops.project(w)
        scale = float(np.abs(once).max())
        assert np.abs(ops.project(once) - once).max() <= 1e-12 * scale
        nuclear = float(np.linalg.svd(once, compute_uv=False).sum())
        assert ops.upper(once)[0] == pytest.approx(nuclear, rel=1e-10)
        inner = np.vdot(once - ops.project(np.zeros_like(w)), w - once).real
        assert abs(inner) <= 1e-10 * float(np.linalg.norm(w)) ** 2

    def test_checks_keep_the_best_sides(self, ctx16, sheet):
        # Every 25 iterations and at the last one the loop scores the
        # least-squares element of its multiplier and bounds its dual
        # iterate; it returns the best ratio, as a unit element with a
        # nonnegative objective, and the least upper bound.
        ops = sheets(ctx16)[sheet]
        elements, bounds = [], []

        def least_squares(u):
            elements.append(ops.least_squares(u))
            return elements[-1]

        def upper(w):
            bounds.append(ops.upper(w))
            return bounds[-1]

        value, best, bound = _splitting_loop(
            ops._replace(least_squares=least_squares, upper=upper),
            SolverConfig(iterations=60), ctx16.tol)
        assert len(elements) == len(bounds) == 3  # at 25, 50 and 60
        ratios = [abs(_objective(ops.g, x)) / ops.seminorm(x) for x in elements]
        assert value == max(ratios)
        assert ops.seminorm(best) == pytest.approx(1.0, rel=1e-12)
        assert _objective(ops.g, best) == pytest.approx(value, rel=1e-12)
        assert bound == min(b for b, _ in bounds)
        assert 0 < value <= bound

    def test_zero_pairing_finds_no_element(self, ctx16, sheet):
        # With nothing to separate, every iterate stays zero: no element,
        # value 0 and a proven upper bound of 0.
        ops = sheets(ctx16, weight=0.0)[sheet]
        assert _splitting_loop(ops, SolverConfig(iterations=30), ctx16.tol) == (0.0, None, 0.0)


THETAS = (1.0, 0.7, 2.3)


def dense_dz(calc, mat):
    """-[a*, mat] / theta by dense products with the ladder matrix."""
    ad = calc._a.conj().T
    return -(ad @ mat - mat @ ad) / calc.ctx.theta


def dense_dzbar(calc, mat):
    """[a, mat] / theta by dense products with the ladder matrix."""
    a = calc._a
    return (a @ mat - mat @ a) / calc.ctx.theta


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("n", ORACLE_DIMS)
class TestDerivativeOracle:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_slices_equal_dense_products(self, n, theta, seed):
        calc = DiracCalculus(make_context(n, theta, 1e-10))
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for mat in (raw, random_hermitian(rng, n), raw.real.copy()):
            assert np.array_equal(calc._dz(mat), dense_dz(calc, mat))
            assert np.array_equal(calc._dzbar(mat), dense_dzbar(calc, mat))


def number_mixture(ctx, rng):
    levels = rng.choice(ctx.interior_dim, size=int(rng.integers(2, 4)), replace=False)
    weights = rng.dirichlet(np.ones(levels.size))
    return mixed_state([eigenstate(ctx, int(k)) for k in levels], weights.tolist())


class TestExactLPSkip:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", ORACLE_DIMS)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_dual_certificate_meets_the_lp(self, n, theta, seed):
        # Y[k, k-1] = theta t_k / (sqrt(2) l_k) with tails t_k solves
        # A* Y = drho for A = sqrt(2) crop dz, and its nuclear norm is the
        # LP value: by weak duality no element beats the LP.
        ctx = make_context(n, theta, 1e-10)
        calc = DiracCalculus(ctx)
        rng = np.random.default_rng(seed)
        s1, s2 = number_mixture(ctx, rng), number_mixture(ctx, rng)
        drho = 0.5 * (s1.rho - s2.rho + (s1.rho - s2.rho).conj().T)
        m = ctx.interior_dim
        k = np.arange(1, m)
        ell = math.sqrt(theta) * np.sqrt(k)
        tails = np.cumsum(np.diag(drho).real[::-1])[::-1]
        y = np.zeros((m, m))
        y[k, k - 1] = theta * tails[k] / (math.sqrt(2.0) * ell)
        assert np.array_equal(_lp_dual(calc, drho), y)
        img = -math.sqrt(2.0) * calc._dzbar(calc._pad(y))
        assert np.abs(0.5 * (img + img.conj().T) - drho).max() <= 1e-14
        lp = distance_diagonal_lp(calc, s1, s2).value
        nuclear = float(np.linalg.svd(y, compute_uv=False).sum())
        assert abs(nuclear - lp) <= 1e-12 * lp

    def test_no_ascent_on_exactly_diagonal_pairs(self, ctx32, loop_calls):
        calc = DiracCalculus(ctx32)
        e = [eigenstate(ctx32, k) for k in range(4)]
        pairs = [
            (e[0], e[3]),
            (mixed_state([e[0], e[1]], [0.5, 0.5]), e[2]),
            (mixed_state([e[1], e[3]], [0.3, 0.7]), mixed_state([e[0], e[2]], [0.6, 0.4])),
        ]
        for s1, s2 in pairs:
            rep = distance_solver(calc, s1, s2, QUICK_SOLVER)
            lp = distance_diagonal_lp(calc, s1, s2)
            assert rep.value == pytest.approx(lp.value, rel=1e-12)
            # The solver orients its element to a nonnegative objective.
            want = lp.certificate.mat * np.sign(_objective(s1.rho - s2.rho, lp.certificate.mat))
            assert np.abs(rep.certificate.mat - want).max() <= 1e-12
            assert rep.feasibility <= 1 + 1e-8
            assert 0 <= rep.upper - rep.value <= ctx32.tol * max(1.0, rep.value)
        assert loop_calls == []

    def test_ascent_runs_unless_exactly_diagonal(self, ctx32, loop_calls):
        # Both states pass the LP's tol-diagonal test, so the LP is still
        # seeded, but the skip needs the exact property; the splitting loop
        # runs instead, and its own bracket carries the upper bound, since
        # the leakage stays below tol.
        ctx = ctx32
        m = ctx.interior_dim
        off = np.zeros((ctx.trunc_dim,) * 2, dtype=complex)
        off[0, 0], off[1, 1], off[0, 1], off[1, 0] = 0.5, 0.5, 1e-13, 1e-13
        edge = np.zeros((ctx.trunc_dim,) * 2)
        edge[0, 0], edge[1, 1], edge[m, m] = 0.5, 0.5 - 1e-11, 1e-11
        calc = DiracCalculus(ctx)
        other = eigenstate(ctx, 2)
        cfg = SolverConfig(iterations=5, restarts=1)
        for rho in (off, edge):
            state = QState(ctx, rho, ("test",))
            assert _lp_dual(calc, 0.5 * (rho - other.rho + (rho - other.rho).conj().T)) is None
            before = len(loop_calls)
            rep = distance_solver(calc, state, other, cfg)
            assert len(loop_calls) - before == 1
            assert rep.upper >= rep.value
            assert rep.value >= distance_diagonal_lp(calc, state, other).value - 1e-9


def corner_basis(ctx):
    """Frobenius-orthonormal basis of the Hermitian elements supported on the
    corner, levels 0..m, padded to N x N."""
    n, c = ctx.trunc_dim, ctx.interior_dim + 1
    basis = []
    for i in range(c):
        for j in range(i, c):
            parts = [(1.0, 1.0)] if i == j else [(1.0, 1.0), (1j, -1j)]
            for up, down in parts:
                e = np.zeros((n, n), dtype=complex)
                e[i, j], e[j, i] = up, down
                basis.append(e / np.linalg.norm(e))
    return basis


def dense_corner_map(calc):
    """A = sqrt(2) crop dz on the corner as a dense real matrix, one column
    per basis element (real and imaginary parts of the image stacked)."""
    cols = []
    for e in corner_basis(calc.ctx):
        img = math.sqrt(2.0) * calc._crop(calc._dz(e))
        cols.append(np.concatenate([img.real.ravel(), img.imag.ravel()]))
    return np.array(cols).T


def corner_part(ctx, x):
    m = ctx.interior_dim
    out = np.zeros_like(x)
    out[: m + 1, : m + 1] = x[: m + 1, : m + 1]
    return out


class TestCorner:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", (8, 12, 16, 24))
    def test_s_min_matches_dense_svd(self, n, theta):
        ctx = make_context(n, theta, 1e-10)
        calc = DiracCalculus(ctx)
        s = np.linalg.svd(dense_corner_map(calc), compute_uv=False)
        zero = s < 1e-10 * s[0]
        # The kernel on the corner is span{1, |m><m|}: real dimension 2.
        assert np.count_nonzero(zero) == 2
        # The corner identity and every level projector from m up, guarded
        # levels included, have seminorm 0.
        m = ctx.interior_dim
        kernel = [corner_part(ctx, np.eye(n, dtype=complex))]
        kernel += [np.diag(np.arange(n) == k).astype(complex) for k in range(m, n)]
        for x in kernel:
            assert lipschitz_seminorm(calc, Operator(ctx, x, hermitian=True)) == 0.0
        want = s[~zero][-1]
        assert abs(calc.corner_s_min - want) <= 1e-12 * want

    @pytest.mark.parametrize("n", ORACLE_DIMS)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_seminorm_reads_only_the_corner(self, n, seed):
        ctx = make_context(n, 1.0, 1e-10)
        calc = DiracCalculus(ctx)
        x = random_hermitian(np.random.default_rng(seed), n)
        corner = corner_part(ctx, x)
        assert np.array_equal(calc._crop(calc._dz(x)), calc._crop(calc._dz(corner)))
        assert lipschitz_seminorm(calc, Operator(ctx, x, hermitian=True)) == lipschitz_seminorm(
            calc, Operator(ctx, corner, hermitian=True)
        )

    @pytest.mark.parametrize("n", ORACLE_DIMS)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_dual_upper_bounds_every_corner_element(self, n, seed):
        # For any Y, <drho, x> <= upper p(x) on corner elements orthogonal
        # to the kernel, whatever drho carries outside the corner.
        ctx = make_context(n, 1.0, 1e-10)
        calc = DiracCalculus(ctx)
        rng = np.random.default_rng(seed)
        m = ctx.interior_dim
        drho = random_hermitian(rng, n)
        y = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        y = y * rng.uniform(0.0, 2.0)
        upper, leakage = _dual_upper(calc, drho, y)
        assert leakage > 0
        # The projected dual keeps the leakage and bounds the same elements.
        repaired, repaired_leakage = _dual_upper(calc, drho, _project(calc, drho, y))
        assert repaired_leakage == pytest.approx(leakage, rel=1e-9)
        for _ in range(8):
            x = corner_part(ctx, random_hermitian(rng, n))
            x[np.arange(m), np.arange(m)] -= np.trace(x[:m, :m]).real / m
            x[m, m] = 0.0
            p = lipschitz_seminorm(calc, Operator(ctx, x, hermitian=True))
            assert abs(_objective(drho, x)) <= min(upper, repaired) * p * (1 + 1e-12)


def kernel_free(ctx, r):
    """The corner of a Hermitian r minus its component on span{1_m, |m><m|},
    the kernel of A there (1_m is the identity on levels 0..m-1)."""
    m = ctx.interior_dim
    out = corner_part(ctx, r)
    out[np.arange(m), np.arange(m)] -= np.trace(out[:m, :m]).real / m
    out[m, m] = 0.0
    return out


def stacked(y):
    return np.concatenate([y.real.ravel(), y.imag.ravel()])


@functools.lru_cache(maxsize=None)
def corner_oracle(n, theta):
    """(dense A, its least-squares pseudo-inverse from a dense SVD, the
    corner basis stacked as a (k, N, N) array, the smallest nonzero singular
    value of A, the two right singular vectors of its kernel)."""
    calc = DiracCalculus(make_context(n, theta, 1e-10))
    amap = dense_corner_map(calc)
    u, s, vt = np.linalg.svd(amap, full_matrices=False)
    keep = s >= 1e-10 * s[0]
    pinv = (vt[keep].T / s[keep]) @ u[:, keep].T
    return amap, pinv, np.array(corner_basis(calc.ctx)), s[keep][-1], vt[~keep]


def coordinates(basis, x):
    """<x, e_k> = Re tr(x e_k) over the stacked corner basis."""
    return np.einsum("kij,ji->k", basis, x).real


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("n", ORACLE_DIMS)
class TestOffsetSolves:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_projection_matches_dense_lstsq(self, n, theta, seed):
        # Pi(Y) = Y - (A*)^+ (A* Y - drho) against the least-norm correction
        # from the dense pseudo-inverse over the corner basis; A* Pi(Y) is
        # the corner of drho minus its kernel component.
        ctx = make_context(n, theta, 1e-10)
        calc = DiracCalculus(ctx)
        rng = np.random.default_rng(seed)
        m = ctx.interior_dim
        y = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        drho = random_hermitian(rng, n)
        amap, pinv, basis, _, _ = corner_oracle(n, theta)
        target = coordinates(basis, drho)
        step = pinv.T @ (amap.T @ stacked(y) - target)
        want = (stacked(y) - step).reshape(2, m, m)
        want = want[0] + 1j * want[1]
        got = _project(calc, drho, y)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        b = coordinates(basis, kernel_free(ctx, drho))
        assert np.linalg.norm(amap.T @ stacked(got) - b) <= 1e-13 * np.linalg.norm(b)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_least_squares_matches_dense_lstsq(self, n, theta, seed):
        # A^+ Y is the corner element orthogonal to the kernel closest to Y
        # under A: the minimum-norm least-squares solution, from the dense
        # pseudo-inverse.
        ctx = make_context(n, theta, 1e-10)
        calc = DiracCalculus(ctx)
        rng = np.random.default_rng(seed)
        m = ctx.interior_dim
        y = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        _, pinv, basis, _, _ = corner_oracle(n, theta)
        want = np.einsum("k,kij->ij", pinv @ stacked(y), basis)
        got = calc._least_squares(y)
        assert np.array_equal(got, got.conj().T)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def superposed(ctx, rng):
    """A pure superposition of two or three levels below 6, with random
    complex amplitudes."""
    levels = rng.choice(min(6, ctx.interior_dim - 1), size=int(rng.integers(2, 4)), replace=False)
    coeffs = rng.standard_normal(levels.size) + 1j * rng.standard_normal(levels.size)
    return superposition_state(ctx, sorted(levels.tolist()), coeffs.tolist())


class TestSplittingLoop:
    @pytest.mark.parametrize("n", ORACLE_DIMS)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bracket_sides_check_independently(self, n, seed):
        # The lower side is the certificate's ratio under the SVD seminorm;
        # the upper side is rebuilt from the loop's own dual iterates Y with
        # the dense corner map: ||Y||_* plus the residual A* Y - b off the
        # kernel, charged at sqrt(m) / s_min of the dense map.  Weak duality
        # needs lower <= upper, and each projected Y meets the constraint.
        from moyalmetric import spectral

        ctx = make_context(n, 1.0, 1e-10)
        calc = DiracCalculus(ctx)
        rng = np.random.default_rng(seed)
        s1, s2 = superposed(ctx, rng), superposed(ctx, rng)
        assume(float(np.abs(s1.rho - s2.rho).max()) > 1e-6)
        seen = []
        real = spectral._dual_upper

        def recording(calc_, drho_, y):
            seen.append(y.copy())
            return real(calc_, drho_, y)

        spectral._dual_upper = recording
        try:
            rep = distance_solver(calc, s1, s2, SolverConfig(iterations=50, restarts=1))
        finally:
            spectral._dual_upper = real
        drho = _hermitize(s1.rho - s2.rho)
        p = lipschitz_seminorm(calc, rep.certificate)
        assert p <= 1 + 1e-8
        lower = abs(_objective(drho, rep.certificate.mat)) / p
        assert lower == pytest.approx(rep.value, rel=1e-10)
        assert rep.upper >= rep.value
        amap, _, basis, s_min, kernel = corner_oracle(n, 1.0)
        b = coordinates(basis, kernel_free(ctx, drho))
        uppers, residuals = [], []
        m = ctx.interior_dim
        for y in seen:
            r = amap.T @ stacked(y) - b
            r = r - kernel.T @ (kernel @ r)
            residuals.append(np.linalg.norm(r))
            nuclear = float(np.linalg.svd(y, compute_uv=False).sum())
            uppers.append(nuclear + residuals[-1] * math.sqrt(m) / s_min)
        assert lower <= min(uppers) * (1 + 1e-12)
        assert min(residuals) <= 1e-12 * np.linalg.norm(b)

    def test_bracket_inside_the_chambolle_pock_bracket(self, ctx48):
        # (e0 + i e2)/sqrt(2) against eigen:2 at N=48 and the default budget:
        # both sides lie inside the bracket an independent primal-dual
        # (Chambolle-Pock) solver gave for this pair.
        calc = DiracCalculus(ctx48)
        s1 = superposition_state(ctx48, [0, 2], [1.0, 1.0j])
        rep = distance_solver(calc, s1, eigenstate(ctx48, 2))
        assert 0.86096 <= rep.value <= rep.upper <= 0.86491
        assert rep.feasibility <= 1 + 1e-8


class TestTranslationDual:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", ORACLE_DIMS)
    @given(
        level=st.integers(0, 2),
        label=st.one_of(st.none(), st.complex_numbers(max_magnitude=0.5)),
        size=st.floats(0.05, 2.0),
        phase=st.floats(0.0, 2 * math.pi),
    )
    def test_path_mean_matches_gauss_legendre(self, n, theta, level, label, size, phase):
        ctx = make_context(n, theta, 1e-10)
        calc = DiracCalculus(ctx)
        try:
            base = eigenstate(ctx, level) if label is None else coherent_state(ctx, label)
        except LeakageError:
            assume(False)
        kappa = size * cmath.exp(1j * phase)
        rho1 = base.rho
        y = _translation_dual(calc, rho1, kappa)
        nodes, weights = leggauss(40)
        mean = np.zeros_like(rho1)
        for node, weight in zip(nodes, weights):
            u = displacement_operator(ctx, 0.5 * (node + 1.0) * kappa).mat
            mean += 0.5 * weight * (u @ rho1 @ u.conj().T)
        m = ctx.interior_dim
        assert np.abs(y + np.conj(kappa) * mean[:m, :m]).max() <= 1e-13
        assert float(np.linalg.svd(y, compute_uv=False).sum()) <= abs(kappa) + 1e-12
        u = displacement_operator(ctx, kappa).mat
        rho2 = u @ rho1 @ u.conj().T
        if max(np.linalg.norm(r[:, m:]) for r in (rho1, rho2)) < 1e-14:
            img = _hermitize(-math.sqrt(2.0) * calc._dzbar(calc._pad(y)))
            assert np.abs(rho1 - rho2 - img).max() <= 1e-13

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", ORACLE_DIMS)
    @given(
        level=st.integers(0, 2),
        label=st.one_of(st.none(), st.complex_numbers(max_magnitude=0.5)),
        size=st.one_of(st.floats(1e-9, 1e-3), st.floats(0.05, 2.0)),
        phase=st.floats(0.0, 2 * math.pi),
    )
    def test_first_moment_matches_gauss_legendre(self, n, theta, level, label, size, phase):
        # int_0^1 t rho_t dt; small shifts put every kernel entry on the
        # Taylor branch, larger ones mix both branches.
        ctx = make_context(n, theta, 1e-10)
        try:
            base = eigenstate(ctx, level) if label is None else coherent_state(ctx, label)
        except LeakageError:
            assume(False)
        kappa = size * cmath.exp(1j * phase)
        rho1 = base.rho
        mean, first = _path_moments(ctx, rho1, kappa, (_mean_kernel, _first_kernel))
        nodes, weights = leggauss(40)
        want = np.zeros_like(rho1)
        for node, weight in zip(nodes, weights):
            t = 0.5 * (node + 1.0)
            u = displacement_operator(ctx, t * kappa).mat
            want += 0.5 * weight * t * (u @ rho1 @ u.conj().T)
        assert np.abs(first - want).max() <= 1e-13
        assert np.array_equal(-np.conj(kappa) * mean[: ctx.interior_dim, : ctx.interior_dim],
                              _translation_dual(DiracCalculus(ctx), rho1, kappa))

    def test_first_kernel_on_both_branches(self):
        # int_0^1 t exp(z t) dt against Gauss-Legendre across the |z| = 1
        # switch between the Taylor series and the closed form.
        mags = np.concatenate(([0.0], np.geomspace(1e-12, 30.0, 60), [1 - 1e-12, 1.0]))
        z = np.concatenate([mags * cmath.exp(1j * a) for a in (0.0, 0.4, math.pi / 2, 2.5)])
        nodes, weights = leggauss(40)
        t = 0.5 * (nodes + 1.0)
        want = (0.5 * weights * t * np.exp(np.outer(z, t))).sum(axis=1)
        err = np.abs(_first_kernel(z) - want)
        assert np.all(err <= 4e-15 * np.maximum(1.0, np.abs(np.exp(z))))

    def test_translation_dual_keeps_its_arithmetic(self, ctx48):
        # The exact path mean, as written before the first moment joined it.
        calc = DiracCalculus(ctx48)
        rho1 = coherent_state(ctx48, 0.3 - 0.2j).rho
        for kappa in (2.0, 0.7 - 1.1j, 1e-9j):
            w, v = _displacement_eigh(ctx48, kappa)
            z = -1j * (w[:, None] - w[None, :])
            small = np.abs(z) < 1e-8
            k = np.where(small, 1.0 + 0.5 * z, np.expm1(z) / np.where(small, 1.0, z))
            mean = v @ ((v.conj().T @ rho1 @ v) * k) @ v.conj().T
            want = -np.conj(kappa) * mean[: ctx48.interior_dim, : ctx48.interior_dim]
            assert np.array_equal(_translation_dual(calc, rho1, kappa), want)

    def test_amplitude_is_read_from_the_pair(self, ctx32):
        base = eigenstate(ctx32, 1)
        kappa = 0.5 + 0.2j
        moved = displace(base, kappa)
        assert _translation_amplitude(base, moved) == kappa
        assert _translation_amplitude(moved, base) == -kappa
        c1, c2 = coherent_state(ctx32, 0.3), coherent_state(ctx32, 0.1j)
        assert _translation_amplitude(c1, c2) == pytest.approx(math.sqrt(2.0) * (0.1j - 0.3))
        assert _translation_amplitude(base, eigenstate(ctx32, 2)) is None
        assert _translation_amplitude(base, coherent_state(ctx32, 0.3)) is None

    @pytest.mark.parametrize("nested", (True, False))
    def test_nested_translates_are_proven(self, ctx48, loop_calls, nested):
        # A translate of a translate, or two translates of one state: the
        # amplitudes summed along the tag chains name the path-mean dual.
        calc = DiracCalculus(ctx48)
        base = superposition_state(ctx48, [0, 2], [1.0, 1.0j])
        if nested:
            s1, s2, kappa = base, displace(displace(base, 0.3), 0.2j), 0.3 + 0.2j
        else:
            s1, s2, kappa = displace(base, 0.3), displace(base, 0.2j), 0.2j - 0.3
        assert _translation_amplitude(s1, s2) == kappa
        assert _translation_amplitude(s2, s1) == -kappa
        rep = distance_solver(calc, s1, s2, QUICK_SOLVER)
        assert loop_calls == []
        assert 0 <= rep.upper - rep.value <= ctx48.tol * max(1.0, rep.value)
        assert rep.value == pytest.approx(abs(kappa), abs=1e-12)

    @pytest.mark.parametrize("swap", (False, True))
    def test_no_ascent_on_a_proven_translation(self, ctx48, monkeypatch, loop_calls, swap):
        from moyalmetric import spectral

        calc = DiracCalculus(ctx48)
        base = eigenstate(ctx48, 1)
        pair = (base, displace(base, 2.0))
        if swap:
            pair = pair[::-1]
        rep = distance_solver(calc, *pair, QUICK_SOLVER)
        assert loop_calls == []
        assert 0 <= rep.upper - rep.value <= ctx48.tol * max(1.0, rep.value)
        monkeypatch.setattr(spectral, "_translation_amplitude", lambda s1, s2: None)
        forced = distance_solver(calc, *pair, QUICK_SOLVER)
        assert len(loop_calls) == 1
        assert forced.upper >= forced.value
        assert rep.value == forced.value

    def test_leaking_pair_refuses_the_skip(self, loop_calls):
        # The projected path mean bounds the corner distance within tol of
        # |kappa|; what refuses the proof is the leakage, the states' weight
        # outside the corner.
        ctx = make_context(24, 1.0, 1e-10)
        calc = DiracCalculus(ctx)
        base = coherent_state(ctx, 1.0)
        moved = displace(base, 1.0)
        drho = _hermitize(base.rho - moved.rho)
        y = _translation_dual(calc, base.rho, 1.0)
        upper, leakage = _dual_upper(calc, drho, _project(calc, drho, y))
        assert upper - 1.0 <= ctx.tol < leakage
        cfg = SolverConfig(iterations=5, restarts=2)
        rep = distance_solver(calc, base, moved, cfg)
        assert len(loop_calls) == 1
        assert rep.upper is None


class TestOptimalElements:
    def test_zero_phase_is_first_quadrature(self, ctx32):
        calc = DiracCalculus(ctx32)
        el = optimal_element_translation(calc, 0.0)
        q1, _ = quadratures(ctx32)
        assert np.abs(el.mat - q1.mat).max() < 1e-14

    def test_translation_evaluation_gap(self, ctx64):
        calc = DiracCalculus(ctx64)
        el = optimal_element_translation(calc, 0.0)
        w0 = eigenstate(ctx64, 0)
        moved = displace(w0, 1.5)
        gap = evaluate(w0, el) - evaluate(moved, el)
        assert abs(gap) == pytest.approx(1.5, abs=1e-8)

    def test_translation_phase_tracks_direction(self, ctx64):
        calc = DiracCalculus(ctx64)
        kap = 1.2 * np.exp(0.6j)
        el = optimal_element_translation(calc, float(np.angle(kap)))
        w0 = eigenstate(ctx64, 0)
        moved = displace(w0, kap)
        gap = evaluate(w0, el) - evaluate(moved, el)
        assert abs(gap) == pytest.approx(abs(kap), abs=1e-8)

    def test_ladder_increments(self, ctx32):
        calc = DiracCalculus(ctx32)
        el = optimal_element_eigenstates(calc, upto=3)
        alpha = np.diag(el.mat).real
        incs = np.diff(alpha)[:3]
        want = [1 / math.sqrt(2), 0.5, 1 / math.sqrt(6)]
        assert np.abs(incs - want).max() < 1e-12

    def test_ladder_shift_defect_is_vacuum_projector(self, ctx64):
        calc = DiracCalculus(ctx64)
        el = optimal_element_eigenstates(calc, upto=10)
        d = calc.dz(el).mat
        defect = np.eye(ctx64.trunc_dim) - 2.0 * (d @ d.conj().T)
        m = ctx64.interior_dim
        want = np.zeros((m, m))
        want[0, 0] = 1.0
        assert np.abs(defect[:m, :m] - want).max() < 1e-12

    def test_ladder_transport_identity(self, ctx64):
        # (dz(A) a)(dz(A) a)* = (a* a)/2, exactly, at any truncation
        from moyalmetric import annihilation

        calc = DiracCalculus(ctx64)
        el = optimal_element_eigenstates(calc, upto=10)
        a = annihilation(ctx64).mat
        t = calc.dz(el).mat @ a
        lhs = t @ t.conj().T
        rhs = 0.5 * (a.conj().T @ a)
        m = ctx64.interior_dim
        assert np.abs(lhs[:m, :m] - rhs[:m, :m]).max() < 1e-12

    @pytest.mark.parametrize("theta, n", [(2.0, 64), (10.0, 32), (1.0, 128)])
    def test_ladder_transport_identity_is_relative(self, theta, n):
        # The entries of a* a / 2 grow like theta * n, so their roundoff does too.
        from moyalmetric import annihilation

        ctx = make_context(n, theta, 1e-10)
        calc = DiracCalculus(ctx)
        el = optimal_element_eigenstates(calc, upto=10)
        a = annihilation(ctx).mat
        t = calc.dz(el).mat @ a
        m = ctx.interior_dim
        rhs = 0.5 * (a.conj().T @ a)[:m, :m]
        assert np.abs((t @ t.conj().T)[:m, :m] - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_ladder_pairing_telescopes(self, ctx32):
        calc = DiracCalculus(ctx32)
        el = optimal_element_eigenstates(calc, upto=8)
        for m, n in [(0, 1), (2, 5), (0, 8)]:
            gap = evaluate(eigenstate(ctx32, m), el) - evaluate(eigenstate(ctx32, n), el)
            assert abs(gap) == pytest.approx(eigen_distance(m, n), abs=1e-12)

    def test_ladder_range_guard(self, ctx32):
        calc = DiracCalculus(ctx32)
        with pytest.raises(ValueError):
            optimal_element_eigenstates(calc, upto=ctx32.interior_dim)

    def test_ladder_element_is_one_object_for_every_upto(self, ctx32):
        calc = DiracCalculus(ctx32)
        first = optimal_element_eigenstates(calc, upto=0)
        for k in range(ctx32.interior_dim):
            assert optimal_element_eigenstates(calc, upto=k) is first
        for bad in (-1, ctx32.interior_dim, 2.5):
            with pytest.raises(ValueError):
                optimal_element_eigenstates(calc, upto=bad)

    def test_number_state_closed_forms_check_the_ladder_element_once(
        self, ctx48, ladder_defect_calls
    ):
        calc = DiracCalculus(ctx48)
        pairs = [(m, n) for m in range(12) for n in range(m + 1, 12)]
        assert len(pairs) == 66
        for m, n in pairs:
            rep = closed_form_for(calc, eigenstate(ctx48, m), eigenstate(ctx48, n))
            assert rep.value == pytest.approx(eigen_distance(m, n), abs=1e-12)
            assert rep.feasibility == lipschitz_seminorm(calc, rep.certificate)
        assert len(ladder_defect_calls) == 1


class TestDiscrepancy:
    def test_adjacent_pair(self, ctx64):
        calc = DiracCalculus(ctx64)
        res = length_vs_optimal_discrepancy(calc, 0, 1)
        assert res.d_D == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert res.d_L_mod == pytest.approx(math.sqrt(3) - 1, abs=1e-8)
        assert res.rel_gap == pytest.approx(0.034074173710931713, abs=1e-9)

    def test_far_pair_small_gap(self, ctx64):
        calc = DiracCalculus(ctx64)
        res = length_vs_optimal_discrepancy(calc, 0, 50)
        assert res.rel_gap == pytest.approx(0.0036006603682775593, abs=1e-10)
        assert res.rel_gap < 0.01

    def test_gap_decreases_with_separation(self, ctx64):
        calc = DiracCalculus(ctx64)
        gaps = [length_vs_optimal_discrepancy(calc, 0, n).rel_gap for n in range(1, 51)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_partial_sums_unbounded(self, ctx64):
        n = 1
        while _eigen_sum(ctx64, 0, n) <= 10.0:
            n += 1
        assert n == 61

    def test_requires_ordered_pair(self, ctx64):
        calc = DiracCalculus(ctx64)
        with pytest.raises(ValueError):
            length_vs_optimal_discrepancy(calc, 3, 3)
        with pytest.raises(ValueError):
            length_vs_optimal_discrepancy(calc, 0, ctx64.interior_dim)
