"""Oracle tests for the two-sheet triple and the Pythagoras machinery.

The internal entry is always fixed from the reference family, so the
closed forms here are elementary: inter-sheet distance 1/|Lambda|, and
hypotenuse values sqrt(d^2 + 1/|Lambda|^2).
"""
import cmath
import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from moyalmetric import (
    DiracCalculus,
    LeakageError,
    Operator,
    SolverConfig,
    coherent_state,
    d_L2,
    displace,
    eigenstate,
    lipschitz_seminorm,
    make_context,
    mixed_state,
    superposition_state,
)
from moyalmetric.doubling import (
    DoubledDirac,
    SheetState,
    doubled_distance,
    identification_sweep,
    make_doubled,
    pythagoras_check,
    reference_lambda,
)
from moyalmetric.doubling import (
    _chiral_adjoint,
    _chiral_block,
    _doubled_dual,
    _doubled_project,
    _doubled_seminorm,
    _doubled_upper,
    _normal_solve,
    _two_sheets,
)
from moyalmetric.spectral import (
    _hermitize,
    _objective,
    _single_route,
    _splitting_loop,
    _top_singular_value,
)

LIGHT = SolverConfig(iterations=120)

# Complex internal entries: a real Lambda cannot tell Lambda from conj(Lambda).
LAMBDAS = st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0,
                             allow_nan=False, allow_infinity=False)


def _doubled_commutator(dd: DoubledDirac, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """The full 4m x 4m doubled commutator, the oracle for the chiral block.

    Row/column layout: (sheet 1, component 0), (sheet 1, component 1),
    (sheet 2, component 0), (sheet 2, component 1), each of interior size.
    """
    calc = dd.calc
    mc = dd.ctx.interior_dim
    root2 = math.sqrt(2.0)
    lam = dd.Lambda
    delta = calc._crop(a2 - a1)
    out = np.zeros((4 * mc, 4 * mc), dtype=complex)
    b = [slice(0, mc), slice(mc, 2 * mc), slice(2 * mc, 3 * mc), slice(3 * mc, 4 * mc)]
    out[b[0], b[1]] = -1j * root2 * calc._crop(calc._dzbar(a1))
    out[b[1], b[0]] = -1j * root2 * calc._crop(calc._dz(a1))
    out[b[2], b[3]] = -1j * root2 * calc._crop(calc._dzbar(a2))
    out[b[3], b[2]] = -1j * root2 * calc._crop(calc._dz(a2))
    out[b[0], b[2]] = np.conj(lam) * delta
    out[b[1], b[3]] = -np.conj(lam) * delta
    out[b[2], b[0]] = -lam * delta
    out[b[3], b[1]] = lam * delta
    return out


@pytest.fixture(scope="module")
def calc32(ctx32):
    return DiracCalculus(ctx32)


@pytest.fixture(scope="module")
def dd32(calc32):
    return make_doubled(calc32, reference_lambda(calc32, 0))


class TestConstruction:
    def test_reference_entry_ground(self, calc32, ctx32):
        lam = reference_lambda(calc32, 0)
        assert lam == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert 1 / lam**2 == pytest.approx(d_L2(eigenstate(ctx32, 0), eigenstate(ctx32, 0)), abs=1e-9)

    def test_reference_entry_excited(self, calc32):
        lam = reference_lambda(calc32, 1)
        assert 1 / lam**2 == pytest.approx(6.0, abs=1e-12)

    def test_zero_entry_rejected(self, calc32):
        with pytest.raises(ValueError):
            make_doubled(calc32, 0.0)
        with pytest.raises(ValueError):
            DoubledDirac(calc32, 0)

    def test_sheet_validation(self, ctx32):
        with pytest.raises(ValueError):
            SheetState(eigenstate(ctx32, 0), 3)

    def test_internal_distance(self, dd32):
        assert dd32.internal_distance == pytest.approx(math.sqrt(2.0), abs=1e-12)


class TestDoubledCommutator:
    @given(seed=st.integers(0, 2**32 - 1), lam=LAMBDAS)
    def test_adjoint_identity(self, seed, lam):
        # <W, K(X1, X2)> must equal <g1, X1> + <g2, X2> on Hermitian pairs,
        # for the projection and the dual bound to be trustworthy.
        rng = np.random.default_rng(seed)
        for n in (8, 16, 24):
            dd = make_doubled(DiracCalculus(make_context(n, 1.0, 1e-10)), lam)
            k = 2 * dd.ctx.interior_dim
            x1, x2 = hermitian(rng, n), hermitian(rng, n)
            w = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            lhs = complex(np.trace(w.conj().T @ _chiral_block(dd, x1, x2))).real
            g1, g2 = _chiral_adjoint(dd, w)
            assert np.array_equal(g1, g1.conj().T) and np.array_equal(g2, g2.conj().T)
            rhs = complex(np.trace(g1.conj().T @ x1) + np.trace(g2.conj().T @ x2)).real
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_constant_pair_seminorm(self, dd32, ctx32):
        n = ctx32.trunc_dim
        beta = 0.37
        c = _doubled_commutator(dd32, np.zeros((n, n)), beta * np.eye(n))
        want = abs(dd32.Lambda) * beta
        assert np.linalg.norm(c, 2) == pytest.approx(want, abs=1e-12)

    def test_equal_pair_matches_single_seminorm(self, dd32, calc32):
        from moyalmetric import lipschitz_seminorm, optimal_element_translation

        el = optimal_element_translation(calc32, 0.4)
        c = _doubled_commutator(dd32, el.mat, el.mat)
        assert np.linalg.norm(c, 2) == pytest.approx(
            lipschitz_seminorm(calc32, el), abs=1e-10
        )

    def test_pythagoras_construction_is_unit(self, dd32, calc32, ctx32):
        # Mixing a unit element with sheet-dependent constants keeps the
        # doubled seminorm at one for every mixing angle: the cross terms
        # cancel because the grading anticommutes with the sheet blocks.
        from moyalmetric import optimal_element_translation

        el = optimal_element_translation(calc32, 0.0).mat
        n = ctx32.trunc_dim
        d_i = dd32.internal_distance
        for angle in (0.2, 0.7, 1.1):
            c, s = math.cos(angle), math.sin(angle)
            a1 = c * el
            a2 = c * el - s * d_i * np.eye(n)
            cm = _doubled_commutator(dd32, a1, a2)
            assert np.linalg.norm(cm, 2) == pytest.approx(1.0, abs=1e-10)


def hermitian(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (raw + raw.conj().T)


@pytest.mark.parametrize("n", (8, 16, 24))
class TestChiralBlock:
    @given(seed=st.integers(0, 2**32 - 1), lam=LAMBDAS)
    def test_block_carries_the_doubled_norm(self, n, seed, lam):
        calc = DiracCalculus(make_context(n, 1.0, 1e-10))
        dd = make_doubled(calc, lam)
        rng = np.random.default_rng(seed)
        a1, a2 = hermitian(rng, n), hermitian(rng, n)
        c = _doubled_commutator(dd, a1, a2)
        mc = calc.ctx.interior_dim
        even = np.r_[0:mc, 3 * mc:4 * mc]   # (s1c0, s2c1)
        odd = np.r_[mc:3 * mc]              # (s1c1, s2c0)
        k = _chiral_block(dd, a1, a2)
        assert np.array_equal(k, c[np.ix_(odd, even)])
        assert np.count_nonzero(c[np.ix_(even, even)]) == 0
        assert np.count_nonzero(c[np.ix_(odd, odd)]) == 0
        scale = float(np.abs(k).max())
        assert float(np.abs(c[np.ix_(even, odd)] + k.conj().T).max()) <= 1e-12 * scale
        sigma = _top_singular_value(k)
        want = float(np.linalg.svd(c, compute_uv=False)[0])
        assert abs(sigma - want) <= 1e-12 * want
        assert abs(_doubled_seminorm(dd, a1, a2) - want) <= 1e-12 * want

    @given(seed=st.integers(0, 2**32 - 1), lam=LAMBDAS)
    def test_pair_gives_a_subgradient(self, n, seed, lam):
        # The adjoint of a top singular pair u v* of K x is a subgradient of
        # the doubled seminorm at x, as the loop's multiplier becomes one at
        # the optimum: Euler's identity <S, x> = p(x) and p(y) >= <S, y>,
        # against the full-SVD norm of the doubled commutator.
        calc = DiracCalculus(make_context(n, 1.0, 1e-10))
        dd = make_doubled(calc, lam)
        rng = np.random.default_rng(seed)
        x = np.stack([hermitian(rng, n), hermitian(rng, n)])
        y = np.stack([hermitian(rng, n), hermitian(rng, n)])
        u, s, vh = np.linalg.svd(_chiral_block(dd, *x))
        sub = _chiral_adjoint(dd, np.outer(u[:, 0], vh[0]))
        p = np.linalg.norm(_doubled_commutator(dd, *x), 2)
        assert s[0] == pytest.approx(p, rel=1e-12)
        assert _objective(sub, x) == pytest.approx(p, rel=1e-10)
        assert _objective(sub, y) <= np.linalg.norm(_doubled_commutator(dd, *y), 2) * (1 + 1e-10)


THETAS = (1.0, 0.7, 2.3)
ORACLE_LAMBDAS = (1 / math.sqrt(2), 0.3 + 1.2j)


@functools.lru_cache(maxsize=None)
def doubled_oracle(n, theta, lam):
    """(dense real K over an orthonormal basis of Hermitian corner pairs,
    its least-squares pseudo-inverse from a dense SVD, the basis stacked as
    a (k, 2, N, N) array).  The basis has no redundant coordinate, and the
    SVD cutoff drops exactly the 3-dimensional joint kernel."""
    dd = make_doubled(DiracCalculus(make_context(n, theta, 1e-10)), lam)
    c = dd.ctx.interior_dim + 1
    basis = []
    for sheet in range(2):
        for i in range(c):
            for j in range(i, c):
                for up, down in [(1.0, 1.0)] if i == j else [(1.0, 1.0), (1j, -1j)]:
                    e = np.zeros((2, n, n), dtype=complex)
                    e[sheet, i, j], e[sheet, j, i] = up, down
                    basis.append(e / np.linalg.norm(e))
    kmap = np.array([flat(_chiral_block(dd, *e)) for e in basis]).T
    u, s, vt = np.linalg.svd(kmap, full_matrices=False)
    keep = s >= 1e-10 * s[0]
    assert np.count_nonzero(~keep) == 3
    return kmap, (vt[keep].T / s[keep]) @ u[:, keep].T, np.array(basis)


def flat(w):
    return np.concatenate([w.real.ravel(), w.imag.ravel()])


@pytest.mark.parametrize("lam", ORACLE_LAMBDAS, ids=("real", "complex"))
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("n", (8, 16, 24))
class TestDoubledProjection:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_projection_matches_dense_lstsq(self, n, theta, lam, seed):
        # Pi(W) = W - K N^+ (Herm K* W - g) against the least-norm correction
        # from the dense pseudo-inverse; Pi(W) meets the constraint off the
        # joint kernel.
        dd = make_doubled(DiracCalculus(make_context(n, theta, 1e-10)), lam)
        kmap, pinv, basis = doubled_oracle(n, theta, lam)
        rng = np.random.default_rng(seed)
        k = 2 * dd.ctx.interior_dim
        w = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        g = np.stack([hermitian(rng, n), hermitian(rng, n)])
        target = np.einsum("kaij,aji->k", basis, g).real
        want = (flat(w) - pinv.T @ (kmap.T @ flat(w) - target)).reshape(2, k, k)
        got = _doubled_project(dd, g, w)
        scale = max(1.0, float(np.linalg.norm(w)))
        assert np.abs(got - (want[0] + 1j * want[1])).max() <= 1e-12 * scale
        # Projecting twice changes nothing.
        assert np.abs(_doubled_project(dd, g, got) - got).max() <= 1e-12 * scale

    @given(seed=st.integers(0, 2**32 - 1))
    def test_least_squares_matches_dense_lstsq(self, n, theta, lam, seed):
        dd = make_doubled(DiracCalculus(make_context(n, theta, 1e-10)), lam)
        _, pinv, basis = doubled_oracle(n, theta, lam)
        rng = np.random.default_rng(seed)
        k = 2 * dd.ctx.interior_dim
        u = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        want = np.einsum("k,kaij->aij", pinv @ flat(u), basis)
        got = _two_sheets(dd, np.zeros((2, n, n))).least_squares(u)
        assert np.array_equal(got, got.conj().swapaxes(1, 2))
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.linalg.norm(u)))


class TestNormalSplit:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", (8, 16, 24))
    @given(seed=st.integers(0, 2**32 - 1), lam=LAMBDAS)
    def test_quadratic_form_splits_into_sheets_and_rung(self, n, theta, seed, lam):
        # ||K x||_F^2 = ||A x1||^2 + ||A x2||^2 + 2 |Lambda|^2 ||crop(x2 - x1)||^2
        # with A = sqrt(2) crop dz: the identity behind the sheet-sum and
        # sheet-difference halves of N = K* K.
        calc = DiracCalculus(make_context(n, theta, 1e-10))
        dd = make_doubled(calc, lam)
        rng = np.random.default_rng(seed)
        x1, x2 = hermitian(rng, n), hermitian(rng, n)
        sq = lambda mat: float(np.linalg.norm(mat)) ** 2
        want = (2.0 * (sq(calc._crop(calc._dz(x1))) + sq(calc._crop(calc._dz(x2))))
                + 2.0 * abs(lam) ** 2 * sq(calc._crop(x2 - x1)))
        assert sq(_chiral_block(dd, x1, x2)) == pytest.approx(want, rel=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), lam=LAMBDAS)
    def test_normal_solve_inverts_the_normal_operator(self, ctx16, seed, lam):
        # N N^+ r = r for r orthogonal to the joint kernel.
        dd = make_doubled(DiracCalculus(ctx16), lam)
        x = corner_pair(np.random.default_rng(seed), ctx16)
        r = _chiral_adjoint(dd, _chiral_block(dd, *x))
        got = _normal_solve(dd, r)
        assert np.abs(got - x).max() <= 1e-11 * max(1.0, float(np.abs(x).max()))


def doubled_loops(calls):
    """The recorded splitting-loop calls (``loop_calls``) that searched the
    doubled geometry, whose pairing is a stacked pair."""
    return [args for args in calls if args[0].g.ndim == 3]


def same_sheet_pair(ctx, route):
    """A state pair that the single-sheet route serves by ``route``."""
    e = [eigenstate(ctx, k) for k in range(3)]
    if route == "closed-form":
        return e[0], e[1]
    if route == "diagonal-lp":
        return mixed_state([e[0], e[2]], [0.5, 0.5]), e[1]
    return superposition_state(ctx, [0, 2], [1.0, 1.0j]), e[1]


class TestOneSheet:
    """On one sheet the doubled geometry is the plane's own: the diagonal
    blocks of K are -i A x1 and -i (A x2)*, so ||K(x, x)|| = p(x) and
    ||K(x1, x2)|| >= max(p(x1), p(x2)).  This is why a same-sheet
    ``doubled_distance`` takes the single-sheet route."""

    @pytest.mark.parametrize("theta", (1.0, 0.7, 2.3))
    @pytest.mark.parametrize("n", (8, 16, 24))
    @given(seed=st.integers(0, 2**32 - 1), lam=LAMBDAS)
    def test_doubled_seminorm_restricts_to_the_sheet(self, n, theta, seed, lam):
        calc = DiracCalculus(make_context(n, theta, 1e-10))
        dd = make_doubled(calc, lam)
        rng = np.random.default_rng(seed)
        x, y = hermitian(rng, n), hermitian(rng, n)
        px = lipschitz_seminorm(calc, Operator(calc.ctx, x, hermitian=True))
        py = lipschitz_seminorm(calc, Operator(calc.ctx, y, hermitian=True))
        assert abs(_doubled_seminorm(dd, x, x) - px) <= 1e-12 * px
        assert _doubled_seminorm(dd, x, y) >= max(px, py) * (1 - 1e-12)

    @pytest.mark.parametrize("pair", ("closed-form", "diagonal-lp"))
    def test_doubled_loop_brackets_the_exact_value(self, ctx16, pair):
        # On (drho, 0) the doubled distance is the single-sheet one, since
        # ||K(x1, x2)|| >= p(x1) with equality at x2 = x1; so the doubled
        # loop's lower and upper bounds enclose the exact closed-form or LP
        # value.
        calc = DiracCalculus(ctx16)
        dd = make_doubled(calc, reference_lambda(calc, 0) * cmath.exp(0.3j))
        s1, s2 = same_sheet_pair(ctx16, pair)
        exact = _single_route(calc, s1, s2, LIGHT)
        assert exact.method == pair
        drho = _hermitize(s1.rho - s2.rho)
        g = np.stack([drho, np.zeros_like(drho)])
        value, best, upper = _splitting_loop(_two_sheets(dd, g), SolverConfig(iterations=300),
                                             ctx16.tol)
        assert 0.9 * exact.value < value <= exact.value + 1e-9
        assert exact.value - 1e-9 <= upper <= 1.1 * exact.value
        assert _doubled_seminorm(dd, best[0], best[1]) <= 1 + 1e-8


def corner_pair(rng, ctx):
    """A random Hermitian pair on the corner, levels 0..m, orthogonal to
    the joint kernel {(c 1_m + b1 |m><m|, c 1_m + b2 |m><m|)}."""
    n, m = ctx.trunc_dim, ctx.interior_dim
    x = np.zeros((2, n, n), dtype=complex)
    for i in range(2):
        x[i, : m + 1, : m + 1] = hermitian(rng, m + 1)
        x[i, m, m] = 0.0
    shift = (np.trace(x[0, :m, :m]) + np.trace(x[1, :m, :m])).real / (2 * m)
    x[:, np.arange(m), np.arange(m)] -= shift
    return x


class TestDoubledDual:
    @pytest.mark.parametrize("n", (8, 16, 24))
    @given(seed=st.integers(0, 2**32 - 1), lam=LAMBDAS)
    def test_upper_bounds_every_corner_pair(self, n, seed, lam):
        # For any W, <g, x> <= upper p(x) on corner pairs off the joint
        # kernel, whatever g carries outside the corner.  The second g
        # meets W's constraint up to opposite constants on levels 0..m-1,
        # which the coupling blocks alone see: the |gamma1 - gamma2| term.
        ctx = make_context(n, 1.0, 1e-10)
        dd = make_doubled(DiracCalculus(ctx), lam)
        rng = np.random.default_rng(seed)
        m = ctx.interior_dim
        w = rng.standard_normal((2 * m, 2 * m)) + 1j * rng.standard_normal((2 * m, 2 * m))
        w = w * rng.uniform(0.0, 2.0) / np.linalg.svd(w, compute_uv=False).sum()
        split = np.zeros((2, n, n))
        split[0, np.arange(m), np.arange(m)] = 1.0
        split[1, np.arange(m), np.arange(m)] = -1.0
        loaded = _chiral_adjoint(dd, w) + 4.0 * (1.0 + abs(lam)) * split
        loaded[:, m + 1 :, m + 1 :] += hermitian(rng, n - m - 1)
        for g in (np.stack([hermitian(rng, n), hermitian(rng, n)]), loaded):
            upper, leakage = _doubled_upper(dd, g, w)
            assert leakage > 0
            for x in [split] + [corner_pair(rng, ctx) for _ in range(8)]:
                p = _doubled_seminorm(dd, x[0], x[1])
                assert abs(_objective(g, x)) <= upper * p * (1 + 1e-12)

    @pytest.mark.parametrize("theta", (1.0, 0.7, 2.3))
    @pytest.mark.parametrize("n", (8, 16, 24))
    @given(
        level=st.integers(0, 2),
        size=st.floats(0.0, 2.0),
        phase=st.floats(0.0, 2 * math.pi),
        lam=LAMBDAS,
    )
    def test_nuclear_norm_within_the_hypotenuse(self, n, theta, level, size, phase, lam):
        ctx = make_context(n, theta, 1e-10)
        dd = make_doubled(DiracCalculus(ctx), lam)
        kappa = size * cmath.exp(1j * phase)
        w = _doubled_dual(dd, eigenstate(ctx, level).rho, kappa)
        nuclear = float(np.linalg.svd(w, compute_uv=False).sum())
        assert nuclear <= math.hypot(size, dd.internal_distance) + 1e-12

    @pytest.mark.parametrize("phase", (0.0, 0.3, 1.1))
    def test_zero_shift_is_the_equal_state_dual(self, ctx32, phase):
        calc = DiracCalculus(ctx32)
        dd = make_doubled(calc, reference_lambda(calc, 1) * cmath.exp(1j * phase))
        rho = coherent_state(ctx32, 0.4 - 0.3j).rho
        m = ctx32.interior_dim
        want = np.zeros((2 * m, 2 * m), dtype=complex)
        want[:m, m:] = rho[:m, :m] / (2 * dd.Lambda)
        want[m:, :m] = rho[:m, :m] / (2 * np.conj(dd.Lambda))
        w = _doubled_dual(dd, rho, 0.0)
        assert np.abs(w - want).max() <= 1e-15
        upper, leakage = _doubled_upper(dd, np.stack([rho, -rho]), w)
        assert leakage <= 1e-15
        assert abs(upper - dd.internal_distance) <= 1e-13

    def test_translation_dual_is_tight(self, ctx48):
        calc = DiracCalculus(ctx48)
        for level in (0, 1, 2):
            dd = make_doubled(calc, reference_lambda(calc, level) * cmath.exp(0.3j))
            base = eigenstate(ctx48, level)
            for kappa in (1.0, 1 + 0.5j, -0.4 - 0.2j):
                moved = displace(base, kappa)
                g = _hermitize(np.stack([base.rho, -moved.rho]))
                upper, leakage = _doubled_upper(dd, g, _doubled_dual(dd, base.rho, kappa))
                want = math.hypot(abs(kappa), dd.internal_distance)
                assert leakage <= ctx48.tol
                assert 0 <= upper - want <= ctx48.tol

    def test_no_doubled_ascent_on_a_proven_translation(self, ctx48, monkeypatch, loop_calls):
        from moyalmetric import doubling

        calc = DiracCalculus(ctx48)
        dd = make_doubled(calc, reference_lambda(calc, 1) * cmath.exp(0.3j))
        base = eigenstate(ctx48, 1)
        s1, s2 = displace(base, 0.3), displace(base, 1.3 - 0.4j)
        res = pythagoras_check(dd, s1, s2, LIGHT)
        rep = doubled_distance(dd, SheetState(s1, 1), SheetState(s2, 2), LIGHT)
        assert loop_calls == []
        assert res.lhs <= res.upper <= res.lhs + 3 * ctx48.tol * res.lhs
        assert rep.value <= rep.upper <= rep.value + ctx48.tol * rep.value
        # A dual that refuses forces the search, whose own bound refuses
        # too; kappa, and with it the closed branch of doubled_distance,
        # stays as it was.
        monkeypatch.setattr(doubling, "_doubled_upper", lambda *args: (math.inf, math.inf))
        forced = pythagoras_check(dd, s1, s2, LIGHT)
        forced_rep = doubled_distance(dd, SheetState(s1, 1), SheetState(s2, 2), LIGHT)
        # Two searched doubled solves; the single-sheet route is closed-form.
        assert len(doubled_loops(loop_calls)) == len(loop_calls) == 2
        assert forced.upper is None and forced_rep.upper is None
        assert forced == res._replace(upper=None)
        assert forced_rep == replace(rep, upper=None)

    def test_tagged_translate_is_closed_form(self, ctx48, loop_calls):
        # A state that is no family member still sits at the hypotenuse
        # of its tagged translate on the other sheet.
        calc = DiracCalculus(ctx48)
        dd = make_doubled(calc, reference_lambda(calc, 0))
        base = superposition_state(ctx48, [0, 2], [1.0, 1.0j])
        kappa = 0.7 + 0.3j
        rep = doubled_distance(dd, SheetState(base, 1), SheetState(displace(base, kappa), 2), LIGHT)
        assert loop_calls == []
        assert rep.method == "closed-form"
        assert rep.value == math.hypot(abs(kappa), dd.internal_distance)
        assert rep.value <= rep.upper <= rep.value + ctx48.tol * rep.value

    @pytest.mark.parametrize("nested", (True, False))
    def test_nested_translates_are_closed_form(self, ctx48, loop_calls, nested):
        calc = DiracCalculus(ctx48)
        dd = make_doubled(calc, reference_lambda(calc, 0))
        base = superposition_state(ctx48, [0, 2], [1.0, 1.0j])
        if nested:
            s1, s2, kappa = base, displace(displace(base, 0.3), 0.2j), 0.3 + 0.2j
        else:
            s1, s2, kappa = displace(base, 0.3), displace(base, 0.2j), 0.2j - 0.3
        rep = doubled_distance(dd, SheetState(s1, 1), SheetState(s2, 2), LIGHT)
        assert loop_calls == []
        assert rep.method == "closed-form"
        assert rep.value == math.hypot(abs(kappa), dd.internal_distance)
        assert rep.value <= rep.upper <= rep.value + ctx48.tol * rep.value

    def test_proven_family_pair_scores_one_seed(self, ctx48, monkeypatch):
        from moyalmetric import doubling

        calc = DiracCalculus(ctx48)
        dd = make_doubled(calc, reference_lambda(calc, 1))
        calls = []
        real = doubling._top_singular_value

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(doubling, "_top_singular_value", counted)
        base = eigenstate(ctx48, 1)
        res = pythagoras_check(dd, displace(base, 0.3), displace(base, 1.3 - 0.4j), LIGHT)
        assert res.upper is not None
        assert len(calls) == 1

    def test_equal_states_need_no_eigenpairs(self, dd32, ctx32, monkeypatch):
        # At kappa = 0 the eigenpairs are (zeros, identity), so the doubled
        # dual is the explicit equal-state dual bit for bit, and so is the
        # report built on it.
        from moyalmetric import doubling

        rho = superposition_state(ctx32, [0, 2], [1.0, 1.0j]).rho
        m = ctx32.interior_dim
        mean = rho[:m, :m]
        coupling = 0.5 * dd32.internal_distance**2
        want = np.zeros((2 * m, 2 * m), dtype=complex)
        want[:m, m:] = np.conj(dd32.Lambda) * coupling * mean
        want[m:, :m] = dd32.Lambda * coupling * mean
        assert np.array_equal(_doubled_dual(dd32, rho, 0.0), want)
        s = superposition_state(ctx32, [0, 2], [1.0, 1.0j])
        rep = doubled_distance(dd32, SheetState(s, 1), SheetState(s, 2), LIGHT)
        monkeypatch.setattr(doubling, "_doubled_dual", lambda *args: want)
        assert doubled_distance(dd32, SheetState(s, 1), SheetState(s, 2), LIGHT) == rep

    def test_equal_states_skip_the_ascent(self, dd32, ctx32, loop_calls):
        s = superposition_state(ctx32, [0, 2], [1.0, 1.0j])
        res = pythagoras_check(dd32, s, s, LIGHT)
        assert loop_calls == []
        assert res.lhs == pytest.approx(2.0, abs=1e-12)
        assert res.lhs <= res.upper <= res.lhs + 3 * ctx32.tol * res.lhs

    def test_leaking_pair_refuses_the_skip(self, loop_calls):
        ctx = make_context(24, 1.0, 1e-10)
        calc = DiracCalculus(ctx)
        dd = make_doubled(calc, reference_lambda(calc, 1) * cmath.exp(0.3j))
        base = eigenstate(ctx, 1)
        s1, s2 = displace(base, 0.3), displace(base, 1.3)
        g = _hermitize(np.stack([s1.rho, -s2.rho]))
        upper, leakage = _doubled_upper(dd, g, _doubled_dual(dd, s1.rho, 1.0))
        assert upper - math.hypot(1.0, dd.internal_distance) > ctx.tol
        res = pythagoras_check(dd, s1, s2, LIGHT)
        # One doubled search, whose own bound the leakage refuses too.
        assert len(doubled_loops(loop_calls)) == len(loop_calls) == 1
        assert res.upper is None


class TestDoubledDistance:
    def test_inter_sheet_ground(self, dd32, ctx32):
        s = eigenstate(ctx32, 0)
        rep = doubled_distance(dd32, SheetState(s, 1), SheetState(s, 2), LIGHT)
        assert rep.value == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_inter_sheet_constancy(self, dd32, ctx32):
        for s in (eigenstate(ctx32, 0), eigenstate(ctx32, 1), coherent_state(ctx32, 1.0)):
            rep = doubled_distance(dd32, SheetState(s, 1), SheetState(s, 2), LIGHT)
            assert rep.value == pytest.approx(dd32.internal_distance, abs=1e-6)

    def test_hypotenuse(self, dd32, ctx32):
        s1 = eigenstate(ctx32, 0)
        s2 = displace(s1, 2.0)
        rep = doubled_distance(dd32, SheetState(s1, 1), SheetState(s2, 2), LIGHT)
        assert rep.value == pytest.approx(math.sqrt(6.0), abs=1e-8)

    @pytest.mark.parametrize("sheet", (1, 2))
    @pytest.mark.parametrize("route", ("closed-form", "diagonal-lp", "convex-solver"))
    def test_same_sheet_projection(self, dd32, ctx32, loop_calls, route, sheet):
        # One sheet is the single-sheet problem: the report is the single
        # route's, and no doubled solve runs.
        s1, s2 = same_sheet_pair(ctx32, route)
        rep = doubled_distance(dd32, SheetState(s1, sheet), SheetState(s2, sheet), LIGHT)
        assert doubled_loops(loop_calls) == []
        assert len(loop_calls) == (1 if route == "convex-solver" else 0)
        want = _single_route(dd32.calc, s1, s2, LIGHT)
        assert rep.method == want.method == route
        assert (rep.value, rep.gap, rep.upper) == (want.value, want.gap, want.upper)
        assert rep.certificate.mat.tobytes() == want.certificate.mat.tobytes()
        assert rep.note == f"sheet-{sheet} projection" + (f"; {want.note}" if want.note else "")
        if route == "convex-solver":
            assert rep.note.endswith("; lower bound, and upper bound over corner elements, "
                                     "levels 0..28, modulo the seminorm's kernel (the "
                                     "regularization at infinity)")
        if route == "closed-form":
            assert rep.value == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_sheet_order_irrelevant(self, dd32, ctx32):
        s1 = eigenstate(ctx32, 0)
        s2 = displace(s1, 1.0 + 0.5j)
        one = doubled_distance(dd32, SheetState(s1, 1), SheetState(s2, 2), LIGHT)
        two = doubled_distance(dd32, SheetState(s2, 1), SheetState(s1, 2), LIGHT)
        assert one.value == pytest.approx(two.value, abs=1e-9)

    def test_cross_family_solver_route(self, dd32, ctx32):
        rep = doubled_distance(
            dd32,
            SheetState(eigenstate(ctx32, 0), 1),
            SheetState(eigenstate(ctx32, 2), 2),
            LIGHT,
        )
        lo = 1 / dd32.Lambda**2
        assert rep.method == "convex-solver"
        # lower bound at least the internal rung and the single-sheet rung
        assert rep.value**2 >= abs(lo) - 1e-9
        assert rep.feasibility <= 1 + 1e-8


class TestPythagoras:
    @pytest.mark.parametrize("mu", (0.5, 1.0, 1.5 + 0.5j))
    def test_number_states_at_a_common_shift(self, ctx48, mu):
        # The closed-form certificate certifies the translated pair itself
        # (see test_spectral), so its hypotenuse lift meets rhs_lo.
        calc = DiracCalculus(ctx48)
        dd = make_doubled(calc, reference_lambda(calc, 0))
        s1, s2 = displace(eigenstate(ctx48, 0), mu), displace(eigenstate(ctx48, 1), mu)
        res = pythagoras_check(dd, s1, s2, LIGHT)
        assert abs(res.lhs - res.rhs_lo) <= 1e-12

    def test_same_family_equality(self, dd32, ctx32):
        s1 = eigenstate(ctx32, 0)
        s2 = displace(s1, 1.0)
        res = pythagoras_check(dd32, s1, s2, LIGHT)
        assert res.rhs_equal == pytest.approx(3.0, abs=1e-9)
        assert res.lhs == pytest.approx(res.rhs_equal, abs=1e-6)

    def test_degenerate_pair(self, dd32, ctx32):
        s = eigenstate(ctx32, 0)
        res = pythagoras_check(dd32, s, s, LIGHT)
        assert res.lhs == pytest.approx(2.0, abs=1e-9)
        assert res.rhs_equal == pytest.approx(2.0, abs=1e-9)

    def test_bracket_bounds_consistent(self, dd32, ctx32):
        res = pythagoras_check(dd32, eigenstate(ctx32, 0), eigenstate(ctx32, 2), LIGHT)
        assert res.rhs_lo == pytest.approx(res.rhs_equal, abs=0)
        assert res.rhs_hi == pytest.approx(2 * res.rhs_equal, abs=0)
        assert res.rhs_lo - 1e-9 <= res.lhs <= res.rhs_hi + 1e-9

    def test_random_pairs_stay_in_bracket(self, dd32, ctx32):
        rng = np.random.default_rng(11)
        pool = [
            eigenstate(ctx32, 0),
            eigenstate(ctx32, 1),
            eigenstate(ctx32, 3),
            mixed_state([eigenstate(ctx32, 0), eigenstate(ctx32, 2)], [0.5, 0.5]),
            superposition_state(ctx32, [0, 2], [1.0, 1.0]),
            displace(eigenstate(ctx32, 0), 0.8),
            displace(eigenstate(ctx32, 1), -0.4 + 0.3j),
        ]
        for _ in range(12):
            i, j = rng.integers(0, len(pool), size=2)
            res = pythagoras_check(dd32, pool[i], pool[j], LIGHT)
            assert res.rhs_lo - 1e-9 <= res.lhs <= res.rhs_hi + 1e-9


class TestBrackets:
    """Opposite-sheet brackets [lo2, up2] against the one-sheet bracket
    [lo1, up1] of the same pair: the hypotenuse lift gives d_P >=
    hypot(d_D, 1/|Lambda|) and the triangle inequality d_P <= d_D +
    1/|Lambda|."""

    @given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from(ORACLE_LAMBDAS))
    def test_bracket_properties(self, ctx16, seed, lam):
        from moyalmetric.acceptance import _random_state
        from moyalmetric.doubling import _opposite_sheets

        rng = np.random.default_rng(seed)
        try:
            s1, s2 = _random_state(ctx16, rng), _random_state(ctx16, rng)
        except LeakageError:
            assume(False)
        dd = make_doubled(DiracCalculus(ctx16), lam)
        pair = _opposite_sheets(dd, s1, s2, SolverConfig(iterations=50))
        d_i = dd.internal_distance
        lo1, up1, lo2, up2 = pair.single.value, pair.single.upper, pair.value, pair.upper
        tol = ctx16.tol * max(1.0, lo2)
        assert lo2 >= math.hypot(lo1, d_i) - tol  # never below the seed's lift
        assert pair.feasibility <= 1 + 1e-8
        if up2 is not None:
            assert lo2 <= up2 + tol
            assert up2 >= math.hypot(lo1, d_i) - tol
        if up1 is not None:
            assert lo2 <= up1 + d_i + tol

    def test_loop_rises_above_the_lift(self, ctx16):
        # The doubled loop certifies more than the hypotenuse lift of the
        # one-sheet value, and here more than the lift of its upper bound:
        # in the truncation d_P > hypot(d_D, 1/|Lambda|) for this pair.
        from moyalmetric.doubling import _opposite_sheets

        dd = make_doubled(DiracCalculus(ctx16), reference_lambda(DiracCalculus(ctx16), 1))
        s1 = eigenstate(ctx16, 4)
        s2 = superposition_state(ctx16, [2, 3], [0.8780382849025435 - 0.26899360228070945j,
                                                 -0.4858775366895678 + 0.8839363505364798j])
        pair = _opposite_sheets(dd, s1, s2, SolverConfig(iterations=80))
        d_i = dd.internal_distance
        assert pair.value - math.hypot(pair.single.value, d_i) > ctx16.tol
        assert pair.value - math.hypot(pair.single.upper, d_i) > 5e-3
        assert pair.value <= pair.upper
        assert pair.feasibility <= 1 + 1e-8


class TestIdentificationSweep:
    @pytest.mark.parametrize("family", (0, 1))
    def test_same_family_rows_vanish(self, calc32, family):
        same, _, _ = identification_sweep(calc32, family, [0.0, 1.0, 2.0, 3.0])
        assert [r.separation for r in same] == [0.0, 1.0, 2.0, 3.0]
        for row in same:
            assert abs(row.rel_gap) < 1e-6

    def test_leaking_rows_fall_back_to_closed_forms(self, ctx16):
        same, shift, _ = identification_sweep(DiracCalculus(ctx16), 0, [0.0, 1.0, 2.0, 3.0])
        for series in (same, shift):
            assert [r.closed for r in series] == [False, False, True, True]
        assert all(r.rel_gap < 1e-6 for r in same if r.closed)

    def test_cross_family_frozen_gap(self, calc32):
        _, _, level = identification_sweep(calc32, 0, [0.0])
        assert level[0].separation == 1
        assert level[0].rel_gap == pytest.approx(0.034074173710931713, abs=1e-9)

    def test_translation_sweep_tail(self, calc32):
        _, shift, _ = identification_sweep(calc32, 0, [0.0, 1.0, 2.0, 5.0, 10.0])
        want = 1 - 10.0 / math.sqrt(100.0 + (math.sqrt(3) - 1) ** 2)
        assert shift[-1].separation == 10.0
        assert shift[-1].rel_gap == pytest.approx(want, abs=1e-9)
        assert shift[-1].rel_gap < 0.01

    def test_level_rows_shrink(self, calc32):
        _, _, level = identification_sweep(calc32, 0, [0.0])
        vals = [r.rel_gap for r in level]
        assert len(vals) >= 20
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01

    def test_empty_grid_rejected(self, calc32):
        with pytest.raises(ValueError):
            identification_sweep(calc32, 0, [])
