import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moyalmetric import (
    ContextMismatchError,
    FockContext,
    LeakageError,
    Operator,
    QState,
    annihilation,
    coherent_state,
    creation,
    displace,
    displacement_operator,
    eigenstate,
    evaluate,
    hamiltonian,
    make_context,
    mixed_state,
    quadratures,
    superposition_state,
    uncertainty_product,
)
from moyalmetric.fock import _displacement_base, _displacement_eigh
from moyalmetric.spectral import _first_kernel, _mean_kernel, _path_moments


def trace_distance(s1, s2):
    eigs = np.linalg.eigvalsh(s1.rho - s2.rho)
    return 0.5 * float(np.sum(np.abs(eigs)))


class TestContext:
    def test_default_edge_guard(self):
        assert make_context(64, 1.0, 1e-10).edge_guard == 8

    def test_edge_guard_lower_clamp(self):
        assert make_context(8, 1.0, 1e-10).edge_guard == 2

    def test_integral_float_dimension_is_an_int(self):
        # A dimension of 16.0 is the integer 16: its states build as at 16.
        ctx = make_context(16.0, 1.0)
        assert type(ctx.trunc_dim) is int and ctx == make_context(16, 1.0)
        assert eigenstate(ctx, 0).rho.shape == (16, 16)
        with pytest.raises(ValueError, match="16.5"):
            make_context(16.5, 1.0)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_context(4, 1.0, 1e-10)

    def test_bad_theta_and_tol_rejected(self):
        with pytest.raises(ValueError):
            make_context(16, 0.0, 1e-10)
        with pytest.raises(ValueError):
            make_context(16, -1.0, 1e-10)
        with pytest.raises(ValueError):
            FockContext(16, theta=math.inf)
        with pytest.raises(ValueError):
            make_context(16, 1.0, 0.0)
        # an infinite tolerance or leakage bound would make every guard vacuous
        with pytest.raises(ValueError):
            make_context(16, 1.0, math.inf)
        with pytest.raises(ValueError):
            FockContext(16, 1.0, leakage_bound=math.inf)

    def test_lambda_p(self):
        assert make_context(16, 4.0, 1e-10).lambda_p == 2.0


class TestLadder:
    def test_first_entry(self):
        ctx = make_context(16, 1.0, 1e-10)
        assert annihilation(ctx).mat[0, 1] == pytest.approx(1.0)

    def test_scaled_entry(self):
        ctx = make_context(16, 4.0, 1e-10)
        assert annihilation(ctx).mat[1, 2] == pytest.approx(2 * math.sqrt(2))

    def test_truncated_commutator(self):
        ctx = make_context(8, 1.0, 1e-10)
        a = annihilation(ctx).mat
        comm = a @ a.conj().T - a.conj().T @ a
        interior = comm[:6, :6] - np.eye(6)
        # Entries are (sqrt(n+1))^2 - (sqrt(n))^2 - 1, zero up to rounding.
        assert np.abs(interior).max() < 1e-13
        assert comm[7, 7] == pytest.approx(-7.0)

    def test_interior_commutator_exactness_across_contexts(self):
        for n, theta in [(8, 1.0), (16, 0.5), (32, 4.0), (64, 1.0)]:
            ctx = make_context(n, theta, 1e-10)
            a = annihilation(ctx).mat
            comm = a @ a.conj().T - a.conj().T @ a
            m = ctx.interior_dim
            assert np.abs(comm[:m, :m] - theta * np.eye(m)).max() < 1e-13 * theta

    def test_creation_is_adjoint(self):
        ctx = make_context(16, 1.0, 1e-10)
        assert np.array_equal(creation(ctx).mat, annihilation(ctx).mat.conj().T)


class TestQuadratures:
    def test_hermitian(self):
        ctx = make_context(16, 1.0, 1e-10)
        q1, q2 = quadratures(ctx)
        assert q1.hermitian and q2.hermitian

    def test_interior_commutator(self):
        ctx = make_context(16, 1.0, 1e-10)
        q1, q2 = quadratures(ctx)
        comm = q1.mat @ q2.mat - q2.mat @ q1.mat
        m = ctx.interior_dim
        assert np.abs(comm[:m, :m] - 1j * np.eye(m)).max() < 1e-14

    def test_ground_state_variance(self):
        ctx = make_context(16, 1.0, 1e-10)
        q1, _ = quadratures(ctx)
        val = evaluate(eigenstate(ctx, 0), Operator(ctx, q1.mat @ q1.mat))
        assert val.real == pytest.approx(0.5, abs=1e-14)


class TestHamiltonian:
    def test_diagonal(self):
        ctx = make_context(16, 1.0, 1e-10)
        h = hamiltonian(ctx).mat
        assert np.allclose(np.diag(h).real, np.arange(16) + 0.5, atol=1e-14)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_scaled_level(self):
        ctx = make_context(16, 2.0, 1e-10)
        assert hamiltonian(ctx).mat[3, 3].real == pytest.approx(7.0)

    def test_eigenstate_energies_exact(self, ctx64):
        h = hamiltonian(ctx64)
        for m in range(ctx64.interior_dim):
            val = evaluate(eigenstate(ctx64, m), h)
            assert val.real == pytest.approx(m + 0.5, abs=1e-12)
            assert abs(val.imag) < 1e-14


def _cached_arrays(obj):
    return (obj.mat,) if isinstance(obj, Operator) else obj


@pytest.mark.parametrize("build", [annihilation, hamiltonian, _displacement_base])
class TestOperatorCache:
    def test_equal_contexts_share_one_operator(self, build):
        assert build(make_context(24, 0.5, 1e-10)) is build(make_context(24, 0.5, 1e-10))

    def test_shared_matrix_is_read_only(self, build):
        for arr in _cached_arrays(build(make_context(24, 0.5, 1e-10))):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0.0

    def test_cache_is_bounded(self, build):
        assert build.cache_info().maxsize == 8
        first = build(make_context(8, 0.25, 1e-10))
        for k in range(8):
            build(make_context(9 + k, 0.25, 1e-10))
        assert build.cache_info().currsize == 8
        assert build(make_context(8, 0.25, 1e-10)) is not first


class TestEigenstate:
    def test_vacuum_rho(self, ctx16):
        rho = eigenstate(ctx16, 0).rho
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.array_equal(rho, expected)

    def test_energy(self, ctx16):
        assert evaluate(eigenstate(ctx16, 2), hamiltonian(ctx16)).real == pytest.approx(2.5)

    def test_edge_guard_rejection(self, ctx16):
        with pytest.raises(ValueError):
            eigenstate(ctx16, 15)
        with pytest.raises(ValueError):
            eigenstate(ctx16, 14)
        with pytest.raises(ValueError):
            eigenstate(ctx16, -1)


class TestCoherent:
    def test_vacuum_label(self, ctx16):
        assert trace_distance(coherent_state(ctx16, 0), eigenstate(ctx16, 0)) < 1e-14

    def test_first_amplitude(self, ctx64):
        vec = coherent_state(ctx64, 1.0).vector
        assert vec[1].real == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_large_label_leaks(self, ctx16):
        with pytest.raises(LeakageError):
            coherent_state(ctx16, 10.0)

    def test_ladder_eigenvector(self, ctx64):
        kappa = 0.7 - 0.3j
        state = coherent_state(ctx64, kappa)
        a = annihilation(ctx64)
        assert evaluate(state, a) == pytest.approx(ctx64.lambda_p * kappa, abs=1e-10)


class TestNonFinite:
    """Every NaN comparison is false, so NaN would slip past the tail,
    Hermitian and trace checks; non-finite values are refused by name."""

    @pytest.mark.parametrize("kappa", [math.inf, math.nan, complex(0.5, math.inf)])
    def test_coherent_label(self, ctx16, kappa):
        with pytest.raises(ValueError, match="coherent label must be finite"):
            coherent_state(ctx16, kappa)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan, complex(math.nan, 1.0)])
    def test_translation_amplitude(self, ctx16, kappa):
        with pytest.raises(ValueError, match="translation amplitude must be finite"):
            displace(eigenstate(ctx16, 0), kappa)

    def test_density_matrix_entries(self, ctx16):
        rho = np.zeros((16, 16))
        rho[0, 0] = 1.0
        rho[1, 1] = math.nan
        with pytest.raises(ValueError, match="entries must be finite"):
            QState(ctx16, rho, ("eigen", 0))


def dense_pure_checks_pass(ctx, rho):
    """The dense checks that the rank-one pure-state checks replace: no
    eigenvalue below -tol, and rho^2 = rho entrywise within 10 tol."""
    return (np.linalg.eigvalsh(rho)[0] >= -ctx.tol
            and float(np.abs(rho @ rho - rho).max()) <= 10 * ctx.tol)


class TestPureStateChecks:
    """A pure tag's rho is checked against the outer product of its vector
    in O(N^2); these checks refuse everything the dense ones refuse."""

    def test_pure_tag_on_a_mixture_is_refused(self, ctx16):
        e0, e1 = eigenstate(ctx16, 0), eigenstate(ctx16, 1)
        rho = 0.5 * (e0.rho + e1.rho)
        assert not dense_pure_checks_pass(ctx16, rho)
        with pytest.raises(ValueError, match="pure-state tag but rho is not v v"):
            QState(ctx16, rho, ("eigen", 0), vector=e0.vector)

    def test_misshapen_vector_is_refused(self, ctx16):
        e0 = eigenstate(ctx16, 0)
        with pytest.raises(ValueError, match="state vector of length 16"):
            QState(ctx16, e0.rho, ("eigen", 0), vector=e0.vector[:8])

    def test_non_finite_vector_is_refused(self, ctx16):
        v = eigenstate(ctx16, 0).vector.copy()
        v[3] = math.nan
        with pytest.raises(ValueError, match="not v v"):
            QState(ctx16, eigenstate(ctx16, 0).rho, ("eigen", 0), vector=v)

    @given(seed=st.integers(0, 2**32 - 1), size=st.floats(-12.0, -9.0),
           stretch=st.floats(-5e-11, 5e-11), negative=st.booleans())
    def test_as_strict_as_the_dense_checks(self, ctx16, seed, size, stretch, negative):
        # A pure state's rho moved by a Hermitian E of Frobenius norm
        # 10^size, negative semidefinite off the vector if ``negative``,
        # and its vector rescaled by 1 + stretch: whatever the dense checks
        # refuse, the constructor refuses.
        rng = np.random.default_rng(seed)
        v = np.zeros(16, dtype=complex)
        v[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v /= np.linalg.norm(v)
        raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        if negative:
            w = raw[0] - np.vdot(v, raw[0]) * v
            e = -np.outer(w, w.conj())
        else:
            e = raw + raw.conj().T
        rho = np.outer(v, v.conj()) + 10.0**size * e / np.linalg.norm(e)
        try:
            QState(ctx16, rho, ("test",), vector=(1.0 + stretch) * v)
        except ValueError:
            return
        assert dense_pure_checks_pass(ctx16, rho)


class TestDisplace:
    def test_zero_is_identity(self, ctx64):
        s = eigenstate(ctx64, 3)
        assert trace_distance(displace(s, 0), s) == 0.0

    def test_coherent_calibration(self, ctx64):
        # the ground state translated by sqrt(2)*lambda_p*kappa is the
        # coherent state of label kappa
        for kappa in [1.0, 2.0, 1.5 + 0.5j, 3.0]:
            moved = displace(eigenstate(ctx64, 0), math.sqrt(2) * kappa)
            assert trace_distance(moved, coherent_state(ctx64, kappa)) < 1e-8

    def test_ladder_conjugation_increment(self, ctx64):
        # U* a U = a + (kappa/sqrt(2)) I; the sqrt(2) keeps the parameter
        # equal to the Euclidean shift.  The identity is trusted only on
        # levels whose displaced images stay below the truncation edge, so
        # the check runs on the lower half of the basis.
        kappa = 1.25 + 0.75j
        u = displacement_operator(ctx64, kappa).mat
        a = annihilation(ctx64).mat
        moved = u.conj().T @ a @ u
        m = ctx64.trunc_dim // 2
        target = a + (kappa / math.sqrt(2)) * np.eye(ctx64.trunc_dim)
        assert np.abs((moved - target)[:m, :m]).max() < 1e-12

    def test_quadrature_shift(self, ctx64):
        kappa = 0.8 - 0.6j
        s = displace(eigenstate(ctx64, 1), kappa)
        q1, q2 = quadratures(ctx64)
        assert evaluate(s, q1).real == pytest.approx(kappa.real, abs=1e-10)
        assert evaluate(s, q2).real == pytest.approx(kappa.imag, abs=1e-10)

    def test_composition(self, ctx64):
        s = eigenstate(ctx64, 2)
        k1, k2 = 0.5 + 0.25j, -0.75 + 1.0j
        once = displace(displace(s, k1), k2)
        direct = displace(s, k1 + k2)
        assert trace_distance(once, direct) < 1e-9

    def test_unitary(self, ctx32):
        u = displacement_operator(ctx32, 1.0 + 2.0j).mat
        assert np.abs(u @ u.conj().T - np.eye(32)).max() < 1e-13


class TestSuperposition:
    def test_two_level(self, ctx16):
        s = superposition_state(ctx16, [0, 2], [1, 1])
        for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert s.rho[i, j].real == pytest.approx(0.5)

    def test_three_level(self, ctx16):
        s = superposition_state(ctx16, [0, 2, 4], [1, 1, 1])
        assert s.rho[0, 0].real == pytest.approx(1 / 3)
        assert s.rho[2, 4].real == pytest.approx(1 / 3)

    def test_non_integral_level_rejected(self, ctx16):
        # Level 1.5 names no number state; it must not round down to 1.
        with pytest.raises(ValueError, match="1.5"):
            superposition_state(ctx16, [0, 1.5], [1, 1])

    def test_repeated_index_rejected(self, ctx16):
        with pytest.raises(ValueError):
            superposition_state(ctx16, [1, 1], [1, 1])

    def test_zero_vector_rejected(self, ctx16):
        with pytest.raises(ValueError):
            superposition_state(ctx16, [0, 1], [0, 0])


class TestEvaluate:
    def test_identity_normalization(self, ctx16):
        one = Operator(ctx16, np.eye(16), hermitian=True)
        for s in [eigenstate(ctx16, 1), superposition_state(ctx16, [0, 3], [1, 1j])]:
            assert evaluate(s, one) == pytest.approx(1.0)

    def test_energy_level_four(self, ctx16):
        assert evaluate(eigenstate(ctx16, 4), hamiltonian(ctx16)).real == pytest.approx(4.5)

    def test_context_mismatch(self, ctx16, ctx32):
        with pytest.raises(ContextMismatchError):
            evaluate(eigenstate(ctx16, 0), hamiltonian(ctx32))

    def test_equal_contexts_match_by_value(self, ctx16):
        # The identity fast path must not turn the check into an identity
        # check: an equal context built separately passes, and one that
        # differs in a single field raises.
        twin = make_context(16, 1.0, 1e-10)
        assert twin is not ctx16 and twin == ctx16
        assert evaluate(eigenstate(twin, 4), hamiltonian(ctx16)).real == pytest.approx(4.5)
        for other in (FockContext(16, 1.0, 1e-10, leakage_bound=1e-9),
                      make_context(16, 1.0, 1e-9), make_context(16, 2.0, 1e-10)):
            with pytest.raises(ContextMismatchError):
                evaluate(eigenstate(other, 0), hamiltonian(ctx16))

    def test_mixture_linearity(self, ctx16):
        s = mixed_state([eigenstate(ctx16, 0), eigenstate(ctx16, 2)], [0.5, 0.5])
        assert evaluate(s, hamiltonian(ctx16)).real == pytest.approx(1.5)


class TestUncertainty:
    def test_ground_state(self, ctx16):
        assert uncertainty_product(eigenstate(ctx16, 0)) == pytest.approx(0.5, abs=1e-12)

    def test_coherent_optimal_localization(self, ctx64):
        assert uncertainty_product(coherent_state(ctx64, 1.0)) == pytest.approx(0.5, abs=1e-9)

    def test_excited_level(self, ctx16):
        assert uncertainty_product(eigenstate(ctx16, 3)) == pytest.approx(3.5, abs=1e-12)

    def test_scales_with_theta(self):
        ctx = make_context(16, 2.0, 1e-10)
        assert uncertainty_product(eigenstate(ctx, 0)) == pytest.approx(1.0, abs=1e-12)


def _dense_eigh(ctx, kappa):
    """The slow oracle: a dense eigendecomposition of i*gen at this kappa."""
    a = annihilation(ctx).mat
    gen = (kappa * a.conj().T - np.conj(kappa) * a) / (math.sqrt(2) * ctx.theta)
    return np.linalg.eigh(1j * gen)


_KAPPA_SIZES = st.floats(1e-9, 3.0)
_KAPPAS = st.one_of(
    _KAPPA_SIZES.map(lambda r: complex(-r)),
    st.tuples(_KAPPA_SIZES, st.sampled_from((1.0, -1.0))).map(lambda rs: 1j * rs[0] * rs[1]),
    st.tuples(_KAPPA_SIZES, st.floats(0.0, 2 * math.pi)).map(
        lambda rp: rp[0] * cmath.exp(1j * rp[1])),
)


class TestRotatedEigenpairs:
    """The eigenpairs of every amplitude are the context's one generator
    eigendecomposition rotated by diag(exp(i phi k)); the dense eigh of
    i*gen at each amplitude is the slow oracle."""

    @pytest.mark.parametrize("theta", (1.0, 0.7, 2.3))
    @pytest.mark.parametrize("n", (8, 16, 24, 48))
    @given(kappa=_KAPPAS)
    def test_against_the_dense_oracle(self, n, theta, kappa):
        # Large shifts push the states past the guarded edge, so the
        # leakage bound is lifted: the check is on the arithmetic.
        ctx = FockContext(n, theta, leakage_bound=1.0)
        w, v = _dense_eigh(ctx, kappa)
        want = (v * np.exp(-1j * w)) @ v.conj().T
        u = displacement_operator(ctx, kappa).mat
        assert np.abs(u - want).max() <= 1e-13
        assert np.abs(u @ u.conj().T - np.eye(n)).max() <= 1e-13
        pure = superposition_state(ctx, [0, 2], [1.0, 1.0j])
        mixed = mixed_state([eigenstate(ctx, 1), pure], [0.3, 0.7])
        for state in (pure, mixed):
            moved = QState(ctx, want @ state.rho @ want.conj().T, ("oracle",))
            assert trace_distance(displace(state, kappa), moved) <= 1e-13
        z = -1j * (w[:, None] - w[None, :])
        r = v.conj().T @ mixed.rho @ v
        kernels = (_mean_kernel, _first_kernel)
        got = _path_moments(ctx, mixed.rho, kappa, kernels)
        for moment, kernel in zip(got, kernels):
            assert np.abs(moment - v @ (r * kernel(z)) @ v.conj().T).max() <= 1e-13

    def test_zero_amplitude_is_the_zero_generator(self, ctx16):
        w, v = _displacement_eigh(ctx16, 0)
        want_w, want_v = _dense_eigh(ctx16, 0j)
        assert w.dtype == want_w.dtype and v.dtype == want_v.dtype
        assert np.array_equal(w, np.zeros(16)) and np.array_equal(w, want_w)
        assert np.array_equal(v, np.eye(16)) and np.array_equal(v, want_v)
