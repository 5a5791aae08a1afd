"""Oracle tests for the pair-space length operator.

Expected numbers are recomputed here from first principles (level energies
E_m = theta*(m + 1/2) and the closed forms they imply), never read back
from the implementation.  The sector-block operator is also checked
against a literal Kronecker assembly of the full N^2 x N^2 matrix.
"""
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import moyalmetric
from moyalmetric import (
    LeakageError,
    annihilation,
    displace,
    eigenstate,
    hamiltonian,
    make_context,
    mixed_state,
    superposition_state,
)
from moyalmetric.lengthop import (
    build_length,
    counterexample_L2prime,
    d_L,
    d_L2,
    modified_length,
)


def level_energy(m, theta=1.0):
    return theta * (m + 0.5)


@functools.lru_cache(maxsize=None)
def kron_length(n):
    """Literal pair-space L2 = 2(H x 1 + 1 x H - a x a* - a* x a) at theta = 1,
    its eigenvalues and its square root by a dense eigendecomposition."""
    ctx = make_context(n, 1.0, 1e-10)
    a = annihilation(ctx).mat.real
    h = hamiltonian(ctx).mat.real
    eye = np.eye(n)
    l2 = 2.0 * (np.kron(h, eye) + np.kron(eye, h) - np.kron(a, a.T) - np.kron(a.T, a))
    w, v = np.linalg.eigh(l2)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return l2, w, root


def scatter(sector_op, n):
    """The dense N^2 x N^2 matrix of a sector operator in the n1*N + n2 basis."""
    dense = np.zeros((n * n, n * n))
    for s, (levels, block) in enumerate(zip(sector_op.levels, sector_op.blocks)):
        index = levels * n + (s - levels)
        dense[np.ix_(index, index)] = block
    return dense


def kron_trace(s1, s2, mat):
    """trace((rho1 x rho2) mat) through the full N^4 tensor."""
    n = s1.ctx.trunc_dim
    val = np.einsum("ij,kl,jlik->", s1.rho, s2.rho, mat.reshape(n, n, n, n))
    assert abs(val.imag) < 1e-10
    return float(val.real)


ORACLE_DIMS = (8, 16, 24)


class TestBuildLength:
    def test_minimal_square_length(self, ctx32):
        op = build_length(ctx32)
        # The pair ground state is an exact eigenvector with value 2*theta,
        # and compression of a nonnegative operator cannot dip below it.
        assert op.spectrum[0] == pytest.approx(2.0, abs=1e-9)

    def test_vacuum_pair_matrix_element(self, ctx32):
        op = build_length(ctx32)
        assert scatter(op.L2, ctx32.trunc_dim)[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_scale_covariance(self):
        ctx = make_context(32, 4.0, 1e-10)
        op = build_length(ctx)
        assert op.spectrum[0] == pytest.approx(8.0, abs=4e-6)

    def test_spectrum_sorted_and_nonnegative(self, ctx16):
        op = build_length(ctx16)
        assert np.all(np.diff(op.spectrum) >= -1e-12)
        assert op.spectrum[0] > -ctx16.tol

    def test_square_root_squares_back(self, ctx16):
        op = build_length(ctx16)
        l2, root = scatter(op.L2, 16), scatter(op.L, 16)
        scale = float(np.abs(l2).max())
        defect = float(np.abs(root @ root - l2).max())
        assert defect < 100 * ctx16.tol * scale

    def test_caching_returns_same_object(self, ctx16):
        assert build_length(ctx16) is build_length(ctx16)

    def test_no_size_cap(self):
        ctx = make_context(128, 1.0, 1e-10)
        op = build_length(ctx)
        assert op.spectrum[0] == pytest.approx(2.0, abs=1e-9)
        w0 = eigenstate(ctx, 0)
        assert d_L(w0, w0) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_min_eigenvalue_stable_in_n(self, ctx16, ctx32):
        lo = build_length(ctx16).spectrum[0]
        hi = build_length(ctx32).spectrum[0]
        assert lo == pytest.approx(hi, abs=1e-9)


@st.composite
def pair_states(draw, n):
    """A superposition or a two-term mixture of superpositions below the edge."""
    ctx = make_context(n, 1.0, 1e-10)
    coeff = st.complex_numbers(min_magnitude=0.05, max_magnitude=3.0,
                               allow_nan=False, allow_infinity=False)

    def superposed():
        idx = draw(st.lists(st.integers(0, ctx.interior_dim - 1),
                            min_size=1, max_size=4, unique=True))
        return superposition_state(ctx, idx, draw(st.lists(coeff, min_size=len(idx),
                                                           max_size=len(idx))))

    if draw(st.booleans()):
        return superposed()
    weight = draw(st.floats(min_value=0.05, max_value=0.95))
    return mixed_state([superposed(), superposed()], [weight, 1.0 - weight])


@pytest.mark.parametrize("n", ORACLE_DIMS)
class TestSectorOracle:
    def test_no_entries_between_sectors(self, n):
        l2, _, _ = kron_length(n)
        total = np.add.outer(np.arange(n), np.arange(n)).ravel()
        between = total[:, None] != total[None, :]
        assert np.count_nonzero(l2[between]) == 0
        assert np.count_nonzero(l2[~between]) > 0

    def test_spectrum_matches_kron(self, n):
        _, w, _ = kron_length(n)
        got = build_length(make_context(n, 1.0, 1e-10)).spectrum
        assert got.shape == (n * n,)
        assert float(np.abs(got - w).max()) <= 1e-12 * float(np.abs(w).max())

    def test_blocks_assemble_to_kron(self, n):
        l2, _, root = kron_length(n)
        op = build_length(make_context(n, 1.0, 1e-10))
        assert op.L2.shape == op.L.shape == (n * n, n * n)
        assert np.array_equal(scatter(op.L2, n), l2)
        assert float(np.abs(scatter(op.L, n) - root).max()) <= 1e-12

    @given(data=st.data())
    def test_length_matches_kron_trace(self, n, data):
        s1 = data.draw(pair_states(n))
        s2 = data.draw(pair_states(n))
        _, _, root = kron_length(n)
        assert d_L(s1, s2) == pytest.approx(kron_trace(s1, s2, root), abs=1e-12)

    @given(data=st.data())
    def test_square_length_trace_matches_kron_trace(self, n, data):
        s1 = data.draw(pair_states(n))
        s2 = data.draw(pair_states(n))
        l2, _, _ = kron_length(n)
        got = build_length(s1.ctx).L2.pair_trace(s1, s2)
        assert got == pytest.approx(kron_trace(s1, s2, l2), abs=1e-10)
        assert got == pytest.approx(d_L2(s1, s2), abs=1e-10)


def test_length_routes_import_numpy_only():
    code = (
        "import sys\n"
        "import moyalmetric\n"
        "from moyalmetric.lengthop import build_length, counterexample_L2prime, d_L\n"
        "ctx = moyalmetric.make_context(16, 1.0, 1e-10)\n"
        "assert build_length(ctx).L.shape == (256, 256)\n"
        "w = moyalmetric.eigenstate(ctx, 0)\n"
        "d_L(w, w)\n"
        "counterexample_L2prime(ctx, 0, 2, 4, 6)\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    src = str(Path(moyalmetric.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestSquareLength:
    def test_vacuum_pair(self, ctx32):
        w0 = eigenstate(ctx32, 0)
        assert d_L2(w0, w0) == pytest.approx(2.0, abs=1e-12)

    def test_eigenstate_displaced_pair(self, ctx32):
        # 2E_1 + 2E_2 + |kappa|^2 = 3 + 5 + 4
        s1 = eigenstate(ctx32, 1)
        s2 = displace(eigenstate(ctx32, 2), 2.0)
        assert d_L2(s1, s2) == pytest.approx(12.0, abs=1e-9)

    def test_closed_form_grid(self, ctx32):
        for m in range(4):
            for n in range(4):
                for kap in (0.0, 0.5 + 0.5j, -1.0 + 0.25j):
                    s1 = eigenstate(ctx32, m)
                    s2 = displace(eigenstate(ctx32, n), kap)
                    want = 2 * level_energy(m) + 2 * level_energy(n) + abs(kap) ** 2
                    assert d_L2(s1, s2) == pytest.approx(want, abs=1e-9)

    def test_translation_invariance(self, ctx32):
        delta = 0.75 - 0.5j
        vals = []
        for mu in (0.0, 0.5j, -1.0 + 0.25j):
            s1 = displace(eigenstate(ctx32, 1), mu)
            s2 = displace(eigenstate(ctx32, 3), mu + delta)
            vals.append(d_L2(s1, s2))
        assert max(vals) - min(vals) < 1e-8

    def test_symmetry(self, ctx32):
        s1 = displace(eigenstate(ctx32, 2), 0.3 + 0.1j)
        s2 = superposition_state(ctx32, [0, 3], [1.0, 1.0j])
        assert d_L2(s1, s2) == pytest.approx(d_L2(s2, s1), abs=1e-13)

    def test_matches_tensor_trace(self, ctx16):
        # The moment factorization must agree with the literal tensor-space
        # trace against L2, including on mixed and superposed states.
        l2, _, _ = kron_length(ctx16.trunc_dim)
        pairs = [
            (eigenstate(ctx16, 0), eigenstate(ctx16, 3)),
            (displace(eigenstate(ctx16, 1), 0.4 - 0.2j), eigenstate(ctx16, 2)),
            (
                superposition_state(ctx16, [0, 2], [1.0, -1.0]),
                mixed_state([eigenstate(ctx16, 0), eigenstate(ctx16, 4)], [0.25, 0.75]),
            ),
        ]
        for s1, s2 in pairs:
            assert d_L2(s1, s2) == pytest.approx(kron_trace(s1, s2, l2), abs=1e-10)

    def test_context_mismatch(self, ctx16, ctx32):
        from moyalmetric import ContextMismatchError

        with pytest.raises(ContextMismatchError):
            d_L2(eigenstate(ctx16, 0), eigenstate(ctx32, 0))


class TestLength:
    def test_vacuum_diagonal(self, ctx32):
        w0 = eigenstate(ctx32, 0)
        assert d_L(w0, w0) == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_strictly_below_root_square_length(self, ctx32):
        w1 = eigenstate(ctx32, 1)
        val = d_L(w1, w1)
        assert val < math.sqrt(6.0) - 1e-6

    def test_displaced_vacuum_strictness(self, ctx32):
        w0 = eigenstate(ctx32, 0)
        moved = displace(w0, 1.0)
        assert d_L(w0, moved) < math.sqrt(2.0 + 1.0) - 1e-6

    def test_dominated_by_root_square_length(self, ctx32):
        states = [eigenstate(ctx32, m) for m in range(5)]
        states.append(displace(eigenstate(ctx32, 0), 0.8 + 0.3j))
        states.append(superposition_state(ctx32, [0, 2], [1.0, 1.0]))
        for s1 in states:
            for s2 in states:
                assert d_L(s1, s2) <= math.sqrt(d_L2(s1, s2)) + 1e-10

    def test_equality_only_at_vacuum_pair(self, ctx32):
        for m in range(4):
            for n in range(4):
                gap = math.sqrt(d_L2(eigenstate(ctx32, m), eigenstate(ctx32, n))) - d_L(
                    eigenstate(ctx32, m), eigenstate(ctx32, n)
                )
                if m == n == 0:
                    assert abs(gap) < 1e-6
                else:
                    assert gap > 1e-6

    def test_diagonal_floor(self, ctx32):
        floor = math.sqrt(2.0) * ctx32.lambda_p - 1e-6
        samples = [
            eigenstate(ctx32, 3),
            displace(eigenstate(ctx32, 0), -0.7 + 0.2j),
            superposition_state(ctx32, [1, 4], [1.0, -2.0]),
            mixed_state([eigenstate(ctx32, 0), eigenstate(ctx32, 2)], [0.5, 0.5]),
        ]
        for s in samples:
            assert d_L(s, s) >= floor

    def test_symmetry(self, ctx32):
        s1 = eigenstate(ctx32, 1)
        s2 = displace(eigenstate(ctx32, 0), 0.5)
        assert d_L(s1, s2) == pytest.approx(d_L(s2, s1), abs=1e-12)


class TestModifiedLength:
    def test_vanishes_on_diagonal(self, ctx32):
        for m in range(4):
            s = eigenstate(ctx32, m)
            assert modified_length(s, s) == pytest.approx(0.0, abs=1e-7)

    def test_eigenstate_pairs(self, ctx32):
        # sqrt(2E_n) - sqrt(2E_m) for n > m
        cases = {
            (0, 1): math.sqrt(3.0) - 1.0,
            (1, 2): math.sqrt(5.0) - math.sqrt(3.0),
            (0, 6): math.sqrt(13.0) - 1.0,
        }
        for (m, n), want in cases.items():
            got = modified_length(eigenstate(ctx32, m), eigenstate(ctx32, n))
            assert got == pytest.approx(want, abs=1e-9)

    def test_displaced_vacuum_recovers_euclidean_shift(self, ctx32):
        w0 = eigenstate(ctx32, 0)
        moved = displace(w0, 2.0)
        assert modified_length(w0, moved) == pytest.approx(2.0, abs=1e-9)

    def test_mixed_phase_shift(self, ctx32):
        w0 = eigenstate(ctx32, 0)
        kap = 1.2 - 0.9j
        moved = displace(w0, kap)
        assert modified_length(w0, moved) == pytest.approx(abs(kap), abs=1e-9)


def numpy_d_L2(s1, s2):
    """The moment identity in numpy-scalar arithmetic: the oracle that the
    Python-float d_L2 must equal bit for bit."""
    cross = (s1.mean_ladder * np.conj(s2.mean_ladder)).real
    return 2.0 * (s1.mean_energy + s2.mean_energy - 2.0 * cross)


def numpy_modified_length(s1, s2):
    floor = math.sqrt(numpy_d_L2(s1, s1) * numpy_d_L2(s2, s2))
    return math.sqrt(abs(numpy_d_L2(s1, s2) - floor))


class TestScalarArithmetic:
    def test_displaced_grid_matches_numpy_scalars(self, ctx32):
        vals = np.linspace(-math.sqrt(2.0), math.sqrt(2.0), 5)
        states = [displace(eigenstate(ctx32, m), complex(x, y))
                  for m in range(7) for x in vals for y in vals]
        for s1 in states:
            for s2 in states:
                assert d_L2(s1, s2) == numpy_d_L2(s1, s2)
                assert modified_length(s1, s2) == numpy_modified_length(s1, s2)

    @given(st.data())
    def test_drawn_states_match_numpy_scalars(self, data):
        s1, s2 = data.draw(pair_states(16)), data.draw(pair_states(16))
        for a, b in ((s1, s2), (s2, s1), (s1, s1)):
            assert d_L2(a, b) == numpy_d_L2(a, b)
            assert modified_length(a, b) == numpy_modified_length(a, b)
        assert modified_length(s1, s1) == 0.0
        assert modified_length(s2, s2) == 0.0


class TestCounterexample:
    @staticmethod
    def closed_forms(i, j, k, l, theta=1.0):
        e = [level_energy(m, theta) for m in (i, j, k)]
        el = level_energy(l, theta)
        triple = (math.sqrt(2.0 / 3.0 * sum(e)) - math.sqrt(2 * el)) ** 2
        pair = {
            frozenset(p): (math.sqrt(level_energy(p[0], theta) + level_energy(p[1], theta))
                           - math.sqrt(2 * el)) ** 2
            for p in ((i, j), (i, k), (j, k))
        }
        single = {m: (math.sqrt(2 * level_energy(m, theta)) - math.sqrt(2 * el)) ** 2
                  for m in (i, j, k)}
        lhs = 3 * triple
        rhs = 2 * sum(pair.values()) - sum(single.values())
        return lhs, rhs

    def test_reference_quadruple(self, ctx32):
        res = counterexample_L2prime(ctx32, 0, 2, 4, 6)
        lhs, rhs = self.closed_forms(0, 2, 4, 6)
        assert res.lhs == pytest.approx(lhs, abs=1e-12)
        assert res.rhs == pytest.approx(rhs, abs=1e-12)
        assert res.residual == pytest.approx(lhs - rhs, abs=1e-12)
        assert res.residual == pytest.approx(2.0441188533653058, abs=1e-10)

    def test_residual_bounded_away_from_zero(self, ctx32):
        res = counterexample_L2prime(ctx32, 0, 2, 4, 6)
        assert res.residual > 1.0

    def test_adjacent_indices_rejected(self, ctx32):
        with pytest.raises(ValueError):
            counterexample_L2prime(ctx32, 0, 1, 4, 6)
        with pytest.raises(ValueError):
            counterexample_L2prime(ctx32, 0, 2, 4, 5)

    def test_other_quadruple_consistency(self, ctx32):
        res = counterexample_L2prime(ctx32, 1, 3, 5, 7)
        lhs, rhs = self.closed_forms(1, 3, 5, 7)
        assert res.lhs == pytest.approx(lhs, abs=1e-12)
        assert res.rhs == pytest.approx(rhs, abs=1e-12)

    def test_numerical_route_agreement(self, ctx32):
        # The operation cross-checks every closed-form square against the
        # tensor-trace evaluation internally; a clean return certifies
        # agreement within its 1e-6 gate.
        res = counterexample_L2prime(ctx32, 0, 2, 4, 6)
        assert math.isfinite(res.residual)
