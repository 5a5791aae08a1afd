"""Oracle tests for the star product and its quadrature routes.

The matrix route is exact by construction, so the work here is pinning the
integral-kernel orientation: the ground Gaussian must be idempotent, the
holomorphic coordinate must annihilate it from the left, and the Fourier
route must reproduce the direct quadrature on asymmetric pairs.
"""
import math

import numpy as np
import pytest

from moyalmetric import (
    ContextMismatchError,
    Operator,
    annihilation,
    creation,
    make_context,
    vacuum_projector,
)
from moyalmetric.starprod import (
    SampledSymbol,
    star_fourier,
    star_integral_report,
    star_matrix,
    vacuum_symbol,
)

R, H = 8.0, 1.0 / 16.0


def window_profile(r):
    """Flat-top window: close to 1 inside |x| < r/2, certified tiny at |x| = r."""

    def w(x1, x2):
        return np.exp(-(((x1**2 + x2**2) / (0.8 * r) ** 2) ** 8))

    return w


def gaussian(center, width=1.0):
    cx, cy = center

    def fn(x1, x2):
        return np.exp(-((x1 - cx) ** 2 + (x2 - cy) ** 2) / width**2)

    return fn


@pytest.fixture(scope="module")
def f0():
    return vacuum_symbol(1.0, R, H)


@pytest.fixture(scope="module")
def zsym():
    w = window_profile(R)

    def fn(x1, x2):
        return (x1 + 1j * x2) / math.sqrt(2.0) * w(x1, x2)

    return SampledSymbol.from_function(fn, R, H)


class TestSampledSymbol:
    def test_grid_shape_and_axis(self, f0):
        n = int(2 * R / H) + 1
        assert f0.values.shape == (n, n)
        assert f0.axis[0] == -R and f0.axis[-1] == R
        assert f0.axis[n // 2] == 0.0

    def test_decay_certificate(self, f0):
        assert 0 < f0.decay_cert < 1e-8
        assert f0.decay_cert == pytest.approx(2 * math.exp(-R**2), rel=1e-10)

    def test_incommensurate_grid_rejected(self):
        with pytest.raises(ValueError):
            SampledSymbol.from_function(gaussian((0, 0)), 8.0, 0.3)

    @pytest.mark.parametrize(
        "r, h", [(8.0, 0.0), (-8.0, H), (8.0, -H), (math.inf, H), (8.0, math.nan)]
    )
    def test_degenerate_box_or_step_rejected(self, r, h):
        with pytest.raises(ValueError, match="finite and positive"):
            SampledSymbol.from_function(gaussian((0, 0)), r, h)

    @pytest.mark.parametrize("r, h", [(1.0, 0.0), (-1.0, -0.5)])
    def test_direct_construction_checks_the_grid(self, r, h):
        with pytest.raises(ValueError, match="finite and positive"):
            SampledSymbol(r=r, h=h, values=np.zeros((5, 5)), decay_cert=0.0)

    def test_values_read_only(self, f0):
        with pytest.raises(ValueError):
            f0.values[0, 0] = 1.0

    def test_undecayed_symbol_refused(self, f0):
        flat = SampledSymbol.from_function(lambda x1, x2: np.ones_like(x1), R, H)
        assert flat.decay_cert == 1.0
        with pytest.raises(ValueError):
            star_integral_report(f0, flat, (0.0, 0.0))


class TestStarMatrix:
    def test_vacuum_idempotent(self, ctx16):
        p0 = vacuum_projector(ctx16)
        out = star_matrix(p0, p0)
        assert np.abs(out.mat - p0.mat).max() < 1e-15

    def test_coordinate_commutator(self, ctx16):
        z = annihilation(ctx16)
        zbar = creation(ctx16)
        comm = star_matrix(z, zbar).mat - star_matrix(zbar, z).mat
        m = ctx16.interior_dim
        want = ctx16.theta * np.eye(m)
        assert np.abs(comm[:m, :m] - want).max() < 1e-13

    def test_associativity(self):
        ctx = make_context(8, 1.0)
        rng = np.random.default_rng(3)
        ops = [
            Operator(ctx, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
            for _ in range(3)
        ]
        left = star_matrix(star_matrix(ops[0], ops[1]), ops[2]).mat
        right = star_matrix(ops[0], star_matrix(ops[1], ops[2])).mat
        assert np.abs(left - right).max() < 1e-12

    def test_context_mismatch(self, ctx16, ctx32):
        with pytest.raises(ContextMismatchError):
            star_matrix(vacuum_projector(ctx16), vacuum_projector(ctx32))


class TestStarIntegral:
    def test_vacuum_idempotent_origin(self, f0, ctx16):
        val, bound = star_integral_report(f0, f0, (0.0, 0.0))
        coeff = star_matrix(vacuum_projector(ctx16), vacuum_projector(ctx16)).mat[0, 0]
        want = coeff.real * 2.0
        assert bound <= 1e-5
        assert abs(val - want) <= bound

    def test_vacuum_idempotent_off_origin(self, f0):
        x = (1.0, -0.5)
        val, bound = star_integral_report(f0, f0, x)
        want = 2 * math.exp(-(x[0] ** 2 + x[1] ** 2))
        assert abs(val - want) <= bound + 1e-9

    def test_holomorphic_annihilates_vacuum(self, f0, zsym):
        # z * f0 corresponds to a e_0 = 0; sign errors in the kernel flip
        # this to a nonzero matrix element, so the zero pins orientation.
        x = (0.5, 0.25)
        val, bound = star_integral_report(zsym, f0, x)
        assert abs(val) <= bound + 1e-4

    def test_vacuum_times_holomorphic(self, f0, zsym):
        x = (0.5, 0.25)
        val, bound = star_integral_report(f0, zsym, x)
        z = (x[0] + 1j * x[1]) / math.sqrt(2.0)
        f0_at_x = 2 * math.exp(-(x[0] ** 2 + x[1] ** 2))
        want = 2 * z * f0_at_x
        assert abs(val - want) <= bound + 1e-4

    def test_windowed_unit(self, f0):
        w = window_profile(R)
        unit = SampledSymbol.from_function(lambda x1, x2: w(x1, x2) + 0j, R, H)
        val = star_integral_report(f0, unit, (0.0, 0.0))[0]
        assert abs(val - 2.0) < 0.05

    def test_theta_scaling(self):
        # wider Gaussian needs a wider box to certify its decay
        theta = 4.0
        sym = vacuum_symbol(theta, 12.0, H)
        val = star_integral_report(sym, sym, (0.0, 0.0), theta=theta)[0]
        assert abs(val - 2.0) < 1e-6

    def test_commutative_trend(self):
        f = SampledSymbol.from_function(gaussian((0.3, 0.0)), R, H)
        g = SampledSymbol.from_function(gaussian((0.0, 0.4)), R, H)
        x = (0.25, -0.125)
        fg = gaussian((0.3, 0.0))(*x) * gaussian((0.0, 0.4))(*x)
        gaps = [abs(star_integral_report(f, g, x, theta=t)[0] - fg) for t in (1.0, 0.5, 0.25)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_off_grid_point_rejected(self, f0):
        with pytest.raises(ValueError):
            star_integral_report(f0, f0, (0.013, 0.0))

    def test_far_point_rejected(self, f0):
        with pytest.raises(ValueError):
            star_integral_report(f0, f0, (7.5, 0.0))

    def test_nonpositive_theta_rejected(self, f0):
        with pytest.raises(ValueError):
            star_integral_report(f0, f0, (0.0, 0.0), theta=0.0)

    def test_grid_mismatch_rejected(self, f0):
        other = vacuum_symbol(1.0, R, 1.0 / 8.0)
        with pytest.raises(ValueError):
            star_integral_report(f0, other, (0.0, 0.0))


class TestFourierRoute:
    def test_vacuum_idempotent(self, f0):
        val = star_fourier(f0, f0, (0.0, 0.0))
        assert abs(val - 2.0) < 1e-6

    def test_round_trip_matches_integral(self):
        f = SampledSymbol.from_function(gaussian((0.3, 0.0)), R, H)
        g = SampledSymbol.from_function(gaussian((0.0, 0.4)), R, H)
        for x in ((0.0, 0.0), (0.25, -0.125)):
            via_fourier = star_fourier(f, g, x)
            via_integral = star_integral_report(f, g, x)[0]
            assert abs(via_fourier - via_integral) < 1e-6

    def test_zero_theta_is_pointwise_product(self):
        f = SampledSymbol.from_function(gaussian((0.3, 0.0)), R, H)
        g = SampledSymbol.from_function(gaussian((0.0, 0.4)), R, H)
        x = (0.25, -0.125)
        val = star_fourier(f, g, x, theta=0.0)
        want = gaussian((0.3, 0.0))(*x) * gaussian((0.0, 0.4))(*x)
        assert abs(val - want) < 1e-8

    def test_noncommutativity_scales_linearly(self):
        # sup |f*g - g*f| on a coarse point set should scale like theta;
        # the Fourier route keeps its phase slow at small theta, which the
        # direct kernel quadrature does not.
        r, h = 6.0, 1.0 / 8.0
        f = SampledSymbol.from_function(gaussian((0.3, 0.0)), r, h)
        g = SampledSymbol.from_function(gaussian((0.0, 0.4)), r, h)
        pts = [(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)]
        thetas = (0.1, 0.05, 0.025, 0.0125)
        sups = []
        for t in thetas:
            diffs = [
                abs(star_fourier(f, g, x, theta=t) - star_fourier(g, f, x, theta=t))
                for x in pts
            ]
            sups.append(max(diffs))
        slope = np.polyfit(np.log(thetas), np.log(sups), 1)[0]
        assert abs(slope - 1.0) < 0.05
