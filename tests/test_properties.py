"""Property-based invariants over randomly drawn states and expressions.

These complement the worked-value tests: instead of pinning numbers, they
assert structure that must hold for every admissible input, with hypothesis
driving the sampling under the derandomized "suite" profile from conftest.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moyalmetric import (
    FockContext,
    d_L2,
    displace,
    distance_diagonal_lp,
    DiracCalculus,
    eigenstate,
    mixed_state,
    superposition_state,
    uncertainty_product,
)
from moyalmetric.stateexpr import format_state_expr, parse_state_expr

finite = st.floats(allow_nan=False, allow_infinity=False)
small_shift = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)
unit_coeff = st.complex_numbers(
    min_magnitude=0.05, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


@st.composite
def superpositions(draw, ctx, max_index=8):
    indices = draw(
        st.lists(st.integers(0, max_index), min_size=1, max_size=3, unique=True)
    )
    coeffs = draw(
        st.lists(unit_coeff, min_size=len(indices), max_size=len(indices))
    )
    return superposition_state(ctx, indices, coeffs)


@st.composite
def diagonal_states(draw, ctx):
    indices = draw(
        st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True)
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=5.0),
            min_size=len(indices),
            max_size=len(indices),
        )
    )
    return mixed_state([eigenstate(ctx, i) for i in indices], weights)


class TestStateInvariants:
    @given(st.data())
    def test_uncertainty_product_floor(self, ctx16, data):
        state = data.draw(superpositions(ctx16))
        assert uncertainty_product(state) >= ctx16.theta / 2.0 - 1e-8

    @given(st.data())
    def test_displacements_compose_additively(self, ctx32, data):
        base = eigenstate(ctx32, data.draw(st.integers(0, 2)))
        k1 = data.draw(small_shift)
        k2 = data.draw(small_shift)
        stepped = displace(displace(base, k1), k2)
        direct = displace(base, k1 + k2)
        # density matrices, not vectors: the two routes differ by the
        # symplectic phase, which cancels in rho
        assert float(np.abs(stepped.rho - direct.rho).max()) < 1e-9

    @given(st.data())
    def test_square_length_translation_invariant(self, ctx32, data):
        s1 = data.draw(superpositions(ctx32, max_index=3))
        s2 = data.draw(superpositions(ctx32, max_index=3))
        delta = data.draw(small_shift)
        moved = d_L2(displace(s1, delta), displace(s2, delta))
        assert moved == pytest.approx(d_L2(s1, s2), abs=1e-8)

    @given(st.data())
    def test_leakage_grows_along_a_translation_ray(self, data):
        # A loose guard bound lets amplitudes reach tail weights far above
        # float noise; the guarded-band weight of the translated ground
        # state is a Poisson tail, strictly increasing in the mean.
        ctx = FockContext(16, 1.0, leakage_bound=1e-2)
        phase = complex(math.cos(p := data.draw(st.floats(0, 2 * math.pi))), math.sin(p))
        tails = [displace(eigenstate(ctx, 0), r * phase).leakage() for r in (1.0, 1.5, 2.0)]
        assert tails[0] < tails[1] < tails[2]
        assert tails[0] == pytest.approx(
            displace(eigenstate(ctx, 0), 1.0).leakage(), rel=1e-9
        )


class TestDiagonalMetricAxioms:
    @given(st.data())
    def test_identity_symmetry_triangle(self, ctx16, data):
        calc = DiracCalculus(ctx16)
        a = data.draw(diagonal_states(ctx16))
        b = data.draw(diagonal_states(ctx16))
        c = data.draw(diagonal_states(ctx16))

        def d(x, y):
            return distance_diagonal_lp(calc, x, y).value

        assert d(a, a) <= 1e-12
        assert d(a, b) == pytest.approx(d(b, a), abs=1e-10)
        assert d(a, c) <= d(a, b) + d(b, c) + 1e-8


# ---------------------------------------------------------------------------
# expression grammar round-trip

eigen_tags = st.integers(0, 1000).map(lambda m: ("eigen", m))
coherent_tags = st.builds(complex, finite, finite).map(lambda c: ("coherent", c))
super_tags = st.builds(
    lambda idx, cs: ("super", tuple(idx), tuple(cs[: len(idx)])),
    st.lists(st.integers(0, 40), min_size=1, max_size=4, unique=True),
    st.lists(st.builds(complex, finite, finite), min_size=4, max_size=4),
)
base_tags = st.one_of(eigen_tags, coherent_tags, super_tags)
translated_tags = st.builds(
    lambda b, c: ("translated", b, c),
    st.one_of(
        base_tags,
        st.builds(lambda b, c: ("translated", b, c), base_tags,
                  st.builds(complex, finite, finite)),
    ),
    st.builds(complex, finite, finite),
)
pure_tags = st.one_of(base_tags, translated_tags)
mix_tags = st.builds(
    lambda ws, ts: ("mix", tuple(ws[: len(ts)]), tuple(ts)),
    st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=3, max_size=3),
    st.lists(pure_tags, min_size=1, max_size=3),
)


class TestExpressionRoundTrip:
    @given(st.one_of(pure_tags, mix_tags))
    def test_parse_inverts_format(self, tag):
        assert parse_state_expr(format_state_expr(tag)) == tag

    @given(st.one_of(pure_tags, mix_tags))
    def test_format_is_canonical(self, tag):
        text = format_state_expr(tag)
        assert format_state_expr(parse_state_expr(text)) == text
