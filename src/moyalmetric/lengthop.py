"""Length operator on the doubled Fock space and derived length functionals.

The square length lives on the tensor product of two copies of the
truncated oscillator space:

    L2 = 2 * (H (x) I + I (x) H - a (x) a* - a* (x) a)

Pair states evaluate it to the quantum square length; its operator square
root evaluates to the quantum length.  Because the ladder matrix is real
in the number basis, L2 is a real symmetric matrix and all spectral work
stays in float64.

Every term of L2 conserves the total number s = n1 + n2: the H terms are
diagonal, a (x) a* moves one quantum from the first copy to the second
and a* (x) a moves it back.  Truncation only deletes matrix entries of a
and a*, so it cannot create a term that changes s, and the truncated L2
is exactly the direct sum of its 2N - 1 sectors s = 0 .. 2N - 2.  In the
first-copy level n1 each sector block is tridiagonal and of size at most
N.  The operator is therefore assembled, diagonalized, square-rooted and
held block by block, with work growing like N^4 rather than the N^6 of
the pair-space matrix, and pair traces run sector by sector without
forming any N^2 x N^2 matrix or N^4 tensor.

The square length itself needs none of this: on a product of states the
trace of L2 reduces to each state's energy and ladder moment, which are
computed once per state and cached on it, so ``d_L2`` and
``modified_length`` cost a few scalar float operations per pair.

A subtracted "modified" square length can be computed state-by-state, but
no single operator reproduces it; `counterexample_L2prime` quantifies the
obstruction on superpositions of well-separated levels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fock import (
    _CACHE_SIZE,
    FockContext,
    QState,
    _require_same_ctx,
    annihilation,
    eigenstate,
    hamiltonian,
    superposition_state,
)

__all__ = [
    "CounterexampleResult",
    "LengthOperator",
    "SectorOperator",
    "build_length",
    "counterexample_L2prime",
    "d_L",
    "d_L2",
    "modified_length",
]

@dataclass(frozen=True, eq=False)
class SectorOperator:
    """Pair-space operator that conserves n1 + n2, held as its sector blocks.

    ``blocks[s]`` is the operator on the pairs with n1 + n2 = s, indexed by
    the first-copy levels ``levels[s]`` (ascending; n2 = s - n1).  In the
    natural n1*N + n2 basis the operator is their N^2 x N^2 direct sum.
    """

    ctx: FockContext
    levels: tuple[np.ndarray, ...]
    blocks: tuple[np.ndarray, ...]

    @property
    def shape(self) -> tuple[int, int]:
        n = self.ctx.trunc_dim
        return (n * n, n * n)

    def pair_trace(self, s1: QState, s2: QState) -> float:
        """trace((rho1 (x) rho2) T) for this operator T.

        T only couples pairs within one sector, so with B = T's block on
        sector s the trace is sum_s sum_{p,q} B[p, q] rho1[q, p] rho2[s - q, s - p].
        """
        _require_same_ctx(s1.ctx, self.ctx)
        _require_same_ctx(s2.ctx, self.ctx)
        r1, r2 = s1.rho, s2.rho
        total = 0.0
        for s, (levels, block) in enumerate(zip(self.levels, self.blocks)):
            lo, hi = int(levels[0]), int(levels[-1]) + 1
            # c[i, j] = rho2[s - lo - i, s - lo - j], aligned with rho1[lo + i, lo + j].
            c = r2[s - hi + 1 : s - lo + 1, s - hi + 1 : s - lo + 1][::-1, ::-1]
            total += np.sum(block.T * (r1[lo:hi, lo:hi] * c))
        return float(total.real)


@dataclass(frozen=True, eq=False)
class LengthOperator:
    """Square length ``L2`` and its operator square root ``L`` on the pair
    space, both held as their total-number sectors, with the ascending
    eigenvalues ``spectrum`` of L2, all N^2 of them."""

    ctx: FockContext
    L2: SectorOperator
    L: SectorOperator
    spectrum: np.ndarray


@lru_cache(maxsize=_CACHE_SIZE)
def build_length(ctx: FockContext) -> LengthOperator:
    """Assemble and diagonalize the square length of a context by sector.

    Each block gets the same floating-point entries as the literal
    Kronecker assembly.  Each square root clamps tiny negative eigenvalues:
    the blocks compress a nonnegative operator, so genuine negatives cannot
    occur and clamping only guards against eigensolver roundoff.
    """
    n = ctx.trunc_dim
    h = np.diag(hamiltonian(ctx).mat.real)
    sub = np.diag(annihilation(ctx).mat.real, k=1)  # sub[m] = <m|a|m+1>
    sectors = []
    for s in range(2 * n - 1):
        levels = np.arange(max(0, s - n + 1), min(s, n - 1) + 1)
        # a* (x) a takes (n1, n2) to (n1 + 1, n2 - 1); a (x) a* takes it back.
        hop = -2.0 * (sub[levels[:-1]] * sub[s - levels[:-1] - 1])
        l2 = np.diag(2.0 * (h[levels] + h[s - levels])) + np.diag(hop, 1) + np.diag(hop, -1)
        w, v = np.linalg.eigh(l2)
        if w[0] < -ctx.tol:
            raise ArithmeticError(
                f"square length sector n1 + n2 = {s} has eigenvalue {w[0]:.3e} "
                "below -tol; the assembly is corrupted"
            )
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
        for arr in (levels, l2, root):
            arr.setflags(write=False)
        sectors.append((levels, l2, w, root))
    sector_levels, l2s, ws, roots = zip(*sectors)
    spectrum = np.sort(np.concatenate(ws))
    spectrum.setflags(write=False)
    return LengthOperator(
        ctx=ctx,
        L2=SectorOperator(ctx, sector_levels, l2s),
        L=SectorOperator(ctx, sector_levels, roots),
        spectrum=spectrum,
    )


def _square_length(e1: float, l1: complex, e2: float, l2: complex) -> float:
    """2*(e1 + e2 - 2*Re(l1 conj(l2))) in Python float arithmetic."""
    return 2.0 * (e1 + e2 - 2.0 * (l1 * l2.conjugate()).real)


def d_L2(s1: QState, s2: QState) -> float:
    """Quantum square length trace((rho1 (x) rho2) L2).

    Evaluated through the moment identity

        d_L2 = 2*(E1 + E2 - 2*Re(<a>_1 conj(<a>_2))),

    which is the same tensor trace with the product structure carried out
    exactly; it needs no pair-space matrix.  The moments E = Tr(rho H) and
    <a> = Tr(rho a) are computed once per state, O(N^2), and cached on it,
    so each pair costs a few scalar operations on Python floats.
    """
    _require_same_ctx(s1.ctx, s2.ctx)
    return _square_length(s1.mean_energy, s1.mean_ladder, s2.mean_energy, s2.mean_ladder)


def _family_square_length(theta: float, m: int, n: int, delta: float) -> float:
    """Closed form 2 E_m + 2 E_n + delta^2 of d_L2 between translates of the
    level-m and level-n states whose shifts differ by delta; E_k = theta (k + 1/2)."""
    e_m = theta * (m + 0.5)
    e_n = theta * (n + 0.5)
    return 2.0 * e_m + 2.0 * e_n + delta**2


def d_L(s1: QState, s2: QState) -> float:
    """Quantum length trace((rho1 (x) rho2) L); at most sqrt(d_L2)."""
    _require_same_ctx(s1.ctx, s2.ctx)
    return build_length(s1.ctx).L.pair_trace(s1, s2)


def modified_length(s1: QState, s2: QState) -> float:
    """Square root of the square length with its diagonal floor removed.

    Subtracting sqrt(d_L2(s1,s1)*d_L2(s2,s2)) makes the diagonal vanish;
    the absolute value guards roundoff when the subtraction is balanced.
    The three square lengths share each state's moments, read once.
    """
    _require_same_ctx(s1.ctx, s2.ctx)
    e1, l1 = s1.mean_energy, s1.mean_ladder
    e2, l2 = s2.mean_energy, s2.mean_ladder
    floor = math.sqrt(_square_length(e1, l1, e1, l1) * _square_length(e2, l2, e2, l2))
    return math.sqrt(abs(_square_length(e1, l1, e2, l2) - floor))


class CounterexampleResult(NamedTuple):
    lhs: float
    rhs: float
    residual: float


def _modified_sq_traced(op: LengthOperator, s1: QState, s2: QState) -> float:
    """Modified square length evaluated through pair-space traces of L2."""
    diag = math.sqrt(op.L2.pair_trace(s1, s1) * op.L2.pair_trace(s2, s2))
    return abs(op.L2.pair_trace(s1, s2) - diag)


def counterexample_L2prime(
    ctx: FockContext, i: int, j: int, k: int, l: int
) -> CounterexampleResult:
    """Obstruction to realizing the modified square length by an operator.

    If some pair-space operator reproduced the modified square length on
    all states, linearity of the trace in rho1 would force

        3*d'(w_ijk, w_l)^2 = 2*sum_pairs d'(w_pq, w_l)^2
                             - sum_singles d'(w_p, w_l)^2

    for equal-weight superpositions w_ijk, w_pq of levels i, j, k with
    pairwise separation >= 2 (separation kills the ladder cross moments,
    making every closed form below exact).  Returns (lhs, rhs, lhs - rhs);
    a residual away from zero certifies that no such operator exists.

    Each closed form is cross-checked against the pair-space trace of L2
    before returning.
    """
    idx = (i, j, k, l)
    if any(int(x) != x or x < 0 for x in idx):
        raise ValueError(f"indices must be nonnegative integers, got {idx}")
    i, j, k, l = (int(x) for x in idx)
    for a_, b_ in ((i, j), (i, k), (i, l), (j, k), (j, l), (k, l)):
        if abs(a_ - b_) < 2:
            raise ValueError(
                f"indices must be pairwise separated by at least 2, got {idx} "
                f"(offending pair {a_}, {b_})"
            )
    if max(idx) >= ctx.interior_dim:
        raise ValueError(
            f"indices must stay below the guarded edge {ctx.interior_dim}, got {idx}"
        )

    def energy(m: int) -> float:
        return ctx.theta * (m + 0.5)

    e_l = energy(l)
    triple_mean = (energy(i) + energy(j) + energy(k)) / 3.0

    def pair_sq(p: int, q: int) -> float:
        return (math.sqrt(energy(p) + energy(q)) - math.sqrt(2.0 * e_l)) ** 2

    def single_sq(p: int) -> float:
        return (math.sqrt(2.0 * energy(p)) - math.sqrt(2.0 * e_l)) ** 2

    triple_sq = (math.sqrt(2.0 * triple_mean) - math.sqrt(2.0 * e_l)) ** 2
    lhs = 3.0 * triple_sq
    rhs = 2.0 * (pair_sq(i, j) + pair_sq(i, k) + pair_sq(j, k)) - (
        single_sq(i) + single_sq(j) + single_sq(k)
    )

    # Dual route: rebuild every modified square through pair-space traces.
    op = build_length(ctx)
    target = eigenstate(ctx, l)
    checks = [
        (triple_sq, superposition_state(ctx, [i, j, k], [1.0, 1.0, 1.0])),
        (pair_sq(i, j), superposition_state(ctx, [i, j], [1.0, 1.0])),
        (pair_sq(i, k), superposition_state(ctx, [i, k], [1.0, 1.0])),
        (pair_sq(j, k), superposition_state(ctx, [j, k], [1.0, 1.0])),
        (single_sq(i), eigenstate(ctx, i)),
        (single_sq(j), eigenstate(ctx, j)),
        (single_sq(k), eigenstate(ctx, k)),
    ]
    for want, state in checks:
        got = _modified_sq_traced(op, state, target)
        if abs(got - want) > 1e-6:
            raise ArithmeticError(
                f"closed form {want:.9g} disagrees with the pair-space trace "
                f"{got:.9g} for state {state.tag!r}"
            )
    return CounterexampleResult(lhs=lhs, rhs=rhs, residual=lhs - rhs)
