"""Dirac calculus and spectral distances on the truncated quantum plane.

The derivative maps are scaled ladder commutators,

    dz(F)    = -theta^-1 [a*, F]
    dzbar(F) = +theta^-1 [a, F]

with signs fixed so that dz applied to the ladder image of the holomorphic
coordinate gives the identity on the interior block.  The ladder has one
nonzero per row, so both maps are computed as shifted-slice products in
O(N^2), equal to the dense commutators exactly.  The spectral distance
between two states is the supremum of the evaluation gap over Hermitian
elements whose commutator seminorm is at most one; this module provides
closed forms where they exist, an exact linear-program reduction for
diagonal states, and a bracketing solver for everything else;
``_single_route`` takes the first of the three that covers a pair.  One
function, ``_closed_value``, decides the closed-form value of a pair; the
LP and the solver read their gaps from it, and only ``closed_form_for``,
whose report carries the optimal element, builds a certificate for it.

The seminorm reads an element only on the corner, levels 0..m with
m = interior_dim, and is blind there to span{1, |m><m|}; the truncated
distance is therefore taken over corner elements modulo that kernel, and
what this drops, the state difference outside the corner and on the
kernel, is reported as leakage rather than ignored.  With A = sqrt(2) crop
dz on the corner, that distance is the dual problem min ||Y||_* subject to
A* Y = corner drho, off the kernel.  A maps diagonal offset d to offsets
d - 1 and -d - 1 only, so it splits into small real blocks by offset
(``DiracCalculus._offset_blocks``), which give both its smallest nonzero
singular value s_min (``DiracCalculus.corner_s_min``) and the exact
projection Pi onto the dual constraint (``_project``): one gather, one
batched product with the blocks' pseudo-inverses and one scatter.  A dual
Y bounds the distance by ||Y||_* plus its residual charged at
sqrt(m) / s_min (``_dual_upper``).

One prove-or-search core, ``_prove_or_search``, serves both sheets: no
search runs where an explicit dual, as given or projected, proves the best
seeded candidate optimal, with leakage at most tol and the bound within
tol of the value.  On one sheet the duals are the tail dual of a state difference that is exactly diagonal with no
weight at the guarded levels (``_lp_dual``) and the path mean of a
translation (``_translation_dual``).  Elsewhere one deterministic
splitting loop, scaled ADMM on the dual problem (``_splitting_loop``),
runs on a sheet's four operations (``_Sheet``; ``doubling`` supplies the
two-sheet ones) and brackets the distance.  SVDs are left to the
final-certificate check ``lipschitz_seminorm``.

Seminorms are evaluated on the interior block (rows and columns below the
edge guard): commutators of a with a generic element are corrupted in the
guarded corner by truncation, and cropping removes exactly that corruption
for first-order objects.  Composite identities multiply at full size first
and crop afterwards.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .fock import (
    FockContext,
    Operator,
    QState,
    _displacement_eigh,
    _require_same_ctx,
    annihilation,
    displacement_operator,
)

__all__ = [
    "DiracCalculus",
    "DiscrepancyResult",
    "DistanceReport",
    "SolverConfig",
    "closed_form_for",
    "distance_diagonal_lp",
    "distance_solver",
    "length_vs_optimal_discrepancy",
    "lipschitz_seminorm",
    "optimal_element_eigenstates",
    "optimal_element_translation",
]

_TINY = 1e-14


@dataclass(frozen=True)
class DiracCalculus:
    """Derivative maps of the quantum plane over one context.

    The ladder a has one nonzero per row, l_k = lambda_p sqrt(k) at (k-1, k),
    so each product with it is a shifted slice scaled by l, O(N^2) where a
    dense product is O(N^3).  The maps keep the dense order of operations
    (both products, their difference, the sign, then / theta) and every
    nonzero product is a single rounding either way, so their output equals
    the dense commutators exactly, signed zeros aside; the tests keep the
    dense form as the oracle.
    """

    ctx: FockContext

    @cached_property
    def _a(self) -> np.ndarray:
        return annihilation(self.ctx).mat

    @cached_property
    def _ladder(self) -> np.ndarray:
        """The superdiagonal l_1..l_{N-1} of a."""
        return np.diagonal(self._a, 1).real

    @cached_property
    def _ladder_element(self) -> tuple[Operator, float]:
        """The number-state ladder element, built and checked once, with its
        seminorm (see ``optimal_element_eigenstates``)."""
        element = _checked_ladder_element(self)
        return element, lipschitz_seminorm(self, element)

    def _dz(self, mat: np.ndarray) -> np.ndarray:
        ell = self._ladder
        ad_mat = np.zeros(mat.shape, dtype=complex)
        ad_mat[1:] = ell[:, None] * mat[:-1]  # row k of a* mat is l_k mat[k-1]
        mat_ad = np.zeros(mat.shape, dtype=complex)
        mat_ad[:, :-1] = mat[:, 1:] * ell  # column k of mat a* is mat[:, k+1] l_{k+1}
        return -(ad_mat - mat_ad) / self.ctx.theta

    def _dzbar(self, mat: np.ndarray) -> np.ndarray:
        ell = self._ladder
        a_mat = np.zeros(mat.shape, dtype=complex)
        a_mat[:-1] = ell[:, None] * mat[1:]  # row k of a mat is l_{k+1} mat[k+1]
        mat_a = np.zeros(mat.shape, dtype=complex)
        mat_a[:, 1:] = mat[:, :-1] * ell  # column k of mat a is mat[:, k-1] l_k
        return (a_mat - mat_a) / self.ctx.theta

    def _crop(self, mat: np.ndarray) -> np.ndarray:
        m = self.ctx.interior_dim
        return mat[:m, :m]

    def _pad(self, block: np.ndarray) -> np.ndarray:
        # Adjoint of the crop under the Frobenius pairing; the adjoints of
        # dz and dzbar are -dzbar and -dz.
        m = self.ctx.interior_dim
        out = np.zeros((self.ctx.trunc_dim,) * 2, dtype=complex)
        out[:m, :m] = block
        return out

    def _offset_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """A = sqrt(2) crop dz on Hermitian elements of the corner, levels
        0..m with m = interior_dim, split by diagonal offset: yields one
        (block, rows, cols) per offset d = 0..m in turn, where the real block maps the
        entries x_d[i] = x[i, i+d] to the image entries at (rows, cols) of
        the m x m A x, up to the sqrt(2), conjugated at offsets below -1.

        dz maps diagonal offset d of x to offset d - 1, so A splits into one
        block per offset pair (d, -d).  The real diagonal feeds output offset
        -1 alone, (k, k-1) -> l_k (x_kk - x_{k-1,k-1}) for k = 1..m-1: an
        (m-1) x (m+1) block B_0 whose two spare columns are A's kernel there,
        span{1, |m><m|}.  For d >= 1, x_d feeds output offset d - 1 and,
        conjugated, offset -d - 1: a real stacked block [B_d; C_d] acting on
        the real and imaginary parts alike.  Every image entry belongs to
        exactly one block.
        """
        m = self.ctx.interior_dim
        ell = np.concatenate(([0.0], self._ladder[:m])) / self.ctx.theta  # l_0..l_m
        k = np.arange(1, m)
        b0 = np.zeros((m - 1, m + 1))
        b0[k - 1, k] = ell[k]
        b0[k - 1, k - 1] = -ell[k]
        yield b0, k, k - 1
        for d in range(1, m + 1):
            n = m + 1 - d
            i = np.arange(n)
            r = np.arange(max(n - 2, 0))
            block = np.zeros((n + r.size, n))
            # (k, k+d-1): l_{k+d} x_d[k] - l_k x_d[k-1], k = 0..m-d
            block[i, i] = ell[i + d]
            block[i[1:], i[1:] - 1] = -ell[i[1:]]
            # (k, k-d-1), row r = k-d-1 = 0..m-d-2:
            # l_{r+1} conj x_d[r+1] - l_{r+d+1} conj x_d[r]
            block[n + r, r + 1] = ell[r + 1]
            block[n + r, r] = -ell[r + d + 1]
            yield block, np.concatenate((i, r + d + 1)), np.concatenate((i + d - 1, r))

    @cached_property
    def corner_s_min(self) -> float:
        """Smallest nonzero singular value of A = sqrt(2) crop dz on Hermitian
        elements of the corner under the Frobenius norms, from the offset
        blocks (``_offset_blocks``).  x_d enters the Frobenius norm twice,
        once per triangle, which scales the singular values of the blocks
        with d >= 1 by 1/sqrt(2).
        """
        blocks = self._offset_blocks()
        b0, _, _ = next(blocks)
        smallest = np.linalg.svd(b0, compute_uv=False)[-1]
        for block, _, _ in blocks:
            smallest = min(smallest, np.linalg.svd(block, compute_uv=False)[-1] / math.sqrt(2.0))
        return math.sqrt(2.0) * float(smallest)

    @cached_property
    def _offset_pinv(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The offset blocks' pseudo-inverses over sqrt(2), stacked, and the
        flat positions of both of their sides.

        pinv(block_d) / sqrt(2) is an n x r array with n = m+1-d (r = 2n-2,
        or 1 at n = 1).  Blocks d and m+1-d share slice min(d, m+1-d) of the
        stack P, one after the other along both axes; their sizes add up to
        at most (m+1) x (2m-1), and zeros fill the rest, so P has shape
        ((m+1)//2 + 1, m+1, 2m-1) and takes 0.6 MB at N=48.
        The positions are, for the entries x[i, i+d] of a corner element
        (d-major, so the diagonal comes first), their slot in a packed array
        of P's first two axes and their index in the flattened N x N upper
        and lower triangles; and, for the rows of each block, their slot in
        a packed array of P's first and last axes and their index in the
        flattened m x m image, split by whether the image entry is read
        directly or conjugated (offsets below -1).
        """
        m, n = self.ctx.interior_dim, self.ctx.trunc_dim
        width = 2 * m - 1
        stack = np.zeros(((m + 1) // 2 + 1, m + 1, width))
        xslot, xup, xlo, xscale, yslot, yflat, yconj = ([] for _ in range(7))
        for d, (block, rows, cols) in enumerate(self._offset_blocks()):
            t = min(d, m + 1 - d)
            r0, c0 = (0, 0) if d == t else (d, 2 * d - 2)  # after block t, d x (2d - 2)
            pinv = np.linalg.pinv(block) / math.sqrt(2.0)
            stack[t, r0 : r0 + pinv.shape[0], c0 : c0 + pinv.shape[1]] = pinv
            i = np.arange(m + 1 - d)
            xslot.append(t * (m + 1) + r0 + i)
            xup.append(i * n + i + d)
            xlo.append((i + d) * n + i)
            xscale.append(np.full(i.size, 1.0 if d == 0 else 2.0))
            yslot.append(t * width + c0 + np.arange(rows.size))
            yflat.append(rows * m + cols)
            yconj.append(cols - rows <= -2)
        xslot, xup, xlo, xscale, yslot, yflat, yconj = map(
            np.concatenate, (xslot, xup, xlo, xscale, yslot, yflat, yconj))
        return stack, (xslot, xup, xlo, xscale, yslot[~yconj], yflat[~yconj],
                       yslot[yconj], yflat[yconj])

    def _offset_gather(self, r: np.ndarray) -> np.ndarray:
        """The entries r[i, i+d] of a Hermitian r on the corner, in the slots
        of ``_offset_pinv``'s first two axes, times c_d: 2 for d >= 1, which
        the Frobenius pairing counts in both triangles, 1 on the diagonal."""
        stack, (xslot, xup, _, scale, *_) = self._offset_pinv
        packed = np.zeros(stack.shape[:2], dtype=complex)
        packed.reshape(-1)[xslot] = scale * r.reshape(-1)[xup]
        return packed

    def _offset_scatter(self, parts: np.ndarray) -> np.ndarray:
        """The Hermitian corner element whose entries x[i, i+d] sit in the
        slots of ``parts``, real and imaginary parts along its last axis."""
        _, (xslot, xup, xlo, *_) = self._offset_pinv
        m = self.ctx.interior_dim
        x = parts.view(complex).reshape(-1)[xslot]
        x[: m + 1] = x[: m + 1].real
        out = np.zeros((self.ctx.trunc_dim,) * 2, dtype=complex)
        out.reshape(-1)[xlo] = x.conj()
        out.reshape(-1)[xup] = x
        return out

    def _least_squares(self, y: np.ndarray) -> np.ndarray:
        """A^+ Y: the corner element x orthogonal to A's kernel that minimizes
        ||A x - Y||_F for an m x m Y, as an N x N Hermitian matrix that is
        zero off the corner.  Offset by offset, x_d = P_d Y_d with Y_d the
        image entries of block d; the diagonal reads Re Y at offset -1."""
        stack, (*_, yslot, yflat, cslot, cflat) = self._offset_pinv
        packed = np.zeros(stack.shape[::2], dtype=complex)
        packed.reshape(-1)[yslot] = y.reshape(-1)[yflat]
        packed.reshape(-1)[cslot] = y.reshape(-1)[cflat].conj()
        return self._offset_scatter(stack @ packed.view(float).reshape(*packed.shape, 2))

    def _least_norm(self, r: np.ndarray) -> np.ndarray:
        """(A*)^+ r: the m x m Y of least Frobenius norm whose A* Y is the part
        of a Hermitian r, read on the corner, orthogonal to A's kernel.
        Offset by offset, Y_d = c_d P_d^T r_d (``_offset_gather``)."""
        stack, (*_, yslot, yflat, cslot, cflat) = self._offset_pinv
        m = self.ctx.interior_dim
        packed = self._offset_gather(r)
        parts = packed.view(float).reshape(*packed.shape, 2).transpose(0, 2, 1) @ stack
        vals = (parts[:, 0] + 1j * parts[:, 1]).reshape(-1)
        out = np.zeros((m, m), dtype=complex)
        out.reshape(-1)[yflat] = vals[yslot]
        out.reshape(-1)[cflat] = vals[cslot].conj()
        return out

    def dz(self, f: Operator) -> Operator:
        _require_same_ctx(self.ctx, f.ctx)
        return Operator(self.ctx, self._dz(f.mat))

    def dzbar(self, f: Operator) -> Operator:
        _require_same_ctx(self.ctx, f.ctx)
        return Operator(self.ctx, self._dzbar(f.mat))


@dataclass(frozen=True)
class DistanceReport:
    """A distance value together with the element that certifies it.

    ``feasibility`` is the achieved seminorm of the certificate; for the LP
    and solver methods it must not exceed 1 + 1e-8, which makes ``value`` a
    certified lower bound on the distance.  ``gap`` is filled when an
    independent cross-check (closed form, or the LP on diagonal pairs)
    exists.  ``increments`` carries the diagonal profile of ladder-type
    certificates.  ``upper`` is a proven upper bound on the distance over
    corner elements, set by the solver on every pair whose leakage is at
    most ctx.tol (from an explicit dual where one proves the value, else
    from the splitting loop, see ``distance_solver``) and likewise on every
    opposite-sheet ``doubling.doubled_distance`` report, over corner pairs;
    it is None elsewhere, and a same-sheet ``doubled_distance`` report
    carries its single-sheet route's ``upper``.
    """

    value: float
    method: str
    certificate: Operator | None
    feasibility: float
    gap: float | None = None
    note: str = ""
    increments: tuple[float, ...] | None = None
    upper: float | None = None


@dataclass(frozen=True)
class SolverConfig:
    """Budget of the solvers: ``iterations`` counts splitting-loop
    iterations on either sheet, and the loop is deterministic.  ``restarts``
    and ``seed`` are read by nothing; the benchmark harness in ``perfbench/``
    still passes them, and they go with its refresh (see ROADMAP).
    """

    iterations: int = 2000
    restarts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be positive")


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def lipschitz_seminorm(calc: DiracCalculus, f: Operator) -> float:
    """sqrt(2) * max of the interior operator norms of dz(f) and dzbar(f).

    This is the operator norm of the anti-diagonal block commutator of the
    Dirac operator with f; the scale is fixed by the translation element
    having seminorm exactly one.  For Hermitian f the dzbar block is the
    adjoint of the dz block, so one SVD, independent of the solver, suffices.
    """
    _require_same_ctx(calc.ctx, f.ctx)
    scale = max(1.0, float(np.abs(f.mat).max()))
    if float(np.abs(f.mat - f.mat.conj().T).max()) > calc.ctx.tol * scale:
        raise ValueError("seminorm is defined for Hermitian elements only")
    return math.sqrt(2.0) * float(np.linalg.norm(calc._crop(calc._dz(f.mat)), 2))


def optimal_element_translation(calc: DiracCalculus, Xi: float) -> Operator:
    """Unit-seminorm element (a e^{-i Xi} + a* e^{i Xi}) / sqrt(2).

    Its evaluation gap between a state and its translate by kappa equals
    Re(kappa e^{-i Xi}), hence |kappa| at the aligned phase.  The squared
    commutator identity (twice the product of the derivative with its
    adjoint equals the identity) is verified on the interior block before
    returning.
    """
    ctx = calc.ctx
    phase = complex(math.cos(Xi), math.sin(Xi))
    a = calc._a
    mat = (a * np.conj(phase) + a.conj().T * phase) / math.sqrt(2.0)
    d = calc._dz(mat)
    square = calc._crop(2.0 * (d.conj().T @ d))
    resid = float(np.abs(square - np.eye(ctx.interior_dim)).max())
    if resid > 1e-12:
        raise ArithmeticError(
            f"translation element failed its unit-square check (residual {resid:.3e})"
        )
    return Operator(ctx, mat, hermitian=True)


def _ladder_defect(calc: DiracCalculus, mat: np.ndarray) -> float:
    """Interior residual of the defect identity 1 - 2 d d* = |0><0|, d = dz(mat),
    which holds exactly for the ladder element."""
    ctx = calc.ctx
    d = calc._dz(mat)
    m = ctx.interior_dim
    defect = np.eye(ctx.trunc_dim) - 2.0 * (d @ d.conj().T)
    want = np.zeros((m, m))
    want[0, 0] = 1.0
    return float(np.abs(defect[:m, :m] - want).max())


def optimal_element_eigenstates(calc: DiracCalculus, upto: int) -> Operator:
    """Diagonal ladder element with increments lambda_p / sqrt(2k).

    Pairing it with two number states telescopes the increments, which is
    the additive closed-form distance.  ``upto`` is the largest index the
    caller intends to pair; it is only validated, and must stay below the
    guarded edge: the matrix carries the increments at every level, so
    one element serves every ``upto`` and it is built once per calculus.
    Carrying every level makes two structural identities exact, and they
    are verified when it is built: the derivative defect reproduces the
    ground projector, and the derivative transported along the ladder
    squares to half the number operator.
    """
    m = calc.ctx.interior_dim
    if int(upto) != upto or not 0 <= upto < m:
        raise ValueError(f"upto must satisfy 0 <= upto < {m}, got {upto}")
    return calc._ladder_element[0]


def _checked_ladder_element(calc: DiracCalculus) -> Operator:
    """Build the ladder element and verify its two identities."""
    ctx = calc.ctx
    ks = np.arange(1, ctx.trunc_dim)
    alpha = np.concatenate(([0.0], np.cumsum(ctx.lambda_p / np.sqrt(2.0 * ks))))
    mat = np.diag(alpha)
    resid = _ladder_defect(calc, mat)
    if resid > 1e-12:
        raise ArithmeticError(
            f"ladder element defect check failed (residual {resid:.3e})"
        )
    # Transport identity: (d a)(d a)* equals half the number operator.
    m = ctx.interior_dim
    t = calc._dz(mat) @ calc._a
    lhs = (t @ t.conj().T)[:m, :m]
    rhs = 0.5 * (calc._a.conj().T @ calc._a)[:m, :m]
    # Relative to the largest entry, which grows like theta * m.
    resid = float(np.abs(lhs - rhs).max())
    if resid > 1e-12 * max(1.0, float(np.abs(rhs).max())):
        raise ArithmeticError(
            f"ladder element transport check failed (residual {resid:.3e})"
        )
    return Operator(ctx, mat, hermitian=True)


def _eigen_sum(ctx: FockContext, m: int, n: int) -> float:
    lo, hi = sorted((int(m), int(n)))
    return ctx.lambda_p * sum(1.0 / math.sqrt(2.0 * k) for k in range(lo + 1, hi + 1))


def _closed_value(s1: QState, s2: QState) -> float | None:
    """The closed-form distance of a state pair, or None when none covers it.

    Translates of a common level are |nu - mu| apart; number states at a
    common translation are the partial sum of lambda_p / sqrt(2k) apart,
    by translation covariance.  The value is truncation-independent.
    """
    f1, f2 = s1.family, s2.family
    if f1 is None or f2 is None:
        return None
    (m, mu), (n, nu) = f1, f2
    if m == n:
        return abs(nu - mu)
    if abs(mu - nu) < 1e-12:
        return _eigen_sum(s1.ctx, m, n)
    return None


def closed_form_for(calc: DiracCalculus, s1: QState, s2: QState) -> DistanceReport | None:
    """The closed-form distance with its certificate, or None.

    Translates of a common level are certified by the translation element
    at the phase of nu - mu, and number states at a common translation mu
    by the ladder element L up to the larger level, carried along by the
    translation: U(mu) L U(mu)*, which pairs with the translated states as
    L does with the untranslated ones.
    """
    _require_same_ctx(s1.ctx, s2.ctx)
    value = _closed_value(s1, s2)
    if value is None:
        return None
    (m, mu), (n, nu) = s1.family, s2.family
    if m == n:
        kappa = nu - mu
        cert = optimal_element_translation(
            calc, math.atan2(kappa.imag, kappa.real) if value > 0 else 0.0
        )
        feasibility = lipschitz_seminorm(calc, cert)
    else:
        cert = optimal_element_eigenstates(calc, upto=max(m, n))
        feasibility = calc._ladder_element[1]
        if abs(mu) > 1e-12:
            u = displacement_operator(calc.ctx, mu).mat
            cert = Operator(calc.ctx, _hermitize(u @ cert.mat @ u.conj().T), hermitian=True)
            feasibility = lipschitz_seminorm(calc, cert)
    return DistanceReport(
        value=value,
        method="closed-form",
        certificate=cert,
        feasibility=feasibility,
    )


def _diagonal_weights(state: QState) -> np.ndarray:
    rho = state.rho
    off = rho - np.diag(np.diag(rho))
    if float(np.abs(off).max()) > state.ctx.tol:
        raise ValueError(
            "state is not diagonal in the number basis; the linear program "
            "applies to number states and their mixtures only"
        )
    return np.diag(rho).real


def distance_diagonal_lp(calc: DiracCalculus, s1: QState, s2: QState) -> DistanceReport:
    """Exact distance between number-diagonal states via tail sums.

    For diagonal states the optimal element can be taken diagonal, and the
    unit-seminorm cone is exactly |alpha_k - alpha_{k-1}| <= lambda_p /
    sqrt(2k) for increments below the guarded edge.  Writing the objective
    through the increments turns it into independent interval choices,
    maximized by increments of size cap * sign(tail sum).  ``gap`` is the
    distance to the closed form when one covers the pair.
    """
    _require_same_ctx(calc.ctx, s1.ctx)
    _require_same_ctx(s1.ctx, s2.ctx)
    ctx = calc.ctx
    p = _diagonal_weights(s1)
    q = _diagonal_weights(s2)
    diff = q - p
    m = ctx.interior_dim
    tails = np.cumsum(diff[::-1])[::-1]
    caps = ctx.lambda_p / np.sqrt(2.0 * np.arange(1, m))
    value = float(np.sum(caps * np.abs(tails[1:m])))
    incs = caps * np.sign(tails[1:m])
    nz = np.nonzero(incs)[0]
    if nz.size and incs[nz[0]] < 0:
        incs = -incs
    alpha = np.zeros(ctx.trunc_dim)
    alpha[1:m] = np.cumsum(incs)
    alpha[m:] = alpha[m - 1]
    cert = Operator(ctx, np.diag(alpha), hermitian=True)
    ref = _closed_value(s1, s2)
    return DistanceReport(
        value=value,
        method="diagonal-lp",
        certificate=cert,
        feasibility=lipschitz_seminorm(calc, cert),
        gap=None if ref is None else abs(value - ref),
        increments=tuple(float(x) for x in incs),
    )


def _objective(g: np.ndarray, x: np.ndarray) -> float:
    """Evaluation pairing Re tr(g x), summed over sheets for stacked input."""
    return float(np.einsum("...ij,...ji->...", g, x).sum().real)


def _top_singular_value(x: np.ndarray) -> float:
    """Largest singular value of x from one eigh of the Gram matrix x* x: with
    v its top eigenvector, sigma = |x v|."""
    v = np.linalg.eigh(x.conj().T @ x)[1][:, -1]
    return float(np.linalg.norm(x @ v))


def _corner_adjoint(calc: DiracCalculus, y: np.ndarray) -> np.ndarray:
    """A* Y = Herm(-sqrt(2) dzbar(pad Y)), the adjoint of A = sqrt(2) crop dz
    on Hermitian elements under <P, Q> = Re tr(P* Q); it is zero off the
    corner and orthogonal to A's kernel there."""
    return _hermitize(-math.sqrt(2.0) * calc._dzbar(calc._pad(y)))


def _sheet_seminorm(calc: DiracCalculus, mat: np.ndarray) -> float:
    """The search seminorm of a Hermitian element, sqrt(2) sigma_max of
    crop(dz(mat)) from a Gram eigh (``_top_singular_value``)."""
    return math.sqrt(2.0) * _top_singular_value(calc._crop(calc._dz(mat)))


def _best_candidate(g: np.ndarray, seminorm, candidates) -> tuple[float, np.ndarray | None]:
    """Largest evaluation ratio |<g, x>| / p(x) over the candidates, with its
    element rescaled to a unit one with a nonnegative objective; the first
    of equal ratios wins.  Returns (0, None) if every candidate has zero
    seminorm."""
    best, best_val = None, 0.0
    for x in candidates:
        s = seminorm(x)
        if s < _TINY:
            continue
        val = abs(_objective(g, x)) / s
        if val > best_val:
            best, best_val = x / s, val
    if best is not None and _objective(g, best) < 0:
        best = -best
    return best_val, best


class _Sheet(NamedTuple):
    """A sheet's pairing g (a stacked pair on two sheets), the side of its
    dual W, and its operations for the splitting loop and the dual proofs:
    the nearest W that meets the dual constraint, the element K^+ U off the
    kernel of its map K, the search seminorm ||K x||, and (upper, leakage)
    of a dual W."""

    g: np.ndarray
    size: int
    project: Callable[[np.ndarray], np.ndarray]
    least_squares: Callable[[np.ndarray], np.ndarray]
    seminorm: Callable[[np.ndarray], float]
    upper: Callable[[np.ndarray], tuple[float, float]]


def _prove_or_search(
    sheet: _Sheet, seeded, duals, cfg: SolverConfig, tol: float
) -> tuple[float, np.ndarray | None, float | None]:
    """The one prove-or-search core of both sheets' solvers.

    Returns (value, element, upper): the best evaluation ratio, its unit
    element with a nonnegative objective (None if every candidate has zero
    seminorm), and a proven upper bound on the distance, or None.  No search
    runs where an explicit dual, as given or else projected, proves the best
    seeded candidate optimal: leakage at most tol and its bound within tol
    max(1, value) of the value.  The projection repairs a dual that meets
    the constraint only approximately, such as a path mean whose path states
    reach past the crop.  Otherwise the splitting loop's element wins unless
    a seeded candidate beats it.  A bound below a feasible value is
    roundoff, so every upper is raised to the value.
    """
    best_val, best = _best_candidate(sheet.g, sheet.seminorm, seeded)
    for y in duals:
        for projected in (False, True):
            upper, leakage = sheet.upper(sheet.project(y) if projected else y)
            if leakage <= tol and upper - best_val <= tol * max(1.0, best_val):
                return best_val, best, max(upper, best_val)
    found_val, found, upper = _splitting_loop(sheet, cfg, tol)
    if found is not None and found_val >= best_val:
        best_val, best = found_val, found
    return best_val, best, None if upper is None else max(upper, best_val)


def _lp_dual(calc: DiracCalculus, drho: np.ndarray) -> np.ndarray | None:
    """The tail dual of a state difference that is exactly diagonal with no
    weight at the guarded levels, else None.

    With tails t_k = sum_{j>=k} drho_jj, the m x m matrix Y with
    Y[k, k-1] = theta t_k / (sqrt(2) l_k), k = 1..m-1, solves the dual
    constraint Herm(-sqrt(2) dzbar(pad Y)) = drho, and its nuclear norm
    sum |Y[k, k-1]| is the LP value.
    """
    m = calc.ctx.interior_dim
    diag = np.diagonal(drho)
    if np.count_nonzero(drho) != np.count_nonzero(diag) or np.any(diag[m:]):
        return None
    tails = np.cumsum(diag.real[::-1])[::-1]
    k = np.arange(1, m)
    y = np.zeros((m, m))
    y[k, k - 1] = calc.ctx.theta * tails[k] / (math.sqrt(2.0) * calc._ladder[k - 1])
    return y


def _translation_chain(tag: tuple) -> list[tuple[tuple, complex | None]]:
    """The tag and each tag it is a translate of, nested ``translated``
    levels down, each with the summed amplitude from it up to ``tag`` (None
    for the tag itself)."""
    chain = [(tag, None)]
    shift = None
    while tag[0] == "translated":
        step = complex(tag[2])
        shift = step if shift is None else shift + step
        tag = tag[1]
        chain.append((tag, shift))
    return chain


def _translation_amplitude(s1: QState, s2: QState) -> complex | None:
    """kappa with s2 = U(kappa) s1 U(kappa)*, read from the pair: the tags
    share an ancestor along their ``translated`` chains, and kappa is the
    difference of the amplitudes summed up to each state, or both are
    translates of one level (the families that ``_closed_value`` reads);
    None otherwise.  The truncated translations compose only up to the
    leakage, which the dual's bounds charge, so a wrong kappa can cost a
    proof but never fake one."""
    chain2 = _translation_chain(s2.tag)
    for tag1, k1 in _translation_chain(s1.tag):
        for tag2, k2 in chain2:
            if (k1 is not None or k2 is not None) and tag1 == tag2:
                if k1 is None:
                    return k2
                return -k1 if k2 is None else k2 - k1
    f1, f2 = s1.family, s2.family
    if f1 is not None and f2 is not None and f1[0] == f2[0]:
        return f2[1] - f1[1]
    return None


def _mean_kernel(z: np.ndarray) -> np.ndarray:
    """int_0^1 exp(z t) dt = expm1(z) / z, with 1 + z/2 for |z| < 1e-8."""
    small = np.abs(z) < 1e-8
    return np.where(small, 1.0 + 0.5 * z, np.expm1(z) / np.where(small, 1.0, z))


def _first_kernel(z: np.ndarray) -> np.ndarray:
    """int_0^1 t exp(z t) dt = (exp(z) (z - 1) + 1) / z^2.

    The closed form loses about eps / |z|^2 to cancellation, so for |z| < 1
    the Taylor series sum_n z^n / (n! (n + 2)) is summed instead; its 18
    terms leave a tail below 1e-17 there.
    """
    small = np.abs(z) < 1.0
    zs = np.where(small, z, 0.0)
    series = np.zeros(z.shape, dtype=complex)
    term = np.ones(z.shape, dtype=complex)
    for n in range(18):
        series += term / (n + 2)
        term = term * zs / (n + 1)
    zc = np.where(small, 1.0, z)
    return np.where(small, series, (np.exp(zc) * (zc - 1.0) + 1.0) / zc**2)


def _path_moments(ctx: FockContext, rho1: np.ndarray, kappa: complex, kernels) -> list[np.ndarray]:
    """Moments int_0^1 w(t) rho_t dt of the translation path from rho1 by
    kappa, rho_t = U(t kappa) rho1 U(t kappa)*, one per kernel.

    With U(t kappa) = V exp(-i t W) V* and R = V* rho1 V, a moment is exact:
    V (R o K) V* with K_jk = int_0^1 w(t) exp(z t) dt, z = -i (w_j - w_k);
    ``_mean_kernel`` gives w = 1 and ``_first_kernel`` w = t.  The
    eigenpairs are the context's one generator eigendecomposition rotated to
    the phase of kappa (``_displacement_eigh``), so no amplitude pays for an
    eigensolve; at kappa = 0 they are (zeros, identity), so each moment is
    rho1 times the integral of its weight.
    """
    w, v = _displacement_eigh(ctx, kappa)
    z = -1j * (w[:, None] - w[None, :])
    r = v.conj().T @ rho1 @ v
    return [v @ (r * kernel(z)) @ v.conj().T for kernel in kernels]


def _translation_dual(calc: DiracCalculus, rho1: np.ndarray, kappa: complex) -> np.ndarray:
    """The path-mean dual Y = -conj(kappa) crop(int_0^1 rho_t dt) of the
    translation from rho1 by kappa, with rho_t = U(t kappa) rho1 U(t kappa)*.

    Since drho_t/dt = [G, rho_t] for the generator G of U(kappa), which is
    built from the same truncated ladder as dz and dzbar, rho_0 - rho_1 =
    Herm(-sqrt(2) dzbar(pad Y)) up to the weight of the path states outside
    the crop, and ||Y||_* <= |kappa| because the path mean is a density
    matrix.  The mean is exact (``_path_moments``).
    """
    (mean,) = _path_moments(calc.ctx, rho1, kappa, (_mean_kernel,))
    return -np.conj(kappa) * calc._crop(mean)


def _corner_split(
    calc: DiracCalculus, g: np.ndarray, img: np.ndarray
) -> tuple[float, float, float, float]:
    """The corner residual r = corner(g - img) split along the kernel of A.

    With m = interior_dim, r = gamma 1_m + eta |m><m| + r_perp, where 1_m
    is the identity on levels 0..m-1 and r_perp is orthogonal to both.
    Returns (gamma, eta, ||r_perp||_F, ||g outside the corner||_F).
    """
    m = calc.ctx.interior_dim
    r = (g - img)[: m + 1, : m + 1]
    mean = float(np.trace(r[:m, :m]).real) / m
    r_perp = r - np.diag(np.append(np.full(m, mean), r[m, m]))
    outside = math.hypot(float(np.linalg.norm(g[m + 1 :])),
                         float(np.linalg.norm(g[: m + 1, m + 1 :])))
    return mean, float(r[m, m].real), float(np.linalg.norm(r_perp)), outside


def _project(calc: DiracCalculus, drho: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pi(Y) = Y - A (A* A)^+ (A* Y - drho), the nearest m x m Y in Frobenius
    norm with A* Y = b, where b is the corner of drho minus its component on
    A's kernel (the pseudo-inverse drops that component; ``_corner_split``
    names it).  (A*)^+ = A (A* A)^+ is applied offset by offset
    (``DiracCalculus._least_norm``)."""
    return y - calc._least_norm(_corner_adjoint(calc, y) - drho)


def _dual_upper(calc: DiracCalculus, drho: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(upper, leakage) of a dual Y for the state difference drho.

    The distance is taken over Hermitian elements x of the corner, levels
    0..m, modulo the kernel span{1, |m><m|} of A = sqrt(2) crop dz; the
    seminorm reads nothing else.  The residual r = corner(drho - A* Y)
    splits into its kernel component and r_perp (``_corner_split``).  Then
    <drho, x> <= ||Y||_* p(x) + <r_perp, x>, and ||x||_F <= sqrt(m) p(x) /
    s_min for x orthogonal to the kernel, so

        upper = ||Y||_* + ||r_perp||_F sqrt(m) / s_min.

    ``leakage`` is what the definition drops: the Frobenius norms of r's
    kernel component and of drho outside the corner.  The charge on r_perp
    is roundoff for a Y that meets the constraint, such as a projection
    Pi(Y) (``_project``).
    """
    m = calc.ctx.interior_dim
    mean, eta, perp, outside = _corner_split(calc, drho, _corner_adjoint(calc, y))
    kernel = math.hypot(mean * math.sqrt(m), eta)
    nuclear = float(np.linalg.svd(y, compute_uv=False).sum())
    upper = nuclear + perp * math.sqrt(m) / calc.corner_s_min
    return upper, kernel + outside


_PENALTY = 2.0  # the fixed ADMM penalty of ``_splitting_loop``
_CHECK_EVERY = 25  # iterations between two bracket checks


def _shrink(w: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding, sum_k max(s_k - tau, 0) u_k v_k*, from
    one eigh of the Gram matrix w* w: w v_k = s_k u_k, so each kept term is
    (1 - tau / s_k) w v_k v_k*."""
    lam, v = np.linalg.eigh(w.conj().T @ w)
    s = np.sqrt(np.maximum(lam, 0.0))
    keep = s > tau
    v = v[:, keep]
    return ((w @ v) * (1.0 - tau / s[keep])) @ v.conj().T


def _splitting_loop(
    sheet: _Sheet, cfg: SolverConfig, tol: float
) -> tuple[float, np.ndarray | None, float | None]:
    """Scaled ADMM on the dual problem min ||W||_* subject to Herm K* W = b,
    with K the sheet's map and b the corner of its pairing g off the kernel.

    Each of the cfg.iterations steps is the exact projection W = Pi(Z - U),
    the thresholding Z = shrink(W + U, 1 / rho) at the fixed penalty rho =
    2, and U += W - Z.  rho U tends to a subgradient of the nuclear norm at
    Z in the range of K, so x = K^+ U tends to an optimal element, and its
    ratio |<g, x>| / p(x) is a lower bound at every step.  Every 25
    iterations and at the last one the loop takes that lower bound and the
    upper bound of W, keeps the best of each, and stops once upper - lower
    <= tol max(1, lower).  Returns (value, unit element with a nonnegative
    objective, upper), (0, None, upper) if every x has zero seminorm, and
    upper None when the leakage exceeds tol.
    """
    z = np.zeros((sheet.size,) * 2, dtype=complex)
    u = np.zeros((sheet.size,) * 2, dtype=complex)
    best, best_val, upper = None, 0.0, math.inf
    for k in range(1, cfg.iterations + 1):
        w = sheet.project(z - u)
        v = w + u
        z = _shrink(v, 1.0 / _PENALTY)
        u = v - z
        if k % _CHECK_EVERY and k < cfg.iterations:
            continue
        bound, leakage = sheet.upper(w)
        upper = min(upper, bound)
        x = sheet.least_squares(u)
        s = sheet.seminorm(x)
        val = abs(_objective(sheet.g, x)) / s if s >= _TINY else 0.0
        if val > best_val:
            best, best_val = x / s, val
        if upper - best_val <= tol * max(1.0, best_val):
            break
    if best is not None and _objective(sheet.g, best) < 0:
        best = -best
    return best_val, best, (upper if leakage <= tol else None)


def _one_sheet(calc: DiracCalculus, drho: np.ndarray) -> _Sheet:
    """The splitting loop's operations on one sheet, for the pairing drho."""
    return _Sheet(drho, calc.ctx.interior_dim, partial(_project, calc, drho),
                  calc._least_squares, partial(_sheet_seminorm, calc),
                  partial(_dual_upper, calc, drho))


def _bound_note(upper: float | None, domain: str) -> str:
    """The note of a searched value: the bounds it carries, and the
    definition of the distance that the upper bound holds for."""
    if upper is None:
        return f"lower bound; no upper bound over {domain}, whose leakage exceeds tol"
    return f"lower bound, and upper bound over {domain}"


def _translation_seed(calc: DiracCalculus, s1: QState, s2: QState) -> np.ndarray | None:
    """Translation element phase-aligned with the ladder-mean gap from s1 to
    s2, or None when the means coincide."""
    mean_gap = s2.mean_ladder - s1.mean_ladder
    if abs(mean_gap) <= 1e-12:
        return None
    return optimal_element_translation(calc, math.atan2(mean_gap.imag, mean_gap.real)).mat


def distance_solver(
    calc: DiracCalculus, s1: QState, s2: QState, cfg: SolverConfig | None = None
) -> DistanceReport:
    """Certified bracket on the spectral distance for arbitrary states.

    Maximizes the evaluation gap over a portfolio: the splitting loop's
    element (``_splitting_loop``), a phase-aligned translation element when
    the ladder means separate, and the exact LP optimizer when both states
    are diagonal.  The best element is rescaled to seminorm one, so the
    reported value is always achieved by a feasible certificate.

    The loop is skipped, and the seeded candidates alone compared, where an
    explicit dual proves the best of them optimal: the LP's tail dual when
    the state difference is exactly diagonal with no weight at the guarded
    levels, or the translation path mean when the pair is a translate by
    kappa, read from a common ancestor of the two ``translated`` tag chains
    or from two families at one level.  The proof needs the leakage, the
    state difference outside the corner and on the kernel, at most ctx.tol,
    and the dual's upper bound within ctx.tol max(1, value) of the value;
    ``upper`` then carries that bound.  Where the loop runs, ``upper``
    carries its best dual bound, raised to the value, when the leakage is at
    most ctx.tol, and is None otherwise.  Both bounds hold for the distance
    over corner elements, levels 0..interior_dim, modulo the seminorm's
    kernel there, and ``note`` names that definition.
    """
    _require_same_ctx(calc.ctx, s1.ctx)
    _require_same_ctx(s1.ctx, s2.ctx)
    if cfg is None:
        cfg = SolverConfig()
    drho = _hermitize(s1.rho - s2.rho)
    ref = _closed_value(s1, s2)
    zero = DistanceReport(0.0, "convex-solver", None, 0.0, gap=ref, note="equal states")
    if float(np.abs(drho).max()) < _TINY:
        return zero

    seeded: list[np.ndarray] = []
    translation = _translation_seed(calc, s1, s2)
    if translation is not None:
        seeded.append(translation)
    try:
        lp = distance_diagonal_lp(calc, s1, s2)
    except ValueError:
        lp = None
    lp_seeded = lp is not None and lp.value > 0
    if lp_seeded:
        seeded.append(lp.certificate.mat)

    duals = []
    if (y := _lp_dual(calc, drho)) is not None:
        duals.append(y)
    if (kappa := _translation_amplitude(s1, s2)) is not None:
        duals.append(_translation_dual(calc, s1.rho, kappa))
    best_val, best_mat, upper = _prove_or_search(
        _one_sheet(calc, drho), seeded, duals, cfg, calc.ctx.tol)
    if best_mat is None:
        return zero
    cert = Operator(calc.ctx, _hermitize(best_mat), hermitian=True)
    if ref is None and lp is not None:
        ref = lp.value
    return DistanceReport(
        value=best_val,
        method="convex-solver",
        certificate=cert,
        feasibility=lipschitz_seminorm(calc, cert),
        gap=None if ref is None else abs(best_val - ref),
        note=_bound_note(upper, f"corner elements, levels 0..{calc.ctx.interior_dim}, "
                                "modulo the seminorm's kernel (the regularization at infinity)"),
        upper=upper,
    )


def _single_route(
    calc: DiracCalculus, s1: QState, s2: QState, cfg: SolverConfig
) -> DistanceReport:
    """One-sheet distance by the best route that covers the pair: the
    closed form, else the diagonal LP, else the solver's bracket."""
    rep = closed_form_for(calc, s1, s2)
    if rep is not None:
        return rep
    try:
        return distance_diagonal_lp(calc, s1, s2)
    except ValueError:
        return distance_solver(calc, s1, s2, cfg)


class DiscrepancyResult(NamedTuple):
    d_D: float
    d_L_mod: float
    rel_gap: float


def length_vs_optimal_discrepancy(calc: DiracCalculus, m: int, n: int) -> DiscrepancyResult:
    """Spectral distance versus modified length between number states.

    The spectral distance is the partial sum of lambda_p / sqrt(2k); the
    modified length is lambda_p (sqrt(2n+1) - sqrt(2m+1)).  The sum is a
    midpoint-style Riemann approximation of the square-root difference,
    which is why the relative gap decays with separation.  The modified
    length is cross-checked against the expectation gap of the radial
    element sqrt(a a* + a* a) before returning; a a* + a* a is diagonal
    in the number basis, so its square root is the root of its diagonal.
    """
    ctx = calc.ctx
    if int(m) != m or int(n) != n or not 0 <= m < n < ctx.interior_dim:
        raise ValueError(
            f"need integers 0 <= m < n < {ctx.interior_dim}, got ({m}, {n})"
        )
    m, n = int(m), int(n)
    d_d = _eigen_sum(ctx, m, n)
    d_mod = ctx.lambda_p * (math.sqrt(2.0 * n + 1.0) - math.sqrt(2.0 * m + 1.0))
    a = calc._a
    radial = np.sqrt(np.diagonal(a @ a.conj().T + a.conj().T @ a).real)
    radial_gap = float(radial[n] - radial[m])
    if abs(radial_gap - d_mod) > 1e-8:
        raise ArithmeticError(
            f"radial-element gap {radial_gap:.12g} disagrees with the modified "
            f"length {d_mod:.12g}"
        )
    return DiscrepancyResult(d_D=d_d, d_L_mod=d_mod, rel_gap=1.0 - d_d / d_mod)
