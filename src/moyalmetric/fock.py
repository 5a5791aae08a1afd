"""Truncated Fock-space model of the Moyal quantum plane.

The plane has two coordinate operators q1, q2 with [q1, q2] = i*theta.
Everything is represented on the first ``trunc_dim`` harmonic-oscillator
number levels; the ladder operator is normalized so that
a|n> = lambda_p*sqrt(n)|n-1> with lambda_p = sqrt(theta), which gives
[a, a*] = theta on the interior block.

Truncation corrupts the top rows/columns of commutators, so every context
has an ``edge_guard`` of max(2, trunc_dim // 8): the number of top levels
excluded from interior accuracy statements.  States are required to keep their weight on the
guarded levels below ``leakage_bound``; ``QState.leakage`` makes that
error auditable.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "ContextMismatchError",
    "FockContext",
    "LeakageError",
    "Operator",
    "QState",
    "annihilation",
    "coherent_state",
    "creation",
    "displace",
    "displacement_operator",
    "eigenstate",
    "evaluate",
    "hamiltonian",
    "make_context",
    "mixed_state",
    "quadratures",
    "superposition_state",
    "uncertainty_product",
    "vacuum_projector",
]


# Operators of the most recently used contexts stay cached; the bound keeps
# a run over many truncations from holding every one of them.
_CACHE_SIZE = 8


class LeakageError(ValueError):
    """A state carries too much weight on the guarded top levels."""


class ContextMismatchError(ValueError):
    """Operands built over different contexts were combined."""


@dataclass(frozen=True)
class FockContext:
    """Ambient configuration: truncation, deformation scale and tolerances.

    theta = lambda_p**2 carries squared-length units; with theta = 1 all
    lengths are expressed in lambda_p units.
    """

    trunc_dim: int
    theta: float = 1.0
    tol: float = 1e-10
    leakage_bound: float = 1e-10

    def __post_init__(self) -> None:
        if int(self.trunc_dim) != self.trunc_dim or self.trunc_dim < 8:
            raise ValueError(f"trunc_dim must be an integer >= 8, got {self.trunc_dim}")
        object.__setattr__(self, "trunc_dim", int(self.trunc_dim))
        if not (self.theta > 0 and math.isfinite(self.theta)):
            raise ValueError(f"theta must be positive and finite, got {self.theta}")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not (self.leakage_bound > 0 and math.isfinite(self.leakage_bound)):
            raise ValueError(
                f"leakage_bound must be positive and finite, got {self.leakage_bound}"
            )

    @property
    def lambda_p(self) -> float:
        return math.sqrt(self.theta)

    @property
    def edge_guard(self) -> int:
        """Number of guarded top levels; below trunc_dim / 2 for every trunc_dim >= 8."""
        return max(2, self.trunc_dim // 8)

    @property
    def interior_dim(self) -> int:
        """Number of levels below the guarded edge."""
        return self.trunc_dim - self.edge_guard


def make_context(trunc_dim: int, theta: float, tol: float = 1e-10) -> FockContext:
    """Validated context with the default leakage bound."""
    return FockContext(trunc_dim=trunc_dim, theta=theta, tol=tol)


def _read_only(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Operator:
    """Complex matrix in the number basis, with its context attached.

    When ``hermitian`` is set the constructor asserts self-adjointness
    within ctx.tol (relative to the matrix scale).
    """

    ctx: FockContext
    mat: np.ndarray
    hermitian: bool = False

    def __post_init__(self) -> None:
        n = self.ctx.trunc_dim
        mat = _read_only(self.mat)
        if mat.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "mat", mat)
        if self.hermitian:
            scale = max(1.0, float(np.abs(mat).max()))
            defect = float(np.abs(mat - mat.conj().T).max())
            if defect > self.ctx.tol * scale:
                raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")

    def adjoint(self) -> "Operator":
        return Operator(self.ctx, self.mat.conj().T, hermitian=self.hermitian)


def _require_same_ctx(a: FockContext, b: FockContext) -> None:
    # Identity first: the dataclass __eq__ compares four fields, and most
    # calls pass one shared context.
    if a is not b and a != b:
        raise ContextMismatchError(f"context mismatch: {a} vs {b}")


@lru_cache(maxsize=_CACHE_SIZE)
def annihilation(ctx: FockContext) -> Operator:
    """Ladder operator a with a|n> = lambda_p*sqrt(n)|n-1>.

    Built once per context and shared by every caller; its matrix is
    read-only, as every ``Operator``'s is.
    """
    n = ctx.trunc_dim
    sub = ctx.lambda_p * np.sqrt(np.arange(1, n))
    return Operator(ctx, np.diag(sub, k=1))


def creation(ctx: FockContext) -> Operator:
    return annihilation(ctx).adjoint()


def vacuum_projector(ctx: FockContext) -> Operator:
    mat = np.zeros((ctx.trunc_dim, ctx.trunc_dim))
    mat[0, 0] = 1.0
    return Operator(ctx, mat, hermitian=True)


def quadratures(ctx: FockContext) -> tuple[Operator, Operator]:
    """Coordinate operators q1 = (a + a*)/sqrt(2), q2 = (a - a*)/(i sqrt(2)).

    On the interior block [q1, q2] = i*theta.
    """
    a = annihilation(ctx).mat
    ad = a.conj().T
    q1 = (a + ad) / math.sqrt(2)
    q2 = (a - ad) / (1j * math.sqrt(2))
    return (Operator(ctx, q1, hermitian=True), Operator(ctx, q2, hermitian=True))


@lru_cache(maxsize=_CACHE_SIZE)
def hamiltonian(ctx: FockContext) -> Operator:
    """Oscillator energy (q1^2 + q2^2)/2, assembled as a*a + (theta/2) I.

    The assembled form keeps the diagonal exactly theta*(m + 1/2) for every
    level m < trunc_dim; squaring the quadratures instead would corrupt the
    top entry.  Built once per context and shared, like ``annihilation``.
    """
    a = annihilation(ctx).mat
    mat = a.conj().T @ a + (ctx.theta / 2) * np.eye(ctx.trunc_dim)
    return Operator(ctx, mat, hermitian=True)


def _finite_kappa(kappa: complex, what: str) -> complex:
    kappa = complex(kappa)
    if not cmath.isfinite(kappa):
        raise ValueError(f"{what} must be finite, got {kappa}")
    return kappa


def displacement_operator(ctx: FockContext, kappa: complex) -> Operator:
    """Unitary U(kappa) = exp((kappa a* - conj(kappa) a) / (sqrt(2) theta)).

    The scale is calibrated so that the parameter is the Euclidean
    translation amplitude: conjugating by U(kappa) shifts <q1> by Re kappa
    and <q2> by Im kappa, and the ground state displaced by
    sqrt(2)*lambda_p*kappa is the coherent state of label kappa.

    U = v exp(-i w) v* from the rotated eigenpairs of ``_displacement_eigh``,
    so no amplitude pays for an eigendecomposition; U(0) is the identity.
    """
    kappa = _finite_kappa(kappa, "translation amplitude")
    n = ctx.trunc_dim
    if kappa == 0:
        return Operator(ctx, np.eye(n))
    w, v = _displacement_eigh(ctx, kappa)
    u = (v * np.exp(-1j * w)) @ v.conj().T
    return Operator(ctx, u)


@lru_cache(maxsize=_CACHE_SIZE)
def _displacement_base(ctx: FockContext) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w0, v0) of H0 = i*gen(1), the Hermitian generator of
    U(1), read-only.  Built once per context and shared, like
    ``annihilation``; ``_displacement_eigh`` rotates them to every other
    amplitude."""
    a = annihilation(ctx).mat
    w, v = np.linalg.eigh(1j * (a.conj().T - a) / (math.sqrt(2) * ctx.theta))
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _displacement_eigh(ctx: FockContext, kappa: complex) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of the Hermitian matrix i*gen, where gen is the
    anti-Hermitian generator of U(kappa).

    The number rotation R = diag(exp(i phi k)) turns a into R a R* =
    exp(-i phi) a exactly in the truncation, so for kappa = |kappa|
    exp(i phi), i*gen(kappa) = |kappa| R H0 R* and the eigenpairs are
    (|kappa| w0, R v0) from the one ``_displacement_base`` of the context,
    in O(N^2).  At kappa = 0 they are (zeros, identity), as for the zero
    generator.  Exponentiating through i*gen keeps U exactly unitary (up to
    roundoff), and since the eigenvectors depend only on the phase,
    U(t kappa) = v exp(-i t w) v* for every real t.
    """
    n = ctx.trunc_dim
    if kappa == 0:
        return np.zeros(n), np.eye(n, dtype=complex)
    w0, v0 = _displacement_base(ctx)
    rotation = np.exp(1j * cmath.phase(kappa) * np.arange(n))
    return abs(kappa) * w0, rotation[:, None] * v0


class QState:
    """Density matrix with positivity/trace invariants and a construction tag.

    Tags are nested tuples mirroring the constructors:
    ("eigen", m) | ("coherent", kappa) | ("translated", base_tag, kappa) |
    ("super", indices, coeffs) | ("mix", weights, tags).
    """

    __slots__ = ("ctx", "rho", "tag", "vector", "__dict__")

    def __init__(
        self,
        ctx: FockContext,
        rho: np.ndarray,
        tag: tuple,
        vector: np.ndarray | None = None,
    ) -> None:
        n = ctx.trunc_dim
        rho = _read_only(rho)
        if rho.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} density matrix, got {rho.shape}")
        if not np.all(np.isfinite(rho.view(float))):
            raise ValueError("density matrix entries must be finite")
        scale = max(1.0, float(np.abs(rho).max()))
        if float(np.abs(rho - rho.conj().T).max()) > ctx.tol * scale:
            raise ValueError("density matrix is not Hermitian within tol")
        if abs(np.trace(rho).real - 1.0) > ctx.tol or abs(np.trace(rho).imag) > ctx.tol:
            raise ValueError(f"density matrix trace {np.trace(rho)} != 1 within tol")
        if vector is None:
            eigs = np.linalg.eigvalsh(rho)
            if eigs[0] < -ctx.tol:
                raise ValueError(f"density matrix has negative eigenvalue {eigs[0]:.3e}")
        else:
            # Rank-one forms of the two checks of a pure state, in O(N^2).
            # With E = rho - v v*, ||E||_2 <= ||E||_F = delta, and sqrt(2)
            # delta bounds the distance from v v* >= 0 of the Hermitian
            # matrix that either triangle of rho defines, so no eigenvalue
            # of rho falls below -tol.  With t = |v|^2, rho^2 - rho = (t - 1)
            # v v* + v v* E + E v v* + E^2 - E, whose entries are at most
            # |t - 1| max|v_i|^2 + (2t + 1 + delta) delta.
            vector = _read_only(vector)
            if vector.shape != (n,):
                raise ValueError(f"expected a state vector of length {n}, got {vector.shape}")
            delta = float(np.linalg.norm(rho - np.outer(vector, vector.conj())))
            if not math.sqrt(2.0) * delta <= ctx.tol:
                raise ValueError(f"pure-state tag but rho is not v v* within tol ({delta:.3e})")
            t = float(np.vdot(vector, vector).real)
            purity_defect = (abs(t - 1.0) * float(np.abs(vector).max()) ** 2
                             + (2.0 * t + 1.0 + delta) * delta)
            if purity_defect > 10 * ctx.tol:
                raise ValueError(f"pure-state tag but rho^2 != rho ({purity_defect:.3e})")
        self.ctx = ctx
        self.rho = rho
        self.tag = tag
        self.vector = vector
        leak = self.leakage()
        if leak > ctx.leakage_bound:
            raise LeakageError(
                f"state weight {leak:.3e} on the top {ctx.edge_guard} levels "
                f"exceeds the leakage bound {ctx.leakage_bound:.1e}"
            )

    def leakage(self) -> float:
        """Weight on the guarded top edge_guard levels."""
        m = self.ctx.interior_dim
        if self.vector is not None:
            return float(np.sum(np.abs(self.vector[m:]) ** 2))
        return float(np.trace(self.rho[m:, m:]).real)

    @cached_property
    def family(self) -> tuple[int, complex] | None:
        """(m, mu) when the state is eigenstate m translated by mu, else None.

        Coherent states are the translated ground state, translation
        sqrt(2)*lambda_p*kappa.  Used for closed-form dispatch.
        """
        return _family_of(self.tag, self.ctx)

    @cached_property
    def mean_ladder(self) -> complex:
        """Tr(rho a), cached because square-length sweeps evaluate it per pair."""
        return evaluate(self, annihilation(self.ctx))

    @cached_property
    def mean_energy(self) -> float:
        return evaluate(self, hamiltonian(self.ctx)).real

    def __repr__(self) -> str:
        return f"QState(tag={self.tag!r}, N={self.ctx.trunc_dim})"


def _family_of(tag: tuple, ctx: FockContext) -> tuple[int, complex] | None:
    kind = tag[0]
    if kind == "eigen":
        return (tag[1], 0j)
    if kind == "coherent":
        return (0, math.sqrt(2) * ctx.lambda_p * complex(tag[1]))
    if kind == "translated":
        base = _family_of(tag[1], ctx)
        if base is None:
            return None
        m, mu = base
        return (m, mu + complex(tag[2]))
    if kind == "super" and len(tag[1]) == 1:
        return (tag[1][0], 0j)
    if kind == "mix" and len(tag[2]) == 1:
        return _family_of(tag[2][0], ctx)
    return None


def _pure_state(ctx: FockContext, vector: np.ndarray, tag: tuple) -> QState:
    vector = np.asarray(vector, dtype=complex)
    rho = np.outer(vector, vector.conj())
    return QState(ctx, rho, tag, vector=vector)


def eigenstate(ctx: FockContext, m: int) -> QState:
    """Number state |m><m|; m must stay below the guarded edge."""
    if int(m) != m or not 0 <= m < ctx.interior_dim:
        raise ValueError(
            f"eigenstate index must satisfy 0 <= m < {ctx.interior_dim}, got {m}"
        )
    v = np.zeros(ctx.trunc_dim, dtype=complex)
    v[int(m)] = 1.0
    return _pure_state(ctx, v, ("eigen", int(m)))


def coherent_state(ctx: FockContext, kappa: complex) -> QState:
    """Coherent state with amplitudes exp(-|k|^2/2) k^n / sqrt(n!).

    Satisfies a|kappa> = lambda_p*kappa|kappa> up to leakage.  Rejects
    non-finite labels, and labels whose Poisson tail beyond the interior
    block exceeds the leakage bound.
    """
    kappa = _finite_kappa(kappa, "coherent label")
    n = ctx.trunc_dim
    # Poisson weights |c_n|^2, built iteratively for numerical stability.
    mean = abs(kappa) ** 2
    weights = np.empty(n)
    weights[0] = math.exp(-mean)
    for k in range(1, n):
        weights[k] = weights[k - 1] * mean / k
    tail = 1.0 - float(np.sum(weights[: ctx.interior_dim]))
    if tail > ctx.leakage_bound:
        raise LeakageError(
            f"coherent label |kappa|={abs(kappa):.3f} leaks {tail:.3e} past the "
            f"interior block at trunc_dim={n}"
        )
    amps = np.sqrt(weights).astype(complex)
    if kappa != 0:
        phases = np.ones(n, dtype=complex)
        unit = kappa / abs(kappa)
        for k in range(1, n):
            phases[k] = phases[k - 1] * unit
        amps = amps * phases
    amps = amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return _pure_state(ctx, amps, ("coherent", kappa))


def displace(state: QState, kappa: complex) -> QState:
    """Translate a state by kappa (length units): rho -> U rho U*.

    The translated ground state with kappa = sqrt(2)*lambda_p*k reproduces
    coherent_state(k) in trace distance up to leakage.  A pure state's
    vector is moved as v exp(-i w) v* times the vector, with the rotated
    eigenpairs of ``_displacement_eigh``, in O(N^2) and without forming U;
    a mixed state is conjugated by ``displacement_operator``.  kappa = 0
    keeps the state's matrix as it is.
    """
    kappa = _finite_kappa(kappa, "translation amplitude")
    tag = ("translated", state.tag, kappa)
    if state.vector is not None:
        vec = state.vector
        if kappa != 0:
            w, v = _displacement_eigh(state.ctx, kappa)
            vec = v @ (np.exp(-1j * w) * (v.conj().T @ vec))
        return _pure_state(state.ctx, vec, tag)
    rho = state.rho
    if kappa != 0:
        u = displacement_operator(state.ctx, kappa).mat
        rho = u @ rho @ u.conj().T
    return QState(state.ctx, rho, tag)


def superposition_state(ctx: FockContext, indices: list[int], coeffs: list[complex]) -> QState:
    """Normalized superposition sum_i c_i |index_i>, distinct safe indices."""
    idx = [int(i) for i in indices]
    if idx != list(indices):
        raise ValueError(f"superposition levels must be integers, got {list(indices)}")
    if len(idx) != len(set(idx)):
        raise ValueError(f"superposition indices must be distinct, got {idx}")
    if len(idx) != len(coeffs) or not idx:
        raise ValueError("need one coefficient per index")
    if any(not 0 <= i < ctx.interior_dim for i in idx):
        raise ValueError(f"indices must lie in [0, {ctx.interior_dim}), got {idx}")
    v = np.zeros(ctx.trunc_dim, dtype=complex)
    for i, c in zip(idx, coeffs):
        v[i] = _finite_kappa(c, f"superposition coefficient of level {i}")
    norm = float(np.linalg.norm(v))
    if norm <= ctx.tol:
        raise ValueError("superposition coefficients are all zero")
    v = v / norm
    tag = ("super", tuple(idx), tuple(complex(c) for c in coeffs))
    return _pure_state(ctx, v, tag)


def mixed_state(states: list[QState], weights: list[float]) -> QState:
    """Convex mixture of states over a common context."""
    if not states or len(states) != len(weights):
        raise ValueError("need one weight per state")
    ctx = states[0].ctx
    for s in states[1:]:
        _require_same_ctx(ctx, s.ctx)
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"mixture weights must be finite, got {weights}")
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError(f"weights must be nonnegative with positive sum, got {weights}")
    w = w / w.sum()
    rho = np.zeros((ctx.trunc_dim, ctx.trunc_dim), dtype=complex)
    for wi, s in zip(w, states):
        rho += wi * s.rho
    tag = ("mix", tuple(float(x) for x in w), tuple(s.tag for s in states))
    return QState(ctx, rho, tag)


def evaluate(state: QState, op: Operator) -> complex:
    """State evaluation Tr(rho * mat); real within tol for Hermitian op."""
    _require_same_ctx(state.ctx, op.ctx)
    if state.vector is not None:
        return complex(state.vector.conj() @ (op.mat @ state.vector))
    return complex(np.trace(state.rho @ op.mat))


def uncertainty_product(state: QState) -> float:
    """dq1 * dq2 with dq = sqrt(<q^2> - <q>^2); floor theta/2 for clean states."""
    q1, q2 = quadratures(state.ctx)
    out = 1.0
    for q in (q1, q2):
        mean = evaluate(state, q).real
        mean_sq = evaluate(state, Operator(state.ctx, q.mat @ q.mat)).real
        var = max(mean_sq - mean * mean, 0.0)
        out *= math.sqrt(var)
    return out
