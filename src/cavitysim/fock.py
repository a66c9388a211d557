"""Complex linear algebra over truncated bosonic modes and two-level systems.

All objects are dense and immutable after construction.  A composite Hilbert
space is an ordered tensor product of factors; the convention throughout the
package is qubits first, then cavities, so joint indices read |qubit...; n1, n2⟩.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from cavitysim.errors import ValidationError

BOSONIC = "bosonic"
QUBIT = "qubit"


@dataclass(frozen=True)
class ModeSpec:
    """A single mode: a truncated bosonic oscillator or a two-level system."""

    kind: str
    dim: int = 2

    def __post_init__(self):
        if self.kind not in (BOSONIC, QUBIT):
            raise ValidationError(f"unknown mode kind {self.kind!r}")
        if self.kind == QUBIT and self.dim != 2:
            raise ValidationError("qubit modes have dim 2")
        if self.dim < 2:
            raise ValidationError("mode dim must be >= 2")

    @staticmethod
    def qubit() -> "ModeSpec":
        return ModeSpec(QUBIT, 2)

    @staticmethod
    def bosonic(dim: int) -> "ModeSpec":
        return ModeSpec(BOSONIC, dim)


@dataclass(frozen=True)
class CompositeSpace:
    """Ordered tensor product of modes.  Factor order is fixed."""

    factors: tuple[ModeSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims)) if self.factors else 1

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def joint_index(self, indices) -> int:
        """Flat index of the basis state with the given per-factor indices."""
        return int(np.ravel_multi_index(tuple(indices), self.dims))

    @staticmethod
    def single(spec: ModeSpec) -> "CompositeSpace":
        return CompositeSpace((spec,))


def _check_same_space(a, b):
    if a.space != b.space:
        raise ValidationError("objects live on different composite spaces")


@dataclass(frozen=True)
class LinearOp:
    """Dense complex operator on a composite space."""

    space: CompositeSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValidationError(
                f"matrix shape {m.shape} does not match space dim {self.space.dim}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def dag(self) -> "LinearOp":
        return LinearOp(self.space, self.matrix.conj().T)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return np.max(np.abs(self.matrix - self.matrix.conj().T)) < tol

    def assert_unitary(self, tol: float = 1e-8) -> "LinearOp":
        d = self.matrix.conj().T @ self.matrix - np.eye(self.space.dim)
        if np.max(np.abs(d)) >= tol:
            raise ValidationError("operator is not unitary within tolerance")
        return self

    def __matmul__(self, other):
        if isinstance(other, LinearOp):
            _check_same_space(self, other)
            return LinearOp(self.space, self.matrix @ other.matrix)
        if isinstance(other, Ket):
            _check_same_space(self, other)
            return Ket(self.space, self.matrix @ other.amplitudes)
        return NotImplemented

    @staticmethod
    def identity(space: CompositeSpace) -> "LinearOp":
        return LinearOp(space, np.eye(space.dim, dtype=complex))


@dataclass(frozen=True)
class Ket:
    """Pure state on a composite space.  Not automatically normalized."""

    space: CompositeSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.shape != (self.space.dim,):
            raise ValidationError(
                f"amplitude length {v.shape[0]} does not match space dim {self.space.dim}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "Ket":
        n = self.norm
        if n == 0:
            raise ValidationError("cannot normalize the zero vector")
        return Ket(self.space, self.amplitudes / n)

    def overlap(self, other: "Ket") -> complex:
        _check_same_space(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityOp":
        return DensityOp(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))

    def projector(self) -> LinearOp:
        return LinearOp(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityOp:
    """Mixed state: hermitian, unit-trace, positive semidefinite matrix."""

    space: CompositeSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValidationError("density matrix shape does not match space dim")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def validate(self) -> "DensityOp":
        """Raise ValidationError unless ρ is Hermitian, of unit trace and
        positive semidefinite, each to 1e-9."""
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > 1e-9:
            raise ValidationError("density matrix is not hermitian")
        if abs(np.trace(self.matrix) - 1.0) > 1e-9:
            raise ValidationError("density matrix trace differs from 1")
        if np.min(np.linalg.eigvalsh(self.matrix)) < -1e-9:
            raise ValidationError("density matrix has a significantly negative eigenvalue")
        return self

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


# ---------------------------------------------------------------------------
# Mode operators


def _require_bosonic(spec: ModeSpec):
    if spec.kind != BOSONIC:
        raise ValidationError("operation requires a bosonic mode")


def annihilation(spec: ModeSpec) -> LinearOp:
    """Ladder operator a with ⟨n−1|a|n⟩ = √n on the truncated space."""
    _require_bosonic(spec)
    m = np.diag(np.sqrt(np.arange(1, spec.dim, dtype=float)), k=1)
    return LinearOp(CompositeSpace.single(spec), m.astype(complex))


def number_op(spec: ModeSpec) -> LinearOp:
    _require_bosonic(spec)
    return LinearOp(
        CompositeSpace.single(spec), np.diag(np.arange(spec.dim)).astype(complex)
    )


def parity_op(spec: ModeSpec) -> LinearOp:
    """Photon-number parity: diagonal (−1)^n."""
    _require_bosonic(spec)
    return LinearOp(
        CompositeSpace.single(spec),
        np.diag((-1.0) ** np.arange(spec.dim)).astype(complex),
    )


@lru_cache(maxsize=None)
def _displacement_eigenbasis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with i(a† − a) = V diag(w) V† on the truncation `dim`, read-only."""
    root = np.sqrt(np.arange(1, dim, dtype=float))
    w, v = np.linalg.eigh(np.diag(-1j * root, k=1) + np.diag(1j * root, k=-1))
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def displacement(alpha: complex, spec: ModeSpec) -> LinearOp:
    """D(α) = exp(α a† − α* a), the exact exponential of the truncated generator.

    With α = |α|e^{iθ} and R(θ) = diag(e^{iθn}), the generator is
    R(θ) |α|(a† − a) R(θ)†, so D(α) = R(θ) V e^{−i|α|w} V† R(θ)† for the
    eigenpairs (w, V) of the Hermitian i(a† − a), which depend only on the
    truncation (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).
    Self-consistent with the truncation: D(α)D(−α) deviates from identity only
    through truncation error.
    """
    _require_bosonic(spec)
    if abs(alpha) ** 2 > spec.dim / 4:
        warnings.warn(
            f"displacement amplitude |alpha|^2 = {abs(alpha)**2:.2f} is large for "
            f"truncation dim {spec.dim}; expect truncation artifacts",
            stacklevel=2,
        )
    w, v = _displacement_eigenbasis(spec.dim)
    rv = np.exp(1j * np.angle(alpha) * np.arange(spec.dim))[:, None] * v
    return LinearOp(CompositeSpace.single(spec), (rv * np.exp(-1j * abs(alpha) * w)) @ rv.conj().T)


def coherent(alpha: complex, spec: ModeSpec) -> Ket:
    """Coherent state |α⟩, renormalized after truncation."""
    _require_bosonic(spec)
    n = np.arange(spec.dim)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    if alpha == 0:
        amps = np.zeros(spec.dim, dtype=complex)
        amps[0] = 1.0
    else:
        amps = np.exp(
            -0.5 * abs(alpha) ** 2
            + n * np.log(complex(alpha))
            - 0.5 * log_fact
        )
    return Ket(CompositeSpace.single(spec), amps).normalized()


def fock_ket(spec: ModeSpec, n: int) -> Ket:
    if not 0 <= n < spec.dim:
        raise ValidationError(f"Fock level {n} outside truncation 0..{spec.dim - 1}")
    v = np.zeros(spec.dim, dtype=complex)
    v[n] = 1.0
    return Ket(CompositeSpace.single(spec), v)


def qubit_ket(excited: bool = False) -> Ket:
    v = np.array([0.0, 1.0] if excited else [1.0, 0.0], dtype=complex)
    return Ket(CompositeSpace.single(ModeSpec.qubit()), v)


def sigma_plus() -> LinearOp:
    """|e⟩⟨g| on a two-level mode (ground state is index 0)."""
    m = np.zeros((2, 2), dtype=complex)
    m[1, 0] = 1.0
    return LinearOp(CompositeSpace.single(ModeSpec.qubit()), m)


def recommended_dim(alpha_max: float) -> int:
    """Default truncation for peak coherent amplitude: keeps Poisson tail < 1e−8."""
    a = abs(alpha_max)
    if not math.isfinite(a):
        raise ValidationError(f"coherent amplitude must be finite, got {alpha_max}")
    return math.ceil(a * a + 6.0 * a + 5.0)


# ---------------------------------------------------------------------------
# Composite-space plumbing


def tensor(kets) -> Ket:
    """Kronecker product of kets, in the declared factor order."""
    kets = list(kets)
    if not kets:
        raise ValidationError("tensor of an empty list")
    if not all(isinstance(k, Ket) for k in kets):
        raise ValidationError("tensor takes kets only")
    space = CompositeSpace(tuple(f for k in kets for f in k.space.factors))
    return Ket(space, reduce(np.kron, (k.amplitudes for k in kets)))


def embed(op: LinearOp, factor_index: int, space: CompositeSpace) -> LinearOp:
    """Lift a single-factor operator to the composite space (identity elsewhere)."""
    if not 0 <= factor_index < space.n_factors:
        raise ValidationError("factor index out of range")
    target = space.factors[factor_index]
    if op.space.dim != target.dim:
        raise ValidationError(
            f"operator dim {op.space.dim} does not match factor dim {target.dim}"
        )
    parts = [
        op if i == factor_index
        else LinearOp.identity(CompositeSpace.single(f))
        for i, f in enumerate(space.factors)
    ]
    m = reduce(np.kron, (p.matrix for p in parts))
    return LinearOp(space, m)


def apply_on_factor(
    op: LinearOp, factor_index: int, space: CompositeSpace, x: np.ndarray
) -> np.ndarray:
    """embed(op, factor_index, space).matrix @ x, without forming the lift.

    x is a state vector of shape (dim,) or a stack of them, (dim, k); op acts
    on the factor's axis of x reshaped to the factor dims.
    """
    if not 0 <= factor_index < space.n_factors:
        raise ValidationError("factor index out of range")
    dims = space.dims
    if op.space.dim != dims[factor_index]:
        raise ValidationError(
            f"operator dim {op.space.dim} does not match factor dim {dims[factor_index]}"
        )
    rest = x.shape[1:]
    v = np.moveaxis(x.reshape(dims + rest), factor_index, 0)
    out = (op.matrix @ v.reshape(dims[factor_index], -1)).reshape(v.shape)
    return np.moveaxis(out, 0, factor_index).reshape(x.shape)


def expectation(state: Ket, op: LinearOp) -> complex:
    """⟨ψ|A|ψ⟩ of a ket."""
    if not isinstance(state, Ket):
        raise ValidationError("state must be a Ket")
    _check_same_space(state, op)
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def partial_trace(rho, keep) -> DensityOp:
    """Reduced density operator over the kept factor indices, in the order given.

    For a Ket the reduced state is M M†, with M the amplitude tensor reshaped
    to (kept, traced) indices; the full outer product is never formed.
    """
    keep = list(keep)
    n = rho.space.n_factors
    if any(k < 0 or k >= n for k in keep):
        raise ValidationError("invalid factor indices in partial trace")
    if len(set(keep)) != len(keep):
        raise ValidationError(f"duplicate factor indices {keep} in partial trace")
    dims = rho.space.dims
    sub = CompositeSpace(tuple(rho.space.factors[k] for k in keep))
    if isinstance(rho, Ket):
        m = np.moveaxis(rho.amplitudes.reshape(dims), keep, range(len(keep)))
        m = m.reshape(sub.dim, -1)
        return DensityOp(sub, m @ m.conj().T)
    t = rho.matrix.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    # trace highest-numbered factors first so lower axis numbers stay valid
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    # the kept axes are left in ascending factor order; put them in keep's
    rank = [sorted(keep).index(k) for k in keep]
    t = t.transpose(rank + [r + len(keep) for r in rank])
    return DensityOp(sub, t.reshape(sub.dim, sub.dim))
