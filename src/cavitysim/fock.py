"""Complex linear algebra over truncated bosonic modes and two-level systems.

A state is a complex ndarray over the joint basis: a (dim,) amplitude vector
or a (dim, dim) density matrix, and an operator is a dense complex matrix.
A composite Hilbert space is an ordered tensor product of factors; the
convention throughout the package is qubits first, then cavities, so joint
indices read |qubit...; n1, n2⟩.  `Ket`, `DensityOp` and `LinearOp` are
validated (space, array) records, and nothing else: each is the argument of
an evolution kernel from which perfbench/tracer.py reads `.space`.  A record
holds a whole stack of states, so a kernel plays each pulse once for all of
them, and every kernel returns a plain array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

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

    # computed once per space; a frozen dataclass compares and hashes its
    # fields only, so the cached values change neither
    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @cached_property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_factors(self) -> int:
        return len(self.factors)


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of a, which leaves the caller's array writeable."""
    v = a.view()
    v.setflags(write=False)
    return v


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
        object.__setattr__(self, "matrix", _frozen(m))

    def __matmul__(self, other):
        if not isinstance(other, LinearOp):
            return NotImplemented
        if other.space != self.space:
            raise ValidationError("operators live on different composite spaces")
        return LinearOp(self.space, self.matrix @ other.matrix)


@dataclass(frozen=True)
class Ket:
    """Pure state on a composite space, a (dim,) vector, or a (dim, k) stack
    of them.  Not automatically normalized."""

    space: CompositeSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex)
        if v.ndim not in (1, 2) or v.shape[0] != self.space.dim:
            raise ValidationError(
                f"amplitudes of shape {v.shape} are not a ({self.space.dim},) state or a "
                f"({self.space.dim}, k) stack"
            )
        object.__setattr__(self, "amplitudes", _frozen(v))


@dataclass(frozen=True)
class DensityOp:
    """Mixed state, a hermitian, unit-trace, positive semidefinite (dim, dim)
    matrix, or a (k, dim, dim) stack of them."""

    space: CompositeSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (self.space.dim, self.space.dim):
            raise ValidationError(
                f"density matrices of shape {m.shape} are not a ({self.space.dim}, {self.space.dim}) "
                "matrix or a stack of them"
            )
        object.__setattr__(self, "matrix", _frozen(m))


# ---------------------------------------------------------------------------
# Mode operators


def _require_bosonic(spec: ModeSpec):
    if spec.kind != BOSONIC:
        raise ValidationError("operation requires a bosonic mode")


@lru_cache(maxsize=None)
def _displacement_eigenbasis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with i(a† − a) = V diag(w) V† on the truncation `dim`, read-only."""
    root = np.sqrt(np.arange(1, dim, dtype=float))
    w, v = np.linalg.eigh(np.diag(-1j * root, k=1) + np.diag(1j * root, k=-1))
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def displacement(alpha: complex, spec: ModeSpec) -> np.ndarray:
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
    return (rv * np.exp(-1j * abs(alpha) * w)) @ rv.conj().T


def coherent(alpha: complex, spec: ModeSpec) -> np.ndarray:
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
    norm = float(np.linalg.norm(amps))
    if norm == 0:  # every amplitude underflows: |α| is far outside the truncation
        raise ValidationError(f"coherent state of |alpha| = {abs(alpha):.3g} vanishes on truncation dim {spec.dim}")
    return amps / norm


def fock_ket(spec: ModeSpec, n: int) -> np.ndarray:
    if not 0 <= n < spec.dim:
        raise ValidationError(f"Fock level {n} outside truncation 0..{spec.dim - 1}")
    v = np.zeros(spec.dim, dtype=complex)
    v[n] = 1.0
    return v


def qubit_ket(excited: bool = False) -> np.ndarray:
    return np.array([0.0, 1.0] if excited else [1.0, 0.0], dtype=complex)


def recommended_dim(alpha_max: float) -> int:
    """Default truncation for peak coherent amplitude: keeps Poisson tail < 1e−8."""
    a = abs(alpha_max)
    if not math.isfinite(a):
        raise ValidationError(f"coherent amplitude must be finite, got {alpha_max}")
    return math.ceil(a * a + 6.0 * a + 5.0)


# ---------------------------------------------------------------------------
# Composite-space plumbing


def apply_on_factor(
    m: np.ndarray, factor_index: int, space: CompositeSpace, x: np.ndarray
) -> np.ndarray:
    """The single-factor matrix m, lifted to `space`, applied to x, without
    forming the lift.

    x is a state vector of shape (dim,) or a stack of them, (dim, k); m acts
    on the factor's axis of x reshaped to the factor dims, one product per
    state, so a stack's columns equal its states pushed one at a time, bit
    for bit.
    """
    if not 0 <= factor_index < space.n_factors:
        raise ValidationError("factor index out of range")
    dims = space.dims
    if m.shape != (dims[factor_index],) * 2:
        raise ValidationError(
            f"operator shape {m.shape} does not match factor dim {dims[factor_index]}"
        )
    v = np.moveaxis(x.reshape(dims + (-1,)), (-1, factor_index), (0, 1))
    out = m @ v.reshape(len(v), dims[factor_index], -1)
    return np.moveaxis(out.reshape(v.shape), (0, 1), (-1, factor_index)).reshape(x.shape)


def partial_trace(psi: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced density matrix over the kept factor indices, in the order
    given, of the pure state psi on factors of dims `dims`.

    It is M M†, with M the amplitude tensor reshaped to (kept, traced)
    indices; the full outer product is never formed.
    """
    keep, dims = list(keep), tuple(dims)
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValidationError("invalid factor indices in partial trace")
    if len(set(keep)) != len(keep):
        raise ValidationError(f"duplicate factor indices {keep} in partial trace")
    if np.shape(psi) != (math.prod(dims),):
        raise ValidationError(f"a state on factors of dims {dims} has shape ({math.prod(dims)},), got {np.shape(psi)}")
    m = np.moveaxis(psi.reshape(dims), keep, range(len(keep)))
    m = m.reshape(math.prod(dims[k] for k in keep), -1)
    return m @ m.conj().T
