"""Reference objects that only the tests use, written from their definitions
on plain arrays: the mode operators, the parity operator, Kronecker products,
expectation values, density matrices of state vectors and their partial
traces, the physicality checks of a density matrix, a Wigner grid and a
transfer matrix, the joint Wigner function of a density matrix, and the
encoder completed one vector at a time."""

from functools import reduce

import numpy as np

from cavitysim.errors import ValidationError
from cavitysim.fock import BOSONIC
from cavitysim.tomography import _displaced_parities


def _require_bosonic(spec):
    if spec.kind != BOSONIC:
        raise ValidationError("operation requires a bosonic mode")


def annihilation(spec) -> np.ndarray:
    """Ladder operator a with ⟨n−1|a|n⟩ = √n on the truncated mode."""
    _require_bosonic(spec)
    return np.diag(np.sqrt(np.arange(1, spec.dim, dtype=float)), k=1).astype(complex)


def number_op(spec) -> np.ndarray:
    """a†a of a bosonic mode: diagonal n."""
    _require_bosonic(spec)
    return np.diag(np.arange(spec.dim)).astype(complex)


def sigma_plus() -> np.ndarray:
    """|e⟩⟨g| on a two-level mode (ground state is index 0)."""
    m = np.zeros((2, 2), dtype=complex)
    m[1, 0] = 1.0
    return m


def parity_op(spec) -> np.ndarray:
    """Photon-number parity of a bosonic mode: diagonal (−1)^n."""
    _require_bosonic(spec)
    return np.diag((-1.0) ** np.arange(spec.dim)).astype(complex)


def tensor(states) -> np.ndarray:
    """Kronecker product of state vectors, in the order given."""
    return reduce(np.kron, states)


def lift(m, factor_index: int, space) -> np.ndarray:
    """The single-factor matrix m as a dense matrix on `space`, identity on
    the other factors."""
    parts = [m if i == factor_index else np.eye(f.dim) for i, f in enumerate(space.factors)]
    return reduce(np.kron, parts)


def joint_index(space, indices) -> int:
    """Flat index of the basis state with the given per-factor indices."""
    return int(np.ravel_multi_index(tuple(indices), space.dims))


def normalized(v) -> np.ndarray:
    return v / np.linalg.norm(v)


def expectation(psi, op) -> complex:
    """⟨ψ|A|ψ⟩ of a state vector."""
    return complex(np.vdot(psi, op @ psi))


def density(psi) -> np.ndarray:
    """|ψ⟩⟨ψ| of a state vector."""
    return np.outer(psi, np.conj(psi))


def partial_trace_density(rho, dims, keep) -> np.ndarray:
    """The reduced density matrix over the kept factor indices, in the order
    given, of the density matrix rho on factors of dims `dims`, by tracing
    out the other factors' axis pairs."""
    dims, keep = tuple(dims), list(keep)
    if len(set(keep)) != len(keep) or any(k not in range(len(dims)) for k in keep):
        raise ValidationError(f"invalid factor indices {keep} in partial trace")
    t = np.asarray(rho).reshape(dims + dims)
    traced = [i for i in range(len(dims)) if i not in keep]
    # trace highest-numbered factors first so lower axis numbers stay valid
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    # the kept axes are left in ascending factor order; put them in keep's
    rank = [sorted(keep).index(k) for k in keep]
    t = t.transpose(rank + [r + len(keep) for r in rank])
    d = int(np.prod([dims[k] for k in keep]))
    return t.reshape(d, d)


def joint_wigner_density(rho, space, beta1, beta2, factors=(0, 1)):
    """Tr[ρ (D(β1)ΠD(β1)† ⊗ D(β2)ΠD(β2)†)] of the density matrix rho on
    `space`, over the reduced state of the two factors."""
    s1, s2 = (space.factors[k] for k in factors)
    b1, b2 = np.broadcast_arrays(beta1, beta2)
    op1 = _displaced_parities(b1.ravel(), s1)
    op2 = _displaced_parities(b2.ravel(), s2)
    r = partial_trace_density(rho, space.dims, factors).reshape(s1.dim, s2.dim, s1.dim, s2.dim)
    # Tr[ρ (A ⊗ B)] = Σ ρ[i,j,k,l] A[k,i] B[l,j] on the (d1, d2, d1, d2) tensor
    vals = np.einsum("ijkl,pki,plj->p", r, op1, op2, optimize=True).real
    return float(vals[0]) if b1.ndim == 0 else vals.reshape(b1.shape)


def validate_density(rho):
    """Raise ValidationError unless the matrix ρ is Hermitian, of unit trace
    and positive semidefinite, each to 1e-9; return ρ."""
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise ValidationError("density matrix is not hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise ValidationError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-9:
        raise ValidationError("density matrix has a significantly negative eigenvalue")
    return rho


def wigner_integral(re_axis, im_axis, values) -> float:
    """The rectangle-rule integral over its cells of a Wigner grid, `values`
    of shape (len(im_axis), len(re_axis))."""
    if len(re_axis) < 2 or len(im_axis) < 2:
        raise ValidationError("the integral needs at least two points per axis")
    cell = (re_axis[1] - re_axis[0]) * (im_axis[1] - im_axis[0])
    return float(np.sum(values) * cell)


def check_physical(ptm):
    """Raise ValidationError unless the (4ⁿ, 4ⁿ) transfer matrix's first row
    is (1, 0, ..., 0) and every entry lies in [−1, 1], each to 1e-9; return it."""
    first = np.zeros(len(ptm))
    first[0] = 1.0
    if np.max(np.abs(ptm[0] - first)) > 1e-9:
        raise ValidationError("first row is not (1, 0, ..., 0)")
    if np.max(np.abs(ptm)) > 1.0 + 1e-9:
        raise ValidationError("transfer matrix entries exceed [−1, 1]")
    return ptm


def gram_schmidt_encoder(enc) -> np.ndarray:
    """The matrix of `codes.ideal_encoder(enc)` by modified Gram–Schmidt, one
    vector at a time: |g⟩ ⊗ the two orthonormalized basis states, then the
    standard basis vectors in order, each projected twice against every
    accepted column and kept if its norm exceeds 1e-7."""
    d = enc.mode.dim
    dim = 2 * d
    fixed = [np.concatenate([b, np.zeros(d, complex)]) for b in enc.basis.T]
    for e in np.eye(dim, dtype=complex):
        if len(fixed) == dim:
            break
        for _ in range(2):
            for f in fixed:
                e -= np.vdot(f, e) * f
        n = np.linalg.norm(e)
        if n > 1e-7:
            fixed.append(e / n)
    cols = np.zeros((dim, dim), dtype=complex)
    code = [0, d]  # |g, 0⟩ and |e, 0⟩
    cols[:, code] = np.stack(fixed[:2], axis=1)
    cols[:, [i for i in range(dim) if i not in code]] = np.stack(fixed[2:], axis=1)
    return cols
