"""Reference objects that only the tests use, written from their definitions:
the parity operator, density matrices and projectors of kets, the physicality
checks of a density matrix, a Wigner grid and a transfer matrix, and the
encoder completed one vector at a time."""

import numpy as np

from cavitysim.errors import ValidationError
from cavitysim.fock import BOSONIC, CompositeSpace, DensityOp, LinearOp, ModeSpec


def parity_op(spec) -> LinearOp:
    """Photon-number parity of a bosonic mode: diagonal (−1)^n."""
    if spec.kind != BOSONIC:
        raise ValidationError("operation requires a bosonic mode")
    return LinearOp(CompositeSpace.single(spec), np.diag((-1.0) ** np.arange(spec.dim)))


def density(ket) -> DensityOp:
    """|ψ⟩⟨ψ| of a ket, as a DensityOp."""
    return DensityOp(ket.space, np.outer(ket.amplitudes, ket.amplitudes.conj()))


def projector(ket) -> LinearOp:
    """|ψ⟩⟨ψ| of a ket, as a LinearOp."""
    return LinearOp(ket.space, np.outer(ket.amplitudes, ket.amplitudes.conj()))


def validate_density(rho):
    """Raise ValidationError unless ρ is Hermitian, of unit trace and
    positive semidefinite, each to 1e-9; return ρ."""
    if np.max(np.abs(rho.matrix - rho.matrix.conj().T)) > 1e-9:
        raise ValidationError("density matrix is not hermitian")
    if abs(np.trace(rho.matrix) - 1.0) > 1e-9:
        raise ValidationError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh(rho.matrix)) < -1e-9:
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
    space = CompositeSpace((ModeSpec.qubit(), enc.mode))
    dim = space.dim
    fixed = [
        np.concatenate([b.amplitudes, np.zeros(enc.mode.dim, complex)])
        for b in enc.orthonormal_basis()
    ]
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
    code = [space.joint_index((0, 0)), space.joint_index((1, 0))]
    cols[:, code] = np.stack(fixed[:2], axis=1)
    cols[:, [i for i in range(dim) if i not in code]] = np.stack(fixed[2:], axis=1)
    return cols
