"""Logical encodings in a single cavity mode and their encode/decode unitaries.

Supported encodings: symmetric cat {|α⟩, |−α⟩}, shifted cat {|2α⟩, |0⟩}, and
the binomial code {(|0⟩+|4⟩)/√2, |2⟩}.  Cat basis states are not exactly
orthogonal; logical amplitudes are interpreted in the symmetrically
orthonormalized (Löwdin) basis so that encoding is a genuine isometry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from cavitysim.errors import ValidationError
from cavitysim.fock import (
    CompositeSpace,
    Ket,
    LinearOp,
    ModeSpec,
    coherent,
    fock_ket,
    recommended_dim,
)


@dataclass(frozen=True)
class Encoding:
    """A pair of logical basis kets in one cavity mode."""

    name: str
    mode: ModeSpec
    ket0: Ket
    ket1: Ket

    def __post_init__(self):
        for k in (self.ket0, self.ket1):
            if abs(k.norm - 1.0) > 1e-10:
                raise ValidationError("logical basis kets must be normalized")
        s = abs(self.overlap)
        if s >= 1.0 - 1e-12:
            raise ValidationError("logical basis states are degenerate")
        if s >= 0.05:
            warnings.warn(
                f"logical basis overlap |s| = {s:.3f} >= 0.05; gate workflows "
                "assume quasiorthogonal basis states",
                stacklevel=2,
            )

    @property
    def overlap(self) -> complex:
        return self.ket0.overlap(self.ket1)

    def orthonormal_basis(self) -> tuple[Ket, Ket]:
        """Löwdin symmetric orthonormalization of (|0⟩_L, |1⟩_L).

        Treats both basis states democratically and reduces to the identity
        when the overlap vanishes.
        """
        v = np.stack([self.ket0.amplitudes, self.ket1.amplitudes])
        gram = v.conj() @ v.T
        w, u = np.linalg.eigh(gram)
        inv_sqrt = (u * (1.0 / np.sqrt(w))) @ u.conj().T
        vt = inv_sqrt @ v
        return (Ket(self.ket0.space, vt[0]), Ket(self.ket1.space, vt[1]))


def cat_encoding(alpha: complex, dim: int, variant: str = "symmetric") -> Encoding:
    """Coherent-state encoding: symmetric {|α⟩, |−α⟩} or shifted {|2α⟩, |0⟩}."""
    peak = 2.0 * abs(alpha)
    if dim < recommended_dim(peak):
        warnings.warn(
            f"dim {dim} below recommended {recommended_dim(peak)} for |alpha| = "
            f"{abs(alpha):.2f}",
            stacklevel=2,
        )
    spec = ModeSpec.bosonic(dim)
    if variant == "symmetric":
        return Encoding("cat", spec, coherent(alpha, spec), coherent(-alpha, spec))
    if variant == "shifted":
        return Encoding(
            "shifted-cat", spec, coherent(2.0 * alpha, spec), fock_ket(spec, 0)
        )
    raise ValidationError(f"unknown cat variant {variant!r}")


def binomial_encoding(dim: int) -> Encoding:
    """Binomial code: |0⟩_L = (|0⟩+|4⟩)/√2, |1⟩_L = |2⟩."""
    if dim < 5:
        raise ValidationError("binomial encoding needs dim >= 5")
    spec = ModeSpec.bosonic(dim)
    k0 = Ket(
        CompositeSpace.single(spec),
        (fock_ket(spec, 0).amplitudes + fock_ket(spec, 4).amplitudes) / np.sqrt(2.0),
    )
    return Encoding("binomial", spec, k0, fock_ket(spec, 2))


def logical_ket(enc: Encoding, c0: complex, c1: complex) -> Ket:
    """Normalized logical state c0|0⟩_L + c1|1⟩_L in the orthonormalized basis."""
    if c0 == 0 and c1 == 0:
        raise ValidationError("logical amplitudes may not both vanish")
    b0, b1 = enc.orthonormal_basis()
    v = c0 * b0.amplitudes + c1 * b1.amplitudes
    return Ket(b0.space, v).normalized()


def qubit_cavity_space(enc: Encoding) -> CompositeSpace:
    return CompositeSpace((ModeSpec.qubit(), enc.mode))


def ideal_encoder(enc: Encoding) -> LinearOp:
    """Unitary on qubit⊗cavity mapping (c0|g⟩+c1|e⟩)|0⟩ → |g⟩(c0|0⟩_L+c1|1⟩_L).

    Only the two-dimensional input subspace is contractually constrained; the
    rest is completed by Gram–Schmidt over the standard basis in lexicographic
    order.  That completion is arbitrary, yet its adjoint decodes whatever a
    gate leaks out of the code space, so the encoded-qubit channels of the
    zgate and error-budget recipes depend on it.
    """
    space = qubit_cavity_space(enc)
    dim = space.dim
    # |g⟩ ⊗ the two orthonormalized basis states, then the standard basis
    # vectors in order, each kept if it is independent of the k columns
    # accepted before it
    q = np.zeros((dim, dim), dtype=complex)
    for i, b in enumerate(enc.orthonormal_basis()):
        q[: enc.mode.dim, i] = b.amplitudes
    k = 2
    for e in np.eye(dim, dtype=complex):
        if k == dim:
            break
        for _ in range(2):  # reorthogonalize for numerical stability
            e -= q[:, :k] @ (q[:, :k].conj().T @ e)
        n = np.linalg.norm(e)
        if n > 1e-7:
            q[:, k] = e / n
            k += 1
    cols = np.zeros((dim, dim), dtype=complex)
    code = [space.joint_index((0, 0)), space.joint_index((1, 0))]
    cols[:, code] = q[:, :2]
    cols[:, [i for i in range(dim) if i not in code]] = q[:, 2:]
    return LinearOp(space, cols).assert_unitary(1e-9)
