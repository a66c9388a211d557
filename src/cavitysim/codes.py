"""Logical encodings in a single cavity mode and their encode/decode unitaries.

Supported encodings: symmetric cat {|α⟩, |−α⟩}, shifted cat {|2α⟩, |0⟩}, and
the binomial code {(|0⟩+|4⟩)/√2, |2⟩}.  Cat basis states are not exactly
orthogonal; logical amplitudes are interpreted in the symmetrically
orthonormalized (Löwdin) basis so that encoding is a genuine isometry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from cavitysim.errors import ValidationError
from cavitysim.fock import ModeSpec, coherent, fock_ket, recommended_dim


@dataclass(frozen=True)
class Encoding:
    """A pair of logical code words in one cavity mode, as amplitude vectors.

    `basis` is their Löwdin symmetric orthonormalization, a (dim, 2) array
    whose columns are the orthonormal |0⟩_L and |1⟩_L: it treats both words
    democratically and is the identity map when their overlap vanishes.
    """

    name: str
    mode: ModeSpec
    ket0: np.ndarray
    ket1: np.ndarray
    basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for k in (self.ket0, self.ket1):
            if np.shape(k) != (self.mode.dim,):
                raise ValidationError(f"logical code words must have shape ({self.mode.dim},), got {np.shape(k)}")
            if abs(np.linalg.norm(k) - 1.0) > 1e-10:
                raise ValidationError("logical basis kets must be normalized")
        s = abs(np.vdot(self.ket0, self.ket1))
        if s >= 1.0 - 1e-12:
            raise ValidationError("logical basis states are degenerate")
        if s >= 0.05:
            warnings.warn(
                f"logical basis overlap |s| = {s:.3f} >= 0.05; gate workflows "
                "assume quasiorthogonal basis states",
                stacklevel=2,
            )
        v = np.stack([self.ket0, self.ket1])
        w, u = np.linalg.eigh(v.conj() @ v.T)
        inv_sqrt = (u * (1.0 / np.sqrt(w))) @ u.conj().T
        object.__setattr__(self, "basis", (inv_sqrt @ v).T)


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
    k0 = (fock_ket(spec, 0) + fock_ket(spec, 4)) / np.sqrt(2.0)
    return Encoding("binomial", spec, k0, fock_ket(spec, 2))


def logical_ket(enc: Encoding, c0: complex, c1: complex) -> np.ndarray:
    """Normalized logical state c0|0⟩_L + c1|1⟩_L in the orthonormalized basis."""
    if c0 == 0 and c1 == 0:
        raise ValidationError("logical amplitudes may not both vanish")
    v = c0 * enc.basis[:, 0] + c1 * enc.basis[:, 1]
    return v / float(np.linalg.norm(v))


def ideal_encoder(enc: Encoding) -> np.ndarray:
    """Unitary on qubit⊗cavity mapping (c0|g⟩+c1|e⟩)|0⟩ → |g⟩(c0|0⟩_L+c1|1⟩_L).

    Only the two-dimensional input subspace is contractually constrained; the
    rest is completed by Gram–Schmidt over the standard basis in lexicographic
    order.  That completion is arbitrary, yet its adjoint decodes whatever a
    gate leaks out of the code space, so the encoded-qubit channels of the
    zgate and error-budget recipes depend on it.
    """
    d = enc.mode.dim
    dim = 2 * d
    # |g⟩ ⊗ the two orthonormalized basis states, then the standard basis
    # vectors in order, each kept if it is independent of the k columns
    # accepted before it
    q = np.zeros((dim, dim), dtype=complex)
    q[:d, :2] = enc.basis
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
    code = [0, d]  # the joint indices of |g, 0⟩ and |e, 0⟩
    cols[:, code] = q[:, :2]
    cols[:, [i for i in range(dim) if i not in code]] = q[:, 2:]
    if np.max(np.abs(cols.conj().T @ cols - np.eye(dim))) >= 1e-9:
        raise ValidationError("encoder is not unitary within tolerance")
    return cols
