"""State and process characterization.

Wigner and joint Wigner functions from displaced parities in closed form (one
kernel, no matrix exponential), Pauli transfer matrices and the process
fidelity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from cavitysim.errors import ValidationError
from cavitysim.fock import CompositeSpace, DensityOp, ModeSpec, partial_trace

# ---------------------------------------------------------------------------
# Wigner functions

_TWO_OVER_PI = 2.0 / np.pi


def _displaced_parities(betas: np.ndarray, spec: ModeSpec) -> np.ndarray:
    """D(β) Π D(β)† = D(2β) Π for each β of a 1-D array, shape (len(betas), d, d).

    Exact in every element, at any |β|: with α = 2β = √x e^{iθ} and m = n + k,
    ⟨m|D(α)|n⟩ = √(n!/m!) α^k e^{−x/2} L_n^{(k)}(x) = (−1)^k conj⟨n|D(α)|m⟩
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).  h_n = (−1)^n √(k! n!/m!) L_n^{(k)}(x)
    runs down all diagonals k and all β at once by the Laguerre recurrence,
    renormalised into the logarithm of the prefactor e^{−x/2} x^{k/2} / √k!.
    """
    if spec.kind != "bosonic":
        raise ValidationError("Wigner functions need a bosonic mode")
    d = spec.dim
    alpha = 2.0 * np.asarray(betas, dtype=complex)
    x = np.abs(alpha)[:, None] ** 2
    k = np.arange(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log x = −inf at β = 0, where only the k = 0 diagonal survives
        log_pref = np.where(k > 0, k * np.log(x), 0.0) / 2 - x / 2
    log_pref -= np.cumsum(np.log(np.maximum(k, 1))) / 2
    phase = np.exp(1j * np.angle(alpha)[:, None] * k)
    out = np.empty((len(alpha), d, d), dtype=complex)
    h_prev, h = np.zeros_like(log_pref), np.ones_like(log_pref)
    for n in range(d):
        if n % 8 == 0:  # a step grows |h| by at most x + 2 + √d: 8 steps stay finite
            scale = np.maximum(np.abs(h), np.abs(h_prev))
            h, h_prev, log_pref = h / scale, h_prev / scale, log_pref + np.log(scale)
            weight = np.exp(log_pref) * phase
        col = h[:, : d - n] * weight[:, : d - n]  # column n from the diagonal down
        out[:, n:, n] = col
        out[:, n, n:] = col.conj()
        h_prev, h = h, (
            (x - 2 * n - 1 - k) * h - np.sqrt(n * (n + k)) * h_prev
        ) / np.sqrt((n + 1) * (n + 1 + k))
    return out


def _wigner_values(rho: DensityOp, betas: np.ndarray) -> np.ndarray:
    ops = _displaced_parities(betas, rho.space.factors[0])
    return _TWO_OVER_PI * np.einsum("ij,pji->p", rho.matrix, ops).real


def wigner(state, beta, factor_index: int = 0):
    """W(β) = (2/π) ⟨D(β) Π D†(β)⟩ of one cavity factor, for a scalar β or an array of β."""
    b = np.asarray(beta)
    vals = _wigner_values(partial_trace(state, keep=[factor_index]), b.ravel())
    return float(vals[0]) if b.ndim == 0 else vals.reshape(b.shape)


def joint_wigner(state, beta1, beta2, factors=(0, 1)):
    """Product of the displaced parities of two cavities, in [−1, 1]; beta1 and beta2 broadcast."""
    rho = partial_trace(state, keep=list(factors))
    s1, s2 = rho.space.factors
    b1, b2 = np.broadcast_arrays(beta1, beta2)
    op1 = _displaced_parities(b1.ravel(), s1)
    op2 = _displaced_parities(b2.ravel(), s2)
    # Tr[ρ (A ⊗ B)] = Σ ρ[i,j,k,l] A[k,i] B[l,j] on the (d1, d2, d1, d2) tensor
    r = rho.matrix.reshape(s1.dim, s2.dim, s1.dim, s2.dim)
    vals = np.einsum("ijkl,pki,plj->p", r, op1, op2, optimize=True).real
    return float(vals[0]) if b1.ndim == 0 else vals.reshape(b1.shape)


@dataclass(frozen=True)
class WignerGrid:
    """Single-mode Wigner function sampled on a rectangular phase-space grid."""

    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray  # shape (len(im_axis), len(re_axis))

    def integral(self) -> float:
        if len(self.re_axis) < 2 or len(self.im_axis) < 2:
            raise ValidationError("the integral needs at least two points per axis")
        cell = (self.re_axis[1] - self.re_axis[0]) * (self.im_axis[1] - self.im_axis[0])
        return float(np.sum(self.values) * cell)

    def to_csv_rows(self):
        rows = []
        for i, im in enumerate(self.im_axis):
            for j, re in enumerate(self.re_axis):
                rows.append((float(re), float(im), float(self.values[i, j])))
        return rows

    def to_json_dict(self) -> dict:
        return {
            "re_axis": self.re_axis.tolist(),
            "im_axis": self.im_axis.tolist(),
            "values": self.values.tolist(),
        }


def wigner_grid(state, factor_index: int, re_axis, im_axis) -> WignerGrid:
    """W on the grid re_axis × im_axis, one im_axis row per kernel call."""
    rho = partial_trace(state, keep=[factor_index])
    re_axis, im_axis = np.asarray(re_axis, dtype=float), np.asarray(im_axis, dtype=float)
    vals = np.array([_wigner_values(rho, re_axis + 1j * b_im) for b_im in im_axis])
    return WignerGrid(re_axis, im_axis, vals)


# ---------------------------------------------------------------------------
# Pauli transfer matrices

_PAULIS_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Input states used for process reconstruction: {|g⟩, |e⟩, (|g⟩+|e⟩)/√2,
#: (|g⟩−i|e⟩)/√2} per qubit.
_INPUT_KETS = [
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    np.array([1.0, -1j], dtype=complex) / np.sqrt(2),
]


def pauli_labels(n_qubits: int):
    return ["".join(c) for c in itertools.product("IXYZ", repeat=n_qubits)]


def pauli_matrix(label: str) -> np.ndarray:
    m = _PAULIS_1Q[label[0]]
    for c in label[1:]:
        m = np.kron(m, _PAULIS_1Q[c])
    return m


@dataclass(frozen=True)
class TransferMatrix:
    """Pauli transfer representation R of an n-qubit process."""

    n_qubits: int
    R: np.ndarray

    def __post_init__(self):
        d4 = 4**self.n_qubits
        r = np.asarray(self.R, dtype=float)
        if r.shape != (d4, d4):
            raise ValidationError("transfer matrix has wrong shape")
        r.setflags(write=False)
        object.__setattr__(self, "R", r)

    def check_physical(self):
        """Raise ValidationError unless the first row is (1, 0, ..., 0) and
        every entry lies in [−1, 1], each to 1e-9."""
        first = np.zeros(4**self.n_qubits)
        first[0] = 1.0
        if np.max(np.abs(self.R[0] - first)) > 1e-9:
            raise ValidationError("first row is not (1, 0, ..., 0)")
        if np.max(np.abs(self.R)) > 1.0 + 1e-9:
            raise ValidationError("transfer matrix entries exceed [−1, 1]")
        return self


def _input_state_combinations(n_qubits: int):
    for combo in itertools.product(range(4), repeat=n_qubits):
        ket = _INPUT_KETS[combo[0]]
        for i in combo[1:]:
            ket = np.kron(ket, _INPUT_KETS[i])
        yield combo, np.outer(ket, ket.conj())


def _expansion_coefficients(n_qubits: int) -> np.ndarray:
    """coeffs[j, s]: expansion of Pauli P_j over the product input states."""
    s_single = np.stack([np.outer(k, k.conj()).reshape(-1) for k in _INPUT_KETS]).T
    s_inv = np.linalg.inv(s_single)  # 4x4, maps vec(op) -> state coefficients
    coeffs = np.zeros((4**n_qubits, 4**n_qubits), dtype=complex)
    for j, label in enumerate(pauli_labels(n_qubits)):
        per_qubit = [s_inv @ _PAULIS_1Q[c].reshape(-1) for c in label]
        c = per_qubit[0]
        for cq in per_qubit[1:]:
            c = np.kron(c, cq)
        coeffs[j] = c
    return coeffs


def pauli_transfer(process, n_qubits: int) -> TransferMatrix:
    """Pauli transfer matrix R_ij = Tr(P_i · Λ(P_j)) / 2ⁿ.

    `process` maps an input density matrix (2ⁿ×2ⁿ ndarray or DensityOp) to an
    output of the same kind.  Λ(P_j) is assembled by linearity from the
    process outputs on the standard product input-state set.
    """
    d = 2**n_qubits
    space = CompositeSpace(tuple(ModeSpec.qubit() for _ in range(n_qubits)))

    outputs = []
    for _, rho_in in _input_state_combinations(n_qubits):
        out = process(DensityOp(space, rho_in))
        out_m = out.matrix if isinstance(out, DensityOp) else np.asarray(out)
        outputs.append(out_m)
    outputs = np.array(outputs)  # (4^n, d, d)

    coeffs = _expansion_coefficients(n_qubits)
    paulis = np.array([pauli_matrix(l) for l in pauli_labels(n_qubits)])
    r = np.zeros((4**n_qubits, 4**n_qubits))
    for j in range(4**n_qubits):
        lam_pj = np.tensordot(coeffs[j], outputs, axes=(0, 0))
        for i in range(4**n_qubits):
            r[i, j] = np.real(np.trace(paulis[i] @ lam_pj)) / d
    return TransferMatrix(n_qubits, r)


def unitary_transfer(u: np.ndarray, n_qubits: int) -> TransferMatrix:
    """PTM of conjugation by a unitary (convenience for ideal gates)."""
    return pauli_transfer(lambda rho: u @ rho.matrix @ u.conj().T, n_qubits)


def process_fidelity(R: TransferMatrix, R_ideal: TransferMatrix) -> float:
    """F = (Tr(R† R_ideal)/d + 1)/(d + 1) with d = 2ⁿ."""
    if R.n_qubits != R_ideal.n_qubits:
        raise ValidationError("transfer matrices act on different spaces")
    d = 2**R.n_qubits
    return float((np.trace(R.R.T @ R_ideal.R) / d + 1.0) / (d + 1.0))
