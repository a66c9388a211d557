"""State and process characterization.

Wigner and joint Wigner functions from displaced parity expectations, qubit
state tomography with maximum-likelihood estimation, Pauli transfer matrices,
and the associated fidelity measures.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from cavitysim.errors import NumericalError, ValidationError
from cavitysim.fock import (
    CompositeSpace,
    DensityOp,
    Ket,
    ModeSpec,
    displacement,
    parity_op,
    partial_trace,
)

# ---------------------------------------------------------------------------
# Wigner functions

_TWO_OVER_PI = 2.0 / np.pi


def _reduced_cavity_state(state, factor_index: int) -> DensityOp:
    return partial_trace(state, keep=[factor_index])


def _displaced_parity(rho: DensityOp, beta: complex) -> float:
    spec = rho.space.factors[0]
    if abs(beta) ** 2 > spec.dim / 4:
        warnings.warn(
            f"Wigner displacement |beta| = {abs(beta):.2f} large for dim {spec.dim}",
            stacklevel=3,
        )
    d = displacement(beta, spec).matrix
    pi_m = parity_op(spec).matrix
    op = d @ pi_m @ d.conj().T
    return float(np.real(np.trace(rho.matrix @ op)))


def wigner(state, beta: complex, factor_index: int = 0) -> float:
    """W(β) = (2/π) ⟨D(β) Π D†(β)⟩ on the reduced state of one cavity factor."""
    rho = _reduced_cavity_state(state, factor_index)
    return _TWO_OVER_PI * _displaced_parity(rho, beta)


def joint_wigner(
    state, beta1: complex, beta2: complex, factors=(0, 1), scaled: bool = False
) -> float:
    """Expectation of the product of displaced parities of two cavities.

    Reported raw in [−1, 1] by default; scaled=True multiplies by (2/π)² for
    plotting with single-mode Wigner conventions.
    """
    rho = partial_trace(state, keep=list(factors))
    s1, s2 = rho.space.factors
    d1 = displacement(beta1, s1).matrix
    d2 = displacement(beta2, s2).matrix
    op1 = d1 @ parity_op(s1).matrix @ d1.conj().T
    op2 = d2 @ parity_op(s2).matrix @ d2.conj().T
    # Tr[ρ (A ⊗ B)] = Σ ρ[i,j,k,l] A[k,i] B[l,j] on the (d1, d2, d1, d2) tensor
    r = rho.matrix.reshape(s1.dim, s2.dim, s1.dim, s2.dim)
    val = float(np.real(np.einsum("ijkl,ki,lj->", r, op1, op2, optimize=True)))
    return val * _TWO_OVER_PI**2 if scaled else val


@dataclass(frozen=True)
class WignerGrid:
    """Single-mode Wigner function sampled on a rectangular phase-space grid."""

    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray  # shape (len(im_axis), len(re_axis))

    def integral(self) -> float:
        dre = self.re_axis[1] - self.re_axis[0]
        dim = self.im_axis[1] - self.im_axis[0]
        return float(np.sum(self.values) * dre * dim)

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
    rho = _reduced_cavity_state(state, factor_index)
    re_axis = np.asarray(re_axis, dtype=float)
    im_axis = np.asarray(im_axis, dtype=float)
    vals = np.empty((len(im_axis), len(re_axis)))
    for i, b_im in enumerate(im_axis):
        for j, b_re in enumerate(re_axis):
            vals[i, j] = _TWO_OVER_PI * _displaced_parity(rho, b_re + 1j * b_im)
    return WignerGrid(re_axis, im_axis, vals)


# ---------------------------------------------------------------------------
# Qubit tomography

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS_1Q = {"I": np.eye(2, dtype=complex), "X": _SX, "Y": _SY, "Z": _SZ}


def _rot(axis: np.ndarray, angle: float) -> np.ndarray:
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * axis


#: Pre-rotations applied before a computational-basis measurement.
PRE_ROTATIONS = {
    "I": np.eye(2, dtype=complex),
    "X90": _rot(_SX, np.pi / 2),
    "Y90": _rot(_SY, np.pi / 2),
    "X180": _rot(_SX, np.pi),
}
PRE_ROTATION_ORDER = ("I", "X90", "Y90", "X180")


def _setting_unitaries(n_qubits: int, pre_rotations=None):
    if pre_rotations is None:
        pre_rotations = PRE_ROTATIONS
    names = [k for k in PRE_ROTATION_ORDER if k in pre_rotations]
    settings = []
    for combo in itertools.product(names, repeat=n_qubits):
        u = pre_rotations[combo[0]]
        for name in combo[1:]:
            u = np.kron(u, pre_rotations[name])
        settings.append((combo, u))
    return settings


def tomo_probabilities(rho: DensityOp, pre_rotations=None) -> dict:
    """Outcome probabilities for each pre-rotation combination.

    Returns {rotation-name tuple: probability vector over computational
    outcomes}.  Supports one or two qubits.
    """
    n = rho.space.n_factors
    if n > 2 or any(f.kind != "qubit" for f in rho.space.factors):
        raise ValidationError("tomography supports 1 or 2 qubit factors")
    table = {}
    for combo, u in _setting_unitaries(n, pre_rotations):
        rotated = u @ rho.matrix @ u.conj().T
        table[combo] = np.real(np.diag(rotated)).copy()
    return table


def _povm_elements(n_qubits: int, pre_rotations=None):
    elements = []
    for combo, u in _setting_unitaries(n_qubits, pre_rotations):
        for outcome in range(2**n_qubits):
            proj = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
            proj[outcome, outcome] = 1.0
            elements.append((combo, outcome, u.conj().T @ proj @ u))
    return elements


def mle_density(
    prob_table: dict,
    shots: int = 10_000,
    pre_rotations=None,
    max_iters: int = 2000,
) -> DensityOp:
    """Maximum-likelihood density matrix from tomography probabilities.

    Physicality is guaranteed by the Cholesky-style parametrization
    ρ = T†T / Tr(T†T); the multinomial log-likelihood is maximized with
    L-BFGS using the analytic gradient.
    """
    n_qubits = len(next(iter(prob_table)))
    d = 2**n_qubits
    counts, povms = [], []
    for combo, outcome, e in _povm_elements(n_qubits, pre_rotations):
        if combo not in prob_table:
            raise ValidationError("probability table is not informationally complete")
        counts.append(shots * float(prob_table[combo][outcome]))
        povms.append(e)
    counts = np.array(counts)
    povms = np.array(povms)

    tril = np.tril_indices(d)
    n_params = d * d  # d(d+1)/2 real diag+lower-real plus d(d−1)/2 imag

    def unpack(x):
        t = np.zeros((d, d), dtype=complex)
        n_re = d * (d + 1) // 2
        t[tril] = x[:n_re]
        off = np.tril_indices(d, k=-1)
        t[off] += 1j * x[n_re:]
        return t

    def neg_ll_and_grad(x):
        t = unpack(x)
        tt = t.conj().T @ t
        tau = np.real(np.trace(tt))
        if tau <= 0:
            return 1e30, np.zeros_like(x)
        rho = tt / tau
        p = np.real(np.einsum("kij,ji->k", povms, rho))
        p = np.clip(p, 1e-12, None)
        ll = float(np.sum(counts * np.log(p)))
        a = np.einsum("k,kij->ij", counts / p, povms)
        # d ll / d T* = T (A − Tr(Aρ) I) / τ
        g = t @ (a - np.real(np.trace(a @ rho)) * np.eye(d)) / tau
        n_re = d * (d + 1) // 2
        grad = np.zeros(n_params)
        grad[:n_re] = 2 * np.real(g[tril])
        off = np.tril_indices(d, k=-1)
        grad[n_re:] = 2 * np.imag(g[off])
        return -ll, -grad

    x0 = np.zeros(n_params)
    x0[: d * (d + 1) // 2][np.cumsum([0] + list(range(2, d + 1)))] = 1.0  # T = I seed
    res = minimize(
        neg_ll_and_grad,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iters, "ftol": 1e-14, "gtol": 1e-10},
    )
    if not res.success and np.linalg.norm(res.jac) > 1e-3:
        raise NumericalError(
            f"MLE did not converge: {res.message}; |grad| = {np.linalg.norm(res.jac):.2e}"
        )
    t = unpack(res.x)
    tt = t.conj().T @ t
    rho = tt / np.real(np.trace(tt))
    space = CompositeSpace(tuple(ModeSpec.qubit() for _ in range(n_qubits)))
    return DensityOp(space, rho)


# ---------------------------------------------------------------------------
# Pauli transfer matrices

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

    def check_physical(self, tol: float = 1e-9):
        first = np.zeros(4**self.n_qubits)
        first[0] = 1.0
        if np.max(np.abs(self.R[0] - first)) > tol:
            raise ValidationError("first row is not (1, 0, ..., 0)")
        if np.max(np.abs(self.R)) > 1.0 + tol:
            raise ValidationError("transfer matrix entries exceed [−1, 1]")
        return self

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "pauli_labels": pauli_labels(self.n_qubits),
            "R": self.R.tolist(),
        }


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


def state_fidelity(rho: DensityOp, sigma: DensityOp) -> float:
    """Uhlmann fidelity (Tr√(√ρ σ √ρ))²."""
    if rho.space != sigma.space:
        raise ValidationError("states live on different spaces")
    w, v = np.linalg.eigh(rho.matrix)
    w = np.clip(w, 0, None)
    sqrt_rho = (v * np.sqrt(w)) @ v.conj().T
    inner = sqrt_rho @ sigma.matrix @ sqrt_rho
    ev = np.clip(np.linalg.eigvalsh(inner), 0, None)
    return float(np.sum(np.sqrt(ev)) ** 2)


def ket_fidelity(rho, psi: Ket) -> float:
    """⟨ψ|ρ|ψ⟩ for a pure target (or |⟨ψ|φ⟩|² for two kets)."""
    if isinstance(rho, Ket):
        return abs(rho.overlap(psi)) ** 2
    return float(np.real(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes)))
