"""State and process characterization.

Wigner and joint Wigner functions from displaced parities in closed form (one
kernel, no matrix exponential), Pauli transfer matrices and the process
fidelity.  A state is its amplitude vector plus the `CompositeSpace` it lives
on, which names the factors and refuses a qubit where a cavity is needed.
The joint Wigner function is reduced through the amplitude tensor, at cost
p·rest·d1d2(d1 + d2) for p points, instead of through the (d1d2)² reduced
density matrix of the two cavities.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce

import numpy as np

from cavitysim.errors import ValidationError
from cavitysim.fock import BOSONIC, CompositeSpace, ModeSpec, partial_trace

# ---------------------------------------------------------------------------
# Wigner functions

_TWO_OVER_PI = 2.0 / np.pi


@lru_cache(maxsize=None)
def _underflow_radius(d: int) -> float:
    """|α| past which every element of D(α)Π on d levels, and every Wigner
    value formed from them, is below 2^−1075 and so rounds to 0.

    For x = |α|² ≥ 1 and m = n + k < d, |L_n^{(k)}(x)| ≤ 2^{n+k} x^n, so an
    element is at most (4x)^d e^{−x/2}, and a Wigner value sums d² of them
    weighted by |ρ_ij| ≤ 1.  The bound d²(4x)^d e^{−x/2} < 2^−1075 holds for
    every x above the fixed point of x = 2(d ln 4x + 2 ln d + 1075 ln 2),
    which the iteration reaches from above; it is below 1e4 for d ≤ 300.
    """
    c = 2.0 * math.log(d) + 1075.0 * math.log(2.0)
    x = 1e300
    for _ in range(8):
        x = 2.0 * (d * math.log(4.0 * x) + c)
    return math.sqrt(x)


def _displaced_parities(betas: np.ndarray, spec: ModeSpec) -> np.ndarray:
    """D(β) Π D(β)† = D(2β) Π for each β of a 1-D array, shape (len(betas), d, d).

    With α = 2β = √x e^{iθ} and m = n + k,
    ⟨m|D(α)|n⟩ = √(n!/m!) α^k e^{−x/2} L_n^{(k)}(x) = (−1)^k conj⟨n|D(α)|m⟩
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).  h_n = (−1)^n √(k! n!/m!) L_n^{(k)}(x)
    runs down all diagonals k and all β at once by the Laguerre recurrence,
    renormalised into the logarithm of the prefactor e^{−x/2} x^{k/2} / √k!.
    Every element is exact, at any |β|: past `_underflow_radius` each is
    below 2^−1075, so it is returned as 0, its correctly rounded value.  Up
    to there x grows only as 2d ln 4x (below 1e4 for d ≤ 300), so the 8
    recurrence steps between two renormalisations stay finite.
    """
    if spec.kind != BOSONIC:
        raise ValidationError("Wigner functions need a bosonic mode")
    d = spec.dim
    alpha = 2.0 * np.asarray(betas, dtype=complex)
    radius = np.abs(alpha)
    far = radius > _underflow_radius(d)
    x = np.where(far, 0.0, radius)[:, None] ** 2
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
    out[far] = 0.0
    return out


def _wigner_values(rho: np.ndarray, spec: ModeSpec, betas: np.ndarray) -> np.ndarray:
    ops = _displaced_parities(betas, spec)
    return _TWO_OVER_PI * np.einsum("ij,pji->p", rho, ops).real


def _reduced(psi: np.ndarray, space: CompositeSpace, factor_index: int, caller: str) -> np.ndarray:
    if factor_index not in range(n := space.n_factors):
        raise ValidationError(f"{caller} needs a factor index in [0, {n}); got {factor_index}")
    return partial_trace(psi, space.dims, keep=[factor_index])


def wigner(psi: np.ndarray, space: CompositeSpace, beta, factor_index: int = 0):
    """W(β) = (2/π) ⟨D(β) Π D†(β)⟩ of one cavity factor of the state psi on
    `space`, for a scalar β or an array of β."""
    b = np.asarray(beta)
    rho = _reduced(psi, space, factor_index, "wigner")
    vals = _wigner_values(rho, space.factors[factor_index], b.ravel())
    return float(vals[0]) if b.ndim == 0 else vals.reshape(b.shape)


def joint_wigner(psi: np.ndarray, space: CompositeSpace, beta1, beta2, factors=(0, 1)):
    """Product of the displaced parities of two cavities of the state psi on
    `space`, in [−1, 1]; beta1 and beta2 broadcast.

    With factors[0] and factors[1] moved to the last two axes, the amplitude
    tensor is a stack Ψ_c of (d1, d2) matrices, one per basis state c of the
    traced factors, and Tr[ρ (A ⊗ B)] = Σ_c Σ_kl conj(Ψ_c)[k,l] (A Ψ_c Bᵀ)[k,l].
    That costs p·rest·d1d2(d1 + d2) for p points and never forms the
    (d1d2)² reduced ρ.
    """
    n = space.n_factors
    if len(factors) != 2 or factors[0] == factors[1] or not all(0 <= k < n for k in factors):
        raise ValidationError(f"joint Wigner needs two distinct factor indices in [0, {n}); got {factors}")
    s1, s2 = (space.factors[k] for k in factors)
    b1, b2 = np.broadcast_arrays(beta1, beta2)
    op1 = _displaced_parities(b1.ravel(), s1)
    op2 = _displaced_parities(b2.ravel(), s2)
    psi = np.moveaxis(psi.reshape(space.dims), factors, (-2, -1)).reshape(-1, s1.dim, s2.dim)
    y = op1[:, None] @ psi @ op2[:, None].swapaxes(-1, -2)  # (p, rest, d1, d2)
    vals = (y.reshape(len(y), psi.size) @ psi.conj().ravel()).real
    return float(vals[0]) if b1.ndim == 0 else vals.reshape(b1.shape)


def wigner_grid(psi: np.ndarray, space: CompositeSpace, factor_index: int, re_axis, im_axis) -> np.ndarray:
    """W of the state psi on `space` on the grid re_axis × im_axis, shape
    (len(im_axis), len(re_axis)), one im_axis row per kernel call."""
    rho = _reduced(psi, space, factor_index, "wigner_grid")
    spec = space.factors[factor_index]
    re_axis, im_axis = np.asarray(re_axis, dtype=float), np.asarray(im_axis, dtype=float)
    rows = [_wigner_values(rho, spec, re_axis + 1j * b_im) for b_im in im_axis]
    return np.array(rows).reshape(len(im_axis), len(re_axis))


# ---------------------------------------------------------------------------
# Pauli transfer matrices

_PAULIS_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _matrix in _PAULIS_1Q.values():
    _matrix.setflags(write=False)  # `pauli_matrix` returns these arrays themselves

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


def pauli_transfer(process, n_qubits: int) -> np.ndarray:
    """Pauli transfer matrix R_ij = Tr(P_i · Λ(P_j)) / 2ⁿ, a (4ⁿ, 4ⁿ) array.

    `process` maps the (4ⁿ, 2ⁿ, 2ⁿ) stack of input density matrices, the
    product states of `_INPUT_KETS`, to the stack of their outputs, and is
    called once.  R is the solution of R·T_in = T_out, where column s of T_in
    and of T_out holds the Pauli expectations Tr(P_i ρ) of input s and of its
    output: by linearity, Tr(P_i Λ(ρ)) = Σ_j R_ij Tr(P_j ρ).  A process that
    returns a (..., 4ⁿ, 2ⁿ, 2ⁿ) stack, the outputs of several channels, gets
    the (..., 4ⁿ, 4ⁿ) stack of their PTMs, each bit for bit the one its
    channel alone would get.
    """
    kets = np.array([reduce(np.kron, k) for k in itertools.product(_INPUT_KETS, repeat=n_qubits)])
    inputs = kets[:, :, None] * kets[:, None, :].conj()
    outputs = process(inputs)
    paulis = np.array([pauli_matrix(l) for l in pauli_labels(n_qubits)])
    t_in, t_out = (np.einsum("iab,...sba->...is", paulis, m).real for m in (inputs, outputs))
    return np.linalg.solve(t_in.T, t_out.swapaxes(-1, -2)).swapaxes(-1, -2)


def unitary_transfer(u: np.ndarray, n_qubits: int) -> np.ndarray:
    """PTM of conjugation by a unitary (convenience for ideal gates)."""
    return pauli_transfer(lambda rhos: u @ rhos @ u.conj().T, n_qubits)


def process_fidelity(R: np.ndarray, R_ideal: np.ndarray) -> float:
    """Average gate fidelity F_avg = (Tr(Rᵀ R_ideal)/d + 1)/(d + 1), d = 2ⁿ,
    of two (4ⁿ, 4ⁿ) transfer matrices.

    Tr(Rᵀ R_ideal)/d² is the process (entanglement) fidelity F_pro, and
    F_avg = (d·F_pro + 1)/(d + 1) (Nielsen, Phys. Lett. A 303, 249 (2002)):
    the fully depolarizing channel has F_avg = 1/d and F_pro = 1/d².
    """
    R, R_ideal = np.asarray(R, dtype=float), np.asarray(R_ideal, dtype=float)
    if R.shape != R_ideal.shape:
        raise ValidationError(f"transfer matrices of shapes {R.shape} and {R_ideal.shape} act on different spaces")
    side = R.shape[0] if R.ndim == 2 else 0
    d = math.isqrt(side)
    if R.shape != (side, side) or side < 4 or d * d != side or d & (d - 1):
        raise ValidationError(f"a transfer matrix is 4ⁿ × 4ⁿ, n ≥ 1; got shape {R.shape}")
    return float((np.trace(R.T @ R_ideal) / d + 1.0) / (d + 1.0))
