"""Time evolution: exact piecewise-constant propagators and Lindblad integration.

Pure states evolve by exact per-segment matrix exponentials.  Mixed states
evolve by the exact action of the exponentiated Lindblad generator on the
vectorized density matrix, one action per run of identical piecewise-constant
drive samples.

When a single qubit is the only driven mode and the static Hamiltonian is
diagonal, the propagator is block diagonal: one 2×2 g/e block per joint
level of the other factors, since the drive changes no photon number.  Each
block is a global phase times an SU(2) matrix [[a, −b̄], [b, ā]], so a whole
pulse reduces to one Cayley–Klein pair (a, b) per block.
`block_rotations` computes those pairs for all blocks at once and
`apply_block_rotations` applies them on the qubit axis; the pulse path of
`evolve_pulse`, the ideal conditional rotations and the binomial-CZ block
calibration all run through these two functions.  The dense per-segment
`eigh` path stays for cavity drives and serves as their oracle.

The Lindblad generator is a sparse superoperator, as in QuTiP's ``mesolve``
(Johansson, Nation & Nori, Comput. Phys. Commun. 183, 1760 (2012)): a
dim²×dim² CSR matrix 𝓛 acting on the row-major vectorization
vec(ρ) = ρ.reshape(-1), for which vec(AρB) = (A ⊗ Bᵀ) vec(ρ).  So

    −i[H, ρ]        →  −i (H ⊗ I − I ⊗ Hᵀ)
    L ρ L†          →  L ⊗ L̄
    −½{L†L, ρ}      →  −½ (L†L ⊗ I + I ⊗ (L†L)ᵀ)

A run of length τ maps vec(ρ) to exp(𝓛 τ) vec(ρ), computed by
`scipy.sparse.linalg.expm_multiply` (Al-Mohy & Higham, SIAM J. Sci. Comput.
33, 488 (2011)) from sparse products 𝓛 · v, without forming exp(𝓛 τ).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp  # noqa: F401  unused; perfbench/tracer.py patches this name
from scipy.sparse.linalg import expm_multiply

from cavitysim.device import DeviceParams, SystemLayout, drive_operator
from cavitysim.errors import NumericalError, ValidationError
from cavitysim.fock import (
    DensityOp,
    Ket,
    LinearOp,
    annihilation,
    number_op,
    sigma_minus,
    sigma_z,
)


@dataclass(frozen=True)
class PulseSequence:
    """Piecewise-constant complex drive amplitudes per control channel.

    channels maps (label, kind) -> complex array; all arrays share one length.
    dt defaults to 1 ns, matching the optimizer discretization.
    """

    dt: float = 1.0
    channels: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        lengths = {len(a) for a in self.channels.values()}
        if len(lengths) > 1:
            raise ValidationError("all channels must have the same length")
        frozen = {
            k: np.asarray(v, dtype=complex) for k, v in self.channels.items()
        }
        for v in frozen.values():
            v.setflags(write=False)
        object.__setattr__(self, "channels", frozen)

    @property
    def n_steps(self) -> int:
        for a in self.channels.values():
            return len(a)
        return 0

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    def to_json_dict(self) -> dict:
        return {
            "dt": self.dt,
            "channels": {
                f"{label}:{kind}": {
                    "re": np.real(a).tolist(),
                    "im": np.imag(a).tolist(),
                }
                for (label, kind), a in self.channels.items()
            },
        }

    @staticmethod
    def from_json_dict(d: dict) -> "PulseSequence":
        channels = {}
        for key, arrs in d["channels"].items():
            label, _, kind = key.partition(":")
            channels[(label, kind)] = np.asarray(arrs["re"]) + 1j * np.asarray(
                arrs["im"]
            )
        return PulseSequence(dt=d["dt"], channels=channels)

    def to_csv_rows(self):
        rows = []
        for (label, kind), a in sorted(self.channels.items()):
            for step, u in enumerate(a):
                rows.append((step, f"{label}:{kind}", float(u.real), float(u.imag)))
        return rows

    @staticmethod
    def from_csv_rows(rows, dt: float = 1.0) -> "PulseSequence":
        by_channel = {}
        for step, channel, re, im in rows:
            label, _, kind = channel.partition(":")
            by_channel.setdefault((label, kind), {})[int(step)] = float(re) + 1j * float(im)
        channels = {}
        for key, entries in by_channel.items():
            arr = np.zeros(max(entries) + 1, dtype=complex)
            for step, u in entries.items():
                arr[step] = u
            channels[key] = arr
        return PulseSequence(dt=dt, channels=channels)


@dataclass(frozen=True)
class CollapseSet:
    """Collapse channels as (operator, rate) pairs; L_k = sqrt(rate_k) · op_k."""

    items: tuple

    def __post_init__(self):
        for _, rate in self.items:
            if not (np.isfinite(rate) and rate >= 0):
                raise ValidationError("collapse rates must be finite and >= 0")
        object.__setattr__(self, "items", tuple(self.items))

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    @staticmethod
    def empty() -> "CollapseSet":
        return CollapseSet(())


def segment_propagator(H: LinearOp, dt: float) -> LinearOp:
    """U = exp(−i H dt) for hermitian H, via eigendecomposition."""
    if not H.is_hermitian(1e-10):
        raise ValidationError("segment Hamiltonian must be hermitian")
    w, v = np.linalg.eigh(H.matrix)
    u = (v * np.exp(-1j * w * dt)) @ v.conj().T
    return LinearOp(H.space, u)


def dephasing_rate(T1: float, T2: float) -> float:
    """Pure dephasing rate Γ_φ = 1/T2 − 1/(2 T1)."""
    if T2 > 2.0 * T1 + 1e-9:
        raise ValidationError("T2 may not exceed 2*T1")
    g1 = 0.0 if np.isinf(T1) else 1.0 / (2.0 * T1)
    g2 = 0.0 if np.isinf(T2) else 1.0 / T2
    return max(g2 - g1, 0.0)


def standard_collapses(params: DeviceParams, layout: SystemLayout) -> CollapseSet:
    """Relaxation and dephasing channels for every mode in the layout.

    Qubits: sqrt(1/T1) σ⁻ and sqrt(Γ_φ/2) σ_z, giving coherence decay at
    1/T2 = 1/(2T1) + Γ_φ.  Cavities: sqrt(1/T1) a and sqrt(2 Γ_φ) a†a.
    """
    items = []
    for label in layout.index:
        t1 = params.T1.get(label, np.inf)
        t2 = params.T2.get(label, np.inf)
        gphi = dephasing_rate(t1, t2)
        if layout.is_qubit(label):
            if np.isfinite(t1):
                items.append((layout.lift(sigma_minus(), label), 1.0 / t1))
            if gphi > 0:
                items.append((layout.lift(sigma_z(), label), gphi / 2.0))
        else:
            if np.isfinite(t1):
                items.append(
                    (layout.lift(annihilation(layout.mode(label)), label), 1.0 / t1)
                )
            if gphi > 0:
                items.append(
                    (layout.lift(number_op(layout.mode(label)), label), 2.0 * gphi)
                )
    return CollapseSet(tuple(items))


# ---------------------------------------------------------------------------
# Pure-state pulse evolution


def _segment_runs(H0: LinearOp, pulse: PulseSequence, layout: SystemLayout):
    """Runs of consecutive identical drive samples, as (key, h, n_steps).

    key holds the run's samples (sorted by channel, rounded to 14 digits) and
    h is the dense Hamiltonian H0 + Σ (u O + ū O†) of the run, built once.
    """
    if pulse.n_steps == 0:
        return
    ops = {}
    for ch in pulse.channels:
        op = drive_operator(layout, ch).matrix
        ops[ch] = (op, op.conj().T)
    samples = np.round(np.stack([pulse.channels[c] for c in sorted(pulse.channels)], axis=1), 14)
    starts = np.flatnonzero(np.any(samples[1:] != samples[:-1], axis=1)) + 1
    bounds = [0, *starts.tolist(), pulse.n_steps]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        h = np.array(H0.matrix)
        for ch, amps in pulse.channels.items():
            u = amps[start]
            if u != 0:
                h += u * ops[ch][0] + np.conjugate(u) * ops[ch][1]
        yield tuple(samples[start].tolist()), h, stop - start


def _is_diagonal(m: np.ndarray) -> bool:
    return np.max(np.abs(m - np.diag(np.diag(m)))) < 1e-13


def _single_qubit_fast_path(pulse: PulseSequence, H0: LinearOp) -> str | None:
    """Label of the single driven qubit, if the blockwise 2x2 path applies."""
    labels = {label for (label, kind) in pulse.channels if kind == "qubit"}
    kinds = {kind for (_, kind) in pulse.channels}
    if kinds == {"qubit"} and len(labels) == 1 and _is_diagonal(H0.matrix):
        return labels.pop()
    return None


#: Target element count of the (blocks × samples) temporaries in
#: `block_rotations`: large enough to amortize numpy's per-call overhead,
#: small enough to stay in cache (4 k and 256 k elements were both slower at
#: 676 blocks).
_CHUNK_ELEMENTS = 16384


def block_rotations(delta: np.ndarray, amps: np.ndarray, dt: float):
    """Cayley–Klein pair (a, b) of the time-ordered product of Rabi rotations.

    Block j evolves under H_j(t) = [[δ_j, ū_t/2], [u_t/2, −δ_j]] with the
    piecewise-constant drive u_t (one sample per dt).  Each sample's
    propagator exp(−i dt H_j) is the SU(2) matrix [[a, −b̄], [b, ā]] with
    a = cos ωdt − i δ sin(ωdt)/ω and b = −i (u/2) sin(ωdt)/ω,
    ω = √(δ² + |u/2|²).  Returns arrays a, b of shape (n_blocks,) for the
    product over all samples, in time order.

    The samples are processed in chunks whose length is set by the block
    count; within a chunk the product is a pairwise tree
    (a, b) = (a₂a₁ − b̄₂b₁, b₂a₁ + ā₂b₁), and the chunks are composed in order.
    """
    delta = np.asarray(delta, dtype=float)[:, None]
    amps = np.asarray(amps, dtype=complex)
    a_tot = np.ones(len(delta), dtype=complex)
    b_tot = np.zeros(len(delta), dtype=complex)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, len(delta)))
    for start in range(0, len(amps), chunk):
        # (blocks, samples) arrays: samples on the last axis, the axis reduced
        half = 0.5 * amps[start : start + chunk]
        omega = np.sqrt(delta**2 + np.abs(half) ** 2)
        sinc = np.where(omega > 0, np.sin(omega * dt) / np.where(omega > 0, omega, 1.0), dt)
        a = np.cos(omega * dt) - 1j * sinc * delta
        b = -1j * sinc * half
        while a.shape[1] > 1:
            a1, b1, a2, b2 = a[:, 0:-1:2], b[:, 0:-1:2], a[:, 1::2], b[:, 1::2]
            na = a2 * a1 - np.conj(b2) * b1
            nb = b2 * a1 + np.conj(a2) * b1
            if a.shape[1] % 2:
                na = np.concatenate([na, a[:, -1:]], axis=1)
                nb = np.concatenate([nb, b[:, -1:]], axis=1)
            a, b = na, nb
        a, b = a[:, 0], b[:, 0]
        a_tot, b_tot = a * a_tot - np.conj(b) * b_tot, b * a_tot + np.conj(a) * b_tot
    return a_tot, b_tot


def qubit_blocks(x: np.ndarray, layout: SystemLayout, label: str) -> np.ndarray:
    """A full-space array reshaped to (2, n_blocks, ...): qubit level first,
    then the joint index of every other factor, then any trailing axes."""
    if not layout.is_qubit(label):
        raise ValidationError(f"{label} is not a qubit")
    dims = layout.space.dims
    rest = x.shape[1:]
    v = np.moveaxis(x.reshape(dims + rest), layout.index[label], 0)
    return v.reshape((2, -1) + rest)


def apply_block_rotations(
    x: np.ndarray,
    layout: SystemLayout,
    label: str,
    a: np.ndarray,
    b: np.ndarray,
    phase=1.0,
) -> np.ndarray:
    """Apply phase_j · [[a_j, −b̄_j], [b_j, ā_j]] to the g/e pair of qubit
    `label` in every block j (blocks ordered as in `qubit_blocks`).

    x is a state vector of shape (dim,) or a stack of them, (dim, k).
    """
    v = qubit_blocks(x, layout, label)
    col = (-1,) + (1,) * (v.ndim - 2)  # one value per block, broadcast over k
    a, b = a.reshape(col), b.reshape(col)
    phase = np.reshape(phase, col) if np.ndim(phase) else phase
    out = np.stack(
        [phase * (a * v[0] - np.conj(b) * v[1]), phase * (b * v[0] + np.conj(a) * v[1])]
    )
    dims = layout.space.dims
    axis = layout.index[label]
    out = out.reshape((2,) + dims[:axis] + dims[axis + 1 :] + x.shape[1:])
    return np.moveaxis(out, 0, axis).reshape(x.shape)


def evolve_pulse(
    state: Ket, H0: LinearOp, pulse: PulseSequence, layout: SystemLayout
) -> Ket:
    """Apply the exact piecewise-constant propagator of H0 + drive terms."""
    if state.space != layout.space or H0.space != layout.space:
        raise ValidationError("state, Hamiltonian, and layout spaces must agree")
    for label, kind in pulse.channels:
        if label not in layout.index:
            raise ValidationError(f"channel label {label} not present in layout")
        if (kind == "qubit") != layout.is_qubit(label):
            raise ValidationError(f"channel kind {kind} mismatches mode {label}")
    if pulse.n_steps == 0:
        return state

    fast_label = _single_qubit_fast_path(pulse, H0)
    if fast_label is not None:
        # H0 is diagonal and only one qubit is driven: the Hamiltonian is
        # c_j I + [[δ_j, ū/2], [u/2, −δ_j]] in each g/e block j
        eg, ee = qubit_blocks(np.real(np.diag(H0.matrix)), layout, fast_label)
        a, b = block_rotations(0.5 * (eg - ee), pulse.channels[(fast_label, "qubit")], pulse.dt)
        phase = np.exp(-0.5j * (eg + ee) * pulse.duration)
        out = apply_block_rotations(state.amplitudes, layout, fast_label, a, b, phase)
        return Ket(state.space, out)

    psi = np.array(state.amplitudes)
    cache = {}
    for key, h, n in _segment_runs(H0, pulse, layout):
        u = cache.get(key)
        if u is None:
            w, v = np.linalg.eigh(h)
            u = cache[key] = (v * np.exp(-1j * w * pulse.dt)) @ v.conj().T
        for _ in range(n):
            psi = u @ psi
    return Ket(state.space, psi)


# ---------------------------------------------------------------------------
# Lindblad integration


def lindblad_dissipator(collapses: CollapseSet, dim: int) -> sp.csr_matrix:
    """Σ_k (L_k ⊗ L̄_k − ½ (L_k†L_k ⊗ I + I ⊗ (L_k†L_k)ᵀ)), L_k = √rate_k · op_k.

    The dissipative part of the row-major Lindblad superoperator (see the
    module docstring); a dim²×dim² CSR matrix.
    """
    eye = sp.identity(dim, dtype=complex, format="csr")
    out = sp.csr_matrix((dim * dim, dim * dim), dtype=complex)
    for op, rate in collapses:
        l = sp.csr_matrix(np.sqrt(rate) * op.matrix)
        ll = (l.conj().T @ l).tocsr()
        out = out + sp.kron(l, l.conj()) - 0.5 * (sp.kron(ll, eye) + sp.kron(eye, ll.T))
    return out.tocsr()


def liouvillian(h: np.ndarray, dissipator: sp.csr_matrix) -> sp.csr_matrix:
    """−i (H ⊗ I − I ⊗ Hᵀ) + dissipator: the full row-major Lindblad generator."""
    hs = sp.csr_matrix(h)
    eye = sp.identity(hs.shape[0], dtype=complex, format="csr")
    return (-1j * (sp.kron(hs, eye) - sp.kron(eye, hs.T)) + dissipator).tocsr()


def lindblad_evolve(
    rho: DensityOp,
    H,
    collapses: CollapseSet,
    T: float | None = None,
    layout: SystemLayout | None = None,
) -> DensityOp:
    """Evolve ρ under dρ/dt = −i[H,ρ] + Σ (L ρ L† − ½{L†L, ρ}).

    H may be a static LinearOp (with duration T ≥ 0) or a (H0, PulseSequence)
    pair, in which case `layout` is required and the drive is honored as
    piecewise constant at segment boundaries.

    Each run of identical segments, of length τ, is one exact action
    vec(ρ) ← exp(𝓛 τ) vec(ρ) by `expm_multiply`, with 𝓛 = `liouvillian(h, D)`
    in the row-major convention of the module docstring; the dissipator D is
    built once.

    Raises ValidationError for a negative or non-finite T, and NumericalError
    if the result is not finite or its trace drifts from 1 by more than 1e-6
    (the map is trace-preserving).
    """
    if isinstance(H, LinearOp):
        if T is None:
            raise ValidationError("static Hamiltonian requires a duration T")
        if not np.isfinite(T) or T < 0:
            raise ValidationError(f"duration T must be finite and >= 0, got {T}")
        runs = [(H.matrix, T)]
    else:
        H0, pulse = H
        if layout is None:
            raise ValidationError("pulse-driven Lindblad evolution requires a layout")
        runs = ((h, n * pulse.dt) for _, h, n in _segment_runs(H0, pulse, layout))

    dim = rho.space.dim
    dissipator = lindblad_dissipator(collapses, dim)
    y = rho.matrix.astype(complex).reshape(-1)
    for h, span in runs:
        y = expm_multiply(liouvillian(h, dissipator) * span, y)

    m = y.reshape(dim, dim)
    m = 0.5 * (m + m.conj().T)
    if not np.all(np.isfinite(m)):
        raise NumericalError("Lindblad evolution produced a non-finite state")
    drift = abs(np.trace(m) - 1.0)
    if drift > 1e-6:
        raise NumericalError(f"Lindblad trace drift {drift:.2e} exceeds 1e-6")
    return DensityOp(rho.space, m)
