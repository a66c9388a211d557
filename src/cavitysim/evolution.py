"""Time evolution: exact piecewise-constant propagators and Lindblad integration.

Pure states evolve by exact closed-form 2×2 rotations (below).  Mixed states
evolve by the exactly exponentiated Lindblad generator, formed sector by
sector on the vectorized density matrix, one propagator per distinct run of
identical piecewise-constant drive samples.

The static Hamiltonian is diagonal in the joint Fock basis and is passed as
its real (dim,) energy vector.  When a single qubit is the only driven mode,
the propagator is therefore block diagonal: one 2×2 g/e block per joint
level of the other factors, since the drive changes no photon number.  Each
block is a global phase times an SU(2) matrix [[a, −b̄], [b, ā]], so a whole
pulse reduces to one Cayley–Klein pair (a, b) per block.
`block_detuning_phase` reads each block's detuning and phase from the
energy vector, `block_rotations` computes the pairs for all blocks at once
and `apply_block_rotations` applies them on the qubit axis; `evolve_pulse`,
the ideal conditional rotations (and through them the
component-level logical map `gates.component_logical_unitary`) and the
binomial-CZ block calibration all run through these functions.
`block_rotation_gradient` differentiates each block's a with respect to
every drive sample, from one forward prefix scan of the same per-sample
pairs; the binomial-CZ tone calibration takes its exact Jacobian from it.
Every gate drives one qubit between instantaneous cavity displacements, so
a `PulseSequence` is one qubit's drive samples, and that is all that
`evolve_pulse` and `lindblad_evolve` play.

The Lindblad generator is a sparse superoperator, as in QuTiP's ``mesolve``
(Johansson, Nation & Nori, Comput. Phys. Commun. 183, 1760 (2012)): a
dim²×dim² CSR matrix 𝓛 acting on the row-major vectorization
vec(ρ) = ρ.reshape(-1), for which vec(AρB) = (A ⊗ Bᵀ) vec(ρ).  So

    −i[H, ρ]        →  −i (H ⊗ I − I ⊗ Hᵀ)
    L ρ L†          →  L ⊗ L̄
    −½{L†L, ρ}      →  −½ (L†L ⊗ I + I ⊗ (L†L)ᵀ)

A run of length τ maps vec(ρ) to exp(𝓛 τ) vec(ρ).  𝓛 seldom couples all
dim² elements: a qubit-only drive with the standard collapse set conserves
each cavity's coherence order n − m, a weak U(1) symmetry that splits 𝓛 into
independent sectors (Buča & Prosen, New J. Phys. 14, 073007 (2012)).  The
sectors are read off 𝓛's sparsity graph as its weakly connected components
C, not assumed, and exp(𝓛 τ) is formed exactly as one dense `expm` per
component, at a cost of Σ|C|³ per distinct run.  𝓛 maps ρ† to (𝓛ρ)†, so the
components come in mirror pairs under ρ ↔ ρ†; only one of each pair is
formed, and the other half of a Hermitian ρ follows by conjugation.  At
dim 60 (one qubit, one cavity of 30 levels, a qubit drive) the 3 600
elements fall into 59 components of at most 120.
`LindbladPropagators` keeps the dissipator of one collapse set and the
propagator of every distinct run, so a caller that evolves many inputs
through the same gate builds each once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp  # noqa: F401  unused; perfbench/tracer.py patches this name
from scipy.linalg import expm

from cavitysim.device import DeviceParams, SystemLayout
from cavitysim.errors import NumericalError, ValidationError
from cavitysim.fock import (
    CompositeSpace,
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
    """Piecewise-constant complex drive of one qubit: sample u_t adds
    (u_t/2)|e⟩⟨g| + (ū_t/2)|g⟩⟨e| on `qubit` for dt ns.

    samples is a 1-D, finite, non-empty array; it is copied and frozen.
    """

    qubit: str
    samples: np.ndarray
    dt: float

    def __post_init__(self):
        # `not x > 0` also rejects NaN
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValidationError(f"dt must be finite and positive, got {self.dt}")
        samples = np.array(self.samples, dtype=complex)
        if samples.ndim != 1 or samples.size == 0:
            raise ValidationError(f"a pulse holds 1-D, non-empty samples, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValidationError(f"the pulse on {self.qubit} has non-finite samples")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def n_steps(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt


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


# no src caller: perfbench/tracer.py observes it for its dim_max probe, and
# the tests' dense per-sample oracle is a product of it
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


def _check_pulse(space, H0, pulse: PulseSequence, layout: SystemLayout) -> np.ndarray:
    """Validate a pulse-driven evolution of a state on `space`; returns H0 as
    the energy vector."""
    if space != layout.space:
        raise ValidationError("state and layout spaces must agree")
    if pulse.qubit not in layout.index or not layout.is_qubit(pulse.qubit):
        raise ValidationError(f"the pulse drives {pulse.qubit!r}, which is not a qubit of the layout")
    e = np.asarray(H0)
    if e.shape != (layout.space.dim,) or np.iscomplexobj(e):
        raise ValidationError(
            f"H0 must be the real energy vector of shape ({layout.space.dim},), "
            f"got {e.dtype} of shape {e.shape}"
        )
    return e


def _segment_runs(H0: np.ndarray, pulse: PulseSequence, layout: SystemLayout):
    """Runs of consecutive identical drive samples, as (h, n_steps).

    Samples are compared rounded to 14 digits; h is the dense Hamiltonian
    diag(H0) + (u/2)|e⟩⟨g| + (ū/2)|g⟩⟨e| of the run on the driven qubit's
    g/e block indices, built once.
    """
    g, e = qubit_blocks(np.arange(len(H0)), layout, pulse.qubit)
    samples = np.round(pulse.samples, 14)
    starts = np.flatnonzero(samples[1:] != samples[:-1]) + 1
    bounds = [0, *starts.tolist(), pulse.n_steps]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        h = np.diag(H0).astype(complex)
        u = pulse.samples[start]
        h[e, g] = 0.5 * u
        h[g, e] = 0.5 * np.conj(u)
        yield h, stop - start


#: Target element count of the (blocks × samples) temporaries in
#: `block_rotations`: large enough to amortize numpy's per-call overhead,
#: small enough to stay in cache (4 k and 256 k elements were both slower at
#: 676 blocks).
_CHUNK_ELEMENTS = 16384


def _sample_rotations(delta: np.ndarray, half: np.ndarray, dt: float):
    """Per-sample Cayley–Klein pairs (a, b) of exp(−i dt [[δ, h̄], [h, −δ]]),
    with ω = √(δ² + |h|²) and sinc = sin(ωdt)/ω (dt at ω = 0)."""
    omega = np.sqrt(delta**2 + np.abs(half) ** 2)
    sinc = np.where(omega > 0, np.sin(omega * dt) / np.where(omega > 0, omega, 1.0), dt)
    a = np.cos(omega * dt) - 1j * sinc * delta
    b = -1j * sinc * half
    return a, b, omega, sinc


def _compose(a2, b2, a1, b1):
    """Cayley–Klein pair of the product [[a₂, −b̄₂], [b₂, ā₂]] · [[a₁, −b̄₁], [b₁, ā₁]]."""
    return a2 * a1 - np.conj(b2) * b1, b2 * a1 + np.conj(a2) * b1


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
        a, b, _, _ = _sample_rotations(delta, 0.5 * amps[start : start + chunk], dt)
        while a.shape[1] > 1:
            na, nb = _compose(a[:, 1::2], b[:, 1::2], a[:, 0:-1:2], b[:, 0:-1:2])
            if a.shape[1] % 2:
                na = np.concatenate([na, a[:, -1:]], axis=1)
                nb = np.concatenate([nb, b[:, -1:]], axis=1)
            a, b = na, nb
        a_tot, b_tot = _compose(a[:, 0], b[:, 0], a_tot, b_tot)
    return a_tot, b_tot


#: Chunk lengths, in samples, of `block_rotation_gradient`: its prefix scan
#: runs sequentially within all chunks of _SCAN_CHUNK at once, then over the
#: chunks (64 + n/64 vectorised steps for n samples), and its per-sample
#: terms are formed _GRADIENT_CHUNK samples at a time, which keeps its
#: temporaries near those of a residual evaluation.
_SCAN_CHUNK = 64
_GRADIENT_CHUNK = 128


def _prefix_products(delta: np.ndarray, half: np.ndarray, dt: float):
    """Cayley–Klein pairs of the prefix products P_t = M_{t−1} ⋯ M_0,
    t = 0 … n, of the sample propagators M_t of `_sample_rotations`;
    arrays of shape (n_blocks, n + 1), P_0 = I and P_n the total."""
    n = len(half)
    n_chunks = -(-(n + 1) // _SCAN_CHUNK)
    # the sequence I, M_0, …, M_{n−1}, padded with identities
    pa = np.ones((len(delta), n_chunks * _SCAN_CHUNK), dtype=complex)
    pb = np.zeros_like(pa)
    for start in range(0, n, _GRADIENT_CHUNK):
        t = slice(start + 1, min(start + _GRADIENT_CHUNK, n) + 1)
        pa[:, t], pb[:, t] = _sample_rotations(delta, half[start : start + _GRADIENT_CHUNK], dt)[:2]
    pa = pa.reshape(len(delta), n_chunks, _SCAN_CHUNK)
    pb = pb.reshape(pa.shape)
    for k in range(1, _SCAN_CHUNK):  # inclusive scan within every chunk
        pa[..., k], pb[..., k] = _compose(pa[..., k], pb[..., k], pa[..., k - 1], pb[..., k - 1])
    for c in range(1, n_chunks):  # then onto the last prefix of the chunk before
        pa[:, c], pb[:, c] = _compose(pa[:, c], pb[:, c], pa[:, c - 1, -1:], pb[:, c - 1, -1:])
    return (
        pa.reshape(len(delta), -1)[:, : n + 1],
        pb.reshape(len(delta), -1)[:, : n + 1],
    )


def block_rotation_gradient(delta: np.ndarray, amps: np.ndarray, dt: float):
    """Derivatives of the total a of `block_rotations` with respect to every
    drive sample: arrays g_re, g_im of shape (n_blocks, n_samples) with
    g_re[j, t] = ∂a_j/∂Re u_t and g_im[j, t] = ∂a_j/∂Im u_t.

    With M_t the sample propagators, P_t = M_{t−1} ⋯ M_0 and U = P_n,
    a = e₀ᵀ U e₀ and ∂a/∂u_t = (e₀ᵀ U P_{t+1}†) ∂M_t (P_t e₀): every factor
    is in SU(2), so the costate row needs no suffix products, and one
    forward prefix scan (`_prefix_products`) serves all samples.  The sample
    derivatives follow from a = cos ωdt − i δ S and b = −i h S, h = u/2,
    S = sin(ωdt)/ω, through ∂ω/∂h_r = h_r/ω and
    F = S′/ω = (dt cos ωdt − S)/ω², whose limit at ω → 0 is −dt³/3 (F is
    taken from its series for ωdt < 0.01, as `block_rotations` takes
    S → dt).  This is the adjoint gradient of GRAPE (Khaneja et al.,
    J. Magn. Reson. 172, 296 (2005)) for the 2×2 blocks.
    """
    delta = np.asarray(delta, dtype=float)[:, None]
    half = 0.5 * np.asarray(amps, dtype=complex)
    pa, pb = _prefix_products(delta, half, dt)
    g_re = np.empty(pa[:, 1:].shape, dtype=complex)
    g_im = np.empty_like(g_re)
    ua, ub = pa[:, -1:], pb[:, -1:]
    for start in range(0, len(half), _GRADIENT_CHUNK):
        t = slice(start, min(start + _GRADIENT_CHUNK, len(half)))
        h = half[t]
        a, _, omega, sinc = _sample_rotations(delta, h, dt)
        # state (x, y) = P_t e₀ and costate row (r0, r1) = e₀ᵀ U P_{t+1}†
        x, y = pa[:, t], pb[:, t]
        qa, qb = pa[:, t.start + 1 : t.stop + 1], pb[:, t.start + 1 : t.stop + 1]
        r0 = ua * np.conj(qa) + np.conj(ub) * qb
        r1 = ua * np.conj(qb) - np.conj(ub) * qa
        wdt = omega * dt
        small = wdt < 0.01
        f = np.where(
            small,
            dt**3 * (-1.0 / 3.0 + wdt**2 / 30.0 - wdt**4 / 840.0),
            (dt * a.real - sinc) / np.where(small, 1.0, omega**2),  # a.real = cos ωdt
        )
        # ∂a_t/∂h_r = h_r G, G = −dt S − i δ F, and ∂b_t/∂h_r = −i S − i h h_r F
        # (∂/∂h_i: h_i G and S − i h h_i F); contracted with state and costate,
        # ∂a/∂p = ∂a_t r0 x + conj(∂a_t) r1 y + ∂b_t r1 x − conj(∂b_t) r0 y
        g = -dt * sinc - 1j * delta * f
        c3, c4 = r1 * x, r0 * y
        k = g * (r0 * x) + np.conj(g) * (r1 * y) - 1j * f * (h * c3 + np.conj(h) * c4)
        g_re[:, t] = 0.5 * (h.real * k - 1j * sinc * (c3 + c4))
        g_im[:, t] = 0.5 * (h.imag * k + sinc * (c3 - c4))
    return g_re, g_im


def qubit_blocks(x: np.ndarray, layout: SystemLayout, label: str) -> np.ndarray:
    """A full-space array reshaped to (2, n_blocks, ...): qubit level first,
    then the joint index of every other factor, then any trailing axes."""
    if not layout.is_qubit(label):
        raise ValidationError(f"{label} is not a qubit")
    dims = layout.space.dims
    rest = x.shape[1:]
    v = np.moveaxis(x.reshape(dims + rest), layout.index[label], 0)
    return v.reshape((2, -1) + rest)


def block_detuning_phase(
    H0: np.ndarray, layout: SystemLayout, qubit: str, duration: float, blocks=None
):
    """Detuning δ_j = (E_g − E_e)/2 and phase e^{−i c_j T}, c_j = (E_g + E_e)/2,
    of each g/e block j of `qubit` in diag(H0), for a drive of duration T;
    `blocks` selects blocks by their `qubit_blocks` index (None: all)."""
    e_g, e_e = qubit_blocks(H0, layout, qubit)
    if blocks is not None:
        e_g, e_e = e_g[blocks], e_e[blocks]
    return 0.5 * (e_g - e_e), np.exp(-0.5j * (e_g + e_e) * duration)


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
    state: Ket, H0: np.ndarray, pulse: PulseSequence, layout: SystemLayout
) -> Ket:
    """Apply the exact piecewise-constant propagator of diag(H0) + the drive
    of one qubit.

    H0 is the static Hamiltonian as its real (dim,) energy vector.  The
    Hamiltonian is c_j I + [[δ_j, ū/2], [u/2, −δ_j]] in each g/e block j of
    the driven qubit (`block_detuning_phase`), so the pulse is played by
    `block_rotations`.  A pulse on anything but a qubit of the layout is a
    ValidationError.
    """
    H0 = _check_pulse(state.space, H0, pulse, layout)
    delta, phase = block_detuning_phase(H0, layout, pulse.qubit, pulse.duration)
    a, b = block_rotations(delta, pulse.samples, pulse.dt)
    return Ket(state.space, apply_block_rotations(state.amplitudes, layout, pulse.qubit, a, b, phase))


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
    gen = (-1j * (sp.kron(hs, eye) - sp.kron(eye, hs.T)) + dissipator).tocsr()
    gen.eliminate_zeros()  # cancelled entries would join components
    return gen


def liouvillian_components(gen: sp.csr_matrix):
    """The weakly connected components of the sparsity graph of 𝓛, one of
    each mirror pair under ρ ↔ ρ†.

    Returns (idx, mirror) pairs: idx holds the component's indices into
    vec(ρ), ascending, and mirror the indices of the transposed elements,
    which form the mirror component; mirror is None for a component that is
    its own mirror.
    """
    # at call time, so runs without a Lindblad solve do not import it
    from scipy.sparse.csgraph import connected_components

    graph = sp.csr_matrix((np.ones(gen.nnz), gen.indices, gen.indptr), shape=gen.shape)
    n, labels = connected_components(graph, directed=True, connection="weak")
    dim = int(round(np.sqrt(gen.shape[0])))
    flip = np.arange(dim * dim).reshape(dim, dim).T.reshape(-1)  # ρ_ij -> ρ_ji
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(n + 1))
    out = []
    for c in range(n):
        idx = order[bounds[c] : bounds[c + 1]]
        twin = labels[flip[idx[0]]]
        if twin >= c:
            out.append((idx, None if twin == c else flip[idx]))
    return out


class LindbladPropagators:
    """The dissipator of one collapse set on one space, and the exact
    propagator exp(𝓛 τ) of every distinct run evolved with it.

    A run's propagator is one dense `expm` per kept component of
    `liouvillian_components`, formed on first use and kept, keyed by the
    run's Hamiltonian matrix and length (not by its drive samples, so runs
    on different static Hamiltonians never share an entry); the cache lives
    as long as this object.
    """

    def __init__(self, collapses: CollapseSet, space: CompositeSpace):
        for op, _ in collapses:
            if op.space != space:
                raise ValidationError("collapse operators and state must share one space")
        self.collapses = collapses
        self.space = space
        self.dissipator = lindblad_dissipator(collapses, space.dim)
        self._runs = {}

    def apply(self, y: np.ndarray, h: np.ndarray, span: float) -> np.ndarray:
        """exp(𝓛 span) vec(ρ) for the vectorization y of a Hermitian ρ."""
        key = (h.tobytes(), span)
        blocks = self._runs.get(key)
        if blocks is None:
            gen = liouvillian(h, self.dissipator)
            blocks = self._runs[key] = [
                (idx, mirror, expm(gen[idx][:, idx].toarray() * span))
                for idx, mirror in liouvillian_components(gen)
            ]
        out = np.empty_like(y)
        for idx, mirror, e in blocks:
            v = e @ y[idx]
            out[idx] = v
            if mirror is not None:
                out[mirror] = v.conj()
        return out


def lindblad_evolve(
    rho: DensityOp,
    H0: np.ndarray,
    pulse: PulseSequence,
    propagators: LindbladPropagators,
    layout: SystemLayout,
) -> DensityOp:
    """Evolve ρ under dρ/dt = −i[H,ρ] + Σ (L ρ L† − ½{L†L, ρ}).

    H is diag(H0) + the qubit drive of `pulse`, piecewise constant at segment
    boundaries, with H0 the real (dim,) energy vector of the static
    Hamiltonian.  `propagators` holds the dissipator of the collapse set and
    keeps each run's propagator for later calls.

    ρ is first made Hermitian, (ρ + ρ†)/2, since the map commutes with
    ρ ↦ ρ† and the result is Hermitian anyway.  Each run of identical
    segments, of length τ, is then one exact step
    vec(ρ) ← exp(𝓛 τ) vec(ρ), with 𝓛 = `liouvillian(h, D)` in the row-major
    convention of the module docstring, formed per component of 𝓛 (see
    `LindbladPropagators`): Σ|C|³ work per distinct run.

    Raises ValidationError when H0, the propagators or the layout are on
    another space than ρ or the pulse drives no qubit of the layout, and
    NumericalError if the result is not finite or its trace drifts from 1 by
    more than 1e-6 (the map is trace-preserving).
    """
    H0 = _check_pulse(rho.space, H0, pulse, layout)
    if propagators.space != rho.space:
        raise ValidationError("collapse operators and state must share one space")

    dim = rho.space.dim
    m = rho.matrix
    y = (0.5 * (m + m.conj().T)).reshape(-1)
    for h, n in _segment_runs(H0, pulse, layout):
        y = propagators.apply(y, h, n * pulse.dt)

    m = y.reshape(dim, dim)
    m = 0.5 * (m + m.conj().T)
    if not np.all(np.isfinite(m)):
        raise NumericalError("Lindblad evolution produced a non-finite state")
    drift = abs(np.trace(m) - 1.0)
    if drift > 1e-6:
        raise NumericalError(f"Lindblad trace drift {drift:.2e} exceeds 1e-6")
    return DensityOp(rho.space, m)
