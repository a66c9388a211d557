"""Time evolution: exact piecewise-constant propagators and Lindblad integration.

A pulse is played as its runs of consecutive equal samples (`_runs`), over
each of which the Hamiltonian is constant.  Pure states evolve by exact
closed-form 2×2 rotations, one per run (below).  Mixed states evolve by the
exactly exponentiated Lindblad generator, formed sector by sector on the
vectorized density matrix, one propagator per distinct run.

The static Hamiltonian is diagonal in the joint Fock basis and is passed as
its real (dim,) energy vector.  When a single qubit is the only driven mode,
the propagator is therefore block diagonal: one 2×2 g/e block per joint
level of the other factors, since the drive changes no photon number.  Each
block is a global phase times an SU(2) matrix [[a, −b̄], [b, ā]], so a whole
pulse reduces to one Cayley–Klein pair (a, b) per block.
`block_detuning_phase` reads each block's detuning and phase from the
energy vector, `block_rotations` computes the pairs for all blocks at once,
one rotation per block and run, and `apply_block_rotations` applies them on
the qubit axis; `evolve_pulse`, the ideal conditional rotations (and through
them the component-level logical map `gates.component_logical_unitary`) and
the binomial-CZ block calibration all run through these functions.
A state and a density matrix may each be a stack, (dim, k) or (k, dim, dim),
so a gate plays each pulse once for all the columns or inputs it carries.
The kernels take it as the `fock` record whose `.space` perfbench/tracer.py
reads, and return a plain array.
`BlockScan` plays a drive sample by sample, keeping every prefix product:
the binomial-CZ tone calibration reads its residual from the last and its
exact Jacobian from `BlockScan.gradient`, one pass per point.
Every gate drives one qubit between instantaneous cavity displacements, so
a `PulseSequence` is one qubit's drive samples, and that is all that
`evolve_pulse` and `lindblad_evolve` play.

The Lindblad generator 𝓛 acts on the row-major vectorization
vec(ρ) = ρ.reshape(-1), for which vec(AρB) = (A ⊗ Bᵀ) vec(ρ).  So

    −i[H, ρ]        →  −i (H ⊗ I − I ⊗ Hᵀ)
    L ρ L†          →  L ⊗ L̄
    −½{L†L, ρ}      →  −½ (L†L ⊗ I + I ⊗ (L†L)ᵀ)

A collapse channel is a mode, a kind and a rate (`Collapse`).  With n the
mode's level number (`device.levels`), a `loss` channel at κ is
L = √κ Σ √n |n−1⟩⟨n| and a `dephasing` channel at γ damps ρ_ij at
γ (n_i − n_j)²; every L†L is diagonal, so the dissipative part follows
from the level numbers alone.

A run of length τ maps vec(ρ) to exp(𝓛 τ) vec(ρ).  A drive of one qubit, a
diagonal H0 and these channels conserve the coherence order n_i − n_j of
every other mode, a weak U(1) symmetry that splits 𝓛 into independent
sectors (Buča & Prosen, New J. Phys. 14, 073007 (2012)), one per key of
level differences (`_coherence_sectors`).  So 𝓛 is never formed whole:
`_sector_generators` builds each sector's dense block from the energies,
the run's sample and the level numbers, and exp(𝓛 τ) is one dense `_expm`
per sector, at a cost of Σ|C|³ per distinct run.  `_expm` is scaling and
squaring of the degree-13 Padé approximant (Higham, SIAM J. Matrix Anal.
Appl. 26, 1179 (2005)) on numpy alone, so the decoherent path loads no scipy
and runs on numpy's BLAS library only.  𝓛 maps ρ† to (𝓛ρ)†, so the sectors
come in mirror pairs under ρ ↔ ρ† (keys k and −k); only one of each pair is
formed, and the other half of a Hermitian ρ follows by conjugation.  The
sector of key 0 is its own mirror.  It is held in Hermitian coordinates,
ρ_ii, √2 Re ρ_ij and √2 Im ρ_ij over its pairs i < j
(`_hermitian_coordinates`), in which its block is real, so it is
exponentiated and applied in real arithmetic at a quarter of the complex
flops.
At dim 60 (one qubit, one cavity of 30 levels) the 3 600 elements fall into
59 sectors of at most 120, the self-mirror one.  `LindbladPropagators`
keeps the propagator of every distinct run, so a caller that evolves many
inputs through the same gate builds each once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cavitysim.device import DeviceParams, SystemLayout, levels
from cavitysim.errors import NumericalError, ValidationError
from cavitysim.fock import DensityOp, Ket, LinearOp


def __getattr__(name):
    # PEP 562: perfbench/tracer.py wraps `evolution.solve_ivp`, so bind it only on
    # that request; it goes with the tracer change of ROADMAP item 1
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Drive sample period (ns) of every pulse: the pulse backend, the blockwise
#: CZ propagator and its calibration, and GRAPE's optimized steps all run on
#: this one grid.
SAMPLE_DT = 1.0


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
class Collapse:
    """One collapse channel of the mode `label`: kind `loss` or `dephasing`
    (see the module docstring) at a finite rate >= 0, in 1/ns.  A collapse
    set is a tuple of channels."""

    label: str
    kind: str
    rate: float

    def __post_init__(self):
        if self.kind not in ("loss", "dephasing"):
            raise ValidationError(f"a collapse channel is loss or dephasing, got {self.kind!r}")
        if not (np.isfinite(self.rate) and self.rate >= 0):
            raise ValidationError(
                f"the {self.kind} rate of {self.label} must be finite and >= 0, got {self.rate}"
            )


# no src caller: perfbench/tracer.py observes it for its dim_max probe, and
# the tests' dense per-sample oracle is a product of it
def segment_propagator(H: LinearOp, dt: float) -> np.ndarray:
    """U = exp(−i H dt), a (dim, dim) array, for hermitian H (to 1e-10), via
    eigendecomposition."""
    h = H.matrix
    if not np.max(np.abs(h - h.conj().T)) < 1e-10:  # also true for NaN
        raise ValidationError("segment Hamiltonian must be hermitian")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


def dephasing_rate(T1: float, T2: float) -> float:
    """Pure dephasing rate Γ_φ = 1/T2 − 1/(2 T1), of a T2 that `DeviceParams`
    has checked against 2·T1."""
    g1 = 0.0 if np.isinf(T1) else 1.0 / (2.0 * T1)
    g2 = 0.0 if np.isinf(T2) else 1.0 / T2
    return max(g2 - g1, 0.0)


def standard_collapses(params: DeviceParams, layout: SystemLayout) -> tuple:
    """Loss at 1/T1 and dephasing at Γ_φ (`dephasing_rate`) for every mode of
    the layout, in layout order, each left out where its rate is 0.  On a
    qubit these are σ⁻ at 1/T1 and σ_z at Γ_φ/2, on a cavity a at 1/T1 and
    a†a at 2Γ_φ.  A finite T1 without a T2 entry is a ValidationError.
    """
    out = []
    for label in layout.index:
        t1 = params.T1.get(label, np.inf)
        if np.isfinite(t1) and label not in params.T2:
            raise ValidationError(f"{label} has a T1 but no T2: the [T2_us] table has no {label} entry")
        gphi = dephasing_rate(t1, params.T2.get(label, np.inf))
        if np.isfinite(t1):
            out.append(Collapse(label, "loss", 1.0 / t1))
        if gphi > 0:
            out.append(Collapse(label, "dephasing", gphi))
    return tuple(out)


# ---------------------------------------------------------------------------
# Pure-state pulse evolution


def _check_drive(space, pulse: PulseSequence, layout: SystemLayout) -> None:
    """Validate a drive of a state on `space` by `pulse` in `layout`."""
    if space != layout.space:
        raise ValidationError("state and layout spaces must agree")
    if pulse.qubit not in layout.index or not layout.is_qubit(pulse.qubit):
        raise ValidationError(f"the pulse drives {pulse.qubit!r}, which is not a qubit of the layout")


def _energy_vector(H0, layout: SystemLayout) -> np.ndarray:
    """H0 as the layout's real (dim,) energy vector, or a ValidationError."""
    e = np.asarray(H0)
    if e.shape != (layout.space.dim,) or np.iscomplexobj(e):
        raise ValidationError(
            f"H0 must be the real energy vector of shape ({layout.space.dim},), "
            f"got {e.dtype} of shape {e.shape}"
        )
    return e


def _runs(samples: np.ndarray):
    """Runs of consecutive equal drive samples, compared exactly: the
    sample of each run and its length, as arrays (values, lengths)."""
    first = np.ones(len(samples), dtype=bool)
    first[1:] = samples[1:] != samples[:-1]
    starts = np.flatnonzero(first)
    return samples[starts], np.diff(starts, append=len(samples))


#: Target element count of the (blocks × runs) temporaries in
#: `block_rotations`: large enough to amortize numpy's per-call overhead,
#: small enough to stay in cache.  It bounds those of the binomial CZ, the
#: one gate pulse of many runs (2 020): unchunked, the peak RSS of
#: `sim cz --encoding binomial --mode pulse` rose from 85.8 to 91.1 MB.
_CHUNK_ELEMENTS = 16384


def _sample_rotations(delta: np.ndarray, half: np.ndarray, dt):
    """Per-column Cayley–Klein pairs (a, b) of exp(−i dt [[δ, h̄], [h, −δ]]),
    with ω = √(δ² + |h|²) and sinc = sin(ωdt)/ω (dt at ω = 0); dt is one
    duration for every column or an array of one per column."""
    omega = np.sqrt(delta**2 + np.abs(half) ** 2)
    wdt, moving = omega * dt, omega > 0
    sinc = np.where(moving, np.sin(wdt) / np.where(moving, omega, 1.0), dt)
    a = np.cos(wdt) - 1j * sinc * delta
    b = -1j * sinc * half
    return a, b, omega, sinc


def _compose(a2, b2, a1, b1):
    """Cayley–Klein pair of the product [[a₂, −b̄₂], [b₂, ā₂]] · [[a₁, −b̄₁], [b₁, ā₁]]."""
    return a2 * a1 - np.conj(b2) * b1, b2 * a1 + np.conj(a2) * b1


def block_rotations(delta: np.ndarray, amps: np.ndarray, dt: float):
    """Cayley–Klein pair (a, b) of the time-ordered product of Rabi rotations.

    Block j evolves under H_j(t) = [[δ_j, ū_t/2], [u_t/2, −δ_j]] with the
    piecewise-constant drive u_t (one sample per dt).  Over a run of n equal
    samples (`_runs`) H_j is constant, so the run's propagator
    exp(−i n dt H_j) is one SU(2) matrix [[a, −b̄], [b, ā]] with
    a = cos ωτ − i δ sin(ωτ)/ω and b = −i (u/2) sin(ωτ)/ω, τ = n dt,
    ω = √(δ² + |u/2|²).  Returns arrays a, b of shape (n_blocks,) for the
    product over all runs, in time order.

    The runs are processed in chunks whose length is set by the block
    count; within a chunk the product is a pairwise tree
    (a, b) = (a₂a₁ − b̄₂b₁, b₂a₁ + ā₂b₁), and the chunks are composed in order.
    """
    delta = np.asarray(delta, dtype=float)[:, None]
    u, lengths = _runs(np.asarray(amps, dtype=complex))
    a_tot = np.ones(len(delta), dtype=complex)
    b_tot = np.zeros(len(delta), dtype=complex)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, len(delta)))
    for start in range(0, len(u), chunk):
        # (blocks, runs) arrays: runs on the last axis, the axis reduced
        t = slice(start, start + chunk)
        a, b, _, _ = _sample_rotations(delta, 0.5 * u[t], dt * lengths[t])
        while a.shape[1] > 1:
            na, nb = _compose(a[:, 1::2], b[:, 1::2], a[:, 0:-1:2], b[:, 0:-1:2])
            if a.shape[1] % 2:
                na = np.concatenate([na, a[:, -1:]], axis=1)
                nb = np.concatenate([nb, b[:, -1:]], axis=1)
            a, b = na, nb
        a_tot, b_tot = _compose(a[:, 0], b[:, 0], a_tot, b_tot)
    return a_tot, b_tot


#: Chunk length, in samples, of `_prefix_products`: its scan runs within all chunks
#: at once, then over the chunks (64 + n/64 vectorised steps for n samples).
_SCAN_CHUNK = 64


def _prefix_products(a: np.ndarray, b: np.ndarray):
    """Pairs of the prefix products P_t = M_{t−1} ⋯ M_0, t = 0 … n, of the sample
    pairs (a, b) of shape (n_blocks, n): arrays (n_blocks, n + 1), P_0 = I, P_n the total."""
    n_blocks, n = a.shape
    n_chunks = -(-(n + 1) // _SCAN_CHUNK)
    # the sequence I, M_0, …, M_{n−1}, padded with identities, in chunks
    pa = np.ones((n_blocks, n_chunks, _SCAN_CHUNK), dtype=complex)
    pb = np.zeros_like(pa)
    flat_a, flat_b = pa.reshape(n_blocks, -1), pb.reshape(n_blocks, -1)  # views
    flat_a[:, 1 : n + 1], flat_b[:, 1 : n + 1] = a, b
    for k in range(1, _SCAN_CHUNK):  # inclusive scan within every chunk
        pa[..., k], pb[..., k] = _compose(pa[..., k], pb[..., k], pa[..., k - 1], pb[..., k - 1])
    for c in range(1, n_chunks):  # then onto the last prefix of the chunk before
        pa[:, c], pb[:, c] = _compose(pa[:, c], pb[:, c], pa[:, c - 1, -1:], pb[:, c - 1, -1:])
    return flat_a[:, : n + 1], flat_b[:, : n + 1]


class BlockScan:
    """The drive of `block_rotations` played sample by sample, with one `_sample_rotations`
    call: the prefix pairs `pa`, `pb` (`_prefix_products`), whose last column is the
    total (a, b) up to rounding, and each sample's cos ωdt, ω and sin(ωdt)/ω."""

    def __init__(self, delta: np.ndarray, amps: np.ndarray, dt: float):
        self.delta = np.asarray(delta, dtype=float)[:, None]
        self.half = 0.5 * np.asarray(amps, dtype=complex)
        self.dt = dt
        a, b, self.omega, self.sinc = _sample_rotations(self.delta, self.half, dt)
        self.cos = a.real
        self.pa, self.pb = _prefix_products(a, b)

    def gradient(self, t: slice):
        """Wirtinger derivatives A = ∂a/∂u_t and B = ∂a/∂ū_t of the total a,
        arrays (n_blocks, len(t)) for the samples of the bounded slice t.

        With P_t = M_{t−1} ⋯ M_0 and U = P_n, a = e₀ᵀ U e₀ and
        ∂a/∂u_t = (e₀ᵀ U P_{t+1}†) ∂M_t (P_t e₀): in SU(2) the costate row
        needs no suffix products, so the scan's prefixes serve all samples:
        the adjoint gradient of GRAPE (Khaneja et al., J. Magn. Reson. 172,
        296 (2005)) for 2×2 blocks.  With a_t = cos ωdt − i δ S, b_t = −i h S,
        h = u/2 and S = sin(ωdt)/ω, ∂ω/∂h = h̄/(2ω) and F = S′/ω =
        (dt cos ωdt − S)/ω², whose limit at ω → 0 is −dt³/3 (F is taken from
        its series for ωdt < 0.01, as `block_rotations` takes S → dt).
        """
        dt, delta, h = self.dt, self.delta, self.half[t]
        omega, sinc = self.omega[:, t], self.sinc[:, t]
        wdt = omega * dt
        small = wdt < 0.01
        f = np.where(
            small,
            dt**3 * (-1.0 / 3.0 + wdt**2 / 30.0 - wdt**4 / 840.0),
            (dt * self.cos[:, t] - sinc) / np.where(small, 1.0, omega**2),
        )
        # state (x, y) = P_t e₀ and costate row (r0, r1) = e₀ᵀ U P_{t+1}†
        x, y = self.pa[:, t], self.pb[:, t]
        qa, qb = self.pa[:, t.start + 1 : t.stop + 1], self.pb[:, t.start + 1 : t.stop + 1]
        ua, ub = self.pa[:, -1:], self.pb[:, -1:]
        r0 = ua * np.conj(qa) + np.conj(ub) * qb
        r1 = ua * np.conj(qb) - np.conj(ub) * qa
        # ∂a_t/∂h = ½h̄ G, ∂a_t/∂h̄ = ½h G with G = −dt S − i δ F, ∂b_t/∂h = −i S − ½i|h|² F,
        # ∂b_t/∂h̄ = −½i h² F; then ∂a = ∂a_t r0 x + ∂ā_t r1 y + ∂b_t r1 x − ∂b̄_t r0 y, ∂/∂u = ½ ∂/∂h
        g = -dt * sinc - 1j * delta * f
        c3, c4 = r1 * x, r0 * y
        k = g * (r0 * x) + np.conj(g) * (r1 * y) - 1j * f * (h * c3 + np.conj(h) * c4)
        return 0.25 * (np.conj(h) * k - 2j * sinc * c3), 0.25 * (h * k - 2j * sinc * c4)


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
) -> np.ndarray:
    """Apply the exact piecewise-constant propagator of diag(H0) + the drive
    of one qubit to a state, or to each column of a (dim, k) stack, and
    return the evolved (dim,) or (dim, k) amplitudes.

    H0 is the static Hamiltonian as its real (dim,) energy vector.  The
    Hamiltonian is c_j I + [[δ_j, ū/2], [u/2, −δ_j]] in each g/e block j of
    the driven qubit (`block_detuning_phase`), so the pulse is played by
    `block_rotations`.  A pulse on anything but a qubit of the layout is a
    ValidationError.
    """
    _check_drive(state.space, pulse, layout)
    H0 = _energy_vector(H0, layout)
    delta, phase = block_detuning_phase(H0, layout, pulse.qubit, pulse.duration)
    a, b = block_rotations(delta, pulse.samples, pulse.dt)
    return apply_block_rotations(state.amplitudes, layout, pulse.qubit, a, b, phase)


# ---------------------------------------------------------------------------
# Lindblad integration


def _coherence_sectors(layout: SystemLayout, qubit: str):
    """The sectors of vec(ρ) under a drive of `qubit`, one of each mirror
    pair: ρ_ij lies in the sector keyed by the level differences n_i − n_j
    of every mode but `qubit`.

    Returns (idx, mirror) pairs: idx holds the sector's indices into vec(ρ),
    ascending, and mirror those of the transposed elements, which form the
    sector of the opposite key (None for key 0, its own mirror).  Of each
    pair, the sector holding the lower index is kept; the other would do
    as well, but moves the decoherent outputs in their last digits.
    """
    dims, dim = layout.space.dims, layout.space.dim
    key = np.zeros((dim, dim), dtype=int)
    for label, n in levels(layout).items():
        if label != qubit:
            d = dims[layout.index[label]]
            key = key * (2 * d - 1) + np.subtract.outer(n, n) + (d - 1)
    order = np.argsort(key.reshape(-1), kind="stable")
    flip = np.arange(dim * dim).reshape(dim, dim).T.reshape(-1)  # ρ_ij -> ρ_ji
    out = []
    for idx in np.split(order, np.flatnonzero(np.diff(key.reshape(-1)[order])) + 1):
        mirror = flip[idx]
        if idx[0] <= mirror.min():
            out.append((idx, None if idx[0] == mirror.min() else mirror))
    # largest first, so that its `_expm` temporaries come before the kept
    # propagators add up: at dim 60, one run on 4 inputs has a traced peak
    # of 2.6 MB, not 3.9 MB, of which the kept propagators are 2.3 MB
    return sorted(out, key=lambda sector: -len(sector[0]))


def _sector_generators(h0, collapses, layout: SystemLayout, qubit: str, u: complex):
    """Yield (idx, mirror, block) for each sector of `_coherence_sectors`:
    the dense block of 𝓛 on it for the energies h0 with `qubit` driven by
    the sample u, H = diag(h0) + (u/2)|e⟩⟨g| + (ū/2)|g⟩⟨e|.

    dρ_ij/dt = −i Σ H_ii′ ρ_i′j + i Σ ρ_ij′ H_j′j, where i′ and j′ run over
    i, j and their partners with the qubit's level flipped.  With each
    mode's levels n and joint-index stride s, a loss channel at κ adds
    κ √(n_i n_j) from ρ_ij to ρ_{i−s, j−s} and −½κ (n_i + n_j) on the
    diagonal, and a dephasing channel at γ adds −γ (n_i − n_j)² there.
    """
    dims, dim = layout.space.dims, layout.space.dim
    grids = {
        label: (n, int(np.prod(dims[layout.index[label] + 1 :])))
        for label, n in levels(layout).items()
    }
    q, sq = grids[qubit]
    for idx, mirror in _coherence_sectors(layout, qubit):
        i, j = np.divmod(idx, dim)
        step_i, step_j = sq * (1 - 2 * q[i]), sq * (1 - 2 * q[j])  # index steps to the partners
        rows = np.arange(len(idx))
        gen = np.zeros((len(idx), len(idx)), dtype=complex)
        gen[rows, np.searchsorted(idx, idx + step_i * dim)] = -1j * np.where(q[i], 0.5 * u, 0.5 * np.conj(u))
        gen[rows, np.searchsorted(idx, idx + step_j)] = 1j * np.where(q[j], 0.5 * np.conj(u), 0.5 * u)
        diss = np.zeros(len(idx))
        for ch in collapses:
            n, s = grids[ch.label]
            ni, nj = n[i], n[j]
            if ch.kind == "dephasing":
                diss -= ch.rate * (ni - nj) ** 2
                continue
            diss -= 0.5 * ch.rate * (ni + nj)
            src = np.flatnonzero(ni * nj)
            amp = np.sqrt(ch.rate) * np.sqrt(ni[src]) * (np.sqrt(ch.rate) * np.sqrt(nj[src]))
            gen[np.searchsorted(idx, idx[src] - s * (dim + 1)), src] += amp
        gen[rows, rows] = -1j * (h0[i] - h0[j]) + diss
        yield idx, mirror, gen


_SQRT2, _SQRT_HALF = np.sqrt(2.0), np.sqrt(0.5)


def _hermitian_coordinates(idx, gen, dim: int):
    """The self-mirror sector idx and its generator block gen in Hermitian
    coordinates: ρ_ii, then √2 Re ρ_ij and then √2 Im ρ_ij over its mirror
    pairs i < j.  These are x = T vec(ρ)[idx] for a unitary T, real for a
    Hermitian ρ, and since 𝓛(ρ†) = (𝓛ρ)† the block T gen T† is real; its
    imaginary part is rounding and is dropped.

    Returns ((diag, upper, lower), block): the indices into vec(ρ) of the
    ρ_ii, of the ρ_ij with i < j and of their mirrors ρ_ji, and the real
    block.
    """
    i, j = np.divmod(idx, dim)
    d, p = np.flatnonzero(i == j), np.flatnonzero(i < j)
    q = np.searchsorted(idx, j[p] * dim + i[p])
    # T on the rows, then T† on the columns: Re(i z) = −Im z
    t = np.concatenate([gen[d], _SQRT_HALF * (gen[p] + gen[q]), -1j * _SQRT_HALF * (gen[p] - gen[q])])
    pair, skew = _SQRT_HALF * (t[:, p] + t[:, q]), _SQRT_HALF * (t[:, p] - t[:, q])
    return (idx[d], idx[p], idx[q]), np.concatenate([t[:, d].real, pair.real, -skew.imag], axis=1)


#: Coefficients b_0 … b_13 of the degree-13 Padé approximant of e^x, and θ₁₃,
#: the largest ‖A‖₁ at which it meets double precision unscaled (Higham 2005,
#: cited in the module docstring)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA_13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """e^A of a square array by scaling and squaring: the degree-13 Padé
    approximant (V − U)⁻¹(V + U) of e^{A/2^s}, s = max(0, ⌈log₂(‖A‖₁/θ₁₃)⌉),
    squared s times (Higham 2005, algorithm 2.3 at degree 13 only).

    A real A (the self-mirror sector's block in Hermitian coordinates) stays
    real throughout.  A is not modified; U and V are summed in place, and A²,
    A⁴ and A⁶ are freed before the solve.
    """
    norm = np.linalg.norm(a, 1)
    s = int(np.ceil(np.log2(norm / _THETA_13))) if norm > _THETA_13 else 0
    a = a * 2.0**-s  # a copy: the caller's array is left as it was
    b, ident = _PADE13, np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u, v = b[13] * a6, b[12] * a6
    for k, ak in ((10, a4), (8, a2)):
        u += b[k + 1] * ak
        v += b[k] * ak
    u, v = a6 @ u, a6 @ v
    for k, ak in ((6, a6), (4, a4), (2, a2), (0, ident)):
        u += b[k + 1] * ak
        v += b[k] * ak
    del a2, a4, a6, ident
    u = a @ u
    r = v + u
    v -= u
    r = np.linalg.solve(v, r)
    for _ in range(s):
        r = r @ r
    return r


class LindbladPropagators:
    """The static energies H0 (the layout's real (dim,) energy vector), the
    layout and the collapse set of one open system, and the exact propagator
    exp(𝓛 τ) of every distinct drive run evolved in it.  `collapses` is a
    tuple of `Collapse` channels on modes of the layout.

    A run's propagator is one dense `_expm` per block of `_sector_generators`
    for the run's Hamiltonian diag(H0) + (u/2)|e⟩⟨g| + (ū/2)|g⟩⟨e|; it is
    formed on first use and kept for the life of this object, keyed by the
    driven qubit, the run's sample and its length.  Each kept entry is
    (idx, mirror, e): a sector with a mirror keeps its complex exponential
    e, and the self-mirror sector (mirror None) keeps its float64
    exponential in Hermitian coordinates, with idx the indices into vec(ρ)
    of its ρ_ii, of its ρ_ij with i < j and of their mirrors ρ_ji
    (`_hermitian_coordinates`).
    """

    def __init__(self, H0: np.ndarray, collapses: tuple, layout: SystemLayout):
        self.h0 = _energy_vector(H0, layout)
        for ch in collapses:
            if ch.label not in layout.index:
                raise ValidationError(f"a collapse channel acts on {ch.label!r}, not a mode of the layout")
        self.collapses = collapses
        self.layout = layout
        self._cache = {}

    def apply(self, y: np.ndarray, qubit: str, u: complex, span: float) -> np.ndarray:
        """exp(𝓛 span) vec(ρ) for the vectorization y of a Hermitian ρ, or
        for each column of a (dim², k) stack of them, with `qubit` driven by
        the constant sample u."""
        key = (qubit, u, span)
        blocks = self._cache.get(key)
        if blocks is None:
            blocks = []
            for idx, mirror, block in _sector_generators(self.h0, self.collapses, self.layout, qubit, u):
                if mirror is None:
                    idx, block = _hermitian_coordinates(idx, block, self.layout.space.dim)
                block *= span
                blocks.append((idx, mirror, _expm(block)))
            self._cache[key] = blocks  # kept only once every sector is formed
        out = np.empty_like(y)
        for idx, mirror, e in blocks:
            if mirror is None:
                diag, upper, lower = idx
                v = e @ np.concatenate([y[diag].real, _SQRT2 * y[upper].real, _SQRT2 * y[upper].imag])
                n, m = len(diag), len(diag) + len(upper)
                w = _SQRT_HALF * (v[n:m] + 1j * v[m:])
                out[diag], out[upper], out[lower] = v[:n], w, w.conj()
                continue
            v = e @ y[idx]
            out[idx] = v
            out[mirror] = v.conj()
        return out


def lindblad_evolve(
    rho: DensityOp, pulse: PulseSequence, propagators: LindbladPropagators
) -> np.ndarray:
    """Evolve ρ, or each of a (k, dim, dim) stack, under
    dρ/dt = −i[H,ρ] + Σ (L ρ L† − ½{L†L, ρ}), and return the evolved
    (dim, dim) or (k, dim, dim) density matrices.

    H is diag(H0) + the qubit drive of `pulse`, piecewise constant at sample
    boundaries; `propagators` holds H0, the layout and the collapse set, and
    keeps each run's propagator for later calls.

    ρ is first made Hermitian, (ρ + ρ†)/2, since the map commutes with
    ρ ↦ ρ† and the result is Hermitian anyway.  Each run of equal samples
    (`_runs`), of length τ, is then one exact step
    vec(ρ) ← exp(𝓛 τ) vec(ρ), with 𝓛 in the row-major convention of the
    module docstring, formed per coherence-order sector C (see
    `LindbladPropagators`): Σ|C|³ work per distinct run.  A stack is
    vectorized as (dim², k) columns, so each run's propagator acts on all
    of them in one product.

    Raises ValidationError when ρ is on another space than the propagators'
    layout or the pulse drives no qubit of it, and NumericalError if the
    result is not finite or the trace of any ρ drifts from 1 by more than
    1e-6 (the map is trace-preserving).
    """
    _check_drive(rho.space, pulse, propagators.layout)

    m = rho.matrix
    stack = m.reshape((-1,) + m.shape[-2:])
    y = (0.5 * (stack + stack.conj().swapaxes(-1, -2))).reshape(len(stack), -1).T
    for u, n in zip(*_runs(pulse.samples)):
        y = propagators.apply(y, pulse.qubit, u, n * pulse.dt)

    stack = y.T.reshape(stack.shape)
    stack = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    if not np.all(np.isfinite(stack)):
        raise NumericalError("Lindblad evolution produced a non-finite state")
    drift = np.max(np.abs(np.trace(stack, axis1=-2, axis2=-1) - 1.0))
    if drift > 1e-6:
        raise NumericalError(f"Lindblad trace drift {drift:.2e} exceeds 1e-6")
    return stack.reshape(m.shape)
