"""Geometric-phase gate constructions.

Gates are declared as sequences of primitive steps (displacements, conditional
qubit rotations, multitone pulses) and realized by one of two backends:

* an ideal backend with no static Hamiltonian (no dispersive dynamics, no
  Kerr), isolating the geometric-phase logic: a conditional rotation is an
  exact SU(2) rotation on the g/e blocks selected by a Fock-level mask, and
* a pulse backend that drives the static Hamiltonian, held as its energy
  vector, with shaped tones, exposing selectivity and dynamical-phase
  errors; phase compensations are phase vectors.  Its
  `PulseBackend._segments` is the one place where a gate becomes drive
  samples and phase corrections: the backend plays it, and the binomial-CZ
  block kernel and tone calibration read their samples from it.

Both apply each displacement as a single-cavity matrix along that cavity's
axis of the state (`fock.apply_on_factor`), never as a lifted operator, and
both push a whole stack of states through each step at once.

The central identity: two successive conditional pi rotations about axes
separated by an angle dphi imprint the geometric phase gamma = pi + dphi
(half the enclosed solid angle) on the conditioned subspace, while a single
conditional 2*pi rotation imprints the spinor sign -1.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from cavitysim.device import (
    DeviceParams,
    SystemLayout,
    cavity_static_diag,
    levels,
    static_hamiltonian,
)
from cavitysim.errors import NumericalError, ValidationError
from cavitysim.evolution import (
    SAMPLE_DT,
    BlockScan,
    LindbladPropagators,
    PulseSequence,
    apply_block_rotations,
    block_detuning_phase,
    block_rotations,
    evolve_pulse,
    lindblad_evolve,
    qubit_blocks,
)
from cavitysim.fock import DensityOp, Ket, apply_on_factor, displacement
from cavitysim.tomography import pauli_transfer

#: Axis-angle offsets realizing the standard single-cavity phase gates via
#: gamma = pi + dphi.
CANONICAL_DELTA_PHI = {"Z": 0.0, "S": -np.pi / 2, "T": -3 * np.pi / 4}


def wrap_angle(x: float) -> float:
    """Map an angle to (-pi, pi]."""
    return float(-((-x + np.pi) % (2 * np.pi) - np.pi))


# ---------------------------------------------------------------------------
# Gate step primitives


@dataclass(frozen=True)
class Displacement:
    label: str
    alpha: complex


@dataclass(frozen=True)
class ConditionalRotation:
    """Qubit rotation by theta about the equatorial axis at angle phi_axis,
    conditioned on the listed cavity Fock levels (empty = unconditional).

    epsilon is the Rabi frequency (rad/ns); the duration is theta/epsilon.
    detuning overrides the drive detuning in pulse mode (None = the dispersive
    shift of the conditioned state).
    """

    qubit: str
    phi_axis: float
    theta: float
    epsilon: float
    condition: tuple = ()
    detuning: float | None = None

    def __post_init__(self):
        # `not x > 0` also rejects NaN
        if not (self.epsilon > 0 and self.theta > 0):
            raise ValidationError("rotation angle and Rabi frequency must be positive")
        detuning = 0.0 if self.detuning is None else self.detuning
        if not np.all(np.isfinite([self.phi_axis, self.theta, self.epsilon, detuning])):
            raise ValidationError("rotation axis, angle, Rabi frequency and detuning must be finite")
        object.__setattr__(self, "condition", tuple(tuple(c) for c in self.condition))

    @property
    def duration(self) -> float:
        return self.theta / self.epsilon


@dataclass(frozen=True)
class Tone:
    detuning: float
    epsilon: float
    phi: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.detuning, self.epsilon, self.phi])):
            raise ValidationError("tone detuning, amplitude and phase must be finite")


@dataclass(frozen=True)
class MultitonePulse:
    """Sum of detuned qubit tones under a shared Gaussian-flattop envelope
    (`gaussian_flattop`)."""

    qubit: str
    tones: tuple
    duration: float

    def __post_init__(self):
        # `not x > 0` also rejects NaN
        if not (self.duration > 0 and np.isfinite(self.duration)):
            raise ValidationError(f"pulse duration must be finite and positive, got {self.duration}")
        object.__setattr__(self, "tones", tuple(self.tones))


#: the "type" of each gate step in the JSON form of a GateSpec
_STEP_NAMES = {
    Displacement: "displacement",
    ConditionalRotation: "conditional_rotation",
    MultitonePulse: "multitone_pulse",
}


@dataclass(frozen=True)
class GateSpec:
    """Named, serializable sequence of primitive gate steps."""

    name: str
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for s in self.steps:
            if type(s) not in _STEP_NAMES:
                raise ValidationError(f"unknown gate step {type(s).__name__}")

    @property
    def duration(self) -> float:
        """Total timed duration (displacements count as instantaneous)."""
        return sum(s.duration for s in self.steps if not isinstance(s, Displacement))

    def to_json_dict(self) -> dict:
        """Each step as its fields plus its "type", with tuples as lists and
        the complex alpha of a displacement split into alpha_re and alpha_im."""
        steps = []
        for step in self.steps:
            d = {"type": _STEP_NAMES[type(step)], **asdict(step)}
            if "alpha" in d:
                alpha = d.pop("alpha")
                d["alpha_re"], d["alpha_im"] = float(np.real(alpha)), float(np.imag(alpha))
            for key, value in d.items():
                if isinstance(value, tuple):
                    d[key] = [list(v) if isinstance(v, tuple) else v for v in value]
            steps.append(d)
        return {"name": self.name, "steps": steps}


# ---------------------------------------------------------------------------
# Backends


def _states(x, layout: SystemLayout) -> np.ndarray:
    """x as an array: a (dim,) state vector or a (dim, k) stack of them on
    `layout`'s space, else a ValidationError (a Ket becomes a 0-d array)."""
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[0] != layout.space.dim:
        raise ValidationError(
            f"expected a ({layout.space.dim},) state or a ({layout.space.dim}, k) stack, got shape {x.shape}"
        )
    return x


def _displace(x: np.ndarray, layout: SystemLayout, step: Displacement) -> np.ndarray:
    """Apply D(step.alpha) along the step's cavity axis of a state vector or
    of a (dim, k) stack of them."""
    d = displacement(step.alpha, layout.mode(step.label))
    return apply_on_factor(d, layout.index[step.label], layout.space, x)


def _displace_rows(m: np.ndarray, layout: SystemLayout, step: Displacement) -> np.ndarray:
    """D(step.alpha) m for a (dim, dim) matrix m or each of a (k, dim, dim)
    stack: the row axis is the state axis of one (dim, k·dim) stack."""
    rows = np.moveaxis(m, -2, 0)
    out = _displace(rows.reshape(len(rows), -1), layout, step)
    return np.moveaxis(out.reshape(rows.shape), 0, -2)


def _check_condition(step: ConditionalRotation, layout: SystemLayout, chi=None) -> None:
    """Refuse a condition of `step` that names a label that is not a cavity
    of the layout, a level that is not a Fock level of its truncation, or a
    cavity twice (which no joint level meets); given the dispersive shifts
    `chi`, also a cavity with none to the driven qubit, whose levels no tone
    selects."""
    labels = [label for label, _ in step.condition]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"condition {step.condition} names a cavity more than once")
    for label, level in step.condition:
        if label not in layout.index or layout.is_qubit(label):
            raise ValidationError(f"condition on {label!r}: not a cavity of the layout")
        d = layout.mode(label).dim
        # a fractional level would be truncated by the ideal mask but detune the pulse
        if not (float(level).is_integer() and 0 <= level < d):
            raise ValidationError(f"condition level {level} is not a Fock level of truncation 0..{d - 1}")
        if chi is not None and (label, step.qubit) not in chi:
            raise ValidationError(f"condition on {label!r}: no dispersive shift to {step.qubit} selects its levels")


class IdealBackend:
    """Realize gate steps with exact effective conditional-drive propagators.

    The static Hamiltonian is taken as zero: no dispersive or Kerr dynamics,
    only the geometric-phase content of the sequence.  A conditional rotation
    is then the SU(2) rotation a = cos(θ/2), b = −i sin(θ/2) e^{iφ} on every
    g/e block whose cavity levels meet the condition, and the identity on the
    rest.
    """

    def __init__(self, layout: SystemLayout):
        self.layout = layout
        self._levels = levels(layout)

    def _condition_mask(self, step: ConditionalRotation) -> np.ndarray:
        """Boolean mask over the g/e blocks of step.qubit meeting the condition."""
        _check_condition(step, self.layout)
        mask = np.ones(self.layout.space.dim, dtype=bool)
        for label, level in step.condition:
            mask &= self._levels[label] == int(level)
        return qubit_blocks(mask, self.layout, step.qubit)[0]

    def apply(self, x: np.ndarray, spec: GateSpec) -> np.ndarray:
        """Apply the gate to a (dim,) state vector or a (dim, k) stack of them."""
        layout = self.layout
        x = _states(x, layout)
        for step in spec.steps:
            if isinstance(step, Displacement):
                x = _displace(x, layout, step)
            elif isinstance(step, ConditionalRotation):
                mask = self._condition_mask(step)
                half = 0.5 * step.theta
                a = np.where(mask, np.cos(half), 1.0)
                b = np.where(mask, -1j * np.sin(half) * np.exp(1j * step.phi_axis), 0.0)
                x = apply_block_rotations(x, layout, step.qubit, a, b)
            else:
                raise ValidationError(
                    "multitone pulses have no ideal realization; use the explicit "
                    "conditional-rotation variant of the gate"
                )
        return x


#: Gaussian sigma, in samples, of the rise and fall of every multitone envelope
_RISE_SIGMA = 4.0


def gaussian_flattop(n_steps: int) -> np.ndarray:
    """Unit-height flattop envelope with Gaussian rise/fall of sigma
    _RISE_SIGMA samples; the ramps span 4 sigma on each side."""
    t = np.arange(n_steps) + 0.5
    ramp = 4.0 * _RISE_SIGMA
    env = np.ones(n_steps)
    if 2 * ramp >= n_steps:
        raise ValidationError("pulse too short for the envelope ramps")
    rise = t < ramp
    env[rise] = np.exp(-0.5 * ((t[rise] - ramp) / _RISE_SIGMA) ** 2)
    fall = t > n_steps - ramp
    env[fall] = np.exp(-0.5 * ((t[fall] - (n_steps - ramp)) / _RISE_SIGMA) ** 2)
    return env


def _drive_samples(step, params: DeviceParams, t0: float) -> np.ndarray:
    """Qubit-drive samples, one per SAMPLE_DT, of a conditional rotation or
    multitone pulse that starts at time t0, on a global clock so detuned
    tones stay phase-coherent."""
    dt = SAMPLE_DT
    if isinstance(step, ConditionalRotation):
        # snap the duration to the sample grid, preserving the exact rotation
        # angle by adjusting the amplitude within one part in n
        n = max(1, int(round(step.duration / dt)))
        eps = step.theta / (n * dt)
        delta = step.detuning
        if delta is None:
            delta = -sum(
                n_ph * params.chi[(label, step.qubit)]
                for label, n_ph in step.condition
            )
        t = t0 + (np.arange(n) + 0.5) * dt
        return eps * np.exp(1j * (step.phi_axis - delta * t))
    n = int(round(step.duration / dt))
    env = gaussian_flattop(n)
    t = t0 + (np.arange(n) + 0.5) * dt
    amps = np.zeros(n, dtype=complex)
    for tone in step.tones:
        amps += tone.epsilon * np.exp(1j * (tone.phi - tone.detuning * t))
    return env * amps


class PulseBackend:
    """Realize gate steps against the static Hamiltonian.

    h0 is the static Hamiltonian as its (dim,) energy vector.  Conditional
    rotations become finite-strength qubit tones at the dispersive shift of
    the conditioned state; displacements are applied as exact single-cavity
    unitaries (ideal fast cavity drives).  With `compensate`, the
    deterministic phases that decoding undoes are undone here: each timed
    step is followed by the phase vector undoing its Kerr and cross-Kerr
    phases, and the gate by the one undoing its AC-Stark phases
    (`stark_phase_compensation`).  A global clock keeps detuned tones
    phase-coherent across steps.
    """

    def __init__(self, params: DeviceParams, layout: SystemLayout, compensate: bool = False):
        self.params = params
        self.layout = layout
        self.h0 = static_hamiltonian(params, layout)
        self.compensate = compensate
        self._cavity_diag = cavity_static_diag(params, layout)
        self._lindblad = None

    def _segments(self, spec: GateSpec):
        """Yield, in order, ("displace", step), ("pulse", PulseSequence) and
        ("phase", v) items, v a diagonal unitary as its (dim,) vector; each
        pulse drives the step's qubit, and the clock starts at 0.  Conditions
        are checked as on the ideal backend, and against the shifts χ."""
        t = 0.0
        for step in spec.steps:
            if isinstance(step, Displacement):
                yield "displace", step
                continue
            if isinstance(step, ConditionalRotation):
                _check_condition(step, self.layout, self.params.chi)
            amps = _drive_samples(step, self.params, t)
            yield "pulse", PulseSequence(step.qubit, amps, SAMPLE_DT)
            span = len(amps) * SAMPLE_DT
            # the cavity-only diagonal commutes with both the dispersive
            # term and the qubit drive, so undoing it right after the
            # segment (in the same displacement frame) is exact
            if self.compensate:
                yield "phase", np.exp(1j * self._cavity_diag * span)
            t += span
        if self.compensate:
            stark = stark_phase_compensation(spec, self.params, self.layout)
            if stark is not None:
                yield "phase", stark

    def apply(self, x: np.ndarray, spec: GateSpec) -> np.ndarray:
        """Apply the gate to a (dim,) state vector or a (dim, k) stack of them."""
        x = _states(x, self.layout)
        stack = x.reshape(len(x), -1)
        for kind, item in self._segments(spec):
            if kind == "pulse":
                stack = evolve_pulse(Ket(self.layout.space, stack), self.h0, item, self.layout)
            elif kind == "displace":
                stack = _displace(stack, self.layout, item)
            else:
                stack = item[:, None] * stack
        return stack.reshape(x.shape)

    def apply_density(self, m: np.ndarray, spec: GateSpec, collapses: tuple) -> np.ndarray:
        """Apply `spec` to the (dim, dim) density matrix m, or to each of a
        (k, dim, dim) stack of them, with the collapse channels acting
        throughout.

        `collapses` is a tuple of `evolution.Collapse` channels.  Each
        distinct run's propagator is built once per collapse set and kept on
        the backend, so every repetition pushed through the same gate
        reuses it.
        """
        if self._lindblad is None or self._lindblad.collapses is not collapses:
            self._lindblad = LindbladPropagators(self.h0, collapses, self.layout)
        for kind, item in self._segments(spec):
            if kind == "pulse":
                m = lindblad_evolve(DensityOp(self.layout.space, m), item, self._lindblad)
            elif kind == "displace":
                # D ρ D† = (D (D ρ)†)†
                m = _displace_rows(m, self.layout, item)
                m = _displace_rows(m.conj().swapaxes(-1, -2), self.layout, item).conj().swapaxes(-1, -2)
            else:
                m = item[:, None] * m * item.conj()
        return m


def component_logical_unitary(spec: GateSpec, cavities, qubit: str) -> np.ndarray:
    """Ideal logical action with each cavity reduced to its two code components.

    Component 1 of each cavity is the one parked at the vacuum in the frame
    established by the gate's displacements (for shifted-cat encodings it is
    the vacuum itself), so vacuum-conditioned rotations condition on component
    index 1.  Displacements are frame relabelings and must cancel by the end of
    the sequence; the qubit must return to the ground state.  Returns the
    2^m x 2^m unitary on the cavity components.

    The rotations push the identity through `IdealBackend` with every cavity
    truncated to two levels: level 0 is component 1 and level 1 is component
    0, so the index order of the g-block is reversed on return.
    """
    cavities = list(cavities)
    frame = {c: 0.0 + 0.0j for c in cavities}
    rotations = []
    for step in spec.steps:
        if isinstance(step, Displacement):
            if step.label not in frame:
                raise ValidationError(f"unknown cavity label {step.label}")
            frame[step.label] += step.alpha
        elif isinstance(step, ConditionalRotation):
            if step.qubit != qubit:
                raise ValidationError("all rotations must drive the declared qubit")
            if any(n_ph != 0 for _, n_ph in step.condition):
                raise ValidationError(
                    "component-level reduction only supports vacuum conditions"
                )
            rotations.append(step)
        elif isinstance(step, MultitonePulse):
            raise ValidationError("multitone pulses have no component-level reduction")
    if any(abs(a) > 1e-12 for a in frame.values()):
        raise ValidationError("displacements do not return to the original frame")
    layout = SystemLayout.build([qubit], cavities, {c: 2 for c in cavities})
    eye = np.eye(layout.space.dim, dtype=complex)
    u = IdealBackend(layout).apply(eye, GateSpec(spec.name, rotations))
    half = u.shape[0] // 2
    if np.max(np.abs(u[half:, :half])) > 1e-9:
        raise NumericalError("qubit does not return to the ground state")
    return u[:half, :half][::-1, ::-1]


# ---------------------------------------------------------------------------
# Gate constructions


def single_cavity_phase_gate(
    delta_phi: float,
    enc,
    params: DeviceParams,
    epsilon: float | None = None,
) -> GateSpec:
    """Logical diag(1, e^{i(pi + delta_phi)}) on a shifted-cat encoding in S1.

    Two successive pi rotations of Q1, conditioned on the vacuum of S1, about
    axes 0 and delta_phi, at the Rabi frequency epsilon (default: a twentieth
    of the code splitting n̄χ).
    """
    if enc.name != "shifted-cat":
        raise ValidationError("single-cavity phase gates require a shifted-cat encoding")
    # n̄ = Σ n|c_n|² of the displaced component |2α⟩
    nbar = float(np.real(np.vdot(enc.ket0, np.arange(enc.mode.dim) * enc.ket0)))
    gap = nbar * params.chi[("S1", "Q1")]
    if epsilon is None:
        epsilon = gap / 20.0
    if epsilon > gap / 3.0:
        raise ValidationError("drive strength not selective on the code splitting")
    if epsilon > gap / 10.0:
        warnings.warn("drive strength above a tenth of the code splitting", stacklevel=2)
    cond = (("S1", 0),)
    # with the drive convention (eps/2) e^{i phi} |e><g| + h.c., advancing the
    # second axis by -delta_phi yields gamma = pi + delta_phi on the
    # conditioned component
    return GateSpec(
        "phase-gate",
        (
            ConditionalRotation("Q1", 0.0, np.pi, epsilon, cond),
            ConditionalRotation("Q1", -delta_phi, np.pi, epsilon, cond),
        ),
    )


def cz_coherent(alpha: complex, params: DeviceParams) -> GateSpec:
    """CZ between two symmetric-cat qubits of amplitude alpha in S1 and S2.

    D(alpha) on both cavities parks the |-alpha> components at the vacuum; a
    2*pi rotation of Q3 conditional on the joint vacuum imprints -1 on
    exactly the |1>_L|1>_L component; the displacements are then undone.
    The Rabi frequency is a twentieth of the smaller splitting n̄χ of the
    far component.
    """
    if alpha == 0:
        raise ValidationError("cat amplitude must be nonzero")
    nbar = 4.0 * abs(alpha) ** 2  # photon number of the displaced far component
    chi_min = min(params.chi[(c, "Q3")] for c in ("S1", "S2"))
    epsilon = nbar * chi_min / 20.0
    return GateSpec(
        "cz-coherent",
        (
            Displacement("S1", alpha),
            Displacement("S2", alpha),
            ConditionalRotation("Q3", 0.0, 2 * np.pi, epsilon, (("S1", 0), ("S2", 0))),
            Displacement("S1", -alpha),
            Displacement("S2", -alpha),
        ),
    )


def stark_phase_compensation(
    spec: GateSpec, params: DeviceParams, layout: SystemLayout
) -> np.ndarray | None:
    """Phase vector (dim,) of the diagonal unitary undoing the drive-induced
    AC-Stark phases of a selective gate, or None if it has no rotation
    conditioned on one cavity's vacuum.

    A resonant rotation of Rabi frequency eps, conditioned on the vacuum of
    one cavity, dresses every occupied level |n >= 1> of that cavity, whose
    qubit transition is detuned by n*chi, and imprints the second-order phase
    -eps^2 T / (4 n chi) over its duration.  Like the Kerr phases this is
    deterministic, so decoding undoes it exactly (to second order in
    eps/chi).  Rotations conditioned on several cavities are left alone.
    """
    theta = {}  # cavity -> (levels,) phase
    for step in spec.steps:
        if isinstance(step, ConditionalRotation) and len(step.condition) == 1:
            (cavity, level), = step.condition
            if level != 0:
                continue
            chi = params.chi[(cavity, step.qubit)]
            n = np.arange(1, layout.mode(cavity).dim)
            phase = theta.setdefault(cavity, np.zeros(n.size + 1))
            phase[1:] += step.epsilon**2 * step.duration / (4.0 * n * chi)
    if not theta:
        return None
    n = levels(layout)
    out = np.ones(layout.space.dim, dtype=complex)
    for cavity, phase in theta.items():
        out = out * np.exp(1j * phase)[n[cavity]]
    return out


_BINOMIAL_JOINT_STATES = tuple((j, k) for j in (0, 2, 4) for k in (0, 2, 4))

# The binomial CZ: a nonselective pi pulse, then a selective nine-tone pulse
# (durations in ns); the ideal variant's conditional rotations run at
# _CZ_EPSILON_IDEAL (rad/ns).  The tone calibration stops at _CZ_FTOL or
# after _CZ_MAX_NFEV Levenberg-Marquardt evaluations, and fails above
# _CZ_RESIDUAL_TOL.
_CZ_NONSELECTIVE_NS = 20.0
_CZ_SELECTIVE_NS = 2000.0
_CZ_EPSILON_IDEAL = 1e-3
_CZ_MAX_NFEV = 6000
_CZ_RESIDUAL_TOL = 0.05

# Relative-cost tolerance of the tone calibration: Levenberg-Marquardt stops
# once a step lowers its cost by less than _CZ_FTOL of itself.  The cost is
# ½Σ_j|⟨g|U|g⟩_j − e^{iγ_j}|², what the gate loses on the nine joint states,
# plus the regularization of `_ToneCalibration.residual`.  Measured at 5 + 5
# levels, 1e-5 stops after 106 residuals at F_avg 0.99272, where the last
# steps move F_avg by ±1e-5 and gain about 2e-6 each; running on to
# convergence (492 residuals) gains 1.3e-4 more.
_CZ_FTOL = 1e-5

# Selective samples per step of the Jacobian: its per-sample terms and its
# (samples × tones) chain-rule temporaries are formed this many at a time.
_CZ_CHUNK = 256


def _binomial_layout(layout: SystemLayout):
    """The qubit and the two cavities of a binomial-CZ layout, and the
    `qubit_blocks` indices of the _BINOMIAL_JOINT_STATES."""
    qubits, cavities = layout.qubit_labels(), layout.cavity_labels()
    if len(qubits) != 1 or len(cavities) != 2 or min(layout.mode(c).dim for c in cavities) < 5:
        sizes = {label: layout.mode(label).dim for label in layout.index}
        raise ValidationError(
            "the binomial CZ drives one qubit on the nine joint Fock states |j,k>, j,k in "
            f"{{0,2,4}}, of two cavities of at least 5 levels; got {sizes}"
        )
    others = list(layout.space.dims)
    del others[layout.index[qubits[0]]]
    blocks = np.ravel_multi_index(np.array(_BINOMIAL_JOINT_STATES).T, others)
    return qubits[0], cavities, blocks


def _block_drive_samples(spec: GateSpec, backend: PulseBackend, qubit: str) -> np.ndarray:
    """The qubit-drive samples that `backend` plays for `spec`, concatenated:
    the input of the blockwise propagator, which needs drives on `qubit`
    alone and no phase compensation."""
    if backend.compensate:
        raise ValidationError("blockwise evaluation requires a backend without phase compensation")
    parts = []
    for kind, item in backend._segments(spec):
        if kind != "pulse" or item.qubit != qubit:
            raise ValidationError(
                "blockwise evaluation requires a displacement-free spec driving the declared qubit"
            )
        parts.append(item.samples)
    return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)


def joint_block_unitaries(spec: GateSpec, backend: PulseBackend) -> dict:
    """Exact 2x2 qubit propagator for each binomial joint cavity Fock state.

    Qubit-only drives conserve the cavity photon numbers, so the full
    propagator is block diagonal over joint Fock states.  Each block is
    e^{−i c T} [[a, −b̄], [b, ā]], with δ and the phase e^{−i c T} from
    `evolution.block_detuning_phase` of the backend's static Hamiltonian and
    (a, b) from `evolution.block_rotations` over the drive samples that
    `backend` plays for the gate: exactly the blocks of its full-space
    evolution, at the cost of nine.  The backend's layout holds one qubit
    and two cavities; the backend must not compensate phases.
    """
    layout = backend.layout
    qubit, _, blocks = _binomial_layout(layout)
    u = _block_drive_samples(spec, backend, qubit)
    delta, phase = block_detuning_phase(backend.h0, layout, qubit, len(u) * SAMPLE_DT, blocks)
    a, b = block_rotations(delta, u, SAMPLE_DT)
    total = phase[:, None, None] * np.stack(
        [np.stack([a, -np.conj(b)], -1), np.stack([b, np.conj(a)], -1)], -2
    )
    return dict(zip(_BINOMIAL_JOINT_STATES, total))


def binomial_cz_targets() -> dict:
    """Target net phases: all joint Fock states equal except (2,2), offset pi."""
    return {s: (np.pi if s == (2, 2) else 0.0) for s in _BINOMIAL_JOINT_STATES}


class _ToneCalibration:
    """The binomial-CZ tone calibration as a least-squares problem.

    x holds the nine tone phases φ_i, the nine detuning corrections d_i
    (rad/ns) and the nine log-scales s_i of the tone amplitudes, in
    _BINOMIAL_JOINT_STATES order; tone i drives at the dispersive shift of
    its joint state plus d_i, with amplitude ε e^{s_i}.  The residual is
    Re and Im of ⟨g|U|g⟩ − e^{iγ} for every joint state, then a weak
    regularization of d and s.  The qubit and the two cavities are those of
    the backend's layout.

    Levenberg–Marquardt takes the Jacobian where it has just taken the residual, so
    both read one `evolution.BlockScan`, kept for a copy of the last x (not its buffer).
    """

    def __init__(self, backend: PulseBackend):
        qubit, cavities, blocks = _binomial_layout(backend.layout)
        if any((c, qubit) not in backend.params.chi for c in cavities):
            raise ValidationError(f"the binomial CZ needs {qubit} coupled to both {cavities}")
        chi1, chi2 = (backend.params.chi[(c, qubit)] for c in cavities)
        self.backend = backend
        self.qubit = qubit
        self.center = -(2 * chi1 + 2 * chi2)
        self.shifts = np.array([-(j * chi1 + k * chi2) for j, k in _BINOMIAL_JOINT_STATES])
        n_sel = int(round(_CZ_SELECTIVE_NS / SAMPLE_DT))
        self.envelope = gaussian_flattop(n_sel)
        self.eps_tone = np.pi / (float(np.sum(self.envelope)) * SAMPLE_DT)
        # the selective samples' times on the clock of `PulseBackend._segments`
        self.times = _CZ_NONSELECTIVE_NS + (np.arange(n_sel) + 0.5) * SAMPLE_DT
        targets = binomial_cz_targets()
        self.goals = np.exp(1j * np.array([targets[jk] for jk in _BINOMIAL_JOINT_STATES]))
        # δ and e^{−icT} of the joint states over the whole gate, which ends
        # with the last selective sample
        span = self.times[-1] + 0.5 * SAMPLE_DT
        self.delta, self.phase = block_detuning_phase(backend.h0, backend.layout, qubit, span, blocks)

        # dynamical-phase seed: time spent in |e> is the nonselective pulse
        # plus roughly half the selective pulse; the tone phase enters the
        # accumulated phase with slope -1 (see the single-cavity gate
        # construction)
        e_g, e_e = qubit_blocks(backend.h0, backend.layout, qubit)[:, blocks]
        t_e = _CZ_NONSELECTIVE_NS + 0.5 * _CZ_SELECTIVE_NS
        dyn = (-e_e * t_e) - (-e_g * t_e)
        phis0 = [
            wrap_angle(np.pi + dyn[i] - targets[jk])
            for i, jk in enumerate(_BINOMIAL_JOINT_STATES)
        ]
        n = len(_BINOMIAL_JOINT_STATES)
        self.x0 = np.concatenate([phis0, np.zeros(n), np.zeros(n)])
        self._last = (None, None)  # the last point and its scan

    def spec(self, x) -> GateSpec:
        phis, dets, scales = np.split(np.asarray(x), 3)
        amps = self.eps_tone * np.exp(scales)
        tones = tuple(Tone(*tone) for tone in zip(self.shifts + dets, amps, phis))
        return GateSpec(
            "cz-binomial",
            (
                ConditionalRotation(
                    self.qubit, 0.0, np.pi, np.pi / _CZ_NONSELECTIVE_NS, (), detuning=self.center
                ),
                MultitonePulse(self.qubit, tones, _CZ_SELECTIVE_NS),
            ),
        )

    def _scan(self, x) -> BlockScan:
        if not np.array_equal(x, self._last[0]):
            self._last = (None, None)  # free the old scan before forming the new
            u = _block_drive_samples(self.spec(x), self.backend, self.qubit)
            self._last = (np.array(x), BlockScan(self.delta, u, SAMPLE_DT))
        return self._last[1]

    def residual(self, x) -> np.ndarray:
        r = self.phase * self._scan(x).pa[:, -1] - self.goals  # ⟨g|U|g⟩ = e^{−icT} a
        _, dets, scales = np.split(np.asarray(x), 3)
        # weak regularization keeps the underdetermined detuning/amplitude
        # corrections small and the problem square for Levenberg-Marquardt
        return np.concatenate([r.real, r.imag, 0.03 * dets / self.eps_tone, 0.03 * scales])

    def jacobian(self, x) -> np.ndarray:
        """Exact ∂residual/∂x, from the scan of the residual at x.

        `BlockScan.gradient` gives A = ∂a/∂u_t and B = ∂a/∂ū_t, so
        ∂a/∂p = A ∂u/∂p + B conj(∂u/∂p) through the selective samples
        u_t = env_t Σ_i ε e^{s_i} e^{i(φ_i − ω_i t)}, ω_i the tone's
        detuning: ∂u_t/∂φ_i = i u_ti, ∂u_t/∂s_i = u_ti and
        ∂u_t/∂d_i = −i t u_ti.
        """
        phis, dets, scales = np.split(np.asarray(x), 3)
        n = len(phis)
        scan = self._scan(x)
        first = len(scan.half) - len(self.times)  # the selective pulse's first sample
        amp = self.eps_tone * np.exp(scales)
        freq = self.shifts + dets
        # A·u, B·ū, A·(t u) and B·conj(t u), summed over the samples
        p, q, pt, qt = np.zeros((4, n, n), dtype=complex)
        for start in range(0, len(self.times), _CZ_CHUNK):
            t = self.times[start : start + _CZ_CHUNK, None]
            a_w, b_w = scan.gradient(slice(first + start, first + start + len(t)))
            terms = self.envelope[start : start + len(t), None] * amp * np.exp(1j * (phis - freq * t))
            p += a_w @ terms
            q += b_w @ terms.conj()
            terms *= t
            pt += a_w @ terms
            qt += b_w @ terms.conj()
        d = self.phase[:, None] * np.concatenate([1j * (p - q), -1j * (pt - qt), p + q], axis=1)
        jac = np.zeros((4 * n, 3 * n))
        jac[:n], jac[n : 2 * n] = d.real, d.imag
        jac[2 * n : 3 * n, n : 2 * n] = np.eye(n) * (0.03 / self.eps_tone)
        jac[3 * n :, 2 * n :] = np.eye(n) * 0.03
        return jac


def cz_binomial_ideal() -> GateSpec:
    """The binomial CZ of S1 and S2 with exact rotations of Q3 in place of
    the tones of `cz_binomial`: the nonselective pi pulse, then one pi
    rotation conditioned on each joint Fock state |j,k>, about the axis at
    its target phase."""
    targets = binomial_cz_targets()
    steps = [ConditionalRotation("Q3", 0.0, np.pi, np.pi / _CZ_NONSELECTIVE_NS, ())]
    for j, k in _BINOMIAL_JOINT_STATES:
        steps.append(
            ConditionalRotation(
                "Q3", targets[(j, k)], np.pi, _CZ_EPSILON_IDEAL, (("S1", j), ("S2", k))
            )
        )
    return GateSpec("cz-binomial-ideal", tuple(steps))


def cz_binomial(backend: PulseBackend):
    """CZ between two binomial qubits sharing the readout qubit, calibrated
    on `backend`.

    A fast nonselective pi pulse excites the qubit for every cavity state; a
    long nine-tone pulse then returns it with one tone per joint Fock state
    |j,k>, j,k in {0,2,4}.  The tone phases set the per-state geometric phases
    so the net phase on |2,2> differs from all others by pi, which is CZ on
    the logical basis.

    The qubit, the two cavities and the static Hamiltonian are those of
    `backend`, which must not compensate phases: the pulse is calibrated on
    the backend that will play it.  Returns (GateSpec, residual phase errors
    dict).  The tone phases, detunings and amplitudes are fitted by
    Levenberg-Marquardt with the exact Jacobian
    (`evolution.BlockScan.gradient` and the chain rule through the tone
    parameters), which stops when a step lowers its cost by less than
    _CZ_FTOL of itself, or after _CZ_MAX_NFEV evaluations.
    """
    # imported here, not at module level: the benchmark caps the
    # calibration by replacing scipy.optimize.least_squares
    from scipy.optimize import least_squares

    problem = _ToneCalibration(backend)
    sol = least_squares(
        problem.residual,
        problem.x0,
        jac=problem.jacobian,
        method="lm",
        xtol=1e-14,
        ftol=_CZ_FTOL,
        max_nfev=_CZ_MAX_NFEV,
    )
    if np.max(np.abs(sol.fun)) > _CZ_RESIDUAL_TOL:
        raise NumericalError(
            "tone calibration failed; residuals " + ", ".join(f"{v:.3e}" for v in sol.fun)
        )
    spec = problem.spec(sol.x)
    del problem  # its last scan would sit on top of the final blocks' temporaries
    blocks = joint_block_unitaries(spec, backend)
    targets = binomial_cz_targets()
    final_errs = {
        jk: wrap_angle(float(np.angle(blocks[jk][0, 0])) - targets[jk])
        for jk in _BINOMIAL_JOINT_STATES
    }
    return spec, final_errs


def snap_bell(sign: int) -> GateSpec:
    """Bell-state preparation in S1 and S2 from vacuum.

    Displacements straddling a 2*pi rotation of Q3 (Rabi frequency 2e-4
    rad/ns) conditional on the joint vacuum produce (|01> + sign |10>)/sqrt(2)
    in the joint Fock basis.
    """
    if sign not in (+1, -1):
        raise ValidationError("sign must be +1 or -1")
    a1 = -sign * 0.8082
    a2 = -0.8082
    a3 = sign * 0.4103
    a4 = 0.4103
    return GateSpec(
        f"snap-bell{'+' if sign > 0 else '-'}",
        (
            Displacement("S1", a1),
            Displacement("S2", a2),
            ConditionalRotation("Q3", 0.0, 2 * np.pi, 2e-4, (("S1", 0), ("S2", 0))),
            Displacement("S1", a3),
            Displacement("S2", a4),
        ),
    )


# ---------------------------------------------------------------------------
# Logical-map extraction


def realized_logical_map(
    backend, spec: GateSpec, code: np.ndarray, decode: np.ndarray, repetitions: int, collapses=None
) -> np.ndarray:
    """Pauli transfer matrices of the channels ρ ↦ Σ_n W_n† Gᵐ(code ρ code†) W_n
    of `spec` = G on `backend`, for m = 0 … `repetitions`: a
    (repetitions + 1, 4ⁿ, 4ⁿ) array, with 2ⁿ = code.shape[1].

    `code` is the (dim, 2ⁿ) encoded basis with the qubit in |g⟩ and `decode`
    a (groups, dim, 2ⁿ) stack of decoding columns W_n; `code[None]` projects
    on the code space and loses as trace what leaks out of it.  The gate is
    played `repetitions` times in all.  Closed, it pushes the code basis, and
    the Kraus operators after m gates are K_n = W_n† Gᵐ code; with
    collapses, `apply_density` pushes the stack of code ρ code† of every
    tomography input.  The groups are summed from the
    first, so one group is returned bit for bit.
    """
    adjoint = decode.conj().transpose(0, 2, 1)
    closed = collapses is None

    def process(rhos: np.ndarray) -> np.ndarray:
        state = code if closed else code @ rhos @ code.conj().T
        outputs = []
        for m in range(repetitions + 1):
            if m:
                state = backend.apply(state, spec) if closed else backend.apply_density(state, spec, collapses)
            if closed:
                kraus = (adjoint @ state)[:, None]
                outputs.append(reduce(np.add, kraus @ rhos @ kraus.conj().swapaxes(-1, -2)))
            else:
                outputs.append(reduce(np.add, adjoint[:, None] @ state @ decode[:, None]))
        return np.stack(outputs)

    return pauli_transfer(process, code.shape[1].bit_length() - 1)
