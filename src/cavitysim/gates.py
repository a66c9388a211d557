"""Geometric-phase gate constructions.

Gates are declared as sequences of primitive steps (displacements, conditional
qubit rotations, waits, multitone pulses) and realized by one of two backends:

* an ideal backend that integrates the effective conditional-drive Hamiltonian
  exactly (no dispersive dynamics, no Kerr), isolating the geometric-phase
  logic, and
* a pulse backend that drives the full static Hamiltonian with shaped tones,
  exposing selectivity and dynamical-phase errors.

The central identity: two successive conditional pi rotations about axes
separated by an angle dphi imprint the geometric phase gamma = pi + dphi
(half the enclosed solid angle) on the conditioned subspace, while a single
conditional 2*pi rotation imprints the spinor sign -1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from cavitysim.device import (
    DeviceParams,
    SystemLayout,
    cavity_static_diag,
    effective_conditional_drive,
    static_hamiltonian,
)
from cavitysim.errors import NumericalError, ValidationError
from cavitysim.evolution import (
    CollapseSet,
    PulseSequence,
    apply_block_rotations,
    block_rotations,
    evolve_pulse,
    lindblad_evolve,
    qubit_blocks,
    segment_propagator,
)
from cavitysim.fock import (
    CompositeSpace,
    DensityOp,
    Ket,
    LinearOp,
    displacement,
    expectation,
    fock_ket,
    number_op,
)

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
        if self.epsilon <= 0 or self.theta <= 0:
            raise ValidationError("rotation angle and Rabi frequency must be positive")
        object.__setattr__(self, "condition", tuple(tuple(c) for c in self.condition))

    @property
    def duration(self) -> float:
        return self.theta / self.epsilon


@dataclass(frozen=True)
class Wait:
    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValidationError("wait duration must be positive")


@dataclass(frozen=True)
class Tone:
    detuning: float
    epsilon: float
    phi: float


@dataclass(frozen=True)
class MultitonePulse:
    """Sum of detuned qubit tones under a shared Gaussian-flattop envelope."""

    qubit: str
    tones: tuple
    duration: float
    rise_sigma: float = 4.0  # in samples

    def __post_init__(self):
        if self.duration <= 0:
            raise ValidationError("pulse duration must be positive")
        object.__setattr__(self, "tones", tuple(self.tones))


@dataclass(frozen=True)
class GateSpec:
    """Named, serializable sequence of primitive gate steps."""

    name: str
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for s in self.steps:
            if not isinstance(s, (Displacement, ConditionalRotation, Wait, MultitonePulse)):
                raise ValidationError(f"unknown gate step {type(s).__name__}")

    @property
    def duration(self) -> float:
        """Total timed duration (displacements count as instantaneous)."""
        total = 0.0
        for s in self.steps:
            if isinstance(s, (ConditionalRotation, Wait, MultitonePulse)):
                total += s.duration
        return total

    def to_json_dict(self) -> dict:
        out = []
        for s in self.steps:
            if isinstance(s, Displacement):
                out.append(
                    {
                        "type": "displacement",
                        "label": s.label,
                        "alpha_re": float(np.real(s.alpha)),
                        "alpha_im": float(np.imag(s.alpha)),
                    }
                )
            elif isinstance(s, ConditionalRotation):
                out.append(
                    {
                        "type": "conditional_rotation",
                        "qubit": s.qubit,
                        "phi_axis": s.phi_axis,
                        "theta": s.theta,
                        "epsilon": s.epsilon,
                        "condition": [list(c) for c in s.condition],
                        "detuning": s.detuning,
                    }
                )
            elif isinstance(s, Wait):
                out.append({"type": "wait", "duration": s.duration})
            else:
                out.append(
                    {
                        "type": "multitone_pulse",
                        "qubit": s.qubit,
                        "duration": s.duration,
                        "rise_sigma": s.rise_sigma,
                        "tones": [
                            {"detuning": t.detuning, "epsilon": t.epsilon, "phi": t.phi}
                            for t in s.tones
                        ],
                    }
                )
        return {"name": self.name, "steps": out}

    @staticmethod
    def from_json_dict(d: dict) -> "GateSpec":
        steps = []
        for s in d["steps"]:
            kind = s["type"]
            if kind == "displacement":
                steps.append(Displacement(s["label"], s["alpha_re"] + 1j * s["alpha_im"]))
            elif kind == "conditional_rotation":
                steps.append(
                    ConditionalRotation(
                        s["qubit"],
                        s["phi_axis"],
                        s["theta"],
                        s["epsilon"],
                        tuple(tuple(c) for c in s["condition"]),
                        s.get("detuning"),
                    )
                )
            elif kind == "wait":
                steps.append(Wait(s["duration"]))
            elif kind == "multitone_pulse":
                steps.append(
                    MultitonePulse(
                        s["qubit"],
                        tuple(Tone(t["detuning"], t["epsilon"], t["phi"]) for t in s["tones"]),
                        s["duration"],
                        s.get("rise_sigma", 4.0),
                    )
                )
            else:
                raise ValidationError(f"unknown step type {kind!r}")
        return GateSpec(d["name"], tuple(steps))


@dataclass(frozen=True)
class GatePhaseReport:
    """Geometric phase accounting for a two-pi-rotation gate."""

    gamma: float
    delta_phi: float
    phase_table: dict = field(default_factory=dict)

    @property
    def solid_angle(self) -> float:
        return 2.0 * self.gamma

    def consistent(self, tol: float = 1e-9) -> bool:
        return abs(wrap_angle(self.gamma - np.pi - self.delta_phi)) < tol


# ---------------------------------------------------------------------------
# Conditional rotations


def condition_projector(layout: SystemLayout, condition) -> LinearOp:
    """Diagonal projector onto the listed (cavity label, Fock level) levels."""
    proj = LinearOp.identity(layout.space)
    for label, n in condition:
        if layout.is_qubit(label):
            raise ValidationError("conditions may only reference cavity modes")
        proj = proj @ layout.lift(fock_ket(layout.mode(label), int(n)).projector(), label)
    return proj


def conditional_rotation(
    layout: SystemLayout,
    qubit: str,
    phi_axis: float,
    theta: float,
    condition,
    epsilon: float,
    selectivity_gap: float | None = None,
):
    """Gate step plus its ideal realization on the layout space.

    selectivity_gap is the smallest dispersive detuning (rad/ns) separating the
    conditioned state from any occupied off-condition state; the drive must be
    slow on that scale (warn above gap/10, hard error above gap/3).
    """
    if selectivity_gap is not None and condition:
        if epsilon > selectivity_gap / 3.0:
            raise ValidationError(
                f"epsilon = {epsilon:.3e} rad/ns is not selective: exceeds a third "
                f"of the discriminating gap {selectivity_gap:.3e} rad/ns"
            )
        if epsilon > selectivity_gap / 10.0:
            warnings.warn(
                f"epsilon = {epsilon:.3e} rad/ns above a tenth of the "
                f"discriminating gap {selectivity_gap:.3e} rad/ns; selectivity "
                "errors may dominate",
                stacklevel=2,
            )
    step = ConditionalRotation(qubit, phi_axis, theta, epsilon, tuple(condition))
    proj = condition_projector(layout, step.condition)
    h = effective_conditional_drive(layout, qubit, epsilon, phi_axis, proj)
    return step, segment_propagator(h, step.duration)


# ---------------------------------------------------------------------------
# Backends


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

    def _condition_mask(self, step: ConditionalRotation) -> np.ndarray:
        """Boolean mask over the g/e blocks of step.qubit meeting the condition."""
        layout = self.layout
        dims = layout.space.dims
        mask = np.ones(dims, dtype=bool)
        for label, n in step.condition:
            if layout.is_qubit(label):
                raise ValidationError("conditions may only reference cavity modes")
            axis = layout.index[label]
            if not 0 <= int(n) < dims[axis]:
                raise ValidationError(
                    f"Fock level {n} outside truncation 0..{dims[axis] - 1}"
                )
            shape = [1] * len(dims)
            shape[axis] = dims[axis]
            mask &= (np.arange(dims[axis]) == int(n)).reshape(shape)
        return qubit_blocks(mask.reshape(-1), layout, step.qubit)[0]

    def _propagate(self, x: np.ndarray, spec: GateSpec) -> np.ndarray:
        """Apply the gate to a state vector or to the columns of a matrix."""
        layout = self.layout
        for step in spec.steps:
            if isinstance(step, Displacement):
                d = layout.lift(displacement(step.alpha, layout.mode(step.label)), step.label)
                x = d.matrix @ x
            elif isinstance(step, ConditionalRotation):
                mask = self._condition_mask(step)
                half = 0.5 * step.theta
                a = np.where(mask, np.cos(half), 1.0)
                b = np.where(mask, -1j * np.sin(half) * np.exp(1j * step.phi_axis), 0.0)
                x = apply_block_rotations(x, layout, step.qubit, a, b)
            elif not isinstance(step, Wait):
                raise ValidationError(
                    "multitone pulses have no ideal realization; use the explicit "
                    "conditional-rotation variant of the gate"
                )
        return x

    def unitary(self, spec: GateSpec) -> LinearOp:
        eye = np.eye(self.layout.space.dim, dtype=complex)
        return LinearOp(self.layout.space, self._propagate(eye, spec))

    def apply(self, psi: Ket, spec: GateSpec) -> Ket:
        if psi.space != self.layout.space:
            raise ValidationError("state and layout spaces must agree")
        return Ket(psi.space, self._propagate(psi.amplitudes, spec))


def gaussian_flattop(n_steps: int, rise_sigma: float = 4.0) -> np.ndarray:
    """Unit-height flattop envelope with Gaussian rise/fall of the given sigma
    (in samples); the ramps span 4 sigma on each side."""
    t = np.arange(n_steps) + 0.5
    ramp = 4.0 * rise_sigma
    env = np.ones(n_steps)
    if 2 * ramp >= n_steps:
        raise ValidationError("pulse too short for the envelope ramps")
    rise = t < ramp
    env[rise] = np.exp(-0.5 * ((t[rise] - ramp) / rise_sigma) ** 2)
    fall = t > n_steps - ramp
    env[fall] = np.exp(-0.5 * ((t[fall] - (n_steps - ramp)) / rise_sigma) ** 2)
    return env


def _drive_samples(step, params: DeviceParams, dt: float, t0: float) -> np.ndarray:
    """Qubit-drive samples of a conditional rotation or multitone pulse that
    starts at time t0, on a global clock so detuned tones stay phase-coherent."""
    if isinstance(step, ConditionalRotation):
        # snap the duration to the sample grid, preserving the exact rotation
        # angle by adjusting the amplitude within one part in n
        n = max(1, int(round(step.duration / dt)))
        eps = step.theta / (n * dt)
        delta = step.detuning
        if delta is None:
            delta = -sum(
                n_ph * params.chi.get((label, step.qubit), 0.0)
                for label, n_ph in step.condition
            )
        t = t0 + (np.arange(n) + 0.5) * dt
        return eps * np.exp(1j * (step.phi_axis - delta * t))
    n = int(round(step.duration / dt))
    env = gaussian_flattop(n, step.rise_sigma)
    t = t0 + (np.arange(n) + 0.5) * dt
    amps = np.zeros(n, dtype=complex)
    for tone in step.tones:
        amps += tone.epsilon * np.exp(1j * (tone.phi - tone.detuning * t))
    return env * amps


class PulseBackend:
    """Realize gate steps against the full static Hamiltonian.

    Conditional rotations become finite-strength qubit tones at the dispersive
    shift of the conditioned state; displacements are applied as exact
    unitaries (ideal fast cavity drives); waits evolve under the static
    Hamiltonian.  A global clock keeps detuned tones phase-coherent across
    steps.
    """

    def __init__(
        self,
        params: DeviceParams,
        layout: SystemLayout,
        dt: float = 1.0,
        compensate_static_cavity_phases: bool = False,
    ):
        self.params = params
        self.layout = layout
        self.dt = dt
        self.h0 = static_hamiltonian(params, layout)
        self.compensate = compensate_static_cavity_phases
        self._cavity_diag = cavity_static_diag(params, layout)

    def _compensation_op(self, span: float) -> LinearOp:
        return LinearOp(
            self.layout.space, np.diag(np.exp(1j * self._cavity_diag * span))
        )

    def _segments(self, spec: GateSpec, t0: float):
        """Yield ('u', LinearOp) or ('p', qubit, PulseSequence) items in order."""
        t = t0
        for step in spec.steps:
            if isinstance(step, Displacement):
                yield "u", self.layout.lift(
                    displacement(step.alpha, self.layout.mode(step.label)), step.label
                )
            elif isinstance(step, Wait):
                yield "u", segment_propagator(self.h0, step.duration)
                if self.compensate:
                    yield "u", self._compensation_op(step.duration)
                t += step.duration
            else:
                amps = _drive_samples(step, self.params, self.dt, t)
                yield "p", step.qubit, PulseSequence(
                    dt=self.dt, channels={(step.qubit, "qubit"): amps}
                )
                # the cavity-only diagonal commutes with both the dispersive
                # term and the qubit drive, so undoing it right after the
                # segment (in the same displacement frame) is exact
                if self.compensate:
                    yield "u", self._compensation_op(len(amps) * self.dt)
                t += len(amps) * self.dt

    def apply(self, psi: Ket, spec: GateSpec, t0: float = 0.0) -> Ket:
        for item in self._segments(spec, t0):
            if item[0] == "u":
                psi = item[1] @ psi
            else:
                psi = evolve_pulse(psi, self.h0, item[2], self.layout)
        return psi

    def apply_density(
        self, rho: DensityOp, spec: GateSpec, collapses: CollapseSet, t0: float = 0.0
    ) -> DensityOp:
        for item in self._segments(spec, t0):
            if item[0] == "u":
                m = item[1].matrix
                rho = DensityOp(rho.space, m @ rho.matrix @ m.conj().T)
            else:
                rho = lindblad_evolve(
                    rho, (self.h0, item[2]), collapses, layout=self.layout
                )
        return rho

    def cavity_phase_compensation(self, spec: GateSpec) -> LinearOp:
        """Unitary undoing the deterministic Kerr/cross-Kerr phases over the
        gate's timed duration (applied after the gate, as decoding does)."""
        diag = cavity_static_diag(self.params, self.layout)
        return LinearOp(self.layout.space, np.diag(np.exp(1j * diag * spec.duration)))


def component_logical_unitary(spec: GateSpec, cavities, qubit: str) -> np.ndarray:
    """Ideal logical action with each cavity reduced to its two code components.

    Component 1 of each cavity is the one parked at the vacuum in the frame
    established by the gate's displacements (for shifted-cat encodings it is
    the vacuum itself), so vacuum-conditioned rotations condition on component
    index 1.  Displacements are frame relabelings and must cancel by the end of
    the sequence; the qubit must return to the ground state.  Returns the
    2^m x 2^m unitary on the cavity components, obtained by integrating the
    conditional-drive dynamics on the reduced space.
    """
    cavities = list(cavities)
    m = len(cavities)
    dim = 2 ** (m + 1)
    frame = {c: 0.0 + 0.0j for c in cavities}
    u = np.eye(dim, dtype=complex)
    sx_like = {
        "sp": np.array([[0, 0], [1, 0]], dtype=complex),
    }
    for step in spec.steps:
        if isinstance(step, Displacement):
            if step.label not in frame:
                raise ValidationError(f"unknown cavity label {step.label}")
            frame[step.label] += step.alpha
        elif isinstance(step, Wait):
            continue
        elif isinstance(step, ConditionalRotation):
            if step.qubit != qubit:
                raise ValidationError("all rotations must drive the declared qubit")
            conditioned = set()
            for label, n_ph in step.condition:
                if n_ph != 0:
                    raise ValidationError(
                        "component-level reduction only supports vacuum conditions"
                    )
                conditioned.add(label)
            parts = [0.5 * step.epsilon * np.exp(1j * step.phi_axis) * sx_like["sp"]]
            for c in cavities:
                parts.append(np.diag([0.0, 1.0]) if c in conditioned else np.eye(2))
            h_half = parts[0]
            for p in parts[1:]:
                h_half = np.kron(h_half, p)
            h = h_half + h_half.conj().T
            w, v = np.linalg.eigh(h)
            u = ((v * np.exp(-1j * w * step.duration)) @ v.conj().T) @ u
        else:
            raise ValidationError("multitone pulses have no component-level reduction")
    if any(abs(a) > 1e-12 for a in frame.values()):
        raise ValidationError("displacements do not return to the original frame")
    half = dim // 2
    if np.max(np.abs(u[half:, :half])) > 1e-9:
        raise NumericalError("qubit does not return to the ground state")
    return u[:half, :half]


def accumulated_phase_table(u: LinearOp, layout: SystemLayout, qubit: str) -> dict:
    """Phases arg<g; n|U|g; n> per joint cavity Fock state, for diagonal gates."""
    cavs = layout.cavity_labels()
    table = {}
    dims = layout.space.dims
    for idx in np.ndindex(*dims):
        if any(idx[layout.index[q]] != 0 for q in layout.qubit_labels()):
            continue
        flat = layout.space.joint_index(idx)
        amp = u.matrix[flat, flat]
        key = tuple(idx[layout.index[c]] for c in cavs)
        table[key] = float(np.angle(amp)) if abs(amp) > 1e-12 else 0.0
    return table


# ---------------------------------------------------------------------------
# Gate constructions


def single_cavity_phase_gate(
    delta_phi: float,
    enc,
    params: DeviceParams | None = None,
    cavity: str = "S1",
    qubit: str = "Q1",
    epsilon: float | None = None,
) -> GateSpec:
    """Logical diag(1, e^{i(pi + delta_phi)}) on a shifted-cat encoding.

    Two successive vacuum-conditioned pi rotations about axes 0 and delta_phi.
    """
    if enc.name != "shifted-cat":
        raise ValidationError("single-cavity phase gates require a shifted-cat encoding")
    nbar = float(np.real(expectation(enc.ket0, number_op(enc.mode))))
    if epsilon is None:
        if params is not None:
            epsilon = nbar * params.chi[(cavity, qubit)] / 20.0
        else:
            epsilon = 0.01
    if params is not None:
        gap = nbar * params.chi[(cavity, qubit)]
        if epsilon > gap / 3.0:
            raise ValidationError("drive strength not selective on the code splitting")
        if epsilon > gap / 10.0:
            warnings.warn("drive strength above a tenth of the code splitting", stacklevel=2)
    cond = ((cavity, 0),)
    # with the drive convention (eps/2) e^{i phi} |e><g| + h.c., advancing the
    # second axis by -delta_phi yields gamma = pi + delta_phi on the
    # conditioned component
    return GateSpec(
        "phase-gate",
        (
            ConditionalRotation(qubit, 0.0, np.pi, epsilon, cond),
            ConditionalRotation(qubit, -delta_phi, np.pi, epsilon, cond),
        ),
    )


def phase_gate_report(spec: GateSpec, delta_phi: float, cavity: str, qubit: str) -> GatePhaseReport:
    """Measure the acquired geometric phase of a two-rotation phase gate."""
    l = component_logical_unitary(spec, [cavity], qubit)
    gamma = wrap_angle(float(np.angle(l[1, 1]) - np.angle(l[0, 0])))
    return GatePhaseReport(
        gamma=gamma,
        delta_phi=wrap_angle(delta_phi),
        phase_table={0: float(np.angle(l[0, 0])), 1: float(np.angle(l[1, 1]))},
    )


def cz_coherent(
    alpha: complex,
    params: DeviceParams | None = None,
    cavities=("S1", "S2"),
    qubit: str = "Q3",
    epsilon: float | None = None,
) -> GateSpec:
    """CZ between two symmetric-cat qubits of amplitude alpha.

    D(alpha) on both cavities parks the |-alpha> components at the vacuum; a
    2*pi rotation conditional on the joint vacuum imprints -1 on exactly the
    |1>_L|1>_L component; the displacements are then undone.
    """
    if alpha == 0:
        raise ValidationError("cat amplitude must be nonzero")
    nbar = 4.0 * abs(alpha) ** 2  # photon number of the displaced far component
    if epsilon is None:
        if params is not None:
            chi_min = min(params.chi[(c, qubit)] for c in cavities)
            epsilon = nbar * chi_min / 20.0
        else:
            epsilon = 0.01
    cond = tuple((c, 0) for c in cavities)
    return GateSpec(
        "cz-coherent",
        (
            Displacement(cavities[0], alpha),
            Displacement(cavities[1], alpha),
            ConditionalRotation(qubit, 0.0, 2 * np.pi, epsilon, cond),
            Displacement(cavities[0], -alpha),
            Displacement(cavities[1], -alpha),
        ),
    )


def stark_phase_compensation(
    spec: GateSpec, params: DeviceParams, layout: SystemLayout, cavity: str, qubit: str
) -> LinearOp:
    """Unitary undoing the drive-induced AC-Stark phases of a selective gate.

    A resonant vacuum-conditioned drive of Rabi frequency eps dresses every
    occupied level |n >= 1>, whose qubit transition is detuned by n*chi, and
    imprints the second-order phase -eps^2 T / (4 n chi) over its duration.
    Like the Kerr phases this is deterministic, so decoding undoes it exactly
    (to second order in eps/chi).
    """
    chi = params.chi[(cavity, qubit)]
    dim = layout.mode(cavity).dim
    theta = np.zeros(dim)
    levels = np.arange(1, dim)
    for step in spec.steps:
        if isinstance(step, ConditionalRotation) and step.condition:
            theta[1:] += step.epsilon**2 * step.duration / (4.0 * levels * chi)
    return layout.lift(
        LinearOp(
            CompositeSpace.single(layout.mode(cavity)), np.diag(np.exp(1j * theta))
        ),
        cavity,
    )


def dispersive_phase_table(
    duration: float, params: DeviceParams, layout: SystemLayout
) -> dict:
    """Deterministic phase e^{-i E T} accumulated by each joint basis state.

    Keys are (qubit path, joint cavity Fock tuple) with path "g" or "e" per
    layout qubit (concatenated for several qubits); values are phases in rad.
    """
    diag = np.real(np.diag(static_hamiltonian(params, layout).matrix))
    cavs = layout.cavity_labels()
    qubits = layout.qubit_labels()
    table = {}
    for idx in np.ndindex(*layout.space.dims):
        path = "".join("e" if idx[layout.index[q]] else "g" for q in qubits)
        key = (path, tuple(idx[layout.index[c]] for c in cavs))
        table[key] = -diag[layout.space.joint_index(idx)] * duration
    return table


_BINOMIAL_JOINT_STATES = tuple((j, k) for j in (0, 2, 4) for k in (0, 2, 4))


def _gate_drive_amplitudes(spec: GateSpec, params: DeviceParams, qubit: str, dt: float) -> np.ndarray:
    """Concatenated qubit-drive samples of a displacement-free gate spec."""
    parts = []
    t = 0.0
    for step in spec.steps:
        if isinstance(step, Wait):
            parts.append(np.zeros(int(round(step.duration / dt)), dtype=complex))
            t += step.duration
        elif isinstance(step, (ConditionalRotation, MultitonePulse)):
            if step.qubit != qubit:
                raise ValidationError("all drives must address the declared qubit")
            a = _drive_samples(step, params, dt, t)
            parts.append(a)
            t += len(a) * dt
        else:
            raise ValidationError("blockwise evaluation requires a displacement-free spec")
    return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)


def joint_block_unitaries(
    spec: GateSpec,
    params: DeviceParams,
    cavities=("S1", "S2"),
    qubit: str = "Q3",
    joint_states=_BINOMIAL_JOINT_STATES,
    dt: float = 1.0,
) -> dict:
    """Exact 2x2 qubit propagator for each joint cavity Fock state.

    Qubit-only drives conserve the cavity photon numbers, so the full
    propagator is block diagonal over joint Fock states.  Each block is
    e^{−i c T} [[a, −b̄], [b, ā]], with c the mean of its g and e energies and
    (a, b) from `evolution.block_rotations` over the gate's drive samples:
    exactly the blocks of the full-space evolution, at the cost of nine.
    """
    u = _gate_drive_amplitudes(spec, params, qubit, dt)

    chi1 = params.chi.get((cavities[0], qubit), 0.0)
    chi2 = params.chi.get((cavities[1], qubit), 0.0)
    k1 = params.kerr.get(cavities[0], 0.0)
    k2 = params.kerr.get(cavities[1], 0.0)
    states = np.array(joint_states, dtype=float)
    j, k = states[:, 0], states[:, 1]
    e_g = (
        -0.5 * k1 * j * (j - 1)
        - 0.5 * k2 * k * (k - 1)
        - params.cross_kerr * j * k
    )
    e_e = e_g - (j * chi1 + k * chi2)

    a, b = block_rotations(0.5 * (e_g - e_e), u, dt)
    phase = np.exp(-0.5j * (e_g + e_e) * len(u) * dt)
    total = phase[:, None, None] * np.stack(
        [np.stack([a, -np.conj(b)], -1), np.stack([b, np.conj(a)], -1)], -2
    )
    return {tuple(map(int, s)): total[i] for i, s in enumerate(states)}


def binomial_cz_targets() -> dict:
    """Target net phases: all joint Fock states equal except (2,2), offset pi."""
    return {s: (np.pi if s == (2, 2) else 0.0) for s in _BINOMIAL_JOINT_STATES}


def cz_binomial(
    params: DeviceParams,
    mode: str = "pulse",
    layout: SystemLayout | None = None,
    cavities=("S1", "S2"),
    qubit: str = "Q3",
    nonselective_duration: float = 20.0,
    selective_duration: float = 2000.0,
    dt: float = 1.0,
    epsilon_ideal: float = 1e-3,
    calibrate: bool = True,
    max_iter: int = 30,
    residual_tol: float = 0.05,
):
    """CZ between two binomial qubits sharing the readout qubit.

    A fast nonselective pi pulse excites the qubit for every cavity state; a
    long nine-tone pulse then returns it with one tone per joint Fock state
    |j,k>, j,k in {0,2,4}.  The tone phases set the per-state geometric phases
    so the net phase on |2,2> differs from all others by pi, which is CZ on
    the logical basis.

    mode="ideal" replaces the tones by exact conditional rotations.
    mode="pulse" builds and (by default) calibrates the real multitone pulse;
    returns (GateSpec, residual phase errors dict).
    """
    chi1 = params.chi[(cavities[0], qubit)]
    chi2 = params.chi[(cavities[1], qubit)]
    targets = binomial_cz_targets()
    eps_ns = np.pi / nonselective_duration

    if mode == "ideal":
        steps = [ConditionalRotation(qubit, 0.0, np.pi, eps_ns, ())]
        for j, k in _BINOMIAL_JOINT_STATES:
            steps.append(
                ConditionalRotation(
                    qubit,
                    targets[(j, k)],
                    np.pi,
                    epsilon_ideal,
                    ((cavities[0], j), (cavities[1], k)),
                )
            )
        return GateSpec("cz-binomial-ideal", tuple(steps))
    if mode != "pulse":
        raise ValidationError(f"unknown mode {mode!r}")

    if layout is None:
        layout = SystemLayout.build([qubit], list(cavities), {c: 7 for c in cavities})
    center = -(2 * chi1 + 2 * chi2)
    n_sel = int(round(selective_duration / dt))
    area = float(np.sum(gaussian_flattop(n_sel))) * dt
    eps_tone = np.pi / area
    shifts = {(j, k): -(j * chi1 + k * chi2) for j, k in _BINOMIAL_JOINT_STATES}

    # dynamical-phase seed: time spent in |e> is the nonselective pulse plus
    # roughly half the selective pulse; the tone phase enters the accumulated
    # phase with slope -1 (see the single-cavity gate construction)
    seed_table = dispersive_phase_table(
        nonselective_duration + 0.5 * selective_duration, params, layout
    )
    phis0 = []
    for jk in _BINOMIAL_JOINT_STATES:
        dyn = seed_table[("e", jk)] - seed_table[("g", jk)]
        phis0.append(wrap_angle(np.pi + dyn - targets[jk]))

    def build(phis, dets, scales):
        tones = tuple(
            Tone(shifts[jk] + dets[i], eps_tone * scales[i], phis[i])
            for i, jk in enumerate(_BINOMIAL_JOINT_STATES)
        )
        return GateSpec(
            "cz-binomial",
            (
                ConditionalRotation(qubit, 0.0, np.pi, eps_ns, (), detuning=center),
                MultitonePulse(qubit, tones, selective_duration),
            ),
        )

    n_tones = len(_BINOMIAL_JOINT_STATES)
    goals = np.exp(1j * np.array([targets[jk] for jk in _BINOMIAL_JOINT_STATES]))

    def residual_vector(x):
        spec = build(x[:n_tones], x[n_tones : 2 * n_tones], np.exp(x[2 * n_tones :]))
        blocks = joint_block_unitaries(spec, params, cavities, qubit, dt=dt)
        a = np.array([blocks[jk][0, 0] for jk in _BINOMIAL_JOINT_STATES])
        r = a - goals
        # weak regularization keeps the underdetermined detuning/amplitude
        # corrections small and the problem square for Levenberg-Marquardt
        reg_det = 0.03 * x[n_tones : 2 * n_tones] / eps_tone
        reg_scale = 0.03 * x[2 * n_tones :]
        return np.concatenate([np.real(r), np.imag(r), reg_det, reg_scale])

    x = np.concatenate([phis0, np.zeros(n_tones), np.zeros(n_tones)])
    if calibrate:
        from scipy.optimize import least_squares

        sol = least_squares(
            residual_vector,
            x,
            method="lm",
            xtol=1e-14,
            ftol=1e-14,
            max_nfev=200 * max_iter,
            diff_step=1e-6,
        )
        x = sol.x
        if np.max(np.abs(sol.fun)) > residual_tol:
            raise NumericalError(
                "tone calibration failed; residuals "
                + ", ".join(f"{v:.3e}" for v in sol.fun)
            )
    spec = build(x[:n_tones], x[n_tones : 2 * n_tones], np.exp(x[2 * n_tones :]))
    blocks = joint_block_unitaries(spec, params, cavities, qubit, dt=dt)
    final_errs = {
        jk: wrap_angle(float(np.angle(blocks[jk][0, 0])) - targets[jk])
        for jk in _BINOMIAL_JOINT_STATES
    }
    return spec, final_errs


def simulate_joint_state_phases(
    spec: GateSpec, params: DeviceParams, layout: SystemLayout, cavities, qubit: str
) -> dict:
    """Phase and return amplitude per joint Fock state under the pulse backend.

    Returns {(j, k): (phase of <g;j,k|U|g;j,k>, |amplitude|)}.  Cavity photon
    numbers are conserved by qubit-only drives, so these blocks are exact.
    """
    backend = PulseBackend(params, layout)
    out = {}
    for j, k in _BINOMIAL_JOINT_STATES:
        idx = [0] * layout.space.n_factors
        idx[layout.index[cavities[0]]] = j
        idx[layout.index[cavities[1]]] = k
        flat = layout.space.joint_index(tuple(idx))
        v = np.zeros(layout.space.dim, dtype=complex)
        v[flat] = 1.0
        res = backend.apply(Ket(layout.space, v), spec)
        amp = res.amplitudes[flat]
        out[(j, k)] = (float(np.angle(amp)), float(abs(amp)))
    return out


def snap_bell(
    sign: int,
    params: DeviceParams | None = None,
    cavities=("S1", "S2"),
    qubit: str = "Q3",
    epsilon: float = 2e-4,
) -> GateSpec:
    """Two-cavity Bell-state preparation from vacuum.

    Displacements straddling a joint-vacuum-conditional 2*pi rotation produce
    (|01> + sign |10>)/sqrt(2) in the joint Fock basis.
    """
    if sign not in (+1, -1):
        raise ValidationError("sign must be +1 or -1")
    a1 = -sign * 0.8082
    a2 = -0.8082
    a3 = sign * 0.4103
    a4 = 0.4103
    cond = tuple((c, 0) for c in cavities)
    return GateSpec(
        f"snap-bell{'+' if sign > 0 else '-'}",
        (
            Displacement(cavities[0], a1),
            Displacement(cavities[1], a2),
            ConditionalRotation(qubit, 0.0, 2 * np.pi, epsilon, cond),
            Displacement(cavities[0], a3),
            Displacement(cavities[1], a4),
        ),
    )


# ---------------------------------------------------------------------------
# Logical-map extraction


def realized_logical_map(apply_fn, layout: SystemLayout, qubit: str, logical_kets) -> np.ndarray:
    """K_ab = <g; L_a| U |g; L_b> for a realized gate.

    apply_fn maps a full-space Ket to a full-space Ket; logical_kets are
    cavity-subspace kets (in layout cavity order) defining the logical basis.
    The result is a single-Kraus description of the gate on the code space
    (trace loss = leakage out of it).
    """
    if layout.index[qubit] != 0 or len(layout.qubit_labels()) != 1:
        raise ValidationError("expected a single qubit as the first factor")
    g = np.array([1.0, 0.0], dtype=complex)
    ins = [np.kron(g, lk.amplitudes) for lk in logical_kets]
    cols = []
    for v in ins:
        out = apply_fn(Ket(layout.space, v))
        cols.append([np.vdot(w, out.amplitudes) for w in ins])
    return np.array(cols, dtype=complex).T
