"""Device parameter model and Hamiltonian assembly.

Everything is expressed in the rotating frame of each mode's bare frequency,
so only dispersive shifts and Kerr nonlinearities survive in the static
Hamiltonian.  Units: angular frequencies in rad/ns, times in ns.  Config files
carry lab units (GHz, chi/2pi in MHz, us) and are converted on load.

Readout resonators are never quantum factors here; their effect enters only
through the classical assignment-matrix model in the readout module.
"""

from __future__ import annotations

import configparser
import importlib.resources
import math
from dataclasses import dataclass, field

import numpy as np

from cavitysim.errors import ValidationError
from cavitysim.fock import (
    CompositeSpace,
    LinearOp,
    ModeSpec,
    annihilation,
    embed,
    excited_projector,
    number_op,
    sigma_plus,
)

MHZ = 2.0 * math.pi * 1e-3  # chi/2pi in MHz -> rad/ns
US = 1e3  # us -> ns

QUBIT_LABELS = ("Q1", "Q2", "Q3")
CAVITY_LABELS = ("S1", "S2")


@dataclass(frozen=True)
class DeviceParams:
    """Measured device parameters: frequencies, couplings, coherence times.

    chi maps coupled (cavity, qubit) pairs to dispersive shifts in rad/ns;
    kerr maps cavity labels to self-Kerr K in rad/ns; T1/T2 are in ns.
    """

    freq_GHz: dict
    chi: dict  # (cavity, qubit) -> rad/ns
    kerr: dict  # cavity -> rad/ns
    cross_kerr: float  # S1-S2, rad/ns
    chi_readout: dict  # qubit -> rad/ns (unused by the Hamiltonian)
    T1: dict  # label -> ns
    T2: dict  # label -> ns (Ramsey or echo depending on load option)
    T2_ramsey: dict = field(default_factory=dict)
    T2_echo: dict = field(default_factory=dict)

    def __post_init__(self):
        for chi in self.chi.values():
            if chi < 0:
                raise ValidationError("dispersive shifts must be entered >= 0")
        for k in self.kerr.values():
            if k < 0:
                raise ValidationError("Kerr coefficients must be entered >= 0")
        if self.cross_kerr < 0:
            raise ValidationError("cross-Kerr must be entered >= 0")
        for name, times in (("T1", self.T1), ("T2", self.T2)):
            for label, t in times.items():
                if not t > 0:  # also rejects NaN; inf means no decay
                    raise ValidationError(f"{label}: {name} must be positive, got {t} ns")
        for label, t2 in self.T2.items():
            t1 = self.T1.get(label)
            if t1 is not None and t2 > 2.0 * t1 + 1e-9:
                raise ValidationError(
                    f"{label}: T2 = {t2} ns exceeds 2*T1 = {2 * t1} ns"
                )


def load_params(config_text: str | None = None, use_echo: bool = False) -> DeviceParams:
    """Parse a device config.  With no argument, loads the bundled default.

    use_echo selects T2^Echo (where available) instead of T2* for the
    dephasing-relevant T2.
    """
    if config_text is None:
        config_text = default_config_text()
    cp = configparser.ConfigParser()
    cp.read_string(config_text)
    try:
        freq = {k.upper(): float(v) for k, v in cp["frequencies_GHz"].items()}
        chi_raw = {k.upper(): float(v) for k, v in cp["chi_MHz"].items()}
        kerr = {k.upper(): float(v) * MHZ for k, v in cp["kerr_MHz"].items()}
        t1 = {k.upper(): float(v) * US for k, v in cp["T1_us"].items()}
        t2r = {k.upper(): float(v) * US for k, v in cp["T2_us"].items()}
    except KeyError as exc:
        raise ValidationError(f"config is missing section {exc}") from exc
    t2e = {}
    if cp.has_section("T2echo_us"):
        t2e = {k.upper(): float(v) * US for k, v in cp["T2echo_us"].items()}

    chi = {}
    chi_readout = {}
    cross_kerr = 0.0
    for key, val in chi_raw.items():
        a, _, b = key.partition("_")
        if a.startswith("S") and b.startswith("Q"):
            chi[(a, b)] = val * MHZ
        elif a.startswith("R") and b.startswith("Q"):
            chi_readout[b] = val * MHZ
        elif a.startswith("S") and b.startswith("S"):
            cross_kerr = val * MHZ
        else:
            raise ValidationError(f"unrecognized chi entry {key}")

    required = {("S1", "Q1"), ("S1", "Q3"), ("S2", "Q2"), ("S2", "Q3")}
    if not required.issubset(chi):
        raise ValidationError(f"config missing chi entries: {required - set(chi)}")

    t2 = dict(t2r)
    if use_echo:
        t2.update(t2e)
    return DeviceParams(
        freq_GHz=freq,
        chi=chi,
        kerr=kerr,
        cross_kerr=cross_kerr,
        chi_readout=chi_readout,
        T1=t1,
        T2=t2,
        T2_ramsey=t2r,
        T2_echo=t2e,
    )


def default_config_text() -> str:
    return (
        importlib.resources.files("cavitysim.data")
        .joinpath("device_b.cfg")
        .read_text()
    )


@dataclass(frozen=True)
class SystemLayout:
    """Composite space plus a map from physical labels to factor indices.

    Convention: qubits first, then cavities, each group in declaration order.
    """

    space: CompositeSpace
    index: dict  # label -> factor index

    def __post_init__(self):
        counts = {}
        for label, idx in self.index.items():
            counts[idx] = counts.get(idx, 0) + 1
        if any(c != 1 for c in counts.values()) or set(counts) != set(
            range(self.space.n_factors)
        ):
            raise ValidationError("labels must map one-to-one onto factors")
        for label in self.index:
            if label.startswith("R"):
                raise ValidationError("readout resonators are not quantum factors")

    @staticmethod
    def build(qubits, cavities, cavity_dims) -> "SystemLayout":
        """Layout with the given qubit labels and (cavity label -> dim) sizes."""
        qubits = list(qubits)
        cavities = list(cavities)
        factors = [ModeSpec.qubit() for _ in qubits]
        factors += [ModeSpec.bosonic(cavity_dims[c]) for c in cavities]
        index = {lab: i for i, lab in enumerate(qubits + cavities)}
        return SystemLayout(CompositeSpace(tuple(factors)), index)

    def mode(self, label: str) -> ModeSpec:
        return self.space.factors[self.index[label]]

    def is_qubit(self, label: str) -> bool:
        return self.mode(label).kind == "qubit"

    def qubit_labels(self):
        return [l for l in self.index if self.is_qubit(l)]

    def cavity_labels(self):
        return [l for l in self.index if not self.is_qubit(l)]

    def lift(self, op: LinearOp, label: str) -> LinearOp:
        return embed(op, self.index[label], self.space)


# The dispersive pairs of device B: which qubit talks to which cavity.
COUPLED_PAIRS = (("S1", "Q1"), ("S1", "Q3"), ("S2", "Q2"), ("S2", "Q3"))


def static_hamiltonian(params: DeviceParams, layout: SystemLayout) -> LinearOp:
    """Rotating-frame static Hamiltonian: dispersive + Kerr terms only.

    H = − Σ χ_{si,qj} |e_j⟩⟨e_j| n_i − Σ (K_i/2) a†a†aa − χ_12 n_1 n_2,
    restricted to the labels present in the layout.  Diagonal by construction.
    """
    dim = layout.space.dim
    labels = set(layout.index)
    diag = np.zeros(dim)

    def lifted_diag(op, label):
        return np.real(np.diag(layout.lift(op, label).matrix))

    for (cav, qub), chi in params.chi.items():
        if cav in labels and qub in labels:
            pe = lifted_diag(excited_projector(), qub)
            n = lifted_diag(number_op(layout.mode(cav)), cav)
            diag -= chi * pe * n
    for cav, K in params.kerr.items():
        if cav in labels:
            n = lifted_diag(number_op(layout.mode(cav)), cav)
            diag -= 0.5 * K * n * (n - 1.0)
    cavs = [c for c in CAVITY_LABELS if c in labels]
    if len(cavs) == 2:
        n1 = lifted_diag(number_op(layout.mode(cavs[0])), cavs[0])
        n2 = lifted_diag(number_op(layout.mode(cavs[1])), cavs[1])
        diag -= params.cross_kerr * n1 * n2
    return LinearOp(layout.space, np.diag(diag).astype(complex))


def cavity_static_diag(params: DeviceParams, layout: SystemLayout) -> np.ndarray:
    """Diagonal of the cavity-only (Kerr + cross-Kerr) part of the Hamiltonian.

    These phases are deterministic and qubit-independent; the decoding step
    compensates them exactly.
    """
    dim = layout.space.dim
    labels = set(layout.index)
    diag = np.zeros(dim)
    for cav, K in params.kerr.items():
        if cav in labels:
            n = np.real(np.diag(layout.lift(number_op(layout.mode(cav)), cav).matrix))
            diag -= 0.5 * K * n * (n - 1.0)
    cavs = [c for c in CAVITY_LABELS if c in labels]
    if len(cavs) == 2:
        n1 = np.real(np.diag(layout.lift(number_op(layout.mode(cavs[0])), cavs[0]).matrix))
        n2 = np.real(np.diag(layout.lift(number_op(layout.mode(cavs[1])), cavs[1]).matrix))
        diag -= params.cross_kerr * n1 * n2
    return diag


def qubit_drive(layout: SystemLayout, label: str, amplitudes, detuning: float = 0.0,
                dt: float = 1.0):
    """Qubit drive channel for a pulse sequence.

    The amplitude is the instantaneous Rabi frequency (rad/ns): a segment with
    complex amplitude u contributes (u/2) σ⁺ + (u*/2) σ⁻, so a constant real ε
    applied for π/ε performs a π rotation.  A nonzero detuning Δ (rad/ns from
    the frame's qubit frequency) modulates the envelope by e^{−iΔt}.
    """
    if not layout.is_qubit(label):
        raise ValidationError(f"{label} is not a qubit")
    amps = np.asarray(amplitudes, dtype=complex)
    if detuning != 0.0:
        t = (np.arange(len(amps)) + 0.5) * dt
        amps = amps * np.exp(-1j * detuning * t)
    return (label, "qubit"), amps


def cavity_drive(layout: SystemLayout, label: str, amplitudes):
    """Cavity drive channel: a segment with amplitude u contributes u a† + u* a.

    Phase convention (pinned by test): constant ε applied for time t realizes
    the displacement D(−iεt).
    """
    if layout.is_qubit(label):
        raise ValidationError(f"{label} is not a cavity")
    return (label, "cavity"), np.asarray(amplitudes, dtype=complex)


def drive_operator(layout: SystemLayout, channel) -> LinearOp:
    """Raising-type operator O for a channel; a segment amplitude u contributes
    u·O + u*·O†."""
    label, kind = channel
    if kind == "qubit":
        return 0.5 * layout.lift(sigma_plus(), label)
    if kind == "cavity":
        return layout.lift(annihilation(layout.mode(label)).dag(), label)
    raise ValidationError(f"unknown drive kind {kind!r}")


def effective_conditional_drive(
    layout: SystemLayout,
    qubit: str,
    epsilon: float,
    phi: float,
    condition: LinearOp,
) -> LinearOp:
    """Effective conditional drive (ε/2) e^{iφ} |e⟩⟨g| ⊗ P_cond + h.c.

    The condition projector must be diagonal in the joint Fock basis of the
    non-qubit factors (lifted to the full space, acting as identity on qubits).
    """
    off = condition.matrix - np.diag(np.diag(condition.matrix))
    if np.max(np.abs(off)) > 1e-12:
        raise ValidationError("condition projector must be diagonal in the Fock basis")
    sp = layout.lift(sigma_plus(), qubit)
    term = (0.5 * epsilon * np.exp(1j * phi)) * (sp @ condition)
    return LinearOp(layout.space, term.matrix + term.matrix.conj().T)
