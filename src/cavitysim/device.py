"""Device parameter model and Hamiltonian assembly.

Everything is expressed in the rotating frame of each mode's bare frequency,
so only dispersive shifts and Kerr nonlinearities survive in the static
Hamiltonian.  Units: angular frequencies in rad/ns, times in ns.  Config files
carry lab units (chi/2pi in MHz, us) and are converted on load.

Readout resonators are never quantum factors here; their effect enters only
through the classical assignment-matrix model in the readout module.
"""

from __future__ import annotations

import configparser
import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from cavitysim.errors import ValidationError
from cavitysim.fock import QUBIT, CompositeSpace, ModeSpec, apply_on_factor

MHZ = 2.0 * math.pi * 1e-3  # chi/2pi in MHz -> rad/ns
US = 1e3  # us -> ns

CAVITY_LABELS = ("S1", "S2")
# The dispersive pairs of device B: which qubit talks to which cavity.
COUPLED_PAIRS = (("S1", "Q1"), ("S1", "Q3"), ("S2", "Q2"), ("S2", "Q3"))


@dataclass(frozen=True)
class DeviceParams:
    """Measured device parameters: couplings, nonlinearities, coherence times.

    chi maps coupled (cavity, qubit) pairs to dispersive shifts in rad/ns;
    kerr maps cavity labels to self-Kerr K in rad/ns; T1/T2 are in ns.  The
    model works in the rotating frame and reads out through an assignment
    matrix, so neither bare frequencies nor readout shifts are parameters.
    """

    chi: dict  # (cavity, qubit) -> rad/ns
    kerr: dict  # cavity -> rad/ns
    cross_kerr: float  # S1-S2, rad/ns
    T1: dict  # label -> ns
    T2: dict  # label -> ns, Ramsey T2*

    def __post_init__(self):
        couplings = [(f"{c}_{q} dispersive shift", v) for (c, q), v in self.chi.items()]
        couplings += [(f"{c} Kerr coefficient", v) for c, v in self.kerr.items()]
        couplings.append(("S1_S2 cross-Kerr", self.cross_kerr))
        for name, value in couplings:
            if not (np.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be finite and >= 0, got {value} rad/ns")
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


def load_params(config_text: str | None = None) -> DeviceParams:
    """Parse a device config.  With no argument, loads the bundled default.

    T2 is the Ramsey T2* of the [T2_us] table.  The [frequencies_GHz] and
    [T2echo_us] tables and the readout entries R*_Q* of [chi_MHz] are not
    read.
    """
    if config_text is None:
        config_text = default_config_text()
    cp = configparser.ConfigParser()
    units = {"chi_MHz": 1.0, "kerr_MHz": MHZ, "T1_us": US, "T2_us": US}
    try:
        cp.read_string(config_text)
        chi_raw, kerr, t1, t2 = (
            {k.upper(): _number(section, k.upper(), v) * unit for k, v in cp[section].items()}
            for section, unit in units.items()
        )
    except configparser.Error as exc:
        raise ValidationError(f"config cannot be parsed: {exc}") from None
    except KeyError as exc:
        raise ValidationError(f"config is missing section {exc}") from exc

    chi = {}
    cross_kerr = 0.0
    for key, val in chi_raw.items():
        a, _, b = key.partition("_")
        if a.startswith("S") and b.startswith("Q"):
            chi[(a, b)] = val * MHZ
        elif a.startswith("R") and b.startswith("Q"):
            continue
        elif a.startswith("S") and b.startswith("S"):
            cross_kerr = val * MHZ
        else:
            raise ValidationError(f"unrecognized chi entry {key}")

    required = set(COUPLED_PAIRS)
    if not required.issubset(chi):
        raise ValidationError(f"config missing chi entries: {required - set(chi)}")

    return DeviceParams(
        chi=chi,
        kerr=kerr,
        cross_kerr=cross_kerr,
        T1=t1,
        T2=t2,
    )


def _number(section: str, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"config entry [{section}] {key} = {text!r} is not a number") from None


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
        return self.mode(label).kind == QUBIT

    def qubit_labels(self):
        return [l for l in self.index if self.is_qubit(l)]

    def cavity_labels(self):
        return [l for l in self.index if not self.is_qubit(l)]

    def lift(self, m: np.ndarray, label: str) -> np.ndarray:
        """The single-factor matrix m of `label` as a dense matrix on the space."""
        return apply_on_factor(m, self.index[label], self.space, np.eye(self.space.dim, dtype=complex))


def levels(layout: SystemLayout) -> dict:
    """Level number n of each label on the joint basis, as a (dim,) vector:
    for a qubit the |e⟩ population, for a cavity the photon number.  The
    static energies, the conditions and phases of the gates, the GRAPE
    controls, and the Lindblad generator's dissipative part and its
    coherence-order sectors (`evolution`) are functions of these vectors."""
    n = np.indices(layout.space.dims).reshape(layout.space.n_factors, -1)
    return {label: n[i] for label, i in layout.index.items()}


def _minus_cavity_terms(diag: np.ndarray, params: DeviceParams, n: dict) -> np.ndarray:
    """diag − Σ (K_i/2) n_i(n_i − 1) − χ_12 n_1 n_2, all (dim,) vectors."""
    for cav, K in params.kerr.items():
        if cav in n:
            diag -= 0.5 * K * n[cav] * (n[cav] - 1.0)
    cavs = [c for c in CAVITY_LABELS if c in n]
    if len(cavs) == 2:
        diag -= params.cross_kerr * n[cavs[0]] * n[cavs[1]]
    return diag


def static_hamiltonian(params: DeviceParams, layout: SystemLayout) -> np.ndarray:
    """Rotating-frame static Hamiltonian as its real (dim,) energy vector.

    H = − Σ χ_{si,qj} |e_j⟩⟨e_j| n_i − Σ (K_i/2) a†a†aa − χ_12 n_1 n_2,
    restricted to the labels present in the layout.  Every term is diagonal
    in the joint Fock basis, so H is held as its diagonal, a function of the
    level numbers.
    """
    n = levels(layout)
    diag = np.zeros(layout.space.dim)
    for (cav, qub), chi in params.chi.items():
        if cav in n and qub in n:
            diag -= chi * n[qub] * n[cav]
    return _minus_cavity_terms(diag, params, n)


def cavity_static_diag(params: DeviceParams, layout: SystemLayout) -> np.ndarray:
    """The cavity-only (Kerr + cross-Kerr) part of `static_hamiltonian`.

    These phases are deterministic and qubit-independent; the decoding step
    compensates them exactly.
    """
    return _minus_cavity_terms(np.zeros(layout.space.dim), params, levels(layout))

