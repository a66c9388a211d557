"""End-to-end experiment recipes: parity sweeps, gate tomography, repetition
decay, Bell generation, and error budgets.

Every recipe returns an ExperimentResult with CSV-ready tables, summary
scalars annotated with the tolerance reported as their bound, and enough
provenance (config hash, mode) to re-run deterministically; no recipe
draws random numbers, so none takes a seed.  Measured literature fidelities
are attached as reference-only scalars and never asserted.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from cavitysim.codes import (
    Encoding,
    binomial_encoding,
    cat_encoding,
    ideal_encoder,
    logical_ket,
)
from cavitysim.device import (
    DeviceParams,
    SystemLayout,
    default_config_text,
    load_params,
)
from cavitysim.errors import ValidationError
from cavitysim.evolution import standard_collapses
from cavitysim.fock import (
    apply_on_factor,
    coherent,
    displacement,
    fock_ket,
    partial_trace,
    qubit_ket,
    recommended_dim,
)
from cavitysim.gates import (
    CANONICAL_DELTA_PHI,
    GateSpec,
    IdealBackend,
    PulseBackend,
    component_logical_unitary,
    cz_binomial,
    cz_binomial_ideal,
    cz_coherent,
    realized_logical_map,
    single_cavity_phase_gate,
    snap_bell,
)
from cavitysim.tomography import (
    joint_wigner,
    pauli_labels,
    pauli_transfer,
    process_fidelity,
    unitary_transfer,
    wigner,
)

#: Measured gate fidelities quoted in the literature for this device family.
#: Emitted as annotated reference values only; they include experimental
#: imperfections the simulator does not model and are never asserted.
REFERENCE_FIDELITIES = {
    "coherent": {"F_ED": 0.954, "F_CZ_ED": 0.859, "F_CZ": 0.905},
    "binomial": {"F_ED": 0.922, "F_CZ_ED": 0.816, "F_CZ": 0.894},
    "bell_binomial": 0.861,
}

_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class Scalar:
    """Summary number with the tolerance reported as its bound.

    Nothing checks the value against the tolerance: it is the bound the
    recipe reports for the number.  reference=True marks externally measured
    values carried along for comparison; those need no tolerance because
    nothing is asserted on them.
    """

    value: float
    tolerance: float | None = None
    reference: bool = False

    def __post_init__(self):
        if not self.reference and self.tolerance is None:
            raise ValidationError("non-reference summary scalars need a tolerance")


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    parameters: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)  # name -> {"columns", "rows"}
    summary: dict = field(default_factory=dict)  # name -> Scalar
    provenance: dict = field(default_factory=dict)  # config_hash, mode
    #: the GateSpec the experiment simulated (not part of result.json)
    gate_spec: GateSpec | None = None

    def __post_init__(self):
        for key, s in self.summary.items():
            if not isinstance(s, Scalar):
                raise ValidationError(f"summary entry {key!r} must be a Scalar")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "tables": {
                k: {"columns": list(t["columns"]), "rows": [list(r) for r in t["rows"]]}
                for k, t in self.tables.items()
            },
            "summary": {
                k: {
                    "value": s.value,
                    "tolerance": s.tolerance,
                    "reference": s.reference,
                }
                for k, s in self.summary.items()
            },
            "provenance": self.provenance,
        }


def load_config(config_text: str | None):
    """The device parameters of `config_text` (the bundled values if None)
    and the hash that provenance records for them."""
    if config_text is None:
        config_text = default_config_text()
    return load_params(config_text), hashlib.sha256(config_text.encode()).hexdigest()


def _provenance(config_hash: str, mode: str) -> dict:
    return {"config_hash": config_hash, "mode": mode}


def _code_subspace_unitary(enc: Encoding, u2: np.ndarray) -> np.ndarray:
    """Cavity unitary acting as u2 on the orthonormal code basis, identity on
    the complement."""
    basis = enc.basis
    p = basis @ basis.conj().T
    m = basis @ u2 @ basis.conj().T + (np.eye(enc.mode.dim) - p)
    if np.max(np.abs(m.conj().T @ m - np.eye(len(m)))) >= 1e-8:
        raise ValidationError("code-subspace operator is not unitary within tolerance")
    return m


def _purities(psi: np.ndarray, layout: SystemLayout) -> list:
    """Tr ρ² of the reduced states of the two cavities, factors 1 and 2."""
    rhos = (partial_trace(psi, layout.space.dims, [i]) for i in (1, 2))
    return [float(np.real(np.trace(r @ r))) for r in rhos]


def _backend(mode: str, params: DeviceParams, layout: SystemLayout, compensate: bool = True):
    """The closed-system backend realizing `mode` on `layout`.  With
    `compensate`, the pulse backend undoes the Kerr and AC-Stark phases that
    decoding would undo."""
    if mode == "ideal":
        return IdealBackend(layout)
    if mode == "pulse":
        return PulseBackend(params, layout, compensate=compensate)
    why = "this command does not simulate decoherence; error-budget and zgate-repeat --mode pulse+decoherence do"
    raise ValidationError(f"unsupported mode {mode!r}" + (f": {why}" if mode == "pulse+decoherence" else ""))


def _phase_gate(gate: str, params: DeviceParams, alpha: float):
    """The Q1+S1 layout, the shifted-cat encoding of amplitude alpha in S1,
    the single-cavity phase gate `gate` ∈ {z, s, t} on it and the ideal
    logical unitary diag(1, e^{i(π + δφ)})."""
    if gate.upper() not in CANONICAL_DELTA_PHI:
        raise ValidationError(f"{gate!r} is not one of the single-cavity gates Z/S/T")
    delta_phi = CANONICAL_DELTA_PHI[gate.upper()]
    dim = recommended_dim(2.0 * alpha)
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": dim})
    enc = cat_encoding(alpha, dim, variant="shifted")
    spec = single_cavity_phase_gate(delta_phi, enc, params)
    return layout, enc, spec, np.diag([1.0, np.exp(1j * (np.pi + delta_phi))])


def _cz(code: str, params: DeviceParams, mode: str, alpha: float):
    """The backend realizing `mode` on the Q3+S1+S2 layout, the CZ of the
    `code` ∈ {cat, binomial} qubits in S1 and S2 for it, and their encoding.

    The cat CZ is `cz_coherent` of amplitude alpha on a compensating backend.
    The binomial CZ is exact conditional rotations when ideal and otherwise
    the pulse calibrated on its backend, which must not compensate.
    """
    if code not in ("cat", "binomial"):
        raise ValidationError(f"unknown encoding {code!r}")
    # the binomial code uses Fock 0, 2 and 4, and neither its drive nor loss raises n
    dim = recommended_dim(2.0 * alpha) if code == "cat" else 5
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": dim, "S2": dim})
    backend = _backend(mode, params, layout, compensate=code == "cat")
    if code == "binomial":
        spec = cz_binomial_ideal() if mode == "ideal" else cz_binomial(backend)[0]
        return backend, spec, binomial_encoding(dim)
    return backend, cz_coherent(alpha, params), cat_encoding(alpha, dim)


def _code_basis(enc: Encoding, n: int) -> np.ndarray:
    """The (dim, 2ⁿ) product basis of `enc`'s orthonormal code words in n
    cavities, with the qubit, the first factor, in |g⟩."""
    g = np.array([1.0, 0.0], dtype=complex)
    words = itertools.product(enc.basis.T, repeat=n)
    return np.stack([np.kron(g, reduce(np.kron, w)) for w in words], axis=1)


def _encoder_columns(enc: Encoding) -> np.ndarray:
    """The columns |g,n⟩, |e,n⟩ of `ideal_encoder(enc)` = E grouped by cavity
    level n, shape (cavity dim, dim, 2): they decode as E†, then a trace over
    the cavity.  What leaks out of the code space is decoded by the arbitrary
    Gram–Schmidt completion of E, on which the zgate and budget numbers rest."""
    e = ideal_encoder(enc)
    return e.reshape(len(e), 2, enc.mode.dim).transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# Parity sweep (geometric-phase interference fringe)


def run_parity_sweep(
    delta: float = 0.0,
    phis=None,
    mode: str = "ideal",
    alpha: float | None = None,
    epsilon: float | None = None,
    config_text: str | None = None,
) -> ExperimentResult:
    """Cavity parity after a phase gate with axis offset φ and read-out
    displacement D(−α e^{iδ}).

    For δ = 0 the ideal-mode curve follows P = cos(π + φ) up to the overlap
    2e^{−4α²} of the code components |0⟩ and |2α⟩, which sets the reported
    ideal-mode tolerance; at the default amplitude it is below 1e−13.  An
    ideal sweep at |α| ≤ √(ln 2)/2, where that tolerance reaches 2 and so
    cannot fail, is a ValidationError.
    """
    if not np.isfinite(delta):
        raise ValidationError("read-out phase delta must be finite")
    params, cfg_hash = load_config(config_text)
    if phis is None:
        phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    phis = np.asarray(phis, dtype=float)
    if len(phis) < 1:
        raise ValidationError("the sweep needs at least one axis offset")
    if alpha is None:
        alpha = 2.8 if mode == "ideal" else float(np.sqrt(2.0))
    # the ideal deviation is the overlap 2e^{−4α²} (to 1e-5 relative for |α|
    # in [1, 1.8]) above a floor below 6e-10: twice it, and at least 1e-6
    tolerance = max(1e-6, 4.0 * np.exp(-4.0 * alpha**2)) if mode == "ideal" else 0.05
    if tolerance >= 2.0:
        # 2 is the largest deviation a parity can have
        raise ValidationError(
            f"an ideal parity sweep needs |alpha| > sqrt(ln 2)/2 = {np.sqrt(np.log(2.0)) / 2:.3f}, "
            f"got {alpha}: up to it the tolerance 4e^(-4 alpha^2) = {tolerance:.3g} cannot fail"
        )
    # the truncation must hold both code components and their read-out
    # displaced positions (up to 3|alpha| for delta = pi)
    shift = alpha * np.exp(1j * delta)
    extent = max(2.0 * abs(alpha), abs(2.0 * alpha - shift), abs(shift))
    dim = recommended_dim(extent)
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": dim})
    enc = cat_encoding(alpha, dim, variant="shifted")
    psi0 = np.kron(qubit_ket(0), logical_ket(enc, 1.0, 1.0))
    read_out = displacement(-alpha * np.exp(1j * delta), layout.mode("S1"))
    # (−1)^n on the joint basis |q, n⟩ (qubit factor first)
    parity = np.tile((-1.0) ** np.arange(dim), 2)

    backend = _backend(mode, params, layout)
    rows = []
    worst = 0.0
    for phi in phis:
        spec = single_cavity_phase_gate(float(phi), enc, params, epsilon=epsilon)
        out = backend.apply(psi0, spec)
        x = apply_on_factor(read_out, layout.index["S1"], layout.space, out)
        p = float(np.real(np.vdot(x, parity * x)))
        law = float(np.cos(np.pi + phi))
        rows.append((float(phi), p, law))
        if abs(delta) < 1e-12:
            worst = max(worst, abs(p - law))
    summary = {
        "max_abs_deviation_from_cos_law": Scalar(worst, tolerance)
        if abs(delta) < 1e-12
        else Scalar(worst, None, reference=True)
    }
    return ExperimentResult(
        name="parity-sweep",
        parameters={
            "delta": float(delta),
            "alpha": float(alpha),
            "mode": mode,
            "cavity": "S1",
            "qubit": "Q1",
            "n_points": int(len(phis)),
        },
        tables={
            "parity": {
                "columns": ("phi", "parity", "cos_law"),
                "rows": tuple(rows),
            }
        },
        summary=summary,
        provenance=_provenance(cfg_hash, mode),
    )


# ---------------------------------------------------------------------------
# Z-gate repetition (process-fidelity decay)


def run_zgate_repetition(
    m_max: int = 4,
    mode: str = "ideal",
    alpha: float = 2.0,
    config_text: str | None = None,
) -> ExperimentResult:
    """QPT fidelity after m = 0..m_max repeated Z gates on one encoded cavity.

    Encode once, apply the gate m times, decode, and reconstruct the qubit
    process; a linear fit of F(m) gives the per-gate infidelity (slope) and
    the encode/decode fidelity (intercept).
    """
    if m_max < 1:
        raise ValidationError("m_max must be at least 1 for the linear fit")
    params, cfg_hash = load_config(config_text)
    layout, enc, spec, zmat = _phase_gate("z", params, alpha)

    decohere = mode == "pulse+decoherence"
    backend = _backend("pulse" if decohere else mode, params, layout)
    collapses = standard_collapses(params, layout) if decohere else None
    channel = realized_logical_map(backend, spec, _code_basis(enc, 1), _encoder_columns(enc), collapses)

    ms = np.arange(m_max + 1)
    fids = []
    for m in ms:
        ideal = unitary_transfer(np.linalg.matrix_power(zmat, int(m)), 1)
        fids.append(process_fidelity(pauli_transfer(channel(int(m)), 1), ideal))
    fids = np.array(fids)
    slope, intercept = np.polyfit(ms, fids, 1)
    consistency = (fids[0] - fids[1]) + slope  # slope estimate vs m∈{0,1} points

    tol = 1e-6 if mode == "ideal" else 5e-3
    return ExperimentResult(
        name="zgate-repetition",
        parameters={"m_max": int(m_max), "alpha": float(alpha), "mode": mode},
        tables={
            "fidelity_vs_m": {
                "columns": ("m", "process_fidelity"),
                "rows": tuple((int(m), float(f)) for m, f in zip(ms, fids)),
            }
        },
        summary={
            "slope_per_gate": Scalar(float(slope), tol),
            "intercept_F_ED": Scalar(float(intercept), tol),
            "per_gate_infidelity": Scalar(float(-slope), tol),
            "slope_consistency_m01": Scalar(float(consistency), 10 * tol),
        },
        provenance=_provenance(cfg_hash, mode),
    )


# ---------------------------------------------------------------------------
# Quantum process tomography of the gate set


def run_qpt(
    gate: str = "cz-binomial",
    mode: str = "ideal",
    alpha: float = float(np.sqrt(2.0)),
    config_text: str | None = None,
) -> ExperimentResult:
    """Process tomography of one gate: PTM and process fidelity.

    gate ∈ {"z", "s", "t", "cz-coherent", "cz-binomial"};
    mode ∈ {"ideal", "pulse"} (decoherent tomography is not simulated).
    The `process_fidelity` scalar is the average gate fidelity
    (d·F_pro + 1)/(d + 1) of `tomography.process_fidelity`, not the
    entanglement fidelity F_pro; its infidelity is d/(d + 1) times F_pro's.
    """
    params, cfg_hash = load_config(config_text)
    gate = gate.lower()
    family = "binomial" if gate == "cz-binomial" else "coherent"
    # an ideal coherent gate is reduced to its code components: no encoding read
    reduced = mode == "ideal" and family == "coherent"
    if gate in ("z", "s", "t"):
        layout, enc, spec, ideal_u = _phase_gate(gate, params, alpha)
        backend, cavities, qubit = _backend(mode, params, layout), ["S1"], "Q1"
    elif gate in ("cz-coherent", "cz-binomial"):
        backend, spec, enc = _cz("cat" if family == "coherent" else family, params, mode, alpha)
        ideal_u, cavities, qubit = _CZ, ["S1", "S2"], "Q3"
    else:
        raise ValidationError(f"unknown gate {gate!r}")

    n = len(cavities)
    if reduced:
        ptm = unitary_transfer(component_logical_unitary(spec, cavities, qubit), n)
    else:
        code = _code_basis(enc, n)
        ptm = pauli_transfer(realized_logical_map(backend, spec, code, code[None])(1), n)
    f = process_fidelity(ptm, unitary_transfer(ideal_u, n))
    tol = 1e-8 if mode == "ideal" else (0.02 if gate == "cz-coherent" else 0.05)

    labels = pauli_labels(n)
    rows = tuple(
        (labels[i], labels[j], float(ptm[i, j]))
        for i in range(len(labels))
        for j in range(len(labels))
    )
    summary = {"process_fidelity": Scalar(float(f), tol)}
    refs = REFERENCE_FIDELITIES[family]
    summary["measured_F_ED_reference"] = Scalar(refs["F_ED"], reference=True)
    summary["measured_F_gate_ED_reference"] = Scalar(refs["F_CZ_ED"], reference=True)
    summary["measured_F_gate_reference"] = Scalar(refs["F_CZ"], reference=True)
    return ExperimentResult(
        name="qpt",
        parameters={
            "gate": gate,
            "mode": mode,
            "alpha": float(alpha),
            "duration_ns": float(spec.duration),
        },
        tables={"ptm": {"columns": ("row", "column", "value"), "rows": rows}},
        summary=summary,
        provenance=_provenance(cfg_hash, mode),
        gate_spec=spec,
    )


# ---------------------------------------------------------------------------
# Bell-state generation


def run_bell_generation(
    encoding: str = "binomial",
    mode: str = "ideal",
    alpha: float = 1.2,
    config_text: str | None = None,
) -> ExperimentResult:
    """Prepare (|01⟩_L + |10⟩_L)/√2 from logical |++⟩ and the realized CZ.

    The logical Hadamard/X rotations around the CZ are applied as ideal
    code-subspace unitaries; only the CZ itself is realized by the chosen
    backend.  Outputs the Bell fidelity, reduced-cavity purities, and joint
    Wigner cuts along the real axes.
    """
    params, cfg_hash = load_config(config_text)
    backend, spec, enc = _cz(encoding, params, mode, alpha)
    layout = backend.layout
    g, plus = qubit_ket(0), logical_ket(enc, 1.0, 1.0)
    psi = backend.apply(reduce(np.kron, (g, plus, plus)), spec)
    # rotate CZ|++⟩ into (|01⟩_L + |10⟩_L)/√2: Hadamard on cavity 2, X on 1
    for label, u2 in (("S2", _HADAMARD), ("S1", _X)):
        psi = apply_on_factor(_code_subspace_unitary(enc, u2), layout.index[label], layout.space, psi)

    b0, b1 = enc.basis.T
    bell = (reduce(np.kron, (g, b0, b1)) + reduce(np.kron, (g, b1, b0))) / np.sqrt(2.0)
    fid = abs(np.vdot(psi, bell)) ** 2
    purity1, purity2 = _purities(psi, layout)

    xs = np.linspace(-2.5, 2.5, 21)
    w_diag, w_antidiag = (
        joint_wigner(psi, layout.space, xs, s * xs, factors=(1, 2)).tolist() for s in (1, -1)
    )
    cut_rows = tuple(zip(xs.tolist(), w_diag, w_antidiag))
    tol = 1e-8 if mode == "ideal" and encoding == "binomial" else 0.05
    summary = {
        "bell_fidelity": Scalar(float(fid), tol),
        "purity_cavity_1": Scalar(purity1, 0.05),
        "purity_cavity_2": Scalar(purity2, 0.05),
        "measured_bell_fidelity_reference": Scalar(
            REFERENCE_FIDELITIES["bell_binomial"], reference=True
        ),
    }
    tables = {
        "joint_wigner_cuts": {
            "columns": ("x", "w_diag", "w_antidiag"),
            "rows": cut_rows,
        }
    }
    if encoding == "cat":
        # entangled four-component structure after CZ on plain |++⟩_c
        p, m = (coherent(s * alpha, layout.mode("S1")) for s in (1.0, -1.0))
        raw_plus = (p + m) / float(np.linalg.norm(p + m))
        psi_raw = backend.apply(reduce(np.kron, (g, raw_plus, raw_plus)), spec)
        four = np.kron(p, p) + np.kron(p, m) + np.kron(m, p) - np.kron(m, m)
        target = np.kron(np.array([1.0, 0.0]), four)
        target = target / float(np.linalg.norm(target))
        summary["four_component_overlap"] = Scalar(
            float(abs(np.vdot(psi_raw, target)) ** 2), 0.05
        )
    return ExperimentResult(
        name="bell-generation",
        parameters={"encoding": encoding, "mode": mode, "alpha": float(alpha)},
        tables=tables,
        summary=summary,
        provenance=_provenance(cfg_hash, mode),
    )


# ---------------------------------------------------------------------------
# Error budget


def run_error_budget(
    gate: str = "z",
    alpha: float = float(np.sqrt(2.0)),
    config_text: str | None = None,
) -> ExperimentResult:
    """Infidelity decomposition of the single-cavity phase gate by toggling
    error sources: encode/decode, drive selectivity, Kerr, decoherence.

    Each row is the infidelity its source adds to the pipeline of the rows
    above it: `selectivity` is f_ideal − f_selectivity, the Kerr-free pulse;
    `kerr` is f_selectivity − f_pulse, Kerr on top of selectivity; and
    `decoherence` is f_pulse − f_total, the collapses on top of the whole
    closed pulse.  Those three rows are clamped at 0.  The total row is the
    jointly simulated pipeline with everything enabled.
    """
    params, cfg_hash = load_config(config_text)
    layout, enc, spec, ideal_u = _phase_gate(gate, params, alpha)
    code, decode = _code_basis(enc, 1), _encoder_columns(enc)
    ideal_ptm = unitary_transfer(ideal_u, 1)
    no_kerr = replace(params, kerr={k: 0.0 for k in params.kerr}, cross_kerr=0.0)

    def fidelity(backend, collapses=None):
        channel = realized_logical_map(backend, spec, code, decode, collapses)(1)
        return process_fidelity(pauli_transfer(channel, 1), ideal_ptm)

    pulse = _backend("pulse", params, layout)
    f_ideal = fidelity(_backend("ideal", params, layout))
    f_selectivity = fidelity(_backend("pulse", no_kerr, layout))
    f_pulse = fidelity(pulse)
    f_total = fidelity(pulse, standard_collapses(params, layout))

    rows = (
        ("encode_decode", float(1.0 - f_ideal)),
        ("selectivity", float(max(f_ideal - f_selectivity, 0.0))),
        ("kerr", float(max(f_selectivity - f_pulse, 0.0))),
        ("decoherence", float(max(f_pulse - f_total, 0.0))),
        ("total", float(1.0 - f_total)),
    )
    budget = {name: val for name, val in rows}
    t_gate = spec.duration
    t1_qubit = params.T1["Q1"]
    estimate = t_gate / (2.0 * t1_qubit)
    row_sum = sum(v for name, v in rows if name != "total")
    return ExperimentResult(
        name="error-budget",
        parameters={
            "gate": gate,
            "alpha": float(alpha),
            "duration_ns": float(t_gate),
        },
        tables={"budget": {"columns": ("source", "infidelity"), "rows": rows}},
        summary={
            "total_infidelity": Scalar(budget["total"], 0.2),
            "row_sum_infidelity": Scalar(float(row_sum), 0.2 * max(budget["total"], 1e-12)),
            "decoherence_infidelity": Scalar(budget["decoherence"], 2.0 * estimate),
            "relaxation_estimate_T_over_2T1": Scalar(float(estimate), reference=True),
        },
        provenance=_provenance(cfg_hash, "pulse+decoherence"),
    )


# ---------------------------------------------------------------------------
# SNAP Bell state


def run_snap_bell(
    sign: int = +1,
    mode: str = "ideal",
    dim: int = 12,
    config_text: str | None = None,
) -> ExperimentResult:
    """Single-photon Bell state (|01⟩ + sign·|10⟩)/√2 from vacuum via
    displacements around a joint-vacuum-conditional 2π rotation."""
    params, cfg_hash = load_config(config_text)
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": dim, "S2": dim})
    spec = snap_bell(sign)
    backend = _backend(mode, params, layout)

    def basis_state(n1, n2):
        """|g; n1, n2⟩."""
        s1, s2 = (fock_ket(layout.mode(c), n) for c, n in (("S1", n1), ("S2", n2)))
        return reduce(np.kron, (qubit_ket(0), s1, s2))

    out = backend.apply(basis_state(0, 0), spec)

    def bell_ket(s):
        return (basis_state(0, 1) + s * basis_state(1, 0)) / np.sqrt(2.0)

    fid = abs(np.vdot(out, bell_ket(sign))) ** 2
    cross = abs(np.vdot(out, bell_ket(-sign))) ** 2
    purity1, purity2 = _purities(out, layout)

    xs = np.linspace(-1.7, 1.7, 21)
    w1, w2 = (wigner(out, layout.space, xs, factor_index=i).tolist() for i in (1, 2))
    wigner_rows = tuple(zip(xs.tolist(), w1, w2))
    return ExperimentResult(
        name="snap-bell",
        parameters={"sign": int(sign), "mode": mode, "dim": int(dim)},
        tables={
            "wigner_cuts": {
                "columns": ("x", "w_cavity_1", "w_cavity_2"),
                "rows": wigner_rows,
            }
        },
        summary={
            "bell_fidelity": Scalar(float(fid), 0.05),
            "cross_fidelity": Scalar(float(cross), 0.05),
            "purity_cavity_1": Scalar(purity1, 0.1),
            "purity_cavity_2": Scalar(purity2, 0.1),
        },
        provenance=_provenance(cfg_hash, mode),
    )
