"""End-to-end experiment recipes: parity sweeps, gate tomography, repetition
decay, Bell generation, and error budgets.

Every recipe returns an ExperimentResult with CSV-ready tables, summary
scalars annotated with the tolerance they were checked against, and enough
provenance (config hash, seed, mode) to re-run deterministically.  Measured
literature fidelities are attached as reference-only scalars and never
asserted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

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
    CompositeSpace,
    DensityOp,
    Ket,
    LinearOp,
    coherent,
    displacement,
    expectation,
    fock_ket,
    parity_op,
    partial_trace,
    qubit_ket,
    recommended_dim,
    tensor,
)
from cavitysim.gates import (
    CANONICAL_DELTA_PHI,
    GateSpec,
    IdealBackend,
    PulseBackend,
    component_logical_unitary,
    cz_binomial,
    cz_coherent,
    realized_logical_map,
    single_cavity_phase_gate,
    snap_bell,
    stark_phase_compensation,
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
    """Summary number with the tolerance it was checked against.

    reference=True marks externally measured values carried along for
    comparison; those need no tolerance because nothing is asserted on them.
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
    provenance: dict = field(default_factory=dict)
    #: the GateSpec the experiment simulated (not part of result.json)
    gate_spec: GateSpec | None = None

    def __post_init__(self):
        for key, s in self.summary.items():
            if not isinstance(s, Scalar):
                raise ValidationError(f"summary entry {key!r} must be a Scalar")

    def table_csv_rows(self, name: str):
        t = self.tables[name]
        yield tuple(t["columns"])
        for row in t["rows"]:
            yield tuple(row)

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


def _resolve_params(params: DeviceParams | None, config_text: str | None):
    if config_text is None:
        config_text = default_config_text()
    if params is None:
        params = load_params(config_text)
    return params, hashlib.sha256(config_text.encode()).hexdigest()


def _provenance(config_hash: str, seed: int, mode: str) -> dict:
    return {"config_hash": config_hash, "seed": seed, "mode": mode}


def _code_subspace_unitary(enc: Encoding, u2: np.ndarray) -> LinearOp:
    """Cavity unitary acting as u2 on the orthonormal code basis, identity on
    the complement."""
    b0, b1 = enc.orthonormal_basis()
    basis = np.stack([b0.amplitudes, b1.amplitudes], axis=1)  # dim x 2
    p = basis @ basis.conj().T
    m = basis @ u2 @ basis.conj().T + (np.eye(enc.mode.dim) - p)
    return LinearOp(CompositeSpace.single(enc.mode), m).assert_unitary(1e-8)


def _encoded_qubit_channel(layout, cavity, enc_u, backend, spec, post, m, collapses=None):
    """The qubit channel ρ_q ↦ Tr_cavity[D Gᵐ E (ρ_q ⊗ |0⟩⟨0|) E† D†] as a
    function returning a 2×2 matrix: E is the ideal encoder `enc_u`, D = E†,
    and G is `spec` on `backend` followed by the unitary `post`.

    With collapses, G acts on the density matrix through `apply_density`;
    without, each eigenvector of ρ_q is propagated as a ket and the results
    are mixed.
    """
    vac = fock_ket(layout.mode(cavity), 0).amplitudes
    if collapses is not None:
        e, d, c = enc_u.matrix, enc_u.dag().matrix, post.matrix

        def process(rho_q: DensityOp) -> np.ndarray:
            full = np.kron(rho_q.matrix, np.outer(vac, vac.conj()))
            rho = DensityOp(layout.space, e @ full @ e.conj().T)
            for _ in range(m):
                rho = backend.apply_density(rho, spec, collapses)
                rho = DensityOp(rho.space, c @ rho.matrix @ c.conj().T)
            rho = DensityOp(layout.space, d @ rho.matrix @ d.conj().T)
            return partial_trace(rho, [0]).matrix

        return process

    def process(rho_q: DensityOp) -> np.ndarray:
        w, v = np.linalg.eigh(rho_q.matrix)
        out = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            if w[i] > 1e-12:
                full = enc_u @ Ket(layout.space, np.kron(v[:, i], vac))
                for _ in range(m):
                    full = post @ backend.apply(full, spec)
                out += w[i] * partial_trace(enc_u.dag() @ full, [0]).matrix
        return out

    return process


# ---------------------------------------------------------------------------
# Parity sweep (geometric-phase interference fringe)


def run_parity_sweep(
    delta: float = 0.0,
    phis=None,
    params: DeviceParams | None = None,
    mode: str = "ideal",
    alpha: float | None = None,
    cavity: str = "S1",
    qubit: str = "Q1",
    epsilon: float | None = None,
    config_text: str | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Cavity parity after a phase gate with axis offset φ and read-out
    displacement D(−α e^{iδ}).

    For δ = 0 the ideal-mode curve follows P = cos(π + φ) up to the residual
    overlap of the code components; the default ideal-mode amplitude makes
    that residual < 1e−6.
    """
    params, cfg_hash = _resolve_params(params, config_text)
    if phis is None:
        phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    phis = np.asarray(phis, dtype=float)
    if alpha is None:
        alpha = 2.8 if mode == "ideal" else float(np.sqrt(2.0))
    # the truncation must hold both code components and their read-out
    # displaced positions (up to 3 alpha for delta = pi)
    shift = alpha * np.exp(1j * delta)
    extent = max(2.0 * alpha, abs(2.0 * alpha - shift), abs(shift))
    dim = recommended_dim(extent)
    layout = SystemLayout.build([qubit], [cavity], {cavity: dim})
    enc = cat_encoding(alpha, dim, variant="shifted")
    psi0 = tensor([qubit_ket(0), logical_ket(enc, 1.0, 1.0)])
    read_out = layout.lift(
        displacement(-alpha * np.exp(1j * delta), layout.mode(cavity)), cavity
    )
    parity = layout.lift(parity_op(layout.mode(cavity)), cavity)

    if mode == "ideal":
        backend = IdealBackend(layout)
    elif mode == "pulse":
        backend = PulseBackend(params, layout, compensate_static_cavity_phases=True)
    else:
        raise ValidationError(f"unsupported mode {mode!r} for the parity sweep")

    tolerance = 1e-6 if mode == "ideal" else 0.05
    rows = []
    worst = 0.0
    for phi in phis:
        spec = single_cavity_phase_gate(
            float(phi), enc, params, cavity, qubit, epsilon
        )
        out = backend.apply(psi0, spec)
        if mode == "pulse":
            # the drive-induced phases accrue in the undisplaced frame, so
            # undo them before the read-out displacement
            out = stark_phase_compensation(spec, params, layout, cavity, qubit) @ out
        out = read_out @ out
        p = float(np.real(expectation(out, parity)))
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
            "cavity": cavity,
            "qubit": qubit,
            "n_points": int(len(phis)),
        },
        tables={
            "parity": {
                "columns": ("phi", "parity", "cos_law"),
                "rows": tuple(rows),
            }
        },
        summary=summary,
        provenance=_provenance(cfg_hash, seed, mode),
    )


# ---------------------------------------------------------------------------
# Z-gate repetition (process-fidelity decay)


def run_zgate_repetition(
    m_max: int = 4,
    params: DeviceParams | None = None,
    mode: str = "ideal",
    alpha: float = 2.0,
    cavity: str = "S1",
    qubit: str = "Q1",
    config_text: str | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """QPT fidelity after m = 0..m_max repeated Z gates on one encoded cavity.

    Encode once, apply the gate m times, decode, and reconstruct the qubit
    process; a linear fit of F(m) gives the per-gate infidelity (slope) and
    the encode/decode fidelity (intercept).
    """
    params, cfg_hash = _resolve_params(params, config_text)
    dim = recommended_dim(2.0 * alpha)
    layout = SystemLayout.build([qubit], [cavity], {cavity: dim})
    enc = cat_encoding(alpha, dim, variant="shifted")
    enc_u = ideal_encoder(enc)
    spec = single_cavity_phase_gate(0.0, enc, params, cavity, qubit)
    zmat = np.diag([1.0, -1.0]).astype(complex)

    decohere = mode == "pulse+decoherence"
    if mode == "ideal":
        backend = IdealBackend(layout)
        comp = LinearOp.identity(layout.space)
    elif mode in ("pulse", "pulse+decoherence"):
        backend = PulseBackend(params, layout, compensate_static_cavity_phases=True)
        comp = stark_phase_compensation(spec, params, layout, cavity, qubit)
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    collapses = standard_collapses(params, layout) if decohere else None

    ms = np.arange(m_max + 1)
    fids = []
    for m in ms:
        channel = _encoded_qubit_channel(layout, cavity, enc_u, backend, spec, comp, int(m), collapses)
        ideal = unitary_transfer(np.linalg.matrix_power(zmat, int(m)), 1)
        fids.append(process_fidelity(pauli_transfer(channel, 1), ideal))
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
        provenance=_provenance(cfg_hash, seed, mode),
    )


# ---------------------------------------------------------------------------
# Quantum process tomography of the gate set


def _single_cavity_qpt(gate: str, params, mode: str, alpha: float):
    delta_phi = CANONICAL_DELTA_PHI[gate.upper()]
    dim = recommended_dim(2.0 * alpha)
    enc = cat_encoding(alpha, dim, variant="shifted")
    spec = single_cavity_phase_gate(delta_phi, enc, params)
    ideal_u = np.diag([1.0, np.exp(1j * (np.pi + delta_phi))])
    if mode == "ideal":
        k = component_logical_unitary(spec, ["S1"], "Q1")
    else:
        layout = SystemLayout.build(["Q1"], ["S1"], {"S1": dim})
        backend = PulseBackend(params, layout, compensate_static_cavity_phases=True)
        comp = stark_phase_compensation(spec, params, layout, "S1", "Q1")
        logical = list(enc.orthonormal_basis())
        k = realized_logical_map(
            lambda psi: comp @ backend.apply(psi, spec), layout, "Q1", logical
        )
    return k, ideal_u, 1, spec


def _cz_coherent_qpt(params, mode: str, alpha: float):
    spec = cz_coherent(alpha, params)
    if mode == "ideal":
        k = component_logical_unitary(spec, ["S1", "S2"], "Q3")
    else:
        dim = recommended_dim(2.0 * alpha)
        layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": dim, "S2": dim})
        backend = PulseBackend(params, layout, compensate_static_cavity_phases=True)
        enc = cat_encoding(alpha, dim)
        b0, b1 = enc.orthonormal_basis()
        logical = [tensor([a, b]) for a in (b0, b1) for b in (b0, b1)]
        k = realized_logical_map(
            lambda psi: backend.apply(psi, spec), layout, "Q3", logical
        )
    return k, _CZ, 2, spec


def _cz_binomial_qpt(params, mode: str):
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 7, "S2": 7})
    enc = binomial_encoding(7)
    logical = [tensor([a, b]) for a in (enc.ket0, enc.ket1) for b in (enc.ket0, enc.ket1)]
    if mode == "ideal":
        spec = cz_binomial(params, mode="ideal")
        backend = IdealBackend(layout)
    else:
        spec, _ = cz_binomial(params, mode="pulse", layout=layout)
        backend = PulseBackend(params, layout)
    k = realized_logical_map(lambda psi: backend.apply(psi, spec), layout, "Q3", logical)
    return k, _CZ, 2, spec


def run_qpt(
    gate: str = "cz-binomial",
    params: DeviceParams | None = None,
    mode: str = "ideal",
    alpha: float = float(np.sqrt(2.0)),
    config_text: str | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Process tomography of one gate: PTM and process fidelity.

    gate ∈ {"z", "s", "t", "cz-coherent", "cz-binomial"};
    mode ∈ {"ideal", "pulse"} (decoherent tomography is not simulated).
    """
    if mode not in ("ideal", "pulse"):
        raise ValidationError(f"unsupported mode {mode!r} for process tomography")
    params, cfg_hash = _resolve_params(params, config_text)
    gate = gate.lower()
    if gate in ("z", "s", "t"):
        k, ideal_u, n, spec = _single_cavity_qpt(gate, params, mode, alpha)
        family = "coherent"
    elif gate == "cz-coherent":
        k, ideal_u, n, spec = _cz_coherent_qpt(params, mode, alpha)
        family = "coherent"
    elif gate == "cz-binomial":
        k, ideal_u, n, spec = _cz_binomial_qpt(params, mode)
        family = "binomial"
    else:
        raise ValidationError(f"unknown gate {gate!r}")

    ptm = pauli_transfer(lambda rho: k @ rho.matrix @ k.conj().T, n)
    f = process_fidelity(ptm, unitary_transfer(ideal_u, n))
    tol = 1e-8 if mode == "ideal" else (0.02 if gate == "cz-coherent" else 0.05)

    labels = pauli_labels(n)
    rows = tuple(
        (labels[i], labels[j], float(ptm.R[i, j]))
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
        provenance=_provenance(cfg_hash, seed, mode),
        gate_spec=spec,
    )


# ---------------------------------------------------------------------------
# Bell-state generation


def run_bell_generation(
    encoding: str = "binomial",
    params: DeviceParams | None = None,
    mode: str = "ideal",
    alpha: float = 1.2,
    config_text: str | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Prepare (|01⟩_L + |10⟩_L)/√2 from logical |++⟩ and the realized CZ.

    The logical Hadamard/X rotations around the CZ are applied as ideal
    code-subspace unitaries; only the CZ itself is realized by the chosen
    backend.  Outputs the Bell fidelity, reduced-cavity purities, and joint
    Wigner cuts along the real axes.
    """
    params, cfg_hash = _resolve_params(params, config_text)
    if encoding == "binomial":
        dim = 7
        enc1 = enc2 = binomial_encoding(dim)
        layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": dim, "S2": dim})
        if mode == "ideal":
            spec = cz_binomial(params, mode="ideal")
            backend = IdealBackend(layout)
        elif mode == "pulse":
            spec, _ = cz_binomial(params, mode="pulse", layout=layout)
            backend = PulseBackend(params, layout)
        else:
            raise ValidationError(f"unknown mode {mode!r}")
    elif encoding == "cat":
        dim = recommended_dim(2.0 * alpha)
        enc1 = enc2 = cat_encoding(alpha, dim)
        layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": dim, "S2": dim})
        spec = cz_coherent(alpha, params)
        if mode == "ideal":
            backend = IdealBackend(layout)
        elif mode == "pulse":
            backend = PulseBackend(params, layout, compensate_static_cavity_phases=True)
        else:
            raise ValidationError(f"unknown mode {mode!r}")
    else:
        raise ValidationError(f"unknown encoding {encoding!r}")

    plus1 = logical_ket(enc1, 1.0, 1.0)
    plus2 = logical_ket(enc2, 1.0, 1.0)
    psi = tensor([qubit_ket(0), plus1, plus2])
    psi = backend.apply(psi, spec)
    # rotate CZ|++⟩ into (|01⟩_L + |10⟩_L)/√2: Hadamard on cavity 2, X on 1
    psi = layout.lift(_code_subspace_unitary(enc2, _HADAMARD), "S2") @ psi
    psi = layout.lift(_code_subspace_unitary(enc1, _X), "S1") @ psi

    b0_1, b1_1 = enc1.orthonormal_basis()
    b0_2, b1_2 = enc2.orthonormal_basis()
    bell = Ket(
        psi.space,
        (
            tensor([qubit_ket(0), b0_1, b1_2]).amplitudes
            + tensor([qubit_ket(0), b1_1, b0_2]).amplitudes
        )
        / np.sqrt(2.0),
    )
    fid = abs(psi.overlap(bell)) ** 2
    rho1 = partial_trace(psi, [1])
    rho2 = partial_trace(psi, [2])

    xs = np.linspace(-2.5, 2.5, 21)
    cut_rows = tuple(
        (float(x), float(joint_wigner(psi, x, x, factors=(1, 2))),
         float(joint_wigner(psi, x, -x, factors=(1, 2))))
        for x in xs
    )
    tol = 1e-8 if mode == "ideal" and encoding == "binomial" else 0.05
    summary = {
        "bell_fidelity": Scalar(float(fid), tol),
        "purity_cavity_1": Scalar(float(rho1.purity()), 0.05),
        "purity_cavity_2": Scalar(float(rho2.purity()), 0.05),
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
        comp = {
            s: coherent(s1 * alpha, layout.mode("S1")).amplitudes
            for s, s1 in (("p", 1.0), ("m", -1.0))
        }
        raw_plus = Ket(
            CompositeSpace.single(layout.mode("S1")), comp["p"] + comp["m"]
        ).normalized()
        psi_raw = tensor([qubit_ket(0), raw_plus, raw_plus])
        psi_raw = backend.apply(psi_raw, spec)
        four = (
            np.kron(comp["p"], comp["p"])
            + np.kron(comp["p"], comp["m"])
            + np.kron(comp["m"], comp["p"])
            - np.kron(comp["m"], comp["m"])
        )
        target = Ket(
            psi.space, np.kron(np.array([1.0, 0.0]), four)
        ).normalized()
        summary["four_component_overlap"] = Scalar(
            float(abs(psi_raw.overlap(target)) ** 2), 0.05
        )
    return ExperimentResult(
        name="bell-generation",
        parameters={"encoding": encoding, "mode": mode, "alpha": float(alpha)},
        tables=tables,
        summary=summary,
        provenance=_provenance(cfg_hash, seed, mode),
    )


# ---------------------------------------------------------------------------
# Error budget


def run_error_budget(
    gate: str = "z",
    params: DeviceParams | None = None,
    alpha: float = float(np.sqrt(2.0)),
    config_text: str | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Infidelity decomposition of the single-cavity phase gate by toggling
    error sources: encode/decode, drive selectivity, Kerr, decoherence.

    Each row is the infidelity added by enabling that source alone; the total
    row is the jointly simulated pipeline with everything enabled.
    """
    params, cfg_hash = _resolve_params(params, config_text)
    if gate not in CANONICAL_DELTA_PHI and gate.upper() not in CANONICAL_DELTA_PHI:
        raise ValidationError("error budget supports the single-cavity gates Z/S/T")
    delta_phi = CANONICAL_DELTA_PHI[gate.upper()]
    dim = recommended_dim(2.0 * alpha)
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": dim})
    enc = cat_encoding(alpha, dim, variant="shifted")
    enc_u = ideal_encoder(enc)
    spec = single_cavity_phase_gate(delta_phi, enc, params)
    ideal_u = np.diag([1.0, np.exp(1j * (np.pi + delta_phi))])
    ideal_ptm = unitary_transfer(ideal_u, 1)
    no_kerr = replace(params, kerr={k: 0.0 for k in params.kerr}, cross_kerr=0.0)

    comp = stark_phase_compensation(spec, params, layout, "S1", "Q1")

    def fidelity(backend, collapses=None):
        post = comp if isinstance(backend, PulseBackend) else LinearOp.identity(layout.space)
        channel = _encoded_qubit_channel(layout, "S1", enc_u, backend, spec, post, 1, collapses)
        return process_fidelity(pauli_transfer(channel, 1), ideal_ptm)

    f_ideal = fidelity(IdealBackend(layout))
    f_selectivity = fidelity(
        PulseBackend(no_kerr, layout, compensate_static_cavity_phases=True)
    )
    f_pulse = fidelity(
        PulseBackend(params, layout, compensate_static_cavity_phases=True)
    )
    collapses = standard_collapses(params, layout)
    f_total = fidelity(
        PulseBackend(params, layout, compensate_static_cavity_phases=True), collapses
    )

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
        provenance=_provenance(cfg_hash, seed, "pulse+decoherence"),
    )


# ---------------------------------------------------------------------------
# SNAP Bell state


def run_snap_bell(
    sign: int = +1,
    params: DeviceParams | None = None,
    mode: str = "ideal",
    dim: int = 12,
    config_text: str | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Single-photon Bell state (|01⟩ + sign·|10⟩)/√2 from vacuum via
    displacements around a joint-vacuum-conditional 2π rotation."""
    params, cfg_hash = _resolve_params(params, config_text)
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": dim, "S2": dim})
    spec = snap_bell(sign, params)
    if mode == "ideal":
        backend = IdealBackend(layout)
    elif mode == "pulse":
        backend = PulseBackend(params, layout, compensate_static_cavity_phases=True)
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    vac = tensor(
        [
            qubit_ket(0),
            fock_ket(layout.mode("S1"), 0),
            fock_ket(layout.mode("S2"), 0),
        ]
    )
    out = backend.apply(vac, spec)

    def bell_ket(s):
        v01 = tensor(
            [qubit_ket(0), fock_ket(layout.mode("S1"), 0), fock_ket(layout.mode("S2"), 1)]
        )
        v10 = tensor(
            [qubit_ket(0), fock_ket(layout.mode("S1"), 1), fock_ket(layout.mode("S2"), 0)]
        )
        return Ket(vac.space, (v01.amplitudes + s * v10.amplitudes) / np.sqrt(2.0))

    fid = abs(out.overlap(bell_ket(sign))) ** 2
    cross = abs(out.overlap(bell_ket(-sign))) ** 2
    rho1 = partial_trace(out, [1])
    rho2 = partial_trace(out, [2])

    xs = np.linspace(-1.7, 1.7, 21)
    wigner_rows = tuple(
        (float(x), float(wigner(out, x, factor_index=1)), float(wigner(out, x, factor_index=2)))
        for x in xs
    )
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
            "purity_cavity_1": Scalar(float(rho1.purity()), 0.1),
            "purity_cavity_2": Scalar(float(rho2.purity()), 0.1),
        },
        provenance=_provenance(cfg_hash, seed, mode),
    )
