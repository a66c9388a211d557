import collections
import contextlib
import itertools

import numpy as np
import pytest

from cavitysim.codes import binomial_encoding, cat_encoding, ideal_encoder
from cavitysim.device import SystemLayout, load_params
from cavitysim.errors import ValidationError
from cavitysim.experiments import (
    ExperimentResult,
    _code_basis,
    _cz,
    _encoder_columns,
    _phase_gate,
    run_bell_generation,
    run_error_budget,
    run_parity_sweep,
    run_qpt,
    run_snap_bell,
    run_zgate_repetition,
)
from cavitysim.evolution import standard_collapses
from cavitysim.fock import partial_trace, recommended_dim
from cavitysim.gates import (
    IdealBackend,
    PulseBackend,
    cz_binomial,
    realized_logical_map,
    single_cavity_phase_gate,
)
from cavitysim.tomography import pauli_transfer

from oracles import partial_trace_density, tensor


def test_result_rejects_non_scalar_summary():
    with pytest.raises(ValidationError):
        ExperimentResult(name="x", summary={"f": 0.5})


def test_parity_sweep_ideal_matches_cos_law():
    phis = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    r = run_parity_sweep(mode="ideal", phis=phis)
    s = r.summary["max_abs_deviation_from_cos_law"]
    assert s.value < 1e-6
    rows = r.tables["parity"]["rows"]
    assert len(rows) == 16
    # fringe endpoints: P(0) = -1, P(pi) = +1
    by_phi = {round(p, 9): v for p, v, _ in rows}
    assert abs(by_phi[0.0] + 1.0) < 1e-6
    assert abs(by_phi[round(np.pi, 9)] - 1.0) < 1e-6


def test_parity_sweep_is_symmetric_in_alpha():
    """Parity is symmetric under α → −α: the truncation holds |2α| either
    way (a signed 2α gave dim 14 for −1.2, and a deviation of 6.78e-3
    against 6.30e-3 at +1.2)."""
    phis = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    with pytest.warns(UserWarning, match="logical basis overlap"):
        dev = [
            run_parity_sweep(mode="ideal", phis=phis, alpha=a).summary["max_abs_deviation_from_cos_law"]
            for a in (1.2, -1.2)
        ]
    assert abs(dev[0].value - dev[1].value) < 1e-9
    # both within twice the component overlap 2e^{−4α²}
    assert max(d.value for d in dev) < 4.0 * np.exp(-4.0 * 1.2**2)


@pytest.mark.parametrize("alpha", [1.0, 1.2, 1.6, 1.9, 2.2, 2.8])
def test_parity_sweep_ideal_tolerance_bounds_the_component_overlap(alpha):
    """The ideal deviation is the overlap 2e^{−4α²} of the code components
    above a ~5e-10 floor; twice the overlap, and at least 1e-6, bounds it at
    every α (a bound of 1e-6 at every α once read next to 6.3e-3 at
    α = 1.2)."""
    phis = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    # up to |α| = 1.2 the components overlap by e^{−2α²} > 0.05, which
    # cat_encoding warns about
    with pytest.warns(UserWarning, match="logical basis overlap") if alpha <= 1.2 else contextlib.nullcontext():
        r = run_parity_sweep(mode="ideal", phis=phis, alpha=alpha)
    s = r.summary["max_abs_deviation_from_cos_law"]
    overlap = 2.0 * np.exp(-4.0 * alpha**2)
    assert s.value < max(1e-6, 2.0 * overlap)
    if overlap > 1e-6:
        assert abs(s.value - overlap) < 1e-3 * overlap


def test_parity_sweep_pulse_within_tolerance():
    phis = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    r = run_parity_sweep(mode="pulse", phis=phis)
    s = r.summary["max_abs_deviation_from_cos_law"]
    assert s.value < 0.05


def test_parity_sweep_delta_pi_matches_direct_simulation():
    # displacing toward the far component leaves both components far from the
    # origin: the parity stays near zero for every phi
    phis = np.linspace(0, 2 * np.pi, 4, endpoint=False)
    r = run_parity_sweep(mode="ideal", delta=np.pi, phis=phis)
    for _, parity, _ in r.tables["parity"]["rows"]:
        assert abs(parity) < 0.05
    # the cos law holds only at delta = 0, so the sweep reports no deviation
    assert r.summary == {}


def test_parity_sweep_deterministic():
    phis = np.linspace(0, 2 * np.pi, 4, endpoint=False)
    a = run_parity_sweep(mode="ideal", phis=phis).to_json_dict()
    b = run_parity_sweep(mode="ideal", phis=phis).to_json_dict()
    assert a == b


def test_zgate_repetition_ideal_is_flat():
    r = run_zgate_repetition(m_max=3, mode="ideal")
    assert abs(r.summary["slope_per_gate"].value) < 1e-6
    assert abs(r.summary["intercept_F_ED"].value - 1.0) < 1e-6


def test_zgate_repetition_pulse_reports_decay_consistently():
    r = run_zgate_repetition(m_max=3, mode="pulse")
    s = r.summary
    assert s["intercept_F_ED"].value <= 1.0 + 1e-9
    assert s["per_gate_infidelity"].value >= 0.0
    # slope from the fit agrees with the m in {0, 1} difference
    assert abs(s["slope_consistency_m01"].value) < 0.05
    rows = r.tables["fidelity_vs_m"]["rows"]
    assert [m for m, _ in rows] == [0, 1, 2, 3]


def test_zgate_repetition_decoherent_matches_error_budget():
    """m ∈ {0, 1} under decoherence: the m = 0 channel is encode→decode (F = 1)
    and the m = 1 channel is the error budget's total pipeline."""
    alpha = float(np.sqrt(2.0))
    s = run_zgate_repetition(m_max=1, mode="pulse+decoherence", alpha=alpha).summary
    total = dict(run_error_budget("z", alpha=alpha).tables["budget"]["rows"])["total"]
    assert abs(s["per_gate_infidelity"].value - total) < 1e-12
    assert abs(s["intercept_F_ED"].value - 1.0) < 1e-9


def test_zgate_repetition_decoherent_pinned():
    """m = 0..4 decoherent Z gates, pinned to the values of the
    full-Liouvillian `expm_multiply` solver that the per-component
    propagators replaced."""
    s = run_zgate_repetition(m_max=4, mode="pulse+decoherence").summary
    pinned = {
        "slope_per_gate": -0.04399879108040235,
        "intercept_F_ED": 0.9906118650726328,
        "per_gate_infidelity": 0.04399879108040235,
        "slope_consistency_m01": 0.014821420982322683,
    }
    for name, value in pinned.items():
        assert abs(s[name].value - value) < 1e-12, name


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_error_budget("z"),
        lambda: run_zgate_repetition(m_max=2, mode="pulse+decoherence"),
    ],
    ids=["error-budget", "zgate-repetition"],
)
def test_decoherent_z_gate_forms_one_run_propagator(monkeypatch, run):
    """The Z gate's two half-loops are one drive run: its propagator is formed
    once, one `expm` per coherence-order sector, and reused across both
    half-loops, the four PTM inputs and every repetition."""
    import cavitysim.evolution as evolution

    built, exponentials = [], []
    sectors, expm = evolution._coherence_sectors, evolution._expm

    def counted_sectors(layout, qubit):
        built.append(sectors(layout, qubit))
        return built[-1]

    def counted_expm(a):
        exponentials.append(a.shape)
        return expm(a)

    monkeypatch.setattr(evolution, "_coherence_sectors", counted_sectors)
    monkeypatch.setattr(evolution, "_expm", counted_expm)
    run()
    assert len(built) == 1
    assert len(exponentials) == len(built[0])


def _eigenvector_channel(layout, enc_u, backend, spec, m):
    """Reference closed channel: encode each eigenvector of each input ρ_q
    with the cavity in vacuum, push it alone m times through `apply`,
    decode, trace out the cavity, and mix the results with the eigenvalues."""
    vac = np.eye(layout.space.dims[1])[0]

    def process(rhos):
        outs = np.zeros(rhos.shape, dtype=complex)
        for out, rho_q in zip(outs, rhos):
            w, v = np.linalg.eigh(rho_q)
            for i in range(2):
                if w[i] > 1e-12:
                    x = enc_u @ np.kron(v[:, i], vac)
                    for _ in range(m):
                        x = backend.apply(x, spec)
                    out += w[i] * partial_trace(enc_u.conj().T @ x, layout.space.dims, [0])
        return outs

    return process


@pytest.mark.parametrize("m", [0, 1, 3])
@pytest.mark.parametrize("mode", ["ideal", "pulse"])
def test_closed_encoded_channel_matches_eigenvector_propagation(mode, m):
    """The closed channel contracts every input with the two propagated
    encoded basis columns; by linearity that equals propagating the
    eigenvectors of each PTM input."""
    alpha = float(np.sqrt(2.0))
    dim = recommended_dim(2.0 * alpha)
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": dim})
    enc = cat_encoding(alpha, dim, variant="shifted")
    enc_u = ideal_encoder(enc)
    params = load_params()
    spec = single_cavity_phase_gate(0.0, enc, params)
    if mode == "ideal":
        backend = IdealBackend(layout)
    else:
        backend = PulseBackend(params, layout, compensate=True)
    ptms = realized_logical_map(backend, spec, _code_basis(enc, 1), _encoder_columns(enc), m)
    reference = _eigenvector_channel(layout, enc_u, backend, spec, m)
    assert ptms.shape == (m + 1, 4, 4)
    assert np.max(np.abs(ptms[m] - pauli_transfer(reference, 1))) < 1e-12


def _encoder_trace_oracle(layout, enc_u, backend, spec, m, collapses=None):
    """Reference logical channel: encode each input ρ_q ⊗ |0⟩⟨0| with the
    full encoder E, conjugate m times by the gate unitary (the identity
    pushed through `apply`) or evolve once through `apply_density`, decode
    with E†, and trace out the cavity."""
    dim = layout.space.dim
    vac = np.outer(np.eye(dim // 2)[0], np.eye(dim // 2)[0])
    e = enc_u
    u = backend.apply(np.eye(dim, dtype=complex), spec)

    def one(rho_q):
        rho = e @ np.kron(rho_q, vac) @ e.conj().T
        if collapses is None:
            for _ in range(m):
                rho = u @ rho @ u.conj().T
        else:
            rho = backend.apply_density(rho, spec, collapses)
        return partial_trace_density(e.conj().T @ rho @ e, layout.space.dims, [0])

    return lambda rhos: np.array([one(rho_q) for rho_q in rhos])


@pytest.mark.parametrize("gate", ["z", "s", "t"])
@pytest.mark.parametrize(
    "mode, m", [("ideal", 0), ("ideal", 1), ("ideal", 3), ("pulse", 0), ("pulse", 1), ("pulse", 3), ("pulse+decoherence", 1)]
)
def test_grouped_decode_matches_encoder_then_partial_trace(gate, mode, m):
    """Decoding with the encoder's columns grouped by cavity level, group n
    holding |g,n⟩ and |e,n⟩, is E† followed by a trace over the cavity, for
    the closed channels after m gates and for the decoherent one."""
    params = load_params()
    layout, enc, spec, _ = _phase_gate(gate, params, float(np.sqrt(2.0)))
    decohere = mode == "pulse+decoherence"
    backend = IdealBackend(layout) if mode == "ideal" else PulseBackend(params, layout, compensate=True)
    collapses = standard_collapses(params, layout) if decohere else None
    code, decode = _code_basis(enc, 1), _encoder_columns(enc)
    assert decode.shape == (enc.mode.dim, layout.space.dim, 2)
    assert np.array_equal(code, ideal_encoder(enc)[:, [0, enc.mode.dim]])
    ptms = realized_logical_map(backend, spec, code, decode, m, collapses)
    oracle = _encoder_trace_oracle(layout, ideal_encoder(enc), backend, spec, m, collapses)
    assert ptms.shape == (m + 1, 4, 4)
    assert np.max(np.abs(ptms[m] - pauli_transfer(oracle, 1))) < 1e-13


def _backend_calls(monkeypatch):
    """A counter of the `IdealBackend.apply`, `PulseBackend.apply` and
    `PulseBackend.apply_density` calls made from now on."""
    calls = collections.Counter()
    for cls, method in ((IdealBackend, "apply"), (PulseBackend, "apply"), (PulseBackend, "apply_density")):

        def counted(self, *args, _name=f"{cls.__name__}.{method}", _call=getattr(cls, method)):
            calls[_name] += 1
            return _call(self, *args)

        monkeypatch.setattr(cls, method, counted)
    return calls


@pytest.mark.parametrize("repetitions, decohere", [(3, False), (2, True)], ids=["closed", "decoherence"])
def test_realized_logical_map_plays_each_repetition_once(monkeypatch, repetitions, decohere):
    """The map returns the (M + 1, 4ⁿ, 4ⁿ) PTMs of Gᵐ for m = 0 … M, and
    plays the gate M times: closed, M `apply` calls on the code basis; with
    collapses, M `apply_density` calls on the stack of PTM inputs."""
    params = load_params()
    layout, enc, spec, _ = _phase_gate("z", params, float(np.sqrt(2.0)))
    backend = PulseBackend(params, layout, compensate=True)
    collapses = standard_collapses(params, layout) if decohere else None
    calls = _backend_calls(monkeypatch)
    ptms = realized_logical_map(backend, spec, _code_basis(enc, 1), _encoder_columns(enc), repetitions, collapses)
    assert ptms.shape == (repetitions + 1, 4, 4)
    assert dict(calls) == {"PulseBackend.apply_density" if decohere else "PulseBackend.apply": repetitions}


@pytest.mark.parametrize("gate", ["z", "cz-coherent"])
def test_code_projection_reproduces_qpt_pulse_ptm(gate):
    """One decoding group, the code basis itself, is the projection V†GV
    that `run_qpt` reports: its pulse PTM rows come out exactly."""
    params = load_params()
    alpha = float(np.sqrt(2.0))
    if gate == "z":
        layout, enc, spec, _ = _phase_gate("z", params, alpha)
        backend, n = PulseBackend(params, layout, compensate=True), 1
    else:
        backend, spec, enc = _cz("cat", params, "pulse", alpha)
        n = 2
    g = np.array([1.0, 0.0], dtype=complex)
    words = itertools.product(enc.basis.T, repeat=n)
    code = np.stack([np.kron(g, tensor(w)) for w in words], axis=1)
    ptm = realized_logical_map(backend, spec, code, code[None], 1)[1]
    rows = run_qpt(gate, mode="pulse").tables["ptm"]["rows"]
    assert [v for _, _, v in rows] == ptm.ravel().tolist()


@pytest.mark.parametrize(
    "run, expected",
    [
        (lambda: run_zgate_repetition(mode="pulse"), {"PulseBackend.apply": 4}),
        (lambda: run_zgate_repetition(mode="ideal"), {"IdealBackend.apply": 4}),
        (
            lambda: run_zgate_repetition(mode="pulse+decoherence"),
            {"PulseBackend.apply_density": 4},
        ),
        (
            lambda: run_error_budget("z"),
            {"IdealBackend.apply": 1, "PulseBackend.apply": 2, "PulseBackend.apply_density": 1},
        ),
    ],
    ids=["zgate-repetition", "zgate-repetition-ideal", "zgate-repetition-decoherent", "error-budget"],
)
def test_closed_channel_pushes_one_stack_per_gate(monkeypatch, run, expected):
    """The closed channel pushes the stack (E|g,0⟩, E|e,0⟩) through the gate
    in one call, not the eigenvectors of each PTM input, and each repetition
    feeds the stack of the last one through one more gate: m = 0..4 costs 4
    applications.  The decoherent channel pushes the stack of its four PTM
    inputs in one call too, so it also costs 4.  Each of the error budget's
    three closed fidelities costs 1, and its decoherent one 1."""
    calls = _backend_calls(monkeypatch)
    run()
    assert dict(calls) == expected


def test_qpt_ideal_truth_tables():
    for gate in ("z", "s", "t", "cz-coherent", "cz-binomial"):
        r = run_qpt(gate, mode="ideal")
        s = r.summary["process_fidelity"]
        assert s.value >= 1.0 - 1e-8


def test_binomial_cz_pulse_ptm_is_exact_at_five_levels():
    """The binomial code uses Fock 0, 2 and 4; the CZ drive conserves photon
    number, so the 5-level pulse PTM of `run_qpt` agrees with one computed
    on 7 levels per cavity to 1e-14, from the same calibrated pulse."""
    params = load_params()
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 7, "S2": 7})
    backend = PulseBackend(params, layout, compensate=False)
    spec, _ = cz_binomial(backend)
    code = _code_basis(binomial_encoding(7), 2)
    ref = realized_logical_map(backend, spec, code, code[None], 1)[1]

    r = run_qpt("cz-binomial", mode="pulse")
    assert r.gate_spec.to_json_dict() == spec.to_json_dict()
    out = np.array([v for _, _, v in r.tables["ptm"]["rows"]]).reshape(ref.shape)
    assert np.max(np.abs(out - ref)) < 1e-14
    assert _cz("binomial", params, "ideal", 0.0)[0].layout.space.dims == (2, 5, 5)


def test_qpt_reference_rows_are_reference_only():
    r = run_qpt("cz-binomial", mode="ideal")
    for key in (
        "measured_F_ED_reference",
        "measured_F_gate_ED_reference",
        "measured_F_gate_reference",
    ):
        assert r.summary[key].reference
    assert r.summary["measured_F_gate_reference"].value == 0.894


@pytest.mark.parametrize("gate", ["z", "s", "t"])
def test_qpt_single_cavity_gate_carries_no_cz_reference(gate):
    """The measured references are those of each code's CZ, so a
    single-cavity phase gate carries none (it used to carry the cat CZ's)."""
    assert sorted(run_qpt(gate, mode="ideal").summary) == ["process_fidelity"]


def test_qpt_cat_cz_carries_the_cat_references():
    summary = run_qpt("cz-coherent", mode="ideal").summary
    values = {k: s.value for k, s in summary.items() if s.reference}
    assert values == {
        "measured_F_ED_reference": 0.954,
        "measured_F_gate_ED_reference": 0.859,
        "measured_F_gate_reference": 0.905,
    }


def test_qpt_ideal_s_gate_matches_analytic_ptm():
    r = run_qpt("s", mode="ideal")
    entries = {(a, b): v for a, b, v in r.tables["ptm"]["rows"]}
    # diag(1, -i) conjugation: X -> -Y, Y -> X, Z -> Z
    assert entries[("X", "Y")] == pytest.approx(-1.0, abs=1e-8)
    assert entries[("Y", "X")] == pytest.approx(1.0, abs=1e-8)
    assert entries[("Z", "Z")] == pytest.approx(1.0, abs=1e-8)
    assert entries[("X", "X")] == pytest.approx(0.0, abs=1e-8)


def test_qpt_pulse_cz_coherent():
    r = run_qpt("cz-coherent", mode="pulse")
    s = r.summary["process_fidelity"]
    assert s.value >= 0.98
    assert r.parameters["mode"] == "pulse"


def test_qpt_unknown_gate_rejected():
    with pytest.raises(ValidationError):
        run_qpt("cnot")


@pytest.mark.parametrize("gate", ["x", "cz-binomial"])
def test_error_budget_refuses_a_gate_that_is_not_single_cavity(gate):
    with pytest.raises(ValidationError, match=f"'{gate}' is not one of the single-cavity gates Z/S/T"):
        run_error_budget(gate)


def test_qpt_rejects_modes_it_does_not_simulate():
    for mode in ("pulse+decoherence", "puls"):
        with pytest.raises(ValidationError):
            run_qpt("z", mode=mode)


def test_bell_generation_binomial_ideal_exact():
    r = run_bell_generation("binomial", mode="ideal")
    s = r.summary["bell_fidelity"]
    assert s.value >= 1.0 - 1e-8
    # reduced cavity states are maximally mixed on the code space
    assert abs(r.summary["purity_cavity_1"].value - 0.5) < 0.05
    assert abs(r.summary["purity_cavity_2"].value - 0.5) < 0.05
    assert r.summary["measured_bell_fidelity_reference"].reference


def test_bell_generation_cat_four_component_structure():
    r = run_bell_generation("cat", mode="ideal")
    assert r.summary["four_component_overlap"].value >= 0.95
    assert r.summary["bell_fidelity"].value >= 0.95


def test_bell_generation_binomial_pulse():
    r = run_bell_generation("binomial", mode="pulse")
    assert r.summary["bell_fidelity"].value >= 0.95


def test_bell_generation_wigner_cuts_present():
    r = run_bell_generation("binomial", mode="ideal")
    rows = r.tables["joint_wigner_cuts"]["rows"]
    assert len(rows) == 21
    vals = np.array([row[1] for row in rows])
    assert np.max(np.abs(vals)) <= 1.0 + 1e-9  # raw joint parity range


def test_snap_bell_both_signs():
    for sign in (+1, -1):
        r = run_snap_bell(sign, mode="ideal")
        assert r.summary["bell_fidelity"].value >= 0.95
        assert r.summary["cross_fidelity"].value < 0.05
        assert r.summary["purity_cavity_1"].value <= 0.55
        assert r.summary["purity_cavity_2"].value <= 0.55


def test_snap_bell_provenance_and_tables():
    r = run_snap_bell(+1, mode="ideal")
    assert set(r.provenance) == {"config_hash", "mode"}
    assert r.provenance["mode"] == "ideal"
    assert len(r.provenance["config_hash"]) == 64
    table = r.tables["wigner_cuts"]
    assert tuple(table["columns"]) == ("x", "w_cavity_1", "w_cavity_2")
    assert len(table["rows"]) == 21


def test_unknown_modes_rejected():
    with pytest.raises(ValidationError):
        run_parity_sweep(mode="lindblad")
    with pytest.raises(ValidationError):
        run_snap_bell(+1, mode="noisy")
    with pytest.raises(ValidationError):
        run_bell_generation("gkp")
