import numpy as np
import pytest

from cavitysim.errors import ValidationError
from cavitysim.experiments import (
    ExperimentResult,
    Scalar,
    run_bell_generation,
    run_error_budget,
    run_parity_sweep,
    run_qpt,
    run_snap_bell,
    run_zgate_repetition,
)


def test_scalar_requires_tolerance_unless_reference():
    with pytest.raises(ValidationError):
        Scalar(0.5)
    assert Scalar(0.5, reference=True).tolerance is None
    assert Scalar(0.5, 1e-3).tolerance == 1e-3


def test_result_rejects_non_scalar_summary():
    with pytest.raises(ValidationError):
        ExperimentResult(name="x", summary={"f": 0.5})


def test_parity_sweep_ideal_matches_cos_law():
    phis = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    r = run_parity_sweep(mode="ideal", phis=phis)
    s = r.summary["max_abs_deviation_from_cos_law"]
    assert s.value < s.tolerance == 1e-6
    rows = r.tables["parity"]["rows"]
    assert len(rows) == 16
    # fringe endpoints: P(0) = -1, P(pi) = +1
    by_phi = {round(p, 9): v for p, v, _ in rows}
    assert abs(by_phi[0.0] + 1.0) < 1e-6
    assert abs(by_phi[round(np.pi, 9)] - 1.0) < 1e-6


def test_parity_sweep_pulse_within_tolerance():
    phis = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    r = run_parity_sweep(mode="pulse", phis=phis)
    s = r.summary["max_abs_deviation_from_cos_law"]
    assert s.value < s.tolerance == 0.05


def test_parity_sweep_delta_pi_matches_direct_simulation():
    # displacing toward the far component leaves both components far from the
    # origin: the parity stays near zero for every phi
    phis = np.linspace(0, 2 * np.pi, 4, endpoint=False)
    r = run_parity_sweep(mode="ideal", delta=np.pi, phis=phis)
    for _, parity, _ in r.tables["parity"]["rows"]:
        assert abs(parity) < 0.05
    assert r.summary["max_abs_deviation_from_cos_law"].reference


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
    assert abs(s["slope_consistency_m01"].value) < s["slope_consistency_m01"].tolerance
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


def test_qpt_ideal_truth_tables():
    for gate in ("z", "s", "t", "cz-coherent", "cz-binomial"):
        r = run_qpt(gate, mode="ideal")
        s = r.summary["process_fidelity"]
        assert s.value >= 1.0 - 1e-8
        assert s.tolerance == 1e-8


def test_qpt_reference_rows_are_reference_only():
    r = run_qpt("cz-binomial", mode="ideal")
    for key in (
        "measured_F_ED_reference",
        "measured_F_gate_ED_reference",
        "measured_F_gate_reference",
    ):
        assert r.summary[key].reference
    assert r.summary["measured_F_gate_reference"].value == 0.894


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


def test_qpt_rejects_modes_it_does_not_simulate():
    for mode in ("pulse+decoherence", "puls"):
        with pytest.raises(ValidationError):
            run_qpt("z", mode=mode)


def test_bell_generation_binomial_ideal_exact():
    r = run_bell_generation("binomial", mode="ideal")
    s = r.summary["bell_fidelity"]
    assert s.value >= 1.0 - 1e-8
    assert s.tolerance == 1e-8
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
    r = run_snap_bell(+1, mode="ideal", seed=7)
    assert r.provenance["seed"] == 7
    assert r.provenance["mode"] == "ideal"
    assert len(r.provenance["config_hash"]) == 64
    header, *rows = list(r.table_csv_rows("wigner_cuts"))
    assert header == ("x", "w_cavity_1", "w_cavity_2")
    assert len(rows) == 21


def test_unknown_modes_rejected():
    with pytest.raises(ValidationError):
        run_parity_sweep(mode="lindblad")
    with pytest.raises(ValidationError):
        run_snap_bell(+1, mode="noisy")
    with pytest.raises(ValidationError):
        run_bell_generation("gkp")
