import numpy as np
import pytest

from cavitysim.errors import ValidationError
from cavitysim.readout import (
    AssignmentMatrix,
    correct_readout,
    default_assignment,
    load_assignment,
    load_assignment_csv,
    project_to_simplex,
    sample_assignment,
)


def test_bundled_assignment_entries():
    am = default_assignment()
    assert am.n_qubits == 3
    # (000 | ggg) is quoted as 95.2% before renormalization
    assert abs(am.R[0, 0] - 0.952) < 2e-3
    assert np.allclose(am.R.sum(axis=0), 1.0, atol=1e-12)
    assert am.condition_number < 10.0


def test_identity_table_is_perfect_readout():
    am = load_assignment(np.eye(4))
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(correct_readout(p, am), p)


def test_renormalization_warning():
    r = np.eye(2) * 0.90
    with pytest.warns(UserWarning, match="renormalizing"):
        am = load_assignment(r)
    assert np.allclose(am.R, np.eye(2))


def test_negative_entry_rejected():
    r = np.array([[1.1, 0.0], [-0.1, 1.0]])
    with pytest.raises(ValidationError):
        load_assignment(r)


def test_singular_matrix_rejected():
    r = np.full((2, 2), 0.5)
    with pytest.raises(ValidationError):
        load_assignment(r)


def test_non_power_of_two_rejected():
    with pytest.raises(ValidationError):
        load_assignment(np.eye(3))


def test_column_stochastic_invariant_enforced():
    with pytest.raises(ValidationError):
        AssignmentMatrix(np.array([[0.9, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "table",
    [np.eye(3), np.eye(4)[:2], np.ones(4) / 4, np.float64(1.0), np.ones((2, 2, 2)) / 2, np.zeros((0, 0))],
    ids=["side-3", "non-square", "vector", "scalar", "stack", "empty"],
)
def test_assignment_matrix_holds_a_square_power_of_two_side(table):
    """The class checks R's shape itself, and `load_assignment` leaves it to
    it; n_qubits and dim are read off R's side."""
    with pytest.raises(ValidationError, match="power-of-2 side"):
        AssignmentMatrix(table)
    with pytest.raises(ValidationError):
        load_assignment(table)
    am = AssignmentMatrix(np.eye(8))
    assert (am.n_qubits, am.dim) == (3, 8)
    assert am.outcome_labels()[-1] == "111"


def test_csv_round_trip_matches_direct_load():
    am = default_assignment()
    # probability-valued CSV (not percent) loads to the same matrix
    labels = ["gg", "ge", "eg", "ee"]
    r = np.array(
        [
            [0.95, 0.04, 0.05, 0.01],
            [0.02, 0.94, 0.01, 0.05],
            [0.02, 0.01, 0.92, 0.04],
            [0.01, 0.01, 0.02, 0.90],
        ]
    )
    lines = ["outcome," + ",".join(labels)]
    for i in range(4):
        lines.append(format(i, "02b") + "," + ",".join(f"{v}" for v in r[:, 0:][i]))
    am2 = load_assignment_csv("\n".join(lines))
    assert np.allclose(am2.R, r / r.sum(axis=0))
    assert am.n_qubits == 3 and am2.n_qubits == 2


def test_csv_rejects_bad_labels():
    with pytest.raises(ValidationError):
        load_assignment_csv("outcome,aa,ab,ba,bb\n00,1,0,0,0\n")


def test_correct_readout_inversion_identity():
    am = default_assignment()
    # measuring the |ggg⟩ column must correct back to the unit vector e_000
    p = am.R[:, 0]
    corrected = correct_readout(p, am)
    e0 = np.zeros(8)
    e0[0] = 1.0
    assert np.max(np.abs(corrected - e0)) < 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_correct_readout_rejects_non_finite_entries(bad):
    """Every comparison with NaN is false, so NaN passed the sign and sum checks."""
    am = default_assignment()
    with pytest.raises(ValidationError, match="finite"):
        correct_readout(np.full(8, bad), am)
    p = np.full(8, 1 / 8)
    p[3] = bad
    with pytest.raises(ValidationError, match="finite"):
        sample_assignment(p, am, shots=10, seed=0)


def test_correct_readout_round_trip_random():
    am = default_assignment()
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.dirichlet(np.ones(8))
        assert np.max(np.abs(correct_readout(am.R @ p, am) - p)) < 1e-9


def test_raw_corrected_vector_sums_to_one():
    am = default_assignment()
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = rng.dirichlet(np.ones(8))
        corrected = correct_readout(p, am)
        assert abs(corrected.sum() - 1.0) < 1e-9


def test_projected_mode_is_valid_distribution():
    am = default_assignment()
    # a sharply peaked measured vector typically inverts to negative entries
    p = np.zeros(8)
    p[0] = 1.0
    raw = correct_readout(p, am)
    assert np.min(raw) < 0  # negativity is informative in raw mode
    proj = correct_readout(p, am, project=True)
    assert np.min(proj) >= 0
    assert abs(proj.sum() - 1.0) < 1e-12


def test_simplex_projection_fixes_valid_points():
    p = np.array([0.2, 0.3, 0.5])
    assert np.allclose(project_to_simplex(p), p)
    v = np.array([1.4, -0.4])
    out = project_to_simplex(v)
    assert np.allclose(out, [1.0, 0.0])


def test_sample_assignment_deterministic():
    am = default_assignment()
    p = np.full(8, 1 / 8)
    c1 = sample_assignment(p, am, shots=1000, seed=11)
    c2 = sample_assignment(p, am, shots=1000, seed=11)
    assert np.array_equal(c1, c2)
    assert c1.sum() == 1000


def test_sample_assignment_identity_delta():
    am = load_assignment(np.eye(8))
    p = np.zeros(8)
    p[5] = 1.0
    counts = sample_assignment(p, am, shots=500, seed=0)
    assert counts[5] == 500


def test_monte_carlo_correction_within_shot_noise():
    am = default_assignment()
    rng = np.random.default_rng(42)
    p_true = rng.dirichlet(np.ones(8))
    shots = 100_000
    counts = sample_assignment(p_true, am, shots=shots, seed=42)
    corrected = correct_readout(counts / shots, am)
    sigma = np.sqrt(p_true * (1 - p_true) / shots)
    # correction amplifies shot noise by at most ||R^-1||
    amp = np.linalg.norm(am.inverse, ord=np.inf)
    assert np.all(np.abs(corrected - p_true) <= 3 * amp * np.maximum(sigma, 1e-4))


def test_law_of_large_numbers():
    am = default_assignment()
    p_true = np.array([0.4, 0.1, 0.1, 0.05, 0.15, 0.05, 0.1, 0.05])
    shots = 1_000_000
    counts = sample_assignment(p_true, am, shots=shots, seed=5)
    assert np.max(np.abs(counts / shots - am.R @ p_true)) < 5e-3


_ONE_QUBIT = AssignmentMatrix(np.eye(2))


@pytest.mark.parametrize(
    "run, match",
    [
        (lambda: load_assignment([[1.0, 0.0], [0.7, 1.0]]), "deviate from unit sum by 0.700"),
        (lambda: load_assignment_csv(",g,e\n"), "has no data rows"),
        (lambda: load_assignment_csv(",e,g\n0,1,0\n1,0,1\n"), r"columns must be \['g', 'e'\]"),
        (lambda: load_assignment_csv(",g,e\n1,0.9,0.1\n0,0.1,0.9\n"), r"rows must be \['0', '1'\]"),
        (lambda: correct_readout([0.5, 0.25, 0.25], _ONE_QUBIT), "has 3 entries, matrix expects 2"),
        (lambda: correct_readout([[0.5], [0.5]], _ONE_QUBIT), r"has shape \(2, 1\), matrix expects 2"),
        (lambda: correct_readout([1.2, -0.2], _ONE_QUBIT), "may not be negative"),
        (lambda: correct_readout([0.5, 0.4], _ONE_QUBIT), "must sum to 1 within 1e-6"),
        (lambda: sample_assignment([0.5, 0.5], _ONE_QUBIT, shots=0, seed=0), "shots must be positive"),
    ],
    ids=[
        "gross-column-deviation",
        "csv-without-rows",
        "csv-column-order",
        "csv-row-order",
        "vector-length",
        "vector-shape",
        "negative-probability",
        "probability-sum",
        "no-shots",
    ],
)
def test_readout_refusals(run, match):
    with pytest.raises(ValidationError, match=match):
        run()
