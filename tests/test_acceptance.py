"""End-to-end acceptance suite: analytic laws, oracle equivalences, and
pinned tolerances for every top-level capability of the package."""

import json
import os
import time

import numpy as np
import pytest

from cavitysim.cli import main as cli_main
from cavitysim.codes import (
    binomial_encoding,
    cat_encoding,
    ideal_encoder,
)
from cavitysim.device import (
    SystemLayout,
    cavity_static_diag,
    default_config_text,
    load_params,
    static_hamiltonian,
)
from cavitysim.evolution import (
    LindbladPropagators,
    PulseSequence,
    lindblad_evolve,
    standard_collapses,
)
from cavitysim.experiments import (
    run_bell_generation,
    run_error_budget,
    run_parity_sweep,
    run_qpt,
    run_snap_bell,
)
from cavitysim.fock import DensityOp, fock_ket, qubit_ket
from cavitysim.gates import component_logical_unitary, single_cavity_phase_gate, wrap_angle
from cavitysim import grape
from cavitysim.grape import TransferTask, binomial_encode_task, optimize
from cavitysim.readout import correct_readout, default_assignment, sample_assignment
from cavitysim.tomography import pauli_labels, pauli_matrix, pauli_transfer

from oracles import density, lift, number_op, tensor

PARAMS = load_params(default_config_text())


# ---------------------------------------------------------------------------
# 1. Parity interference law


def test_parity_law_ideal_and_pulse():
    start = time.monotonic()
    phis = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)

    ideal = run_parity_sweep(mode="ideal", phis=phis)
    assert ideal.summary["max_abs_deviation_from_cos_law"].value < 1e-6

    # selective drive at a twentieth of the code splitting (the recipe default)
    pulse = run_parity_sweep(mode="pulse", phis=phis, alpha=float(np.sqrt(2.0)))
    assert pulse.summary["max_abs_deviation_from_cos_law"].value < 0.05

    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 2. Geometric phase identity


@pytest.mark.parametrize(
    "delta_phi", [0.0, np.pi / 4, -np.pi / 4, np.pi / 2, -np.pi / 2, np.pi]
)
def test_geometric_phase_equals_pi_plus_axis_offset(delta_phi):
    alpha = float(np.sqrt(2.0))
    enc = cat_encoding(alpha, 16, variant="shifted")
    spec = single_cavity_phase_gate(delta_phi, enc, PARAMS)
    l = component_logical_unitary(spec, ["S1"], "Q1")
    gamma = wrap_angle(float(np.angle(l[1, 1]) - np.angle(l[0, 0])))
    assert abs(wrap_angle(gamma - (np.pi + delta_phi))) < 1e-6


# ---------------------------------------------------------------------------
# 3. Gate truth tables


@pytest.mark.parametrize("gate", ["z", "s", "t", "cz-coherent", "cz-binomial"])
def test_ideal_gate_truth_tables(gate):
    r = run_qpt(gate, mode="ideal")
    assert r.summary["process_fidelity"].value >= 1.0 - 1e-8


def test_pulse_gate_truth_tables():
    assert run_qpt("cz-coherent", mode="pulse").summary["process_fidelity"].value >= 0.98
    assert run_qpt("cz-binomial", mode="pulse").summary["process_fidelity"].value >= 0.95


# ---------------------------------------------------------------------------
# 4. Pauli-transfer-matrix oracle equivalence

_H1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_S1 = np.diag([1.0, 1.0j]).astype(complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _random_clifford(n_qubits: int, rng) -> np.ndarray:
    gens = []
    eye = np.eye(2, dtype=complex)
    for q in range(n_qubits):
        for g in (_H1, _S1):
            ops = [eye] * n_qubits
            ops[q] = g
            full = ops[0]
            for op in ops[1:]:
                full = np.kron(full, op)
            gens.append(full)
    if n_qubits == 2:
        gens.append(_CNOT)
    u = np.eye(2**n_qubits, dtype=complex)
    for _ in range(20):
        u = gens[rng.integers(len(gens))] @ u
    return u


def _brute_force_ptm(u: np.ndarray, n_qubits: int) -> np.ndarray:
    d = 2**n_qubits
    labels = pauli_labels(n_qubits)
    r = np.zeros((len(labels), len(labels)))
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            pi, pj = pauli_matrix(li), pauli_matrix(lj)
            r[i, j] = np.real(np.trace(pi @ u @ pj @ u.conj().T)) / d
    return r


def test_ptm_matches_brute_force_pauli_conjugation():
    rng = np.random.default_rng(11)
    for n_qubits in (1, 2):
        for _ in range(10):
            u = _random_clifford(n_qubits, rng)
            R = pauli_transfer(lambda rhos: u @ rhos @ u.conj().T, n_qubits)
            assert np.abs(R - _brute_force_ptm(u, n_qubits)).max() < 1e-8


# ---------------------------------------------------------------------------
# 5. Open-system analytic decay laws


def test_cavity_photon_number_decays_at_T1():
    """|g⟩|2⟩ under every standard channel: the qubit stays in |g⟩, and the
    photon number decays at the cavity's 1/T1."""
    t1 = PARAMS.T1["S1"]
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 4})
    h0 = static_hamiltonian(PARAMS, layout)
    propagators = LindbladPropagators(h0, standard_collapses(PARAMS, layout), layout)
    rho = DensityOp(layout.space, density(tensor([qubit_ket(0), fock_ket(layout.mode("S1"), 2)])))
    n_op = lift(number_op(layout.mode("S1")), layout.index["S1"], layout.space)
    for t in (0.5 * t1, 1.5 * t1, 3.0 * t1):
        # free evolution: one undriven sample of length t
        idle = PulseSequence("Q1", [0.0], t)
        out = lindblad_evolve(rho, idle, propagators)
        n_t = float(np.real(np.trace(out @ n_op)))
        expected = 2.0 * np.exp(-t / t1)
        assert abs(n_t - expected) / expected < 1e-6


def test_qubit_coherence_decays_at_T2():
    t2 = PARAMS.T2["Q1"]
    layout = SystemLayout.build(["Q1"], [], {})
    propagators = LindbladPropagators(np.zeros(2), standard_collapses(PARAMS, layout), layout)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho = DensityOp(layout.space, density(plus))
    for t in (0.5 * t2, 1.5 * t2, 3.0 * t2):
        idle = PulseSequence("Q1", [0.0], t)
        out = lindblad_evolve(rho, idle, propagators)
        coherence = abs(out[0, 1])
        expected = 0.5 * np.exp(-t / t2)
        assert abs(coherence - expected) / expected < 1e-6


# ---------------------------------------------------------------------------
# 6. Encode / free-Kerr / decode round trip


@pytest.mark.parametrize(
    "enc_name,enc",
    [
        ("cat", cat_encoding(float(np.sqrt(2.0)), 30, variant="shifted")),
        ("binomial", binomial_encoding(7)),
    ],
)
def test_encode_kerr_decode_round_trip(enc_name, enc):
    """Encode, evolve freely under the static Hamiltonian, undo its Kerr
    phases as the compensating pulse backend does (the phase vector
    e^{+i cavity_static_diag t}), decode: the input comes back."""
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": enc.mode.dim})
    h0 = static_hamiltonian(PARAMS, layout)
    undo = cavity_static_diag(PARAMS, layout)
    enc_u = ideal_encoder(enc)
    rng = np.random.default_rng(13)
    for _ in range(100):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c /= np.linalg.norm(c)
        t = rng.uniform(0.0, 10_000.0)  # up to 10 us of free evolution
        psi0 = np.kron(c, np.eye(enc.mode.dim)[0])
        x = np.exp(1j * undo * t) * (np.exp(-1j * h0 * t) * (enc_u @ psi0))
        out = enc_u.conj().T @ x
        assert abs(np.vdot(psi0, out)) ** 2 >= 1.0 - 1e-8


# ---------------------------------------------------------------------------
# 7. Optimal-control gradients and convergence


def _small_control_task(n_steps=8, dim=4):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": dim})
    init = tensor([qubit_ket(0), fock_ket(layout.mode("S1"), 0)])
    targ = tensor([qubit_ket(1), fock_ket(layout.mode("S1"), 0)])
    return TransferTask(
        pairs=((init, targ),),
        H0=static_hamiltonian(PARAMS, layout),
        layout=layout,
        channels=("Q1", "S1"),
        n_steps=n_steps,
    )


def test_gradient_matches_finite_differences_on_random_pulses(dense_evolve):
    """GRAPE's analytic gradient against central differences of the dense
    oracle's fidelity, along random directions."""
    task = _small_control_task()
    init, targ = task.pairs[0]
    h = 1e-6
    rng = np.random.default_rng(17)
    for trial in range(20):
        amps = {
            ch: 0.05
            * (rng.standard_normal(task.n_steps) + 1j * rng.standard_normal(task.n_steps))
            for ch in task.channels
        }
        _, grad = grape._fidelity_and_gradient(np.stack([amps[ch] for ch in task.channels]), task)
        grad = dict(zip(task.channels, grad))
        # directional finite difference along a random perturbation
        direction = {
            ch: rng.standard_normal(task.n_steps)
            + 1j * rng.standard_normal(task.n_steps)
            for ch in task.channels
        }

        def fidelity_at(scale):
            channels = {
                ch: amps[ch] + scale * direction[ch] for ch in task.channels
            }
            out = dense_evolve(init, task.H0, channels, grape._DT, task.layout)
            return abs(np.vdot(targ, out)) ** 2

        fd = (fidelity_at(h) - fidelity_at(-h)) / (2.0 * h)
        analytic = sum(
            float(
                np.dot(grad[ch].real, direction[ch].real)
                + np.dot(grad[ch].imag, direction[ch].imag)
            )
            for ch in task.channels
        )
        assert abs(fd - analytic) / max(abs(fd), 1e-8) < 1e-5


def test_optimizer_reaches_encode_fidelity(dense_evolve):
    start = time.monotonic()
    task = binomial_encode_task(PARAMS, 8, 500)
    pulse, report = optimize(task, max_iters=400, target_fidelity=0.995, seed=4)
    assert report.final_fidelity >= 0.99
    # reported fidelity reproduced by the dense reference evolution
    ins = np.stack([p[0] for p in task.pairs], axis=1)
    targets = np.stack([p[1] for p in task.pairs], axis=1)
    channels = dict(zip(task.channels, pulse))
    out = dense_evolve(ins, static_hamiltonian(PARAMS, task.layout), channels, grape._DT, task.layout)
    overlaps = np.sum(targets.conj() * out, axis=0)
    assert abs(abs(np.mean(overlaps)) ** 2 - report.final_fidelity) < 1e-10
    assert abs(overlaps[2]) ** 2 >= 0.98
    assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------------------
# 8. Readout assignment correction


def test_readout_inversion_of_random_probabilities():
    R = default_assignment()
    rng = np.random.default_rng(19)
    for _ in range(100):
        p = rng.dirichlet(np.ones(R.dim))
        assert np.abs(correct_readout(R.R @ p, R) - p).max() < 1e-9


def test_readout_sampled_pipeline_within_three_sigma():
    R = default_assignment()
    shots = 100_000
    rng = np.random.default_rng(23)
    p_true = rng.dirichlet(np.ones(R.dim) * 5.0)
    counts = sample_assignment(p_true, R, shots=shots, seed=29)
    corrected = correct_readout(counts / counts.sum(), R)
    q = R.R @ p_true
    r_inv = R.inverse
    # var(sum_j a_j f_j) <= sum_j a_j^2 q_j / N for multinomial frequencies
    sigma = np.sqrt((r_inv**2) @ q / shots)
    assert np.all(np.abs(corrected - p_true) <= 3.0 * sigma + 1e-12)


def test_readout_first_column_corrects_to_unit_vector():
    R = default_assignment()
    corrected = correct_readout(R.R[:, 0], R)
    assert np.abs(corrected - np.eye(R.dim)[0]).max() < 1e-9


# ---------------------------------------------------------------------------
# 9. Bell-state generation


def test_logical_bell_ideal_fidelity_is_unity():
    r = run_bell_generation("binomial", mode="ideal")
    assert r.summary["bell_fidelity"].value >= 1.0 - 1e-8


def test_single_photon_bell_pair_properties():
    fplus = run_snap_bell(+1, mode="ideal")
    fminus = run_snap_bell(-1, mode="ideal")
    for r in (fplus, fminus):
        assert r.summary["bell_fidelity"].value >= 0.95
        assert r.summary["cross_fidelity"].value < 0.05
        assert r.summary["purity_cavity_1"].value <= 0.55
        assert r.summary["purity_cavity_2"].value <= 0.55


# ---------------------------------------------------------------------------
# 10. Error budget structure


def test_error_budget_decoherence_and_row_sum():
    r = run_error_budget("z")
    budget = {name: val for name, val in r.tables["budget"]["rows"]}
    estimate = r.summary["relaxation_estimate_T_over_2T1"].value
    assert estimate / 2.0 <= budget["decoherence"] <= 2.0 * estimate
    row_sum = sum(v for name, v in budget.items() if name != "total")
    assert abs(row_sum - budget["total"]) <= 0.2 * budget["total"]


# ---------------------------------------------------------------------------
# 11. Reproducibility of exported data


def _dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_identical_manifests_give_byte_identical_outputs(tmp_path):
    for args in (
        ["parity-sweep", "--mode", "ideal", "--phis", "0:6.283:8"],
        ["qpt", "--gate", "s", "--mode", "pulse"],
    ):
        a, b = tmp_path / f"{args[0]}_a", tmp_path / f"{args[0]}_b"
        assert cli_main(args + ["-o", str(a)]) == 0
        assert cli_main(args + ["-o", str(b)]) == 0
        am, bm = _dir_bytes(a), _dir_bytes(b)
        assert json.loads(am["manifest.json"]) == json.loads(bm["manifest.json"])
        assert am == bm
