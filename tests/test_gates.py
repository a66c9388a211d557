import numpy as np
import pytest

from cavitysim.codes import binomial_encoding, cat_encoding
from cavitysim.device import SystemLayout, drive_operator, load_params, static_hamiltonian
from cavitysim.evolution import segment_propagator
from cavitysim.errors import ValidationError
from cavitysim.fock import (
    Ket,
    LinearOp,
    expectation,
    fock_ket,
    parity_op,
    partial_trace,
    qubit_ket,
    tensor,
)
from cavitysim.gates import (
    CANONICAL_DELTA_PHI,
    ConditionalRotation,
    Displacement,
    GateSpec,
    IdealBackend,
    MultitonePulse,
    PulseBackend,
    Tone,
    Wait,
    accumulated_phase_table,
    component_logical_unitary,
    conditional_rotation,
    cz_binomial,
    cz_coherent,
    dispersive_phase_table,
    gaussian_flattop,
    phase_gate_report,
    simulate_joint_state_phases,
    single_cavity_phase_gate,
    snap_bell,
    wrap_angle,
)
from cavitysim.tomography import (
    pauli_transfer,
    process_fidelity,
    unitary_transfer,
)

CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


@pytest.fixture(scope="module")
def params():
    return load_params()


def test_gate_spec_serialization_roundtrip():
    spec = GateSpec(
        "demo",
        (
            Displacement("S1", 0.5 - 0.25j),
            ConditionalRotation("Q1", 0.3, np.pi, 0.01, (("S1", 0),)),
            Wait(12.5),
            MultitonePulse("Q1", (Tone(-0.01, 0.002, 1.2), Tone(0.0, 0.001, -0.4)), 500.0),
        ),
    )
    spec2 = GateSpec.from_json_dict(spec.to_json_dict())
    assert spec2 == spec
    assert abs(spec.duration - (np.pi / 0.01 + 12.5 + 500.0)) < 1e-12


def test_gate_step_validation():
    with pytest.raises(ValidationError):
        ConditionalRotation("Q1", 0.0, -1.0, 0.01)
    with pytest.raises(ValidationError):
        ConditionalRotation("Q1", 0.0, np.pi, 0.0)
    with pytest.raises(ValidationError):
        Wait(0.0)
    with pytest.raises(ValidationError):
        GateSpec("bad", ("not-a-step",))


def test_conditional_rotation_selectivity_guards():
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 4})
    gap = 0.03
    with pytest.raises(ValidationError):
        conditional_rotation(layout, "Q1", 0.0, np.pi, (("S1", 0),), 0.011, gap)
    with pytest.warns(UserWarning):
        conditional_rotation(layout, "Q1", 0.0, np.pi, (("S1", 0),), 0.005, gap)
    step, u = conditional_rotation(layout, "Q1", 0.0, np.pi, (("S1", 0),), 0.002, gap)
    u.assert_unitary(1e-9)
    assert abs(step.duration - np.pi / 0.002) < 1e-12


def test_ideal_conditional_pi_flip_and_2pi_sign():
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 4})
    _, u_pi = conditional_rotation(layout, "Q1", 0.0, np.pi, (("S1", 0),), 0.01)
    psi_vac = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 0)])
    out = u_pi @ psi_vac
    assert abs(abs(out.amplitudes[layout.space.joint_index((1, 0))]) - 1.0) < 1e-10
    _, u_2pi = conditional_rotation(layout, "Q1", 0.7, 2 * np.pi, (("S1", 0),), 0.01)
    assert abs((u_2pi @ psi_vac).overlap(psi_vac) + 1.0) < 1e-10
    psi_two = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 2)])
    assert abs((u_2pi @ psi_two).overlap(psi_two) - 1.0) < 1e-12


def test_geometric_phase_law_sweep():
    """gamma = pi + dphi, measured by integrating the conditional dynamics."""
    enc = cat_encoding(0.9, 20, variant="shifted")
    for dphi in np.linspace(-np.pi, np.pi, 9, endpoint=False):
        spec = single_cavity_phase_gate(dphi, enc)
        rep = phase_gate_report(spec, dphi, "S1", "Q1")
        assert rep.consistent(1e-9)
        assert abs(wrap_angle(rep.gamma - (np.pi + dphi))) < 1e-9
        assert abs(rep.solid_angle - 2 * rep.gamma) < 1e-15


def test_canonical_phase_gates():
    enc = cat_encoding(0.9, 20, variant="shifted")
    expected_gamma = {"Z": np.pi, "S": np.pi / 2, "T": np.pi / 4}
    for name, dphi in CANONICAL_DELTA_PHI.items():
        spec = single_cavity_phase_gate(dphi, enc)
        l = component_logical_unitary(spec, ["S1"], "Q1")
        phase = wrap_angle(float(np.angle(l[1, 1]) - np.angle(l[0, 0])))
        assert abs(wrap_angle(phase - expected_gamma[name])) < 1e-9
        assert abs(abs(l[0, 0]) - 1.0) < 1e-10
        assert abs(abs(l[1, 1]) - 1.0) < 1e-10


def test_phase_gate_requires_shifted_cat():
    enc = cat_encoding(1.0, 20, variant="symmetric")
    with pytest.raises(ValidationError):
        single_cavity_phase_gate(0.0, enc)


def test_phase_gate_parity_reversal_fock_level():
    """Z gate turns the even shifted cat into an odd cat after recombination."""
    alpha = 1.2
    enc = cat_encoding(alpha, 30, variant="shifted")
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 30})
    backend = IdealBackend(layout)
    spec = single_cavity_phase_gate(0.0, enc)
    raw = enc.ket0.amplitudes + enc.ket1.amplitudes
    psi_cav = Ket(enc.ket0.space, raw).normalized()
    psi = tensor([qubit_ket(False), psi_cav])
    from cavitysim.fock import displacement

    recombine = layout.lift(displacement(-alpha, layout.mode("S1")), "S1")

    before = recombine @ psi
    p_before = np.real(
        expectation(partial_trace(before, [1]), parity_op(layout.mode("S1")))
    )
    after = recombine @ backend.apply(psi, spec)
    p_after = np.real(
        expectation(partial_trace(after, [1]), parity_op(layout.mode("S1")))
    )
    assert p_before > 0.8
    assert p_after < -0.8


def test_phase_gate_parity_law_sweep():
    alpha = 1.2
    enc = cat_encoding(alpha, 30, variant="shifted")
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 30})
    backend = IdealBackend(layout)
    raw = enc.ket0.amplitudes + enc.ket1.amplitudes
    psi = tensor([qubit_ket(False), Ket(enc.ket0.space, raw).normalized()])
    from cavitysim.fock import displacement

    recombine = layout.lift(displacement(-alpha, layout.mode("S1")), "S1")
    for dphi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        out = recombine @ backend.apply(psi, single_cavity_phase_gate(dphi, enc))
        p = np.real(expectation(partial_trace(out, [1]), parity_op(layout.mode("S1"))))
        assert abs(p - np.cos(np.pi + dphi)) < 0.2


def test_cz_coherent_component_truth_table():
    spec = cz_coherent(np.sqrt(2))
    l = component_logical_unitary(spec, ["S1", "S2"], "Q3")
    assert np.max(np.abs(l - CZ)) < 1e-9
    # symmetric under control/target exchange
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.max(np.abs(swap @ l @ swap - l)) < 1e-9


def test_cz_coherent_conditional_parity_flip():
    """Control in |1>_L flips the parity of the target cat; |0>_L does not."""
    alpha = np.sqrt(2)
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 30, "S2": 30})
    backend = IdealBackend(layout)
    spec = cz_coherent(alpha)
    enc = cat_encoding(alpha, 30)
    even = Ket(
        enc.ket0.space, enc.ket0.amplitudes + enc.ket1.amplitudes
    ).normalized()
    tgt_idx = layout.index["S2"]
    for control, expected in ((enc.ket1, -1.0), (enc.ket0, +1.0)):
        psi = tensor([qubit_ket(False), control, even])
        out = backend.apply(psi, spec)
        p = np.real(
            expectation(partial_trace(out, [tgt_idx]), parity_op(layout.mode("S2")))
        )
        assert abs(p - expected) < 0.1


def test_gate_norm_preserved():
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 25, "S2": 25})
    backend = IdealBackend(layout)
    rng = np.random.default_rng(4)
    v = rng.normal(size=layout.space.dim) + 1j * rng.normal(size=layout.space.dim)
    psi = Ket(layout.space, v).normalized()
    out = backend.apply(psi, cz_coherent(1.0))
    assert abs(out.norm - 1.0) < 1e-8


def test_ideal_backend_rejects_multitone():
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 4})
    spec = GateSpec("m", (MultitonePulse("Q1", (Tone(0.0, 0.001, 0.0),), 300.0),))
    with pytest.raises(ValidationError):
        IdealBackend(layout).unitary(spec)


@pytest.mark.parametrize(
    "condition", [(("S1", 0), ("S2", 0)), (("S2", 1),), ()], ids=["joint-vacuum", "single", "empty"]
)
def test_ideal_backend_matches_dense_conditional_rotation(condition):
    """Oracle: the masked SU(2) rotation equals the dense eigh propagator of
    the lifted conditional drive, on a state and as a full unitary."""
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 4, "S2": 3})
    step, u = conditional_rotation(layout, "Q3", 0.37, 2.1, condition, 0.01)
    spec = GateSpec("r", (step,))
    rng = np.random.default_rng(8)
    v = rng.normal(size=layout.space.dim) + 1j * rng.normal(size=layout.space.dim)
    psi = Ket(layout.space, v).normalized()
    backend = IdealBackend(layout)
    assert np.max(np.abs(backend.apply(psi, spec).amplitudes - (u @ psi).amplitudes)) < 1e-12
    assert np.max(np.abs(backend.unitary(spec).matrix - u.matrix)) < 1e-12


@pytest.mark.parametrize(
    "driven, condition",
    [("Q3", (("Q3", 0),)), ("Q3", (("S1", 4),)), ("S1", (("S2", 0),))],
    ids=["qubit-condition", "out-of-range", "cavity-driven"],
)
def test_ideal_backend_rejects_invalid_condition(driven, condition):
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 4, "S2": 3})
    psi = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 0), fock_ket(layout.mode("S2"), 0)])
    spec = GateSpec("r", (ConditionalRotation(driven, 0.0, np.pi, 0.01, condition),))
    with pytest.raises(ValidationError):
        IdealBackend(layout).apply(psi, spec)


def test_gaussian_flattop_envelope():
    env = gaussian_flattop(400, 4.0)
    assert np.max(env) <= 1.0
    assert abs(env[200] - 1.0) < 1e-12
    assert np.allclose(env, env[::-1])
    assert env[0] < 0.01
    with pytest.raises(ValidationError):
        gaussian_flattop(20, 4.0)


def test_dispersive_phase_table_oracle(params):
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 4, "S2": 4})
    t0 = dispersive_phase_table(0.0, params, layout)
    assert all(v == 0.0 for v in t0.values())
    T = 700.0
    table = dispersive_phase_table(T, params, layout)
    # additivity over concatenated segments
    half = dispersive_phase_table(T / 2, params, layout)
    for k in table:
        assert abs(table[k] - 2 * half[k]) < 1e-12
    # oracle: diagonal of the exact propagator
    from cavitysim.evolution import segment_propagator

    u = segment_propagator(static_hamiltonian(params, layout), T)
    for (path, (n1, n2)), phase in table.items():
        q = 1 if path == "e" else 0
        idx = layout.space.joint_index((q, n1, n2))
        assert abs(u.matrix[idx, idx] - np.exp(1j * phase)) < 1e-10


def test_pulse_conditional_rotation_leakage_bound(params):
    """Off-condition excitation stays below the dispersive suppression bound."""
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 6})
    chi = params.chi[("S1", "Q1")]
    psi4 = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 4)])
    backend = PulseBackend(params, layout)
    delta = 4 * chi
    for eps in (delta / 40, delta / 20, delta / 10):
        spec = GateSpec(
            "cr", (ConditionalRotation("Q1", 0.0, np.pi, eps, (("S1", 0),)),)
        )
        out = backend.apply(psi4, spec)
        pe = sum(
            abs(out.amplitudes[layout.space.joint_index((1, n))]) ** 2
            for n in range(6)
        )
        assert pe <= (eps / delta) ** 2 * 1.1


def test_pulse_conditional_rotation_on_condition(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 6})
    chi = params.chi[("S1", "Q1")]
    backend = PulseBackend(params, layout)
    spec = GateSpec(
        "cr", (ConditionalRotation("Q1", 0.0, np.pi, chi / 10, (("S1", 0),)),)
    )
    psi0 = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 0)])
    out = backend.apply(psi0, spec)
    pe = abs(out.amplitudes[layout.space.joint_index((1, 0))]) ** 2
    assert pe > 1 - 1e-6


def test_cz_coherent_pulse_process_fidelity(params):
    alpha = np.sqrt(2)
    dim = 30
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": dim, "S2": dim})
    spec = cz_coherent(alpha, params)
    backend = PulseBackend(params, layout, compensate_static_cavity_phases=True)

    enc = cat_encoding(alpha, dim)
    b0, b1 = enc.orthonormal_basis()
    logical = [tensor([a, b]) for a in (b0, b1) for b in (b0, b1)]

    from cavitysim.gates import realized_logical_map

    k = realized_logical_map(
        lambda psi: backend.apply(psi, spec), layout, "Q3", logical
    )
    ptm = pauli_transfer(lambda rho: k @ rho.matrix @ k.conj().T, 2)
    f = process_fidelity(ptm, unitary_transfer(CZ, 2))
    assert f >= 0.98


def test_cz_binomial_ideal_truth_table(params):
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 7, "S2": 7})
    spec = cz_binomial(params, mode="ideal")
    backend = IdealBackend(layout)
    enc = binomial_encoding(7)
    logical = [tensor([a, b]) for a in (enc.ket0, enc.ket1) for b in (enc.ket0, enc.ket1)]

    from cavitysim.gates import realized_logical_map

    k = realized_logical_map(lambda psi: backend.apply(psi, spec), layout, "Q3", logical)
    # global phase factored out
    overlap = abs(np.trace(k.conj().T @ CZ)) / 4.0
    assert overlap > 1 - 1e-8
    # CZ symmetry under swapping the two cavities
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.max(np.abs(swap @ k @ swap - k)) < 1e-8


def test_cz_binomial_ideal_entangles(params):
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 7, "S2": 7})
    spec = cz_binomial(params, mode="ideal")
    backend = IdealBackend(layout)
    enc = binomial_encoding(7)
    plus = Ket(
        enc.ket0.space, (enc.ket0.amplitudes + enc.ket1.amplitudes)
    ).normalized()
    out = backend.apply(tensor([qubit_ket(False), plus, plus]), spec)
    rho1 = partial_trace(out, [1])
    ev = np.clip(np.linalg.eigvalsh(rho1.matrix), 1e-16, None)
    entropy = -float(np.sum(ev * np.log2(ev)))
    assert abs(entropy - 1.0) < 0.02


def test_cz_binomial_pulse_calibrates_and_hits_fidelity(params):
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 7, "S2": 7})
    spec, residuals = cz_binomial(params, mode="pulse", layout=layout)
    assert max(abs(r) for r in residuals.values()) < 1e-3

    blocks = simulate_joint_state_phases(spec, params, layout, ("S1", "S2"), "Q3")
    # return amplitude close to 1 for every joint state
    assert min(amp for _, amp in blocks.values()) > 0.9

    backend = PulseBackend(params, layout)
    enc = binomial_encoding(7)
    logical = [tensor([a, b]) for a in (enc.ket0, enc.ket1) for b in (enc.ket0, enc.ket1)]

    from cavitysim.gates import realized_logical_map

    k = realized_logical_map(lambda psi: backend.apply(psi, spec), layout, "Q3", logical)
    ptm = pauli_transfer(lambda rho: k @ rho.matrix @ k.conj().T, 2)
    f = process_fidelity(ptm, unitary_transfer(CZ, 2))
    assert f >= 0.95


def test_blockwise_propagator_matches_full_evolution(params):
    """Oracle: each joint-Fock 2x2 block equals the same block of the product
    of per-sample dense propagators exp(−i dt (H0 + u O + ū O†))."""
    from cavitysim.gates import joint_block_unitaries

    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 5, "S2": 5})
    spec, _ = cz_binomial(params, mode="pulse", layout=layout, calibrate=False)
    blocks = joint_block_unitaries(spec, params)
    backend = PulseBackend(params, layout)
    op = drive_operator(layout, ("Q3", "qubit")).matrix
    cols = [
        layout.space.joint_index((q, j, k)) for j, k in blocks for q in (0, 1)
    ]
    u = np.eye(layout.space.dim, dtype=complex)[:, cols]
    for item in backend._segments(spec, 0.0):
        assert item[0] == "p"
        for amp in item[2].channels[("Q3", "qubit")]:
            h = LinearOp(layout.space, backend.h0.matrix + amp * op + np.conj(amp) * op.conj().T)
            u = segment_propagator(h, item[2].dt).matrix @ u
    for i, jk in enumerate(blocks):
        full = u[cols[2 * i : 2 * i + 2], 2 * i : 2 * i + 2]
        assert np.max(np.abs(blocks[jk] - full)) < 1e-10


def test_snap_bell_fidelity():
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 12, "S2": 12})
    backend = IdealBackend(layout)
    vac = tensor(
        [qubit_ket(False), fock_ket(layout.mode("S1"), 0), fock_ket(layout.mode("S2"), 0)]
    )
    for sign in (+1, -1):
        out = backend.apply(vac, snap_bell(sign))
        v01 = tensor(
            [qubit_ket(False), fock_ket(layout.mode("S1"), 0), fock_ket(layout.mode("S2"), 1)]
        )
        v10 = tensor(
            [qubit_ket(False), fock_ket(layout.mode("S1"), 1), fock_ket(layout.mode("S2"), 0)]
        )
        target = Ket(
            vac.space, (v01.amplitudes + sign * v10.amplitudes) / np.sqrt(2)
        )
        fid = abs(out.overlap(target)) ** 2
        assert fid >= 0.95


def test_snap_bell_reduced_states_are_mixed():
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 12, "S2": 12})
    backend = IdealBackend(layout)
    vac = tensor(
        [qubit_ket(False), fock_ket(layout.mode("S1"), 0), fock_ket(layout.mode("S2"), 0)]
    )
    out = backend.apply(vac, snap_bell(+1))
    for idx in (1, 2):
        rho = partial_trace(out, [idx])
        assert rho.purity() < 0.8
        pops = np.real(np.diag(rho.matrix))
        assert pops[0] + pops[1] > 0.9


def test_accumulated_phase_table_diagonal_gate():
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 5})
    _, u = conditional_rotation(layout, "Q1", 0.4, 2 * np.pi, (("S1", 0),), 0.01)
    table = accumulated_phase_table(u, layout, "Q1")
    assert abs(abs(table[(0,)]) - np.pi) < 1e-9
    for n in range(1, 5):
        assert abs(table[(n,)]) < 1e-9
