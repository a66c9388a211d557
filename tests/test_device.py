import numpy as np
import pytest

from cavitysim.device import (
    MHZ,
    US,
    SystemLayout,
    cavity_static_diag,
    default_config_text,
    effective_conditional_drive,
    load_params,
    qubit_drive,
    static_hamiltonian,
)
from cavitysim.errors import ValidationError
from cavitysim.evolution import PulseSequence, evolve_pulse, segment_propagator
from cavitysim.fock import (
    LinearOp,
    fock_ket,
    qubit_ket,
    tensor,
)


@pytest.fixture(scope="module")
def params():
    return load_params()


def two_cavity_layout(dim=4):
    return SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": dim, "S2": dim})


def test_default_config_table_values(params):
    assert abs(params.chi[("S2", "Q2")] - 2.670 * MHZ) < 1e-12
    assert abs(params.chi[("S1", "Q3")] - 0.524 * MHZ) < 1e-12
    assert abs(params.chi[("S2", "Q3")] - 1.494 * MHZ) < 1e-12
    assert params.T1["S1"] == 480 * US
    assert params.T2["S1"] == 559 * US
    assert params.T1["Q2"] == 20 * US
    assert params.T2["Q2"] == 12 * US


def test_echo_switch():
    p = load_params(use_echo=True)
    assert p.T2["Q1"] == 56.0 * US
    assert p.T2["S1"] == 559 * US  # no echo value for cavities


def test_t2_invariant_violation():
    bad = default_config_text().replace("Q1 = 25", "Q1 = 105", 1)
    with pytest.raises(ValidationError):
        load_params(bad)


@pytest.mark.parametrize("value", ["0", "-3", "nan"])
@pytest.mark.parametrize("section", ["T1_us", "T2_us"])
def test_coherence_times_must_be_positive(section, value):
    text = default_config_text()
    head = f"[{section}]\nS1 = "
    start = text.index(head) + len(head)
    bad = text[:start] + value + text[text.index("\n", start):]
    with pytest.raises(ValidationError):
        load_params(bad)


def test_static_hamiltonian_zero_couplings(params):
    import dataclasses

    zeroed = dataclasses.replace(
        params,
        chi={k: 0.0 for k in params.chi},
        kerr={k: 0.0 for k in params.kerr},
        cross_kerr=0.0,
    )
    h = static_hamiltonian(zeroed, two_cavity_layout())
    assert np.max(np.abs(h.matrix)) == 0.0


def test_static_hamiltonian_single_term(params):
    layout = two_cavity_layout()
    h = static_hamiltonian(params, layout)
    idx = layout.space.joint_index((1, 1, 0))  # |e3; n1=1, n2=0⟩
    assert abs(h.matrix[idx, idx] - (-params.chi[("S1", "Q3")])) < 1e-15


def test_static_hamiltonian_against_bruteforce_kron(params):
    """Oracle: assemble the same diagonal by explicit Kronecker products."""
    layout = two_cavity_layout(4)
    h = static_hamiltonian(params, layout)

    pe = np.diag([0.0, 1.0])
    n = np.diag(np.arange(4.0))
    i2, i4 = np.eye(2), np.eye(4)
    chi13 = params.chi[("S1", "Q3")]
    chi23 = params.chi[("S2", "Q3")]
    k1, k2 = params.kerr["S1"], params.kerr["S2"]
    href = (
        -chi13 * np.kron(pe, np.kron(n, i4))
        - chi23 * np.kron(pe, np.kron(i4, n))
        - 0.5 * k1 * np.kron(i2, np.kron(n @ (n - i4), i4))
        - 0.5 * k2 * np.kron(i2, np.kron(i4, n @ (n - i4)))
        - params.cross_kerr * np.kron(i2, np.kron(n, n))
    )
    assert np.max(np.abs(h.matrix - href)) < 1e-14

    idx = layout.space.joint_index((1, 2, 2))
    expected = -2 * chi13 - 2 * chi23 - k1 - k2 - 4 * params.cross_kerr
    assert abs(h.matrix[idx, idx] - expected) < 1e-15


def test_static_hamiltonian_diagonal_hermitian(params):
    h = static_hamiltonian(params, two_cavity_layout())
    assert np.max(np.abs(h.matrix - np.diag(np.diag(h.matrix)))) == 0
    assert h.is_hermitian()


def test_dispersive_shift_readout_property(params):
    layout = two_cavity_layout(5)
    h = np.real(np.diag(static_hamiltonian(params, layout).matrix))
    for n in range(5):
        ge = layout.space.joint_index((0, n, 0))
        ee = layout.space.joint_index((1, n, 0))
        assert abs((h[ee] - h[ge]) - (-n * params.chi[("S1", "Q3")])) < 1e-15


def test_qubit_drive_pi_pulse(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 3})
    eps = 0.02
    n_steps = 500
    dt = np.pi / eps / n_steps
    ch, amps = qubit_drive(layout, "Q1", np.full(n_steps, eps))
    pulse = PulseSequence(dt=dt, channels={ch: amps})
    h0 = LinearOp(layout.space, np.zeros((6, 6)))
    psi0 = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 0)])
    out = evolve_pulse(psi0, h0, pulse, layout)
    pe = abs(out.amplitudes[layout.space.joint_index((1, 0))]) ** 2
    assert abs(pe - 1.0) < 1e-10


def test_qubit_drive_off_resonant_suppression(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 2})
    eps = 0.01
    delta = 20 * eps
    n_steps = 4000
    ch, amps = qubit_drive(layout, "Q1", np.full(n_steps, eps), detuning=delta, dt=1.0)
    pulse = PulseSequence(dt=1.0, channels={ch: amps})
    h0 = LinearOp(layout.space, np.zeros((4, 4)))
    psi0 = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 0)])
    # sample the excited population along the evolution and take the max
    max_pe = 0.0
    psi = psi0
    for chunk in range(40):
        seg = PulseSequence(dt=1.0, channels={ch: amps[chunk * 100 : (chunk + 1) * 100]})
        psi = evolve_pulse(psi, h0, seg, layout)
        pe = sum(
            abs(psi.amplitudes[layout.space.joint_index((1, n))]) ** 2 for n in range(2)
        )
        max_pe = max(max_pe, pe)
    assert max_pe <= (eps / delta) ** 2 * 1.05


def test_cavity_drive_phase_convention(params):
    """Golden test: constant ε for time t realizes D(−iεt)."""
    from cavitysim.device import cavity_drive
    from cavitysim.fock import displacement

    layout = SystemLayout.build([], ["S1"], {"S1": 30})
    eps = 0.01
    t = 100.0
    ch, amps = cavity_drive(layout, "S1", np.full(100, eps))
    pulse = PulseSequence(dt=1.0, channels={ch: amps})
    h0 = LinearOp(layout.space, np.zeros((30, 30)))
    out = evolve_pulse(fock_ket(layout.mode("S1"), 0), h0, pulse, layout)
    target = displacement(-1j * eps * t, layout.mode("S1")) @ fock_ket(
        layout.mode("S1"), 0
    )
    fid = abs(out.overlap(target)) ** 2
    assert fid > 1 - 1e-10


def test_cavity_drive_inverse_composition(params):
    from cavitysim.device import cavity_drive

    layout = SystemLayout.build([], ["S1"], {"S1": 25})
    rng = np.random.default_rng(3)
    amps = 0.01 * (rng.normal(size=60) + 1j * rng.normal(size=60))
    ch, fwd = cavity_drive(layout, "S1", amps)
    _, bwd = cavity_drive(layout, "S1", -amps[::-1])
    pulse = PulseSequence(dt=1.0, channels={ch: np.concatenate([fwd, bwd])})
    h0 = LinearOp(layout.space, np.zeros((25, 25)))
    psi0 = fock_ket(layout.mode("S1"), 0)
    out = evolve_pulse(psi0, h0, pulse, layout)
    assert abs(abs(out.overlap(psi0)) - 1.0) < 1e-8


def test_effective_conditional_drive_vacuum_flip(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 4})
    proj = layout.lift(fock_ket(layout.mode("S1"), 0).projector(), "S1")
    eps = 0.01
    h = effective_conditional_drive(layout, "Q1", eps, 0.0, proj)
    u = segment_propagator(h, np.pi / eps)
    psi_vac = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 0)])
    out = u @ psi_vac
    assert abs(abs(out.amplitudes[layout.space.joint_index((1, 0))]) - 1.0) < 1e-10
    psi_one = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 1)])
    out1 = u @ psi_one
    assert abs(out1.overlap(psi_one) - 1.0) < 1e-12


def test_effective_conditional_drive_2pi_sign(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 4})
    proj = layout.lift(fock_ket(layout.mode("S1"), 0).projector(), "S1")
    eps = 0.01
    h = effective_conditional_drive(layout, "Q1", eps, 0.3, proj)
    u = segment_propagator(h, 2 * np.pi / eps)
    psi_vac = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 0)])
    assert abs((u @ psi_vac).overlap(psi_vac) + 1.0) < 1e-10
    psi_one = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 1)])
    assert abs((u @ psi_one).overlap(psi_one) - 1.0) < 1e-10


def test_effective_conditional_drive_unconditional(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 3})
    eps = 0.02
    h = effective_conditional_drive(
        layout, "Q1", eps, 0.0, LinearOp.identity(layout.space)
    )
    u = segment_propagator(h, np.pi / eps)
    for n in range(3):
        psi = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), n)])
        out = u @ psi
        assert abs(abs(out.amplitudes[layout.space.joint_index((1, n))]) - 1.0) < 1e-10


def test_effective_conditional_drive_rejects_offdiagonal(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 3})
    from cavitysim.fock import annihilation

    bad = layout.lift(annihilation(layout.mode("S1")), "S1")
    with pytest.raises(ValidationError):
        effective_conditional_drive(layout, "Q1", 0.01, 0.0, bad)


def test_conditional_drive_commutes_with_static_on_condition(params):
    layout = two_cavity_layout(3)
    h0 = static_hamiltonian(params, layout)
    proj = layout.lift(
        fock_ket(layout.mode("S1"), 0).projector(), "S1"
    ) @ layout.lift(fock_ket(layout.mode("S2"), 0).projector(), "S2")
    hd = effective_conditional_drive(layout, "Q3", 0.01, 0.0, proj)
    comm = h0 @ hd - hd @ h0
    assert np.max(np.abs(comm.matrix)) < 1e-15


def test_cavity_static_diag_matches_full_without_chi(params):
    layout = two_cavity_layout(4)
    diag = cavity_static_diag(params, layout)
    h = np.real(np.diag(static_hamiltonian(params, layout).matrix))
    # on the qubit-ground block the full Hamiltonian is cavity-only
    for n1 in range(4):
        for n2 in range(4):
            i = layout.space.joint_index((0, n1, n2))
            assert abs(diag[i] - h[i]) < 1e-15
