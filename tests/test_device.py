import numpy as np
import pytest

from cavitysim.device import (
    MHZ,
    US,
    SystemLayout,
    cavity_static_diag,
    default_config_text,
    load_params,
    static_hamiltonian,
)
from cavitysim.errors import ValidationError
from cavitysim.evolution import PulseSequence, evolve_pulse
from cavitysim.fock import CompositeSpace, Ket, ModeSpec, fock_ket, qubit_ket
from cavitysim.gates import ConditionalRotation, GateSpec, IdealBackend

from oracles import density, joint_index, lift, sigma_plus, tensor


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


def test_config_without_frequencies_loads_the_same_parameters(params):
    """Bare frequencies are no parameter of the rotating-frame model: a
    config without the [frequencies_GHz] table loads to the same device."""
    text = default_config_text()
    start = text.index("[frequencies_GHz]")
    stripped = text[:start] + text[text.index("[chi_MHz]"):]
    assert "GHz]" not in stripped
    assert load_params(stripped) == params


def test_chi_entries_readout_skipped_unknown_rejected(params):
    """Readout shifts R*_Q* are recognised and skipped; any other unknown
    chi entry is a ValidationError."""
    text = default_config_text()
    assert "R1_Q1 = 2.0" in text
    assert load_params(text.replace("R1_Q1 = 2.0", "R1_Q1 = 7.5")) == params
    assert load_params(text.replace("R1_Q1 = 2.0\n", "")) == params
    with pytest.raises(ValidationError, match="unrecognized chi entry"):
        load_params(text.replace("R1_Q1 = 2.0", "Q1_S1 = 2.0"))


def test_t2_invariant_violation():
    """T2 <= 2*T1 is checked once, on load: Q1's T1 is 35 us, so a T2 of
    70 us loads and one of 105 us is refused by name."""
    text = default_config_text()
    assert "[T2_us]\nS1 = 559\nS2 = 312\nQ1 = 25\n" in text
    assert load_params(text.replace("Q1 = 25", "Q1 = 70", 1)).T2["Q1"] == 70 * US
    with pytest.raises(ValidationError, match=r"Q1: T2 = 105000.0 ns exceeds 2\*T1 = 70000.0 ns"):
        load_params(text.replace("Q1 = 25", "Q1 = 105", 1))


@pytest.mark.parametrize(
    "entry, value, named",
    [
        ("S1_Q1 = 1.599", "nan", "S1_Q1 dispersive shift"),
        ("S1_Q1 = 1.599", "inf", "S1_Q1 dispersive shift"),
        ("S2_Q3 = 1.494", "-inf", "S2_Q3 dispersive shift"),
        ("S1 = 0.005", "nan", "S1 Kerr coefficient"),
        ("S1_S2 = 0.004", "nan", "S1_S2 cross-Kerr"),
        ("S1_S2 = 0.004", "inf", "S1_S2 cross-Kerr"),
    ],
    ids=["chi-nan", "chi-inf", "chi-minus-inf", "kerr-nan", "cross-kerr-nan", "cross-kerr-inf"],
)
def test_non_finite_coupling_is_rejected_by_name(entry, value, named):
    """A NaN passes a `< 0` test, so every coupling is checked for being
    finite as well as non-negative, and the message names the entry."""
    text = default_config_text()
    assert text.count(entry) == 1
    bad = text.replace(entry, entry.split("=")[0] + "= " + value)
    with pytest.raises(ValidationError, match=named):
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
    assert np.max(np.abs(h)) == 0.0


def test_static_hamiltonian_single_term(params):
    layout = two_cavity_layout()
    h = static_hamiltonian(params, layout)
    idx = joint_index(layout.space, (1, 1, 0))  # |e3; n1=1, n2=0⟩
    assert abs(h[idx] - (-params.chi[("S1", "Q3")])) < 1e-15


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
    assert np.max(np.abs(np.diag(h) - href)) < 1e-14

    idx = joint_index(layout.space, (1, 2, 2))
    expected = -2 * chi13 - 2 * chi23 - k1 - k2 - 4 * params.cross_kerr
    assert abs(h[idx] - expected) < 1e-15


def test_static_hamiltonian_diagonal_hermitian(params):
    layout = two_cavity_layout()
    h = static_hamiltonian(params, layout)
    # diagonal: held as its (dim,) energy vector; hermitian: the energies are real
    assert h.shape == (layout.space.dim,)
    assert np.isrealobj(h)
    assert np.array_equal(np.diag(h), np.diag(h).conj().T)


def test_dispersive_shift_readout_property(params):
    layout = two_cavity_layout(5)
    h = static_hamiltonian(params, layout)
    for n in range(5):
        ge = joint_index(layout.space, (0, n, 0))
        ee = joint_index(layout.space, (1, n, 0))
        assert abs((h[ee] - h[ge]) - (-n * params.chi[("S1", "Q3")])) < 1e-15


def test_qubit_drive_pi_pulse(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 3})
    eps = 0.02
    n_steps = 500
    dt = np.pi / eps / n_steps
    pulse = PulseSequence("Q1", np.full(n_steps, eps), dt)
    h0 = np.zeros(6)
    psi0 = Ket(layout.space, tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 0)]))
    out = evolve_pulse(psi0, h0, pulse, layout)
    pe = abs(out[joint_index(layout.space, (1, 0))]) ** 2
    assert abs(pe - 1.0) < 1e-10


def test_qubit_drive_off_resonant_suppression(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 2})
    eps = 0.01
    delta = 20 * eps
    n_steps = 4000
    t = np.arange(n_steps) + 0.5
    amps = np.full(n_steps, eps) * np.exp(-1j * delta * t)
    h0 = np.zeros(4)
    psi0 = Ket(layout.space, tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 0)]))
    # sample the excited population along the evolution and take the max
    max_pe = 0.0
    psi = psi0.amplitudes
    for chunk in range(40):
        seg = PulseSequence("Q1", amps[chunk * 100 : (chunk + 1) * 100], 1.0)
        psi = evolve_pulse(Ket(layout.space, psi), h0, seg, layout)
        pe = sum(abs(psi[joint_index(layout.space, (1, n))]) ** 2 for n in range(2))
        max_pe = max(max_pe, pe)
    assert max_pe <= (eps / delta) ** 2 * 1.05


def test_cavity_drive_phase_convention(params, dense_evolve):
    """Golden test: constant ε for time t realizes D(−iεt) under the
    convention of `grape.control_operator`, played by the dense oracle."""
    from cavitysim.fock import displacement

    layout = SystemLayout.build([], ["S1"], {"S1": 30})
    eps = 0.01
    t = 100.0
    drive = {"S1": np.full(100, eps)}
    h0 = np.zeros(30)
    vac = fock_ket(layout.mode("S1"), 0)
    out = dense_evolve(vac, h0, drive, 1.0, layout)
    target = displacement(-1j * eps * t, layout.mode("S1")) @ fock_ket(
        layout.mode("S1"), 0
    )
    fid = abs(np.vdot(out, target)) ** 2
    assert fid > 1 - 1e-10


def test_cavity_drive_inverse_composition(params, dense_evolve):
    layout = SystemLayout.build([], ["S1"], {"S1": 25})
    rng = np.random.default_rng(3)
    amps = 0.01 * (rng.normal(size=60) + 1j * rng.normal(size=60))
    drive = {"S1": np.concatenate([amps, -amps[::-1]])}
    h0 = np.zeros(25)
    psi0 = fock_ket(layout.mode("S1"), 0)
    out = dense_evolve(psi0, h0, drive, 1.0, layout)
    assert abs(abs(np.vdot(out, psi0)) - 1.0) < 1e-8


def _rotation(qubit, phi, theta, eps, condition):
    """One conditional rotation as a gate spec, for the ideal backend."""
    return GateSpec("r", (ConditionalRotation(qubit, phi, theta, eps, condition),))


def _dense_conditional_drive(layout, qubit, epsilon, phi, condition):
    """Oracle: (ε/2) e^{iφ} |e⟩⟨g| ⊗ P_cond + h.c. from lifted dense
    operators, as a matrix."""
    proj = np.eye(layout.space.dim)
    for label, n in condition:
        proj = proj @ lift(density(fock_ket(layout.mode(label), n)), layout.index[label], layout.space)
    term = (0.5 * epsilon * np.exp(1j * phi)) * (lift(sigma_plus(), layout.index[qubit], layout.space) @ proj)
    return term + term.conj().T


def test_effective_conditional_drive_vacuum_flip(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 4})
    eps = 0.01
    backend = IdealBackend(layout)
    spec = _rotation("Q1", 0.0, np.pi, eps, (("S1", 0),))
    vac = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 0)])
    out = backend.apply(vac, spec)
    assert abs(abs(out[joint_index(layout.space, (1, 0))]) - 1.0) < 1e-10
    one = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 1)])
    assert abs(np.vdot(backend.apply(one, spec), one) - 1.0) < 1e-12


def test_effective_conditional_drive_2pi_sign(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 4})
    eps = 0.01
    backend = IdealBackend(layout)
    spec = _rotation("Q1", 0.3, 2 * np.pi, eps, (("S1", 0),))
    vac = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 0)])
    assert abs(np.vdot(backend.apply(vac, spec), vac) + 1.0) < 1e-10
    one = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 1)])
    assert abs(np.vdot(backend.apply(one, spec), one) - 1.0) < 1e-10


def test_effective_conditional_drive_unconditional(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 3})
    eps = 0.02
    backend = IdealBackend(layout)
    spec = _rotation("Q1", 0.0, np.pi, eps, ())
    for n in range(3):
        out = backend.apply(tensor([qubit_ket(False), fock_ket(layout.mode("S1"), n)]), spec)
        assert abs(abs(out[joint_index(layout.space, (1, n))]) - 1.0) < 1e-10


def test_conditional_drive_commutes_with_static_on_condition(params):
    layout = two_cavity_layout(3)
    h0 = np.diag(static_hamiltonian(params, layout))
    hd = _dense_conditional_drive(layout, "Q3", 0.01, 0.0, (("S1", 0), ("S2", 0)))
    comm = h0 @ hd - hd @ h0
    assert np.max(np.abs(comm)) < 1e-15


def test_cavity_static_diag_matches_full_without_chi(params):
    layout = two_cavity_layout(4)
    diag = cavity_static_diag(params, layout)
    h = static_hamiltonian(params, layout)
    # on the qubit-ground block the full Hamiltonian is cavity-only
    for n1 in range(4):
        for n2 in range(4):
            i = joint_index(layout.space, (0, n1, n2))
            assert abs(diag[i] - h[i]) < 1e-15


def _without(entry: str) -> str:
    """The bundled config with its one line or section `entry` removed."""
    text = default_config_text()
    assert text.count(entry) == 1
    return text.replace(entry, "")


_ONE_QUBIT = CompositeSpace((ModeSpec.qubit(),))


@pytest.mark.parametrize(
    "run, match",
    [
        (lambda: load_params(_without("[kerr_MHz]\nS1 = 0.005\nS2 = 0.016\n")), "missing section 'kerr_MHz'"),
        (lambda: load_params(_without("S2_Q3 = 1.494\n")), r"missing chi entries: \{\('S2', 'Q3'\)\}"),
        (lambda: SystemLayout(_ONE_QUBIT, {"Q1": 0, "Q2": 0}), "one-to-one onto factors"),
        (lambda: SystemLayout(_ONE_QUBIT, {"R1": 0}), "readout resonators are not quantum factors"),
    ],
    ids=["missing-section", "missing-chi", "two-labels-one-factor", "readout-resonator"],
)
def test_device_refusals(run, match):
    with pytest.raises(ValidationError, match=match):
        run()
