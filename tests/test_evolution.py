import numpy as np
import pytest

from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import cavitysim.evolution as evolution
from cavitysim.device import (
    SystemLayout,
    cavity_drive,
    drive_operator,
    load_params,
    qubit_drive,
    static_hamiltonian,
)
from cavitysim.errors import NumericalError, ValidationError
from cavitysim.evolution import (
    CollapseSet,
    PulseSequence,
    dephasing_rate,
    evolve_pulse,
    lindblad_dissipator,
    lindblad_evolve,
    liouvillian,
    segment_propagator,
    standard_collapses,
)
from cavitysim.experiments import run_error_budget
from cavitysim.fock import (
    CompositeSpace,
    DensityOp,
    Ket,
    LinearOp,
    ModeSpec,
    annihilation,
    coherent,
    displacement,
    expectation,
    fock_ket,
    number_op,
    sigma_minus,
    sigma_z,
)


@pytest.fixture(scope="module")
def params():
    return load_params()


def test_segment_propagator_zero_dt():
    h = LinearOp(CompositeSpace.single(ModeSpec.bosonic(4)), np.diag([0.0, 1, 2, 3]))
    u = segment_propagator(h, 0.0)
    assert np.allclose(u.matrix, np.eye(4))


def test_segment_propagator_diagonal_phases():
    e = np.array([0.0, 0.5, 1.3, 2.0])
    h = LinearOp(CompositeSpace.single(ModeSpec.bosonic(4)), np.diag(e))
    u = segment_propagator(h, 0.7)
    assert np.allclose(np.diag(u.matrix), np.exp(-1j * e * 0.7))


def test_segment_propagator_group_property():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = LinearOp(CompositeSpace.single(ModeSpec.bosonic(5)), m + m.conj().T)
    u1 = segment_propagator(h, 0.3)
    u2 = segment_propagator(h, 0.6)
    assert np.max(np.abs((u1 @ u1).matrix - u2.matrix)) < 1e-10


def test_segment_propagator_rejects_nonhermitian():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    h = LinearOp(CompositeSpace.single(ModeSpec.bosonic(3)), m)
    with pytest.raises(ValidationError):
        segment_propagator(h, 1.0)


def test_empty_pulse_is_identity():
    layout = SystemLayout.build([], ["S1"], {"S1": 5})
    h0 = LinearOp(layout.space, np.zeros((5, 5)))
    psi = coherent(0.5, layout.mode("S1"))
    out = evolve_pulse(psi, h0, PulseSequence(), layout)
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_pulse_displacement_matches_operator():
    layout = SystemLayout.build([], ["S1"], {"S1": 30})
    spec = layout.mode("S1")
    # constant drive engineered for D(sqrt(2)): D(−iεt) = D(√2) at ε t = i√2
    t, n = 200.0, 200
    eps = 1j * np.sqrt(2) / t
    ch, amps = cavity_drive(layout, "S1", np.full(n, eps))
    pulse = PulseSequence(dt=t / n, channels={ch: amps})
    h0 = LinearOp(layout.space, np.zeros((30, 30)))
    out = evolve_pulse(fock_ket(spec, 0), h0, pulse, layout)
    target = displacement(np.sqrt(2), spec) @ fock_ket(spec, 0)
    assert abs(out.overlap(target)) ** 2 > 0.9999


def test_pulse_norm_preserved():
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 10})
    rng = np.random.default_rng(5)
    from cavitysim.device import qubit_drive

    chq, aq = qubit_drive(layout, "Q1", 0.01 * rng.normal(size=300))
    chc, ac = cavity_drive(layout, "S1", 0.01 * rng.normal(size=300))
    pulse = PulseSequence(dt=1.0, channels={chq: aq, chc: ac})
    h0 = LinearOp(layout.space, np.diag(rng.normal(size=20) * 0.01))
    psi = Ket(layout.space, rng.normal(size=20) + 1j * rng.normal(size=20)).normalized()
    out = evolve_pulse(psi, h0, pulse, layout)
    assert abs(out.norm - 1.0) < 1e-8


def test_dephasing_rate_values():
    assert dephasing_rate(100.0, 200.0) == 0.0
    g = dephasing_rate(20e3, 12e3)
    assert abs(g - (1 / 12e3 - 1 / 40e3)) < 1e-15
    assert abs(g - 0.0583333e-3) < 1e-7
    assert abs(dephasing_rate(50.0, 50.0) - 1 / 100.0) < 1e-15
    with pytest.raises(ValidationError):
        dephasing_rate(10.0, 30.0)


def test_standard_collapses_count_and_rates(params):
    layout = SystemLayout.build(["Q1", "Q2", "Q3"], ["S1", "S2"], {"S1": 4, "S2": 4})
    cs = standard_collapses(params, layout)
    assert len(cs) == 10
    # cavity S1 photon-loss rate
    rates = {}
    for op, rate in cs:
        rates.setdefault(round(rate, 12), 0)
    assert any(abs(rate - 1 / 480e3) < 1e-12 for _, rate in cs)


def test_standard_collapses_infinite_times():
    import dataclasses

    p = load_params()
    p = dataclasses.replace(
        p,
        T1={k: np.inf for k in p.T1},
        T2={k: np.inf for k in p.T2},
    )
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 3})
    assert len(standard_collapses(p, layout)) == 0


def test_lindblad_empty_collapses_matches_unitary():
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 6})
    rng = np.random.default_rng(2)
    m = rng.normal(size=(12, 12)) * 0.01
    h = LinearOp(layout.space, m + m.T)
    psi = Ket(layout.space, rng.normal(size=12) + 1j * rng.normal(size=12)).normalized()
    rho = lindblad_evolve(psi.density(), h, CollapseSet.empty(), T=50.0)
    target = segment_propagator(h, 50.0) @ psi
    fid = np.real(np.vdot(target.amplitudes, rho.matrix @ target.amplitudes))
    assert fid > 1 - 1e-8


def test_lindblad_cavity_amplitude_damping():
    spec = ModeSpec.bosonic(12)
    layout = SystemLayout.build([], ["S1"], {"S1": 12})
    t1 = 2000.0
    a = annihilation(spec)
    cs = CollapseSet(((LinearOp(layout.space, a.matrix), 1.0 / t1),))
    h = LinearOp(layout.space, np.zeros((12, 12)))
    psi = coherent(1.5, spec)
    n0 = expectation(psi, number_op(spec)).real
    for t in (500.0, 1500.0):
        rho = lindblad_evolve(psi.density(), h, cs, T=t)
        n = np.real(np.trace(rho.matrix @ number_op(spec).matrix))
        assert abs(n - n0 * np.exp(-t / t1)) < 1e-6


def test_lindblad_qubit_coherence_decay(params):
    """Oracle: closed-form Bloch decay ρ_ge(t) = ρ_ge(0) e^{−t/T2}."""
    layout = SystemLayout.build(["Q2"], [], {})
    t1 = params.T1["Q2"]
    t2 = params.T2["Q2"]
    cs = standard_collapses(params, layout)
    ops = [(op, r) for op, r in cs]
    assert len(ops) == 2
    h = LinearOp(layout.space, np.zeros((2, 2)))
    plus = Ket(layout.space, np.array([1.0, 1.0]) / np.sqrt(2))
    for t in (3e3, 12e3):
        rho = lindblad_evolve(plus.density(), h, CollapseSet(tuple(ops)), T=t)
        coh = abs(rho.matrix[0, 1])
        assert abs(coh - 0.5 * np.exp(-t / t2)) < 1e-6
        # population relaxes toward ground at 1/T1
        pe = np.real(rho.matrix[1, 1])
        assert abs(pe - 0.5 * np.exp(-t / t1)) < 1e-6


def test_lindblad_trace_and_hermiticity_preserved(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 5})
    cs = standard_collapses(params, layout)
    rng = np.random.default_rng(9)
    m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    rho0 = m @ m.conj().T
    rho0 = DensityOp(layout.space, rho0 / np.trace(rho0))
    h = LinearOp(layout.space, np.diag(rng.normal(size=10) * 0.01))
    rho = lindblad_evolve(rho0, h, cs, T=2e3)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-7
    assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-7


def test_lindblad_step_halving_convergence(params):
    """Semigroup property: one solve over T equals two solves over T/2, and
    an uneven split 0.3 T + 0.7 T."""
    layout = SystemLayout.build(["Q1"], [], {})
    cs = standard_collapses(params, layout)
    plus = Ket(layout.space, np.array([1.0, 1.0]) / np.sqrt(2))
    h = LinearOp(layout.space, np.diag([0.0, 0.01]))
    t = 5e3
    r1 = lindblad_evolve(plus.density(), h, cs, T=t)
    for first in (0.5 * t, 0.3 * t):
        part = lindblad_evolve(plus.density(), h, cs, T=first)
        r2 = lindblad_evolve(part, h, cs, T=t - first)
        assert np.max(np.abs(r1.matrix - r2.matrix)) < 1e-8


@pytest.mark.parametrize("t", [-5.0, np.nan, np.inf])
def test_lindblad_rejects_bad_duration(t):
    layout = SystemLayout.build(["Q1"], [], {})
    h = LinearOp(layout.space, np.diag([0.0, 0.01]))
    plus = Ket(layout.space, np.array([1.0, 1.0]) / np.sqrt(2))
    with pytest.raises(ValidationError):
        lindblad_evolve(plus.density(), h, CollapseSet.empty(), T=t)


@pytest.mark.parametrize("rate", [np.nan, np.inf, -1.0])
def test_collapse_set_rejects_non_finite_or_negative_rate(rate):
    layout = SystemLayout.build(["Q1"], [], {})
    with pytest.raises(ValidationError):
        CollapseSet(((layout.lift(sigma_minus(), "Q1"), rate),))


def test_unitary_and_lindblad_paths_agree_on_pulse(params):
    from cavitysim.device import qubit_drive, static_hamiltonian

    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 4})
    h0 = static_hamiltonian(params, layout)
    ch, amps = qubit_drive(layout, "Q1", np.full(400, 0.004))
    pulse = PulseSequence(dt=1.0, channels={ch: amps})
    psi0 = Ket(layout.space, np.zeros(8))
    v = np.zeros(8, dtype=complex)
    v[layout.space.joint_index((0, 1))] = 1.0
    psi0 = Ket(layout.space, v)
    pure = evolve_pulse(psi0, h0, pulse, layout)
    rho = lindblad_evolve(
        psi0.density(), (h0, pulse), CollapseSet.empty(), layout=layout
    )
    fid = np.real(np.vdot(pure.amplitudes, rho.matrix @ pure.amplitudes))
    assert fid > 1 - 1e-7


def test_blockwise_fast_path_matches_dense_segment_product(params):
    """Oracle: the single-qubit fast path of evolve_pulse equals the product of
    per-sample dense propagators exp(−i dt (H0 + u O + ū O†))."""
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 4, "S2": 3})
    h0 = static_hamiltonian(params, layout)
    assert params.chi[("S1", "Q3")] and params.chi[("S2", "Q3")]
    assert params.kerr["S1"] and params.kerr["S2"] and params.cross_kerr
    # an odd sample count spanning more than two chunks of the kernel
    chunk = evolution._CHUNK_ELEMENTS // (layout.space.dim // 2)
    n = 2 * chunk + 3
    rng = np.random.default_rng(11)
    amps = 0.01 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    amps[rng.random(n) < 0.2] = 0.0  # zero samples take the ω = 0 branch
    pulse = PulseSequence(dt=0.7, channels={("Q3", "qubit"): amps})
    v = rng.normal(size=layout.space.dim) + 1j * rng.normal(size=layout.space.dim)
    psi = Ket(layout.space, v).normalized()

    op = drive_operator(layout, ("Q3", "qubit")).matrix
    ref = psi.amplitudes
    for u in amps:
        h = LinearOp(layout.space, h0.matrix + u * op + np.conj(u) * op.conj().T)
        ref = segment_propagator(h, pulse.dt).matrix @ ref
    out = evolve_pulse(psi, h0, pulse, layout)
    assert np.max(np.abs(out.amplitudes - ref)) < 1e-12


def test_pulse_sequence_roundtrip_serialization():
    rng = np.random.default_rng(1)
    a = rng.normal(size=20) + 1j * rng.normal(size=20)
    p = PulseSequence(dt=1.0, channels={("Q1", "qubit"): a})
    assert PulseSequence.from_json_dict(p.to_json_dict()).channels[
        ("Q1", "qubit")
    ].tolist() == a.tolist()
    rows = p.to_csv_rows()
    p2 = PulseSequence.from_csv_rows(rows, dt=1.0)
    assert np.array_equal(p2.channels[("Q1", "qubit")], a)


# ---------------------------------------------------------------------------
# Sparse Liouvillian against the dense right-hand side it replaced


def _dense_rhs(h, collapses):
    """Reference dρ/dt = −i[H,ρ] + Σ (LρL† − ½{L†L, ρ}) by dense matmuls."""
    ls = [np.sqrt(rate) * op.matrix for op, rate in collapses]
    lls = [l.conj().T @ l for l in ls]
    dim = h.shape[0]

    def rhs(_t, y):
        r = y.reshape(dim, dim)
        dr = -1j * (h @ r - r @ h)
        for l, ll in zip(ls, lls):
            dr += l @ r @ l.conj().T - 0.5 * (ll @ r + r @ ll)
        return dr.reshape(-1)

    return rhs


def _all_channel_kinds(layout):
    """σ⁻ and σ_z on Q1, a and a†a on S1, at distinct rates."""
    spec = layout.mode("S1")
    return CollapseSet(
        (
            (layout.lift(sigma_minus(), "Q1"), 1.0 / 20e3),
            (layout.lift(sigma_z(), "Q1"), 1.0 / 50e3),
            (layout.lift(annihilation(spec), "S1"), 1.0 / 480e3),
            (layout.lift(number_op(spec), "S1"), 1.0 / 900e3),
        )
    )


def _random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_liouvillian_matches_dense_rhs():
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 6})
    cs = _all_channel_kinds(layout)
    rng = np.random.default_rng(11)
    m = 0.01 * (rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))
    h = m + m.conj().T
    gen = liouvillian(h, lindblad_dissipator(cs, 12))
    oracle = _dense_rhs(h, cs)
    for _ in range(5):
        y = _random_density(rng, 12).reshape(-1)
        assert np.max(np.abs(gen @ y - oracle(0.0, y))) < 1e-14


def test_lindblad_pulse_matches_dense_oracle(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 6})
    cs = _all_channel_kinds(layout)
    h0 = static_hamiltonian(params, layout)
    # runs of identical steps, each run one merged solver segment
    runs = [(0.02, 0.0, 3), (0.01j, 0.003, 2), (0.0, 0.0, 4), (-0.015, 0.002j, 3)]
    q = np.concatenate([np.full(n, u) for u, _, n in runs])
    c = np.concatenate([np.full(n, v) for _, v, n in runs])
    chq, aq = qubit_drive(layout, "Q1", q)
    chc, ac = cavity_drive(layout, "S1", c)
    pulse = PulseSequence(dt=10.0, channels={chq: aq, chc: ac})
    rng = np.random.default_rng(4)
    rho0 = _random_density(rng, 12)

    out = lindblad_evolve(DensityOp(layout.space, rho0), (h0, pulse), cs, layout=layout)

    # exact oracle: expm of the dense generator, built column by column from
    # the dense right-hand side, once per run
    opq = drive_operator(layout, chq).matrix
    opc = drive_operator(layout, chc).matrix
    y = rho0.reshape(-1)
    for u, v, n in runs:
        h = h0.matrix + u * opq + v * opc
        h = h + (u * opq + v * opc).conj().T
        rhs = _dense_rhs(h, cs)
        gen = np.stack([rhs(0.0, e) for e in np.eye(144, dtype=complex)], axis=1)
        y = expm(gen * n * pulse.dt) @ y
    ref = y.reshape(12, 12)
    ref = 0.5 * (ref + ref.conj().T)
    assert np.max(np.abs(out.matrix - ref)) < 1e-12


def test_lindblad_matches_rk45_on_selective_drive(params):
    """Oracle: an adaptive RK45 solve of the dense right-hand side, run by run,
    for a vacuum-selective square qubit drive with every standard channel."""
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 6})
    cs = standard_collapses(params, layout)
    assert len(cs) == 4
    h0 = static_hamiltonian(params, layout)
    # 40 ns idle, a 500 ns π pulse resonant with the qubit at zero photons, 40 ns idle
    runs = [(0.0, 40), (np.pi / 500.0, 500), (0.0, 40)]
    ch, amps = qubit_drive(layout, "Q1", np.concatenate([np.full(n, u) for u, n in runs]))
    pulse = PulseSequence(dt=1.0, channels={ch: amps})
    rho0 = _random_density(np.random.default_rng(8), 12)

    out = lindblad_evolve(DensityOp(layout.space, rho0), (h0, pulse), cs, layout=layout)

    op = drive_operator(layout, ch).matrix
    y, t = rho0.reshape(-1), 0.0
    for u, n in runs:
        h = h0.matrix + u * op + np.conj(u) * op.conj().T
        sol = solve_ivp(
            _dense_rhs(h, cs), (t, t + n), y, method="RK45", rtol=1e-10, atol=1e-12
        )
        y, t = sol.y[:, -1], t + n
    ref = y.reshape(12, 12)
    assert np.max(np.abs(out.matrix - 0.5 * (ref + ref.conj().T))) < 1e-8
    # the pulse flips the qubit when S1 is empty
    g0, e0 = layout.space.joint_index((0, 0)), layout.space.joint_index((1, 0))
    assert abs(np.real(out.matrix[e0, e0]) - np.real(rho0[g0, g0])) < 0.05


@pytest.mark.parametrize("scale", [2.0, np.nan])
def test_lindblad_rejects_trace_drift_and_nonfinite(monkeypatch, scale):
    def drifting_expm_multiply(*args, **kwargs):
        return expm_multiply(*args, **kwargs) * scale

    monkeypatch.setattr(evolution, "expm_multiply", drifting_expm_multiply)
    layout = SystemLayout.build(["Q1"], [], {})
    h = LinearOp(layout.space, np.diag([0.0, 0.01]))
    plus = Ket(layout.space, np.array([1.0, 1.0]) / np.sqrt(2))
    with pytest.raises(NumericalError):
        lindblad_evolve(plus.density(), h, CollapseSet.empty(), T=10.0)


def test_error_budget_z_pinned():
    """The sparse generator reproduces the dense right-hand side's budget."""
    budget = dict(run_error_budget("z").tables["budget"]["rows"])
    assert abs(budget["decoherence"] - 0.04396158706586106) < 1e-12
    assert abs(budget["total"] - 0.044916267086326456) < 1e-12
