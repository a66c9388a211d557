import numpy as np
import pytest

from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import cavitysim.evolution as evolution
from cavitysim.device import (
    SystemLayout,
    drive_operator,
    load_params,
    static_hamiltonian,
)
from cavitysim.errors import NumericalError, ValidationError
from cavitysim.evolution import (
    CollapseSet,
    LindbladPropagators,
    PulseSequence,
    dephasing_rate,
    evolve_pulse,
    lindblad_dissipator,
    lindblad_evolve,
    liouvillian,
    liouvillian_components,
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
    qubit_ket,
    sigma_minus,
    sigma_z,
    tensor,
)


@pytest.fixture(scope="module")
def params():
    return load_params()


def _idle(layout, t):
    """A one-sample zero-amplitude pulse of length t on the layout's first
    qubit: free evolution under the static Hamiltonian for time t."""
    return PulseSequence(layout.qubit_labels()[0], [0.0], t)


def _lindblad(rho, h0, pulse, cs, layout):
    """`lindblad_evolve` with fresh propagators of the collapse set `cs`."""
    return lindblad_evolve(rho, h0, pulse, LindbladPropagators(cs, layout.space), layout)


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


@pytest.mark.parametrize(
    "h0",
    [np.zeros((10, 10)), np.zeros(11), np.zeros(10, dtype=complex), LinearOp.identity(
        CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(5)))
    )],
    ids=["matrix", "length", "complex", "linear-op"],
)
def test_evolve_pulse_rejects_h0_not_an_energy_vector(h0):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 5})
    psi = Ket(layout.space, np.eye(10)[0])
    pulse = PulseSequence("Q1", np.full(4, 0.01), 1.0)
    with pytest.raises(ValidationError):
        evolve_pulse(psi, h0, pulse, layout)
    with pytest.raises(ValidationError):
        _lindblad(psi.density(), h0, pulse, CollapseSet(()), layout)


def test_pulse_displacement_matches_operator(dense_evolve):
    """The cavity-drive convention of `drive_operator`, played by the dense
    oracle: a constant drive ε for time t is D(−iεt)."""
    layout = SystemLayout.build([], ["S1"], {"S1": 30})
    spec = layout.mode("S1")
    # constant drive engineered for D(sqrt(2)): D(−iεt) = D(√2) at ε t = i√2
    t, n = 200.0, 200
    eps = 1j * np.sqrt(2) / t
    drive = {("S1", "cavity"): np.full(n, eps)}
    h0 = np.zeros(30)
    out = Ket(layout.space, dense_evolve(fock_ket(spec, 0).amplitudes, h0, drive, t / n, layout))
    target = displacement(np.sqrt(2), spec) @ fock_ket(spec, 0)
    assert abs(out.overlap(target)) ** 2 > 0.9999


def test_pulse_norm_preserved():
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 10})
    rng = np.random.default_rng(5)
    aq = 0.01 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    pulse = PulseSequence("Q1", aq, 1.0)
    h0 = rng.normal(size=20) * 0.01
    psi = Ket(layout.space, rng.normal(size=20) + 1j * rng.normal(size=20)).normalized()
    out = evolve_pulse(psi, h0, pulse, layout)
    assert abs(out.norm - 1.0) < 1e-8


@pytest.mark.parametrize("label", ["S1", "Q9"], ids=["cavity", "absent"])
def test_evolve_pulse_refuses_all_but_a_one_qubit_drive(label):
    """A pulse drives one qubit of the layout: one on a cavity or on a label
    the layout lacks is a ValidationError in both evolutions."""
    layout = SystemLayout.build(["Q1", "Q2"], ["S1"], {"S1": 3})
    psi = Ket(layout.space, np.eye(layout.space.dim)[0])
    pulse = PulseSequence(label, np.full(5, 0.01), 1.0)
    h0 = np.zeros(layout.space.dim)
    with pytest.raises(ValidationError, match="not a qubit"):
        evolve_pulse(psi, h0, pulse, layout)
    with pytest.raises(ValidationError, match="not a qubit"):
        _lindblad(psi.density(), h0, pulse, CollapseSet(()), layout)


@pytest.mark.parametrize("dt", [0.0, -5.0, np.nan, np.inf, -np.inf])
def test_pulse_sequence_rejects_bad_dt(dt):
    """A sample period must be finite and positive: `dt <= 0` alone lets NaN
    through, and a NaN or infinite period made `evolve_pulse` return NaN
    amplitudes.  The duration of a free Lindblad evolution is this dt."""
    with pytest.raises(ValidationError, match="dt"):
        PulseSequence("Q1", np.full(3, 0.01), dt)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), complex(-np.inf, 0.0)])
def test_pulse_sequence_rejects_non_finite_samples(bad):
    amps = np.full(4, 0.01, dtype=complex)
    amps[2] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        PulseSequence("Q1", amps, 1.0)


@pytest.mark.parametrize("samples", [[], np.zeros((2, 5))], ids=["empty", "two-rows"])
def test_pulse_sequence_holds_one_qubits_samples(samples):
    """A pulse is one qubit's 1-D, non-empty samples: an empty pulse or one
    row of samples per channel is a ValidationError."""
    with pytest.raises(ValidationError, match="1-D, non-empty"):
        PulseSequence("Q1", samples, 1.0)


def test_pulse_sequence_keeps_a_frozen_copy():
    amps = np.full(3, 0.01, dtype=complex)
    pulse = PulseSequence("Q1", amps, 1.0)
    amps[0] = 1.0
    assert pulse.samples[0] == 0.01
    with pytest.raises(ValueError):
        pulse.samples[0] = 1.0


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


def test_lindblad_empty_collapses_matches_unitary(dense_play):
    """Without collapses, one 50 ns sample driving the qubit is the dense
    oracle's unitary."""
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 6})
    rng = np.random.default_rng(2)
    h0 = rng.normal(size=12) * 0.01
    pulse = PulseSequence("Q1", [0.013 - 0.004j], 50.0)
    psi = Ket(layout.space, rng.normal(size=12) + 1j * rng.normal(size=12)).normalized()
    rho = _lindblad(psi.density(), h0, pulse, CollapseSet(()), layout)
    target = dense_play(psi.amplitudes, h0, pulse, layout)
    fid = np.real(np.vdot(target, rho.matrix @ target))
    assert fid > 1 - 1e-8


def test_lindblad_cavity_amplitude_damping():
    """A coherent state in S1 next to an undriven qubit in |g⟩ loses its
    photons at 1/T1."""
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 12})
    spec = layout.mode("S1")
    t1 = 2000.0
    cs = CollapseSet(((layout.lift(annihilation(spec), "S1"), 1.0 / t1),))
    psi = tensor([qubit_ket(0), coherent(1.5, spec)])
    n0 = expectation(coherent(1.5, spec), number_op(spec)).real
    n_op = layout.lift(number_op(spec), "S1").matrix
    for t in (500.0, 1500.0):
        rho = _lindblad(psi.density(), np.zeros(24), _idle(layout, t), cs, layout)
        n = np.real(np.trace(rho.matrix @ n_op))
        assert abs(n - n0 * np.exp(-t / t1)) < 1e-6


def test_lindblad_qubit_coherence_decay(params):
    """Oracle: closed-form Bloch decay ρ_ge(t) = ρ_ge(0) e^{−t/T2}."""
    layout = SystemLayout.build(["Q2"], [], {})
    t1 = params.T1["Q2"]
    t2 = params.T2["Q2"]
    cs = standard_collapses(params, layout)
    ops = [(op, r) for op, r in cs]
    assert len(ops) == 2
    plus = Ket(layout.space, np.array([1.0, 1.0]) / np.sqrt(2))
    for t in (3e3, 12e3):
        rho = _lindblad(plus.density(), np.zeros(2), _idle(layout, t), CollapseSet(tuple(ops)), layout)
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
    h0 = rng.normal(size=10) * 0.01
    rho = _lindblad(rho0, h0, _idle(layout, 2e3), cs, layout)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-7
    assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-7


def test_lindblad_step_halving_convergence(params):
    """Semigroup property: one solve over T equals two solves over T/2, and
    an uneven split 0.3 T + 0.7 T."""
    layout = SystemLayout.build(["Q1"], [], {})
    cs = standard_collapses(params, layout)
    plus = Ket(layout.space, np.array([1.0, 1.0]) / np.sqrt(2))
    h0 = np.array([0.0, 0.01])
    t = 5e3
    r1 = _lindblad(plus.density(), h0, _idle(layout, t), cs, layout)
    for first in (0.5 * t, 0.3 * t):
        part = _lindblad(plus.density(), h0, _idle(layout, first), cs, layout)
        r2 = _lindblad(part, h0, _idle(layout, t - first), cs, layout)
        assert np.max(np.abs(r1.matrix - r2.matrix)) < 1e-8


@pytest.mark.parametrize("rate", [np.nan, np.inf, -1.0])
def test_collapse_set_rejects_non_finite_or_negative_rate(rate):
    layout = SystemLayout.build(["Q1"], [], {})
    with pytest.raises(ValidationError):
        CollapseSet(((layout.lift(sigma_minus(), "Q1"), rate),))


def test_unitary_and_lindblad_paths_agree_on_pulse(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 4})
    h0 = static_hamiltonian(params, layout)
    pulse = PulseSequence("Q1", np.full(400, 0.004), 1.0)
    psi0 = Ket(layout.space, np.zeros(8))
    v = np.zeros(8, dtype=complex)
    v[layout.space.joint_index((0, 1))] = 1.0
    psi0 = Ket(layout.space, v)
    pure = evolve_pulse(psi0, h0, pulse, layout)
    rho = _lindblad(psi0.density(), h0, pulse, CollapseSet(()), layout)
    fid = np.real(np.vdot(pure.amplitudes, rho.matrix @ pure.amplitudes))
    assert fid > 1 - 1e-7


def test_blockwise_fast_path_matches_dense_segment_product(params, dense_play):
    """Oracle: evolve_pulse's blockwise kernel equals the product of
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
    pulse = PulseSequence("Q3", amps, 0.7)
    v = rng.normal(size=layout.space.dim) + 1j * rng.normal(size=layout.space.dim)
    psi = Ket(layout.space, v).normalized()

    ref = dense_play(psi.amplitudes, h0, pulse, layout)
    out = evolve_pulse(psi, h0, pulse, layout)
    assert np.max(np.abs(out.amplitudes - ref)) < 1e-12


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
    runs = [(0.02, 3), (0.01j, 2), (0.0, 4), (-0.015, 3)]
    ch = ("Q1", "qubit")
    pulse = PulseSequence("Q1", np.concatenate([np.full(n, u) for u, n in runs]), 10.0)
    rng = np.random.default_rng(4)
    rho0 = _random_density(rng, 12)

    out = _lindblad(DensityOp(layout.space, rho0), h0, pulse, cs, layout)

    # exact oracle: expm of the dense generator, built column by column from
    # the dense right-hand side, once per run
    op = drive_operator(layout, ch).matrix
    y = rho0.reshape(-1)
    for u, n in runs:
        h = np.diag(h0) + u * op + np.conj(u) * op.conj().T
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
    ch = ("Q1", "qubit")
    pulse = PulseSequence("Q1", np.concatenate([np.full(n, u) for u, n in runs]), 1.0)
    rho0 = _random_density(np.random.default_rng(8), 12)

    out = _lindblad(DensityOp(layout.space, rho0), h0, pulse, cs, layout)

    op = drive_operator(layout, ch).matrix
    y, t = rho0.reshape(-1), 0.0
    for u, n in runs:
        h = np.diag(h0) + u * op + np.conj(u) * op.conj().T
        sol = solve_ivp(
            _dense_rhs(h, cs), (t, t + n), y, method="RK45", rtol=1e-10, atol=1e-12
        )
        y, t = sol.y[:, -1], t + n
    ref = y.reshape(12, 12)
    assert np.max(np.abs(out.matrix - 0.5 * (ref + ref.conj().T))) < 1e-8
    # the pulse flips the qubit when S1 is empty
    g0, e0 = layout.space.joint_index((0, 0)), layout.space.joint_index((1, 0))
    assert abs(np.real(out.matrix[e0, e0]) - np.real(rho0[g0, g0])) < 0.05


def _qubit_driven_runs(params, levels):
    """Layout Q1 + S1 (`levels` cavity levels), its static energies, and a
    qubit-drive pulse of three runs, the middle one undriven."""
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": levels})
    h0 = static_hamiltonian(params, layout)
    q = np.concatenate([np.full(3, 0.02), np.zeros(4), np.full(2, 0.01j - 0.005)])
    return layout, h0, PulseSequence("Q1", q, 10.0)


def _expm_multiply_oracle(rho0, h0, pulse, layout, cs):
    """The full-Liouvillian action: one `expm_multiply` of 𝓛 τ per run on
    vec(ρ) as given, then the output made Hermitian."""
    dissipator = lindblad_dissipator(cs, layout.space.dim)
    y = rho0.reshape(-1)
    for h, n in evolution._segment_runs(h0, pulse, layout):
        y = expm_multiply(liouvillian(h, dissipator) * (n * pulse.dt), y)
    m = y.reshape(rho0.shape)
    return 0.5 * (m + m.conj().T)


@pytest.mark.parametrize("hermitian", [True, False])
def test_block_propagator_matches_full_liouvillian_action(params, hermitian):
    """Oracle: with all four channel kinds and a qubit drive, the per-component
    propagator equals the `expm_multiply` action of the whole generator,
    also for a non-Hermitian input, whose output is made Hermitian."""
    layout, h0, pulse = _qubit_driven_runs(params, 6)
    cs = _all_channel_kinds(layout)
    rng = np.random.default_rng(31)
    rho0 = _random_density(rng, 12)
    if not hermitian:
        skew = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho0 = rho0 + 0.05 * (skew - np.trace(skew) / 12 * np.eye(12))
    out = _lindblad(DensityOp(layout.space, rho0), h0, pulse, cs, layout)
    ref = _expm_multiply_oracle(rho0, h0, pulse, layout, cs)
    assert np.max(np.abs(out.matrix - ref)) < 1e-12


@pytest.mark.parametrize("levels", [3, 6, 30])
def test_qubit_drive_splits_liouvillian_by_coherence_order(params, levels):
    """A qubit drive conserves the cavity coherence order n − m: 2d − 1
    components for d cavity levels, kept one per mirror pair, each mirror
    the transposed elements of its twin."""
    layout, h0, pulse = _qubit_driven_runs(params, levels)
    dim = layout.space.dim
    h = next(evolution._segment_runs(h0, pulse, layout))[0]
    gen = liouvillian(h, lindblad_dissipator(_all_channel_kinds(layout), dim))
    comps = liouvillian_components(gen)
    assert len(comps) == levels
    assert sum(1 if mirror is None else 2 for _, mirror in comps) == 2 * levels - 1
    covered = np.concatenate([i for c in comps for i in c if i is not None])
    assert np.array_equal(np.sort(covered), np.arange(dim * dim))
    for idx, mirror in comps:
        row, col = np.divmod(idx, dim)
        if mirror is None:
            assert set(idx) == set(col * dim + row)
        else:
            assert np.array_equal(mirror, col * dim + row)
    assert max(len(idx) for idx, _ in comps) == 4 * levels


def _shifted(layout):
    return SystemLayout.build(["Q1"], ["S1"], {"S1": layout.mode("S1").dim + 1})


@pytest.mark.parametrize("case", ["hamiltonian", "collapse", "layout", "propagators"])
def test_lindblad_rejects_mismatched_spaces(params, case):
    """H0, a collapse operator, the pulse layout or a propagator cache on
    another space than ρ is a ValidationError, as in `evolve_pulse`."""
    layout, h0, pulse = _qubit_driven_runs(params, 4)
    other = _shifted(layout)
    rho = DensityOp(layout.space, _random_density(np.random.default_rng(5), layout.space.dim))
    cs = _all_channel_kinds(layout)
    with pytest.raises(ValidationError):
        if case == "hamiltonian":
            _lindblad(rho, static_hamiltonian(params, other), pulse, cs, layout)
        elif case == "collapse":
            _lindblad(rho, h0, pulse, _all_channel_kinds(other), layout)
        elif case == "layout":
            _lindblad(rho, static_hamiltonian(params, other), pulse, cs, other)
        else:
            cache = LindbladPropagators(_all_channel_kinds(other), other.space)
            lindblad_evolve(rho, h0, pulse, cache, layout)


def test_lindblad_propagators_reuse_each_run(params):
    """A kept `LindbladPropagators` forms each distinct run's component
    exponentials once, and reuse gives the same state as a fresh solve."""
    layout, h0, pulse = _qubit_driven_runs(params, 4)
    cs = _all_channel_kinds(layout)
    cache = LindbladPropagators(cs, layout.space)
    rho = DensityOp(layout.space, _random_density(np.random.default_rng(6), 8))
    first = lindblad_evolve(rho, h0, pulse, cache, layout)
    assert len(cache._runs) == 3
    again = lindblad_evolve(first, h0, pulse, cache, layout)
    assert len(cache._runs) == 3
    fresh = _lindblad(first, h0, pulse, cs, layout)
    assert np.max(np.abs(again.matrix - fresh.matrix)) < 1e-15


@pytest.mark.parametrize("scale", [2.0, np.nan])
def test_lindblad_rejects_trace_drift_and_nonfinite(monkeypatch, scale):
    def drifting_expm(*args, **kwargs):
        return expm(*args, **kwargs) * scale

    monkeypatch.setattr(evolution, "expm", drifting_expm)
    layout = SystemLayout.build(["Q1"], [], {})
    plus = Ket(layout.space, np.array([1.0, 1.0]) / np.sqrt(2))
    with pytest.raises(NumericalError):
        _lindblad(plus.density(), np.array([0.0, 0.01]), _idle(layout, 10.0), CollapseSet(()), layout)


def test_error_budget_z_pinned():
    """The sparse generator reproduces the dense right-hand side's budget."""
    budget = dict(run_error_budget("z").tables["budget"]["rows"])
    assert abs(budget["decoherence"] - 0.04396158706586106) < 1e-12
    assert abs(budget["total"] - 0.044916267086326456) < 1e-12
