from itertools import groupby

import numpy as np
import pytest
import scipy.sparse as sp

from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

import cavitysim.evolution as evolution
from cavitysim.device import SystemLayout, default_config_text, load_params, static_hamiltonian
from cavitysim.errors import NumericalError, ValidationError
from cavitysim.evolution import (
    Collapse,
    LindbladPropagators,
    PulseSequence,
    dephasing_rate,
    evolve_pulse,
    lindblad_evolve,
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
    coherent,
    displacement,
    fock_ket,
    qubit_ket,
)
from cavitysim.grape import control_operator

from oracles import annihilation, density, expectation, joint_index, lift, normalized, number_op, tensor


@pytest.fixture(scope="module")
def params():
    return load_params()


def _idle(layout, t):
    """A one-sample zero-amplitude pulse of length t on the layout's first
    qubit: free evolution under the static Hamiltonian for time t."""
    return PulseSequence(layout.qubit_labels()[0], [0.0], t)


def _rho(psi):
    """|ψ⟩⟨ψ| of a Ket, as the DensityOp that `lindblad_evolve` takes."""
    return DensityOp(psi.space, density(psi.amplitudes))


def _lindblad(rho, h0, pulse, cs, layout):
    """`lindblad_evolve` with fresh propagators of h0 and the collapse set `cs`."""
    return lindblad_evolve(rho, pulse, LindbladPropagators(h0, cs, layout))


def _run_hamiltonians(h0, pulse, layout):
    """Each run of equal samples u of `pulse`, as (u, h, n): the sample, the
    run's dense Hamiltonian diag(h0) + u O + ū O†, O the qubit's
    `control_operator`, and its length n."""
    op = control_operator(layout, pulse.qubit)
    for u, run in groupby(pulse.samples):
        yield u, np.diag(h0) + u * op + np.conj(u) * op.conj().T, len(list(run))


def test_segment_propagator_zero_dt():
    h = LinearOp(CompositeSpace((ModeSpec.bosonic(4),)), np.diag([0.0, 1, 2, 3]))
    u = segment_propagator(h, 0.0)
    assert np.allclose(u, np.eye(4))


def test_segment_propagator_diagonal_phases():
    e = np.array([0.0, 0.5, 1.3, 2.0])
    h = LinearOp(CompositeSpace((ModeSpec.bosonic(4),)), np.diag(e))
    u = segment_propagator(h, 0.7)
    assert np.allclose(np.diag(u), np.exp(-1j * e * 0.7))


def test_segment_propagator_group_property():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = LinearOp(CompositeSpace((ModeSpec.bosonic(5),)), m + m.conj().T)
    u1 = segment_propagator(h, 0.3)
    u2 = segment_propagator(h, 0.6)
    assert np.max(np.abs(u1 @ u1 - u2)) < 1e-10


def test_segment_propagator_rejects_nonhermitian():
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    h = LinearOp(CompositeSpace((ModeSpec.bosonic(3),)), m)
    with pytest.raises(ValidationError):
        segment_propagator(h, 1.0)
    m[0, 1], m[1, 0] = np.nan, np.nan  # NaN compares false with every bound
    with pytest.raises(ValidationError):
        segment_propagator(LinearOp(h.space, m), 1.0)


@pytest.mark.parametrize(
    "h0",
    [np.zeros((10, 10)), np.zeros(11), np.zeros(10, dtype=complex), LinearOp(
        CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(5))), np.eye(10)
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
        _lindblad(_rho(psi), h0, pulse, (), layout)


def test_pulse_displacement_matches_operator(dense_evolve):
    """The cavity-drive convention of `grape.control_operator`, played by the
    dense oracle: a constant drive ε for time t is D(−iεt)."""
    layout = SystemLayout.build([], ["S1"], {"S1": 30})
    spec = layout.mode("S1")
    # constant drive engineered for D(sqrt(2)): D(−iεt) = D(√2) at ε t = i√2
    t, n = 200.0, 200
    eps = 1j * np.sqrt(2) / t
    drive = {"S1": np.full(n, eps)}
    h0 = np.zeros(30)
    out = dense_evolve(fock_ket(spec, 0), h0, drive, t / n, layout)
    target = displacement(np.sqrt(2), spec) @ fock_ket(spec, 0)
    assert abs(np.vdot(out, target)) ** 2 > 0.9999


def test_pulse_norm_preserved():
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 10})
    rng = np.random.default_rng(5)
    aq = 0.01 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    pulse = PulseSequence("Q1", aq, 1.0)
    h0 = rng.normal(size=20) * 0.01
    psi = Ket(layout.space, normalized(rng.normal(size=20) + 1j * rng.normal(size=20)))
    out = evolve_pulse(psi, h0, pulse, layout)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-8


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
        _lindblad(_rho(psi), h0, pulse, (), layout)


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
    """Every mode of device B has a loss channel at 1/T1 and a dephasing
    channel at Γ_φ = 1/T2 − 1/(2T1), in layout order (T1 and T2 in us from
    the bundled config)."""
    layout = SystemLayout.build(["Q1", "Q2", "Q3"], ["S1", "S2"], {"S1": 4, "S2": 4})
    times = {"Q1": (35, 25), "Q2": (20, 12), "Q3": (25, 25), "S1": (480, 559), "S2": (692, 312)}
    expected = []
    for label, (t1, t2) in times.items():
        t1, t2 = t1 * 1e3, t2 * 1e3
        expected += [(label, "loss", 1.0 / t1), (label, "dephasing", 1.0 / t2 - 1.0 / (2.0 * t1))]
    cs = standard_collapses(params, layout)
    assert [(c.label, c.kind, c.rate) for c in cs] == expected


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
    psi = Ket(layout.space, normalized(rng.normal(size=12) + 1j * rng.normal(size=12)))
    rho = _lindblad(_rho(psi), h0, pulse, (), layout)
    target = dense_play(psi.amplitudes, h0, pulse, layout)
    fid = np.real(np.vdot(target, rho @ target))
    assert fid > 1 - 1e-8


def test_lindblad_cavity_amplitude_damping():
    """A coherent state in S1 next to an undriven qubit in |g⟩ loses its
    photons at 1/T1."""
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 12})
    spec = layout.mode("S1")
    t1 = 2000.0
    cs = (Collapse("S1", "loss", 1.0 / t1),)
    psi = Ket(layout.space, tensor([qubit_ket(0), coherent(1.5, spec)]))
    n0 = expectation(coherent(1.5, spec), number_op(spec)).real
    n_op = lift(number_op(spec), layout.index["S1"], layout.space)
    for t in (500.0, 1500.0):
        rho = _lindblad(_rho(psi), np.zeros(24), _idle(layout, t), cs, layout)
        n = np.real(np.trace(rho @ n_op))
        assert abs(n - n0 * np.exp(-t / t1)) < 1e-6


def test_lindblad_qubit_coherence_decay(params):
    """Oracle: closed-form Bloch decay ρ_ge(t) = ρ_ge(0) e^{−t/T2}."""
    layout = SystemLayout.build(["Q2"], [], {})
    t1 = params.T1["Q2"]
    t2 = params.T2["Q2"]
    cs = standard_collapses(params, layout)
    assert [c.kind for c in cs] == ["loss", "dephasing"]
    plus = Ket(layout.space, np.array([1.0, 1.0]) / np.sqrt(2))
    for t in (3e3, 12e3):
        rho = _lindblad(_rho(plus), np.zeros(2), _idle(layout, t), cs, layout)
        coh = abs(rho[0, 1])
        assert abs(coh - 0.5 * np.exp(-t / t2)) < 1e-6
        # population relaxes toward ground at 1/T1
        pe = np.real(rho[1, 1])
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
    assert abs(np.trace(rho) - 1.0) < 1e-7
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-7


def test_lindblad_step_halving_convergence(params):
    """Semigroup property: one solve over T equals two solves over T/2, and
    an uneven split 0.3 T + 0.7 T."""
    layout = SystemLayout.build(["Q1"], [], {})
    cs = standard_collapses(params, layout)
    plus = Ket(layout.space, np.array([1.0, 1.0]) / np.sqrt(2))
    h0 = np.array([0.0, 0.01])
    t = 5e3
    r1 = _lindblad(_rho(plus), h0, _idle(layout, t), cs, layout)
    for first in (0.5 * t, 0.3 * t):
        part = _lindblad(_rho(plus), h0, _idle(layout, first), cs, layout)
        r2 = _lindblad(DensityOp(layout.space, part), h0, _idle(layout, t - first), cs, layout)
        assert np.max(np.abs(r1 - r2)) < 1e-8


@pytest.mark.parametrize(
    "kind, rate",
    [("loss", np.nan), ("loss", np.inf), ("dephasing", -1.0), ("decay", 1e-3)],
    ids=["nan", "inf", "-1.0", "kind"],
)
def test_collapse_set_rejects_non_finite_or_negative_rate(kind, rate):
    """A channel is loss or dephasing, at a finite rate >= 0."""
    with pytest.raises(ValidationError):
        Collapse("Q1", kind, rate)


def test_unitary_and_lindblad_paths_agree_on_pulse(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 4})
    h0 = static_hamiltonian(params, layout)
    pulse = PulseSequence("Q1", np.full(400, 0.004), 1.0)
    psi0 = Ket(layout.space, np.zeros(8))
    v = np.zeros(8, dtype=complex)
    v[joint_index(layout.space, (0, 1))] = 1.0
    psi0 = Ket(layout.space, v)
    pure = evolve_pulse(psi0, h0, pulse, layout)
    rho = _lindblad(_rho(psi0), h0, pulse, (), layout)
    fid = np.real(np.vdot(pure, rho @ pure))
    assert fid > 1 - 1e-7


def test_blockwise_fast_path_matches_dense_segment_product(params, dense_play):
    """Oracle: evolve_pulse's blockwise kernel equals the product of
    per-sample dense propagators exp(−i dt (H0 + u O + ū O†)), for runs of
    equal samples as for distinct ones."""
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 4, "S2": 3})
    h0 = static_hamiltonian(params, layout)
    assert params.chi[("S1", "Q3")] and params.chi[("S2", "Q3")]
    assert params.kerr["S1"] and params.kerr["S2"] and params.cross_kerr
    # an odd run count spanning more than two chunks of the kernel
    chunk = evolution._CHUNK_ELEMENTS // (layout.space.dim // 2)
    n_runs = 2 * chunk + 3
    rng = np.random.default_rng(11)
    values = 0.01 * (rng.normal(size=n_runs) + 1j * rng.normal(size=n_runs))
    values[5::5] = 0.0  # zero samples take the ω = 0 branch; no two adjacent
    lengths = np.ones(n_runs, dtype=int)
    lengths[:4] = [1, 3, 200, 1]
    pulse = PulseSequence("Q3", np.repeat(values, lengths), 0.7)
    assert len(list(groupby(pulse.samples))) == n_runs
    v = rng.normal(size=layout.space.dim) + 1j * rng.normal(size=layout.space.dim)
    psi = Ket(layout.space, normalized(v))

    ref = dense_play(psi.amplitudes, h0, pulse, layout)
    out = evolve_pulse(psi, h0, pulse, layout)
    assert np.max(np.abs(out - ref)) < 1e-12


def test_constant_pulse_forms_one_rotation_per_block(params, monkeypatch):
    """A constant pulse is one run: `evolve_pulse` forms one closed-form
    rotation per g/e block for its 782 samples, not one per sample, and it
    equals the exponential of the whole pulse's Hamiltonian."""
    formed = []
    sample_rotations = evolution._sample_rotations

    def counted(delta, half, dt):
        out = sample_rotations(delta, half, dt)
        formed.append(out[0].size)
        return out

    monkeypatch.setattr(evolution, "_sample_rotations", counted)
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 30})
    h0 = static_hamiltonian(params, layout)
    pulse = PulseSequence("Q1", np.full(782, np.pi / 782), 1.0)
    psi = Ket(layout.space, np.ones(layout.space.dim) / np.sqrt(layout.space.dim))
    out = evolve_pulse(psi, h0, pulse, layout)
    assert sum(formed) == layout.space.dim // 2

    _, h, n = next(_run_hamiltonians(h0, pulse, layout))
    ref = expm(-1j * h * n * pulse.dt) @ psi.amplitudes
    assert np.max(np.abs(out - ref)) < 1e-12


# ---------------------------------------------------------------------------
# Sparse Liouvillian against the dense right-hand side it replaced


_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])
_SIGMA_Z = np.diag([1.0, -1.0])


def _textbook_jumps(collapses, layout):
    """The textbook jump operator L_k of each channel, sparse on the joint
    space: √κ σ⁻ and √(γ/2) σ_z on a qubit, √κ a and √(2γ) a†a on a cavity,
    for loss at κ and dephasing at γ."""
    out = []
    for c in collapses:
        spec = layout.mode(c.label)
        if layout.is_qubit(c.label):
            local, rate = (_SIGMA_MINUS, c.rate) if c.kind == "loss" else (_SIGMA_Z, c.rate / 2.0)
        elif c.kind == "loss":
            local, rate = annihilation(spec), c.rate
        else:
            local, rate = number_op(spec), 2.0 * c.rate
        l = sp.identity(1, format="csr")
        for i, factor in enumerate(layout.space.factors):
            l = sp.kron(l, local if i == layout.index[c.label] else sp.identity(factor.dim), format="csr")
        out.append(np.sqrt(rate) * l)
    return out


def _textbook_dissipator(collapses, layout):
    """Σ_k L_k ⊗ L̄_k − ½ (L_k†L_k ⊗ I + I ⊗ (L_k†L_k)ᵀ) of `_textbook_jumps`,
    by sparse Kronecker products."""
    dim = layout.space.dim
    eye = sp.identity(dim, format="csr")
    out = sp.csr_matrix((dim * dim, dim * dim))
    for l in _textbook_jumps(collapses, layout):
        ll = (l.conj().T @ l).tocsr()
        out = out + sp.kron(l, l.conj()) - 0.5 * (sp.kron(ll, eye) + sp.kron(eye, ll.T))
    return out.tocsr()


def _textbook_liouvillian(h, collapses, layout):
    """−i (H ⊗ I − I ⊗ Hᵀ) + `_textbook_dissipator`, the full row-major
    generator of the dense Hamiltonian h, by sparse Kronecker products."""
    hs = sp.csr_matrix(h)
    eye = sp.identity(h.shape[0], format="csr")
    gen = (-1j * (sp.kron(hs, eye) - sp.kron(eye, hs.T)) + _textbook_dissipator(collapses, layout)).tocsr()
    gen.eliminate_zeros()
    return gen


def _check_sectors(gen, h0, u, collapses, layout, qubit):
    """Oracle on `gen`, the textbook generator of the energies h0 with
    `qubit` driven by the sample u: the kept sectors and their mirrors cover
    vec(ρ) once, no entry of gen couples two of them, and each kept sector's
    block (its mirror's: the conjugate) equals gen's to 1e-15 of gen's
    largest entry.  Returns the (idx, mirror, block) triples."""
    sectors = list(evolution._sector_generators(h0, collapses, layout, qubit, u))
    label = np.zeros(gen.shape[0], dtype=int)
    for k, (idx, mirror, _) in enumerate(sectors, start=1):
        for part, tag in ((idx, k), (mirror, -k)):
            if part is not None:
                assert not np.any(label[part])
                label[part] = tag
    assert np.all(label)
    coo = gen.tocoo()
    assert np.array_equal(label[coo.row], label[coo.col])
    bound = 1e-15 * np.max(np.abs(gen.data))
    for idx, mirror, block in sectors:
        assert np.max(np.abs(block - gen[idx][:, idx].toarray())) <= bound
        if mirror is not None:
            assert np.max(np.abs(block.conj() - gen[mirror][:, mirror].toarray())) <= bound
    return sectors


def _dense_rhs(h, collapses, layout):
    """Reference dρ/dt = −i[H,ρ] + Σ (LρL† − ½{L†L, ρ}) by dense matmuls."""
    ls = [l.toarray() for l in _textbook_jumps(collapses, layout)]
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
    """Loss and dephasing on Q1 and on S1, at distinct rates."""
    return (
        Collapse("Q1", "loss", 1.0 / 20e3),
        Collapse("Q1", "dephasing", 1.0 / 25e3),
        Collapse("S1", "loss", 1.0 / 480e3),
        Collapse("S1", "dephasing", 1.0 / 1800e3),
    )


def _random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_liouvillian_matches_dense_rhs(params):
    """Oracle: 𝓛 assembled from the sector blocks of a driven run, each
    mirror block the conjugate of its twin, is the dense right-hand side."""
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 6})
    cs = _all_channel_kinds(layout)
    rng = np.random.default_rng(11)
    pulse = PulseSequence("Q1", [0.02 - 0.01j], 10.0)
    h0 = static_hamiltonian(params, layout)
    u, h, _ = next(_run_hamiltonians(h0, pulse, layout))
    gen = np.zeros((144, 144), dtype=complex)
    for idx, mirror, block in _check_sectors(_textbook_liouvillian(h, cs, layout), h0, u, cs, layout, "Q1"):
        gen[np.ix_(idx, idx)] = block
        if mirror is not None:
            gen[np.ix_(mirror, mirror)] = block.conj()
    oracle = _dense_rhs(h, cs, layout)
    for _ in range(5):
        y = _random_density(rng, 12).reshape(-1)
        assert np.max(np.abs(gen @ y - oracle(0.0, y))) < 1e-14


@pytest.mark.parametrize(
    "qubits, cavities",
    [(["Q1"], {"S1": 30}), (["Q3"], {"S1": 7, "S2": 7}), (["Q1", "Q2", "Q3"], {"S1": 4, "S2": 4})],
    ids=["dim60", "dim98", "dim128"],
)
def test_dissipator_matches_textbook_sum(params, qubits, cavities):
    """Oracle: with no Hamiltonian, each sector block built from level
    numbers equals, to 1e-15 of its largest entry, the textbook sum over the
    standard channels' lifted jump operators, which couples no two sectors."""
    layout = SystemLayout.build(qubits, list(cavities), cavities)
    cs = standard_collapses(params, layout)
    dim = layout.space.dim
    ref = _textbook_dissipator(cs, layout)
    ref.eliminate_zeros()
    _check_sectors(ref, np.zeros(dim), 0.0, cs, layout, qubits[0])


def test_collapses_and_propagators_lift_no_operator(params, monkeypatch):
    """The channels and the dissipator come from level vectors: building
    them, and evolving through them, lifts no operator to the joint space."""

    def refuse(*args, **kwargs):
        raise AssertionError("an operator was lifted")

    monkeypatch.setattr(SystemLayout, "lift", refuse)
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 30})
    h0 = static_hamiltonian(params, layout)
    propagators = LindbladPropagators(h0, standard_collapses(params, layout), layout)
    rho = DensityOp(layout.space, np.eye(layout.space.dim) / layout.space.dim)
    lindblad_evolve(rho, _idle(layout, 100.0), propagators)


def test_lindblad_pulse_matches_dense_oracle(params):
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 6})
    cs = _all_channel_kinds(layout)
    h0 = static_hamiltonian(params, layout)
    # runs of identical steps, each run one merged solver segment
    runs = [(0.02, 3), (0.01j, 2), (0.0, 4), (-0.015, 3)]
    pulse = PulseSequence("Q1", np.concatenate([np.full(n, u) for u, n in runs]), 10.0)
    rng = np.random.default_rng(4)
    rho0 = _random_density(rng, 12)

    out = _lindblad(DensityOp(layout.space, rho0), h0, pulse, cs, layout)

    # exact oracle: expm of the dense generator, built column by column from
    # the dense right-hand side, once per run
    op = control_operator(layout, "Q1")
    y = rho0.reshape(-1)
    for u, n in runs:
        h = np.diag(h0) + u * op + np.conj(u) * op.conj().T
        rhs = _dense_rhs(h, cs, layout)
        gen = np.stack([rhs(0.0, e) for e in np.eye(144, dtype=complex)], axis=1)
        y = expm(gen * n * pulse.dt) @ y
    ref = y.reshape(12, 12)
    ref = 0.5 * (ref + ref.conj().T)
    assert np.max(np.abs(out - ref)) < 1e-12


def test_lindblad_matches_rk45_on_selective_drive(params):
    """Oracle: an adaptive RK45 solve of the dense right-hand side, run by run,
    for a vacuum-selective square qubit drive with every standard channel."""
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 6})
    cs = standard_collapses(params, layout)
    assert len(cs) == 4
    h0 = static_hamiltonian(params, layout)
    # 40 ns idle, a 500 ns π pulse resonant with the qubit at zero photons, 40 ns idle
    runs = [(0.0, 40), (np.pi / 500.0, 500), (0.0, 40)]
    pulse = PulseSequence("Q1", np.concatenate([np.full(n, u) for u, n in runs]), 1.0)
    rho0 = _random_density(np.random.default_rng(8), 12)

    out = _lindblad(DensityOp(layout.space, rho0), h0, pulse, cs, layout)

    op = control_operator(layout, "Q1")
    y, t = rho0.reshape(-1), 0.0
    for u, n in runs:
        h = np.diag(h0) + u * op + np.conj(u) * op.conj().T
        sol = solve_ivp(
            _dense_rhs(h, cs, layout), (t, t + n), y, method="RK45", rtol=1e-10, atol=1e-12
        )
        y, t = sol.y[:, -1], t + n
    ref = y.reshape(12, 12)
    assert np.max(np.abs(out - 0.5 * (ref + ref.conj().T))) < 1e-8
    # the pulse flips the qubit when S1 is empty
    g0, e0 = joint_index(layout.space, (0, 0)), joint_index(layout.space, (1, 0))
    assert abs(np.real(out[e0, e0]) - np.real(rho0[g0, g0])) < 0.05


def _qubit_driven_runs(params, levels):
    """Layout Q1 + S1 (`levels` cavity levels), its static energies, and a
    qubit-drive pulse of three runs, the middle one undriven."""
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": levels})
    h0 = static_hamiltonian(params, layout)
    q = np.concatenate([np.full(3, 0.02), np.zeros(4), np.full(2, 0.01j - 0.005)])
    return layout, h0, PulseSequence("Q1", q, 10.0)


def _expm_multiply_oracle(rho0, h0, pulse, layout, cs):
    """The full-Liouvillian action: one `expm_multiply` of the textbook 𝓛 τ
    per run on vec(ρ) as given, then the output made Hermitian.  Each run's
    𝓛 passes `_check_sectors`."""
    y = rho0.reshape(-1)
    for u, h, n in _run_hamiltonians(h0, pulse, layout):
        gen = _textbook_liouvillian(h, cs, layout)
        _check_sectors(gen, h0, u, cs, layout, pulse.qubit)
        y = expm_multiply(gen * (n * pulse.dt), y)
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
    assert np.max(np.abs(out - ref)) < 1e-12


@pytest.mark.parametrize("levels", [3, 6, 30])
def test_qubit_drive_splits_liouvillian_by_coherence_order(params, levels):
    """A qubit drive conserves the cavity coherence order n − m: 2d − 1
    sectors for d cavity levels, kept one per mirror pair, each mirror the
    transposed elements of its twin.  With loss and a drive, the sectors are
    the textbook generator's weakly connected components."""
    layout, h0, pulse = _qubit_driven_runs(params, levels)
    dim = layout.space.dim
    u, h, _ = next(_run_hamiltonians(h0, pulse, layout))
    cs = _all_channel_kinds(layout)
    gen = _textbook_liouvillian(h, cs, layout)
    comps = [(idx, mirror) for idx, mirror, _ in _check_sectors(gen, h0, u, cs, layout, "Q1")]
    assert connected_components(abs(gen), connection="weak")[0] == 2 * levels - 1
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


@pytest.mark.parametrize("case", ["undriven", "no-collapses", "no-loss"])
def test_coarse_sectors_match_dense_expm(params, case):
    """The sectors are coarser than the textbook generator's weakly connected
    components for a run with u = 0, for no collapse channels, and for a
    config whose S1 has no [T1_us] entry (no loss on S1).  The sectors still
    pass `_check_sectors`, and the evolved state equals `expm` of the dense
    generator, run by run, to 1e-12."""
    layout, h0, pulse = _qubit_driven_runs(params, 4)
    cs = _all_channel_kinds(layout)
    if case == "undriven":
        pulse = PulseSequence("Q1", np.zeros(5), 10.0)
    elif case == "no-collapses":
        cs = ()
    else:
        text = default_config_text()
        entry = "[T1_us]\nS1 = 480\n"
        assert text.count(entry) == 1
        cs = standard_collapses(load_params(text.replace(entry, "[T1_us]\n")), layout)
        assert [(c.label, c.kind) for c in cs] == [("Q1", "loss"), ("Q1", "dephasing"), ("S1", "dephasing")]
    rho0 = _random_density(np.random.default_rng(17), layout.space.dim)

    out = _lindblad(DensityOp(layout.space, rho0), h0, pulse, cs, layout)

    y = rho0.reshape(-1)
    for u, h, n in _run_hamiltonians(h0, pulse, layout):
        gen = _textbook_liouvillian(h, cs, layout)
        sectors = _check_sectors(gen, h0, u, cs, layout, "Q1")
        assert connected_components(abs(gen), connection="weak")[0] > sum(2 - (m is None) for _, m, _ in sectors)
        y = expm(gen.toarray() * (n * pulse.dt)) @ y
    ref = y.reshape(rho0.shape)
    assert np.max(np.abs(out - 0.5 * (ref + ref.conj().T))) < 1e-12


def _shifted(layout):
    return SystemLayout.build(["Q1"], ["S1"], {"S1": layout.mode("S1").dim + 1})


@pytest.mark.parametrize(
    "case", ["hamiltonian", "complex-hamiltonian", "collapse", "layout", "propagators", "qubit"]
)
def test_lindblad_rejects_mismatched_spaces(params, case):
    """`LindbladPropagators` refuses an H0 that is not its layout's real
    energy vector and a collapse channel on a mode the layout lacks; `lindblad_evolve`
    refuses a ρ on another space than the propagators' layout and a pulse
    on a non-qubit, as `evolve_pulse` does."""
    layout, h0, pulse = _qubit_driven_runs(params, 4)
    other = _shifted(layout)
    rho = DensityOp(layout.space, _random_density(np.random.default_rng(5), layout.space.dim))
    cs = _all_channel_kinds(layout)
    with pytest.raises(ValidationError):
        if case == "hamiltonian":
            LindbladPropagators(static_hamiltonian(params, other), cs, layout)
        elif case == "complex-hamiltonian":
            LindbladPropagators(h0.astype(complex), cs, layout)
        elif case == "collapse":
            LindbladPropagators(h0, cs + (Collapse("S2", "loss", 1.0 / 692e3),), layout)
        elif case == "layout":
            rho_other = DensityOp(other.space, np.eye(other.space.dim) / other.space.dim)
            lindblad_evolve(rho_other, pulse, LindbladPropagators(h0, cs, layout))
        elif case == "propagators":
            cache = LindbladPropagators(static_hamiltonian(params, other), _all_channel_kinds(other), other)
            lindblad_evolve(rho, pulse, cache)
        else:
            cavity = PulseSequence("S1", pulse.samples, pulse.dt)
            lindblad_evolve(rho, cavity, LindbladPropagators(h0, cs, layout))


def test_lindblad_propagators_reuse_each_run(params):
    """A kept `LindbladPropagators` forms each distinct run's component
    exponentials once, also for a run that recurs within one pulse, and
    reuse gives the same state as a fresh solve."""
    layout, h0, pulse = _qubit_driven_runs(params, 4)
    cs = _all_channel_kinds(layout)
    cache = LindbladPropagators(h0, cs, layout)
    rho = DensityOp(layout.space, _random_density(np.random.default_rng(6), 8))
    first = lindblad_evolve(rho, pulse, cache)
    assert len(cache._cache) == 3
    again = lindblad_evolve(DensityOp(layout.space, first), pulse, cache)
    assert len(cache._cache) == 3
    fresh = _lindblad(DensityOp(layout.space, first), h0, pulse, cs, layout)
    assert np.max(np.abs(again - fresh)) < 1e-15

    # runs u, 0, u: the first and last share one propagator
    recurring = PulseSequence("Q1", np.concatenate([np.full(3, 0.02), np.zeros(4), np.full(3, 0.02)]), 10.0)
    cache = LindbladPropagators(h0, cs, layout)
    out = lindblad_evolve(rho, recurring, cache)
    assert len(cache._cache) == 2
    ref = _expm_multiply_oracle(rho.matrix, h0, recurring, layout, cs)
    assert np.max(np.abs(out - ref)) < 1e-12


def test_lindblad_evolve_stack_equals_each_item_alone(params):
    """A (3, dim, dim) stack evolves as its three density matrices one at a
    time, to 1e-15, through one product per run and sector."""
    layout, h0, pulse = _qubit_driven_runs(params, 4)
    cache = LindbladPropagators(h0, _all_channel_kinds(layout), layout)
    rng = np.random.default_rng(8)
    rhos = np.stack([_random_density(rng, layout.space.dim) for _ in range(3)])
    out = lindblad_evolve(DensityOp(layout.space, rhos), pulse, cache)
    assert out.shape == rhos.shape
    for rho, o in zip(rhos, out):
        alone = lindblad_evolve(DensityOp(layout.space, rho), pulse, cache)
        assert np.max(np.abs(o - alone)) < 1e-15


def test_lindblad_checks_the_trace_of_each_stacked_item(params):
    """The trace-drift check runs on every item: one input of trace 2 in a
    stack of unit-trace ones is a NumericalError."""
    layout, h0, pulse = _qubit_driven_runs(params, 4)
    cache = LindbladPropagators(h0, _all_channel_kinds(layout), layout)
    rho = _random_density(np.random.default_rng(9), layout.space.dim)
    with pytest.raises(NumericalError, match="trace drift"):
        lindblad_evolve(DensityOp(layout.space, np.stack([rho, 2.0 * rho, rho])), pulse, cache)


#: Tolerance of `_expm` against `scipy.linalg.expm`, relative to ‖e^A‖₁.  The two
#: differ by at most 3.6e-14 of it on the 150 sector blocks of the z, s and t
#: budgets (θ₁₃ scaling; scipy picks s by its backward-error bound), and the
#: budget rows that rest on them are pinned to 1e-12; 2e-13 leaves a factor 5.
_EXPM_RTOL = 2e-13


def _budget_blocks(gate):
    """The generator blocks 𝓛_C τ that `run_error_budget(gate)` exponentiates."""
    blocks, kernel = [], evolution._expm

    def recorded(a):
        blocks.append(a)
        return kernel(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_expm", recorded)
        run_error_budget(gate)
    return blocks


def _one_qubit_block():
    """The one sector of a driven, decaying and dephasing lone qubit: 4×4."""
    layout = SystemLayout.build(["Q1"], [], {})
    cs = (Collapse("Q1", "loss", 1.0 / 20e3), Collapse("Q1", "dephasing", 1.0 / 25e3))
    ((_, _, gen),) = evolution._sector_generators(np.array([0.0, 0.01]), cs, layout, "Q1", 0.02 - 0.01j)
    return gen * 50.0


def _drive_free_block(params):
    """The largest sector of Q1 + a 30-level S1 with every channel kind and no drive."""
    layout, h0, _ = _qubit_driven_runs(params, 30)
    blocks = evolution._sector_generators(h0, _all_channel_kinds(layout), layout, "Q1", 0.0)
    return next(blocks)[2] * 400.0


def _scaled_to(a, norm):
    return a * (norm / np.linalg.norm(a, 1))


@pytest.mark.parametrize(
    "blocks",
    [
        lambda params: _budget_blocks("z"),
        lambda params: _budget_blocks("s"),
        lambda params: _budget_blocks("t"),
        lambda params: [_drive_free_block(params)],
        lambda params: [np.zeros((6, 6), dtype=complex)],
        lambda params: [_one_qubit_block()],
        lambda params: [_scaled_to(_one_qubit_block(), evolution._THETA_13 * (1 - 1e-9))],
        lambda params: [_scaled_to(_one_qubit_block(), evolution._THETA_13 * (1 + 1e-9))],
        lambda params: [_scaled_to(_drive_free_block(params), evolution._THETA_13 * (1 - 1e-9))],
        lambda params: [_scaled_to(_drive_free_block(params), evolution._THETA_13 * (1 + 1e-9))],
    ],
    ids=[
        "budget-z", "budget-s", "budget-t", "drive-free", "zero", "one-qubit",
        "one-qubit-below-theta", "one-qubit-above-theta", "drive-free-below-theta",
        "drive-free-above-theta",
    ],
)
def test_expm_matches_scipy(params, blocks):
    """Oracle: the Padé-13 kernel equals `scipy.linalg.expm` to `_EXPM_RTOL`
    relative to ‖e^A‖₁, on each sector block of the budgets, on synthetic
    blocks, and on either side of θ₁₃, where the scaling goes from s = 0 to 1."""
    blocks = blocks(params)
    assert blocks
    for a in blocks:
        ref = expm(a)
        err = np.linalg.norm(evolution._expm(a) - ref, 1) / np.linalg.norm(ref, 1)
        assert err <= _EXPM_RTOL, (a.shape, np.linalg.norm(a, 1), err)


@pytest.mark.parametrize("scale", [2.0, np.nan])
def test_lindblad_rejects_trace_drift_and_nonfinite(monkeypatch, scale):
    kernel = evolution._expm

    def drifting_expm(a):
        return kernel(a) * scale

    monkeypatch.setattr(evolution, "_expm", drifting_expm)
    layout = SystemLayout.build(["Q1"], [], {})
    plus = Ket(layout.space, np.array([1.0, 1.0]) / np.sqrt(2))
    with pytest.raises(NumericalError):
        _lindblad(_rho(plus), np.array([0.0, 0.01]), _idle(layout, 10.0), (), layout)


def test_error_budget_z_pinned():
    """The sector generators reproduce the dense right-hand side's budget."""
    budget = dict(run_error_budget("z").tables["budget"]["rows"])
    assert abs(budget["decoherence"] - 0.04396158706586106) < 1e-12
    assert abs(budget["total"] - 0.044916267086326456) < 1e-12
