import functools
from dataclasses import replace

import numpy as np
import pytest

from cavitysim.codes import binomial_encoding, cat_encoding
from cavitysim.device import (
    SystemLayout,
    cavity_static_diag,
    load_params,
    static_hamiltonian,
)
from cavitysim.evolution import (
    BlockScan,
    PulseSequence,
    block_rotations,
    segment_propagator,
)
from cavitysim.errors import ValidationError
from cavitysim.fock import Ket, LinearOp, displacement, fock_ket, partial_trace, qubit_ket
from cavitysim.gates import (
    CANONICAL_DELTA_PHI,
    ConditionalRotation,
    Displacement,
    GateSpec,
    IdealBackend,
    MultitonePulse,
    PulseBackend,
    Tone,
    component_logical_unitary,
    cz_binomial,
    cz_binomial_ideal,
    cz_coherent,
    gaussian_flattop,
    joint_block_unitaries,
    realized_logical_map,
    single_cavity_phase_gate,
    snap_bell,
    wrap_angle,
)
# the pulse backend's samples and sample period, for the dense oracle
from cavitysim.gates import SAMPLE_DT, _drive_samples
# the binomial-CZ tone calibration problem and its evaluation cap
from cavitysim.gates import _CZ_MAX_NFEV, _ToneCalibration
from cavitysim.tomography import (
    pauli_transfer,
    process_fidelity,
    unitary_transfer,
)

from oracles import (
    density,
    expectation,
    joint_index,
    lift,
    normalized,
    number_op,
    parity_op,
    sigma_plus,
    tensor,
)

CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


@pytest.fixture(scope="module")
def params():
    return load_params()


def _rotation(qubit, phi, theta, eps, condition):
    """One conditional rotation as a gate spec."""
    return GateSpec("r", (ConditionalRotation(qubit, phi, theta, eps, condition),))


def dense_conditional_rotation(layout, step):
    """Oracle: exp(−i T H) of the lifted dense conditional drive
    H = (ε/2) e^{iφ} |e⟩⟨g| ⊗ P_cond + h.c., by eigendecomposition."""
    proj = np.eye(layout.space.dim)
    for label, n in step.condition:
        proj = proj @ lift(density(fock_ket(layout.mode(label), n)), layout.index[label], layout.space)
    term = (0.5 * step.epsilon * np.exp(1j * step.phi_axis)) * (
        lift(sigma_plus(), layout.index[step.qubit], layout.space) @ proj
    )
    return segment_propagator(LinearOp(layout.space, term + term.conj().T), step.duration)


def ideal_unitary(layout, spec):
    """The gate on the ideal backend as a matrix: the identity pushed
    through `IdealBackend.apply`."""
    eye = np.eye(layout.space.dim, dtype=complex)
    return IdealBackend(layout).apply(eye, spec)


def _assert_unitary(u, tol=1e-9):
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) < tol


def code_columns(logical_kets):
    """The (dim, 4) code basis: each cavity ket with the qubit, the first
    factor, in |g⟩."""
    return np.stack([np.kron([1.0, 0.0], lk) for lk in logical_kets], axis=1)


def accumulated_phase_table(u, layout):
    """Oracle: phases arg⟨g; n|U|g; n⟩ per joint cavity Fock state."""
    cavs = layout.cavity_labels()
    table = {}
    for idx in np.ndindex(*layout.space.dims):
        if any(idx[layout.index[q]] != 0 for q in layout.qubit_labels()):
            continue
        flat = joint_index(layout.space, idx)
        amp = u[flat, flat]
        key = tuple(idx[layout.index[c]] for c in cavs)
        table[key] = float(np.angle(amp)) if abs(amp) > 1e-12 else 0.0
    return table


def test_gate_spec_serialization_roundtrip():
    spec = GateSpec(
        "demo",
        (
            Displacement("S1", 0.5 - 0.25j),
            ConditionalRotation("Q1", 0.3, np.pi, 0.01, (("S1", 0),)),
            MultitonePulse("Q1", (Tone(-0.01, 0.002, 1.2), Tone(0.0, 0.001, -0.4)), 500.0),
        ),
    )
    d = spec.to_json_dict()
    assert d == {
        "name": "demo",
        "steps": [
            {"type": "displacement", "label": "S1", "alpha_re": 0.5, "alpha_im": -0.25},
            {
                "type": "conditional_rotation",
                "qubit": "Q1",
                "phi_axis": 0.3,
                "theta": np.pi,
                "epsilon": 0.01,
                "condition": [["S1", 0]],
                "detuning": None,
            },
            {
                "type": "multitone_pulse",
                "qubit": "Q1",
                "duration": 500.0,
                "tones": [
                    {"detuning": -0.01, "epsilon": 0.002, "phi": 1.2},
                    {"detuning": 0.0, "epsilon": 0.001, "phi": -0.4},
                ],
            },
        ],
    }
    assert abs(spec.duration - (np.pi / 0.01 + 500.0)) < 1e-12


def test_gate_step_validation():
    with pytest.raises(ValidationError):
        ConditionalRotation("Q1", 0.0, -1.0, 0.01)
    with pytest.raises(ValidationError):
        ConditionalRotation("Q1", 0.0, np.pi, 0.0)
    with pytest.raises(ValidationError):
        GateSpec("bad", ("not-a-step",))
    # a non-finite axis made the parity sweep write NaN rows, an infinite
    # angle made NaN states, and an infinite Rabi frequency a 0 ns rotation
    # that the pulse backend played as one full-angle sample
    for phi, theta, eps, detuning in (
        (np.nan, np.pi, 0.01, None),
        (np.inf, np.pi, 0.01, None),
        (0.0, np.inf, 0.01, None),
        (0.0, np.pi, np.inf, None),
        (0.0, np.pi, 0.01, np.nan),
        (0.0, np.pi, 0.01, -np.inf),
    ):
        with pytest.raises(ValidationError, match="must be finite"):
            ConditionalRotation("Q1", phi, theta, eps, (("S1", 0),), detuning=detuning)


@pytest.mark.parametrize("duration", [0.0, -300.0, np.nan, np.inf])
def test_multitone_pulse_rejects_bad_duration(duration):
    """`duration <= 0` alone let NaN and ∞ through, to a bare ValueError
    (NaN) or OverflowError (∞) when the pulse backend formed its samples."""
    with pytest.raises(ValidationError, match="duration"):
        MultitonePulse("Q1", (Tone(0.0, 0.001, 0.0),), duration)


@pytest.mark.parametrize(
    "fields", [(np.nan, 0.001, 0.0), (0.0, np.inf, 0.0), (0.0, 0.001, -np.inf)],
    ids=["detuning", "epsilon", "phi"],
)
def test_tone_rejects_non_finite_fields(fields):
    with pytest.raises(ValidationError, match="must be finite"):
        Tone(*fields)


def test_conditional_rotation_selectivity_guards(params):
    """The phase gate's drive must be selective on the code splitting
    gap = n̄χ: an error above gap/3, a warning above gap/10."""
    import warnings

    enc = cat_encoding(1.5, 32, variant="shifted")
    nbar = float(np.real(expectation(enc.ket0, number_op(enc.mode))))
    gap = nbar * params.chi[("S1", "Q1")]
    with pytest.raises(ValidationError):
        single_cavity_phase_gate(0.0, enc, params, epsilon=gap / 2.9)
    with pytest.warns(UserWarning):
        single_cavity_phase_gate(0.0, enc, params, epsilon=gap / 6.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = single_cavity_phase_gate(0.0, enc, params, epsilon=gap / 15.0)
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 32})
    _assert_unitary(ideal_unitary(layout, spec))
    for step in spec.steps:
        assert abs(step.duration - np.pi / (gap / 15.0)) < 1e-12


def test_phase_gate_reads_nbar_from_the_level_numbers(params):
    """The default drive is a twentieth of the code splitting n̄χ, with n̄ =
    Σ n|c_n|² of the displaced component: the same bits as ⟨2α|a†a|2α⟩ by
    the dense number operator."""
    enc = cat_encoding(np.sqrt(2.0), 30, variant="shifted")
    nbar = float(np.real(expectation(enc.ket0, number_op(enc.mode))))
    assert abs(nbar - 8.0) < 1e-6
    spec = single_cavity_phase_gate(0.0, enc, params)
    assert all(step.epsilon == nbar * params.chi[("S1", "Q1")] / 20.0 for step in spec.steps)


def test_ideal_conditional_pi_flip_and_2pi_sign():
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 4})
    backend = IdealBackend(layout)
    pi = _rotation("Q1", 0.0, np.pi, 0.01, (("S1", 0),))
    vac = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 0)])
    out = backend.apply(vac, pi)
    assert abs(abs(out[joint_index(layout.space, (1, 0))]) - 1.0) < 1e-10
    two_pi = _rotation("Q1", 0.7, 2 * np.pi, 0.01, (("S1", 0),))
    assert abs(np.vdot(backend.apply(vac, two_pi), vac) + 1.0) < 1e-10
    two = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 2)])
    assert abs(np.vdot(backend.apply(two, two_pi), two) - 1.0) < 1e-12


def test_geometric_phase_law_sweep(params):
    """gamma = pi + dphi, measured by integrating the conditional dynamics."""
    enc = cat_encoding(0.9, 20, variant="shifted")
    for dphi in np.linspace(-np.pi, np.pi, 9, endpoint=False):
        spec = single_cavity_phase_gate(dphi, enc, params)
        l = component_logical_unitary(spec, ["S1"], "Q1")
        gamma = wrap_angle(float(np.angle(l[1, 1]) - np.angle(l[0, 0])))
        assert abs(wrap_angle(gamma - (np.pi + dphi))) < 1e-9


def test_canonical_phase_gates(params):
    enc = cat_encoding(0.9, 20, variant="shifted")
    expected_gamma = {"Z": np.pi, "S": np.pi / 2, "T": np.pi / 4}
    for name, dphi in CANONICAL_DELTA_PHI.items():
        spec = single_cavity_phase_gate(dphi, enc, params)
        l = component_logical_unitary(spec, ["S1"], "Q1")
        phase = wrap_angle(float(np.angle(l[1, 1]) - np.angle(l[0, 0])))
        assert abs(wrap_angle(phase - expected_gamma[name])) < 1e-9
        assert abs(abs(l[0, 0]) - 1.0) < 1e-10
        assert abs(abs(l[1, 1]) - 1.0) < 1e-10


def test_phase_gate_requires_shifted_cat(params):
    enc = cat_encoding(1.0, 20, variant="symmetric")
    with pytest.raises(ValidationError):
        single_cavity_phase_gate(0.0, enc, params)


def _reduced_parity(psi, layout, label):
    """Photon-number parity of cavity `label`: Tr(ρ P) of its reduced state."""
    rho = partial_trace(psi, layout.space.dims, [layout.index[label]])
    return float(np.real(np.trace(rho @ parity_op(layout.mode(label)))))


def test_phase_gate_parity_reversal_fock_level(params):
    """Z gate turns the even shifted cat into an odd cat after recombination."""
    alpha = 1.2
    enc = cat_encoding(alpha, 30, variant="shifted")
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 30})
    backend = IdealBackend(layout)
    spec = single_cavity_phase_gate(0.0, enc, params)
    psi = tensor([qubit_ket(False), normalized(enc.ket0 + enc.ket1)])
    recombine = lift(displacement(-alpha, layout.mode("S1")), layout.index["S1"], layout.space)

    before = recombine @ psi
    p_before = _reduced_parity(before, layout, "S1")
    after = recombine @ backend.apply(psi, spec)
    p_after = _reduced_parity(after, layout, "S1")
    assert p_before > 0.8
    assert p_after < -0.8


def test_phase_gate_parity_law_sweep(params):
    alpha = 1.2
    enc = cat_encoding(alpha, 30, variant="shifted")
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 30})
    backend = IdealBackend(layout)
    psi = tensor([qubit_ket(False), normalized(enc.ket0 + enc.ket1)])
    recombine = lift(displacement(-alpha, layout.mode("S1")), layout.index["S1"], layout.space)
    for dphi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        out = backend.apply(psi, single_cavity_phase_gate(dphi, enc, params))
        out = recombine @ out
        p = _reduced_parity(out, layout, "S1")
        assert abs(p - np.cos(np.pi + dphi)) < 0.2


def test_cz_coherent_component_truth_table(params):
    spec = cz_coherent(np.sqrt(2), params)
    l = component_logical_unitary(spec, ["S1", "S2"], "Q3")
    assert np.max(np.abs(l - CZ)) < 1e-9
    # symmetric under control/target exchange
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.max(np.abs(swap @ l @ swap - l)) < 1e-9


def kron_eigh_component_unitary(spec, cavities, qubit):
    """Oracle: the component map by direct integration on the reduced space.

    Each conditional rotation is exp(−i T H) of
    H = (ε/2) e^{iφ} |e⟩⟨g| ⊗ (⊗_c P_c) + h.c., with P_c = diag(0, 1) on a
    conditioned cavity (component 1 sits at the vacuum) and the identity
    otherwise, built with np.kron and exponentiated by eigh; displacements
    and waits are skipped.  Returns the g-block in component order.
    """
    dim = 2 ** (len(cavities) + 1)
    u = np.eye(dim, dtype=complex)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    for step in spec.steps:
        if not isinstance(step, ConditionalRotation):
            continue
        conditioned = {label for label, _ in step.condition}
        h_half = 0.5 * step.epsilon * np.exp(1j * step.phi_axis) * sp
        for c in cavities:
            h_half = np.kron(h_half, np.diag([0.0, 1.0]) if c in conditioned else np.eye(2))
        w, v = np.linalg.eigh(h_half + h_half.conj().T)
        u = ((v * np.exp(-1j * w * step.duration)) @ v.conj().T) @ u
    return u[: dim // 2, : dim // 2]


def _component_oracle_specs(params):
    enc = cat_encoding(np.sqrt(2), 30, variant="shifted")
    specs = {
        name: (single_cavity_phase_gate(dphi, enc, params), ["S1"], "Q1")
        for name, dphi in CANONICAL_DELTA_PHI.items()
    }
    specs["cz_coherent"] = (cz_coherent(np.sqrt(2), params), ["S1", "S2"], "Q3")
    # snap_bell's displacements do not cancel, so only its joint-vacuum
    # conditional 2π rotation has a component-level map
    for sign in (+1, -1):
        rotation = [s for s in snap_bell(sign).steps if isinstance(s, ConditionalRotation)]
        specs[f"snap_bell{sign:+d}"] = (GateSpec("r", rotation), ["S1", "S2"], "Q3")
    return specs


@pytest.mark.parametrize("name", ["Z", "S", "T", "cz_coherent", "snap_bell+1", "snap_bell-1"])
def test_component_map_matches_kron_eigh_integration(params, name):
    spec, cavities, qubit = _component_oracle_specs(params)[name]
    expected = kron_eigh_component_unitary(spec, cavities, qubit)
    got = component_logical_unitary(spec, cavities, qubit)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_component_map_rejects_condition_outside_cavities():
    """A condition on a cavity not in `cavities` is an error, not a no-op."""
    spec = _rotation("Q1", 0.0, 2 * np.pi, 0.01, (("S2", 0),))
    with pytest.raises(ValidationError):
        component_logical_unitary(spec, ["S1"], "Q1")


def test_cz_coherent_conditional_parity_flip(params):
    """Control in |1>_L flips the parity of the target cat; |0>_L does not."""
    alpha = np.sqrt(2)
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 30, "S2": 30})
    backend = IdealBackend(layout)
    spec = cz_coherent(alpha, params)
    enc = cat_encoding(alpha, 30)
    even = normalized(enc.ket0 + enc.ket1)
    for control, expected in ((enc.ket1, -1.0), (enc.ket0, +1.0)):
        psi = tensor([qubit_ket(False), control, even])
        out = backend.apply(psi, spec)
        p = _reduced_parity(out, layout, "S2")
        assert abs(p - expected) < 0.1


def test_gate_norm_preserved(params):
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 25, "S2": 25})
    backend = IdealBackend(layout)
    rng = np.random.default_rng(4)
    v = rng.normal(size=layout.space.dim) + 1j * rng.normal(size=layout.space.dim)
    out = backend.apply(normalized(v), cz_coherent(1.0, params))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-8


def test_ideal_backend_rejects_multitone():
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 4})
    spec = GateSpec("m", (MultitonePulse("Q1", (Tone(0.0, 0.001, 0.0),), 300.0),))
    with pytest.raises(ValidationError):
        ideal_unitary(layout, spec)


@pytest.mark.parametrize(
    "condition", [(("S1", 0), ("S2", 0)), (("S2", 1),), ()], ids=["joint-vacuum", "single", "empty"]
)
def test_ideal_backend_matches_dense_conditional_rotation(condition):
    """Oracle: the masked SU(2) rotation equals the dense eigh propagator of
    the lifted conditional drive, on a state and as a full unitary."""
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 4, "S2": 3})
    spec = _rotation("Q3", 0.37, 2.1, 0.01, condition)
    u = dense_conditional_rotation(layout, spec.steps[0])
    rng = np.random.default_rng(8)
    v = rng.normal(size=layout.space.dim) + 1j * rng.normal(size=layout.space.dim)
    psi = normalized(v)
    backend = IdealBackend(layout)
    assert np.max(np.abs(backend.apply(psi, spec) - u @ psi)) < 1e-12
    assert np.max(np.abs(ideal_unitary(layout, spec) - u)) < 1e-12


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


@pytest.mark.parametrize(
    "condition",
    [(("S9", 0),), (("Q1", 0),), (("S1", 9),), (("S1", -1),), (("S1", 0.5),), (("S1", 0), ("S1", 1))],
    ids=["absent", "qubit", "above-truncation", "negative", "fractional", "repeated-cavity"],
)
def test_both_backends_refuse_the_same_conditions(params, condition):
    """A condition on a label that is no cavity, on a level outside the
    truncation or on one cavity twice is a ValidationError on every backend.
    The pulse backend used to play the first two as an unconditional π (or
    raise a bare KeyError when compensating) and the next three at unchecked
    detunings, while the ideal backend read level 0.5 as 0; a repeated
    cavity gave the ideal backend an empty mask."""
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 6})
    psi = tensor([qubit_ket(False), fock_ket(layout.mode("S1"), 0)])
    spec = _rotation("Q1", 0.0, np.pi, params.chi[("S1", "Q1")] / 10, condition)
    backends = [IdealBackend(layout), PulseBackend(params, layout), PulseBackend(params, layout, compensate=True)]
    for backend in backends:
        with pytest.raises(ValidationError):
            backend.apply(psi, spec)


def test_pulse_backend_refuses_a_condition_without_a_dispersive_shift(params):
    """S2 has no χ to Q1: no tone selects its levels, so the pulse backend
    refuses the condition (it read χ as 0), while the ideal backend, which
    knows no χ, plays it."""
    assert ("S2", "Q1") not in params.chi
    layout = SystemLayout.build(["Q1"], ["S2"], {"S2": 4})
    psi = tensor([qubit_ket(False), fock_ket(layout.mode("S2"), 0)])
    spec = _rotation("Q1", 0.0, np.pi, 0.01, (("S2", 0),))
    assert abs(IdealBackend(layout).apply(psi, spec)[joint_index(layout.space, (1, 0))]) > 1 - 1e-12
    for compensate in (False, True):
        with pytest.raises(ValidationError, match="dispersive shift"):
            PulseBackend(params, layout, compensate=compensate).apply(psi, spec)


def test_gaussian_flattop_envelope():
    env = gaussian_flattop(400)
    assert np.max(env) <= 1.0
    assert abs(env[200] - 1.0) < 1e-12
    assert np.allclose(env, env[::-1])
    assert env[0] < 0.01
    with pytest.raises(ValidationError):
        gaussian_flattop(20)


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
            abs(out[joint_index(layout.space, (1, n))]) ** 2
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
    pe = abs(out[joint_index(layout.space, (1, 0))]) ** 2
    assert pe > 1 - 1e-6


def test_cz_coherent_pulse_process_fidelity(params):
    alpha = np.sqrt(2)
    dim = 30
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": dim, "S2": dim})
    spec = cz_coherent(alpha, params)
    backend = PulseBackend(params, layout, compensate=True)

    enc = cat_encoding(alpha, dim)
    b0, b1 = enc.basis.T
    logical = [tensor([a, b]) for a in (b0, b1) for b in (b0, b1)]

    code = code_columns(logical)
    ptm = pauli_transfer(realized_logical_map(backend, spec, code, code[None])(1), 2)
    f = process_fidelity(ptm, unitary_transfer(CZ, 2))
    assert f >= 0.98


def test_cz_binomial_ideal_truth_table():
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 7, "S2": 7})
    spec = cz_binomial_ideal()
    backend = IdealBackend(layout)
    enc = binomial_encoding(7)
    logical = [tensor([a, b]) for a in (enc.ket0, enc.ket1) for b in (enc.ket0, enc.ket1)]

    code = code_columns(logical)
    k = code.conj().T @ backend.apply(code, spec)
    # global phase factored out
    overlap = abs(np.trace(k.conj().T @ CZ)) / 4.0
    assert overlap > 1 - 1e-8
    # CZ symmetry under swapping the two cavities
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.max(np.abs(swap @ k @ swap - k)) < 1e-8


def test_cz_binomial_ideal_entangles():
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 7, "S2": 7})
    spec = cz_binomial_ideal()
    backend = IdealBackend(layout)
    enc = binomial_encoding(7)
    plus = normalized(enc.ket0 + enc.ket1)
    out = backend.apply(tensor([qubit_ket(False), plus, plus]), spec)
    rho1 = partial_trace(out, layout.space.dims, [1])
    ev = np.clip(np.linalg.eigvalsh(rho1), 1e-16, None)
    entropy = -float(np.sum(ev * np.log2(ev)))
    assert abs(entropy - 1.0) < 0.02


def test_cz_binomial_pulse_calibrates_and_hits_fidelity(params, monkeypatch):
    """An uncapped calibration at 7 + 7 levels.  It also returns through a
    wrapper of `scipy.optimize.least_squares` like the benchmark tracer's,
    whose `nfev` then counts every residual that LM evaluated."""
    import scipy.optimize

    import cavitysim.gates as gates

    # every evaluated point plays the pulse's drive samples once
    evaluations = []
    original = gates._block_drive_samples

    def counted(*args, **kwargs):
        evaluations.append(1)
        return original(*args, **kwargs)

    solutions, residuals_seen = [], []
    least_squares = scipy.optimize.least_squares

    @functools.wraps(least_squares)
    def traced(fun, *args, **kwargs):
        def residual(x):
            residuals_seen.append(1)
            return fun(x)

        solutions.append(least_squares(residual, *args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(gates, "_block_drive_samples", counted)
    monkeypatch.setattr(scipy.optimize, "least_squares", traced)
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 7, "S2": 7})
    backend = PulseBackend(params, layout)
    spec, residuals = cz_binomial(backend)
    (sol,) = solutions
    assert sol.nfev == len(residuals_seen)
    assert max(abs(r) for r in residuals.values()) < 1e-3
    # the calibration ends on Levenberg-Marquardt's relative-cost tolerance,
    # long before _CZ_MAX_NFEV, with every phase within 2.5e-4 rad of its target
    assert max(abs(r) for r in residuals.values()) <= 2.5e-4
    assert len(evaluations) < _CZ_MAX_NFEV // 10

    blocks = joint_block_unitaries(spec, backend)
    # return amplitude close to 1 for every joint state, and at the level
    # the relative-cost stop reaches (0.99337)
    assert min(abs(b[0, 0]) for b in blocks.values()) > 0.9
    assert min(abs(b[0, 0]) for b in blocks.values()) >= 0.9933

    enc = binomial_encoding(7)
    logical = [tensor([a, b]) for a in (enc.ket0, enc.ket1) for b in (enc.ket0, enc.ket1)]

    code = code_columns(logical)
    ptm = pauli_transfer(realized_logical_map(backend, spec, code, code[None])(1), 2)
    f = process_fidelity(ptm, unitary_transfer(CZ, 2))
    assert f >= 0.95
    # the average gate fidelity of that calibration (0.99272)
    assert f >= 0.9925


def _central_differences(fun, x, step, columns):
    """Central-difference Jacobian of fun at x, for the given columns."""
    out = []
    for i in columns:
        e = np.zeros_like(x)
        e[i] = step
        out.append((fun(x + e) - fun(x - e)) / (2 * step))
    return np.stack(out, axis=1)


def test_tone_calibration_jacobian_matches_central_differences(params):
    """Oracle for the exact Jacobian of the binomial-CZ tone calibration, at
    the seed point and at a random perturbation of it.  The phase and
    log-scale columns agree with central differences to 1e-7.  The detuning
    columns are of order 1e3 (t reaches 2 020 ns), so central differences
    carry a step² error there: it must shrink about 100× from step 1e-6 to
    1e-7, and the exact column must be the limit."""
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 7, "S2": 7})
    problem = _ToneCalibration(PulseBackend(params, layout))
    n = 9
    phases_and_scales = list(range(n)) + list(range(2 * n, 3 * n))
    detunings = list(range(n, 2 * n))
    rng = np.random.default_rng(3)
    kick = np.concatenate(
        [rng.normal(0, 0.1, n), rng.normal(0, 1e-4, n), rng.normal(0, 0.05, n)]
    )
    for x in (problem.x0, problem.x0 + kick):
        jac = problem.jacobian(x)
        assert jac.shape == (4 * n, 3 * n)
        fd = _central_differences(problem.residual, x, 1e-6, phases_and_scales)
        assert np.max(np.abs(jac[:, phases_and_scales] - fd)) < 1e-7
        errs = [
            np.max(np.abs(jac[:, detunings] - _central_differences(problem.residual, x, h, detunings)))
            for h in (1e-6, 1e-7)
        ]
        assert errs[1] < errs[0] / 50
        assert errs[1] < 1e-8 * np.max(np.abs(jac[:, detunings]))


def _kicked_tone_point(problem):
    """The seed point of the tone calibration plus a seeded random kick."""
    n = 9
    rng = np.random.default_rng(3)
    kick = np.concatenate(
        [rng.normal(0, 0.1, n), rng.normal(0, 1e-4, n), rng.normal(0, 0.05, n)]
    )
    return problem.x0 + kick


def test_tone_calibration_residual_is_the_blocks_return_amplitude(params):
    """The residual reads ⟨g|U|g⟩ from the last prefix of its sample-by-sample
    scan; it agrees with the run-wise product of `joint_block_unitaries` to
    1e-14, at the seed point and at a kicked one."""
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 7, "S2": 7})
    backend = PulseBackend(params, layout)
    problem = _ToneCalibration(backend)
    n = 9
    for x in (problem.x0, _kicked_tone_point(problem)):
        r = problem.residual(x)
        blocks = joint_block_unitaries(problem.spec(x), backend)
        exact = np.array([blocks[jk][0, 0] for jk in blocks])
        assert np.max(np.abs(r[:n] + 1j * r[n : 2 * n] + problem.goals - exact)) < 1e-14


def test_tone_calibration_jacobian_never_serves_a_stale_point(params):
    """The residual's scan is kept for the Jacobian at the same point, keyed
    by a copy of x: a Jacobian at another point, or at the same buffer
    overwritten in place, equals a fresh problem's bit for bit, and so does
    one at the point just evaluated."""
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 5, "S2": 5})
    backend = PulseBackend(params, layout)
    problem = _ToneCalibration(backend)
    x1, x2 = problem.x0, _kicked_tone_point(problem)
    fresh = _ToneCalibration(backend).jacobian(x2.copy())

    problem.residual(x1)
    assert np.array_equal(problem.jacobian(x2), fresh)

    buffer = x1.copy()
    problem.residual(buffer)
    buffer[:] = x2
    assert np.array_equal(problem.jacobian(buffer), fresh)

    problem.residual(x2)
    assert np.array_equal(problem.jacobian(x2), fresh)


def test_tone_calibration_plays_each_point_once(params, monkeypatch):
    """Levenberg–Marquardt asks for the Jacobian at the point whose residual
    it has just computed, so a capped calibration builds the spec and plays
    its drive samples once per evaluated point, plus once for the final
    phases: at most nfev + 1 times, not nfev + njev + 1."""
    import scipy.optimize

    import cavitysim.gates as gates

    solutions, specs, plays = [], [], []
    least_squares = scipy.optimize.least_squares

    def capped(*args, **kwargs):
        kwargs["max_nfev"] = 12
        solutions.append(least_squares(*args, **kwargs))
        return solutions[-1]

    spec, drive_samples = _ToneCalibration.spec, gates._block_drive_samples

    def counted_spec(self, x):
        specs.append(1)
        return spec(self, x)

    def counted_samples(*args):
        plays.append(1)
        return drive_samples(*args)

    monkeypatch.setattr(scipy.optimize, "least_squares", capped)
    monkeypatch.setattr(_ToneCalibration, "spec", counted_spec)
    monkeypatch.setattr(gates, "_block_drive_samples", counted_samples)
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 5, "S2": 5})
    cz_binomial(PulseBackend(params, layout))
    (sol,) = solutions
    assert sol.njev > 0
    assert 0 < len(specs) <= sol.nfev + 1
    assert 0 < len(plays) <= sol.nfev + 1


def test_block_rotation_gradient_at_zero_detuning_and_zero_drive():
    """Block 0 has δ = 0 and samples 0, 17 and 299 have u = 0, so there
    ω = 0, where sin(ωdt)/ω and its derivative take their limits; sample 40
    has |u| = 2.5e-6, the smallest drive of the calibrated CZ.  The
    Wirtinger pair A = ∂a/∂u, B = ∂a/∂ū of `BlockScan.gradient` is finite,
    the same whether taken over all samples or in slices, and matches
    central differences of `block_rotations` (∂a/∂Re u = A + B,
    ∂a/∂Im u = i(A − B)) across several chunks of the scan."""
    delta = np.array([0.0, 0.013, -0.2])
    rng = np.random.default_rng(5)
    amps = 0.05 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    amps[[0, 17, 299]] = 0.0
    amps[40] = 2.5e-6
    scan = BlockScan(delta, amps, SAMPLE_DT)
    assert np.max(np.abs(scan.pa[:, -1] - block_rotations(delta, amps, SAMPLE_DT)[0])) < 1e-14
    A, B = scan.gradient(slice(0, 300))
    assert A.shape == B.shape == (3, 300)
    assert np.all(np.isfinite(A)) and np.all(np.isfinite(B))
    pieces = [scan.gradient(slice(i, j)) for i, j in ((0, 41), (41, 128), (128, 300))]
    assert np.array_equal(np.concatenate([a for a, _ in pieces], axis=1), A)
    assert np.array_equal(np.concatenate([b for _, b in pieces], axis=1), B)
    step = 1e-6
    for t in (0, 17, 40, 63, 64, 123, 299):
        for grad, direction in ((A[:, t] + B[:, t], 1.0), (1j * (A[:, t] - B[:, t]), 1.0j)):
            up, down = amps.copy(), amps.copy()
            up[t] += step * direction
            down[t] -= step * direction
            fd = (
                block_rotations(delta, up, SAMPLE_DT)[0] - block_rotations(delta, down, SAMPLE_DT)[0]
            ) / (2 * step)
            assert np.max(np.abs(grad - fd)) < 1e-8


def test_cz_binomial_rejects_cavities_without_the_binomial_states(params):
    """The binomial CZ needs |j,k>, j,k <= 4: a 4-level truncation is refused
    with a ValidationError, not a numpy indexing error."""
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 4, "S2": 4})
    with pytest.raises(ValidationError, match=r"\|j,k>"):
        cz_binomial(PulseBackend(params, layout))


@pytest.mark.parametrize(
    "qubits, dims, compensate, reason",
    [
        (["Q3"], {"S1": 7, "S2": 7}, True, "compensation"),
        (["Q1", "Q3"], {"S1": 7, "S2": 7}, False, "one qubit"),
        (["Q3"], {"S1": 7}, False, "two cavities"),
        (["Q1"], {"S1": 7, "S2": 7}, False, "coupled"),
    ],
    ids=["compensating", "two-qubits", "one-cavity", "uncoupled-cavity"],
)
def test_cz_binomial_rejects_backends_it_cannot_calibrate_on(
    params, qubits, dims, compensate, reason
):
    """The calibration plays the drive samples of the backend it is given on
    its qubit and two cavities: a compensating backend, a second qubit, a
    missing cavity and a cavity the qubit does not couple to (S2 and Q1) are
    refused with a ValidationError."""
    layout = SystemLayout.build(qubits, list(dims), dims)
    with pytest.raises(ValidationError, match=reason):
        cz_binomial(PulseBackend(params, layout, compensate=compensate))


def test_cz_binomial_ideal_is_pinned():
    """The conditional-rotation variant of the binomial CZ, as serialised:
    the nonselective pi pulse, then a pi rotation conditioned on each joint
    Fock state, about the axis pi for |2,2> and 0 for the rest."""

    def rotation(phi, epsilon, condition):
        return {
            "type": "conditional_rotation", "qubit": "Q3", "phi_axis": phi,
            "theta": 3.141592653589793, "epsilon": epsilon, "condition": condition,
            "detuning": None,
        }

    assert cz_binomial_ideal().to_json_dict() == {
        "name": "cz-binomial-ideal",
        "steps": [
            rotation(0.0, 0.15707963267948966, []),
            rotation(0.0, 0.001, [["S1", 0], ["S2", 0]]),
            rotation(0.0, 0.001, [["S1", 0], ["S2", 2]]),
            rotation(0.0, 0.001, [["S1", 0], ["S2", 4]]),
            rotation(0.0, 0.001, [["S1", 2], ["S2", 0]]),
            rotation(3.141592653589793, 0.001, [["S1", 2], ["S2", 2]]),
            rotation(0.0, 0.001, [["S1", 2], ["S2", 4]]),
            rotation(0.0, 0.001, [["S1", 4], ["S2", 0]]),
            rotation(0.0, 0.001, [["S1", 4], ["S2", 2]]),
            rotation(0.0, 0.001, [["S1", 4], ["S2", 4]]),
        ],
    }


def test_joint_block_unitaries_rejects_what_its_blocks_cannot_hold(params):
    """The blockwise propagator plays the samples of a non-compensating pulse
    backend: a compensating backend, a displacement and a drive on another
    qubit are refused."""
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 5, "S2": 5})
    backend = PulseBackend(params, layout)
    problem = _ToneCalibration(backend)
    spec = problem.spec(problem.x0)
    with pytest.raises(ValidationError, match="compensation"):
        joint_block_unitaries(spec, PulseBackend(params, layout, compensate=True))
    for step in (Displacement("S1", 0.1), ConditionalRotation("Q1", 0.0, np.pi, 0.05)):
        with pytest.raises(ValidationError, match="displacement-free"):
            joint_block_unitaries(GateSpec("x", (step,) + spec.steps), backend)


def test_blockwise_propagator_matches_full_evolution(params, dense_play):
    """Oracle: each joint-Fock 2x2 block equals the same block of the product
    of per-sample dense propagators exp(−i dt (H0 + u O + ū O†)), for the
    uncalibrated binomial-CZ pulse."""
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 5, "S2": 5})
    backend = PulseBackend(params, layout)
    problem = _ToneCalibration(backend)
    spec = problem.spec(problem.x0)
    blocks = joint_block_unitaries(spec, backend)
    cols = [
        joint_index(layout.space, (q, j, k)) for j, k in blocks for q in (0, 1)
    ]
    u = np.eye(layout.space.dim, dtype=complex)[:, cols]
    for kind, pulse in backend._segments(spec):
        assert kind == "pulse"
        u = dense_play(u, backend.h0, pulse, layout)
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
        target = (v01 + sign * v10) / np.sqrt(2)
        fid = abs(np.vdot(out, target)) ** 2
        assert fid >= 0.95


def test_snap_bell_reduced_states_are_mixed():
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 12, "S2": 12})
    backend = IdealBackend(layout)
    vac = tensor(
        [qubit_ket(False), fock_ket(layout.mode("S1"), 0), fock_ket(layout.mode("S2"), 0)]
    )
    out = backend.apply(vac, snap_bell(+1))
    for idx in (1, 2):
        rho = partial_trace(out, layout.space.dims, [idx])
        assert np.real(np.trace(rho @ rho)) < 0.8
        pops = np.real(np.diag(rho))
        assert pops[0] + pops[1] > 0.9


def test_accumulated_phase_table_diagonal_gate():
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": 5})
    u = ideal_unitary(layout, _rotation("Q1", 0.4, 2 * np.pi, 0.01, (("S1", 0),)))
    table = accumulated_phase_table(u, layout)
    assert abs(abs(table[(0,)]) - np.pi) < 1e-9
    for n in range(1, 5):
        assert abs(table[(n,)]) < 1e-9


# ---------------------------------------------------------------------------
# Backends against dense lifted operators


def dense_gate_unitary(dense_play, layout, spec, params=None, compensate=True):
    """Oracle: the gate as one dense matrix built from lifted operators.

    Without params, the ideal backend: lifted displacements and the dense
    conditional-drive propagator.  With params, the pulse backend:
    per-sample propagators exp(−i dt (H0 + u O + ū O†)) of the dense static
    Hamiltonian and, with `compensate`, each timed step followed by the
    dense diagonal undoing its Kerr and cross-Kerr phases, and the gate by
    the lifted diag(e^{iε²T/(4nχ)}), n ≥ 1, undoing the AC-Stark phases of
    each rotation conditioned on one cavity's vacuum.
    """
    space = layout.space
    u = np.eye(space.dim, dtype=complex)
    if params is not None:
        h0 = static_hamiltonian(params, layout)
        kerr = cavity_static_diag(params, layout)
    t = 0.0
    for step in spec.steps:
        if isinstance(step, Displacement):
            d = lift(displacement(step.alpha, layout.mode(step.label)), layout.index[step.label], space)
            u = d @ u
            continue
        if params is None:
            if isinstance(step, ConditionalRotation):
                u = dense_conditional_rotation(layout, step) @ u
            continue
        amps = _drive_samples(step, params, t)
        u = dense_play(u, h0, PulseSequence(step.qubit, amps, SAMPLE_DT), layout)
        span = len(amps) * SAMPLE_DT
        if compensate:
            u = np.diag(np.exp(1j * kerr * span)) @ u
        t += span
    for step in spec.steps if params is not None and compensate else ():
        if isinstance(step, ConditionalRotation) and len(step.condition) == 1:
            (cavity, level), = step.condition
            assert level == 0
            mode = layout.mode(cavity)
            n = np.arange(1, mode.dim)
            chi = params.chi[(cavity, step.qubit)]
            theta = np.concatenate([[0.0], step.epsilon**2 * step.duration / (4 * n * chi)])
            u = lift(np.diag(np.exp(1j * theta)), layout.index[cavity], space) @ u
    return u


def _fast(spec):
    """The spec with its conditional rotations at ε = 0.05, so that the
    dense oracle plays few samples."""
    steps = (
        replace(s, epsilon=0.05) if isinstance(s, ConditionalRotation) else s for s in spec.steps
    )
    return GateSpec(spec.name, tuple(steps))


def _backend_oracle_specs(params):
    return {
        # a complex amplitude, so that D is not a real matrix
        "cz_coherent": _fast(cz_coherent(0.5 * np.exp(0.4j), params)),
        "snap_bell": _fast(snap_bell(+1)),
        # a single-cavity phase gate: the only case with AC-Stark phases
        "phase_gate": GateSpec(
            "s",
            tuple(
                ConditionalRotation("Q3", phi, np.pi, 0.05, (("S1", 0),))
                for phi in (0.0, -CANONICAL_DELTA_PHI["S"])
            ),
        ),
    }


@pytest.mark.parametrize("name", ["cz_coherent", "snap_bell", "phase_gate"])
def test_backends_match_dense_lifted_oracle(params, dense_play, name):
    """IdealBackend.apply, PulseBackend.apply with and without phase
    compensation, and PulseBackend.apply_density (closed system) equal the
    dense lifted-operator gate.  Each backend maps a (dim, 3) stack to its
    columns pushed one at a time, and a state vector to its (dim, 1) stack,
    bit for bit, and rejects an input whose first axis is not the layout's
    dim, a Ket among them.  `apply_density` maps a (2, dim, dim) stack to
    its matrices pushed one at a time."""
    spec = _backend_oracle_specs(params)[name]
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 5, "S2": 4})
    dim = layout.space.dim
    rng = np.random.default_rng(23)
    x = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    x /= np.linalg.norm(x, axis=0)

    backends = [(IdealBackend(layout), dense_gate_unitary(dense_play, layout, spec))]
    for compensate in (True, False):
        u = dense_gate_unitary(dense_play, layout, spec, params, compensate)
        backends.append((PulseBackend(params, layout, compensate=compensate), u))
    for backend, u in backends:
        out = backend.apply(x, spec)
        assert out.shape == x.shape
        assert np.max(np.abs(out - u @ x)) < 1e-12
        assert np.array_equal(out, np.stack([backend.apply(v, spec) for v in x.T], axis=1))
        assert np.array_equal(backend.apply(x[:, 0], spec), backend.apply(x[:, :1], spec)[:, 0])
        for bad in (x[1:], x.T, x[..., None], Ket(layout.space, x[:, 0])):
            with pytest.raises(ValidationError):
                backend.apply(bad, spec)

    backend, u = backends[1]
    rho = 0.7 * np.outer(x[:, 0], x[:, 0].conj()) + 0.3 * np.eye(dim) / dim
    out = backend.apply_density(rho, spec, ())
    assert np.max(np.abs(out - u @ rho @ u.conj().T)) < 1e-12
    other = np.outer(x[:, 1], x[:, 1].conj())
    stacked = backend.apply_density(np.stack([rho, other]), spec, ())
    assert stacked.shape == (2, dim, dim)
    assert np.max(np.abs(stacked[0] - out)) < 1e-15
    assert np.max(np.abs(stacked[1] - backend.apply_density(other, spec, ()))) < 1e-15


@pytest.mark.parametrize("width", [1, 3, 16])
def test_pulse_backend_plays_each_pulse_once_per_stack(params, monkeypatch, width):
    """`PulseBackend.apply` hands `evolve_pulse` one Ket of the whole
    (dim, width) stack per pulse segment, whatever the width: a gate of two
    rotations between displacements calls it twice."""
    import cavitysim.gates as gates

    shapes = []
    evolve = gates.evolve_pulse

    def observed(state, *args):
        shapes.append(state.amplitudes.shape)
        return evolve(state, *args)

    monkeypatch.setattr(gates, "evolve_pulse", observed)
    layout = SystemLayout.build(["Q3"], ["S1"], {"S1": 6})
    cond = (("S1", 0),)
    spec = GateSpec(
        "two-rotations",
        (
            Displacement("S1", 0.4),
            ConditionalRotation("Q3", 0.0, np.pi, 0.05, cond),
            ConditionalRotation("Q3", 0.7, np.pi, 0.05, cond),
            Displacement("S1", -0.4),
        ),
    )
    x = np.random.default_rng(width).normal(size=(layout.space.dim, width)).astype(complex)
    PulseBackend(params, layout).apply(x, spec)
    assert shapes == [(layout.space.dim, width)] * 2


def test_apply_density_leaves_its_input_writeable(params):
    """The records that `apply_density` hands `lindblad_evolve` freeze a
    view, not the caller's matrix."""
    layout = SystemLayout.build(["Q3"], ["S1"], {"S1": 4})
    rho = np.eye(layout.space.dim, dtype=complex) / layout.space.dim
    PulseBackend(params, layout).apply_density(rho, _rotation("Q3", 0.0, np.pi, 0.05, (("S1", 0),)), ())
    assert rho.flags.writeable

