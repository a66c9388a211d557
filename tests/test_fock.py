import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import cavitysim.fock as fock
from cavitysim.errors import ValidationError
from cavitysim.fock import (
    CompositeSpace,
    LinearOp,
    ModeSpec,
    apply_on_factor,
    coherent,
    displacement,
    embed,
    fock_ket,
    partial_trace,
    qubit_ket,
)

from oracles import (
    annihilation,
    density,
    expectation,
    normalized,
    number_op,
    parity_op,
    partial_trace_density,
    sigma_plus,
    tensor,
    validate_density,
)


def _op(spec, m):
    """The single-mode matrix m as the LinearOp that `embed` lifts."""
    return LinearOp(CompositeSpace((spec,)), m)


def test_annihilation_lowers_one_photon():
    spec = ModeSpec.bosonic(2)
    a = annihilation(spec)
    out = a @ fock_ket(spec, 1)
    assert abs(out[0] - 1.0) < 1e-14


def test_annihilation_kills_vacuum():
    spec = ModeSpec.bosonic(6)
    out = annihilation(spec) @ fock_ket(spec, 0)
    assert np.allclose(out, 0)


def test_canonical_commutator_below_truncation():
    spec = ModeSpec.bosonic(5)
    a = annihilation(spec)
    comm = a @ a.conj().T - a.conj().T @ a
    # levels 0..3 see the canonical commutator; the top level is truncated
    assert np.allclose(np.diag(comm)[:4], 1.0)


def test_annihilation_rejects_qubit():
    with pytest.raises(ValidationError):
        annihilation(ModeSpec.qubit())


def test_displacement_zero_is_identity():
    spec = ModeSpec.bosonic(12)
    d = displacement(0.0, spec)
    assert d.dtype == complex
    assert np.allclose(d, np.eye(12))


@pytest.mark.parametrize(
    "dim, alpha",
    [(12, 0.7), (21, 1.0), (30, 2.0 * np.sqrt(2.0)), (60, 3.0 + 2.0j)],
    ids=["12", "21", "30", "60"],
)
@pytest.mark.filterwarnings("ignore:displacement amplitude")
def test_displacement_matches_expm_of_truncated_generator(dim, alpha):
    """The closed form R(θ) V e^{−i|α|w} V† R(θ)† is the exponential of the
    truncated generator α a† − ᾱ a, computed here by `expm`."""
    spec = ModeSpec.bosonic(dim)
    a = annihilation(spec)
    ref = expm(alpha * a.conj().T - np.conj(alpha) * a)
    d = displacement(alpha, spec)
    assert np.max(np.abs(d - ref)) < 1e-13
    assert np.array_equal(displacement(alpha, spec), d)
    w, v = fock._displacement_eigenbasis(dim)
    assert not w.flags.writeable and not v.flags.writeable
    with pytest.raises(ValueError):
        v[0, 0] = 0.0


def test_displacement_vacuum_overlap():
    spec = ModeSpec.bosonic(40)
    d = displacement(1.0, spec)
    assert abs(d[0, 0] - np.exp(-0.5)) < 1e-8


def test_displacement_inverse():
    spec = ModeSpec.bosonic(40)
    prod = displacement(np.sqrt(2), spec) @ displacement(-np.sqrt(2), spec)
    assert np.max(np.abs(prod - np.eye(40))) < 1e-6


def test_displacement_composition_phase():
    spec = ModeSpec.bosonic(40)
    alpha, beta = 0.7 + 0.3j, -0.4 + 1.1j
    lhs = displacement(alpha, spec) @ displacement(beta, spec)
    rhs = np.exp(1j * np.imag(alpha * np.conjugate(beta))) * displacement(alpha + beta, spec)
    # compare away from the truncation edge, where the residual is pure
    # truncation error by construction
    assert np.max(np.abs(lhs[:20, :20] - rhs[:20, :20])) < 1e-6


def test_coherent_zero_is_vacuum():
    spec = ModeSpec.bosonic(10)
    assert np.allclose(coherent(0, spec), fock_ket(spec, 0))


def test_coherent_mean_photon_number():
    spec = ModeSpec.bosonic(30)
    psi = coherent(np.sqrt(2), spec)
    n = expectation(psi, number_op(spec))
    assert abs(n - 2.0) < 1e-6


def test_coherent_overlap():
    spec = ModeSpec.bosonic(30)
    alpha = np.sqrt(2)
    ov = np.vdot(coherent(alpha, spec), coherent(-alpha, spec))
    assert abs(ov - np.exp(-2 * alpha**2)) < 1e-8


def test_parity_even_cat():
    spec = ModeSpec.bosonic(30)
    alpha = 1.3
    cat = normalized(coherent(alpha, spec) + coherent(-alpha, spec))
    assert abs(expectation(cat, parity_op(spec)) - 1.0) < 1e-9


def test_parity_single_photon_and_coherent():
    spec = ModeSpec.bosonic(30)
    assert expectation(fock_ket(spec, 1), parity_op(spec)).real == -1.0
    alpha = 1.1
    p = expectation(coherent(alpha, spec), parity_op(spec))
    assert abs(p - np.exp(-2 * alpha**2)) < 1e-8


def test_embed_commuting_factors():
    space = CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(4)))
    sp = embed(_op(ModeSpec.qubit(), sigma_plus()), 0, space)
    a = embed(_op(ModeSpec.bosonic(4), annihilation(ModeSpec.bosonic(4))), 1, space)
    assert np.allclose((sp @ a).matrix, (a @ sp).matrix)


def test_embed_identity_and_expectation():
    space = CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(4)))
    ident = embed(LinearOp.identity(CompositeSpace((ModeSpec.qubit(),))), 0, space)
    assert np.allclose(ident.matrix, np.eye(8))
    n = embed(_op(ModeSpec.bosonic(4), number_op(ModeSpec.bosonic(4))), 1, space)
    e1 = tensor([qubit_ket(True), fock_ket(ModeSpec.bosonic(4), 1)])
    assert abs(expectation(e1, n.matrix) - 1.0) < 1e-12


def test_embed_dim_mismatch():
    space = CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(4)))
    with pytest.raises(ValidationError):
        embed(_op(ModeSpec.bosonic(5), annihilation(ModeSpec.bosonic(5))), 1, space)


@pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "stack"])
def test_apply_on_factor_matches_embed(shape):
    """Oracle: the factor-local product equals the lifted dense product on
    every factor of a qubit + two-cavity space with unequal cavity dims."""
    space = CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(4), ModeSpec.bosonic(3)))
    rng = np.random.default_rng(21)
    x = rng.normal(size=(space.dim,) + shape) + 1j * rng.normal(size=(space.dim,) + shape)
    for i, f in enumerate(space.factors):
        m = rng.normal(size=(f.dim, f.dim)) + 1j * rng.normal(size=(f.dim, f.dim))
        out = apply_on_factor(m, i, space, x)
        assert out.shape == x.shape
        assert np.max(np.abs(out - embed(_op(f, m), i, space).matrix @ x)) < 1e-14


def test_apply_on_factor_dim_mismatch():
    space = CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(4)))
    with pytest.raises(ValidationError):
        apply_on_factor(annihilation(ModeSpec.bosonic(5)), 1, space, np.zeros(8))
    with pytest.raises(ValidationError):
        apply_on_factor(np.zeros((4, 5)), 1, space, np.zeros(8))


def test_expectation_hermitian_is_real():
    spec = ModeSpec.bosonic(8)
    rng = np.random.default_rng(7)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = normalized(v)
    val = expectation(psi, number_op(spec))
    assert abs(val.imag) < 1e-10
    assert abs(expectation(psi, np.eye(8)) - 1) < 1e-10


def test_expectation_number_on_fock():
    spec = ModeSpec.bosonic(8)
    assert abs(expectation(fock_ket(spec, 3), number_op(spec)) - 3.0) < 1e-12


def test_partial_trace_product_state():
    b = ModeSpec.bosonic(4)
    psi1 = coherent(0.5, b)
    psi2 = fock_ket(b, 2)
    joint = tensor([psi1, psi2])
    red = partial_trace(joint, (4, 4), keep=[0])
    assert np.max(np.abs(red - density(psi1))) < 1e-12
    assert abs(np.trace(red) - 1.0) < 1e-10


def test_partial_trace_bell_state():
    b = ModeSpec.bosonic(2)
    v01 = tensor([fock_ket(b, 0), fock_ket(b, 1)])
    v10 = tensor([fock_ket(b, 1), fock_ket(b, 0)])
    bell = (v01 + v10) / np.sqrt(2)
    for keep in ([0], [1]):
        red = partial_trace(bell, (2, 2), keep=keep)
        assert np.max(np.abs(red - 0.5 * np.eye(2))) < 1e-12


def test_partial_trace_of_density_tensor():
    """The amplitude-tensor reduction of a product state equals the oracle's
    trace over the axis pairs of its density matrix, and the factor's own
    density matrix."""
    b = ModeSpec.bosonic(3)
    rho1 = density(coherent(0.4, b))
    joint = tensor([coherent(0.4, b), fock_ket(b, 1)])
    for red in (partial_trace(joint, (3, 3), keep=[0]), partial_trace_density(density(joint), (3, 3), [0])):
        assert np.max(np.abs(red - rho1)) < 1e-12


@pytest.mark.parametrize("as_density", [False, True])
def test_partial_trace_keeps_the_order_given(as_density):
    """With as_density, the oracle's reduction of the density matrix."""
    kets = [coherent(0.4, ModeSpec.bosonic(3)), fock_ket(ModeSpec.bosonic(2), 1),
            coherent(0.3j, ModeSpec.bosonic(4))]
    joint, dims = tensor(kets), (3, 2, 4)
    trace = partial_trace_density if as_density else partial_trace
    state = density(joint) if as_density else joint
    red = trace(state, dims, [2, 1])
    assert red.shape == (8, 8)
    assert np.max(np.abs(red - density(tensor([kets[2], kets[1]])))) < 1e-12
    with pytest.raises(ValidationError):
        trace(state, dims, [1, 1])
    with pytest.raises(ValidationError):
        trace(state, dims, [3])


def test_partial_trace_refuses_a_state_of_another_size():
    with pytest.raises(ValidationError, match="shape"):
        partial_trace(np.ones(5), (2, 3), [0])
    with pytest.raises(ValidationError, match="shape"):
        partial_trace(density(np.ones(6)), (2, 3), [0])


@settings(max_examples=30, deadline=None)
@given(
    st.floats(-1.5, 1.5),
    st.floats(-1.5, 1.5),
)
def test_parity_expectation_bounded(re, im):
    spec = ModeSpec.bosonic(30)
    psi = coherent(re + 1j * im, spec)
    p = expectation(psi, parity_op(spec)).real
    assert -1 - 1e-9 <= p <= 1 + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1000))
def test_random_state_parity_bounded(seed):
    spec = ModeSpec.bosonic(12)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi = normalized(v)
    p = expectation(psi, parity_op(spec)).real
    assert -1 - 1e-9 <= p <= 1 + 1e-9


def test_density_validate_rejects_bad_trace():
    spec = ModeSpec.bosonic(3)
    with pytest.raises(ValidationError):
        validate_density(2 * np.eye(3))


def test_states_are_complex_arrays():
    """The state constructors return complex ndarrays: no wrapper, and the
    dtype the evolution kernels and the Kronecker products work in."""
    b = ModeSpec.bosonic(5)
    for v in (coherent(0.5, b), coherent(0, b), fock_ket(b, 2), qubit_ket(), qubit_ket(True)):
        assert type(v) is np.ndarray and v.dtype == complex and v.ndim == 1
    assert np.array_equal(qubit_ket(True), [0, 1])


def test_coherent_refuses_a_state_that_vanishes_on_its_truncation():
    """Every amplitude of |40⟩ underflows on 10 levels: refused, not NaN."""
    with pytest.raises(ValidationError, match="vanishes"):
        coherent(40.0, ModeSpec.bosonic(10))
