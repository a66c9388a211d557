import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import cavitysim.fock as fock
from cavitysim.errors import ValidationError
from cavitysim.fock import (
    CompositeSpace,
    DensityOp,
    Ket,
    LinearOp,
    ModeSpec,
    annihilation,
    apply_on_factor,
    coherent,
    displacement,
    embed,
    expectation,
    fock_ket,
    number_op,
    partial_trace,
    sigma_plus,
    tensor,
)

from oracles import density, parity_op, validate_density


def test_annihilation_lowers_one_photon():
    spec = ModeSpec.bosonic(2)
    a = annihilation(spec)
    out = a @ fock_ket(spec, 1)
    assert abs(out.amplitudes[0] - 1.0) < 1e-14


def test_annihilation_kills_vacuum():
    spec = ModeSpec.bosonic(6)
    out = annihilation(spec) @ fock_ket(spec, 0)
    assert np.allclose(out.amplitudes, 0)


def test_canonical_commutator_below_truncation():
    spec = ModeSpec.bosonic(5)
    a = annihilation(spec).matrix
    comm = a @ a.conj().T - a.conj().T @ a
    # levels 0..3 see the canonical commutator; the top level is truncated
    assert np.allclose(np.diag(comm)[:4], 1.0)


def test_annihilation_rejects_qubit():
    with pytest.raises(ValidationError):
        annihilation(ModeSpec.qubit())


def test_displacement_zero_is_identity():
    spec = ModeSpec.bosonic(12)
    d = displacement(0.0, spec)
    assert np.allclose(d.matrix, np.eye(12))


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
    a = annihilation(spec).matrix
    ref = expm(alpha * a.conj().T - np.conj(alpha) * a)
    d = displacement(alpha, spec).matrix
    assert np.max(np.abs(d - ref)) < 1e-13
    assert np.array_equal(displacement(alpha, spec).matrix, d)
    w, v = fock._displacement_eigenbasis(dim)
    assert not w.flags.writeable and not v.flags.writeable
    with pytest.raises(ValueError):
        v[0, 0] = 0.0


def test_displacement_vacuum_overlap():
    spec = ModeSpec.bosonic(40)
    d = displacement(1.0, spec)
    assert abs(d.matrix[0, 0] - np.exp(-0.5)) < 1e-8


def test_displacement_inverse():
    spec = ModeSpec.bosonic(40)
    prod = displacement(np.sqrt(2), spec) @ displacement(-np.sqrt(2), spec)
    assert np.max(np.abs(prod.matrix - np.eye(40))) < 1e-6


def test_displacement_composition_phase():
    spec = ModeSpec.bosonic(40)
    alpha, beta = 0.7 + 0.3j, -0.4 + 1.1j
    lhs = displacement(alpha, spec) @ displacement(beta, spec)
    rhs = np.exp(1j * np.imag(alpha * np.conjugate(beta))) * displacement(
        alpha + beta, spec
    ).matrix
    # compare away from the truncation edge, where the residual is pure
    # truncation error by construction
    assert np.max(np.abs(lhs.matrix[:20, :20] - rhs[:20, :20])) < 1e-6


def test_coherent_zero_is_vacuum():
    spec = ModeSpec.bosonic(10)
    assert np.allclose(coherent(0, spec).amplitudes, fock_ket(spec, 0).amplitudes)


def test_coherent_mean_photon_number():
    spec = ModeSpec.bosonic(30)
    psi = coherent(np.sqrt(2), spec)
    n = expectation(psi, number_op(spec))
    assert abs(n - 2.0) < 1e-6


def test_coherent_overlap():
    spec = ModeSpec.bosonic(30)
    alpha = np.sqrt(2)
    ov = coherent(alpha, spec).overlap(coherent(-alpha, spec))
    assert abs(ov - np.exp(-2 * alpha**2)) < 1e-8


def test_parity_even_cat():
    spec = ModeSpec.bosonic(30)
    alpha = 1.3
    cat = Ket(
        coherent(alpha, spec).space,
        coherent(alpha, spec).amplitudes + coherent(-alpha, spec).amplitudes,
    ).normalized()
    assert abs(expectation(cat, parity_op(spec)) - 1.0) < 1e-9


def test_parity_single_photon_and_coherent():
    spec = ModeSpec.bosonic(30)
    assert expectation(fock_ket(spec, 1), parity_op(spec)).real == -1.0
    alpha = 1.1
    p = expectation(coherent(alpha, spec), parity_op(spec))
    assert abs(p - np.exp(-2 * alpha**2)) < 1e-8


def test_tensor_kets_joint_index():
    q = ModeSpec.qubit()
    b = ModeSpec.bosonic(4)
    joint = tensor([fock_ket(q, 0), fock_ket(b, 1)])
    nz = np.nonzero(joint.amplitudes)[0]
    assert list(nz) == [joint.space.joint_index((0, 1))]
    assert joint.space.factors == (q, b)
    psi = coherent(0.3 - 0.2j, b)
    assert np.array_equal(tensor([fock_ket(q, 1), psi]).amplitudes, np.kron([0, 1], psi.amplitudes))


def test_tensor_mixed_kinds_rejected():
    """tensor takes a non-empty list of kets only."""
    b = ModeSpec.bosonic(3)
    for items in (
        [fock_ket(b, 0), annihilation(b)],
        [annihilation(b), annihilation(b)],
        [density(fock_ket(b, 0)), density(fock_ket(b, 1))],
        [],
    ):
        with pytest.raises(ValidationError):
            tensor(items)


def test_embed_commuting_factors():
    space = CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(4)))
    sp = embed(sigma_plus(), 0, space)
    a = embed(annihilation(ModeSpec.bosonic(4)), 1, space)
    assert np.allclose((sp @ a).matrix, (a @ sp).matrix)


def test_embed_identity_and_expectation():
    space = CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(4)))
    ident = embed(LinearOp.identity(CompositeSpace.single(ModeSpec.qubit())), 0, space)
    assert np.allclose(ident.matrix, np.eye(8))
    n = embed(number_op(ModeSpec.bosonic(4)), 1, space)
    e1 = tensor([fock_ket(ModeSpec.qubit(), 1), fock_ket(ModeSpec.bosonic(4), 1)])
    assert abs(expectation(e1, n) - 1.0) < 1e-12


def test_embed_dim_mismatch():
    space = CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(4)))
    with pytest.raises(ValidationError):
        embed(annihilation(ModeSpec.bosonic(5)), 1, space)


@pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "stack"])
def test_apply_on_factor_matches_embed(shape):
    """Oracle: the factor-local product equals the lifted dense product on
    every factor of a qubit + two-cavity space with unequal cavity dims."""
    space = CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(4), ModeSpec.bosonic(3)))
    rng = np.random.default_rng(21)
    x = rng.normal(size=(space.dim,) + shape) + 1j * rng.normal(size=(space.dim,) + shape)
    for i, f in enumerate(space.factors):
        m = rng.normal(size=(f.dim, f.dim)) + 1j * rng.normal(size=(f.dim, f.dim))
        op = LinearOp(CompositeSpace.single(f), m)
        out = apply_on_factor(op, i, space, x)
        assert out.shape == x.shape
        assert np.max(np.abs(out - embed(op, i, space).matrix @ x)) < 1e-14


def test_apply_on_factor_dim_mismatch():
    space = CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(4)))
    with pytest.raises(ValidationError):
        apply_on_factor(annihilation(ModeSpec.bosonic(5)), 1, space, np.zeros(8))


def test_expectation_hermitian_is_real():
    spec = ModeSpec.bosonic(8)
    rng = np.random.default_rng(7)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = Ket(CompositeSpace.single(spec), v).normalized()
    val = expectation(psi, number_op(spec))
    assert abs(val.imag) < 1e-10
    assert abs(expectation(psi, LinearOp.identity(psi.space)) - 1) < 1e-10


def test_expectation_takes_kets_only():
    spec = ModeSpec.bosonic(4)
    with pytest.raises(ValidationError):
        expectation(density(fock_ket(spec, 1)), number_op(spec))


def test_expectation_number_on_fock():
    spec = ModeSpec.bosonic(8)
    assert abs(expectation(fock_ket(spec, 3), number_op(spec)) - 3.0) < 1e-12


def test_partial_trace_product_state():
    b = ModeSpec.bosonic(4)
    psi1 = coherent(0.5, b)
    psi2 = fock_ket(b, 2)
    joint = tensor([psi1, psi2])
    red = partial_trace(joint, keep=[0])
    assert np.max(np.abs(red.matrix - density(psi1).matrix)) < 1e-12
    assert abs(np.trace(red.matrix) - 1.0) < 1e-10


def test_partial_trace_bell_state():
    b = ModeSpec.bosonic(2)
    v01 = tensor([fock_ket(b, 0), fock_ket(b, 1)]).amplitudes
    v10 = tensor([fock_ket(b, 1), fock_ket(b, 0)]).amplitudes
    bell = Ket(tensor([fock_ket(b, 0), fock_ket(b, 1)]).space, (v01 + v10) / np.sqrt(2))
    for keep in ([0], [1]):
        red = partial_trace(bell, keep=keep)
        assert np.max(np.abs(red.matrix - 0.5 * np.eye(2))) < 1e-12


def test_partial_trace_of_density_tensor():
    b = ModeSpec.bosonic(3)
    rho1 = density(coherent(0.4, b))
    joint = density(tensor([coherent(0.4, b), fock_ket(b, 1)]))
    red = partial_trace(joint, keep=[0])
    assert np.max(np.abs(red.matrix - rho1.matrix)) < 1e-12


@pytest.mark.parametrize("as_density", [False, True])
def test_partial_trace_keeps_the_order_given(as_density):
    kets = [coherent(0.4, ModeSpec.bosonic(3)), fock_ket(ModeSpec.bosonic(2), 1),
            coherent(0.3j, ModeSpec.bosonic(4))]
    joint = tensor(kets)
    red = partial_trace(density(joint) if as_density else joint, keep=[2, 1])
    assert red.space.dims == (4, 2)
    assert np.max(np.abs(red.matrix - density(tensor([kets[2], kets[1]])).matrix)) < 1e-12
    with pytest.raises(ValidationError):
        partial_trace(density(joint) if as_density else joint, keep=[1, 1])


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
    psi = Ket(CompositeSpace.single(spec), v).normalized()
    p = expectation(psi, parity_op(spec)).real
    assert -1 - 1e-9 <= p <= 1 + 1e-9


def test_density_validate_rejects_bad_trace():
    spec = ModeSpec.bosonic(3)
    with pytest.raises(ValidationError):
        validate_density(DensityOp(CompositeSpace.single(spec), 2 * np.eye(3)))
