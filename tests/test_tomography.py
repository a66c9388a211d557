
import json
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import laguerre

from cavitysim.codes import cat_encoding
from cavitysim.errors import ValidationError
from cavitysim.fock import (
    CompositeSpace,
    ModeSpec,
    coherent,
    displacement,
    fock_ket,
    qubit_ket,
    recommended_dim,
)
from cavitysim.tomography import (
    joint_wigner,
    pauli_labels,
    pauli_matrix,
    pauli_transfer,
    process_fidelity,
    unitary_transfer,
    wigner,
    wigner_grid,
)

from oracles import check_physical, density, joint_wigner_density, parity_op, tensor, wigner_integral

TWO_PI = 2.0 / np.pi


def _space(*dims):
    """The space of cavities of the given dims."""
    return CompositeSpace(tuple(ModeSpec.bosonic(d) for d in dims))


def _qubit_cavity(d):
    return CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(d)))


def test_wigner_vacuum_and_one_photon():
    spec = ModeSpec.bosonic(10)
    space = CompositeSpace((spec,))
    assert abs(wigner(fock_ket(spec, 0), space, 0.0) - TWO_PI) < 1e-12
    assert abs(wigner(fock_ket(spec, 1), space, 0.0) + TWO_PI) < 1e-12


def test_wigner_coherent_displaced_peak():
    spec = ModeSpec.bosonic(25)
    psi, space = coherent(0.7, spec), CompositeSpace((spec,))
    assert abs(wigner(psi, space, 0.7) - TWO_PI) < 1e-8
    # Gaussian falloff: W(β) = (2/π) e^{−2|β−α|²}
    assert abs(wigner(psi, space, 0.2) - TWO_PI * np.exp(-2 * 0.25)) < 1e-8


def test_wigner_grid_integral_is_one():
    spec = ModeSpec.bosonic(55)
    psi = coherent(0.5, spec)
    ax = np.arange(-3.5, 3.5 + 1e-9, 0.14)
    grid = wigner_grid(psi, CompositeSpace((spec,)), 0, ax + 0.5, ax)
    assert abs(wigner_integral(ax + 0.5, ax, grid) - 1.0) < 0.01


# the `sim wigner` default grid: extent 2.5, 41 points per axis
CLI_AXIS = np.linspace(-2.5, 2.5, 41)


def _grid_betas(axis):
    return axis[None, :] + 1j * axis[:, None]  # rows follow im_axis, as in wigner_grid


def _fock_w(n, beta):
    """(2/π) (−1)^n e^{−2|β|²} L_n(4|β|²)"""
    x = 4 * np.abs(beta) ** 2
    return TWO_PI * (-1) ** n * np.exp(-x / 2) * laguerre.lagval(x, np.eye(n + 1)[n])


@pytest.mark.parametrize("n", [0, 1, 5])
def test_wigner_grid_fock_states_analytic(n):
    # the CLI's default truncation for a Fock state, 2n + 2 levels
    grid = wigner_grid(fock_ket(ModeSpec.bosonic(2 * n + 2), n), _space(2 * n + 2), 0, CLI_AXIS, CLI_AXIS)
    assert np.max(np.abs(grid - _fock_w(n, _grid_betas(CLI_AXIS)))) < 1e-12


@pytest.mark.parametrize(
    "alpha, dim, axis",
    [(2.0, recommended_dim(4.0), CLI_AXIS), (9.0, 200, np.linspace(-12, 12, 17))],
    ids=["cli-grid", "alpha-9-dim-200"],
)
def test_wigner_grid_coherent_state_analytic(alpha, dim, axis):
    """W = (2/π) e^{−2|β−α|²}; at |β| = 12√2 the prefactor e^{−2|β|²} alone is
    e^{−576}, so the closed form must keep it as a logarithm."""
    grid = wigner_grid(coherent(alpha, ModeSpec.bosonic(dim)), _space(dim), 0, axis, axis)
    expected = TWO_PI * np.exp(-2 * np.abs(_grid_betas(axis) - alpha) ** 2)
    assert np.max(np.abs(grid - expected)) < 1e-12


@pytest.mark.parametrize("dim", [5, 9, 21])
def test_wigner_is_exact_at_any_beta(dim):
    """Far out in phase space every element of D(2β)Π carries e^{−2|β|²}, so
    the values are their correctly rounded 0: not NaN, as they were past
    |β| ≈ 3e19 at 9 levels or more and past ≈ 3e38 at 5, where 8 recurrence
    steps overflowed.  Nearer in, the values match the closed form."""
    betas = np.array([0.5, 3.0, 12.0, 20.0, 1e3, 1e10, 1e19, 3e19, 1e20, 3e38, 1e40, 1e200]) * np.exp(0.3j)
    w = wigner(fock_ket(ModeSpec.bosonic(dim), 1), _space(dim), betas)
    assert np.all(np.isfinite(w))
    near = np.abs(betas) < 30
    assert np.max(np.abs(w[near] - _fock_w(1, betas[near]))) < 1e-12
    assert np.all(w[~near] == 0)
    joint = joint_wigner(tensor([fock_ket(ModeSpec.bosonic(dim), 1)] * 2), _space(dim, dim), betas, 0.0)
    assert np.all(np.isfinite(joint)) and np.all(joint[~near] == 0)


def test_wigner_of_one_photon_at_beta_1e20_is_zero():
    assert wigner(fock_ket(ModeSpec.bosonic(21), 1), _space(21), 1e20) == 0.0


def _mixed_cavity_state(dim):
    """Two cavities entangling a cat held in 20 levels with Fock states, so each
    reduced state is mixed and has coherences."""
    s = ModeSpec.bosonic(dim)
    cat = np.zeros(dim, dtype=complex)
    cat[:20] = coherent(0.9, ModeSpec.bosonic(20))
    cat[:20] += 1j * coherent(-0.9, ModeSpec.bosonic(20))
    amps = np.kron(cat, fock_ket(s, 1)) + 0.5j * np.kron(fock_ket(s, 3), cat)
    return amps / np.linalg.norm(amps), CompositeSpace((s, s))


def test_small_beta_matches_matrix_exponential_path():
    """|β| <= 1: the closed form reproduces (2/π) Tr[ρ D(β) Π D(β)†] with D(β)
    the exponential of the truncated generator, where truncation is harmless."""
    spec = ModeSpec.bosonic(40)
    psi, space = _mixed_cavity_state(40)
    rho = density(psi).reshape(40, 40, 40, 40)
    rho1 = np.einsum("ijkj->ik", rho)
    pi_m = parity_op(spec)
    betas = [0.0, 0.3, -0.7j, 0.5 + 0.5j, np.exp(2.1j), -0.6 - 0.8j]
    ops = []
    for b in betas:
        d = displacement(b, spec)
        ops.append(d @ pi_m @ d.conj().T)
    for b, op in zip(betas, ops):
        ref = TWO_PI * np.real(np.trace(rho1 @ op))
        assert abs(wigner(psi, space, b) - ref) < 1e-10
    for (b1, op1), (b2, op2) in zip(zip(betas, ops), zip(betas[::-1], ops[::-1])):
        ref = np.real(np.einsum("ijkl,ki,lj->", rho, op1, op2))
        assert abs(joint_wigner(psi, space, b1, b2) - ref) < 1e-10


def _bell_cat(dim):
    """The Bell recipe's cat-code state (|0_L 1_L> + |1_L 0_L>)/√2 at alpha 1.2,
    26 levels per cavity, zero-padded to `dim` levels."""
    with pytest.warns(UserWarning, match="overlap"):  # as in the recipe
        b0, b1 = cat_encoding(1.2, 26).basis.T
    amps = np.zeros((dim, dim), dtype=complex)
    amps[:26, :26] = (np.outer(b0, b1) + np.outer(b1, b0)) / np.sqrt(2)
    return amps.reshape(-1), _space(dim, dim)


def test_bell_cat_state_is_independent_of_truncation():
    """The dim-26 values equal those of the state zero-padded to more levels:
    each value is exact for the state as truncated, also where |β|² > dim/4."""
    xs = np.linspace(-2.5, 2.5, 21)
    grid = _grid_betas(CLI_AXIS)
    psi = _bell_cat(26)
    assert np.max(np.abs(wigner(*psi, grid) - wigner(*_bell_cat(90), grid))) < 1e-12
    padded = _bell_cat(36)
    for sign in (1, -1):
        ref = joint_wigner(*padded, xs, sign * xs)
        assert np.max(np.abs(joint_wigner(*psi, xs, sign * xs) - ref)) < 1e-12


def test_array_calls_match_scalar_calls():
    psi = _mixed_cavity_state(30)  # (amplitudes, space)
    betas = np.array([[0.0, 0.4 - 1.1j, -2.0], [1.5j, 0.3 + 0.2j, 2.2 + 1.9j]])
    w = wigner(*psi, betas, factor_index=1)
    assert w.shape == betas.shape
    scalar = np.array([[wigner(*psi, b, factor_index=1) for b in row] for row in betas])
    assert np.max(np.abs(w - scalar)) < 1e-14
    beta2 = betas[0, ::-1]  # broadcasts over the rows of betas
    joint = joint_wigner(*psi, betas, beta2)
    assert joint.shape == betas.shape
    scalar = np.array([[joint_wigner(*psi, b1, b2) for b1, b2 in zip(row, beta2)] for row in betas])
    assert np.max(np.abs(joint - scalar)) < 1e-14
    re_axis, im_axis = betas[0].real, betas[:, 1].imag
    grid = wigner_grid(*psi, 1, re_axis, im_axis)
    scalar = [[wigner(*psi, x + 1j * y, factor_index=1) for x in re_axis] for y in im_axis]
    assert np.max(np.abs(grid - np.array(scalar))) < 1e-14


def test_wigner_of_a_qubit_factor_is_rejected():
    psi = tensor([qubit_ket(True), fock_ket(ModeSpec.bosonic(4), 1)])
    space = _qubit_cavity(4)
    with pytest.raises(ValidationError):
        wigner(psi, space, 0.3, factor_index=0)
    with pytest.raises(ValidationError):
        wigner_grid(psi, space, 0, [0.0, 0.1], [0.0, 0.1])
    with pytest.raises(ValidationError):
        joint_wigner(psi, space, 0.3, 0.1)


@pytest.mark.parametrize(
    "re_axis, im_axis", [([0.0], [0.0]), ([0.0, 0.5], [0.0]), ([], [0.0, 0.5])]
)
def test_wigner_grid_integral_needs_two_points_per_axis(re_axis, im_axis):
    """A one-point axis has no step (it raised IndexError)."""
    grid = wigner_grid(fock_ket(ModeSpec.bosonic(4), 0), _space(4), 0, re_axis, im_axis)
    with pytest.raises(ValidationError, match="two points"):
        wigner_integral(re_axis, im_axis, grid)


def test_wigner_grid_serialization_roundtrip(tmp_path):
    """`sim wigner` writes the grid as (re, im, w) rows, one im_axis row of
    the grid after another, and as its axes and values in result.json; both
    read back to the grid bit for bit."""
    from cavitysim.cli import main

    ax = np.linspace(-1, 1, 5)
    grid = wigner_grid(fock_ket(ModeSpec.bosonic(6), 1), _space(6), 0, ax, ax)
    assert main(["wigner", "--state", "fock", "--dim", "6", "--extent", "1", "--points", "5", "-o", str(tmp_path)]) == 0
    lines = (tmp_path / "wigner.csv").read_text().splitlines()
    assert lines[0] == "re,im,w"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(rows[:, 0], np.tile(ax, 5))
    assert np.array_equal(rows[:, 1], np.repeat(ax, 5))
    assert np.array_equal(rows[:, 2], grid.ravel())
    d = json.loads((tmp_path / "result.json").read_text())
    assert d["re_axis"] == d["im_axis"] == ax.tolist()
    assert np.array_equal(d["values"], grid)


def test_wigner_reduced_state_of_composite():
    spec = ModeSpec.bosonic(8)
    psi = tensor([qubit_ket(True), fock_ket(spec, 1)])
    assert abs(wigner(psi, _qubit_cavity(8), 0.0, factor_index=1) + TWO_PI) < 1e-12


def test_joint_wigner_product_state_factorizes():
    s = ModeSpec.bosonic(12)
    psi = tensor([coherent(0.4, s), fock_ket(s, 1)])
    for b1, b2 in [(0.0, 0.0), (0.3, -0.2j), (0.5 + 0.1j, 0.2)]:
        joint = joint_wigner(psi, _space(12, 12), b1, b2)
        prod = (
            wigner(coherent(0.4, s), _space(12), b1)
            * wigner(fock_ket(s, 1), _space(12), b2)
            / TWO_PI**2
        )
        assert abs(joint - prod) < 1e-9


def test_joint_wigner_vacuum_and_bounds():
    s = ModeSpec.bosonic(6)
    psi = tensor([fock_ket(s, 0), fock_ket(s, 0)])
    assert abs(joint_wigner(psi, _space(6, 6), 0.0, 0.0) - 1.0) < 1e-12


def test_joint_wigner_bell_state():
    s = ModeSpec.bosonic(6)
    v01 = tensor([fock_ket(s, 0), fock_ket(s, 1)])
    v10 = tensor([fock_ket(s, 1), fock_ket(s, 0)])
    bell = (v01 + v10) / np.sqrt(2)
    # both branches have one photon total: parity product (−1)(+1) → −1... per
    # branch (+1)(−1) and (−1)(+1), so the joint parity at the origin is −1
    assert abs(joint_wigner(bell, _space(6, 6), 0.0, 0.0) + 1.0) < 1e-12


@pytest.mark.parametrize("as_density", [False, True])
def test_joint_wigner_follows_the_order_of_factors(as_density):
    """beta1 belongs to factors[0]; the pair was once read in sorted order.
    With as_density, the oracle's reduction of |ψ⟩⟨ψ|."""
    s = ModeSpec.bosonic(10)
    psi = tensor([fock_ket(s, 0), coherent(1.0, s)])
    state = density(psi) if as_density else psi
    joint = joint_wigner_density if as_density else joint_wigner
    space = _space(10, 10)
    assert abs(joint(state, space, 1.0, 0.0, factors=(1, 0)) - 1.0) < 1e-6
    rng = np.random.default_rng(13)
    b1 = 0.5 * (rng.normal(size=8) + 1j * rng.normal(size=8))
    b2 = 0.5 * (rng.normal(size=8) + 1j * rng.normal(size=8))
    swapped = joint(state, space, b1, b2, factors=(1, 0))
    assert np.max(np.abs(swapped - joint(state, space, b2, b1, factors=(0, 1)))) < 1e-12


def test_joint_wigner_rejects_a_repeated_factor():
    s = ModeSpec.bosonic(6)
    psi = tensor([fock_ket(s, 0), fock_ket(s, 1)])
    with pytest.raises(ValidationError):
        joint_wigner(psi, _space(6, 6), 0.0, 0.0, factors=(1, 1))


@pytest.mark.parametrize("factor_index", [2, -1])
@pytest.mark.parametrize(
    "name, call",
    [
        ("wigner", lambda psi, k: wigner(psi, _space(4, 4), 0.1, factor_index=k)),
        ("wigner_grid", lambda psi, k: wigner_grid(psi, _space(4, 4), k, [0.0, 0.5], [0.0])),
    ],
    ids=["wigner", "wigner_grid"],
)
def test_single_mode_wigner_names_a_bad_factor_index(name, call, factor_index):
    """A factor index outside the state's factors is refused with an error
    that names the function and the index, not the partial trace's."""
    s = ModeSpec.bosonic(4)
    psi = tensor([fock_ket(s, 0), fock_ket(s, 1)])
    with pytest.raises(ValidationError, match=rf"^{name} needs a factor index in \[0, 2\); got {factor_index}$"):
        call(psi, factor_index)


def _three_factor_state():
    """A qubit and two cavities of unequal dims, entangled across all three."""
    rng = np.random.default_rng(29)
    space = CompositeSpace((ModeSpec.qubit(), ModeSpec.bosonic(7), ModeSpec.bosonic(9)))
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return amps / np.linalg.norm(amps), space


@pytest.mark.parametrize("factors", [(1, 2), (2, 1)])
@pytest.mark.parametrize("shape", ["scalar", "matrix"])
def test_joint_wigner_of_a_ket_matches_its_density_matrix(factors, shape):
    """The amplitude-tensor path equals the oracle's reduced-ρ path of |ψ⟩⟨ψ|."""
    psi, space = _three_factor_state()
    rng = np.random.default_rng(5)
    if shape == "scalar":
        b1, b2 = 0.4 - 0.3j, -1.1 + 0.2j
    else:
        b1 = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        b2 = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    ket = joint_wigner(psi, space, b1, b2, factors=factors)
    ref = joint_wigner_density(density(psi), space, b1, b2, factors=factors)
    assert np.shape(ket) == np.shape(ref) == np.shape(b1)
    assert isinstance(ket, float) == (shape == "scalar")
    assert np.max(np.abs(np.asarray(ket) - ref)) < 1e-12


def test_joint_wigner_of_a_ket_never_forms_the_reduced_density_matrix():
    """One call on the Bell recipe's cat state (a qubit and two 26-level
    cavities, its 21-point cut) allocates less than the (d1d2)² × 16 B =
    7.3 MB a reduced ρ of the two cavities would take; the ρ path peaked at
    15.3 MB."""
    bell, _ = _bell_cat(26)
    psi = tensor([np.array([0.6, 0.8j]), bell])
    space = CompositeSpace((ModeSpec.qubit(),) + _space(26, 26).factors)
    xs = np.linspace(-2.5, 2.5, 21)
    joint_wigner(psi, space, xs, xs, factors=(1, 2))  # warm up
    tracemalloc.start()
    try:
        joint_wigner(psi, space, xs, -xs, factors=(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (26 * 26) ** 2 * 16


@pytest.mark.parametrize("factors", [(1, 1), (0, 3), (-1, 2), (0, 1)], ids=["repeated", "too-large", "negative", "qubit"])
def test_joint_wigner_of_a_ket_refuses_what_it_cannot_reduce(factors):
    psi = _three_factor_state()
    with pytest.raises(ValidationError):
        joint_wigner(*psi, 0.1, 0.2, factors=factors)


def test_wigner_grid_keeps_its_shape_on_an_empty_im_axis():
    """An empty im_axis gives the documented (0, len(re_axis)) grid; it gave
    shape (0,)."""
    grid = wigner_grid(fock_ket(ModeSpec.bosonic(4), 0), _space(4), 0, [0.0, 0.5], [])
    assert grid.shape == (0, 2)


def test_ptm_identity_process():
    r = unitary_transfer(np.eye(2, dtype=complex), 1)
    assert np.max(np.abs(r - np.eye(4))) < 1e-10
    check_physical(r)


def test_ptm_z_gate():
    r = unitary_transfer(np.diag([1.0, -1.0]).astype(complex), 1)
    assert np.max(np.abs(r - np.diag([1.0, -1.0, -1.0, 1.0]))) < 1e-10


def test_ptm_cz_against_pauli_conjugation_oracle():
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    r = unitary_transfer(cz, 2)
    ref = np.zeros((16, 16))
    labels = pauli_labels(2)
    for j, lj in enumerate(labels):
        out = cz @ pauli_matrix(lj) @ cz.conj().T
        for i, li in enumerate(labels):
            ref[i, j] = np.real(np.trace(pauli_matrix(li) @ out)) / 4
    assert np.max(np.abs(r - ref)) < 1e-9


def test_ptm_unitary_block_is_orthogonal():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    r = check_physical(unitary_transfer(q, 2))
    block = r[1:, 1:]
    assert np.max(np.abs(block.T @ block - np.eye(15))) < 1e-8


def test_ptm_composition():
    rng = np.random.default_rng(13)
    for _ in range(3):
        ma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ua, _ = np.linalg.qr(ma)
        ub, _ = np.linalg.qr(mb)
        rab = unitary_transfer(ua @ ub, 1)
        assert np.max(np.abs(rab - unitary_transfer(ua, 1) @ unitary_transfer(ub, 1))) < 1e-8


def _kraus_ptm(kraus, n_qubits):
    """Oracle: R_ij = Σ_k Tr(P_i K_k P_j K_k†) / 2ⁿ, straight from the definition."""
    paulis = [pauli_matrix(l) for l in pauli_labels(n_qubits)]
    return np.array(
        [
            [sum(np.trace(pi @ k @ pj @ k.conj().T) for k in kraus).real / 2**n_qubits for pj in paulis]
            for pi in paulis
        ]
    )


def _kraus_process(kraus):
    return lambda rhos: sum(k @ rhos @ k.conj().T for k in kraus)


def test_ptm_nonunital_process():
    """Amplitude damping: affine Z component appears in the first column."""
    p = 0.3
    kraus = [np.array([[1, 0], [0, np.sqrt(1 - p)]]), np.array([[0, np.sqrt(p)], [0, 0]])]
    r = check_physical(pauli_transfer(_kraus_process(kraus), 1))
    assert np.max(np.abs(r - _kraus_ptm(kraus, 1))) < 1e-10
    assert abs(r[3, 0] - 0.3) < 1e-10
    assert abs(r[3, 3] - 0.7) < 1e-10
    assert abs(r[1, 1] - np.sqrt(0.7)) < 1e-10


def test_ptm_matches_definition_on_a_random_two_qubit_channel():
    """Three Kraus operators cut from a random 12×4 isometry: a generic
    non-unital two-qubit channel, against the PTM definition."""
    rng = np.random.default_rng(21)
    v, _ = np.linalg.qr(rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4)))
    kraus = [v[4 * k : 4 * k + 4] for k in range(3)]
    expected = _kraus_ptm(kraus, 2)
    assert np.max(np.abs(expected[1:, 0])) > 0.05  # non-unital
    r = check_physical(pauli_transfer(_kraus_process(kraus), 2))
    assert np.max(np.abs(r - expected)) < 1e-12


def test_process_fidelity_values():
    ideal = unitary_transfer(np.eye(2, dtype=complex), 1)
    assert abs(process_fidelity(ideal, ideal) - 1.0) < 1e-12
    depol = np.diag([1.0, 0.0, 0.0, 0.0])
    assert abs(process_fidelity(depol, ideal) - 0.5) < 1e-12
    cz = unitary_transfer(np.diag([1.0, 1, 1, -1]).astype(complex), 2)
    assert abs(process_fidelity(cz, cz) - 1.0) < 1e-12


def test_process_fidelity_dimension_mismatch():
    r1 = unitary_transfer(np.eye(2, dtype=complex), 1)
    r2 = unitary_transfer(np.eye(4, dtype=complex), 2)
    with pytest.raises(ValidationError):
        process_fidelity(r1, r2)


@pytest.mark.parametrize(
    "shape", [(4, 16), (16,), (4, 4, 4), (1, 1), (2, 2), (8, 8), (9, 9)],
    ids=["non-square", "vector", "stack", "side-1", "side-2", "side-8", "side-9"],
)
def test_process_fidelity_refuses_what_is_not_a_transfer_matrix(shape):
    """Both arrays of one shape, but not 4ⁿ × 4ⁿ with n ≥ 1."""
    r = np.zeros(shape)
    with pytest.raises(ValidationError):
        process_fidelity(r, r)


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_pauli_transfer_calls_its_process_once_on_the_input_stack(n_qubits):
    """`process` gets all 4ⁿ product inputs as one (4ⁿ, 2ⁿ, 2ⁿ) stack of
    density matrices, and the PTM is a (4ⁿ, 4ⁿ) array."""
    seen = []

    def process(rhos):
        seen.append(rhos)
        return rhos

    r = pauli_transfer(process, n_qubits)
    d = 2**n_qubits
    assert len(seen) == 1
    assert seen[0].shape == (d * d, d, d)
    assert np.max(np.abs(np.trace(seen[0], axis1=1, axis2=2) - 1.0)) < 1e-15
    assert r.shape == (d * d, d * d)
    assert np.max(np.abs(r - np.eye(d * d))) < 1e-12
