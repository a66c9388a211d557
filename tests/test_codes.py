from dataclasses import replace

import numpy as np
import pytest

from cavitysim.codes import (
    binomial_encoding,
    cat_encoding,
    ideal_encoder,
    logical_ket,
    qubit_cavity_space,
)
from cavitysim.device import SystemLayout, cavity_static_diag, load_params, static_hamiltonian
from cavitysim.errors import ValidationError
from cavitysim.fock import (
    Ket,
    annihilation,
    expectation,
    number_op,
    tensor,
    qubit_ket,
    fock_ket,
)

from oracles import gram_schmidt_encoder, parity_op


def test_shifted_cat_basis():
    enc = cat_encoding(np.sqrt(2), 30, variant="shifted")
    assert np.allclose(enc.ket1.amplitudes, fock_ket(enc.mode, 0).amplitudes)
    n = expectation(enc.ket0, number_op(enc.mode)).real
    assert abs(n - 8.0) < 1e-6  # |2α⟩ with α = √2


def test_symmetric_cat_degenerate_rejected():
    with pytest.raises(ValidationError):
        cat_encoding(0.0, 10, variant="symmetric")


def test_symmetric_cat_overlap():
    enc = cat_encoding(np.sqrt(2), 30, variant="symmetric")
    assert abs(enc.overlap - np.exp(-4.0)) < 1e-8


def test_binomial_encoding_properties():
    enc = binomial_encoding(8)
    assert abs(enc.overlap) < 1e-14
    assert abs(expectation(enc.ket0, number_op(enc.mode)).real - 2.0) < 1e-14
    assert abs(expectation(enc.ket0, parity_op(enc.mode)).real - 1.0) < 1e-14
    assert abs(expectation(enc.ket1, parity_op(enc.mode)).real - 1.0) < 1e-14
    with pytest.raises(ValidationError):
        binomial_encoding(4)


def test_binomial_parity_flips_after_photon_loss():
    enc = binomial_encoding(8)
    a = annihilation(enc.mode)
    lost = (a @ logical_ket(enc, 1.0, 1.0)).normalized()
    assert abs(expectation(lost, parity_op(enc.mode)).real + 1.0) < 1e-12


def test_logical_ket_basis_states():
    enc = binomial_encoding(8)
    assert np.allclose(logical_ket(enc, 1, 0).amplitudes, enc.ket0.amplitudes)
    psi = logical_ket(enc, 1 / np.sqrt(2), 1 / np.sqrt(2))
    expected = np.zeros(8, dtype=complex)
    expected[0], expected[2], expected[4] = 0.5, np.sqrt(2) / 2, 0.5
    assert np.max(np.abs(psi.amplitudes - expected)) < 1e-12


def test_logical_ket_rejects_zero():
    enc = binomial_encoding(8)
    with pytest.raises(ValidationError):
        logical_ket(enc, 0, 0)


def test_cat_gram_norm_arithmetic():
    """Raw (un-orthonormalized) combination norm follows the Gram matrix."""
    enc = cat_encoding(np.sqrt(2), 30, variant="symmetric")
    raw = enc.ket0.amplitudes + enc.ket1.amplitudes
    norm_sq = np.linalg.norm(raw) ** 2
    assert abs(norm_sq - 2 * (1 + np.exp(-4.0))) < 1e-8


def test_logical_ket_normalized_on_unit_sphere():
    enc = cat_encoding(np.sqrt(2), 30, variant="symmetric")
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        assert abs(logical_ket(enc, c[0], c[1]).norm - 1.0) < 1e-10


@pytest.mark.parametrize(
    "enc_factory",
    [
        lambda: binomial_encoding(8),
        lambda: cat_encoding(np.sqrt(2), 30, variant="symmetric"),
        lambda: cat_encoding(np.sqrt(2) / 2, 30, variant="shifted"),
    ],
)
def test_ideal_encoder_contract(enc_factory):
    enc = enc_factory()
    u = ideal_encoder(enc)
    u.assert_unitary(1e-9)
    space = qubit_cavity_space(enc)
    vac = fock_ket(enc.mode, 0)
    # |g⟩|0⟩ → |g⟩|0⟩_L-ish (orthonormalized basis state)
    rng = np.random.default_rng(4)
    for _ in range(100):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        qin = Ket(qubit_ket(False).space, c)
        psi_in = tensor([qin, vac])
        out = u @ psi_in
        target = tensor([qubit_ket(False), logical_ket(enc, c[0], c[1])])
        assert abs(abs(out.overlap(target)) - 1.0) < 1e-9


@pytest.mark.parametrize("alpha, dim", [(np.sqrt(2.0), 30), (2.0, 45)], ids=["dim30", "dim45"])
def test_ideal_encoder_matches_one_vector_at_a_time_completion(alpha, dim):
    """The stacked projection completes the encoder with the same columns,
    in the same order, as projecting against one accepted column at a time:
    the shifted-cat encoders of `error-budget` (cavity dim 30) and
    `zgate-repeat` (cavity dim 45)."""
    enc = cat_encoding(alpha, dim, variant="shifted")
    assert np.max(np.abs(ideal_encoder(enc).matrix - gram_schmidt_encoder(enc))) < 1e-14


def test_encoder_g0_maps_to_logical_zero():
    enc = binomial_encoding(8)
    u = ideal_encoder(enc)
    psi_in = tensor([qubit_ket(False), fock_ket(enc.mode, 0)])
    out = u @ psi_in
    target = tensor([qubit_ket(False), enc.ket0])
    assert abs(abs(out.overlap(target)) - 1.0) < 1e-12


def test_decoder_inverts_encoder_at_zero_kerr():
    for enc in (binomial_encoding(8), cat_encoding(np.sqrt(2), 30)):
        u = ideal_encoder(enc)
        prod = u.dag() @ u
        rng = np.random.default_rng(6)
        for _ in range(20):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            c /= np.linalg.norm(c)
            psi = tensor([Ket(qubit_ket(False).space, c), fock_ket(enc.mode, 0)])
            out = prod @ psi
            assert abs(abs(out.overlap(psi)) - 1.0) < 1e-9


def _with_kerr(K):
    """The bundled device parameters with S1's self-Kerr set to K (rad/ns)."""
    params = load_params()
    return replace(params, kerr={**params.kerr, "S1": K})


def test_binomial_kerr_phase_on_four_photons():
    """|4>, the top level of the binomial code, picks up e^{+6iKT} under
    the static Hamiltonian, whose cavity part is -(K/2) n(n-1)."""
    K, T = 3e-5, 1000.0
    enc = binomial_encoding(8)
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": enc.mode.dim})
    g4 = layout.space.joint_index((0, 4))
    for diag in (cavity_static_diag, static_hamiltonian):
        assert abs(np.exp(-1j * diag(_with_kerr(K), layout)[g4] * T) - np.exp(6j * K * T)) < 1e-12


def test_kerr_roundtrip_recovery():
    """Encode → free evolution under the static Hamiltonian → the undo of
    its Kerr phases e^{+i cavity_static_diag T} → decode is the identity."""
    K, T = 3.2e-5, 5e3
    params = _with_kerr(K)
    for enc in (binomial_encoding(8), cat_encoding(np.sqrt(2), 30)):
        layout = SystemLayout.build(["Q1"], ["S1"], {"S1": enc.mode.dim})
        u = ideal_encoder(enc)
        phases = np.exp(
            -1j * (static_hamiltonian(params, layout) - cavity_static_diag(params, layout)) * T
        )
        pipeline = u.dag().matrix @ (phases[:, None] * u.matrix)
        rng = np.random.default_rng(8)
        for _ in range(100):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            c /= np.linalg.norm(c)
            psi = tensor([Ket(qubit_ket(False).space, c), fock_ket(enc.mode, 0)])
            out = pipeline @ psi.amplitudes
            assert abs(abs(np.vdot(psi.amplitudes, out)) - 1.0) < 1e-8
