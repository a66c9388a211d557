from dataclasses import replace

import numpy as np
import pytest

from cavitysim.codes import (
    Encoding,
    binomial_encoding,
    cat_encoding,
    ideal_encoder,
    logical_ket,
)
from cavitysim.device import SystemLayout, cavity_static_diag, load_params, static_hamiltonian
from cavitysim.errors import ValidationError
from cavitysim.fock import ModeSpec, fock_ket, qubit_ket

from oracles import annihilation, expectation, gram_schmidt_encoder, normalized, number_op, parity_op, tensor


def test_shifted_cat_basis():
    enc = cat_encoding(np.sqrt(2), 30, variant="shifted")
    assert np.allclose(enc.ket1, fock_ket(enc.mode, 0))
    n = expectation(enc.ket0, number_op(enc.mode)).real
    assert abs(n - 8.0) < 1e-6  # |2α⟩ with α = √2


def test_symmetric_cat_degenerate_rejected():
    with pytest.raises(ValidationError):
        cat_encoding(0.0, 10, variant="symmetric")


@pytest.mark.parametrize("variant", ["odd", "Shifted"])
def test_cat_encoding_refuses_an_unknown_variant(variant):
    """The variants are `symmetric` and `shifted`, spelled exactly; dim 21
    is the recommended truncation at |alpha| = 1, so nothing warns."""
    with pytest.raises(ValidationError, match=f"unknown cat variant '{variant}'"):
        cat_encoding(1.0, 21, variant=variant)


def test_symmetric_cat_overlap():
    enc = cat_encoding(np.sqrt(2), 30, variant="symmetric")
    assert abs(np.vdot(enc.ket0, enc.ket1) - np.exp(-4.0)) < 1e-8


def test_binomial_encoding_properties():
    enc = binomial_encoding(8)
    assert abs(np.vdot(enc.ket0, enc.ket1)) < 1e-14
    assert abs(expectation(enc.ket0, number_op(enc.mode)).real - 2.0) < 1e-14
    assert abs(expectation(enc.ket0, parity_op(enc.mode)).real - 1.0) < 1e-14
    assert abs(expectation(enc.ket1, parity_op(enc.mode)).real - 1.0) < 1e-14
    with pytest.raises(ValidationError):
        binomial_encoding(4)


def test_binomial_parity_flips_after_photon_loss():
    enc = binomial_encoding(8)
    a = annihilation(enc.mode)
    lost = normalized(a @ logical_ket(enc, 1.0, 1.0))
    assert abs(expectation(lost, parity_op(enc.mode)).real + 1.0) < 1e-12


def test_logical_ket_basis_states():
    enc = binomial_encoding(8)
    assert np.allclose(logical_ket(enc, 1, 0), enc.ket0)
    psi = logical_ket(enc, 1 / np.sqrt(2), 1 / np.sqrt(2))
    expected = np.zeros(8, dtype=complex)
    expected[0], expected[2], expected[4] = 0.5, np.sqrt(2) / 2, 0.5
    assert np.max(np.abs(psi - expected)) < 1e-12


def test_logical_ket_rejects_zero():
    enc = binomial_encoding(8)
    with pytest.raises(ValidationError):
        logical_ket(enc, 0, 0)


def test_cat_gram_norm_arithmetic():
    """Raw (un-orthonormalized) combination norm follows the Gram matrix."""
    enc = cat_encoding(np.sqrt(2), 30, variant="symmetric")
    raw = enc.ket0 + enc.ket1
    norm_sq = np.linalg.norm(raw) ** 2
    assert abs(norm_sq - 2 * (1 + np.exp(-4.0))) < 1e-8


def test_logical_ket_normalized_on_unit_sphere():
    enc = cat_encoding(np.sqrt(2), 30, variant="symmetric")
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        assert abs(np.linalg.norm(logical_ket(enc, c[0], c[1])) - 1.0) < 1e-10


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
    assert u.shape == (2 * enc.mode.dim,) * 2
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) < 1e-9
    vac = fock_ket(enc.mode, 0)
    # |g⟩|0⟩ → |g⟩|0⟩_L-ish (orthonormalized basis state)
    rng = np.random.default_rng(4)
    for _ in range(100):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        out = u @ tensor([c, vac])
        target = tensor([qubit_ket(False), logical_ket(enc, c[0], c[1])])
        assert abs(abs(np.vdot(out, target)) - 1.0) < 1e-9


@pytest.mark.parametrize("alpha, dim", [(np.sqrt(2.0), 30), (2.0, 45)], ids=["dim30", "dim45"])
def test_ideal_encoder_matches_one_vector_at_a_time_completion(alpha, dim):
    """The stacked projection completes the encoder with the same columns,
    in the same order, as projecting against one accepted column at a time:
    the shifted-cat encoders of `error-budget` (cavity dim 30) and
    `zgate-repeat` (cavity dim 45)."""
    enc = cat_encoding(alpha, dim, variant="shifted")
    assert np.max(np.abs(ideal_encoder(enc) - gram_schmidt_encoder(enc))) < 1e-14


def test_encoder_g0_maps_to_logical_zero():
    enc = binomial_encoding(8)
    u = ideal_encoder(enc)
    psi_in = tensor([qubit_ket(False), fock_ket(enc.mode, 0)])
    out = u @ psi_in
    target = tensor([qubit_ket(False), enc.ket0])
    assert abs(abs(np.vdot(out, target)) - 1.0) < 1e-12


def test_decoder_inverts_encoder_at_zero_kerr():
    for enc in (binomial_encoding(8), cat_encoding(np.sqrt(2), 30)):
        u = ideal_encoder(enc)
        prod = u.conj().T @ u
        rng = np.random.default_rng(6)
        for _ in range(20):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            c /= np.linalg.norm(c)
            psi = tensor([c, fock_ket(enc.mode, 0)])
            out = prod @ psi
            assert abs(abs(np.vdot(out, psi)) - 1.0) < 1e-9


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
    g4 = 4  # |g, 4⟩
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
        pipeline = u.conj().T @ (phases[:, None] * u)
        rng = np.random.default_rng(8)
        for _ in range(100):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            c /= np.linalg.norm(c)
            psi = tensor([c, fock_ket(enc.mode, 0)])
            out = pipeline @ psi
            assert abs(abs(np.vdot(psi, out)) - 1.0) < 1e-8


@pytest.mark.parametrize(
    "enc_factory",
    [
        lambda: binomial_encoding(8),
        lambda: cat_encoding(np.sqrt(2), 30, variant="symmetric"),
        lambda: cat_encoding(np.sqrt(2) / 2, 30, variant="shifted"),
    ],
    ids=["binomial", "cat", "shifted-cat"],
)
@pytest.mark.filterwarnings("ignore:logical basis overlap")
def test_loewdin_basis_is_formed_once_as_a_column_pair(enc_factory):
    """`Encoding.basis` is the (d, 2) array of the orthonormalized code
    words, S^(-1/2) applied to the words with S their Gram matrix, held on
    the encoding rather than recomputed."""
    enc = enc_factory()
    b = enc.basis
    assert b.shape == (enc.mode.dim, 2)
    assert np.max(np.abs(b.conj().T @ b - np.eye(2))) < 1e-12
    words = np.stack([enc.ket0, enc.ket1], axis=1)
    w, u = np.linalg.eigh(words.conj().T @ words)
    ref = words @ (u * w**-0.5) @ u.conj().T
    assert np.max(np.abs(b - ref)) < 1e-12
    assert enc.basis is b


def test_encoding_refuses_words_of_the_wrong_shape_or_norm():
    spec = ModeSpec.bosonic(6)
    with pytest.raises(ValidationError, match="shape"):
        Encoding("short", spec, fock_ket(ModeSpec.bosonic(5), 0), fock_ket(spec, 1))
    with pytest.raises(ValidationError, match="normalized"):
        Encoding("long", spec, 2 * fock_ket(spec, 0), fock_ket(spec, 1))
