import numpy as np
import pytest

from ergonoise import matcore
from ergonoise.matcore import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    herm_eig,
    kron,
    partial_trace,
    trace_norm,
)
from ergonoise.qstate import bloch_to_density, make_bds, qubit_state


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def random_density(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_eig_identity():
    vals, vecs = herm_eig(np.eye(2))
    assert np.allclose(vals, [1.0, 1.0])
    assert np.allclose(vecs, np.eye(2))


def test_eig_sigma_z_ascending():
    vals, _ = herm_eig(SIGMA_Z)
    assert np.allclose(vals, [-1.0, 1.0])


def test_eig_bloch_state_closed_form():
    # 2x2 closed form (1 +/- |n|)/2 as the oracle
    rho = bloch_to_density([0.6, 0.5, 0.4])
    norm = np.sqrt(0.77)
    vals, _ = herm_eig(rho)
    assert np.allclose(vals, [(1 - norm) / 2, (1 + norm) / 2], atol=1e-14)


def test_eig_rejects_non_square_and_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.ones((2, 3)))
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"M\[0,1\]"):
        herm_eig(bad)


def test_eig_reconstruction_batch():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        dim = int(rng.choice([2, 4, 8]))
        m = random_hermitian(rng, dim)
        vals, vecs = herm_eig(m)
        rebuilt = (vecs * vals) @ vecs.conj().T
        assert np.abs(rebuilt - m).max() <= 1e-10
        assert abs(vals.sum() - np.trace(m).real) <= 1e-10
        assert np.abs(vecs.conj().T @ vecs - np.eye(dim)).max() <= 1e-10
        assert np.all(np.diff(vals) >= -1e-14)


def test_kron_identities():
    assert np.allclose(kron(IDENTITY_2, IDENTITY_2), np.eye(4))
    xx = kron(SIGMA_X, SIGMA_X)
    assert np.allclose(xx, np.fliplr(np.eye(4)))


def test_kron_sigma_yy_bell_eigenvalues():
    # explicit 4x4 diagonalization: sigma_y x sigma_y takes values
    # (-1, +1, +1, -1) on the Bell states (Phi+, Phi-, Psi+, Psi-)
    yy = kron(SIGMA_Y, SIGMA_Y)
    s = 1 / np.sqrt(2)
    bell = {
        "phi+": np.array([s, 0, 0, s]),
        "phi-": np.array([s, 0, 0, -s]),
        "psi+": np.array([0, s, s, 0]),
        "psi-": np.array([0, s, -s, 0]),
    }
    expected = {"phi+": -1, "phi-": 1, "psi+": 1, "psi-": -1}
    for name, ket in bell.items():
        assert np.allclose(yy @ ket, expected[name] * ket)


def test_partial_trace_bds_marginals():
    rho = make_bds([0.5, 0.3, 0.1])
    for keep in ([0], [1]):
        marg = partial_trace(rho, keep)
        assert np.abs(marg - np.eye(2) / 2).max() <= 1e-14


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    assert np.abs(partial_trace(np.kron(a, b), [0]) - a).max() <= 1e-12
    assert np.abs(partial_trace(np.kron(a, b), [1]) - b).max() <= 1e-12


def test_partial_trace_bell_state():
    s = 1 / np.sqrt(2)
    phi = np.array([s, 0, 0, s])
    rho = np.outer(phi, phi)
    assert np.abs(partial_trace(rho, [1]) - np.eye(2) / 2).max() <= 1e-14


def test_partial_trace_three_qubits():
    rng = np.random.default_rng(5)
    a, b, c = (random_density(rng, 2) for _ in range(3))
    rho = np.kron(np.kron(a, b), c)
    assert np.abs(partial_trace(rho, [0, 2]) - np.kron(a, c)).max() <= 1e-12
    assert np.abs(partial_trace(rho, [1]) - b).max() <= 1e-12


def test_partial_trace_properties_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = random_density(rng, 8)
        marg = partial_trace(rho, [int(rng.integers(0, 3))])
        assert abs(np.trace(marg).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(marg)[0] >= -1e-10


def test_partial_trace_rejects_bad_keep():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [2])


def test_trace_norm_values():
    assert trace_norm(SIGMA_Z) == pytest.approx(2.0)
    assert trace_norm(np.zeros((4, 4))) == 0.0
    # distance from BDS(0.5,0.3,0.1) to its closest one-axis classical
    # state: Bell-basis eigenvalue enumeration +/-(c2+c3)/4, +/-(c2-c3)/4
    rho = make_bds([0.5, 0.3, 0.1])
    classical = np.eye(4) / 4 + 0.125 * kron(SIGMA_X, SIGMA_X)
    assert trace_norm(rho - classical) == pytest.approx(0.3, abs=1e-12)


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = random_hermitian(rng, 4)
        _, u = herm_eig(random_hermitian(rng, 4))
        assert abs(trace_norm(u @ m @ u.conj().T) - trace_norm(m)) <= 1e-9


def test_require_density_accepts_valid_states():
    matcore.require_density(qubit_state(0.3, 0.2))
    with pytest.raises(ValueError):
        matcore.require_density(np.diag([0.9, 0.3]))
