import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergonoise import matcore, qstate
from ergonoise.channels import apply_local
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
from ergonoise.qstate import (
    ClassHamiltonian,
    _sum_local,
    bloch_to_density,
    make_bds,
    qubit_state,
    symmetrized_multipartite,
    total_spin_squared,
)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def is_invariant(mat, n):
    """Whether every entry of mat is within 1e-12 of the average of its class."""
    return np.abs(matcore._class_matrix(matcore._class_coordinates(mat, n), n) - mat).max() <= 1e-12


def class_view(mat, n):
    """The collective class-coordinate Hamiltonian of a permutation-invariant matrix."""
    return ClassHamiltonian("collective", n, matcore._class_coordinates(mat, n), "collective")


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


@st.composite
def operator_lists(draw):
    """One to three square operators of sizes 1 to 4, each real or complex."""
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        size, real = draw(st.integers(1, 4)), draw(st.booleans())
        count = size * size * (1 if real else 2)
        v = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=count, max_size=count)))
        ops.append(v.reshape(size, size) if real else (v[::2] + 1j * v[1::2]).reshape(size, size))
    return ops


@settings(max_examples=100, deadline=None)
@given(ops=operator_lists())
def test_kron_is_bitwise_np_kron(ops):
    want = matcore.as_matrix(ops[0])
    for op in ops[1:]:
        want = np.kron(want, matcore.as_matrix(op))
    got = kron(*ops)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("n", range(1, 9))
def test_spin_blocks_are_orthonormal_spin_multiplets(n):
    blocks = matcore.spin_blocks(n)
    assert blocks is matcore.spin_blocks(n)
    assert sum(side * multiplicity for side, multiplicity in blocks) == 2**n

    def parts(op):
        return matcore._class_block_parts(matcore._exact_real(matcore._class_coordinates(op, n)), n)

    # with identity blocks (orthonormal columns), blocks j(j+1) 1 of J^2 and
    # (j(j+1))^2 1 of J^4 give J^2 W = j(j+1) W; likewise for Jz and Jz^2
    j2, jz = total_spin_squared(n), 0.5 * _sum_local(SIGMA_Z, n)
    for (side, _), one, j2_j, j4_j, jz_j, jz2_j in zip(
        blocks, parts(np.eye(2**n)), parts(j2), parts(j2 @ j2), parts(jz), parts(jz @ jz)
    ):
        j = (side - 1) / 2
        m = j - np.arange(side)
        assert np.abs(one - np.eye(side)).max() <= 1e-14
        assert np.abs(j2_j - j * (j + 1) * np.eye(side)).max() <= 1e-12
        assert np.abs(j4_j - (j * (j + 1)) ** 2 * np.eye(side)).max() <= 1e-12
        assert np.abs(jz_j - np.diag(m)).max() <= 1e-12
        assert np.abs(jz2_j - np.diag(m**2)).max() <= 1e-12
    with pytest.raises(ValueError, match="read-only"):
        matcore._class_block_map(n)[0, 0] = 1.0
    # the multiplicities are those of S_n's irreducible representations
    assert [multiplicity for _, multiplicity in blocks] == {
        1: [1], 2: [1, 1], 3: [1, 2], 4: [1, 3, 2], 5: [1, 4, 5],
        6: [1, 5, 9, 5], 7: [1, 6, 14, 14], 8: [1, 7, 20, 28, 14],
    }[n]


def test_the_block_map_is_built_without_dense_operators(monkeypatch):
    # at n = 12 the map is read from combinatorics alone: no entry codes
    # (4^n) and no Kronecker product (2^n) are formed
    def dense(*args):
        raise AssertionError("formed a dense operator")

    monkeypatch.setattr(matcore, "_entry_codes", dense)
    monkeypatch.setattr(np, "kron", dense)
    n = 12
    block_map = matcore._class_block_map.__wrapped__(n)
    assert block_map.shape == (math.comb(n + 3, 3),) * 2
    # the identity, one on the diagonal classes (n00, 0, 0, n11), has identity blocks
    counts = matcore._entry_classes(n).counts
    identity = ((counts[:, 1] == 0) & (counts[:, 2] == 0)).astype(float)
    flat = identity @ block_map
    sides = [side for side, _ in matcore.spin_blocks(n)]
    assert np.abs(flat - np.concatenate([np.eye(side).ravel() for side in sides])).max() <= 1e-12


@st.composite
def symmetrized_images(draw):
    """A symmetrized register of 2..8 qubits after one channel on every qubit."""
    n = draw(st.integers(2, 8))
    a = draw(st.floats(0.05, 0.95))
    radius = np.sqrt(a * (1.0 - a))
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=n, max_size=n))
    rho0 = symmetrized_multipartite(a, [radius * f * np.exp(1j * p) for f, p in zip(fractions, phases)])
    kind = draw(st.sampled_from(["bf", "pf", "ad", "dc"]))
    return apply_local(rho0, kind, [draw(st.floats(0.0, 1.0))])[0], n


@settings(max_examples=40, deadline=None)
@given(case=symmetrized_images())
def test_spin_block_spectra_match_the_dense_eigensolve(case):
    rho, n = case
    dense = np.linalg.eigvalsh(rho)
    parts = matcore._class_block_parts(matcore._class_coordinates(rho, n), n)
    blocks = matcore._spin_spectrum([np.linalg.eigvalsh(p) for p in parts], n)
    assert np.abs(blocks - dense).max() <= 1e-12
    # so are the block levels of the same matrix taken as a collective Hamiltonian
    frames = class_view(rho, n).spin_frames
    assert np.abs(matcore._spin_spectrum([values for _, _, values in frames], n) - dense).max() <= 1e-12
    assert is_invariant(rho, n)
    # the state spectra of a dense state are the dense eigensolve, invariant or not
    np.testing.assert_array_equal(matcore.state_spectra(rho), dense)


def test_a_state_that_is_not_permutation_invariant_takes_the_dense_path():
    rho = kron(qubit_state(0.2, 0.3), qubit_state(0.6, 0.1j), bloch_to_density([0.1, 0.2, 0.3]))
    stack = np.stack([rho, np.eye(8) / 8])
    assert not is_invariant(rho, 3)
    np.testing.assert_array_equal(matcore.state_spectra(stack), np.linalg.eigvalsh(stack))
    np.testing.assert_array_equal(matcore.state_spectra(rho), np.linalg.eigvalsh(rho))
    # invariant under the swap of qubits 0 and 1 only: not invariant
    swap_only = kron(qubit_state(0.2, 0.3), qubit_state(0.2, 0.3), qubit_state(0.6, 0.1))
    assert not is_invariant(swap_only, 3)


def test_a_permutation_invariant_matrix_that_is_not_psd_is_rejected_from_its_blocks():
    # weight -0.05 on the two spin-1/2 copies, 0.3 on the spin-3/2 multiplet
    j2 = total_spin_squared(3)
    top = (j2 - 0.75 * np.eye(8)) / 3.0
    rho = 0.3 * top - 0.05 * (np.eye(8) - top)
    assert is_invariant(rho, 3)
    state = 0.15 * top + 0.1 * (np.eye(8) - top)
    # the class route's check, on its block spectrum, names what the dense one does
    message = r"state is not PSD: min eigenvalue -5\.000e-02"
    parts = matcore._class_block_parts(matcore._class_coordinates(rho, 3), 3)
    with pytest.raises(ValueError, match=message):
        matcore._require_psd(matcore._block_spectrum(parts, 3))
    with pytest.raises(ValueError, match=message):
        matcore.state_spectra(rho)
    with pytest.raises(ValueError, match="state trace is 2.0"):
        matcore.state_spectra(2.0 * state)


def x_field(n):
    """The collective x field (1/2) sum_i sigma_x_i, as the scaling route dephases it."""
    return 0.5 * _sum_local(SIGMA_X, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_invariant_coordinates_are_the_class_averages(n):
    # the class coordinates built in closed form, of every local sum and of
    # the Hamiltonians the class route takes, are bitwise the class
    # averages of the dense matrices gathered from them
    for op in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        coords = matcore._exact_real(matcore._local_sum_classes(op, n))
        want = matcore._class_coordinates(_sum_local(op, n), n)
        assert coords.dtype == want.dtype and coords.tobytes() == want.tobytes()
    for kind in ("excitation", "x_sum"):
        view = qstate._class_hamiltonian(kind, n)
        want = matcore._class_coordinates(qstate.hamiltonian(kind, n).matrix, n)
        assert view.classes.dtype == want.dtype and view.classes.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_spin_frame_levels_spread_to_the_dense_levels(n):
    # the block levels, each repeated over its spin multiplicity, are the
    # spectrum the dense eigensolve gives: the x field and Jz^2, whose
    # levels +-M repeat inside a spin block
    jz = 0.5 * _sum_local(SIGMA_Z, n)
    for mat in (x_field(n), jz @ jz):
        levels = matcore._spin_spectrum([values for _, _, values in class_view(mat, n).spin_frames], n)
        assert np.abs(levels - np.linalg.eigvalsh(mat)).max() <= 1e-12


@pytest.mark.parametrize("n", range(0, 9))
def test_entry_classes_hold_every_invariant_operator(n):
    # D = C(n+3, 3) classes cover the 4^n entries, one value each for an
    # invariant operator, and the spin blocks hold exactly D entries
    classes = matcore._entry_classes(n)
    assert len(classes.counts) == math.comb(n + 3, 3)
    assert (classes.counts.sum(axis=1) == n).all() and classes.sizes.sum() == 4**n
    codes = matcore._entry_codes(n)
    per_code = np.bincount(codes.ravel(), minlength=(n + 1) ** 3)
    assert np.array_equal(per_code[matcore._class_codes(classes.counts, n)], classes.sizes)
    if n:
        rho = symmetrized_multipartite(0.3, [0.2 * np.exp(0.7j * i) for i in range(n)])
        coords = matcore._class_coordinates(rho, n)
        assert np.abs(coords[classes.rank.ravel()[codes]] - rho).max() <= 1e-15
        assert matcore._class_block_map(n).shape == (len(coords),) * 2


def test_class_levels_are_cached_read_only_index_maps():
    levels = matcore._class_levels(5)
    assert levels is matcore._class_levels(5) and len(levels) == 5
    for index, groups in levels:
        with pytest.raises(ValueError, match="read-only"):
            index[0, 0] = 0
        # the rows of each output pair type are one slice, and the slices tile the rows
        rows = np.concatenate([np.arange(len(index))[part] for _, part in groups])
        assert np.array_equal(np.sort(rows), np.arange(len(index)))
