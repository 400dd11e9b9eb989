from dataclasses import replace

import numpy as np
import pytest

from ergonoise import qstate
from ergonoise.matcore import KET_E, KET_G, require_density
from ergonoise.qstate import (
    apply_hadamard_pair,
    bds_is_separable,
    bloch_to_density,
    classical_quantum,
    density_to_bloch,
    entangled_theta,
    hamiltonian,
    make_bds,
    philox_stream,
    qubit_state,
    random_separable,
    symmetric_pair,
    symmetrized_multipartite,
    x_product_basis,
)
from ergonoise.workx import concurrence


def test_bloch_round_trip():
    assert np.allclose(bloch_to_density([0, 0, 0]), np.eye(2) / 2)
    assert np.allclose(bloch_to_density([0, 0, 1]), np.diag([1.0, 0.0]))
    n = np.array([0.6, 0.5, 0.4])
    rho = bloch_to_density(n)
    expected = np.array([[0.7, 0.3 - 0.25j], [0.3 + 0.25j, 0.3]])
    assert np.abs(rho - expected).max() <= 1e-15
    assert np.abs(density_to_bloch(rho) - n).max() <= 1e-14


def test_bloch_rejects_long_vectors():
    with pytest.raises(ValueError):
        bloch_to_density([0.8, 0.8, 0.8])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructors_reject_non_finite_components(bad):
    with pytest.raises(ValueError, match="finite"):
        bloch_to_density([bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        make_bds([0.1, bad, 0.1])


def test_qubit_state_psd_guard():
    qubit_state(0.5, 0.5)  # boundary is allowed
    with pytest.raises(ValueError):
        qubit_state(0.1, 0.5)


def test_make_bds_examples():
    assert np.allclose(make_bds([0, 0, 0]), np.eye(4) / 4)
    # (1,-1,1) is a rank-one Bell projector
    vals = np.linalg.eigvalsh(make_bds([1, -1, 1]))
    assert np.allclose(sorted(vals), [0, 0, 0, 1], atol=1e-12)
    vals = np.linalg.eigvalsh(make_bds([0.5, 0.3, 0.1]))
    assert np.allclose(sorted(vals), [0.025, 0.225, 0.325, 0.425], atol=1e-12)


def test_make_bds_rejects_and_names_eigenvalue():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        make_bds([0.9, 0.8, 0.1])


def test_bds_separability_flag():
    assert bds_is_separable([0.5, 0.3, 0.1])
    assert not bds_is_separable([1, -1, 1])


def test_classical_quantum_examples():
    rho = classical_quantum(1.0, 0.3, 0.0)
    assert np.allclose(rho, np.diag([0.3, 0.7, 0.0, 0.0]))
    require_density(classical_quantum(0.5, 0.1, 0.2))
    # boundary coherence makes the coherent branch rank deficient
    rho = classical_quantum(0.5, 0.5, 0.5)
    assert np.linalg.eigvalsh(rho)[0] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        classical_quantum(1.5, 0.3, 0.0)


def test_symmetric_pair_collapses_when_equal():
    rho = symmetric_pair(0.3, 0.2, 0.1, 0.1)
    product = np.kron(qubit_state(0.2, 0.1), qubit_state(0.2, 0.1))
    assert np.abs(rho - product).max() <= 1e-15
    require_density(symmetric_pair(0.5, 0.2, 0.3, 0.2))
    require_density(symmetric_pair(0.5, 0.5, 0.3, 0.2))


def test_symmetrized_multipartite_small_cases():
    two = symmetrized_multipartite(0.2, [0.1, 0.2])
    assert np.abs(two - symmetric_pair(0.5, 0.2, 0.1, 0.2)).max() <= 1e-15
    equal = symmetrized_multipartite(0.2, [0.1, 0.1, 0.1])
    product = np.kron(np.kron(qubit_state(0.2, 0.1), qubit_state(0.2, 0.1)), qubit_state(0.2, 0.1))
    assert np.abs(equal - product).max() <= 1e-15


def test_symmetrized_multipartite_swap_invariance():
    coh = [0.1 + 0.02 * i for i in (1, 2, 3)]
    rho = symmetrized_multipartite(0.2, coh)
    require_density(rho)
    # swapping any pair of qubit labels leaves the state unchanged
    perm = [0, 2, 1]
    axes = perm + [p + 3 for p in perm]
    swapped = rho.reshape((2,) * 6).transpose(axes).reshape(8, 8)
    assert np.abs(rho - swapped).max() <= 1e-12
    perm = [1, 0, 2]
    axes = perm + [p + 3 for p in perm]
    swapped = rho.reshape((2,) * 6).transpose(axes).reshape(8, 8)
    assert np.abs(rho - swapped).max() <= 1e-12


def test_symmetrized_multipartite_guards():
    with pytest.raises(ValueError):
        symmetrized_multipartite(0.2, [0.1] * 9)
    with pytest.raises(ValueError):
        symmetrized_multipartite(0.1, [0.9])


def test_random_separable_reproducible_and_valid():
    a = random_separable(42, num_terms=2)
    b = random_separable(42, num_terms=2)
    assert np.abs(a - b).max() == 0.0
    require_density(a)
    for i in range(200):
        require_density(random_separable(philox_stream(9, i)))
    with pytest.raises(ValueError):
        random_separable(1, num_terms=0)


def test_philox_streams_are_independent():
    x = philox_stream(5, 0).uniform(size=4)
    y = philox_stream(5, 1).uniform(size=4)
    assert not np.allclose(x, y)
    assert np.allclose(x, philox_stream(5, 0).uniform(size=4))


def test_entangled_theta_and_hadamard():
    rho = entangled_theta(0.0)
    assert np.allclose(rho, np.diag([1.0, 0, 0, 0]))
    rotated = apply_hadamard_pair(rho)
    plus = np.full((2, 2), 0.5)
    assert np.abs(rotated - np.kron(plus, plus)).max() <= 1e-15
    bell = entangled_theta(np.pi / 4)
    assert concurrence(bell) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(apply_hadamard_pair(bell)) == pytest.approx(1.0, abs=1e-12)
    # purity is preserved through the rotation
    work = apply_hadamard_pair(entangled_theta(2.0))
    assert np.trace(work @ work).real == pytest.approx(1.0, abs=1e-12)


def test_entangled_theta_separability_boundary():
    for k in range(5):
        theta = k * np.pi / 2
        assert concurrence(apply_hadamard_pair(entangled_theta(theta))) < 1e-9
    for theta in (0.3, 1.0, 2.0, 2.8):
        assert concurrence(apply_hadamard_pair(entangled_theta(theta))) > 1e-3
        assert concurrence(entangled_theta(theta)) == pytest.approx(abs(np.sin(2 * theta)), abs=1e-9)


def test_hamiltonian_single_site():
    h = hamiltonian("excitation", 1)
    assert np.allclose(h.matrix, np.diag([0.0, 1.0]))
    assert np.allclose(hamiltonian("x_sum", 1).matrix, np.array([[0, 1], [1, 0]]))


def test_hamiltonian_interacting_spectrum():
    h = hamiltonian("xx_interacting", 2, h=0.5, j=0.4)
    vals = np.linalg.eigvalsh(h.matrix)
    assert np.allclose(sorted(vals), sorted([-0.4, -0.4, -0.6, 1.4]), atol=1e-12)
    assert h.collective


def test_hamiltonian_z_plus_xx():
    h = hamiltonian("z_plus_xx", 2, h=0.5, j=0.4)
    assert np.abs(h.matrix - h.matrix.conj().T).max() <= 1e-12
    assert np.trace(h.matrix).real == pytest.approx(0.0)
    # nondegenerate spectrum, so block dephasing is exact
    vals = np.linalg.eigvalsh(h.matrix)
    assert np.diff(vals).min() > 1e-6


def test_hamiltonian_compares_and_hashes_by_identity():
    h = hamiltonian("excitation", 1)
    assert (h == h) is True
    assert (h == hamiltonian("excitation", 1)) is False
    assert {h: "cached"}[h] == "cached"
    # replace builds a new object with its own cached levels and frame
    scaled = replace(h, matrix=2.0 * h.matrix)
    assert scaled != h
    assert np.array_equal(scaled.levels, [0.0, 2.0])
    assert h.frame is h.frame
    collective = replace(hamiltonian("x_sum", 2), basis=None, collective=True)
    assert collective.dephasing == "collective"
    assert collective.frame[1].shape == (4, 4)


def test_x_product_basis_orders_kets_by_bits():
    # column idx is the product of |x+> (bit 0) and |x-> (bit 1), first qubit first
    kets = ((KET_G + KET_E) / np.sqrt(2.0), (KET_G - KET_E) / np.sqrt(2.0))
    for n in range(1, 6):
        basis = x_product_basis(n)
        for idx in range(2**n):
            ket = kets[(idx >> (n - 1)) & 1]
            for k in range(1, n):
                ket = np.kron(ket, kets[(idx >> (n - 1 - k)) & 1])
            assert np.array_equal(basis[:, idx], ket)


def test_hamiltonian_unknown_kind():
    with pytest.raises(ValueError):
        hamiltonian("nope", 2)
    with pytest.raises(ValueError):
        hamiltonian("xx_interacting", 3)


def test_z_sum_matches_excitation_up_to_shift():
    a = hamiltonian("z_sum", 2).matrix
    b = hamiltonian("excitation", 2).matrix
    assert np.abs((a + np.eye(4)) - b).max() <= 1e-14


def test_constructor_outputs_are_physical():
    rng = np.random.default_rng(21)
    for _ in range(50):
        c = rng.uniform(0, 1, size=3)
        c = c / max(1.0, c.sum() + 1e-9)
        require_density(make_bds(c))
    for _ in range(50):
        a = rng.uniform(0, 1)
        cmax = np.sqrt(a * (1 - a))
        require_density(symmetric_pair(rng.uniform(0, 1), a, rng.uniform(0, cmax), rng.uniform(0, cmax)))
