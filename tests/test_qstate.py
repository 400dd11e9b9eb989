import math
import re
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergonoise import qstate
from ergonoise.matcore import (
    IDENTITY_2,
    KET_E,
    KET_G,
    PAULIS,
    _class_block_parts,
    _class_coordinates,
    _class_matrix,
    _local_sum_classes,
    _spin_spectrum,
    kron,
    require_density,
)
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
    random_separable_stack,
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


def test_density_to_bloch_rejects_an_empty_stack():
    message = "expected a matrix or a non-empty stack of matrices, got shape (0, 2, 2)"
    with pytest.raises(ValueError, match=re.escape(message)):
        density_to_bloch(np.zeros((0, 2, 2)))


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


def permutation_average(a, coherences):
    """The defining N!-term average of kron products of rho(a, c_i)."""
    locals_ = [qubit_state(a, c) for c in coherences]
    orders = list(permutations(range(len(locals_))))
    return sum(kron(*[locals_[i] for i in order]) for order in orders) / len(orders)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    a=st.floats(0.0, 1.0),
    radii=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
    phases=st.lists(st.floats(0.0, 2 * np.pi), min_size=6, max_size=6),
    real=st.booleans(),
)
def test_symmetrized_multipartite_matches_permutation_average(n, a, radii, phases, real):
    bound = np.sqrt(a * (1.0 - a))
    coherences = [
        r * bound * (np.sign(np.cos(p)) if real else np.exp(1j * p))
        for r, p in zip(radii[:n], phases[:n])
    ]
    rho = symmetrized_multipartite(a, coherences)
    assert np.abs(rho - permutation_average(a, coherences)).max() <= 1e-13


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    a=st.floats(0.0, 1.0),
    radii=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    phases=st.lists(st.floats(0.0, 2 * np.pi), min_size=8, max_size=8),
)
def test_symmetrized_classes_are_the_class_averages_of_the_dense_state(n, a, radii, phases):
    bound = np.sqrt(a * (1.0 - a))
    coherences = [r * bound * np.exp(1j * p) for r, p in zip(radii[:n], phases[:n])]
    coords = qstate._symmetrized_classes(a, coherences)
    assert coords.shape == (math.comb(n + 3, 3),)
    dense = symmetrized_multipartite(a, coherences)
    assert np.abs(coords - _class_coordinates(dense, n)).max() <= 1e-15


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


def random_separable_loop(rng, num_terms=2):
    """One sample as a loop of scalar draws, qubit_state checks and kron
    products: the oracle of the batched construction."""
    weights = rng.dirichlet(np.ones(num_terms))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        factors = []
        for _ in range(2):
            a = rng.uniform(0.0, 1.0)
            c = rng.uniform(0.0, np.sqrt(a * (1.0 - a)))
            factors.append(qubit_state(a, c))
        rho += w * kron(factors[0], factors[1])
    return rho


@pytest.mark.parametrize("num_terms", [1, 2, 3, 7, 8, 9, 16])
def test_separable_weights_are_bitwise_flat_dirichlet_draws(num_terms):
    # T >= 8 crosses numpy's 8-wide pairwise sum, which dirichlet does not use
    for seed in range(200):
        rng, oracle = philox_stream(seed, num_terms), philox_stream(seed, num_terms)
        weights, pops, _ = qstate._separable_draws(rng, num_terms)
        assert np.array_equal(weights, oracle.dirichlet(np.ones(num_terms)))
        assert np.array_equal(pops, oracle.random((num_terms, 2, 2))[..., 0])
        assert rng.random() == oracle.random()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    start=st.integers(0, 10**6),
    count=st.integers(1, 12),
    num_terms=st.integers(1, 5),
)
def test_stacked_sampler_equals_the_per_sample_loop(seed, start, count, num_terms):
    samples = range(start, start + count)
    stack = random_separable_stack(seed, samples, num_terms)
    assert stack.shape == (count, 4, 4)
    for i, rho in zip(samples, stack):
        loop = random_separable_loop(philox_stream(seed, i), num_terms)
        assert np.array_equal(rho, loop)
        assert np.array_equal(random_separable(philox_stream(seed, i), num_terms), loop)


def test_random_separable_seed_is_stream_zero():
    assert np.array_equal(random_separable(42, 3), random_separable_loop(philox_stream(42), 3))



def test_philox_keys_are_64_bit_words():
    # seed, stream and sample index are the words of a Philox key
    bound = r" is outside \[0, 2\*\*64\)"
    for args, message in (
        ((-1,), "seed -1"),
        ((2**64,), f"seed {2**64}"),
        ((0, -1), "stream -1"),
        ((0, 2**64), f"stream {2**64}"),
    ):
        with pytest.raises(ValueError, match=message + bound):
            philox_stream(*args)
    for seed, samples, message in (
        (-1, range(2), "seed -1"),
        (3, [0, -2], "sample index -2"),
        (3, [2**64], f"sample index {2**64}"),
    ):
        with pytest.raises(ValueError, match=message + bound):
            random_separable_stack(seed, samples)
    # a seed is not truncated to an integer, whichever entry point takes it
    for make in (philox_stream, random_separable):
        with pytest.raises(ValueError, match=re.escape("seed 1.5 is not an integer")):
            make(1.5)
    # the largest key is a valid stream, and numpy integers are accepted
    top = philox_stream(2**64 - 1, 2**64 - 1).random()
    assert top == philox_stream(np.uint64(2**64 - 1), np.uint64(2**64 - 1)).random()
    assert np.array_equal(random_separable_stack(np.int64(4), [np.int64(2)])[0], random_separable(philox_stream(4, 2)))

@pytest.mark.parametrize(
    "pops, cohs",
    [
        ([[0.2, 1.5]], [[0.1, 0.0]]),  # population outside [0, 1]
        ([[0.2, 0.3]], [[0.1, np.nan]]),  # non-finite coherence
        ([[0.1, 0.3]], [[0.5, 0.1]]),  # |c|^2 > a(1 - a)
    ],
)
def test_stacked_construction_keeps_the_qubit_state_checks(pops, cohs):
    pops, cohs = np.array([pops]), np.array([cohs])
    bad = ~(np.isfinite(cohs) & (pops <= 1.0) & (cohs**2 <= pops * (1 - pops)))
    with pytest.raises(ValueError) as expected:
        qubit_state(pops[bad][0], cohs[bad][0])
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        qstate._separable_states(np.ones((1, 1)), pops, cohs)


def test_stacked_sampler_rejects_empty_input():
    with pytest.raises(ValueError, match="num_terms must be at least 1"):
        random_separable_stack(3, range(2), num_terms=0)
    with pytest.raises(ValueError, match="need at least one sample"):
        random_separable_stack(3, range(0))


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
    assert h.dephasing == "collective"


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
    collective = replace(hamiltonian("x_sum", 2), dephasing="collective", basis=None)
    assert collective.dephasing == "collective"
    assert collective.frame[1].shape == (4, 4)


def test_hamiltonian_stores_one_of_three_dephasing_conventions():
    z = np.diag([0.0, 1.0])
    assert qstate.DEPHASINGS == ("block", "product_basis", "collective")
    assert qstate.Hamiltonian(z, "m").dephasing == "block"
    with pytest.raises(ValueError, match="expected one of block, product_basis, collective"):
        qstate.Hamiltonian(z, "m", "dephased")
    for convention in ("block", "collective"):
        with pytest.raises(ValueError, match=f"^{convention} dephasing takes no basis"):
            qstate.Hamiltonian(z, "m", convention, np.eye(2))
    # product_basis with no basis dephases in the computational basis
    assert qstate.Hamiltonian(z, "m", "product_basis").identity_frame
    assert not qstate.Hamiltonian(z, "m", "product_basis", qstate.HADAMARD).identity_frame


def test_identity_frame_is_read_from_the_convention_without_a_frame():
    for n in (1, 3, 8):
        h = hamiltonian("excitation", n)
        assert h.basis is None and h.identity_frame
        assert "frame" not in vars(h)
    # the frame is built when read, as the identity and its diagonal mask
    v, kept = h.frame
    assert v.dtype == np.float64 and np.array_equal(v, np.eye(2**8))
    assert np.array_equal(kept, np.eye(2**8, dtype=bool))
    # a block Hamiltonian whose eigenvectors are the identity is no identity frame
    assert not qstate.Hamiltonian(h.matrix, "excitation").identity_frame


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


def sum_local_loop(op, n):
    """sum_t op on qubit t as n full krons added into zeros: the oracle of
    the one-qubit-at-a-time recursion."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for t in range(n):
        out += kron(*[op if i == t else IDENTITY_2 for i in range(n)])
    return out


@pytest.mark.parametrize("op", [*PAULIS, np.outer(KET_E, KET_E.conj())], ids=["x", "y", "z", "ee"])
def test_sum_local_is_bitwise_the_sum_of_full_krons(op):
    for n in range(1, 9):
        fast, slow = qstate._sum_local(op, n), sum_local_loop(op, n)
        assert fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()  # signed zeros included


def test_spin_frames_exist_only_for_permutation_invariant_collective_hamiltonians():
    collective = qstate._class_hamiltonian("x_sum", 3)
    frames = collective.spin_frames
    assert [u.shape for u, _, _ in frames] == [(4, 4), (2, 2)]
    assert collective.spin_frames is frames
    assert hamiltonian("excitation", 3).identity_frame
    assert not hamiltonian("x_sum", 3).identity_frame


# the Hamiltonians the class route takes, and the sizes it takes them at
CLASS_VIEWS = [("excitation", n) for n in range(2, 9)] + [("x_sum", n) for n in range(2, 9)] + [("xx_interacting", 2)]


@pytest.mark.parametrize("kind, n", CLASS_VIEWS)
def test_class_views_gather_to_the_dense_hamiltonians(kind, n):
    view = qstate._class_hamiltonian(kind, n)
    assert view is qstate._class_hamiltonian(kind, n) and view.num_qubits == n
    dense = hamiltonian(kind, n).matrix
    gathered = _class_matrix(view.classes, n)
    assert gathered.dtype == dense.dtype and gathered.tobytes() == dense.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        view.classes[0] = 1.0


@pytest.mark.parametrize("kind, n", CLASS_VIEWS)
def test_class_view_frames_and_levels_are_those_of_the_dense_matrix(kind, n):
    # bitwise what the dense Hamiltonian gave: the levels of its diagonal,
    # or the block frames read from its class averages
    view = qstate._class_hamiltonian(kind, n)
    dense = hamiltonian(kind, n).matrix
    if view.dephasing == "product_basis":
        assert view.spin_frames is None
        assert view.levels.tobytes() == np.linalg.eigvalsh(dense).tobytes()
        return
    blocks = [np.linalg.eigh(p) for p in _class_block_parts(_class_coordinates(dense, n), n)]
    scale = max(float(np.abs(evals).max()) for evals, _ in blocks)
    assert len(view.spin_frames) == len(blocks)
    for (u, kept, values), (evals, vecs) in zip(view.spin_frames, blocks):
        assert u.tobytes() == vecs.tobytes() and values.tobytes() == evals.tobytes()
        assert np.array_equal(kept, np.abs(evals[:, None] - evals[None, :]) <= qstate.DEGENERACY_TOL * scale)
    assert view.levels.tobytes() == _spin_spectrum([evals for evals, _ in blocks], n).tobytes()


def test_class_views_reject_what_they_cannot_hold():
    # the one-qubit x field is sigma_x, not (1/2) sigma_x; z_plus_xx has no blockwise convention
    for kind, n in (("x_sum", 1), ("z_plus_xx", 2)):
        with pytest.raises(ValueError, match=f"no class-coordinate '{kind}' Hamiltonian on {n} qubits"):
            qstate._class_hamiltonian(kind, n)
    with pytest.raises(ValueError, match="xx_interacting is a two-qubit Hamiltonian"):
        qstate._class_hamiltonian("xx_interacting", 3)


def test_class_hamiltonians_take_only_what_dephases_blockwise():
    # product_basis keeps the computational diagonal, so it takes a diagonal H
    # only; no other convention dephases class coordinates blockwise
    n = 4
    x_field = 0.5 * _local_sum_classes(qstate.SIGMA_X, n)
    with pytest.raises(ValueError, match="product_basis dephasing keeps the diagonal, but x_sum is not diagonal"):
        qstate.ClassHamiltonian("x_sum", n, x_field, "product_basis")
    energy = _local_sum_classes(np.outer(KET_E, KET_E.conj()), n)
    for dephasing in ("block", "colective"):
        with pytest.raises(ValueError, match=f"by product_basis or collective, got {dephasing}"):
            qstate.ClassHamiltonian("excitation", n, energy, dephasing)
    assert qstate.ClassHamiltonian("x_sum", n, x_field, "collective").spin_frames is not None
    assert qstate.ClassHamiltonian("excitation", n, energy, "product_basis").spin_frames is None
