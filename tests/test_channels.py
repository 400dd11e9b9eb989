import math
import re
import tracemalloc
from dataclasses import is_dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergonoise import channels, matcore
from ergonoise.channels import (
    AMPLITUDE_DAMPING,
    BIT_FLIP,
    CORRELATED_BIT_FLIP,
    KINDS,
    UNITAL_KINDS,
    LindbladSpec,
    apply_local,
    bds_param_map,
    bloch_map,
    jump_operator,
    kraus_set,
    lindblad_evolve,
    q_of_t,
)
from ergonoise.matcore import SIGMA_X, kron, num_qubits, partial_trace
from ergonoise.correlations import correlation_work
from ergonoise.qstate import (
    apply_hadamard_pair,
    bds_eigenvalues,
    bloch_to_density,
    density_to_bloch,
    entangled_theta,
    hamiltonian,
    make_bds,
    symmetrized_multipartite,
)
from ergonoise.workx import closed_form, coherence_degenerate, concurrence, decompose


def random_bloch(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0, 1)


def random_bds_params(rng):
    c = rng.uniform(0, 1, size=3)
    return c / (c.sum() + rng.uniform(0.01, 1.0))


# Every entry that takes a channel kind and a strength, as a function of
# those two: a number q gives the one-point shape, a grid a leading axis.
BLOCH = [0.3, -0.4, 0.5]
BDS = [0.5, 0.3, 0.1]
STRENGTH_ENTRIES = {
    "kraus_set": kraus_set,
    "apply_local": lambda kind, q: apply_local(bloch_to_density(BLOCH), kind, q),
    "bloch_map": lambda kind, q: bloch_map(kind, q, BLOCH),
    "bds_param_map": lambda kind, q: bds_param_map(kind, q, BDS),
    "closed_form": lambda kind, q: closed_form(kind, q, BLOCH),
    "correlation_work": lambda kind, q: correlation_work(BDS, kind, q),
}
# A mixed, entangled two-qubit state and every entry that takes a state
# or a stack of states.
STATE = apply_local(apply_hadamard_pair(entangled_theta(2.0)), "bf", 0.3)
STATE_ENTRIES = {
    "decompose": lambda rho: decompose(rho, hamiltonian("z_plus_xx", 2, h=0.5, j=0.4)),
    "concurrence": concurrence,
    "coherence_degenerate": coherence_degenerate,
}


def assert_row_zero(one, grid):
    """``one`` has the one-point shape and is bitwise row 0 of the
    one-row result ``grid``, field by field and operator by operator."""
    if isinstance(one, list):
        assert len(one) == len(grid)
        for a, b in zip(one, grid):
            assert_row_zero(a, b)
    elif isinstance(one, bool):
        assert one == grid
    elif is_dataclass(one):
        for name, value in vars(one).items():
            assert_row_zero(value, getattr(grid, name))
    else:
        grid = np.asarray(grid)
        assert len(grid) == 1 and np.shape(one) == grid.shape[1:]
        assert np.asarray(one, dtype=grid.dtype).tobytes() == grid[:1].tobytes()


@pytest.mark.parametrize("name", [*STRENGTH_ENTRIES, *STATE_ENTRIES])
def test_one_point_is_row_zero_of_the_one_element_grid(name):
    if name in STRENGTH_ENTRIES:
        for kind in ("bf", "ad", "pf"):
            if name == "bds_param_map" and kind == "ad":
                continue
            entry = STRENGTH_ENTRIES[name]
            assert_row_zero(entry(kind, 0.37), entry(kind, [0.37]))
    else:
        entry = STATE_ENTRIES[name]
        assert_row_zero(entry(STATE), entry(STATE[None]))


def test_kind_validation_and_aliases():
    for entry in STRENGTH_ENTRIES.values():
        with pytest.raises(ValueError, match="unknown channel kind 'smear'"):
            entry("smear", 0.1)
        assert_row_zero(entry("bf", 0.3), entry(BIT_FLIP, [0.3]))


@pytest.mark.parametrize(
    "q_grid, message",
    [
        ([], "need at least one noise strength"),
        ([0.0, 1.2, 0.5], "noise strength q = 1.2 outside"),
        ([0.3, -0.1], r"noise strength q = -0.1 outside"),
        ([0.5, np.nan], "noise strength q = nan outside"),
        ([[0.1, 0.2]], "1-D grid"),
    ],
)
def test_grid_validation_names_the_strength(q_grid, message):
    # the grid, and the bad strength of a 1-D grid as a number, on every entry
    bad = [q for q in q_grid if not 0.0 <= q <= 1.0] if np.ndim(q_grid) == 1 else []
    for entry in STRENGTH_ENTRIES.values():
        for q in [q_grid, *bad]:
            with pytest.raises(ValueError, match=message):
                entry("bf", q)


def test_kraus_completeness_all_kinds():
    for kind in KINDS:
        for q in np.linspace(0, 1, 11):
            ops = kraus_set(kind, q)
            dim = ops[0].shape[0]
            total = sum(k.conj().T @ k for k in ops)
            assert np.abs(total - np.eye(dim)).max() <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_each_kraus_set_has_one_dtype_and_is_complete(kind):
    q_grid = np.linspace(0, 1, 5)
    for q in (0.37, q_grid):
        ops = kraus_set(kind, q)
        assert len({k.dtype for k in ops}) == 1, [k.dtype for k in ops]
        total = sum(np.swapaxes(k, -1, -2).conj() @ k for k in ops)
        assert np.abs(total - np.eye(ops[0].shape[-1])).max() <= 1e-12


def test_lindblad_spec_takes_a_number_or_a_non_empty_1d_grid():
    jump = (jump_operator("ad"),)
    spec = LindbladSpec(jump, (1.0,), [0, 1, 2])
    assert spec.duration.dtype == np.float64 and not spec.duration.flags.writeable
    assert LindbladSpec(jump, (1.0,), 2.0).duration == 2.0
    for grid in ([], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="durations must form a non-empty 1-D grid"):
            LindbladSpec(jump, (1.0,), grid)


def test_lindblad_specs_compare_and_hash_by_identity():
    # equal-content specs hold arrays, which have no one truth value
    jump = (jump_operator("bf"),)
    spec, twin = LindbladSpec(jump, (0.5,), [0.0, 1.0]), LindbladSpec(jump, (0.5,), [0.0, 1.0])
    assert spec != twin and not spec == twin
    assert spec == spec
    single = LindbladSpec(jump, (0.5,), 1.0)
    assert {spec: 1, single: 2}[single] == 2 and hash(single) == hash(single)


def test_identity_channel_at_q_zero():
    rng = np.random.default_rng(2)
    rho = bloch_to_density(random_bloch(rng))
    for kind in KINDS:
        if kind == CORRELATED_BIT_FLIP:
            continue
        out = apply_local(rho, kind, 0.0, [0])
        assert np.abs(out - rho).max() <= 1e-14


def test_bit_flip_full_strength():
    # q=1 is the balanced {I, sigma_x} mixture: kills n2 and n3
    rho = bloch_to_density([0.6, 0.5, 0.4])
    out = apply_local(rho, "bf", 1.0, [0])
    assert np.abs(density_to_bloch(out) - [0.6, 0.0, 0.0]).max() <= 1e-12


def test_amplitude_damping_full_decay():
    rng = np.random.default_rng(4)
    for _ in range(5):
        rho = bloch_to_density(random_bloch(rng))
        out = apply_local(rho, "ad", 1.0, [0])
        assert np.abs(out - np.diag([1.0, 0.0])).max() <= 1e-12


def test_bloch_map_examples():
    assert np.allclose(bloch_map("dc", 1.0, [0.3, -0.2, 0.9]), [0, 0, 0])
    assert np.allclose(bloch_map("ad", 1.0, [0.7, 0.5, -0.4]), [0, 0, 1])
    assert np.allclose(
        bloch_map("bf", 0.47, [0.6, 0.5, 0.4]), [0.6, 0.265, 0.212]
    )


def test_bloch_map_matches_kraus():
    rng = np.random.default_rng(6)
    for kind in KINDS:
        if kind == CORRELATED_BIT_FLIP:
            continue
        for _ in range(60):
            n = random_bloch(rng)
            q = rng.uniform(0, 1)
            via_kraus = density_to_bloch(
                apply_local(bloch_to_density(n), kind, q, [0])
            )
            assert np.abs(via_kraus - bloch_map(kind, q, n)).max() <= 1e-10


def test_bds_param_map_examples():
    c = np.array([0.5, 0.3, 0.1])
    out = bds_param_map("pf", 0.3, c, both_qubits=True)
    assert np.allclose(out, [0.245, 0.147, 0.1])
    assert np.allclose(bds_param_map("bf", 0.0, c, True), c)
    assert np.allclose(bds_param_map("dc", 1.0, c, True), [0, 0, 0])
    with pytest.raises(ValueError, match="Bell-diagonal"):
        bds_param_map("ad", 0.3, c)


@pytest.mark.parametrize("both", [True, False])
@pytest.mark.parametrize("kind", ["bf", "bpf", "pf", "dc", "pd", "cbf"])
def test_bds_param_grid_rows_are_the_one_strength_maps(kind, both):
    rng = np.random.default_rng(31)
    c = rng.uniform(-1, 1, size=3)
    qs = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, size=20)])
    grid = bds_param_map(kind, qs, c, both)
    lams = bds_eigenvalues(grid)
    assert grid.shape == (len(qs), 3) and lams.shape == (len(qs), 4)
    for i, q in enumerate(qs):
        row = bds_param_map(kind, q, c, both)
        assert np.array_equal(grid[i], row)
        assert np.array_equal(lams[i], bds_eigenvalues(row))
    with pytest.raises(ValueError, match=r"q = 1.5 outside"):
        bds_param_map(kind, [0.0, 1.5], c, both)


def test_bds_param_grid_rejects_amplitude_damping():
    with pytest.raises(ValueError, match="Bell-diagonal"):
        bds_param_map("ad", [0.0, 0.5], [0.1, 0.2, 0.3])


def test_bds_map_matches_kraus():
    rng = np.random.default_rng(8)
    for kind in UNITAL_KINDS:
        for _ in range(40):
            c = random_bds_params(rng)
            q = rng.uniform(0, 1)
            for both, targets in ((True, (0, 1)), (False, (0,))):
                evolved = apply_local(make_bds(c), kind, q, targets)
                predicted = make_bds(bds_param_map(kind, q, c, both))
                assert np.abs(evolved - predicted).max() <= 1e-10


def test_bit_flip_semigroup_on_bloch():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = random_bloch(rng)
        q1, q2 = rng.uniform(0, 1, size=2)
        step = bloch_map("bf", q2, bloch_map("bf", q1, n))
        combined = bloch_map("bf", 1 - (1 - q1) * (1 - q2), n)
        assert np.abs(step - combined).max() <= 1e-12


def test_unital_kinds_fix_maximally_mixed():
    for n_qubits, dim in ((1, 2), (2, 4)):
        eye = np.eye(dim) / dim
        for kind in UNITAL_KINDS:
            out = apply_local(eye, kind, 0.7, range(n_qubits))
            assert np.abs(out - eye).max() <= 1e-12
    out = apply_local(np.eye(2) / 2, "ad", 0.7, [0])
    assert np.abs(out - np.eye(2) / 2).max() > 1e-3


def test_ordering_preserved_among_equally_damped_components():
    # components sharing a decay factor keep their relative order; the
    # protected component can overtake the damped ones (that crossing is
    # real and drives the passive-state reshaping), so only same-factor
    # pairs are constrained
    rng = np.random.default_rng(12)
    same_factor_pairs = {
        "bit_flip": [(1, 2)],
        "bit_phase_flip": [(0, 2)],
        "phase_flip": [(0, 1)],
        "phase_damping": [(0, 1)],
        "depolarizing": [(0, 1), (0, 2), (1, 2)],
    }
    for _ in range(50):
        c = random_bds_params(rng)
        q = rng.uniform(0, 1)
        for kind, pairs in same_factor_pairs.items():
            mapped = bds_param_map(kind, q, c, both_qubits=True)
            for i, j in pairs:
                if c[i] > c[j]:
                    assert mapped[i] >= mapped[j] - 1e-12


def test_protected_component_crossing_exists():
    # bf with the protected c1 smallest: the damped components fall below
    # it at finite q, exactly the crossing the passive state reacts to
    c = np.array([0.1, 0.5, 0.3])
    mapped0 = bds_param_map("bf", 0.0, c, True)
    mapped1 = bds_param_map("bf", 0.9, c, True)
    assert mapped0.argmax() == 1
    assert mapped1.argmax() == 0


def test_correlated_bit_flip_leaves_bds_unchanged():
    rng = np.random.default_rng(14)
    for _ in range(10):
        rho = make_bds(random_bds_params(rng))
        out = apply_local(rho, "cbf", rng.uniform(0, 1), (0, 1))
        assert np.abs(out - rho).max() <= 1e-12
    with pytest.raises(ValueError):
        apply_local(np.eye(8) / 8, "cbf", 0.5, (0, 1, 2))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("kind", [k for k in KINDS if k != CORRELATED_BIT_FLIP])
def test_apply_local_multi_qubit_padding(n, kind):
    # explicit kron lifting as the oracle, on the first, middle and last qubit
    rng = np.random.default_rng(16)
    d = 2**n
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    for target in sorted({0, n // 2, n - 1}):
        lifted = []
        for k in kraus_set(kind, 0.37):
            ops = [np.eye(2)] * n
            ops[target] = k
            lifted.append(kron(*ops))
        oracle = sum(k @ rho @ k.conj().T for k in lifted)
        out = apply_local(rho, kind, 0.37, [target])
        assert np.abs(out - oracle).max() <= 1e-12
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_correlated_pair_on_non_adjacent_targets():
    # explicit kron lifting of the pair operators onto qubits (0, 2)
    rng = np.random.default_rng(20)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    i2 = np.eye(2)
    lifted = [
        np.sqrt(1 - 0.3) * kron(i2, i2, i2),
        np.sqrt(0.3) * kron(SIGMA_X, i2, SIGMA_X),
    ]
    oracle = sum(k @ rho @ k.conj().T for k in lifted)
    out = apply_local(rho, "cbf", 0.6, (0, 2))
    assert np.abs(out - oracle).max() <= 1e-12


def max_entangled(system, reference, n):
    """sum_x |x>_system |x>_reference over equal-size qubit lists, normalized."""
    m = len(system)
    ket = np.zeros(2**n, dtype=complex)
    for x in range(2**m):
        idx = 0
        for k in range(m):
            bit = (x >> (m - 1 - k)) & 1
            idx |= bit << (n - 1 - system[k])
            idx |= bit << (n - 1 - reference[k])
        ket[idx] = 1.0
    ket /= np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def assert_choi_is_cptp(choi, reference):
    assert np.linalg.eigvalsh(choi)[0] >= -1e-12
    d = 2 ** len(reference)
    reduced = partial_trace(choi, keep=reference)
    assert np.abs(reduced - np.eye(d) / d).max() <= 1e-12


SINGLE_QUBIT_KINDS = [k for k in KINDS if k != CORRELATED_BIT_FLIP]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(SINGLE_QUBIT_KINDS), q=st.floats(0.0, 1.0), target=st.integers(0, 1))
def test_single_qubit_choi_is_cptp(kind, q, target):
    reference = [1 - target]
    choi = apply_local(max_entangled([target], reference, 2), kind, q, [target])
    assert_choi_is_cptp(choi, reference)


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.0, 1.0), pair=st.sampled_from(list(combinations(range(4), 2))))
def test_correlated_flip_choi_is_cptp_on_any_pair(q, pair):
    # adjacent and non-adjacent pairs of a 4-qubit register, the other
    # two qubits holding the reference half
    reference = [i for i in range(4) if i not in pair]
    rho = max_entangled(list(pair), reference, 4)
    choi = apply_local(rho, "cbf", q, pair)
    assert_choi_is_cptp(choi, reference)


def test_apply_local_rejects_bad_targets():
    with pytest.raises(ValueError):
        apply_local(np.eye(4) / 4, "bf", 0.5, [2])


def test_apply_local_checks_the_shape_without_a_complex_copy(monkeypatch):
    entered = []
    exact_real = matcore._exact_real

    def recording(a):
        entered.append(a)
        return exact_real(a)

    # the one dtype rule, which as_matrix and as_stack apply
    monkeypatch.setattr(matcore, "_exact_real", recording)
    rho = np.array([[0.7, 0.2], [0.2, 0.3]])
    assert apply_local(rho, "ad", 0.3).dtype == np.float64
    assert entered[0] is rho  # the caller's array reaches the dtype rule uncopied
    assert all(a.dtype == np.float64 for a in entered)  # and nothing on the way is complex
    # one state is anything but a 3-D stack, and keeps the one-matrix message
    for bad in (np.ones((2, 3)) / 2, np.stack([[rho, rho]]), np.array(0.5)):
        with pytest.raises(ValueError, match=re.escape(f"expected a square matrix, got shape {bad.shape}")):
            apply_local(bad, "bf", 0.3)
    # a 3-D input is a stack of states, each evolved as alone
    assert np.array_equal(apply_local(np.stack([rho, rho]), "bf", 0.3), np.stack([apply_local(rho, "bf", 0.3)] * 2))


def random_states(rng, count, n):
    m = rng.normal(size=(count, 2**n, 2**n)) + 1j * rng.normal(size=(count, 2**n, 2**n))
    rhos = m @ m.conj().swapaxes(1, 2)
    return rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(2, 4),
    count=st.integers(1, 9),
    q_points=st.integers(1, 300),
    seed=st.integers(0, 2**31 - 1),
)
def test_chunks_of_a_stack_equal_one_grid_per_state(kind, n, count, q_points, seed):
    # a stack's (S, Q, d, d) curves, all from one call, are bitwise equal to
    # per-state grids
    rng = np.random.default_rng(seed)
    rhos, qs = random_states(rng, count, n), rng.uniform(0, 1, q_points)
    targets = (0, n - 1) if kind == CORRELATED_BIT_FLIP else None
    images = apply_local(rhos, kind, qs, targets)
    assert images.shape == (count, q_points, 2**n, 2**n)
    want = np.array([apply_local(rho, kind, qs, targets) for rho in rhos])
    assert np.array_equal(images, want)


def test_chunks_of_one_state_slice_the_q_grid():
    # one state's images over slices of the grid are bitwise the same rows
    # of the whole grid, and each strength alone is its row too
    for n, points, step in ((1, 5000, 4096), (3, 700, 256)):
        rho = random_states(np.random.default_rng(3), 1, n)[0]
        qs = np.linspace(0, 1, points)
        stack = apply_local(rho, "ad", qs)
        assert stack.shape == (points, 2**n, 2**n)
        for start in range(0, points, step):
            rows = slice(start, start + step)
            assert np.array_equal(stack[rows], apply_local(rho, "ad", qs[rows]))
        for i in (0, points // 3, points - 1):
            assert np.array_equal(stack[i], apply_local(rho, "ad", qs[i]))


def test_chunks_validate_before_the_first_stack(monkeypatch):
    built = []
    real = channels._superoperators
    monkeypatch.setattr(channels, "_superoperators", lambda k, q: built.append(len(q)) or real(k, q))
    channels._coefficients.cache_clear()
    channels._toeplitz.cache_clear()
    rhos = random_states(np.random.default_rng(5), 30, 2)
    for _ in range(2):
        assert apply_local(rhos, "bf", np.linspace(0, 1, 101)).shape == (30, 101, 4, 4)
    # one fit at deg + 1 = 2 strengths per kind, not one build per call or stack
    assert built == [2]
    # the kind, the grid, the states' shape and the targets, in that order:
    # each case also breaks every later check
    cases = [
        (("xx", [0.2, 1.5], rhos[:0], [2]), "unknown channel kind 'xx'"),
        (("bf", [0.2, 1.5], rhos[:0], [2]), "noise strength q = 1.5 outside [0, 1]"),
        (("bf", [0.5], rhos[:0], [2]), "expected a matrix or a non-empty stack of matrices, got shape (0, 4, 4)"),
        (("bf", [0.5], rhos[:, :3], [2]), "expected a square matrix or a stack of square matrices, got shape (30, 3, 4)"),
        (("bf", [0.5], rhos, [2]), "targets [2] out of range for 2 qubits"),
        (("cbf", [0.5], rhos, [0]), "correlated bit flip acts on exactly one qubit pair"),
    ]
    for (kind, q, states, targets), message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_local(states, kind, q, targets)


@pytest.mark.parametrize(
    "kind, n, targets",
    [
        ("bf", 3, [1]),
        ("ad", 3, [0, 2]),
        ("pd", 2, None),
        ("dc", 4, [3, 1]),
        ("cbf", 2, None),
        ("cbf", 3, [2, 0]),
    ],
)
def test_apply_local_on_a_stack(kind, n, targets):
    # a (S, d, d) stack gives (S, d, d) images for a number and (S, Q, d, d)
    # for a grid, each state's bitwise its own call's, real and complex
    rng = np.random.default_rng(n)
    real = rng.normal(size=(4, 2**n, 2**n))
    real = real @ real.swapaxes(1, 2)
    real /= np.trace(real, axis1=1, axis2=2)[:, None, None]
    qs = rng.uniform(0, 1, 7)
    for rhos in (real, random_states(rng, 3, n)):
        one = apply_local(rhos, kind, 0.3, targets)
        grid = apply_local(rhos, kind, qs, targets)
        assert one.shape == rhos.shape and grid.shape == (len(rhos), 7) + rhos.shape[1:]
        assert one.dtype == grid.dtype == (np.float64 if rhos is real else np.complex128)
        for rho, got_one, got_grid in zip(rhos, one, grid):
            assert np.array_equal(got_one, apply_local(rho, kind, 0.3, targets))
            assert np.array_equal(got_grid, apply_local(rho, kind, qs, targets))


def contract(rhos, sups, targets, n):
    """Apply the i-th superoperator to the sorted ``targets`` of the i-th
    state: the targets' row and column axes move to the front, so the
    whole stack is one batched matmul onto a (Q, 4^m, 4^(n-m)) reshape."""
    m = len(targets)
    front = [1 + t for t in targets] + [1 + n + t for t in targets]
    perm = [0] + front + [a for a in range(1, 2 * n + 1) if a not in front]
    tens = rhos.reshape((len(rhos),) + (2,) * (2 * n)).transpose(perm)
    out = (sups @ tens.reshape(len(rhos), 4**m, -1)).reshape(tens.shape)
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    return out.transpose(inverse).reshape(rhos.shape)


def per_q_kraus_oracle(rho, kind, qs, targets):
    """The channel at every strength of ``qs`` as its own superoperator
    sum_k K(q) (x) conj(K(q)), contracted onto each target group in turn:
    the oracle of the polynomial path."""
    n = num_qubits(rho)
    sups = channels._superoperators(kind, np.asarray(qs, dtype=float))
    groups = [sorted(targets)] if kind == CORRELATED_BIT_FLIP else [(t,) for t in sorted(targets)]
    out = np.repeat(np.asarray(rho, dtype=complex)[None], len(qs), axis=0)
    for group in groups:
        out = contract(out, sups, group, n)
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(KINDS), n=st.integers(1, 6), seed=st.integers(0, 2**31 - 1))
def test_polynomial_path_matches_the_per_q_kraus_oracle(data, kind, n, seed):
    # all kinds, 1..6 qubits, target subsets, stacks of one to three
    # states, one strength and a 501-point grid
    if kind == CORRELATED_BIT_FLIP:
        if n < 2:
            return
        targets = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    else:
        targets = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    points = data.draw(st.sampled_from([1, 2, 37] + ([501] if n <= 5 else [])))
    rng = np.random.default_rng(seed)
    rhos = random_states(rng, data.draw(st.integers(1, 3)), n)
    qs = rng.uniform(0, 1, points)
    qs[:2] = [0.0, 1.0][:points]
    want = np.concatenate([per_q_kraus_oracle(rho, kind, qs, targets) for rho in rhos])
    got = apply_local(rhos, kind, qs, targets).reshape(want.shape)
    assert np.abs(got - want).max() <= 1e-12
    grid = apply_local(rhos[0], kind, qs, targets)
    assert np.abs(grid - want[:points]).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 8),
    kind=st.sampled_from(["bf", "bpf", "pf", "dc", "ad", "pd"]),
    a=st.floats(0.05, 0.95),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    phases=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=8, max_size=8),
    seed=st.integers(0, 2**31 - 1),
)
@example(n=8, kind="ad", a=0.2, fractions=[0.1 * (i % 7 + 1) for i in range(8)], phases=[0.8 * i for i in range(8)], seed=1)
@example(n=8, kind="bpf", a=0.7, fractions=[1.0] * 8, phases=[0.4 * i for i in range(8)], seed=2)
def test_class_terms_match_the_dense_expansion(n, kind, a, fractions, phases, seed):
    # the terms expanded in class coordinates give the spin blocks, traces,
    # energies and identity-frame diagonals of the dense terms
    radius = np.sqrt(a * (1.0 - a))
    coherences = [radius * f * np.exp(1j * p) for f, p in zip(fractions[:n], phases[:n])]
    rho0 = symmetrized_multipartite(a, coherences)
    kind = channels.canonical_kind(kind)
    d = 2**n
    dense = channels._expand(rho0[None], kind, tuple((t,) for t in range(n)), n)[0].reshape(-1, d, d)
    coords = matcore._class_coordinates(rho0, n)
    terms, vander = channels._class_polynomial(coords, kind, n, np.linspace(0.0, 1.0, 3))
    assert terms.shape == (len(dense), math.comb(n + 3, 3)) and vander.shape == (3, len(dense))
    want = np.array([matcore._class_coordinates(term, n) for term in dense])
    assert np.abs(terms - want).max() <= 1e-12
    blocks = matcore._block_spectrum(matcore._class_block_parts(terms, n), n)
    assert np.abs(blocks - np.linalg.eigvalsh(dense)).max() <= 1e-12
    assert np.abs(matcore._class_trace(terms, n) - np.trace(dense, axis1=1, axis2=2)).max() <= 1e-12
    # any H, invariant or not, pairs with invariant terms through its class
    # sums; a random H of unit norm, so that the energies, like those of the
    # experiments' Hamiltonians, are not scaled up by the dimension
    h = np.random.default_rng(seed).normal(size=(d, d))
    h = h + h.T
    h /= np.abs(h).sum(axis=1).max()
    energy = terms @ (matcore._class_coordinates(h.T, n) * matcore._entry_classes(n).sizes)
    assert np.abs(energy - np.einsum("ij,kji->k", h, dense)).max() <= 1e-12
    by_weight = np.argsort(np.bitwise_count(np.arange(d)), kind="stable")
    diagonal = np.diagonal(dense, axis1=1, axis2=2)[:, by_weight]
    assert np.abs(matcore._class_diagonal(terms, n) - diagonal).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(0.05, 0.95),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    phases=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=2, max_size=2),
)
def test_correlated_flip_class_terms_match_the_dense_expansion(a, fractions, phases):
    # on two qubits the correlated pair is the whole register: the class
    # terms are the class averages of the dense terms, which lose nothing,
    # as the flip of both qubits keeps a swap-invariant state invariant
    radius = np.sqrt(a * (1.0 - a))
    rho0 = symmetrized_multipartite(a, [radius * f * np.exp(1j * p) for f, p in zip(fractions, phases)])
    kind = channels.CORRELATED_BIT_FLIP
    dense = channels._expand(rho0[None], kind, ((0, 1),), 2)[0].reshape(-1, 4, 4)
    coords = matcore._class_coordinates(rho0, 2)
    terms, vander = channels._class_polynomial(coords, kind, 2, np.linspace(0.0, 1.0, 3))
    assert terms.shape == (2, 10) and vander.shape == (3, 2)
    want = np.array([matcore._class_coordinates(term, 2) for term in dense])
    assert np.abs(terms - want).max() <= 1e-12
    for term in dense:
        assert np.abs(matcore._class_matrix(matcore._class_coordinates(term, 2), 2) - term).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 3, 4, 8])
def test_class_route_rejects_the_correlated_flip_off_two_qubits(n):
    coords = np.zeros(math.comb(n + 3, 3))
    with pytest.raises(ValueError, match="correlated bit flip acts on exactly one qubit pair"):
        channels._class_polynomial(coords, channels.CORRELATED_BIT_FLIP, n, np.linspace(0.0, 1.0, 3))


@pytest.mark.parametrize("kind", KINDS)
def test_fitted_coefficients_reproduce_the_superoperators(kind):
    coef = channels._coefficients(kind)
    assert not coef.flags.writeable
    qs = np.concatenate([[0.0, 1.0], np.random.default_rng(17).uniform(0, 1, 200)])
    x = channels._POLYNOMIALS[kind][0](qs)
    fitted = np.einsum("qe,eij->qij", np.power.outer(x, np.arange(len(coef))), coef)
    assert np.abs(fitted - channels._superoperators(kind, qs)).max() <= 1e-14


@pytest.mark.parametrize("n, kind, count, points", [(1, "ad", 5, 3000), (2, "cbf", 30, 101), (3, "pd", 3, 501), (6, "ad", 2, 21), (8, "bf", 1, 3)])
def test_every_piece_stays_within_the_budget(n, kind, count, points):
    # one call holds every image of its states, their terms, about twice the
    # terms in temporaries and a few copies of the (Q, K) weights x(q)^k
    rhos = random_states(np.random.default_rng(n), count, n)
    qs = np.linspace(0, 1, points)
    apply_local(rhos[:1], kind, qs[:1])  # caches the Toeplitz operators
    tracemalloc.start()
    try:
        images = apply_local(rhos, kind, qs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert images.shape == (count, points, 2**n, 2**n)
    k = 2 if kind == "cbf" else channels._POLYNOMIALS[channels.canonical_kind(kind)][1] * n + 1
    terms = count * k * 4**n * 16  # complex states
    assert peak <= images.nbytes + 3 * terms + 4 * points * k * 8


@pytest.mark.parametrize(
    "n, count, per, kind, groups",
    [
        (5, 3, 1, AMPLITUDE_DAMPING, tuple((t,) for t in range(5))),  # 176 KiB of terms per state
        (4, 9, 7, AMPLITUDE_DAMPING, tuple((t,) for t in range(4))),
        (5, 9, 8, CORRELATED_BIT_FLIP, ((1, 3),)),
    ],
)
def test_a_stack_across_slices_expands_each_state_as_alone(n, count, per, kind, groups):
    # the whole stack in one product, slices of ``per`` states and each
    # state alone give the same terms, bit for bit
    rhos = random_states(np.random.default_rng(count), count, n)
    terms = channels._expand(rhos, kind, groups, n)
    sliced = [channels._expand(rhos[s : s + per], kind, groups, n) for s in range(0, count, per)]
    assert np.array_equal(terms, np.concatenate(sliced))
    for rho, got in zip(rhos, terms):
        assert np.array_equal(got, channels._expand(rho[None], kind, groups, n)[0])


@pytest.mark.parametrize("n, count", [(4, 9), (6, 1), (6, 3), (8, 1)])
def test_expansion_temporaries_stay_within_twice_a_slice(n, count):
    # the temporaries of one expansion of the whole stack are about twice its terms
    rhos = random_states(np.random.default_rng(n), count, n)
    groups = tuple((t,) for t in range(n))
    channels._expand(rhos[:1], AMPLITUDE_DAMPING, groups, n)  # caches the Toeplitz operators
    tracemalloc.start()
    try:
        terms = channels._expand(rhos, AMPLITUDE_DAMPING, groups, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - terms.nbytes <= 2 * terms.nbytes


def test_one_state_curve_is_written_in_place():
    # the rows of one complex 8-qubit state's 21-point curve go straight into
    # the images: no join copy adds to the expansion's peak
    rho = random_states(np.random.default_rng(8), 1, 8)[0]
    qs = np.linspace(0, 1, 21)
    apply_local(rho, AMPLITUDE_DAMPING, qs[:1])  # caches the Toeplitz operators
    tracemalloc.start()
    try:
        images = apply_local(rho, AMPLITUDE_DAMPING, qs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert images.shape == (21, 256, 256)
    terms = (2 * 8 + 1) * 4**8 * 16  # K = 17 complex terms of 4^8 entries
    assert peak <= terms + 2 * terms


def test_complex_states_cast_the_weights_once_per_call(monkeypatch):
    # complex one-qubit states under amplitude damping (K = 3) at 3000
    # strengths: the float64 (Q, K) weights are cast to complex once per
    # call, so the one product of every state's images, written in place,
    # allocates no (Q, K) complex copy of them (144,856 B when cast in it)
    rhos = random_states(np.random.default_rng(3), 4, 1)
    qs = np.linspace(0, 1, 3000)
    terms = channels._expand(rhos, AMPLITUDE_DAMPING, ((0,),), 1)
    vander = channels._vandermonde(AMPLITUDE_DAMPING, qs, 3)
    # the images as each state's product with the float64 weights
    expected = np.matmul(vander[:, None], terms[:, None]).reshape(4, 3000, 2, 2)
    matmul, extra = np.matmul, []

    def measured(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = matmul(*args, **kwargs)
        extra.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(np, "matmul", measured)
    tracemalloc.start()
    try:
        images = channels._local_images(rhos, AMPLITUDE_DAMPING, qs, None)
    finally:
        tracemalloc.stop()
    assert len(extra) == 1 and max(extra) < 4096
    assert images.dtype == complex and np.array_equal(images, expected)


def test_lindblad_zero_rate_is_identity():
    rho = bloch_to_density([0.3, 0.2, -0.5])
    spec = LindbladSpec((jump_operator("bf"),), (0.0,), 2.0)
    assert np.abs(lindblad_evolve(rho, spec) - rho).max() == 0.0


def test_lindblad_bit_flip_matches_kraus():
    rho = bloch_to_density([0.6, 0.5, 0.4])
    spec = LindbladSpec((jump_operator("bf"),), (0.5,), np.log(2))
    evolved = lindblad_evolve(rho, spec)
    target = apply_local(rho, "bf", 0.5, [0])
    assert np.abs(evolved - target).max() <= 1e-6
    assert abs(np.trace(evolved).real - 1.0) <= 1e-9


def test_lindblad_amplitude_damping_fixed_point():
    # coherences decay as exp(-gamma t / 2): at t=45 they sit below 2e-10
    rho = bloch_to_density([0.5, 0.3, -0.4])
    spec = LindbladSpec((jump_operator("ad"),), (1.0,), 45.0)
    evolved = lindblad_evolve(rho, spec)
    assert np.abs(evolved - np.diag([1.0, 0.0])).max() <= 1e-8


def test_lindblad_step_guards(monkeypatch):
    rho = np.eye(2) / 2
    with pytest.raises(ValueError, match="underflow"):
        lindblad_evolve(rho, LindbladSpec((jump_operator("bf"),), (1e9,), 1000.0))
    # 2e6 steps exceed the cap: rejected before the Liouvillian is built,
    # never run with a wider dt
    monkeypatch.setattr(channels, "_liouvillian", None)
    with pytest.raises(ValueError, match="2000000 RK4 steps exceed the 1000000 limit"):
        lindblad_evolve(rho, LindbladSpec((jump_operator("ad"),), (1.0,), 2000.0))
    # non-finite rates and durations are rejected naming the constraint
    for rate, duration in ((np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            lindblad_evolve(rho, LindbladSpec((jump_operator("ad"),), (rate,), duration))
    for gamma, t in ((np.inf, 0.0), (1.0, np.nan), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            q_of_t("bf", gamma, t)


def one_duration_reference(rho, spec):
    """One duration evolved on its own: a Liouvillian from np.kron and its
    own RK4 step matrix raised to the step count."""
    t = spec.duration
    if t == 0.0 or max(spec.rates) == 0.0:
        return rho
    needed = max(1, math.ceil(t * max(spec.rates) / 1e-3))
    ident = np.eye(len(rho))
    liouvillian = 0.0
    for gamma, l in zip(spec.rates, spec.jump_operators):
        ldl = l.conj().T @ l
        liouvillian = liouvillian + gamma * (
            np.kron(l, l.conj()) - 0.5 * (np.kron(ldl, ident) + np.kron(ident, ldl.T))
        )
    m = (t / needed) * liouvillian
    eye = np.eye(len(m))
    step = eye + m @ (eye + (m / 2.0) @ (eye + (m / 3.0) @ (eye + m / 4.0)))
    return (np.linalg.matrix_power(step, needed) @ rho.reshape(-1)).reshape(rho.shape)


@pytest.mark.parametrize(
    "grid",
    [
        np.linspace(0.0, 1.0, 5),  # one step size for every t > 0
        np.linspace(0.0, 0.694, 51),
        [0.7, 0.0, 0.3, 0.7, 2.5, 0.0, 0.123456],  # uneven, unsorted, t repeated and t = 0 twice
    ],
)
@pytest.mark.parametrize("kind, gamma", [("bf", 1.0), ("bf", 0.5), ("ad", 0.37)])
def test_lindblad_grid_rows_are_bitwise_the_one_duration_runs(grid, kind, gamma):
    rho = bloch_to_density([0.3, -0.2, 0.5])
    stack = lindblad_evolve(rho, LindbladSpec((jump_operator(kind),), (gamma,), grid))
    assert stack.shape == (len(grid), 2, 2)
    for t, row in zip(grid, stack):
        spec = LindbladSpec((jump_operator(kind),), (gamma,), t)
        assert row.tobytes() == one_duration_reference(rho, spec).tobytes()
        assert row.tobytes() == lindblad_evolve(rho, spec).tobytes()


def test_lindblad_grid_checks_every_time_then_the_cap_before_building(monkeypatch):
    monkeypatch.setattr(channels, "_liouvillian", None)
    monkeypatch.setattr(np.linalg, "matrix_power", None)
    rho, jump = np.eye(2) / 2, (jump_operator("ad"),)
    # the cap is checked on the largest time, wherever it sits in the grid
    with pytest.raises(ValueError, match="2000000 RK4 steps exceed the 1000000 limit"):
        lindblad_evolve(rho, LindbladSpec(jump, (1.0,), [0.0, 1.0, 2000.0, 5.0]))
    # each time is checked as its LindbladSpec checks it, in order, before the cap
    with pytest.raises(ValueError, match="duration must be nonnegative"):
        lindblad_evolve(rho, LindbladSpec(jump, (1.0,), [1.0, -1.0, 2000.0, np.nan]))
    with pytest.raises(ValueError, match="must be finite"):
        lindblad_evolve(rho, LindbladSpec(jump, (1.0,), [1.0, np.nan, -1.0, 2000.0]))
    # a grid of zero times, or at zero rate, needs no matrix at all
    assert (lindblad_evolve(rho, LindbladSpec(jump, (0.0,), [0.0, 3.0])) == rho).all()
    assert (lindblad_evolve(rho, LindbladSpec(jump, (1.0,), [0.0, 0.0])) == rho).all()


def _dissipator(rho, ops, rates):
    out = np.zeros_like(rho)
    for gamma, l in zip(rates, ops):
        ld = l.conj().T
        ldl = ld @ l
        out += gamma * (l @ rho @ ld - 0.5 * (ldl @ rho + rho @ ldl))
    return out


def rk4_stepping(rho, spec):
    """The master equation stepped one RK4 step at a time on the matrix,
    with the step count and dt of ``lindblad_evolve``."""
    t, ops, rates = spec.duration, spec.jump_operators, spec.rates
    needed = max(1, int(np.ceil(t * max(rates) / 1e-3)))
    dt = t / needed
    for _ in range(needed):
        k1 = _dissipator(rho, ops, rates)
        k2 = _dissipator(rho + 0.5 * dt * k1, ops, rates)
        k3 = _dissipator(rho + 0.5 * dt * k2, ops, rates)
        k4 = _dissipator(rho + dt * k3, ops, rates)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def complex_matrices(d):
    parts = st.lists(st.floats(-1.0, 1.0), min_size=2 * d * d, max_size=2 * d * d)
    return parts.map(lambda v: (np.array(v[::2]) + 1j * np.array(v[1::2])).reshape(d, d))


@st.composite
def lindblad_cases(draw):
    """A random state, complex jump operators (one or two on a qubit, two
    on a 4x4 system), rates in (0, 2] and at most 2000 RK4 steps."""
    d, count = draw(st.sampled_from([(2, 1), (2, 2), (4, 2)]))
    a = draw(complex_matrices(d))
    rho = a @ a.conj().T + 0.1 * np.eye(d)
    ops = tuple(draw(complex_matrices(d)) for _ in range(count))
    rates = tuple(draw(st.floats(1e-3, 2.0)) for _ in range(count))
    duration = draw(st.floats(0.0, 2.0)) / max(rates)
    return rho / np.trace(rho), LindbladSpec(ops, rates, duration)


@settings(max_examples=40, deadline=None)
@given(case=lindblad_cases())
def test_lindblad_evolve_matches_rk4_stepping(case):
    rho, spec = case
    assert np.abs(lindblad_evolve(rho, spec) - rk4_stepping(rho, spec)).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["bf", "ad"]),
    v=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    gamma=st.floats(0.1, 2.0),
    t=st.floats(0.0, 3.0),
)
def test_lindblad_evolve_follows_the_kraus_clock(kind, v, gamma, t):
    # the RK4 truncation error at gamma*dt <= 1e-3 is below 1e-13 here
    n = np.array(v) / max(1.0, np.linalg.norm(v))
    rho = bloch_to_density(n)
    evolved = lindblad_evolve(rho, LindbladSpec((jump_operator(kind),), (gamma,), t))
    target = apply_local(rho, kind, q_of_t(kind, gamma, t))
    assert np.abs(evolved - target).max() <= 1e-10


def test_q_of_t_values():
    assert q_of_t("bf", 0.5, np.log(2)) == pytest.approx(0.5, abs=1e-15)
    assert q_of_t("ad", 1.0, 0.0) == 0.0
    assert q_of_t("bf", 1.0, 1.0) == pytest.approx(1 - np.exp(-2), abs=1e-15)
    with pytest.raises(ValueError):
        q_of_t("pf", 1.0, 1.0)
    with pytest.raises(ValueError):
        jump_operator("dc")


def test_phase_damping_routes_to_phase_flip_analytics():
    rng = np.random.default_rng(18)
    for _ in range(20):
        n = random_bloch(rng)
        q = rng.uniform(0, 1)
        pd = bloch_map("pd", q, n)
        pf = bloch_map("pf", 1 - np.sqrt(1 - q), n)
        assert np.abs(pd - pf).max() <= 1e-12
