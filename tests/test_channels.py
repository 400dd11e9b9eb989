from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergonoise import channels
from ergonoise.channels import (
    AMPLITUDE_DAMPING,
    BIT_FLIP,
    CORRELATED_BIT_FLIP,
    KINDS,
    UNITAL_KINDS,
    ChannelSpec,
    LindbladSpec,
    apply_local,
    apply_local_grid,
    bds_param_map,
    bloch_map,
    jump_operator,
    kraus_set,
    lindblad_evolve,
    q_of_t,
)
from ergonoise.matcore import SIGMA_X, kron, partial_trace
from ergonoise.qstate import bloch_to_density, density_to_bloch, make_bds


def random_bloch(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0, 1)


def random_bds_params(rng):
    c = rng.uniform(0, 1, size=3)
    return c / (c.sum() + rng.uniform(0.01, 1.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec("bit_flip", 1.2)
    with pytest.raises(ValueError):
        ChannelSpec("smear", 0.1)
    assert ChannelSpec("bf", 0.3).kind == BIT_FLIP


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
    with pytest.raises(ValueError, match=message):
        apply_local_grid(np.eye(2) / 2, "bf", q_grid)
    if np.size(q_grid) == 0 or np.ndim(q_grid) != 1:
        return
    bad = next(q for q in q_grid if not 0.0 <= q <= 1.0)
    with pytest.raises(ValueError, match=message):
        ChannelSpec("bf", bad)


def test_kraus_completeness_all_kinds():
    for kind in KINDS:
        for q in np.linspace(0, 1, 11):
            ops = kraus_set(ChannelSpec(kind, q))
            dim = ops[0].shape[0]
            total = sum(k.conj().T @ k for k in ops)
            assert np.abs(total - np.eye(dim)).max() <= 1e-12


def test_identity_channel_at_q_zero():
    rng = np.random.default_rng(2)
    rho = bloch_to_density(random_bloch(rng))
    for kind in KINDS:
        if kind == CORRELATED_BIT_FLIP:
            continue
        out = apply_local(rho, ChannelSpec(kind, 0.0), [0])
        assert np.abs(out - rho).max() <= 1e-14


def test_bit_flip_full_strength():
    # q=1 is the balanced {I, sigma_x} mixture: kills n2 and n3
    rho = bloch_to_density([0.6, 0.5, 0.4])
    out = apply_local(rho, ChannelSpec("bf", 1.0), [0])
    assert np.abs(density_to_bloch(out) - [0.6, 0.0, 0.0]).max() <= 1e-12


def test_amplitude_damping_full_decay():
    rng = np.random.default_rng(4)
    for _ in range(5):
        rho = bloch_to_density(random_bloch(rng))
        out = apply_local(rho, ChannelSpec("ad", 1.0), [0])
        assert np.abs(out - np.diag([1.0, 0.0])).max() <= 1e-12


def test_bloch_map_examples():
    assert np.allclose(bloch_map(ChannelSpec("dc", 1.0), [0.3, -0.2, 0.9]), [0, 0, 0])
    assert np.allclose(bloch_map(ChannelSpec("ad", 1.0), [0.7, 0.5, -0.4]), [0, 0, 1])
    assert np.allclose(
        bloch_map(ChannelSpec("bf", 0.47), [0.6, 0.5, 0.4]), [0.6, 0.265, 0.212]
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
                apply_local(bloch_to_density(n), ChannelSpec(kind, q), [0])
            )
            assert np.abs(via_kraus - bloch_map(ChannelSpec(kind, q), n)).max() <= 1e-10


def test_bds_param_map_examples():
    c = np.array([0.5, 0.3, 0.1])
    out = bds_param_map(ChannelSpec("pf", 0.3), c, both_qubits=True)
    assert np.allclose(out, [0.245, 0.147, 0.1])
    assert np.allclose(bds_param_map(ChannelSpec("bf", 0.0), c, True), c)
    assert np.allclose(bds_param_map(ChannelSpec("dc", 1.0), c, True), [0, 0, 0])
    with pytest.raises(ValueError, match="Bell-diagonal"):
        bds_param_map(ChannelSpec("ad", 0.3), c)


def test_bds_map_matches_kraus():
    rng = np.random.default_rng(8)
    for kind in UNITAL_KINDS:
        for _ in range(40):
            c = random_bds_params(rng)
            q = rng.uniform(0, 1)
            for both, targets in ((True, (0, 1)), (False, (0,))):
                evolved = apply_local(make_bds(c), ChannelSpec(kind, q), targets)
                predicted = make_bds(bds_param_map(ChannelSpec(kind, q), c, both))
                assert np.abs(evolved - predicted).max() <= 1e-10


def test_bit_flip_semigroup_on_bloch():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = random_bloch(rng)
        q1, q2 = rng.uniform(0, 1, size=2)
        step = bloch_map(ChannelSpec("bf", q2), bloch_map(ChannelSpec("bf", q1), n))
        combined = bloch_map(ChannelSpec("bf", 1 - (1 - q1) * (1 - q2)), n)
        assert np.abs(step - combined).max() <= 1e-12


def test_unital_kinds_fix_maximally_mixed():
    for n_qubits, dim in ((1, 2), (2, 4)):
        eye = np.eye(dim) / dim
        for kind in UNITAL_KINDS:
            out = apply_local(eye, ChannelSpec(kind, 0.7), range(n_qubits))
            assert np.abs(out - eye).max() <= 1e-12
    out = apply_local(np.eye(2) / 2, ChannelSpec("ad", 0.7), [0])
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
            mapped = bds_param_map(ChannelSpec(kind, q), c, both_qubits=True)
            for i, j in pairs:
                if c[i] > c[j]:
                    assert mapped[i] >= mapped[j] - 1e-12


def test_protected_component_crossing_exists():
    # bf with the protected c1 smallest: the damped components fall below
    # it at finite q, exactly the crossing the passive state reacts to
    c = np.array([0.1, 0.5, 0.3])
    mapped0 = bds_param_map(ChannelSpec("bf", 0.0), c, True)
    mapped1 = bds_param_map(ChannelSpec("bf", 0.9), c, True)
    assert mapped0.argmax() == 1
    assert mapped1.argmax() == 0


def test_correlated_bit_flip_leaves_bds_unchanged():
    rng = np.random.default_rng(14)
    for _ in range(10):
        rho = make_bds(random_bds_params(rng))
        out = apply_local(rho, ChannelSpec("cbf", rng.uniform(0, 1)), (0, 1))
        assert np.abs(out - rho).max() <= 1e-12
    with pytest.raises(ValueError):
        apply_local(np.eye(8) / 8, ChannelSpec("cbf", 0.5), (0, 1, 2))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("kind", [k for k in KINDS if k != CORRELATED_BIT_FLIP])
def test_apply_local_multi_qubit_padding(n, kind):
    # explicit kron lifting as the oracle, on the first, middle and last qubit
    rng = np.random.default_rng(16)
    d = 2**n
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    spec = ChannelSpec(kind, 0.37)
    for target in sorted({0, n // 2, n - 1}):
        lifted = []
        for k in kraus_set(spec):
            ops = [np.eye(2)] * n
            ops[target] = k
            lifted.append(kron(*ops))
        oracle = sum(k @ rho @ k.conj().T for k in lifted)
        out = apply_local(rho, spec, [target])
        assert np.abs(out - oracle).max() <= 1e-12
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_correlated_pair_on_non_adjacent_targets():
    # explicit kron lifting of the pair operators onto qubits (0, 2)
    rng = np.random.default_rng(20)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    spec = ChannelSpec("cbf", 0.6)
    i2 = np.eye(2)
    lifted = [
        np.sqrt(1 - 0.3) * kron(i2, i2, i2),
        np.sqrt(0.3) * kron(SIGMA_X, i2, SIGMA_X),
    ]
    oracle = sum(k @ rho @ k.conj().T for k in lifted)
    out = apply_local(rho, spec, (0, 2))
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
    choi = apply_local(max_entangled([target], reference, 2), ChannelSpec(kind, q), [target])
    assert_choi_is_cptp(choi, reference)


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.0, 1.0), pair=st.sampled_from(list(combinations(range(4), 2))))
def test_correlated_flip_choi_is_cptp_on_any_pair(q, pair):
    # adjacent and non-adjacent pairs of a 4-qubit register, the other
    # two qubits holding the reference half
    reference = [i for i in range(4) if i not in pair]
    rho = max_entangled(list(pair), reference, 4)
    choi = apply_local(rho, ChannelSpec("cbf", q), pair)
    assert_choi_is_cptp(choi, reference)


def test_apply_local_rejects_bad_targets():
    with pytest.raises(ValueError):
        apply_local(np.eye(4) / 4, ChannelSpec("bf", 0.5), [2])


def test_lindblad_zero_rate_is_identity():
    rho = bloch_to_density([0.3, 0.2, -0.5])
    spec = LindbladSpec((jump_operator("bf"),), (0.0,), 2.0)
    assert np.abs(lindblad_evolve(rho, spec) - rho).max() == 0.0


def test_lindblad_bit_flip_matches_kraus():
    rho = bloch_to_density([0.6, 0.5, 0.4])
    spec = LindbladSpec((jump_operator("bf"),), (0.5,), np.log(2))
    evolved = lindblad_evolve(rho, spec)
    target = apply_local(rho, ChannelSpec("bf", 0.5), [0])
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
    # 2e6 steps exceed the cap: rejected before any step, never run with a wider dt
    monkeypatch.setattr(channels, "_dissipator", None)
    with pytest.raises(ValueError, match="2000000 RK4 steps exceed the 1000000 limit"):
        lindblad_evolve(rho, LindbladSpec((jump_operator("ad"),), (1.0,), 2000.0))
    # non-finite rates and durations are rejected naming the constraint
    for rate, duration in ((np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            lindblad_evolve(rho, LindbladSpec((jump_operator("ad"),), (rate,), duration))
    for gamma, t in ((np.inf, 0.0), (1.0, np.nan), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            q_of_t("bf", gamma, t)


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
        pd = bloch_map(ChannelSpec("pd", q), n)
        pf = bloch_map(ChannelSpec("pf", 1 - np.sqrt(1 - q)), n)
        assert np.abs(pd - pf).max() <= 1e-12
