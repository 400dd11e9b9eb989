from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergonoise.channels import (
    AMPLITUDE_DAMPING,
    ChannelSpec,
    apply_local,
    apply_local_grid,
    bloch_map,
)
from ergonoise.matcore import SIGMA_X, herm_eig, kron, partial_trace
from ergonoise.qstate import (
    Hamiltonian,
    bloch_to_density,
    hamiltonian,
    make_bds,
    qubit_state,
    symmetric_pair,
)
from ergonoise.workx import (
    closed_form_single,
    coherence_degenerate,
    concurrence,
    decompose,
    dephase,
    ergotropy,
    l1_coherence,
    passive_state,
    THRESHOLD_COMPONENTS,
    threshold_q,
    work_split,
)

H1 = np.diag([0.0, 1.0]).astype(complex)
H2 = hamiltonian("z_sum", 2)
SINGLE_KINDS = ("bf", "bpf", "pf", "dc", "ad", "pd")


def random_bloch(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0, 1)


def test_passive_state_examples():
    thermal = np.diag([0.7, 0.3])
    assert np.abs(passive_state(thermal, H1) - thermal).max() <= 1e-14
    inverted = np.diag([0.0, 1.0])
    assert np.abs(passive_state(inverted, H1) - np.diag([1.0, 0.0])).max() <= 1e-14
    # passive states commute with H and have zero ergotropy
    rng = np.random.default_rng(1)
    for _ in range(20):
        rho = bloch_to_density(random_bloch(rng))
        pi = passive_state(rho, H1)
        assert np.abs(pi @ H1 - H1 @ pi).max() <= 1e-12
        assert ergotropy(pi, H1) <= 1e-12


def test_bds_passive_energy():
    rep = decompose(make_bds([0.5, 0.3, 0.1]), H2)
    assert rep.passive_energy == pytest.approx(-0.4, abs=1e-12)
    assert rep.total == pytest.approx(0.4, abs=1e-12)


def test_ergotropy_examples():
    n = np.array([0.6, 0.5, 0.4])
    w = ergotropy(bloch_to_density(n), H1)
    assert w == pytest.approx((np.sqrt(0.77) - 0.4) / 2, abs=1e-12)
    for dim in (2, 4, 8):
        h = np.diag(np.arange(dim, dtype=float))
        assert abs(ergotropy(np.eye(dim) / dim, h)) <= 1e-12
    with pytest.raises(ValueError):
        ergotropy(np.eye(2) / 2, np.eye(4))


def test_dephase_examples():
    rho = bloch_to_density([0.6, 0.5, 0.4])
    z = dephase(rho, H1)
    assert np.abs(z - np.diag([0.7, 0.3])).max() <= 1e-14
    diag = np.diag([0.2, 0.8])
    assert np.abs(dephase(diag, H1) - diag).max() <= 1e-14
    # x-basis Hamiltonian dephases in the x eigenbasis, not computational
    zx = dephase(rho, SIGMA_X)
    x_pops = np.array([[0.5 + 0.3, 0.0], [0.0, 0.5 - 0.3]])
    v = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(zx - v @ x_pops @ v.conj().T).max() <= 1e-12


def test_dephase_explicit_basis_strips_everything():
    rho = symmetric_pair(0.5, 0.2, 0.3, 0.2)
    z = dephase(rho, hamiltonian("excitation", 2))
    assert np.abs(z - np.diag(np.diag(rho))).max() <= 1e-14
    # block form keeps the degenerate ge-eg coherence
    zb = dephase(rho, hamiltonian("excitation", 2).matrix)
    assert abs(zb[1, 2]) > 1e-3


def test_decompose_single_qubit_split():
    rep = decompose(bloch_to_density([0.6, 0.5, -0.4]), H1)
    assert rep.incoherent == pytest.approx(0.4, abs=1e-12)
    assert rep.coherent == pytest.approx((np.sqrt(0.77) - 0.4) / 2, abs=1e-12)
    # no population inversion: all work is coherent
    rep = decompose(bloch_to_density([0.6, 0.5, 0.4]), H1)
    assert rep.incoherent == 0.0
    assert rep.coherent == pytest.approx(rep.total, abs=1e-14)
    # incoherent states have zero coherent work
    rep = decompose(np.diag([0.2, 0.8]), H1)
    assert rep.coherent == pytest.approx(0.0, abs=1e-14)
    assert rep.total == pytest.approx(rep.incoherent + rep.coherent, abs=1e-10)


def test_l1_coherence_examples():
    assert l1_coherence(np.diag([0.4, 0.6]), np.eye(2)) == 0.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = random_bloch(rng)
        q = rng.uniform(0, 1)
        evolved = bloch_map(ChannelSpec("bf", q), n)
        rep = decompose(bloch_to_density(evolved), H1)
        assert rep.l1_coherence == pytest.approx(
            np.hypot(n[0], n[1] * (1 - q)), abs=1e-12
        )
        # same state against sigma_x: coherence from n2, n3
        evolved = bloch_map(ChannelSpec("pf", q), n)
        cx = l1_coherence(bloch_to_density(evolved), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert cx == pytest.approx(np.hypot(n[1] * (1 - q), n[2]), abs=1e-12)


def oracle_report(kind, q, n, basis):
    rho = apply_local(bloch_to_density(n), ChannelSpec(kind, q), [0])
    h = H1 if basis == "computational" else SIGMA_X
    return decompose(rho, h)


def test_closed_forms_match_oracle():
    rng = np.random.default_rng(5)
    grid = np.linspace(0, 1, 26)
    for kind in SINGLE_KINDS:
        for _ in range(20):
            n = random_bloch(rng)
            for q in grid:
                closed = closed_form_single(kind, q, n)
                full = oracle_report(kind, q, n, "computational")
                assert np.abs(np.subtract(astuple(closed), astuple(full))).max() <= 1e-10


def test_closed_form_x_basis_matches_oracle():
    rng = np.random.default_rng(7)
    for kind in ("pf", "pd"):
        for _ in range(20):
            n = random_bloch(rng)
            for q in np.linspace(0, 1, 26):
                closed = closed_form_single(kind, q, n, basis="x")
                full = oracle_report(kind, q, n, "x")
                assert np.abs(np.subtract(astuple(closed), astuple(full))).max() <= 1e-10


def test_closed_form_rejections():
    with pytest.raises(ValueError):
        closed_form_single("bf", 0.5, [0.1, 0.2, 0.3], basis="x")
    with pytest.raises(ValueError):
        closed_form_single("bf", 0.5, [0.1, 0.2, 0.3], basis="y")
    with pytest.raises(ValueError):
        closed_form_single("cbf", 0.5, [0.1, 0.2, 0.3])


def test_amplitude_damping_branches():
    n = np.array([0.1, 0.3, -0.4])
    z = 0.4 / 1.4
    # below the branch point the coherent work grows
    qs = np.linspace(0, z - 0.01, 30)
    wc = [closed_form_single("ad", q, n).coherent for q in qs]
    assert np.all(np.diff(wc) > 0)
    # beyond it, monotone decay to zero at q=1
    qs = np.linspace(z + 0.01, 1.0, 30)
    wc = [closed_form_single("ad", q, n).coherent for q in qs]
    assert np.all(np.diff(wc) < 0)
    assert closed_form_single("ad", 1.0, n).coherent <= 1e-12
    # both branches agree at the split
    left = closed_form_single("ad", z - 1e-12, n).coherent
    right = closed_form_single("ad", z + 1e-12, n).coherent
    assert abs(left - right) <= 1e-9


def test_bit_flip_equality_at_full_noise():
    rep = closed_form_single("bf", 1.0, [0.6, 0.5, 0.4])
    assert rep.coherent == pytest.approx(0.3, abs=1e-12)
    assert rep.coherent == pytest.approx(rep.l1_coherence / 2, abs=1e-12)


def test_phase_flip_computational_is_frozen_incoherent():
    n = np.array([0.5, 0.2, -0.6])
    for q in np.linspace(0, 1, 11):
        rep = closed_form_single("pf", q, n)
        assert rep.incoherent == pytest.approx(0.6, abs=1e-14)


def test_phase_flip_computational_never_enhances():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = random_bloch(rng)
        wc = [closed_form_single("pf", q, n).coherent for q in np.linspace(0, 1, 21)]
        assert np.all(np.diff(wc) <= 1e-12)


def test_threshold_values():
    assert threshold_q("bf", [0.6, 0.5, 0.4]) == pytest.approx(0.472, abs=5e-4)
    assert threshold_q("bf", [0.4, 0.3, 0.6]) == pytest.approx(-0.4137, abs=5e-4)
    assert threshold_q("bf", [0.1, 0.5, 0.2]) == pytest.approx(1.4436, abs=1e-3)
    assert threshold_q("bpf", [0.5, 0.6, 0.4]) == pytest.approx(
        2 * (0.25 + 0.16 - 0.4 * np.sqrt(0.77)) / 0.25, abs=1e-12
    )
    assert threshold_q("bf", [0.5, 0.0, 0.4]) == np.inf
    with pytest.raises(ValueError):
        threshold_q("dc", [0.5, 0.3, 0.1])
    # phase flip has a threshold in the x basis only
    with pytest.raises(ValueError, match="computational basis"):
        threshold_q("pf", [0.4, 0.5, 0.6])


def test_threshold_marks_enhancement_onset():
    n = np.array([0.6, 0.5, 0.4])
    qb = threshold_q("bf", n)
    wc0 = closed_form_single("bf", 0.0, n).coherent
    assert closed_form_single("bf", qb + 0.01, n).coherent > wc0
    assert closed_form_single("bf", qb - 0.01, n).coherent < wc0
    # x-basis phase flip uses the same form with n3 -> n1
    nx = np.array([0.4, 0.5, 0.6])
    qb = threshold_q("pf", nx, basis="x")
    wc0 = closed_form_single("pf", 0.0, nx, basis="x").coherent
    assert closed_form_single("pf", min(qb + 0.01, 1.0), nx, basis="x").coherent >= wc0 - 1e-12


def test_bound_with_equality_cases():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = random_bloch(rng)
        kind = rng.choice(["bf", "bpf", "pf", "dc", "ad"])
        q = rng.uniform(0, 1)
        rep = closed_form_single(kind, q, n)
        assert rep.coherent <= rep.l1_coherence / 2 + 1e-12
    # equality whenever the evolved n3 vanishes
    for _ in range(20):
        n = random_bloch(rng)
        n[2] = 0.0
        q = rng.uniform(0, 1)
        rep = closed_form_single("bf", q, n)
        assert rep.coherent == pytest.approx(rep.l1_coherence / 2, abs=1e-12)


def test_bds_marginals_are_passive():
    rng = np.random.default_rng(13)
    for _ in range(20):
        c = rng.uniform(-1, 1, size=3)
        c = c / (np.abs(c).sum() + rng.uniform(0.01, 1))
        rho = make_bds(c)
        for keep in ([0], [1]):
            marg = partial_trace(rho, keep)
            assert ergotropy(marg, H1) <= 1e-12


def test_ergotropy_stable_under_tie_perturbation():
    rng = np.random.default_rng(15)
    h = hamiltonian("excitation", 2).matrix
    for _ in range(20):
        c = rng.uniform(0, 1, size=3)
        c = c / (c.sum() + 0.5)
        rho = make_bds(c)
        base = ergotropy(rho, h)
        jitter = h + np.diag(rng.uniform(-1e-13, 1e-13, size=4))
        assert abs(ergotropy(rho, jitter) - base) <= 1e-9


def test_frozen_band_holds_for_any_real_coherences():
    # balanced populations pin the coherent work for every real (c, d)
    from ergonoise.channels import apply_local
    from ergonoise.experiments import channel_hamiltonian

    rng = np.random.default_rng(19)
    for kind in ("bit_flip", "phase_flip"):
        h = channel_hamiltonian(kind, 2)
        for _ in range(5):
            c, d = rng.uniform(0, 0.5, size=2)
            rho0 = symmetric_pair(0.5, 0.5, c, d)
            wc0 = decompose(rho0, h).coherent
            for q in np.linspace(0, 1, 11):
                wc = decompose(apply_local(rho0, ChannelSpec(kind, q)), h).coherent
                assert abs(wc - wc0) <= 1e-10


def test_coherence_degenerate_values():
    assert coherence_degenerate(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-14)
    # the level-projected pure state carries maximal splitting
    psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert coherence_degenerate(np.outer(psi, psi)) == pytest.approx(1.0, abs=1e-12)
    low = coherence_degenerate(symmetric_pair(0.5, 0.4, 0.3, 0.2))
    high = coherence_degenerate(symmetric_pair(0.5, 0.1, 0.3, 0.2))
    assert high == pytest.approx(0.32, abs=1e-12)
    assert low == pytest.approx(0.02, abs=1e-12)
    assert high > low


def test_concurrence_cases():
    a = qubit_state(0.3, 0.1)
    b = qubit_state(0.6, 0.2)
    assert concurrence(np.kron(a, b)) <= 1e-12
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    assert concurrence(np.outer(phi, phi)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(17)
    from ergonoise.qstate import apply_hadamard_pair, entangled_theta

    rho = entangled_theta(2.0)
    base = concurrence(rho)
    assert base == pytest.approx(abs(np.sin(4.0)), abs=1e-9)
    for _ in range(10):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u1 = np.linalg.qr(m)[0]
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u2 = np.linalg.qr(m)[0]
        u = kron(u1, u2)
        assert abs(concurrence(u @ rho @ u.conj().T) - base) <= 1e-9
    assert abs(concurrence(apply_hadamard_pair(rho)) - base) <= 1e-12


def random_states(seed, dim, count=20):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        yield rho / np.trace(rho).real


@pytest.mark.parametrize(
    "kind",
    [
        "x_sum",  # product basis
        "z_plus_xx",  # spectral blocks
        "xx_interacting",  # collective spin
    ],
)
def test_decompose_dephases_like_dephase(kind):
    # one dephasing path: the incoherent work is the ergotropy of dephase(),
    # both in the convention the Hamiltonian carries
    h = hamiltonian(kind, 2)
    for rho in random_states(24, 4):
        zeta = dephase(rho, h)
        assert abs(decompose(rho, h).incoherent - ergotropy(zeta, h)) <= 1e-12


DEGENERATE_BLOCKS = Hamiltonian(hamiltonian("excitation", 2).matrix, "excitation")


@pytest.mark.parametrize(
    "h",
    [hamiltonian("z_plus_xx", 2), hamiltonian("xx_interacting", 2), DEGENERATE_BLOCKS],
    ids=["z_plus_xx", "xx_interacting", "excitation_blocks"],
)
@pytest.mark.parametrize("s", [1e-10, 1e-6, 1e6])
def test_decompose_is_scale_free(h, s):
    # the degeneracy test and the J^2 weight follow the energy scale
    scaled = replace(h, matrix=s * h.matrix)
    for rho in random_states(27, 4, count=5):
        ref, rep = decompose(rho, h), decompose(rho, scaled)
        for field in ("total", "incoherent", "coherent"):
            assert getattr(rep, field) / s == pytest.approx(getattr(ref, field), rel=1e-9)


@pytest.mark.parametrize("kind", ["excitation", "xx_interacting"])
def test_hamiltonian_matrix_is_read_only(kind):
    # the cached levels and frame cannot go stale, nor be changed by a caller
    h = hamiltonian(kind, 2)
    for array in (h.matrix, h.levels, *h.frame):
        with pytest.raises(ValueError, match="read-only"):
            array[0, ...] = 0
    # a raw matrix is copied, so the caller's array stays writable
    hm = np.diag([0.0, 1.0])
    decompose(np.eye(2) / 2, hm)
    hm[0, 0] = 0.5


@pytest.mark.parametrize(
    "rho, message",
    [
        (np.diag([2.0, -1.0]), "not PSD"),  # unit trace, negative eigenvalue
        (1.5 * np.eye(2), "trace is 3.0"),  # positive, trace 3
        (np.array([[0.5, 0.1], [0.3, 0.5]]), "not Hermitian"),
    ],
)
def test_decompose_rejects_non_states(rho, message):
    with pytest.raises(ValueError, match=message):
        decompose(rho, H1)
    with pytest.raises(ValueError, match=message):
        work_split(np.stack([np.eye(2) / 2, rho]), H1)
    with pytest.raises(ValueError, match=message):
        ergotropy(rho, H1)
    with pytest.raises(ValueError, match=message):
        passive_state(rho, H1)


unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: 1e-3 < np.linalg.norm(v)
).map(lambda v: np.array(v) / np.linalg.norm(v))


@settings(max_examples=60, deadline=None)
@given(
    direction=unit_vectors,
    norm=st.floats(0.0, 1.0),
    kind=st.sampled_from(SINGLE_KINDS),
    qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    h=st.sampled_from([H1, SIGMA_X / 2]),
)
def test_work_bounds_through_the_batched_core(direction, norm, kind, qs, h):
    # W >= 0 and 0 <= W_C <= C/2 for a unit gap, C the l1 coherence in the energy basis
    states = apply_local_grid(bloch_to_density(norm * direction), kind, qs)
    split = work_split(states, h)
    for i, state in enumerate(states):
        rep = decompose(state, h)
        assert rep.total >= -1e-12
        assert -1e-12 <= split.coherent[i] <= rep.l1_coherence / 2 + 1e-12
        # all six fields of the stacked split match the one-state split
        for name, values in vars(split).items():
            assert abs(getattr(rep, name) - values[i]) <= 1e-15


long_vectors = st.tuples(unit_vectors, st.floats(1.0 + 1e-9, 1e6)).map(lambda p: p[0] * p[1])
non_finite_vectors = st.lists(
    st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=3
).filter(lambda v: not np.isfinite(v).all())


@settings(max_examples=60, deadline=None)
@given(
    bad=st.one_of(
        long_vectors.map(lambda v: (v, "exceeds 1")),
        non_finite_vectors.map(lambda v: (v, "finite")),
    ),
    kind_basis=st.sampled_from(sorted(THRESHOLD_COMPONENTS)),
    q=st.floats(0.0, 1.0),
)
def test_closed_forms_reject_non_state_bloch_vectors(bad, kind_basis, q):
    n, message = bad
    kind, basis = kind_basis
    with pytest.raises(ValueError, match=message):
        closed_form_single(kind, q, n, basis=basis)
    with pytest.raises(ValueError, match=message):
        bloch_map(ChannelSpec(kind, q), n)
    with pytest.raises(ValueError, match=message):
        threshold_q(kind, n, basis)
    with pytest.raises(ValueError, match=message):
        bloch_to_density(n)


def test_decompose_keeps_degenerate_level_blocks():
    # block dephasing of the degenerate |ge>, |eg> level keeps their coherence
    hm = hamiltonian("excitation", 2).matrix
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = np.outer(singlet, singlet)
    assert decompose(rho, hm).coherent == pytest.approx(0.0, abs=1e-12)
    assert decompose(rho, hamiltonian("excitation", 2)).coherent == pytest.approx(0.5, abs=1e-12)
    for rho in random_states(26, 4):
        assert abs(decompose(rho, hm).incoherent - ergotropy(dephase(rho, hm), hm)) <= 1e-12


HAMILTONIANS = {
    "excitation_1": hamiltonian("excitation", 1),
    "excitation_3": hamiltonian("excitation", 3),  # product basis, degenerate
    "z_sum_2": hamiltonian("z_sum", 2),
    "x_sum_1": hamiltonian("x_sum", 1),
    "x_sum_3": hamiltonian("x_sum", 3),  # product basis, not diagonal
    "xx_interacting_2": hamiltonian("xx_interacting", 2),  # collective spin
    "z_plus_xx_2": hamiltonian("z_plus_xx", 2),  # spectral blocks
    "excitation_blocks_2": DEGENERATE_BLOCKS,
}
WORK_FIELDS = ("total", "incoherent", "coherent")


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(HAMILTONIANS)),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(-10.0, 10.0),
)
def test_work_split_is_invariant_under_the_hamiltonian_flow(name, seed, t):
    # U = exp(-iHt) commutes with H and acts as a phase on every kept block
    h = HAMILTONIANS[name]
    levels, v = herm_eig(h.matrix)
    u = (v * np.exp(-1j * levels * t)) @ v.conj().T
    rho = next(random_states(seed, len(levels), count=1))
    ref, rep = decompose(rho, h), decompose(u @ rho @ u.conj().T, h)
    for field in WORK_FIELDS:
        assert abs(getattr(rep, field) - getattr(ref, field)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(HAMILTONIANS)), seed=st.integers(0, 2**32 - 1))
def test_passive_states_hold_no_work(name, seed):
    h = HAMILTONIANS[name]
    rho = next(random_states(seed, len(h.levels), count=1))
    rep = decompose(passive_state(rho, h), h)
    for field in WORK_FIELDS:
        assert abs(getattr(rep, field)) <= 1e-12
