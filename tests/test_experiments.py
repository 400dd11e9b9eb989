from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergonoise import channels as ch
from ergonoise import experiments as ex
from ergonoise import qstate
from ergonoise.channels import KINDS, ChannelSpec, apply_local, kraus_set
from ergonoise.io import read_csv, write_csv
from ergonoise.matcore import IDENTITY_2, kron, num_qubits
from ergonoise.qstate import (
    Hamiltonian,
    hamiltonian,
    philox_stream,
    random_separable,
    symmetric_pair,
    symmetrized_multipartite,
    total_spin_squared,
)
from ergonoise.workx import coherence_degenerate, decompose


def test_sweep_single_records_and_threshold():
    res = ex.sweep_single("bf", [0.6, 0.5, 0.4], q_grid=np.linspace(0, 1, 21))
    assert len(res) == 21
    assert res.metadata["threshold_q"] == pytest.approx(0.472, abs=5e-4)
    np.testing.assert_allclose(
        res.columns["W"], res.columns["WI"] + res.columns["WC"], atol=1e-10
    )
    # depolarizing: both parts decay monotonically to zero
    res = ex.sweep_single("dc", [0.6, 0.5, 0.4])
    assert np.all(np.diff(res.columns["WC"]) <= 1e-12)
    assert np.all(np.diff(res.columns["WI"]) <= 1e-12)
    assert res.columns["WC"][-1] <= 1e-12
    # x-basis phase flip: the bit-flip threshold with the roles of n3 and n1 swapped
    res = ex.sweep_single("pf", [0.4, 0.5, 0.6], basis="x", q_grid=np.linspace(0, 1, 5))
    qb = 2 * (0.25 + 0.16 - 0.4 * np.sqrt(0.77)) / 0.25
    assert res.metadata["threshold_q"] == pytest.approx(qb, abs=1e-12)
    assert np.all(res.columns["threshold"] == res.metadata["threshold_q"])
    assert "threshold_q" not in ex.sweep_single("pf", [0.4, 0.5, 0.6]).metadata


def test_sweep_single_ad_peak_metadata():
    res = ex.sweep_single("ad", [0.1, 0.3, -0.4])
    assert res.metadata["branch_q"] == pytest.approx(0.4 / 1.4, abs=1e-12)
    wc = res.columns["WC"]
    assert res.columns["q"][wc.argmax()] == pytest.approx(0.4 / 1.4, abs=0.01)


def test_sweep_bds_crossing_and_residual():
    res = ex.sweep_bds([0.1, 0.5, 0.3], "bf", q_grid=np.linspace(0, 1, 51))
    assert np.abs(res.columns["residual"]).max() <= 1e-10
    crossings = res.metadata["eigenvalue_crossings"]
    assert len(crossings) >= 1
    # at the crossing the two competing closed-form eigenvalues coincide
    from ergonoise.channels import bds_param_map
    from ergonoise.correlations import bds_eigenvalues

    q = crossings[0]
    lams = np.sort(bds_eigenvalues(bds_param_map(ChannelSpec("bf", q), [0.1, 0.5, 0.3], True)))
    assert lams[3] - lams[2] <= 1e-8


@pytest.mark.parametrize("kind", ["bf", "pf", "dc"])
@pytest.mark.parametrize("c", [[0.4, 0.35, 0.2], [0.1, 0.3, 0.5], [0.1, 0.5, 0.3]])
def test_crossings_do_not_depend_on_grid_direction(kind, c):
    up = ex.sweep_bds(c, kind, q_grid=np.linspace(0, 1, 11)).metadata["eigenvalue_crossings"]
    down = ex.sweep_bds(c, kind, q_grid=np.linspace(1, 0, 11)).metadata["eigenvalue_crossings"]
    assert len(up) == len(down)
    assert np.abs(np.subtract(up, down[::-1])).max(initial=0.0) <= 1e-8


def crossings_one_at_a_time(c, kind, both, q_grid):
    """Each slot change bisected alone, one strength per evaluation: the
    oracle of the lockstep bisection."""

    def lams_at(q):
        return qstate.bds_eigenvalues(ch.bds_param_map(ChannelSpec(kind, q), c, both))

    slots = [int(np.argmax(lams_at(q))) for q in q_grid]
    crossings = []
    for q0, q1, i0, i1 in zip(q_grid[:-1], q_grid[1:], slots[:-1], slots[1:]):
        if i0 == i1:
            continue
        (lo, i_lo), (hi, i_hi) = sorted([(q0, i0), (q1, i1)])
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            lams = lams_at(mid)
            if lams[i_lo] >= lams[i_hi]:
                lo = mid
            else:
                hi = mid
        crossings.append(0.5 * (lo + hi))
    return crossings


@settings(max_examples=100, deadline=None)
@given(
    c=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    kind=st.sampled_from(["bf", "bpf", "pf", "dc", "pd", "cbf"]),
    both=st.booleans(),
    q_grid=st.one_of(
        st.integers(2, 60).map(lambda k: np.linspace(0, 1, k)),
        st.integers(2, 60).map(lambda k: np.linspace(1, 0, k)),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30).map(np.array),
    ),
)
def test_lockstep_crossings_equal_one_at_a_time_bisection(c, kind, both, q_grid):
    # same midpoints in the same order: the crossings agree bit for bit
    got = ex._crossing_qs(np.array(c), ch.canonical_kind(kind), both, q_grid)
    assert got == crossings_one_at_a_time(np.array(c), ch.canonical_kind(kind), both, q_grid)


def test_sweep_bds_pf_residual_is_frozen_incoherent():
    res = ex.sweep_bds([0.5, 0.3, 0.1], "pf")
    assert res.columns["W"][-1] == pytest.approx(0.05, abs=1e-10)
    assert res.columns["WI"][-1] == pytest.approx(0.05, abs=1e-10)
    assert res.columns["WC"][-1] == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(res.columns["WI"], 0.05, atol=1e-10)


def test_enhancement_summary_cases():
    q = np.linspace(0, 1, 11)
    flat = np.full(11, 0.1)
    s = ex.enhancement_summary(q, flat)
    assert s.area_ap == pytest.approx(0.1, abs=1e-12)
    s = ex.enhancement_summary(q, -flat)
    assert s.area_ap == 0.0
    assert s.delta_wc_max == pytest.approx(-0.1)
    with pytest.raises(ValueError):
        ex.enhancement_summary(q[:1], flat[:1])


def test_grid_delta_wc_shapes_and_frozen_band():
    a_grid = np.linspace(0.1, 0.9, 9)
    res = ex.grid_delta_wc("symmetric_pair", "bf", a_grid, np.linspace(0, 1, 11), p=0.5, c=0.3, d=0.2)
    assert len(res) == 9 * 11
    assert res.metadata["dephasing"] == "product_basis"
    # the a = 0.5 row is frozen
    mask = np.isclose(res.columns["a"], 0.5)
    assert np.abs(res.columns["delta_WC"][mask]).max() <= 1e-10


def test_grid_delta_wc_classical_quantum():
    c_grid = np.linspace(0.0, 0.3, 7)
    res = ex.grid_delta_wc("classical_quantum", "pf", c_grid, np.linspace(0, 1, 11), p=0.5, a=0.1)
    assert res.metadata["hamiltonian"] == "x_sum"
    # zero local coherence leaves nothing to gain anywhere
    mask = np.isclose(res.columns["c"], 0.0)
    assert np.abs(res.columns["delta_WC"][mask]).max() <= 1e-10
    # the gain region strengthens with the coherence parameter
    gain_mid = res.columns["delta_WC"][np.isclose(res.columns["c"], 0.15)].max()
    gain_hi = res.columns["delta_WC"][np.isclose(res.columns["c"], 0.3)].max()
    assert gain_hi > gain_mid > 0
    with pytest.raises(ValueError):
        ex.grid_delta_wc("mystery", "bf", c_grid)


def test_scaling_run_small():
    res = ex.scaling_run(kinds=("bf",), n_values=(2, 3), q_points=41)
    assert list(res.columns["N"]) == [2, 3]
    assert res.columns["delta_wc_max"][1] > res.columns["delta_wc_max"][0]
    assert res.columns["area_ap"][1] > res.columns["area_ap"][0]
    assert res.metadata["dephasing"]["bit_flip"] == "product_basis"


def test_scaling_sidecar_names_each_curves_dephasing():
    res = ex.scaling_run(kinds=("dc", "pf"), n_values=(2,), q_points=5)
    assert res.metadata["dephasing"] == {"depolarizing": "collective", "phase_flip": "collective"}


def test_census_reproducible():
    a = ex.census_random("bf", count=20, seed=123, q_points=21)
    b = ex.census_random("bf", count=20, seed=123, q_points=21)
    for k in a.columns:
        assert np.array_equal(a.columns[k], b.columns[k])
    assert a.metadata["fraction_enhancing"] == b.metadata["fraction_enhancing"]
    assert a.metadata["fraction_enhancing"] > 0.9


def test_census_streams_do_not_depend_on_count():
    # sample i draws from its own stream: prefixes agree across runs
    small = ex.census_random("bf", count=5, seed=11, q_points=21)
    large = ex.census_random("bf", count=8, seed=11, q_points=21)
    np.testing.assert_array_equal(
        small.columns["delta_wc_max"], large.columns["delta_wc_max"][:5]
    )


def test_lindblad_consistency_run():
    res = ex.lindblad_consistency("bf", 0.5, np.linspace(0, np.log(2), 6), [0.6, 0.5, 0.4])
    assert res.metadata["max_deviation"] <= 1e-6
    assert res.columns["q"][-1] == pytest.approx(0.5, abs=1e-12)
    # t = 0 rows agree exactly
    assert abs(res.columns["WC_rk4"][0] - res.columns["WC_kraus"][0]) <= 1e-14
    with pytest.raises(ValueError):
        ex.lindblad_consistency("dc", 0.5, np.linspace(0, 1, 3), [0.1, 0.2, 0.3])


def test_entangled_example_run():
    res = ex.entangled_example([2.0], np.linspace(0, 1, 21))
    wc = res.columns["WC"]
    conc = res.columns["concurrence"]
    assert np.all(np.diff(wc) >= -1e-10)
    assert np.all(np.diff(conc) <= 1e-10)
    assert conc[-1] <= 1e-9
    assert np.any((conc > 1e-3) & (res.columns["delta_WC"] > 1e-3))


def test_interacting_depolarizing_run():
    res = ex.interacting_depolarizing(a_values=(0.1, 0.4), q_grid=np.linspace(0, 1, 21))
    a = res.columns["a"]
    dwc = res.columns["delta_WC"]
    assert dwc[np.isclose(a, 0.1)].max() > 0
    wc_04 = res.columns["WC"][np.isclose(a, 0.4)]
    assert np.all(np.diff(wc_04) <= 1e-10)
    cdeg = res.columns["coherence_degenerate"]
    assert cdeg[np.isclose(a, 0.1)][0] > cdeg[np.isclose(a, 0.4)][0]
    # the passive-energy slopes order as dEpd > dEp exactly while the
    # coherent work is still climbing, and that window exists for a=0.1
    row = np.isclose(a, 0.1)
    wc_01 = res.columns["WC"][row]
    slope_gap = (res.columns["dEpd_dq"] - res.columns["dEp_dq"])[row]
    climbing = np.diff(wc_01) > 1e-9
    assert climbing.any()
    assert np.all(slope_gap[:-1][climbing] > 0)


def appendix_d_oracle(a_values, q_grid, fd_step, c=0.3, d=0.2, h=0.5, j=0.4):
    """Per-q columns of the appendix-D run: three Kraus evolutions and three
    decompositions per (a, q)."""
    ham = hamiltonian("xx_interacting", 2, h=h, j=j)
    rows = {name: [] for name in ("WC", "delta_WC", "coherence_degenerate", "dEp_dq", "dEpd_dq")}

    def evolve(rho0, q):
        evolved = apply_local(rho0, ChannelSpec("dc", q))
        return evolved, decompose(evolved, ham)

    for a in a_values:
        rho0 = symmetric_pair(0.5, a, c, d)
        wc0 = decompose(rho0, ham).coherent
        for q in q_grid:
            evolved, rep = evolve(rho0, q)
            lo_q, hi_q = max(0.0, q - fd_step), min(1.0, q + fd_step)
            _, lo = evolve(rho0, lo_q)
            _, hi = evolve(rho0, hi_q)
            span = hi_q - lo_q
            rows["WC"].append(rep.coherent)
            rows["delta_WC"].append(rep.coherent - wc0)
            rows["coherence_degenerate"].append(coherence_degenerate(evolved))
            rows["dEp_dq"].append((hi.passive_energy - lo.passive_energy) / span)
            rows["dEpd_dq"].append((hi.dephased_passive_energy - lo.dephased_passive_energy) / span)
    return rows


def test_interacting_depolarizing_matches_per_q_oracle():
    # 1100 strengths: the centre, low and high blocks each hold a stack seam
    q_grid = np.sort(np.random.default_rng(4).uniform(0, 1, 1100))
    q_grid[[0, -1]] = 0.0, 1.0  # neighbours clipped at both ends
    assert len(q_grid) > ch.STACK_BUDGET_BYTES // (16 * 4 * 4)
    res = ex.interacting_depolarizing(a_values=(0.1,), q_grid=q_grid, fd_step=1e-3)
    oracle = appendix_d_oracle((0.1,), q_grid, 1e-3)
    for name, col in oracle.items():
        np.testing.assert_allclose(res.columns[name], col, rtol=0, atol=1e-12)
    res = ex.interacting_depolarizing(a_values=(0.1, 0.4), q_grid=np.linspace(0, 1, 21))
    oracle = appendix_d_oracle((0.1, 0.4), np.linspace(0, 1, 21), 1e-4)
    for name, col in oracle.items():
        np.testing.assert_allclose(res.columns[name], col, rtol=0, atol=1e-12)


def test_csv_round_trip(tmp_path):
    res = ex.sweep_single("bf", [0.6, 0.5, 0.4], q_grid=np.linspace(0, 1, 11))
    path = write_csv(tmp_path / "out.csv", res)
    back = read_csv(path)
    for k, col in res.columns.items():
        np.testing.assert_array_equal(back[k], col)
    # identical runs give byte-identical files
    twice = write_csv(tmp_path / "out2.csv", ex.sweep_single("bf", [0.6, 0.5, 0.4], q_grid=np.linspace(0, 1, 11)))
    assert path.read_bytes() == twice.read_bytes()
    sidecar = path.with_suffix(".meta.json")
    assert sidecar.exists()
    # split identity survives serialization
    np.testing.assert_allclose(back["W"], back["WI"] + back["WC"], atol=1e-10)


def test_area_refinement_converges():
    rho0 = symmetric_pair(0.5, 0.2, 0.3, 0.2)
    h = hamiltonian("excitation", 2)
    wc0 = decompose(rho0, h).coherent

    def area(points):
        qs = np.linspace(0, 1, points)
        dwc = np.array(
            [decompose(apply_local(rho0, ChannelSpec("bf", q)), h).coherent - wc0 for q in qs]
        )
        return ex.enhancement_summary(qs, dwc).area_ap

    coarse, fine = area(101), area(201)
    assert abs(fine - coarse) / fine < 0.01


def kraus_oracle_curve(rho0, kind, h, q_grid):
    """Per-q gain curve: explicit Kraus sums on kron-lifted operators, one decompose per q."""
    n = num_qubits(rho0)
    wc0 = decompose(rho0, h).coherent
    out = []
    for q in q_grid:
        ks = kraus_set(ChannelSpec(kind, q))
        rho = rho0
        if ks[0].shape[0] == 4:  # the correlated pair, here the whole register
            lifted_sets = [ks]
        else:
            lifted_sets = [
                [kron(*[k if i == t else IDENTITY_2 for i in range(n)]) for k in ks]
                for t in range(n)
            ]
        for lifted in lifted_sets:
            rho = sum(k @ rho @ k.conj().T for k in lifted)
        out.append(decompose(rho, h).coherent - wc0)
    return np.array(out)


def assert_curve_matches_oracle(rho0, kind, h, q_grid):
    batched = ex._wc_curve(rho0, kind, h, q_grid) - decompose(rho0, h).coherent
    oracle = kraus_oracle_curve(rho0, kind, h, q_grid)
    assert np.abs(batched - oracle).max() <= 1e-12
    assert (ex.enhancement_summary(q_grid, batched).argmax_q
            == ex.enhancement_summary(q_grid, oracle).argmax_q)


TWO_QUBIT_HAMILTONIANS = {
    "excitation": hamiltonian("excitation", 2),  # product basis
    "x_sum": hamiltonian("x_sum", 2),  # product basis
    "z_plus_xx": hamiltonian("z_plus_xx", 2),  # spectral blocks, nondegenerate
    # spectral blocks of a degenerate level: the dephased state is not diagonal
    "excitation_blocks": Hamiltonian(hamiltonian("excitation", 2).matrix, "excitation"),
    "xx_interacting": hamiltonian("xx_interacting", 2),  # collective spin
}


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(KINDS),
    h_name=st.sampled_from(sorted(TWO_QUBIT_HAMILTONIANS)),
    q_points=st.integers(2, 41),
)
def test_batched_curve_matches_per_q_kraus_oracle(seed, kind, h_name, q_points):
    rho0 = random_separable(philox_stream(seed))
    q_grid = ex.q_grid_default(q_points)
    assert_curve_matches_oracle(rho0, kind, TWO_QUBIT_HAMILTONIANS[h_name], q_grid)


@pytest.mark.parametrize("kind", ["bf", "pf", "ad"])
def test_batched_curve_matches_oracle_across_chunk_seams(kind):
    n = 5
    q_grid = ex.q_grid_default(41)
    step = ch.STACK_BUDGET_BYTES // (16 * 4**n)
    assert -(-len(q_grid) // step) == 3  # the grid spans three stacks
    rho0 = symmetrized_multipartite(0.2, [0.1 + 0.02 * i for i in range(1, n + 1)])
    h = ex.channel_hamiltonian(kind, n)
    if kind == "pf":  # the collective convention scaling_run uses
        h = replace(h, basis=None, collective=True)
    assert_curve_matches_oracle(rho0, kind, h, q_grid)


def test_collective_curve_builds_j2_once(monkeypatch):
    # the dephasing frame lives on the Hamiltonian: one J^2 for a curve over
    # three stacks plus W_C(rho0), not one per stack
    calls = []

    def counting(n):
        calls.append(n)
        return total_spin_squared(n)

    monkeypatch.setattr(qstate, "total_spin_squared", counting)
    n = 5
    rho0 = symmetrized_multipartite(0.2, [0.1 + 0.02 * i for i in range(1, n + 1)])
    h = replace(ex.channel_hamiltonian("pf", n), basis=None, collective=True)
    ex._wc_curve(rho0, "pf", h, ex.q_grid_default(41)) - decompose(rho0, h).coherent
    assert calls == [n]
