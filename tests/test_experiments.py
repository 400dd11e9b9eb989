import functools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergonoise import channels as ch
from ergonoise import experiments as ex
from ergonoise import correlations, io, matcore, qstate, workx
from ergonoise.channels import KINDS, apply_local, kraus_set
from ergonoise.io import read_csv, write_csv
from ergonoise.matcore import IDENTITY_2, herm_eig, kron, num_qubits
from ergonoise.qstate import (
    Hamiltonian,
    hamiltonian,
    philox_stream,
    qubit_state,
    random_separable,
    random_separable_stack,
    symmetric_pair,
    symmetrized_multipartite,
    total_spin_squared,
)
from ergonoise.workx import coherence_degenerate, concurrence, decompose


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


@pytest.mark.parametrize(
    "sweep",
    [
        lambda q: ex.sweep_single("bf", [0.6, 0.5, 0.4], q_grid=q),
        lambda q: ex.sweep_bds([0.5, 0.3, 0.1], "bf", q_grid=q),
        lambda q: ex.grid_delta_wc("symmetric_pair", "bf", [0.3, 0.5], q),
        lambda q: ex.entangled_example([1.0, 2.0], q),
        lambda q: ex.interacting_depolarizing(q_grid=q),
    ],
    ids=["single", "bds", "grid", "entangled", "appendix_d"],
)
def test_sweeps_take_a_number_as_a_one_point_grid(sweep):
    one, grid = sweep(0.4), sweep([0.4])
    assert all(np.array_equal(one.columns[k], grid.columns[k]) for k in grid.columns)
    assert one.metadata == grid.metadata and 0.4 in one.columns["q"]
    with pytest.raises(ValueError, match="1-D grid"):
        sweep([[0.1, 0.2]])
    with pytest.raises(ValueError, match="q = 1.5 outside"):
        sweep(1.5)


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
    from ergonoise.qstate import bds_eigenvalues

    q = crossings[0]
    lams = np.sort(bds_eigenvalues(bds_param_map("bf", q, [0.1, 0.5, 0.3], True)))
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
        return qstate.bds_eigenvalues(ch.bds_param_map(kind, q, c, both))

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



def test_rounding_noise_summarizes_as_no_gain():
    # gains within ENHANCEMENT_AREA_TOL of zero read as exactly 0.0, so the
    # peak does not follow the noise; a real gain beside them is kept
    q = np.linspace(0, 1, 5)
    noise = np.array([0.0, 6.9e-17, -1.7e-16, 5e-16, -2e-13])
    assert ex.enhancement_summary(q, noise) == ex.EnhancementSummary(0.0, 0.0, 0.0)
    s = ex.enhancement_summary(q, noise + np.array([0, 0, 0, 0, 1e-3]))
    assert (s.delta_wc_max, s.argmax_q) == (1e-3 - 2e-13, 1.0)
    stacked = ex.enhancement_summary(q, np.stack([noise, -noise]))
    assert stacked.delta_wc_max.tolist() == [0.0, 0.0] and stacked.argmax_q.tolist() == [0.0, 0.0]
    # bit-phase flip leaves the excitation energy's coherent work frozen at every N
    res = ex.scaling_run(kinds=("bpf",), n_values=range(3, 7), q_points=51)
    for name in ("delta_wc_max", "argmax_q", "area_ap"):
        assert res.columns[name].tolist() == [0.0] * 4, name


@pytest.mark.parametrize(
    "q, gains, message",
    [
        ([0.0, 1.0], [np.nan, 1.0], "gain at index 0 is nan, not finite"),
        ([0.0, 0.5, 1.0], [[0.0, 0.1, 0.2], [0.0, np.inf, 0.2]], r"gain at index \(1, 1\) is inf, not finite"),
        ([0.0, np.nan, 1.0], [0.0, 0.1, 0.2], "grid point at index 1 is nan, not finite"),
    ],
    ids=["nan_gain", "inf_gain_in_a_stack", "nan_grid_point"],
)
def test_enhancement_summary_rejects_non_finite_values(q, gains, message):
    with pytest.raises(ValueError, match=message):
        ex.enhancement_summary(q, gains)


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


def test_grid_delta_wc_rejects_an_empty_axis():
    with pytest.raises(ValueError, match=re.escape("the state axis must be a non-empty 1-D grid, got shape (0,)")):
        ex.grid_delta_wc("symmetric_pair", "bf", [])


def test_scaling_run_small():
    res = ex.scaling_run(kinds=("bf",), n_values=(2, 3), q_points=41)
    assert list(res.columns["N"]) == [2, 3]
    assert res.columns["delta_wc_max"][1] > res.columns["delta_wc_max"][0]
    assert res.columns["area_ap"][1] > res.columns["area_ap"][0]
    assert res.metadata["dephasing"]["bit_flip"] == "product_basis"


@pytest.mark.parametrize("n_values", [(1, 2), (0,), (-1, 3)])
def test_scaling_rejects_register_sizes_below_two_before_any_work(monkeypatch, n_values):
    def no_work(*args):
        raise AssertionError("built a register")

    monkeypatch.setattr(ex, "_symmetrized_classes", no_work)
    with pytest.raises(ValueError, match=f"at least 2 qubits, got {min(n_values)}"):
        ex.scaling_run(kinds=("pf",), n_values=n_values, q_points=5)


@pytest.mark.parametrize(
    "kinds, n_values, message",
    [
        (("bf",), range(2, 10), "qubit count 9 exceeds cap 8"),
        (("pf", "ad"), (3, 12, 10), "qubit count 10 exceeds cap 8"),
        (("bf", "cbf"), range(2, 5), "correlated bit flip acts on exactly one qubit pair"),
        (("cbf",), (3,), "correlated bit flip acts on exactly one qubit pair"),
    ],
)
def test_scaling_rejects_oversized_registers_and_correlated_flips_before_any_work(
    monkeypatch, kinds, n_values, message
):
    def no_work(*args):
        raise AssertionError("started the work")

    for name in ("_symmetrized_classes", "_wc_curves"):
        monkeypatch.setattr(ex, name, no_work)
    with pytest.raises(ValueError, match=message):
        ex.scaling_run(kinds=kinds, n_values=n_values, q_points=5)


def test_scaling_rejects_local_states_of_the_largest_register_before_any_work(monkeypatch):
    # c_7 = 0.1 + 7 * 0.05 breaks |c|^2 <= a(1 - a); every smaller N is fine
    def no_work(*args):
        raise AssertionError("started the work")

    for name in ("_symmetrized_classes", "_wc_curves"):
        monkeypatch.setattr(ex, name, no_work)
    with pytest.raises(ValueError) as expected:
        qubit_state(0.2, 0.1 + 0.05 * 7)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        ex.scaling_run(kinds=("bf", "pf"), n_values=range(2, 9), a=0.2, c0=0.1, delta=0.05, q_points=5)


def test_scaling_takes_the_correlated_flip_on_two_qubits():
    res = ex.scaling_run(kinds=("cbf",), n_values=(2,), q_points=5)
    assert list(res.columns["channel"]) == ["correlated_bit_flip"]


def test_scaling_rejects_depolarizing_past_two_qubits_before_any_curve(monkeypatch):
    curves = []
    monkeypatch.setattr(ex, "_wc_curves", lambda *args: curves.append(args))
    with pytest.raises(ValueError, match="depolarizing scaling is limited to two qubits"):
        ex.scaling_run(kinds=("bf", "dc"), n_values=(2, 3))
    assert not curves


def test_scaling_splits_rho0_once_per_hamiltonian(monkeypatch):
    # one class split per N, N = 2 included, takes every curve and W_C(rho0)
    # against each distinct Hamiltonian: bit flip and amplitude damping share
    # the excitation energy (2 curves and rho0: 11 rows of 5 strengths), phase
    # flip has the collective x field (6 rows); no state is split densely
    class_splits, dense_splits = [], []
    block_coherent, dense = workx._block_coherent, workx.decompose

    def counting_blocks(coords, groups):
        class_splits.append([(h, rows.stop - rows.start) for h, rows in groups])
        return block_coherent(coords, groups)

    def counting_dense(rho, h):
        dense_splits.append(h)
        return dense(rho, h)

    monkeypatch.setattr(workx, "_block_coherent", counting_blocks)
    monkeypatch.setattr(workx, "decompose", counting_dense)
    ex.scaling_run(kinds=("bf", "pf", "ad"), n_values=(2, 3, 4), q_points=5)
    assert not dense_splits
    assert class_splits == [[(ex._class_view("bf", n), 11), (ex._class_view("pf", n), 6)] for n in (2, 3, 4)]
    for n in (2, 3, 4):
        assert ex._class_view("ad", n) is ex._class_view("bf", n)


def test_cold_scaling_solves_no_dense_collective_spectrum(monkeypatch):
    # built afresh, so every spectrum scaling needs is solved during the run
    monkeypatch.setattr(ex, "_class_hamiltonian", functools.cache(qstate._class_hamiltonian.__wrapped__))
    large, build = [], qstate.hamiltonian

    def recording(solver):
        def solve(a, *args, **kwargs):
            if np.shape(a)[-1] >= 64:
                large.append(np.shape(a))
            return solver(a, *args, **kwargs)

        return solve

    def trapped(kind, *args, **kwargs):
        if kind in ("excitation", "x_sum"):
            raise AssertionError(f"built the dense {kind} Hamiltonian")
        return build(kind, *args, **kwargs)

    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    # wherever a dense one could be built or taken from the cache
    for module, name in ((qstate, "hamiltonian"), (ex, "hamiltonian"), (ex, "_shared_hamiltonian")):
        monkeypatch.setattr(module, name, trapped)
    ex.scaling_run(kinds=("bf", "pf", "pd"), n_values=range(2, 9), q_points=5)
    # the Hamiltonians are built in class coordinates: no eigensolve of a
    # 64 x 64 or larger matrix, the excitation energy's levels included
    assert large == []


def test_sweeps_build_each_hamiltonian_once(monkeypatch):
    runs = (
        lambda: ex.lindblad_consistency("bf", 0.5, np.linspace(0.0, 0.5, 3), [0.6, 0.5, 0.4]),
        lambda: ex.entangled_example(np.linspace(0.0, 1.0, 3), ex.q_grid_default(5)),
        lambda: ex.interacting_depolarizing(q_grid=ex.q_grid_default(5)),
    )
    for run in runs:
        run()  # builds and caches the Hamiltonians
    solves = []

    def counting(m):
        solves.append(np.shape(m))
        return herm_eig(m)

    def no_build(*args, **kwargs):
        raise AssertionError("built a Hamiltonian again")

    # every Hamiltonian eigensolve (levels aside) goes through qstate's herm_eig
    monkeypatch.setattr(qstate, "herm_eig", counting)
    monkeypatch.setattr(ex, "hamiltonian", no_build)
    for run in runs:
        run()
    assert solves == []


def test_scaling_sidecar_names_each_curves_dephasing():
    res = ex.scaling_run(kinds=("dc", "pf"), n_values=(2,), q_points=5)
    assert res.metadata["dephasing"] == {"depolarizing": "collective", "phase_flip": "collective"}


def test_channel_hamiltonians_are_built_once_per_process(monkeypatch):
    # scaling takes its collective phase-flip Hamiltonian, and so its spin-block
    # frames, from the cache: one eigh per spin block for two runs, and never
    # the dense frame of H + sqrt2 J^2
    frames, blocks = [], []
    eigh = np.linalg.eigh

    def counting_frame(m, *args):
        frames.append(len(m))
        return herm_eig(m, *args)

    def counting_block(m, *args, **kwargs):
        blocks.append(len(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(qstate, "herm_eig", counting_frame)
    monkeypatch.setattr(np.linalg, "eigh", counting_block)
    qstate._class_hamiltonian.cache_clear()
    ex.scaling_run(kinds=("pf",), n_values=(3,), q_points=5)
    assert blocks == [4, 2]  # J = 3/2 and J = 1/2
    ex.scaling_run(kinds=("pf",), n_values=(3,), q_points=5)
    assert blocks == [4, 2] and frames == []
    # one object per Hamiltonian, not per kind
    h = ex._class_view("pf", 3)
    assert h is ex._class_view("pd", 3) and h.dephasing == "collective"
    assert ex.channel_hamiltonian("pf", 3).dephasing == "product_basis"
    assert ex._class_view("bf", 3) is ex._class_view("bpf", 3) is ex._class_view("ad", 3) is ex._class_view("cbf", 3)
    assert ex.channel_hamiltonian("bf", 3) is ex.channel_hamiltonian("ad", 3)
    with pytest.raises(ValueError, match="read-only"):
        h.classes[0] = 1.0


def test_scaling_run_keeps_no_dense_frame_of_the_excitation_energy():
    # the class route builds no dense Hamiltonian, so no dense frame either
    ex._shared_hamiltonian.cache_clear()
    ex.scaling_run(n_values=(8,), q_points=21)
    assert ex._shared_hamiltonian.cache_info().currsize == 0
    h = ex._class_view("bf", 8)
    assert h.dephasing == "product_basis" and h.spin_frames is None


def test_census_csv_equals_one_generator_per_sample(tmp_path, monkeypatch):
    # the reset bit generator draws what a new Generator per sample draws,
    # so the census CSV and sidecar keep their bytes
    def one_generator_per_sample(seed, samples, num_terms=2):
        draws = [qstate._separable_draws(philox_stream(seed, i), num_terms) for i in samples]
        return qstate._separable_states(*(np.array(x) for x in zip(*draws)))

    for seed, samples in ((2**63 - 1, range(10**6, 10**6 + 9)), (5, range(40))):
        assert np.array_equal(
            random_separable_stack(seed, samples, 3), one_generator_per_sample(seed, samples, 3)
        )
    write_csv(tmp_path / "reset.csv", ex.census_random("ad", count=40, seed=5, q_points=21, num_terms=3))
    monkeypatch.setattr(ex, "random_separable_stack", one_generator_per_sample)
    write_csv(tmp_path / "fresh.csv", ex.census_random("ad", count=40, seed=5, q_points=21, num_terms=3))
    for suffix in (".csv", ".meta.json"):
        reset, fresh = (tmp_path / f"{name}{suffix}" for name in ("reset", "fresh"))
        assert reset.read_bytes() == fresh.read_bytes()


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


def census_loop(kind, count, seed, q_points, num_terms=2):
    """The census one sample at a time: one draw, one curve, one
    decompose and one 1-D summary per sample, the oracle of the stacked
    census."""
    kind = ch.canonical_kind(kind)
    q_grid = ex.q_grid_default(q_points)
    h = ex.channel_hamiltonian(kind, 2)
    rows = {"sample": [], "delta_wc_max": [], "argmax_q": [], "area_ap": []}
    enhancing = 0
    for i in range(count):
        rho0 = random_separable(philox_stream(seed, i), num_terms=num_terms)
        (curve,), (wc0,) = ex._wc_curves(rho0, [kind], [h], q_grid)
        summary = ex.enhancement_summary(q_grid, curve - wc0)
        if summary.area_ap > ex.ENHANCEMENT_AREA_TOL:
            enhancing += 1
        rows["sample"].append(i)
        rows["delta_wc_max"].append(summary.delta_wc_max)
        rows["argmax_q"].append(summary.argmax_q)
        rows["area_ap"].append(summary.area_ap)
    return {k: np.array(v) for k, v in rows.items()}, enhancing / count


def assert_census_matches_loop(kind, count, seed, q_points, num_terms=2):
    res = ex.census_random(kind, count=count, seed=seed, q_points=q_points, num_terms=num_terms)
    cols, fraction = census_loop(kind, count, seed, q_points, num_terms)
    assert list(res.columns) == list(cols)
    for name, col in cols.items():
        assert res.columns[name].dtype == col.dtype
        assert np.array_equal(res.columns[name], col), name
    assert res.metadata["fraction_enhancing"] == fraction


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 30),
    q_points=st.integers(2, 41),
)
def test_stacked_census_equals_the_per_sample_loop(kind, seed, count, q_points):
    assert_census_matches_loop(kind, count, seed, q_points)


def test_census_stacks_of_draws_equal_the_per_sample_loop(monkeypatch):
    stacks = []
    draw = ex.random_separable_stack

    def recording(seed, samples, num_terms):
        stacks.append(len(samples))
        return draw(seed, samples, num_terms)

    monkeypatch.setattr(ex, "random_separable_stack", recording)
    # 3 samples x 1500 strengths: one sample per stack of draws
    assert_census_matches_loop("ad", 3, 19, 1500)
    assert stacks == [1, 1, 1]
    stacks.clear()
    # 25 samples x 101 strengths: 20 real samples per stack of draws
    assert_census_matches_loop("pf", 25, 4, 101, num_terms=3)
    assert stacks == [20, 5]


def test_stacked_curves_equal_one_curve_per_state():
    # 25 real states x 101 strengths, evolved in one call per kind
    rho0s = random_separable_stack(8, range(25))
    q_grid = ex.q_grid_default(101)
    for kind in ("bf", "dc", "cbf"):
        h = ex.channel_hamiltonian(kind, 2)
        (curves,), (wc0s,) = ex._wc_curves(rho0s, [kind], [h], q_grid)
        assert curves.shape == (25, 101) and wc0s.shape == (25,)
        for rho0, curve, wc0 in zip(rho0s, curves, wc0s):
            (single,), (single_wc0,) = ex._wc_curves(rho0, [kind], [h], q_grid)
            assert np.array_equal(curve, single) and wc0 == single_wc0


@pytest.mark.parametrize("kind", ["bf", "pf", "ad", "dc", "cbf"])
def test_dense_curves_are_bitwise_the_coherent_work_of_decompose(kind):
    # the images and rho0 split together give decompose's W_C, bit for bit
    rho0s = random_separable_stack(5, range(6))
    h, q_grid = ex.channel_hamiltonian(kind, 2), ex.q_grid_default(41)
    for rho0 in (rho0s, rho0s[3]):
        (curves,), (wc0,) = ex._wc_curves(rho0, [kind], [h], q_grid)
        images = apply_local(rho0, kind, q_grid)
        assert np.array_equal(curves, decompose(images.reshape(-1, 4, 4), h).coherent.reshape(curves.shape))
        assert np.array_equal(wc0, decompose(rho0, h).coherent)


def test_dense_kinds_keep_their_rows_in_the_request_order():
    # kinds sharing a Hamiltonian, a repeated kind and an alias
    rho0s = random_separable_stack(6, range(4))
    q_grid = ex.q_grid_default(31)
    kinds = ["ad", "bf", "pf", "bit_flip", "ad", "dc", "pd"]
    hs = [ex.channel_hamiltonian(kind, 2) for kind in kinds]
    curves, wc0 = ex._wc_curves(rho0s, kinds, hs, q_grid)
    assert curves.shape == (7, 4, 31) and wc0.shape == (7, 4)
    for kind, h, row, row_wc0 in zip(kinds, hs, curves, wc0):
        (single,), (single_wc0,) = ex._wc_curves(rho0s, [kind], [h], q_grid)
        assert np.array_equal(row, single) and np.array_equal(row_wc0, single_wc0)
    assert np.array_equal(curves[0], curves[4]) and np.array_equal(curves[1], curves[3])


def test_dense_route_solves_each_kinds_stack_once(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigvalsh(m, *args, **kwargs)

    rho0s = random_separable_stack(7, range(8))
    q_grid = ex.q_grid_default(101)
    for kind in ("bf", "pf", "ad", "dc"):
        h = ex.channel_hamiltonian(kind, 2)
        h.frame, h.levels  # built once per Hamiltonian, and cached on it
    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    # a census stack: its 808 images and 8 initial states in one eigvalsh
    # (each kind's dephasing keeps only a diagonal, which is sorted)
    for kind in ("bf", "pf", "ad", "dc"):
        shapes.clear()
        ex._wc_curves(rho0s, [kind], [ex.channel_hamiltonian(kind, 2)], q_grid)
        assert shapes == [(816, 4, 4)]
    # several kinds: one stack each, its initial states included
    shapes.clear()
    kinds = ["bf", "pf", "ad", "bf"]
    ex._wc_curves(rho0s, kinds, [ex.channel_hamiltonian(kind, 2) for kind in kinds], q_grid)
    assert shapes == 4 * [(816, 4, 4)]


def test_census_rejects_empty_counts_and_terms():
    with pytest.raises(ValueError, match="census needs at least one sample"):
        ex.census_random("bf", count=0)
    with pytest.raises(ValueError, match="census needs at least one sample"):
        ex.census_random("bf", count=-3)
    with pytest.raises(ValueError, match="num_terms must be at least 1"):
        ex.census_random("bf", count=5, num_terms=0)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 6),
    q_points=st.integers(2, 30),
    seed=st.integers(0, 2**31 - 1),
    ties=st.booleans(),
)
def test_row_wise_summary_equals_one_summary_per_row(rows, q_points, seed, ties):
    rng = np.random.default_rng(seed)
    q_grid = np.sort(rng.uniform(0, 1, q_points))
    curves = rng.normal(size=(rows, q_points))
    if ties:  # repeated peaks: argmax keeps the first, row by row
        curves = np.round(curves)
    stacked = ex.enhancement_summary(q_grid, curves)
    for name in ("delta_wc_max", "argmax_q", "area_ap"):
        column = getattr(stacked, name)
        assert column.shape == (rows,)
        per_row = [getattr(ex.enhancement_summary(q_grid, c), name) for c in curves]
        assert column.tolist() == per_row
    with pytest.raises(ValueError, match="grid and values must align"):
        ex.enhancement_summary(q_grid, curves[:, :-1])


def grid_loop(family, kind, axis_grid, q_grid, p=0.5, a=0.1, c=0.3, d=0.2):
    """The enhancement grid one axis value at a time: the oracle of the
    stacked grid."""
    h = ex.channel_hamiltonian(kind, 2)
    if family == "classical_quantum":
        builder = lambda v: qstate.classical_quantum(p, a, v)
    else:
        builder = lambda v: symmetric_pair(p, v, c, d)
    axis_col, q_col, dwc_col, wc0_col = [], [], [], []
    for v in axis_grid:
        rho0 = builder(v)
        (curve,), (wc0,) = ex._wc_curves(rho0, [kind], [h], q_grid)
        curve = curve - wc0
        axis_col.extend([v] * len(q_grid))
        q_col.extend(q_grid)
        wc0_col.extend([wc0] * len(q_grid))
        dwc_col.extend(curve)
    return [np.array(col) for col in (axis_col, q_col, wc0_col, dwc_col)]


@pytest.mark.parametrize(
    "family, kind, axis_grid",
    [
        ("symmetric_pair", "bf", np.linspace(0.1, 0.9, 13)),
        ("classical_quantum", "pf", np.linspace(0.0, 0.3, 7)),
        ("symmetric_pair", "dc", np.linspace(0.1, 0.9, 5)),
    ],
)
def test_stacked_grid_equals_the_per_state_loop(family, kind, axis_grid):
    q_grid = ex.q_grid_default(101)  # 13 x 101 images of real states from one call
    res = ex.grid_delta_wc(family, kind, axis_grid, q_grid)
    for got, want in zip(res.columns.values(), grid_loop(family, kind, axis_grid, q_grid)):
        assert np.array_equal(got, want)


def entangled_loop(theta_grid, q_grid, h=0.5, j=0.4, kind="bf"):
    """The entangled example one theta at a time: the oracle of the
    stacked run."""
    ham = hamiltonian("z_plus_xx", 2, h=h, j=j)
    wc = np.empty((len(theta_grid), len(q_grid)))
    wc0 = np.empty((len(theta_grid), 1))
    conc = np.empty_like(wc)
    for i, theta in enumerate(theta_grid):
        rho0 = qstate.apply_hadamard_pair(qstate.entangled_theta(theta))
        wc0[i] = decompose(rho0, ham).coherent
        states = apply_local(rho0, kind, q_grid)
        wc[i] = decompose(states, ham).coherent
        conc[i] = concurrence(states)
    return wc.ravel(), (wc - wc0).ravel(), conc.ravel()


@pytest.mark.parametrize("kind", ["bf", "ad"])
def test_stacked_entangled_example_equals_the_per_state_loop(kind):
    theta_grid, q_grid = np.linspace(0, np.pi, 31), ex.q_grid_default(61)
    res = ex.entangled_example(theta_grid, q_grid, kind=kind)
    want = entangled_loop(theta_grid, q_grid, kind=kind)
    for name, col in zip(("WC", "delta_WC", "concurrence"), want):
        assert np.array_equal(res.columns[name], col), name


def test_lindblad_consistency_checks_the_cap_on_the_largest_time(monkeypatch):
    monkeypatch.setattr(ch, "_liouvillian", None)
    with pytest.raises(ValueError, match="2000000 RK4 steps exceed the 1000000 limit"):
        ex.lindblad_consistency("ad", 1.0, [0.0, 1.0, 2000.0, 3.0], [0.1, 0.2, 0.3])


def test_lindblad_consistency_rejects_an_empty_time_grid():
    with pytest.raises(ValueError, match=re.escape("the time grid must be a non-empty 1-D grid, got shape (0,)")):
        ex.lindblad_consistency("bf", 0.5, [], [0.6, 0.5, 0.4])


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


@pytest.mark.parametrize(
    "theta, message",
    [
        ([np.nan], "the theta axis must be finite, got theta = nan"),
        ([np.inf], "the theta axis must be finite, got theta = inf"),
        ([], "the theta axis must be a non-empty 1-D grid, got shape (0,)"),
        ([[0.1, 0.2]], "the theta axis must be a non-empty 1-D grid, got shape (1, 2)"),
    ],
    ids=["nan", "inf", "empty", "2-D"],
)
def test_entangled_example_rejects_a_bad_theta_axis_before_any_state(monkeypatch, theta, message):
    monkeypatch.setattr(ex, "entangled_theta", None)  # no state may be built
    with pytest.raises(ValueError, match=re.escape(message)):
        ex.entangled_example(theta, ex.q_grid_default(5))


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
        evolved = apply_local(rho0, "dc", q)
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
    # 1100 strengths: one 3300-point curve from one channel call
    q_grid = np.sort(np.random.default_rng(4).uniform(0, 1, 1100))
    q_grid[[0, -1]] = 0.0, 1.0  # neighbours clipped at both ends
    res = ex.interacting_depolarizing(a_values=(0.1,), q_grid=q_grid, fd_step=1e-3)
    oracle = appendix_d_oracle((0.1,), q_grid, 1e-3)
    for name, col in oracle.items():
        np.testing.assert_allclose(res.columns[name], col, rtol=0, atol=1e-12)
    res = ex.interacting_depolarizing(a_values=(0.1, 0.4), q_grid=np.linspace(0, 1, 21))
    oracle = appendix_d_oracle((0.1, 0.4), np.linspace(0, 1, 21), 1e-4)
    for name, col in oracle.items():
        np.testing.assert_allclose(res.columns[name], col, rtol=0, atol=1e-12)


@pytest.mark.parametrize("fd_step", [0.0, -1e-4, float("nan")])
def test_interacting_depolarizing_rejects_a_bad_step_before_any_channel(fd_step, monkeypatch):
    def no_channel(*args):
        raise AssertionError("ran a channel")

    monkeypatch.setattr(ch, "_local_images", no_channel)
    with pytest.raises(ValueError, match=rf"fd_step = {fd_step} must be finite and > 0"):
        ex.interacting_depolarizing(fd_step=fd_step)


def test_single_state_curves_take_one_split_each(monkeypatch):
    # correlation_work splits its curve in one decompose; appendix D splits
    # the curves of every a in one beside W_C(rho0) of every a, and takes the
    # degenerate-level coherence of the Q centre images only, not of their
    # 3Q neighbours too
    shapes = {"decompose": [], "coherence": []}

    def spy(name, real):
        return lambda rho, *args: shapes[name].append(np.shape(rho)) or real(rho, *args)

    monkeypatch.setattr(correlations, "decompose", spy("decompose", correlations.decompose))
    for kind in ("bf", "ad"):
        shapes["decompose"].clear()
        correlations.correlation_work([0.3, 0.2, 0.1], kind, np.linspace(0, 1, 3001))
        assert shapes["decompose"] == [(3001, 4, 4)]
    monkeypatch.setattr(workx, "decompose", spy("decompose", workx.decompose))
    monkeypatch.setattr(workx, "coherence_degenerate", spy("coherence", workx.coherence_degenerate))
    shapes["decompose"].clear()
    ex.interacting_depolarizing(a_values=(0.1, 0.2, 0.3), q_grid=np.linspace(0, 1, 1001))
    assert shapes["decompose"] == [(3, 4, 4), (3 * 3003, 4, 4)]
    assert shapes["coherence"] == [(3 * 1001, 4, 4)]


def test_interacting_depolarizing_rejects_empty_population_values():
    with pytest.raises(ValueError, match="appendix D needs at least one population value a, got none"):
        ex.interacting_depolarizing(a_values=())


def format_cell(v) -> str:
    """One CSV cell formatted on its own: the oracle of the column-wise writer."""
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return str(v)


def test_csv_cells_match_the_per_cell_format(tmp_path):
    cols = {
        "x": np.array([0.1, -0.0, 1e-300, -2.5e17, 1.0 / 3.0, np.inf, 0.0]),
        "n": np.array([0, -3, 7, 2**40, 1, 2, 3]),
        "ok": np.array([True, False, True, True, False, False, True]),
        "channel": np.array(["bit_flip", "phase_flip", "a", "b", "c", "d", "e"]),
        "x32": np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7], dtype=np.float32),
    }
    path = write_csv(tmp_path / "cells.csv", ex.SweepResult(cols, {}))
    rows = [",".join(format_cell(cols[k][i]) for k in cols) for i in range(7)]
    assert path.read_text(encoding="utf-8") == "\n".join([",".join(cols), *rows]) + "\n"
    assert "\n-0.0,-3,False,phase_flip," in path.read_text(encoding="utf-8")


def test_csv_bytes_match_per_cell_repr_through_the_distinct_values(tmp_path):
    rows = 300  # four float columns: 1200 cells, formatted once per distinct value
    assert 4 * rows >= io.DISTINCT_MIN_CELLS
    other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    special = [0.0, -0.0, np.nan, other_nan, np.inf, -np.inf, 5e-324, -1e-300, 1.7976931348623157e308,
               -2.5e17, 1e16, 1e-5, 0.1, 1.0 / 3.0]
    rng = np.random.default_rng(rows)
    cols = {
        "x": np.resize(np.array(special), rows),  # every special value, repeated
        "y": rng.choice(np.array(special + list(rng.normal(size=5))), rows),
        "z": rng.normal(size=rows) * 10.0 ** rng.integers(-20, 20, rows),
        "n": rng.integers(-(2**40), 2**40, rows),
        "ok": rng.integers(0, 2, rows).astype(bool),
        "channel": rng.choice(np.array(["bit_flip", "phase_flip", "-0.0", "nan"]), rows),
        "x32": np.resize(np.array([0.1, -0.0, 3e38, 1e-40], dtype=np.float32), rows),
    }
    path = write_csv(tmp_path / "cells.csv", ex.SweepResult(cols, {}))
    lines = [",".join(format_cell(cols[k][i]) for k in cols) for i in range(rows)]
    assert path.read_bytes() == ("\n".join([",".join(cols), *lines]) + "\n").encode("utf-8")
    assert "\n-0.0," in path.read_text(encoding="utf-8")


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
            [decompose(apply_local(rho0, "bf", q), h).coherent - wc0 for q in qs]
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
        ks = kraus_set(kind, q)
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


def assert_curve_matches_oracle(rho0, kind, h, q_grid, dense=None):
    """The batched curve of rho0 under h against the per-q Kraus oracle:
    of rho0 under h for a dense state, or, for class coordinates under a
    class-coordinate h, of the dense (state, Hamiltonian) pair ``dense``."""
    (curve,), (wc0,) = ex._wc_curves(rho0, [kind], [h], q_grid)
    batched = curve - wc0
    dense_rho0, dense_h = dense or (rho0, h)
    oracle = kraus_oracle_curve(dense_rho0, kind, dense_h, q_grid)
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


def register(n, which="symmetrized"):
    """A permutation-invariant register of n qubits, or a product of n
    different qubits that no spin block holds whole."""
    if which == "symmetrized":
        return symmetrized_multipartite(0.2, [0.1 + 0.02 * i for i in range(1, n + 1)])
    return kron(*[qubit_state(0.2 + 0.1 * i, 0.05 + 0.03j * i) for i in range(n)])


@pytest.mark.parametrize("kind", ["bf", "pf", "ad"])
def test_batched_curve_matches_oracle_across_chunk_seams(kind):
    n = 5
    q_grid = ex.q_grid_default(41)
    view = ex._class_view(kind, n)  # collective for pf, as scaling_run dephases it
    h = dense_of(view)
    # a stack of three complex 5-qubit registers, evolved in one call
    rho0s = np.array([register(n), register(n, "product"), register(n, "product").conj()])
    (curves,), (wc0s,) = ex._wc_curves(rho0s, [kind], [h], q_grid)
    for rho0, curve, wc0 in zip(rho0s, curves, wc0s):
        oracle = kraus_oracle_curve(rho0, kind, h, q_grid)
        assert np.abs(curve - wc0 - oracle).max() <= 1e-12
        summary = ex.enhancement_summary
        assert summary(q_grid, curve - wc0).argmax_q == summary(q_grid, oracle).argmax_q
    for which in ("symmetrized", "product"):
        assert_curve_matches_oracle(register(n, which), kind, h, q_grid)
    # the symmetrized register's class coordinates take the class route
    rho0 = register(n)
    assert_curve_matches_oracle(matcore._class_coordinates(rho0, n), kind, view, q_grid, dense=(rho0, h))


def dense_curve(rho0, kind, h, q_grid):
    """W_C along the grid one strength at a time: each image from
    ``apply_local`` split by ``decompose``, the oracle of the block route."""
    return np.array([decompose(image, h).coherent for image in apply_local(rho0, kind, q_grid)])


@functools.cache
def dense_of(view):
    """The dense ``Hamiltonian`` a class-coordinate one gathers to, under
    the same convention: the oracle side of the class route."""
    return Hamiltonian(matcore._class_matrix(view.classes, view.num_qubits), view.kind, view.dephasing)


@functools.cache
def invariant_hamiltonians(n):
    """The class-coordinate energies the block route takes: the excitation
    energy (identity frame), the collective x field and the collective
    Jz^2, whose levels +-M repeat inside a spin block."""
    jz = hamiltonian("z_sum", n).matrix
    return (
        qstate._class_hamiltonian("excitation", n),
        qstate._class_hamiltonian("x_sum", n),
        qstate.ClassHamiltonian("jz_squared", n, matcore._class_coordinates(jz @ jz, n), "collective"),
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 8),
    kind=st.sampled_from(["bf", "bpf", "pf", "dc", "ad", "pd"]),
    which=st.integers(0, 2),
    q_points=st.integers(1, 41),
    q_lo=st.floats(0.0, 1.0),
    a=st.floats(0.05, 0.95),
    spread=st.floats(0.1, 0.9),
)
@example(n=8, kind="ad", which=0, q_points=41, q_lo=0.0, a=0.2, spread=0.5)
@example(n=8, kind="pf", which=1, q_points=41, q_lo=0.0, a=0.3, spread=0.9)
@example(n=8, kind="bpf", which=2, q_points=23, q_lo=0.1, a=0.6, spread=0.7)
@example(n=7, kind="pd", which=1, q_points=1, q_lo=0.4, a=0.5, spread=0.3)
@example(n=3, kind="bf", which=1, q_points=2, q_lo=0.0, a=0.5, spread=0.5)
def test_block_curve_matches_the_per_q_dense_oracle(n, kind, which, q_points, q_lo, a, spread):
    coherences = np.sqrt(a * (1.0 - a)) * np.linspace(spread / 2, spread, n)
    rho0 = symmetrized_multipartite(a, coherences)
    h = invariant_hamiltonians(n)[which]
    q_grid = np.linspace(q_lo, 1.0, q_points)
    coords = qstate._symmetrized_classes(a, coherences)
    (curve,), _ = ex._wc_curves(coords, [kind], [h], q_grid)
    oracle = dense_curve(rho0, kind, dense_of(h), q_grid)
    assert np.abs(curve - oracle).max() <= 1e-12
    # the same argmax_q, unless the oracle's peak ties another strength to
    # within the tolerance: a frozen curve (bit flip under the x field at
    # a = 1/2) is flat up to rounding
    i, j = curve.argmax(), oracle.argmax()
    assert q_grid[i] == q_grid[j] or oracle[j] - oracle[i] <= 2e-12


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(3, 7),
    kind=st.sampled_from(["bf", "bpf", "pf", "dc", "ad", "pd"]),
    which=st.integers(0, 2),
    a=st.floats(0.05, 0.95),
    phases=st.lists(st.floats(0.0, 2 * np.pi), min_size=7, max_size=7),
)
@example(n=8, kind="ad", which=1, a=0.3, phases=[0.9 * i for i in range(8)])
def test_class_coordinate_input_matches_the_dense_oracle(n, kind, which, a, phases):
    # scaling's rho0 at every N: its class coordinates, never dense
    coherences = np.sqrt(a * (1.0 - a)) * np.linspace(0.2, 0.8, n) * np.exp(1j * np.array(phases[:n]))
    coords = qstate._symmetrized_classes(a, coherences)
    rho0 = symmetrized_multipartite(a, coherences)
    h = invariant_hamiltonians(n)[which]
    q_grid = ex.q_grid_default(21)
    oracle = dense_curve(rho0, kind, dense_of(h), q_grid)
    curves, (wc0,) = ex._wc_curves(coords, [kind], [h], q_grid)
    assert abs(wc0 - decompose(rho0, dense_of(h)).coherent) <= 1e-12
    assert np.abs(curves[0] - oracle).max() <= 1e-12
    # the same call on the dense state takes the dense route
    dense, (dense_wc0,) = ex._wc_curves(rho0, [kind], [dense_of(h)], q_grid)
    assert abs(wc0 - dense_wc0) <= 1e-12
    assert np.abs(curves - dense).max() <= 1e-12


TWO_QUBIT_SCALING_KINDS = ("bf", "bpf", "pf", "pd", "ad", "dc", "cbf")


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(0.05, 0.95),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    phases=st.lists(st.floats(0.0, 2 * np.pi), min_size=2, max_size=2),
    q_points=st.integers(2, 41),
)
@example(a=0.2, fractions=[0.12 / 0.4, 0.14 / 0.4], phases=[0.0, 0.0], q_points=41)
def test_two_qubit_class_route_matches_the_dense_oracle(a, fractions, phases, q_points):
    # scaling's N = 2 register takes the class route for every kind scaling
    # accepts there, each under its own Hamiltonian, in one call
    coherences = np.sqrt(a * (1.0 - a)) * np.array(fractions) * np.exp(1j * np.array(phases))
    hs = [ex._class_view(kind, 2) for kind in TWO_QUBIT_SCALING_KINDS]
    q_grid = ex.q_grid_default(q_points)
    coords = qstate._symmetrized_classes(a, coherences)
    curves, wc0 = ex._wc_curves(coords, TWO_QUBIT_SCALING_KINDS, hs, q_grid)
    rho0 = symmetrized_multipartite(a, coherences)
    dense, dense_wc0 = ex._wc_curves(rho0, TWO_QUBIT_SCALING_KINDS, [dense_of(h) for h in hs], q_grid)
    assert curves.shape == dense.shape == (7, q_points) and wc0.shape == dense_wc0.shape == (7,)
    assert np.abs(curves - dense).max() <= 1e-12
    assert np.abs(wc0 - dense_wc0).max() <= 1e-12


CLASS_KIND_NAMES = ("bf", "bit_flip", "bpf", "pf", "pd", "ad")


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 8),
    kinds=st.lists(st.sampled_from(CLASS_KIND_NAMES), min_size=1, max_size=4),
    which=st.integers(0, 2),
    a=st.floats(0.05, 0.95),
    q_points=st.integers(2, 41),
)
@example(n=3, kinds=["bf", "bit_flip", "ad", "bf"], which=0, a=0.2, q_points=21)
@example(n=8, kinds=["pf", "pd", "pf"], which=1, a=0.3, q_points=41)
@example(n=6, kinds=["bf", "bpf", "pf", "pd", "ad"], which=2, a=0.6, q_points=11)
def test_batched_split_matches_per_kind_curves(n, kinds, which, a, q_points):
    coherences = np.sqrt(a * (1.0 - a)) * np.linspace(0.2, 0.8, n)
    coords = qstate._symmetrized_classes(a, coherences)
    h = invariant_hamiltonians(n)[which]
    q_grid = ex.q_grid_default(q_points)
    curves, wc0 = ex._wc_curves(coords, kinds, [h] * len(kinds), q_grid)
    assert curves.shape == (len(kinds), q_points) and wc0.shape == (len(kinds),)
    separate = decompose(symmetrized_multipartite(a, coherences), dense_of(h)).coherent
    assert np.abs(wc0 - separate).max() <= 1e-12
    # every kind keeps its row, in order, a repeated kind and an alias too
    for kind, row, row_wc0 in zip(kinds, curves, wc0):
        expected = ex._wc_curves(coords, [kind], [h], q_grid)[0][0] - separate
        assert np.abs((row - row_wc0) - expected).max() <= 1e-12


def test_curves_need_at_least_one_kind_and_one_hamiltonian_per_kind():
    h, q_grid = hamiltonian("excitation", 3), ex.q_grid_default(5)
    dense = register(3)
    coords = matcore._class_coordinates(dense, 3)
    for kinds, hs in ((["bf", "ad"], [h]), (["bf"], [h, h]), ([], [])):
        message = f"need at least one kind and one Hamiltonian per kind, got {len(kinds)} kinds and {len(hs)} Hamiltonians"
        for rho0 in (dense, coords):
            with pytest.raises(ValueError, match=re.escape(message)):
                ex._wc_curves(rho0, kinds, hs, q_grid)


@pytest.mark.parametrize("count", [35, 19])  # a 4-qubit register's classes; one class short of 3 qubits
def test_class_coordinates_of_the_wrong_length_are_rejected_before_any_expansion(monkeypatch, count):
    expansions = []
    monkeypatch.setattr(ch, "_class_polynomial", lambda *args: expansions.append(args))
    coords = qstate._symmetrized_classes(0.2, [0.1, 0.12, 0.14, 0.16])[:count]
    message = f"class coordinate count {count} does not match Hamiltonian on 3 qubits, which needs C(6, 3) = 20"
    with pytest.raises(ValueError, match=re.escape(message)):
        ex._wc_curves(coords, ["bf"], [qstate._class_hamiltonian("excitation", 3)], ex.q_grid_default(5))
    assert not expansions


def test_curves_off_the_block_route_take_the_dense_route(monkeypatch):
    entered = []
    dense_images = ch._local_images

    def counting(*args):
        entered.append(True)
        return dense_images(*args)

    def no_blocks(*args):
        raise AssertionError("took the block route")

    monkeypatch.setattr(ch, "_local_images", counting)
    monkeypatch.setattr(workx, "_block_coherent", no_blocks)
    # the route follows the representation: every dense state or stack is
    # split densely, invariant or not, whatever its Hamiltonian
    n, q_grid = 4, ex.q_grid_default(11)
    symmetric = register(n)
    excitation = hamiltonian("excitation", n)
    cases = [
        (register(n, "product"), excitation),  # not permutation invariant
        (symmetric, excitation),  # invariant, under an identity frame
        (symmetric, dense_of(ex._class_view("pf", n))),  # collective, as scaling dephases it
        (symmetric, hamiltonian("x_sum", n)),  # x_sum in its product basis
        (symmetric, Hamiltonian(excitation.matrix, "excitation")),  # block convention
        (np.stack([symmetric, symmetric]), excitation),  # a stack, not one state
        (register(2), hamiltonian("excitation", 2)),  # two qubits
    ]
    for rho0, h in cases:
        entered.clear()
        (curve,), _ = ex._wc_curves(rho0, ["bf"], [h], q_grid)
        assert entered
        if curve.ndim == 1:
            np.testing.assert_allclose(curve, dense_curve(rho0, "bf", h, q_grid), rtol=0, atol=1e-12)


def test_warm_scaling_run_solves_only_spin_blocks(monkeypatch):
    ex.scaling_run(n_values=(6,), q_points=21)  # builds and caches the Hamiltonians
    sizes = []

    def recording(solver):
        def solve(m, *args, **kwargs):
            sizes.append(np.shape(m)[-1])
            return solver(m, *args, **kwargs)

        return solve

    def no_images(*args):
        raise AssertionError("entered the dense route")

    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    monkeypatch.setattr(ch, "_local_images", no_images)
    ex.scaling_run(n_values=(6,), q_points=21)
    assert sizes and max(sizes) <= 7


def test_warm_scaling_run_forms_no_dense_term(monkeypatch):
    n_values = range(3, 7)
    ex.scaling_run(n_values=n_values, q_points=21)  # builds and caches the Hamiltonians and maps

    def dense(*args):
        raise AssertionError("took a dense step")

    monkeypatch.setattr(ch, "_expand", dense)
    monkeypatch.setattr(workx, "decompose", dense)
    # no dense rho0 and no class averaging, wherever bound
    monkeypatch.setattr(qstate, "symmetrized_multipartite", dense)
    for module in (matcore, qstate, ch, workx, ex):
        if hasattr(module, "_class_coordinates"):
            monkeypatch.setattr(module, "_class_coordinates", dense)
    ex.scaling_run(n_values=n_values, q_points=21)


def test_block_route_rejects_non_states_as_the_dense_route_does():
    n, q_grid = 3, ex.q_grid_default(11)
    h, view = hamiltonian("excitation", n), qstate._class_hamiltonian("excitation", n)
    ghz_coherence = np.zeros((2**n, 2**n), dtype=complex)
    ghz_coherence[0, -1] = ghz_coherence[-1, 0] = 0.3  # |000><111| + h.c., invariant
    not_psd = np.eye(2**n) / 2**n + ghz_coherence
    for rho0, message in (
        (not_psd, "state is not PSD: min eigenvalue -1.750e-01"),
        (2.0 * register(n), r"state trace is 2\.0\d*, expected 1"),
        (register(n) + 1e-6j * ghz_coherence, "matrix is not Hermitian"),
    ):
        # every entry of rho0 is its class's value, so the coordinates hold it whole
        coords = matcore._class_coordinates(rho0, n)
        with pytest.raises(ValueError, match=message):
            ex._wc_curves(coords, ["bf"], [view], q_grid)
        with pytest.raises(ValueError, match=message):
            dense_curve(rho0, "bf", h, q_grid)
    with pytest.raises(ValueError, match="correlated bit flip acts on exactly one qubit pair"):
        ex._wc_curves(matcore._class_coordinates(register(n), n), ["cbf"], [view], q_grid)


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
    h = replace(ex.channel_hamiltonian("pf", n), dephasing="collective", basis=None)
    ex._wc_curves(rho0, ["pf"], [h], ex.q_grid_default(41))
    assert calls == [n]
