"""Real states are evolved, diagonalized and split in float64, complex ones
in complex128, through the same code (``matcore._exact_real`` at the entry
points, numpy's promotion after them).

The two routes are compared through a diagonal phase unitary
U = diag(1, e^{i phi_1}) x ... x diag(1, e^{i phi_n}): it commutes with the
excitation Hamiltonian (and with any function of the collective J_z), and
phase flip, phase damping, amplitude damping and depolarizing are
covariant under it, so U rho U^dag is complex while every work value of
rho stays the same.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergonoise import channels as ch
from ergonoise import experiments as ex
from ergonoise import matcore, qstate, workx
from ergonoise.channels import apply_local
from ergonoise.matcore import SIGMA_Y, _exact_real, kron
from ergonoise.qstate import Hamiltonian, hamiltonian
from ergonoise.workx import concurrence, decompose

COVARIANT_KINDS = ("pf", "pd", "ad", "dc")


def phase_unitary(phases) -> np.ndarray:
    """The diagonal of diag(1, e^{i phi_1}) x ... x diag(1, e^{i phi_n})."""
    return kron(*[np.diag([1.0, np.exp(1j * phi)]) for phi in phases]).diagonal()


def rotated(rho, phases) -> np.ndarray:
    u = phase_unitary(phases)
    return u[:, None] * rho * u.conj()


def random_real_state(rng, d) -> np.ndarray:
    a = rng.normal(size=(d, d))
    rho = a @ a.T
    return rho / np.trace(rho)


phases_2 = st.lists(st.floats(0.1, 3.0), min_size=2, max_size=2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), phases=phases_2)
def test_decompose_agrees_between_the_real_and_complex_routes(seed, phases):
    rng = np.random.default_rng(seed)
    rhos = np.stack([random_real_state(rng, 4) for _ in range(3)])
    turned = rotated(rhos, phases)
    assert _exact_real(rhos).dtype == np.float64 and _exact_real(turned).dtype == np.complex128
    cases = [(hamiltonian("excitation", 2), hamiltonian("excitation", 2))]
    # a generic real Hamiltonian dephased by its levels, turned with the state
    g = rng.normal(size=(4, 4))
    u = phase_unitary(phases)
    cases.append((Hamiltonian(g + g.T, "matrix"), Hamiltonian(u[:, None] * (g + g.T) * u.conj(), "matrix")))
    for h_real, h_turned in cases:
        real, complex_ = decompose(rhos, h_real), decompose(turned, h_turned)
        for field, value in vars(real).items():
            np.testing.assert_allclose(getattr(complex_, field), value, rtol=0, atol=1e-12, err_msg=field)
    # U is local, so the concurrence is the same too
    assert workx._two_qubit_states(rhos)[0].dtype == np.float64
    assert np.abs(concurrence(turned) - concurrence(rhos)).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    phases=phases_2,
    kind=st.sampled_from(COVARIANT_KINDS),
    q=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
def test_apply_local_agrees_between_the_real_and_complex_routes(seed, phases, kind, q):
    rho = random_real_state(np.random.default_rng(seed), 4)
    real, complex_ = apply_local(rho, kind, q), apply_local(rotated(rho, phases), kind, q)
    assert real.dtype == np.float64 and complex_.dtype == np.complex128
    assert np.abs(complex_ - rotated(real, phases)).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    phases=phases_2,
    kind=st.sampled_from(COVARIANT_KINDS),
)
def test_dense_curve_agrees_between_the_real_and_complex_routes(seed, phases, kind):
    rhos = qstate.random_separable_stack(seed, range(3))
    assert rhos.dtype == np.float64
    h, q_grid = hamiltonian("excitation", 2), ex.q_grid_default(21)
    real, real_wc0 = ex._wc_curves(rhos, [kind], h, q_grid)
    turned, turned_wc0 = ex._wc_curves(rotated(rhos, phases), [kind], h, q_grid)
    assert np.abs(turned - real).max() <= 1e-12
    assert np.abs(turned_wc0 - real_wc0).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(3, 7),
    phi=st.floats(0.1, 3.0),
    kind=st.sampled_from(COVARIANT_KINDS[:3]),
    a=st.floats(0.05, 0.95),
    collective=st.booleans(),
)
def test_class_curve_agrees_between_the_real_and_complex_routes(n, phi, kind, a, collective):
    # the same phase on every qubit keeps the register permutation invariant
    coherences = np.sqrt(a * (1.0 - a)) * np.linspace(0.2, 0.8, n)
    real = qstate._symmetrized_classes(a, coherences)
    turned = qstate._symmetrized_classes(a, coherences * np.exp(-1j * phi))
    if collective:
        jz = hamiltonian("z_sum", n).matrix
        h = Hamiltonian(jz @ jz, "jz_squared", collective=True)
    else:
        h = hamiltonian("excitation", n)
    q_grid = ex.q_grid_default(21)
    # the coordinates the expansion receives: float64 exactly when real
    received, expand = [], ch._class_polynomial

    def recording(coords, *args):
        received.append(coords.dtype)
        return expand(coords, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ch, "_class_polynomial", recording)
        turned_curves, turned_wc0 = ex._wc_curves(turned, [kind], h, q_grid)
        real_curves, real_wc0 = ex._wc_curves(real, [kind], h, q_grid)
    assert received == [np.complex128, np.float64]
    assert abs(turned_wc0 - real_wc0) <= 1e-12
    assert np.abs(turned_curves - real_curves).max() <= 1e-12


def test_no_imaginary_part_is_dropped():
    tiny = np.array([[0.5, 1e-300j], [-1e-300j, 0.5]])
    assert _exact_real(tiny).dtype == np.complex128
    assert _exact_real(tiny.real).dtype == np.float64
    # a sigma_y coherence: the state's real part has less coherent work
    h = hamiltonian("excitation", 2)
    single = (np.eye(2) + 0.5 * SIGMA_Y) / 2 + np.array([[0.2, 0.3], [0.3, -0.2]])
    rho = kron(single, single)
    assert abs(decompose(rho, h).coherent - decompose(rho.real, h).coherent) > 1e-3
    q_grid = np.linspace(0.0, 0.9, 10)  # at q = 1 amplitude damping leaves |gg> either way
    curves = [ex._wc_curves(r, ["ad"], h, q_grid)[0][0] for r in (rho, rho.real)]
    assert np.abs(curves[0] - curves[1]).min() > 1e-4


def test_warm_census_and_scaling_solve_only_real_stacks(monkeypatch):
    def run():
        for kind in ("bf", "pf", "ad", "dc"):
            ex.census_random(kind, count=8)
        ex.scaling_run(n_values=range(2, 7), q_points=21)

    run()  # builds and caches the Hamiltonians and maps
    dtypes = {}

    def recording(name, solver):
        def solve(m, *args, **kwargs):
            dtypes.setdefault(name, set()).add(np.asarray(m).dtype)
            return solver(m, *args, **kwargs)

        return solve

    monkeypatch.setattr(np.linalg, "eigvalsh", recording("eigvalsh", np.linalg.eigvalsh))
    # the states in the dephasing frame, whether or not they need an eigvalsh
    monkeypatch.setattr(workx, "_dephased_spectra", recording("frame", workx._dephased_spectra))
    run()
    assert dtypes == {"eigvalsh": {np.dtype(np.float64)}, "frame": {np.dtype(np.float64)}}


@pytest.mark.parametrize("kind", ch.KINDS)
def test_channel_tables_are_real(kind):
    assert ch._coefficients(kind).dtype == np.float64
    assert ch._toeplitz(kind, 2).dtype == np.float64
    assert ch._vandermonde(kind, np.linspace(0.0, 1.0, 3), 2).dtype == np.float64


def test_built_hamiltonians_store_real_matrices_and_frames():
    for h in (
        ex.channel_hamiltonian("pf", 2),
        ex.channel_hamiltonian("dc", 2),
        ex.channel_hamiltonian("pf", 5, collective=True),
        hamiltonian("excitation", 3),
        hamiltonian("z_plus_xx", 2),
    ):
        assert h.matrix.dtype == np.float64
        assert h.frame[0].dtype == np.float64
        assert h.basis is None or h.basis.dtype == np.float64
        assert all(u.dtype == np.float64 for u, _ in h.spin_frames or ())
    assert Hamiltonian(matcore.SIGMA_Y, "matrix").matrix.dtype == np.complex128
