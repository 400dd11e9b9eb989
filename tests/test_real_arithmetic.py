"""Real states are evolved, diagonalized and split in float64, complex ones
in complex128, through the same code (``matcore._exact_real``, which
``as_matrix`` and ``as_stack`` apply to every input, numpy's promotion
after them).

The two routes are compared through a diagonal phase unitary
U = diag(1, e^{i phi_1}) x ... x diag(1, e^{i phi_n}): it commutes with the
excitation Hamiltonian (and with any function of the collective J_z), and
phase flip, phase damping, amplitude damping and depolarizing are
covariant under it, so U rho U^dag is complex while every work value of
rho stays the same.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergonoise import channels as ch
from ergonoise import experiments as ex
from ergonoise import matcore, qstate, workx
from ergonoise.channels import LindbladSpec, apply_local, jump_operator, lindblad_evolve
from ergonoise.matcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _exact_real,
    as_matrix,
    kron,
    partial_trace,
    require_density,
    require_hermitian,
)
from ergonoise.qstate import Hamiltonian, hamiltonian
from ergonoise.workx import concurrence, decompose, dephase, passive_state

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
    real, real_wc0 = ex._wc_curves(rhos, [kind], [h], q_grid)
    turned, turned_wc0 = ex._wc_curves(rotated(rhos, phases), [kind], [h], q_grid)
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
        h = qstate.ClassHamiltonian("jz_squared", n, matcore._class_coordinates(jz @ jz, n), "collective")
    else:
        h = qstate._class_hamiltonian("excitation", n)
    q_grid = ex.q_grid_default(21)
    # the coordinates the expansion receives: float64 exactly when real
    received, expand = [], ch._class_polynomial

    def recording(coords, *args):
        received.append(coords.dtype)
        return expand(coords, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ch, "_class_polynomial", recording)
        turned_curves, (turned_wc0,) = ex._wc_curves(turned, [kind], [h], q_grid)
        real_curves, (real_wc0,) = ex._wc_curves(real, [kind], [h], q_grid)
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
    curves = [ex._wc_curves(r, ["ad"], [h], q_grid)[0][0] for r in (rho, rho.real)]
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
        hamiltonian("excitation", 3),
        hamiltonian("z_plus_xx", 2),
    ):
        assert h.matrix.dtype == np.float64
        assert h.frame[0].dtype == np.float64
        assert h.basis is None or h.basis.dtype == np.float64
    # and so do the class views the class route splits against
    for view in (ex._class_view("pf", 5), ex._class_view("dc", 2), ex._class_view("bf", 3)):
        assert view.classes.dtype == np.float64 and view.levels.dtype == np.float64
        assert all(u.dtype == np.float64 for u, _, _ in view.spin_frames or ())
    assert Hamiltonian(matcore.SIGMA_Y, "matrix").matrix.dtype == np.complex128


# An imaginary part this small keeps the complex route and moves no value:
# the complex computation of a real input, now that an exactly real
# complex128 input is taken as float64.
TINY = 1e-300


def tiny_coherence(rho, imag):
    """rho plus the Hermitian imaginary part imag * i (|0><1| - |1><0|)."""
    out = rho.astype(complex)
    out[0, 1] += 1j * imag
    out[1, 0] -= 1j * imag
    return out if imag else rho


def local_qubit(rng):
    """(population, real coherence) of a qubit state rho(a, c)."""
    a = rng.uniform(0.05, 0.95)
    return a, rng.uniform(-0.9, 0.9) * np.sqrt(a * (1.0 - a))


def local_coherence_case(build):
    """A case that passes a local qubit's population a and coherence
    c + i imag to build, with the rng for anything else it draws."""

    def case(rng, imag):
        a, c = local_qubit(rng)
        return build(rng, a, c + 1j * imag)

    return case


# public function -> its result for random real inputs drawn from rng,
# with an imaginary part imag added to one input (0.0 keeps them real)
DTYPE_CASES = {
    "as_matrix": lambda rng, imag: as_matrix(tiny_coherence(random_real_state(rng, 4), imag)),
    "require_hermitian": lambda rng, imag: require_hermitian(tiny_coherence(random_real_state(rng, 4), imag)),
    "kron": lambda rng, imag: kron(tiny_coherence(random_real_state(rng, 2), imag), random_real_state(rng, 4)),
    "partial_trace": lambda rng, imag: partial_trace(tiny_coherence(random_real_state(rng, 8), imag), [0, 2]),
    "require_density": lambda rng, imag: require_density(tiny_coherence(random_real_state(rng, 4), imag)),
    "qubit_state": local_coherence_case(lambda rng, a, c: qstate.qubit_state(a, c)),
    "bloch_to_density": lambda rng, imag: qstate.bloch_to_density(
        [rng.uniform(-0.6, 0.6), imag, rng.uniform(-0.6, 0.6)]
    ),
    "classical_quantum": local_coherence_case(lambda rng, a, c: qstate.classical_quantum(rng.uniform(), a, c)),
    "symmetric_pair": local_coherence_case(lambda rng, a, c: qstate.symmetric_pair(rng.uniform(), a, c, 0.5 * c.real)),
    "symmetrized_multipartite": local_coherence_case(
        lambda rng, a, c: qstate.symmetrized_multipartite(a, [c, 0.5 * c.real, -0.7 * c.real])
    ),
    "apply_hadamard_pair": lambda rng, imag: qstate.apply_hadamard_pair(
        tiny_coherence(random_real_state(rng, 4), imag)
    ),
    "dephase": lambda rng, imag: dephase(
        tiny_coherence(random_real_state(rng, 4), imag), hamiltonian("z_plus_xx", 2)
    ),
    # the passive state is built from the Hamiltonian's eigenvectors, so
    # there the imaginary part goes on the Hamiltonian
    "passive_state": lambda rng, imag: passive_state(
        random_real_state(rng, 4), Hamiltonian(tiny_coherence(hamiltonian("z_plus_xx", 2).matrix, imag), "matrix")
    ),
    "apply_local": lambda rng, imag: apply_local(
        tiny_coherence(random_real_state(rng, 4), imag), str(rng.choice(ch.KINDS)), rng.uniform(size=3)
    ),
    "lindblad_evolve": lambda rng, imag: lindblad_evolve(
        tiny_coherence(random_real_state(rng, 2), imag),
        LindbladSpec((jump_operator(str(rng.choice(["bf", "ad"]))),), (rng.uniform(0.1, 1.0),), rng.uniform(0.0, 0.5)),
    ),
}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("name", DTYPE_CASES)
def test_public_functions_follow_the_one_dtype_rule(name, seed):
    real = DTYPE_CASES[name](np.random.default_rng(seed), 0.0)
    complex_ = DTYPE_CASES[name](np.random.default_rng(seed), TINY)
    assert real.dtype == np.float64 and complex_.dtype == np.complex128
    assert np.abs(complex_ - real).max() <= 1e-14


# constructors that take no complex input -> (their result, the same
# matrix computed in complex128)
REAL_CONSTRUCTORS = {
    "make_bds": lambda c: (
        qstate.make_bds(c),
        np.eye(4, dtype=complex) / 4 + sum(0.25 * ci * kron(p, p) for ci, p in zip(c, (SIGMA_X, SIGMA_Y, SIGMA_Z))),
    ),
    "entangled_theta": lambda c: (
        qstate.entangled_theta(c[0]),
        (lambda ket: np.outer(ket, ket.conj()))(np.array([np.cos(c[0]), 0, 0, np.sin(c[0])], dtype=complex)),
    ),
    "x_product_basis": lambda c: (
        qstate.x_product_basis(3),
        functools.reduce(np.kron, [qstate.HADAMARD] * 3),
    ),
}


@settings(max_examples=20, deadline=None)
@given(c=st.lists(st.floats(-1.0 / 3.0, 1.0 / 3.0), min_size=3, max_size=3))
@pytest.mark.parametrize("name", REAL_CONSTRUCTORS)
def test_real_constructors_return_float64(name, c):
    real, complex_ = REAL_CONSTRUCTORS[name](c)
    assert real.dtype == np.float64 and complex_.dtype == np.complex128
    assert np.abs(complex_ - real).max() <= 1e-14


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rate=st.floats(0.1, 2.0),
    duration=st.floats(0.0, 1.0),
)
def test_a_real_state_under_a_complex_liouvillian_keeps_its_imaginary_part(seed, rate, duration):
    # L = (sigma_x + i sigma_z) / sqrt2 gives a Liouvillian with nonzero
    # imaginary entries, so the evolved state is complex though rho0 is real
    jump = (SIGMA_X + 1j * SIGMA_Z) / np.sqrt(2.0)
    assert ch._liouvillian((jump,), (1.0,)).imag.any()
    rho = random_real_state(np.random.default_rng(seed), 2)
    spec = LindbladSpec((jump,), (rate,), duration)
    evolved = lindblad_evolve(rho, spec)
    # a complex128 cast of rho is exactly real, so it takes the same float64
    # intake; the complex route is the one of rho with a tiny imaginary part
    cast = lindblad_evolve(rho.astype(complex), spec)
    complex_ = lindblad_evolve(tiny_coherence(rho, TINY), spec)
    assert evolved.dtype == cast.dtype == complex_.dtype == np.complex128
    assert np.abs(evolved - cast).max() == 0.0
    assert np.abs(evolved - complex_).max() <= 1e-14
    grid = lindblad_evolve(rho, LindbladSpec((jump,), (rate,), [0.0, duration]))
    assert grid.dtype == np.complex128 and np.abs(grid[1] - evolved).max() == 0.0
