"""The paper's claims about noise and coherent work, as properties.

Each test quotes the claim it checks (arXiv 2602.18860, abstract) and
checks it through the dense Kraus pipeline: ``apply_local`` images split
by ``decompose``, which reads no closed form, threshold or parameter map.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ergonoise.channels import CORRELATED_BIT_FLIP, KINDS, UNITAL_KINDS, apply_local, bds_param_map
from ergonoise.correlations import Z_SUM_2
from ergonoise.qstate import bloch_to_density, hamiltonian, make_bds
from ergonoise.workx import THRESHOLD_COMPONENTS, decompose, threshold_q

Q_GRID = np.linspace(0.0, 1.0, 201)
BDS_Q_GRID = np.linspace(0.0, 1.0, 21)
SINGLE_QUBIT_KINDS = tuple(kind for kind in KINDS if kind != CORRELATED_BIT_FLIP)
# the Bell states' correlation vectors (c1, c2, c3): the tetrahedron's vertices
BELL_VERTICES = np.array([(-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)], dtype=float)
# the single-qubit Hamiltonian of each basis: diag(0, 1), and sigma_x in its own basis
BASIS_HAMILTONIANS = {"computational": hamiltonian("excitation", 1), "x": hamiltonian("x_sum", 1)}

# Bloch vectors on a lattice of spacing 1/20 inside the ball: every gain the
# threshold tests compare is then far above rounding
bloch_vectors = st.tuples(*[st.integers(-20, 20)] * 3).filter(
    lambda k: 0 < sum(v * v for v in k) <= 400
).map(lambda k: np.array(k) / 20.0)


def coherent_gains(rho0, kind, h, targets=None, q_grid=Q_GRID):
    """W_C(q) - W_C(0) along the grid, from the dense Kraus images."""
    images = apply_local(rho0, kind, q_grid, targets)
    return decompose(images, h).coherent - decompose(rho0, h).coherent


@settings(max_examples=30, deadline=None)
@given(weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0))
@example(weights=[1.0, 0.0, 0.0, 0.0])
@example(weights=[0.4, 0.3, 0.2, 0.1])
def test_bell_diagonal_states_gain_no_coherent_work(weights):
    """"For Bell-diagonal states [...] no enhancement of coherent ergotropy
    occurs": under every kind on both qubits and every single-qubit kind
    on one qubit, W_C(q) never exceeds W_C(0). Unital noise keeps the state
    Bell diagonal, at the parameters ``bds_param_map`` gives."""
    c = np.asarray(weights) @ BELL_VERTICES / sum(weights)
    rho0 = make_bds(c)
    for kind in KINDS:
        assert coherent_gains(rho0, kind, Z_SUM_2, q_grid=BDS_Q_GRID).max() <= 1e-12, kind
    for kind in SINGLE_QUBIT_KINDS:
        assert coherent_gains(rho0, kind, Z_SUM_2, [0], BDS_Q_GRID).max() <= 1e-12, kind
    for kind in UNITAL_KINDS + (CORRELATED_BIT_FLIP,):
        for both, targets in ((True, None), (False, [0])):
            if kind == CORRELATED_BIT_FLIP and not both:
                continue
            mapped = np.array([make_bds(m) for m in bds_param_map(kind, BDS_Q_GRID, c, both)])
            assert np.abs(apply_local(rho0, kind, BDS_Q_GRID, targets) - mapped).max() <= 1e-12, (kind, both)


@settings(max_examples=60, deadline=None)
@given(n=bloch_vectors, case=st.sampled_from(sorted(THRESHOLD_COMPONENTS)))
@example(n=np.array([0.6, 0.5, 0.4]), case=("bit_flip", "computational"))
@example(n=np.array([0.3, 0.8, 0.5]), case=("phase_flip", "x"))
def test_threshold_marks_the_enhancement_region(n, case):
    """"For single-qubit systems, we derive explicit conditions for freezing
    and even enhancement of the coherent work": past q_b = ``threshold_q``
    the coherent work exceeds its noiseless value, and below it, it falls
    short. Strengths within 1e-3 of q_b are left out."""
    kind, basis = case
    assume(n[THRESHOLD_COMPONENTS[case][0]] != 0.0)  # the vanishing case is tested below
    q_b = threshold_q(kind, n, basis)
    gains = coherent_gains(bloch_to_density(n), kind, BASIS_HAMILTONIANS[basis])
    noisy = (Q_GRID > 0.0) & (np.abs(Q_GRID - q_b) > 1e-3)
    above, below = noisy & (Q_GRID > q_b), noisy & (Q_GRID < q_b)
    assert (gains[above] > 0.0).all()
    assert (gains[below] < 0.0).all()


# (kind, basis, Bloch vector) with a vanishing decaying component: the
# other two nonzero, so every strength enhances, or one of them zero too,
# so the coherent work is frozen
VANISHING_DECAY_ENHANCES = [
    ("bit_flip", "computational", (0.3, 0.0, 0.5)),  # W_C grows from 0.0415 at q = 0 to 0.15 at q = 1
    ("bit_phase_flip", "computational", (0.0, 0.3, 0.5)),
    ("phase_flip", "x", (0.5, 0.0, 0.3)),
]
VANISHING_DECAY_FROZEN = [
    ("bit_flip", "computational", (0.0, 0.0, 0.5)),
    ("bit_flip", "computational", (0.3, 0.0, 0.0)),
    ("phase_flip", "x", (0.5, 0.0, 0.0)),
]


def test_threshold_marks_the_enhancement_region_when_the_decaying_component_vanishes():
    for kind, basis, n in VANISHING_DECAY_ENHANCES:
        gains = coherent_gains(bloch_to_density(n), kind, BASIS_HAMILTONIANS[basis])
        assert (gains[1:] > 0.0).all(), (kind, basis)
        assert threshold_q(kind, n, basis) == -np.inf, (kind, basis)
    for kind, basis, n in VANISHING_DECAY_FROZEN:
        gains = coherent_gains(bloch_to_density(n), kind, BASIS_HAMILTONIANS[basis])
        assert np.abs(gains).max() <= 1e-15, (kind, basis)
        assert threshold_q(kind, n, basis) == np.inf, (kind, basis)


@settings(max_examples=40, deadline=None)
@given(n=bloch_vectors, kind=st.sampled_from(["depolarizing", "phase_flip", "phase_damping"]))
def test_dephasing_and_depolarizing_never_enhance_in_the_computational_basis(n, kind):
    """The enhancement under "phase flip and depolarizing channels that are
    typically expected to destroy coherence" needs a suitable energy basis:
    in the computational one, depolarizing, phase flip and phase damping
    never raise a qubit's coherent work."""
    gains = coherent_gains(bloch_to_density(n), kind, BASIS_HAMILTONIANS["computational"])
    assert gains.max() <= 1e-12
