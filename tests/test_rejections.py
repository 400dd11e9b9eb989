import re

import numpy as np
import pytest

from ergonoise.channels import LindbladSpec, apply_local, jump_operator, q_of_t
from ergonoise.experiments import SweepResult, _wc_curves, census_random, channel_hamiltonian, q_grid_default, scaling_run
from ergonoise.matcore import kron, num_qubits, partial_trace, spin_blocks, state_spectra
from ergonoise.qstate import (
    _class_hamiltonian,
    _symmetrized_classes,
    density_to_bloch,
    hamiltonian,
    make_bds,
    philox_stream,
    random_separable,
    require_bloch,
    symmetric_pair,
    symmetrized_multipartite,
)

L = jump_operator("bf")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LindbladSpec((L, L), (0.5,), 1.0), "need one rate per jump operator"),
        (lambda: LindbladSpec((L,), (-0.5,), 1.0), "rates must be nonnegative"),
        (lambda: q_of_t("bf", -1.0, 0.5), "gamma and t must be nonnegative"),
        (lambda: q_grid_default(1), "grids need at least two points"),
        (lambda: SweepResult({"a": np.arange(2), "b": np.arange(1)}), "ragged columns: lengths [1, 2]"),
        (lambda: channel_hamiltonian("dc", 3), "xx_interacting is a two-qubit Hamiltonian"),
        (
            lambda: state_spectra(np.empty((0, 4, 4))),
            "expected a matrix or a non-empty stack of matrices, got shape (0, 4, 4)",
        ),
        (lambda: kron(), "kron needs at least one operator"),
        (lambda: num_qubits(np.eye(3)), "dimension 3 is not a power of two"),
        (lambda: spin_blocks(0), "spin blocks need at least one qubit"),
        (lambda: spin_blocks(2.5), "qubit count 2.5 is not an integer"),
        (lambda: partial_trace(np.eye(4) / 4, [0.7]), "qubit index 0.7 is not an integer"),
        (lambda: apply_local(np.eye(4) / 4, "ad", 0.5, [0.9]), "qubit index 0.9 is not an integer"),
        (lambda: scaling_run(kinds=["bf"], n_values=[2.9]), "register size 2.9 is not an integer"),
        (lambda: philox_stream(1.5), "seed 1.5 is not an integer"),
        (lambda: philox_stream(3, 0.5), "stream 0.5 is not an integer"),
        (lambda: random_separable(1.5), "seed 1.5 is not an integer"),
        (lambda: census_random("bf", count=2.5), "sample count 2.5 is not an integer"),
        (lambda: census_random("bf", count=2, num_terms=1.5), "term count 1.5 is not an integer"),
        (lambda: q_grid_default(10.5), "grid point count 10.5 is not an integer"),
        (lambda: scaling_run(kinds=["bf"], n_values=[2], q_points=10.5), "grid point count 10.5 is not an integer"),
        (lambda: require_bloch([0.1, 0.2]), "Bloch vector must have three components"),
        (lambda: density_to_bloch(np.eye(4) / 4), "expected a single-qubit state"),
        (lambda: make_bds([0.1, 0.2]), "Bell-diagonal parameters must be a real triple"),
        (lambda: symmetric_pair(1.5, 0.2, 0.1, 0.1), "mixing weight 1.5 outside [0, 1]"),
        (lambda: symmetrized_multipartite(0.2, []), "need at least one local coherence"),
        (lambda: hamiltonian("excitation", 0), "need at least one qubit"),
        (lambda: hamiltonian("z_plus_xx", 3), "z_plus_xx is a two-qubit Hamiltonian"),
        (lambda: hamiltonian("excitation", 2.5), "qubit count 2.5 is not an integer"),
        (lambda: _class_hamiltonian("excitation", 2.5), "qubit count 2.5 is not an integer"),
        (
            lambda: _wc_curves(
                _symmetrized_classes(0.2, [0.1, 0.12, 0.14, 0.16]), ["pf"], [hamiltonian("x_sum", 4)], q_grid_default(5)
            ),
            "class coordinates need qstate.ClassHamiltonian Hamiltonians, got Hamiltonian",
        ),
        (
            lambda: _wc_curves(np.eye(4) / 4, ["bf"], [_class_hamiltonian("excitation", 2)], q_grid_default(5)),
            "dense states need qstate.Hamiltonian Hamiltonians, got ClassHamiltonian",
        ),
        # rho0 shares its dense split with its images, which carry its violation
        (
            lambda: _wc_curves(np.diag([0.6, 0.5, 0.1, -0.2]), ["bf"], [hamiltonian("excitation", 2)], q_grid_default(5)),
            "state is not PSD: min eigenvalue -2.000e-01",
        ),
        (
            lambda: _wc_curves(np.diag([0.5, 0.3, 0.25, 0.15]), ["pf"], [hamiltonian("x_sum", 2)], q_grid_default(5)),
            "state trace is 1.2",
        ),
    ],
)
def test_invalid_input_is_rejected_naming_the_constraint(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
