"""Ergotropy and its coherent/incoherent split for small qubit systems
under Markovian noise channels, with closed forms cross-checked against
a brute-force eigendecomposition pipeline."""

from .matcore import (
    IDENTITY_2,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SpectralDecomposition,
    herm_eig,
    kron,
    partial_trace,
    trace_norm,
)
from .qstate import (
    Hamiltonian,
    apply_hadamard_pair,
    bds_eigenvalues,
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
)
from .channels import (
    KINDS,
    LindbladSpec,
    apply_local,
    bds_param_map,
    bloch_map,
    jump_operator,
    kraus_set,
    lindblad_evolve,
    q_of_t,
)
from .workx import (
    ErgotropyReport,
    closed_form,
    coherence_degenerate,
    concurrence,
    decompose,
    dephase,
    ergotropy,
    l1_coherence,
    passive_state,
    threshold_q,
)
from .correlations import (
    CorrelationReport,
    correlation_work,
    gcc_bds,
    gcc_trace_norm,
    gqc_bds,
    gqc_trace_norm,
)
from .experiments import (
    EnhancementSummary,
    SweepResult,
    census_random,
    enhancement_summary,
    entangled_example,
    grid_delta_wc,
    interacting_depolarizing,
    lindblad_consistency,
    scaling_run,
    sweep_bds,
    sweep_single,
)

__version__ = "0.1.0"
