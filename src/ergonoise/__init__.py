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
    ChannelSpec,
    KINDS,
    LindbladSpec,
    apply_local,
    apply_local_grid,
    bds_param_grid,
    bds_param_map,
    bloch_map,
    bloch_map_grid,
    jump_operator,
    kraus_set,
    lindblad_evolve,
    q_of_t,
)
from .workx import (
    ErgotropyReport,
    closed_form_curve,
    closed_form_single,
    coherence_degenerate,
    coherence_degenerate_stack,
    concurrence,
    concurrence_stack,
    decompose,
    dephase,
    ergotropy,
    l1_coherence,
    passive_state,
    threshold_q,
    work_split,
)
from .correlations import (
    CorrelationReport,
    bds_eigenvalues,
    correlation_work_check,
    correlation_work_curve,
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
