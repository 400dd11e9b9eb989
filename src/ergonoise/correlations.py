"""Geometric quantum/classical correlations of Bell-diagonal states and
the identity linking them to extractable work under unital noise.

For nonnegative parameters the closed forms are simply the intermediate
and the maximum of {c1, c2, c3}; the trace-norm route reproduces them
from the distance definitions and also accepts signed parameters.
``correlation_work_curve`` checks the identity along a whole q grid with
one Kraus evolution and one ``work_split`` per stack of states;
``correlation_work_check`` is its one-strength view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import trace_norm
# bds_eigenvalues is re-exported for callers that import it from here
from .qstate import IDENTITY_4, PAULI_PAIRS, Hamiltonian, bds_eigenvalues, hamiltonian, make_bds  # noqa: F401
from .channels import AMPLITUDE_DAMPING, ChannelSpec, apply_local_chunks, bds_param_map, canonical_kind, strengths
from .workx import ErgotropyReport, work_split

# the energy the work-correlation identity is stated for
Z_SUM_2 = hamiltonian("z_sum", 2)


def _require_nonnegative(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if (c < 0).any():
        raise ValueError(
            "closed-form correlations assume nonnegative parameters; "
            f"got {tuple(c)} (use the trace-norm route for signed values)"
        )
    return c


def gqc_bds(c) -> float:
    """Geometric quantum correlation: the intermediate of {c1, c2, c3}."""
    c = _require_nonnegative(c)
    return float(np.sort(c)[1])


def gcc_bds(c) -> float:
    """Geometric classical correlation: the largest of {c1, c2, c3}."""
    c = _require_nonnegative(c)
    return float(np.sort(c)[2])


def _closest_classical(c):
    """Index and matrix of the nearest one-axis classical state."""
    c = np.asarray(c, dtype=float)
    rho = make_bds(c)
    best = None
    for i in range(3):
        cl = IDENTITY_4 / 4.0 + 0.25 * c[i] * PAULI_PAIRS[i]
        dist = trace_norm(rho - cl)
        if best is None or dist < best[0]:
            best = (dist, i, cl)
    return best


def gqc_trace_norm(c) -> float:
    """min_i || rho - rho_cl^i ||_1 over the one-axis classical family."""
    return float(_closest_classical(c)[0])


def gcc_trace_norm(c) -> float:
    """|| rho_cl - I/4 ||_1 for the classical state closest to rho."""
    _, _, cl = _closest_classical(c)
    return float(trace_norm(cl - IDENTITY_4 / 4.0))


@dataclass(frozen=True)
class CorrelationReport:
    """Correlations vs extractable work for one evolved Bell-diagonal state,
    or along a q grid with every number a length-Q array."""

    gqc: float
    gcc: float
    average: float
    ergotropy: ErgotropyReport
    residual: float
    identity_valid: bool

    @property
    def total_ergotropy(self) -> float:
        return self.ergotropy.total

    def __getitem__(self, i: int) -> CorrelationReport:
        """The one-strength report of entry i of a curve."""
        gqc, gcc, average, residual = (
            float(x[i]) for x in (self.gqc, self.gcc, self.average, self.residual)
        )
        return CorrelationReport(gqc, gcc, average, self.ergotropy[i], residual, self.identity_valid)


def correlation_work_curve(
    c, kind: str, q_grid, both_qubits: bool = True, h: Hamiltonian | None = None
) -> CorrelationReport:
    """Compare total ergotropy against the correlation average along q_grid.

    The evolved work comes from the full Kraus + eigendecomposition
    pipeline, evaluated in stacks of at most ``STACK_BUDGET_BYTES``, the
    correlations from the mapped parameters. For unital channels the
    residual vanishes identically; amplitude damping is reported with
    ``identity_valid=False`` since the mapped-parameter formulas no
    longer describe the evolved (non-Bell-diagonal) state.
    """
    kind = canonical_kind(kind)
    qs = strengths(q_grid)
    c = _require_nonnegative(c)
    rho = make_bds(c)
    h = Z_SUM_2 if h is None else h
    valid = kind != AMPLITUDE_DAMPING
    if valid:
        mapped = np.array([bds_param_map(ChannelSpec(kind, q), c, both_qubits) for q in qs])
    else:
        mapped = np.empty((len(qs), 3))
    work = np.empty((6, len(qs)))
    for part, states in apply_local_chunks(rho, kind, qs, (0, 1) if both_qubits else (0,)):
        work[:, part] = list(vars(work_split(states, h)).values())
        if not valid:
            # the evolved state is no longer Bell diagonal; feed the formulas
            # the measured correlation functions Tr[rho sigma_i x sigma_i]
            mapped[part] = np.trace(states[:, None] @ PAULI_PAIRS, axis1=2, axis2=3).real
    ergotropy = ErgotropyReport(*work)
    gqc, gcc = np.sort(np.abs(mapped), axis=1)[:, 1:].T
    average = 0.5 * (gqc + gcc)
    return CorrelationReport(gqc, gcc, average, ergotropy, ergotropy.total - average, valid)


def correlation_work_check(
    c,
    spec: ChannelSpec,
    both_qubits: bool = True,
    h: Hamiltonian | None = None,
) -> CorrelationReport:
    """The one-strength view of ``correlation_work_curve``."""
    return correlation_work_curve(c, spec.kind, [spec.q], both_qubits, h)[0]
