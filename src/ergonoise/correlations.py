"""Geometric quantum/classical correlations of Bell-diagonal states and
the identity linking them to extractable work under unital noise.

For nonnegative parameters the closed forms are simply the intermediate
and the maximum of {c1, c2, c3}; the trace-norm route reproduces them
from the distance definitions and also accepts signed parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import IDENTITY_2, PAULIS, kron, trace_norm
from .qstate import Hamiltonian, hamiltonian, make_bds
from .channels import (
    AMPLITUDE_DAMPING,
    ChannelSpec,
    apply_local,
    bds_param_map,
)
from .workx import ErgotropyReport, decompose

RESIDUAL_TOL = 1e-10


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
        cl = kron(IDENTITY_2, IDENTITY_2) / 4.0 + 0.25 * c[i] * kron(PAULIS[i], PAULIS[i])
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
    return float(trace_norm(cl - kron(IDENTITY_2, IDENTITY_2) / 4.0))


def bds_eigenvalues(c) -> np.ndarray:
    """The four closed-form eigenvalues, in sign-pattern order.

    Patterns (---), (++-), (+-+), (-++) applied to (c1, c2, c3); these
    are the populations of the Bell states Psi-, Psi+, Phi+, Phi-.
    """
    c = np.asarray(c, dtype=float)
    signs = np.array([(-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)], dtype=float)
    return (1.0 + signs @ c) / 4.0


@dataclass(frozen=True)
class CorrelationReport:
    """Correlations vs extractable work for one evolved Bell-diagonal state."""

    gqc: float
    gcc: float
    average: float
    ergotropy: ErgotropyReport
    residual: float
    identity_valid: bool

    @property
    def total_ergotropy(self) -> float:
        return self.ergotropy.total


def correlation_work_check(
    c,
    spec: ChannelSpec,
    both_qubits: bool = True,
    h: Hamiltonian | None = None,
) -> CorrelationReport:
    """Compare total ergotropy against the correlation average.

    The evolved work comes from the full Kraus + eigendecomposition
    pipeline, the correlations from the mapped parameters. For unital
    channels the residual vanishes identically; amplitude damping is
    reported with ``identity_valid=False`` since the mapped-parameter
    formulas no longer describe the evolved (non-Bell-diagonal) state.
    """
    c = _require_nonnegative(c)
    if h is None:
        h = hamiltonian("z_sum", 2)
    rho = make_bds(c)
    targets = (0, 1) if both_qubits else (0,)
    evolved = apply_local(rho, spec, targets)
    work = decompose(evolved, h)

    if spec.kind == AMPLITUDE_DAMPING:
        # the evolved state is no longer Bell diagonal; feed the formulas
        # the measured correlation functions Tr[rho sigma_i x sigma_i]
        mapped = np.array(
            [
                float(np.trace(evolved @ kron(p, p)).real)
                for p in PAULIS
            ]
        )
        valid = False
    else:
        mapped = bds_param_map(spec, c, both_qubits)
        valid = True
    gqc = gqc_bds(np.abs(mapped))
    gcc = gcc_bds(np.abs(mapped))
    average = 0.5 * (gqc + gcc)
    return CorrelationReport(
        gqc=gqc,
        gcc=gcc,
        average=average,
        ergotropy=work,
        residual=work.total - average,
        identity_valid=valid,
    )
