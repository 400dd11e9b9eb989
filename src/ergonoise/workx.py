"""Passive states, ergotropy and its coherent/incoherent split, coherence
measures, enhancement thresholds, and two-qubit concurrence.

Energies are reported in units of the single-qubit gap (B = 1). The
split follows W = W_inc + W_coh with W_inc the ergotropy of the state
dephased in the energy eigenbasis; for degenerate Hamiltonians the
dephasing convention is the one the ``qstate.Hamiltonian`` carries, and
a raw Hermitian matrix dephases by its spectral blocks.

One private core computes the split for a whole (B, d, d) stack of
states: the energies as one einsum, the state spectra as one batched
eigvalsh (which also validates every state), and the dephased spectra
either as the sorted diagonal of V^dag rho V, when the dephasing keeps
only that diagonal, or as one batched eigvalsh of the kept blocks. The
Hamiltonian side (its levels and dephasing frame) is computed once per
``Hamiltonian`` object. ``decompose`` is the one-state case and
``coherent_work`` the stacked one.

The single-qubit closed forms read no channel kind: the Bloch vector m
from ``channels.bloch_map`` and one row (axis, sign, e0, g) per basis,
writing the Hamiltonian as e0 + g (u . sigma), give the whole split from
m's component along u. The enhancement thresholds are one table keyed by
(kind, basis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import SIGMA_Y, as_matrix, herm_eig, kron, state_spectra
from . import channels as ch
# total_spin_squared is re-exported: bench/tests/test_bench.py traces this binding
from .qstate import Hamiltonian, require_bloch, total_spin_squared  # noqa: F401


def _hamiltonian(h, rho) -> Hamiltonian:
    """h as a ``Hamiltonian`` (a raw Hermitian matrix gets block dephasing),
    checked against the dimension of a state or a stack of states."""
    h = h if isinstance(h, Hamiltonian) else Hamiltonian(h, "matrix")
    if rho.shape[-2:] != h.matrix.shape:
        raise ValueError(
            f"state dimension {rho.shape[-1]} does not match Hamiltonian {h.matrix.shape[0]}"
        )
    return h


def passive_state(rho, h) -> np.ndarray:
    """Unitary image of rho with populations anti-ordered against energies.

    Descending state eigenvalues are paired with ascending energy levels;
    within a degenerate level the pairing order cannot change the energy,
    so the stable index order is used. A matrix that is not a state is
    rejected naming the violation, as in ``decompose``.
    """
    rho = as_matrix(rho)
    h = _hamiltonian(h, rho)
    lam = state_spectra(rho)[::-1]
    evals, evecs = herm_eig(h.matrix)
    return (evecs * lam) @ evecs.conj().T


def passive_energy(rho, h) -> float:
    """Tr[H pi_rho] without building the passive state; rho must be a state."""
    rho = as_matrix(rho)
    h = _hamiltonian(h, rho)
    return float(np.dot(state_spectra(rho)[::-1], h.levels).real)


def ergotropy(rho, h) -> float:
    """Maximum unitarily extractable energy Tr[H (rho - pi_rho)]."""
    rho = as_matrix(rho)
    h = _hamiltonian(h, rho)
    return float(np.trace(h.matrix @ rho).real) - passive_energy(rho, h)


def dephase(rho, h) -> np.ndarray:
    """Strip coherences between distinct energy levels of h.

    The convention is the Hamiltonian's own: with a product ``basis``
    every off-diagonal element in that basis is removed (what the closed
    forms for product Hamiltonians assume); otherwise each level block is
    kept intact, split further by total spin J^2 for a ``collective``
    Hamiltonian. A raw matrix keeps its level blocks.
    """
    rho = as_matrix(rho)
    v, same_level = _hamiltonian(h, rho).frame
    a = v.conj().T @ rho @ v
    return v @ (a * same_level) @ v.conj().T


def l1_coherence(rho, basis) -> float:
    """Sum of off-diagonal magnitudes of rho in the given basis."""
    v = as_matrix(basis)
    a = v.conj().T @ as_matrix(rho) @ v
    return float(np.abs(a).sum() - np.abs(np.diag(a)).sum())


@dataclass(frozen=True)
class ErgotropyReport:
    """Work accounting for one (state, Hamiltonian) pair."""

    total: float
    incoherent: float
    coherent: float
    passive_energy: float
    dephased_passive_energy: float
    l1_coherence: float


def _work_split(rhos, h):
    """Energy, passive energy, dephased passive energy and l1 coherence of
    every state in a (B, d, d) stack, as four length-B arrays, dephased by
    the convention of h. Every state is validated (Hermitian, trace one,
    PSD) from its spectrum.
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.ndim != 3:
        raise ValueError(f"expected a (B, d, d) stack of states, got shape {rhos.shape}")
    h = _hamiltonian(h, rhos)
    lam = state_spectra(rhos)
    v, same_level = h.frame
    a = v.conj().T @ rhos @ v
    diagonal = np.diagonal(a, axis1=1, axis2=2)
    if same_level.sum() == len(same_level):
        # the dephased state is diagonal in v: its spectrum is that diagonal
        lam_deph = np.sort(diagonal.real, axis=1)
    else:
        lam_deph = np.linalg.eigvalsh(a * same_level)
    energy = np.einsum("ij,bji->b", h.matrix, rhos).real
    coherence = np.abs(a).sum(axis=(1, 2)) - np.abs(diagonal).sum(axis=1)
    return energy, lam[:, ::-1] @ h.levels, lam_deph[:, ::-1] @ h.levels, coherence


def decompose(rho, h) -> ErgotropyReport:
    """Split the ergotropy of rho into incoherent and coherent parts.

    The dephasing convention is the one h carries (see ``dephase``), and
    the report's coherence is measured in its dephasing basis. A matrix
    that is not a state (non-Hermitian, trace other than one,
    or an eigenvalue below -PSD_TOL) is rejected naming the violation.
    """
    energy, e_passive, e_passive_deph, coherence = (
        float(x[0]) for x in _work_split(as_matrix(rho)[None], h)
    )
    total = energy - e_passive
    incoherent = energy - e_passive_deph
    return ErgotropyReport(
        total=total,
        incoherent=incoherent,
        coherent=total - incoherent,
        passive_energy=e_passive,
        dephased_passive_energy=e_passive_deph,
        l1_coherence=coherence,
    )


def coherent_work(rhos, h) -> np.ndarray:
    """Coherent work of every state in a (B, d, d) stack, as ``decompose``
    computes it for each one, with one batched pass."""
    energy, e_passive, e_passive_deph, _ = _work_split(rhos, h)
    return (energy - e_passive) - (energy - e_passive_deph)


# ---------------------------------------------------------------------------
# single-qubit closed forms
# ---------------------------------------------------------------------------

# The single-qubit Hamiltonians of the closed forms, as e0 + g (u . sigma)
# with u = sign * (unit vector along axis): (axis, sign, e0, g), and the
# channel kinds each basis has closed forms for.
_BASES = {
    "computational": ((2, -1.0, 0.5, 0.5), ch.KINDS),  # diag(0, 1), gap 1
    "x": ((0, 1.0, 0.0, 1.0), (ch.PHASE_FLIP, ch.PHASE_DAMPING)),  # sigma_x, gap 2
}


def closed_form_single(kind: str, q: float, n, basis: str = "computational") -> ErgotropyReport:
    """Analytic work split for one qubit under a channel.

    The evolved Bloch vector m = ``bloch_map`` splits into m_u along the
    Hamiltonian's axis and the rest: W_I = g (m_u + |m_u|) and
    W_C = g (|m| - |m_u|) <= g C, with C the off-axis length (the l1
    coherence). Every kind has the computational basis (diag(0, 1), so
    W_C <= C/2); the x basis (sigma_x) is derived for the dephasing
    kinds only.
    """
    spec = ch.ChannelSpec(kind, q)
    m = ch.bloch_map(spec, n)
    if basis not in _BASES:
        raise ValueError(f"unknown basis choice {basis!r}")
    (axis, sign, e0, g), kinds = _BASES[basis]
    if spec.kind not in kinds:
        raise ValueError(f"no {basis}-basis closed form for {spec.kind!r}")
    norm = float(np.linalg.norm(m))
    m_u = sign * float(m[axis])
    incoherent = g * (m_u + abs(m_u))
    coherent = g * (norm - abs(m_u))
    e_passive = e0 - g * norm
    return ErgotropyReport(
        total=incoherent + coherent,
        incoherent=incoherent,
        coherent=coherent,
        passive_energy=e_passive,
        dephased_passive_energy=e_passive + coherent,
        l1_coherence=math.hypot(*np.delete(m, axis)),
    )


# (decaying, surviving) Bloch components whose ratio sets the enhancement
# threshold, per (kind, basis); the x basis swaps the roles of n3 and n1.
THRESHOLD_COMPONENTS = {
    (ch.BIT_FLIP, "computational"): (1, 2),  # (n2, n3)
    (ch.BIT_PHASE_FLIP, "computational"): (0, 2),  # (n1, n3)
    (ch.PHASE_FLIP, "x"): (1, 0),  # (n2, n1)
}


def threshold_q(kind: str, n, basis: str = "computational") -> float:
    """Noise strength beyond which the coherent work meets its noiseless value.

    q_b = 2 (na^2 + nb^2 - |nb| ||n||) / na^2 with (na, nb) the decaying
    and surviving components of the relevant pair. Values below 0 mean
    every strength enhances; above 1, none does. A vanishing denominator
    means no finite threshold exists (returned as +inf).
    """
    kind = ch.ALIASES.get(kind, kind)
    if (kind, basis) not in THRESHOLD_COMPONENTS:
        raise ValueError(f"no enhancement threshold derived for {kind!r} in the {basis} basis")
    n = require_bloch(n)
    ia, ib = THRESHOLD_COMPONENTS[kind, basis]
    na, nb = n[ia], n[ib]
    if na == 0.0:
        return float("inf")
    norm = float(np.linalg.norm(n))
    return float(2.0 * (na**2 + nb**2 - abs(nb) * norm) / na**2)


# ---------------------------------------------------------------------------
# two-qubit diagnostics
# ---------------------------------------------------------------------------

_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
_PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)


def coherence_degenerate(rho) -> float:
    """Coherence carried by the degenerate level of the interacting Hamiltonian.

    Measured as the eigenvalue splitting of the 2x2 block of rho on
    span{(|ge>-|eg>)/sqrt2, (|gg>-|ee>)/sqrt2}. When the block populations
    balance this equals twice the off-diagonal magnitude between the two
    vectors; unbalanced populations expose the same coherence in a rotated
    intra-level basis.
    """
    rho = as_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("expected a two-qubit state")
    block = np.array(
        [
            [_PSI_MINUS.conj() @ rho @ _PSI_MINUS, _PSI_MINUS.conj() @ rho @ _PHI_MINUS],
            [_PHI_MINUS.conj() @ rho @ _PSI_MINUS, _PHI_MINUS.conj() @ rho @ _PHI_MINUS],
        ]
    )
    vals = np.linalg.eigvalsh(block)
    return float(vals[-1] - vals[0])


def concurrence(rho) -> float:
    """Two-qubit entanglement via the spin-flip construction.

    max(0, l1 - l2 - l3 - l4) with l_i the descending square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy). Those roots equal the
    singular values of sqrt(rho) (sy x sy) conj(sqrt(rho)), which avoids
    the sqrt-of-near-zero precision loss of the eigenvalue route.
    """
    rho = as_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("expected a two-qubit state")
    vals, vecs = herm_eig(rho)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    yy = kron(SIGMA_Y, SIGMA_Y)
    sing = np.linalg.svd(root @ yy @ root.conj(), compute_uv=False)
    return float(max(0.0, sing[0] - sing[1] - sing[2] - sing[3]))
