"""Passive states, ergotropy and its coherent/incoherent split, coherence
measures, enhancement thresholds, and two-qubit concurrence.

Energies are reported in units of the single-qubit gap (B = 1). The
split follows W = W_inc + W_coh with W_inc the ergotropy of the state
dephased in the energy eigenbasis; for degenerate Hamiltonians the
dephasing convention is the one the ``qstate.Hamiltonian`` carries, and
a raw Hermitian matrix dephases by its spectral blocks.

The split and the two-qubit diagnostics take one (d, d) state or a
(B, d, d) stack and return the matching shape: numbers for a state,
length-B arrays for a stack. One state is evaluated as a stack of one,
so its result is bitwise entry 0 of that stack's. Likewise the closed
forms take a noise strength q as a number or a grid.

``decompose`` computes the split for a whole stack at once, by brute
force: the energies as one einsum, the state spectra as one batched
eigvalsh (``matcore.state_spectra``, which also validates every state),
and the dephased spectra either as the sorted diagonal of V^dag rho V,
when the dephasing keeps only that diagonal, or as one batched eigvalsh
of the kept blocks. An identity frame (``product_basis`` with no basis:
``excitation``, ``z_sum``) reads the diagonal of rho itself, with no
product. It never probes a state for symmetry, so it is the oracle of
the block route below. The Hamiltonian side (its levels and frames) is
computed once per ``Hamiltonian`` object. ``ergotropy`` is a separate
route the tests compare it against.

W_C has one expression on both spectral splits (``decompose`` and the
block route's ``_block_coherent``): ``_coherent``, the dephased passive
energy less the passive energy, read from the two spectra against the
levels. Tr H rho, which cancels, is never read, so W_C equals the
report's total less its incoherent part only to rounding.

The block route serves whole noise curves of one permutation-invariant
state given by its class coordinates (``matcore``: one value per class
of entries, C(n+3, 3) of them), under the same channel on every qubit
(``_block_coherent``). It takes the images in class coordinates and
splits them against one or more Hamiltonians, each on its own rows.
Everything but the spectra (the spin blocks W_J^T rho W_J, Tr rho and
diag rho) is read from those coordinates by a fixed linear map. The
state side (the blocks, the checks and one eigvalsh per spin block) is
done once for all rows; only the dephased side is per Hamiltonian. The
Hamiltonians are held in class coordinates too (``qstate.ClassHamiltonian``)
and dephase blockwise: a collective one in the eigenbasis of W_J^T H W_J
(its ``spin_frames``), where J^2 is constant, so no 2^n-sized matrix is
formed or solved.

The single-qubit closed forms read no channel kind: the Bloch vectors m
from ``channels.bloch_map`` and one row (axis, sign, e0, g) per basis,
writing the Hamiltonian as e0 + g (u . sigma), give the whole split
from m's component along u (``closed_form``). The enhancement
thresholds are one table keyed by (kind, basis).

The two-qubit diagnostics are ``concurrence`` (one batched eigh and one
batched SVD) and ``coherence_degenerate`` (one batched eigvalsh of the
2x2 degenerate-level blocks).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    _block_spectrum,
    _class_block_parts,
    _class_diagonal,
    _class_trace,
    _require_hermitian,
    _require_psd,
    _require_trace,
    _spin_spectrum,
    as_matrix,
    as_stack,
    state_spectra,
)
from . import channels as ch
from .qstate import Hamiltonian, require_bloch


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
    rejected naming the violation, as in ``decompose``. The energy
    eigenbasis is the one cached on the ``Hamiltonian``.
    """
    rho = as_matrix(rho)
    h = _hamiltonian(h, rho)
    lam = state_spectra(rho)[::-1]
    evecs = h.eigenbasis.eigenvectors
    return (evecs * lam) @ evecs.conj().T


def ergotropy(rho, h) -> float:
    """Maximum unitarily extractable energy Tr[H (rho - pi_rho)], with
    Tr[H pi_rho] read from the spectrum without building pi_rho."""
    rho = as_matrix(rho)
    h = _hamiltonian(h, rho)
    e_passive = float(np.dot(state_spectra(rho)[::-1], h.levels).real)
    return float(np.trace(h.matrix @ rho).real) - e_passive


def dephase(rho, h) -> np.ndarray:
    """Strip coherences between distinct energy levels of h.

    The convention is the Hamiltonian's own ``dephasing``: under
    ``product_basis`` every off-diagonal element in its basis (the
    computational one when it has none) is removed (what the closed forms
    for product Hamiltonians assume); otherwise each level block is kept
    intact, split further by total spin J^2 under ``collective``. A raw
    matrix keeps its level blocks.
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
    """Work accounting for one (state, Hamiltonian) pair, or for a stack
    of states or a grid of strengths with every field an array.

    ``l1_coherence`` is the l1 norm of the off-diagonal entries in the
    Hamiltonian's dephasing frame. Where that frame has degenerate kept
    blocks, as collective frames do from three qubits on, the basis
    inside each block is LAPACK's choice and the l1 value depends on it
    (at N = 3 under phase flip it moved from 1.4855 to 1.5014 under a
    unitary inside the blocks); the work values, read from the dephased
    spectrum, do not.
    """

    total: float
    incoherent: float
    coherent: float
    passive_energy: float
    dephased_passive_energy: float
    l1_coherence: float

    def __getitem__(self, i: int) -> ErgotropyReport:
        """The one-state report of entry i of a stacked report."""
        return ErgotropyReport(*(float(x[i]) for x in vars(self).values()))


def _dephased_spectra(a, same_level) -> np.ndarray:
    """Ascending spectra of a (..., k, k) stack, given in a dephasing frame
    with kept-entry mask same_level, once dephased: the sorted diagonal
    when only the diagonal is kept, else eigvalsh of the kept entries."""
    if same_level.sum() == len(same_level):
        return np.sort(np.diagonal(a, axis1=-2, axis2=-1).real, axis=-1)
    return np.linalg.eigvalsh(a * same_level)


def _coherent(lam, lam_deph, levels) -> np.ndarray:
    """W_C of a stack of states from its ascending spectra and ascending
    dephased spectra: the dephased passive energy less the passive energy,
    with no Tr H rho, which cancels. Every split reads W_C from here."""
    return (lam_deph - lam)[:, ::-1] @ levels


def _split(energy, lam, lam_deph, levels) -> tuple[np.ndarray, ...]:
    """The report's work fields, in order, from the energies, the ascending
    spectra and the ascending dephased spectra of a stack of states."""
    e_passive = lam[:, ::-1] @ levels
    e_passive_deph = lam_deph[:, ::-1] @ levels
    coherent = _coherent(lam, lam_deph, levels)
    return energy - e_passive, energy - e_passive_deph, coherent, e_passive, e_passive_deph


def decompose(rho, h) -> ErgotropyReport:
    """Split the ergotropy of one (d, d) state into incoherent and coherent
    parts, as a report of numbers, or of every state of a (B, d, d) stack,
    as a report of length-B arrays.

    The dephasing convention is the one h carries (see ``dephase``), and
    the report's coherence is measured in its dephasing basis. Every
    state is validated (Hermitian, trace one, PSD) from its spectrum; a
    matrix that is not a state is rejected naming the violation.

    The states enter through ``matcore.as_stack``: those with no nonzero
    imaginary part are split in float64 (every product, spectrum and
    frame real when h's are), any other in complex128; the report holds
    real numbers either way.
    """
    rhos, single = as_stack(rho)
    h = _hamiltonian(h, rhos)
    lam = state_spectra(rhos)
    v, same_level = h.frame
    a = rhos if h.identity_frame else v.conj().T @ rhos @ v
    diagonal = np.diagonal(a, axis1=1, axis2=2)
    lam_deph = _dephased_spectra(a, same_level)
    energy = np.einsum("ij,bji->b", h.matrix, rhos).real
    report = ErgotropyReport(
        *_split(energy, lam, lam_deph, h.levels),
        l1_coherence=np.abs(a).sum(axis=(1, 2)) - np.abs(diagonal).sum(axis=1),
    )
    return report[0] if single else report


def _block_coherent(coords, groups) -> np.ndarray:
    """Coherent work of the (R,) stack of permutation-invariant states on n
    qubits given by their (R, D) class coordinates. ``groups`` pairs each
    ``qstate.ClassHamiltonian`` on n qubits with the slice of rows split
    against it; the slices cover every row.

    The state side is done once for all rows: the spin blocks
    W_J^T rho W_J (``matcore._class_block_parts``) and Tr rho are read
    from the coordinates, every state is validated as ``decompose``
    validates one (Hermitian on its blocks, trace one, PSD), and its
    spectrum is one eigvalsh per spin block. Per Hamiltonian, the dephased
    spectra are diag rho sorted (``matcore._class_diagonal``) or, under a
    collective one, each block dephased in its spin frame and spread
    (``matcore._spin_spectrum``), read against its ``levels`` by
    ``_coherent``.
    """
    n = groups[0][0].num_qubits
    parts = _class_block_parts(coords, n)
    for p in parts:
        _require_hermitian(p)
    _require_trace(_class_trace(coords, n).real)
    lam = _block_spectrum(parts, n)
    _require_psd(lam)
    wc = np.empty(len(coords))
    for h, rows in groups:
        if h.spin_frames is None:
            lam_deph = np.sort(_class_diagonal(coords[rows], n).real, axis=-1)
        else:
            lam_deph = _spin_spectrum(
                [_dephased_spectra(u.conj().T @ p[rows] @ u, kept) for p, (u, kept, _) in zip(parts, h.spin_frames)],
                n,
            )
        wc[rows] = _coherent(lam[rows], lam_deph, h.levels)
    return wc


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


def closed_form(kind: str, q, n, basis: str = "computational") -> ErgotropyReport:
    """Analytic work split for one qubit at noise strength q: a report of
    numbers for a number q, of length-Q arrays for a grid.

    The evolved Bloch vectors m = ``bloch_map`` split into m_u along
    the Hamiltonian's axis and the rest: W_I = g (m_u + |m_u|) and
    W_C = g (|m| - |m_u|) <= g C, with C the off-axis length (the l1
    coherence). Every kind has the computational basis (diag(0, 1), so
    W_C <= C/2); the x basis (sigma_x) is derived for the dephasing
    kinds only.
    """
    kind = ch.canonical_kind(kind)
    m = ch.bloch_map(kind, q, n).reshape(-1, 3)
    if basis not in _BASES:
        raise ValueError(f"unknown basis choice {basis!r}")
    (axis, sign, e0, g), kinds = _BASES[basis]
    if kind not in kinds:
        raise ValueError(f"no {basis}-basis closed form for {kind!r}")
    norm = np.linalg.norm(m, axis=1)
    m_u = sign * m[:, axis]
    incoherent = g * (m_u + np.abs(m_u))
    coherent = g * (norm - np.abs(m_u))
    e_passive = e0 - g * norm
    report = ErgotropyReport(
        total=incoherent + coherent,
        incoherent=incoherent,
        coherent=coherent,
        passive_energy=e_passive,
        dephased_passive_energy=e_passive + coherent,
        l1_coherence=np.hypot(*np.delete(m, axis, axis=1).T),
    )
    return ch._shaped(q, report)


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
    every strength enhances; above 1, none does. When na vanishes there is
    no finite threshold: every strength enhances (-inf) if nb and the third
    component are both nonzero, and otherwise the coherent work is frozen
    and none does (+inf).
    """
    kind = ch.canonical_kind(kind)
    if basis not in _BASES:
        raise ValueError(f"unknown basis choice {basis!r}")
    if (kind, basis) not in THRESHOLD_COMPONENTS:
        raise ValueError(f"no enhancement threshold derived for {kind!r} in the {basis} basis")
    n = require_bloch(n)
    ia, ib = THRESHOLD_COMPONENTS[kind, basis]
    na, nb = n[ia], n[ib]
    if na == 0.0:
        return float("-inf") if nb != 0.0 and n[3 - ia - ib] != 0.0 else float("inf")
    norm = float(np.linalg.norm(n))
    return float(2.0 * (na**2 + nb**2 - abs(nb) * norm) / na**2)


# ---------------------------------------------------------------------------
# two-qubit diagnostics
# ---------------------------------------------------------------------------

# the degenerate level of the interacting Hamiltonian as the columns of a
# 4x2 map D: (|ge> - |eg>)/sqrt2 and (|gg> - |ee>)/sqrt2
_DEGENERATE_LEVEL = np.array([[0, 1], [1, 0], [-1, 0], [0, -1]]) / np.sqrt(2.0)
# sigma_y x sigma_y is real, the anti-diagonal (-1, 1, 1, -1), so a real
# state's concurrence stays in float64
_YY = np.diag([-1.0, 1.0, 1.0, -1.0])[::-1].copy()


def _two_qubit_states(rho) -> tuple[np.ndarray, bool]:
    """rho as a (B, 4, 4) stack of Hermitian matrices (``matcore.as_stack``),
    and whether it was one (4, 4) state; rejected naming the shape or the
    worst non-Hermitian entry."""
    rho = np.asarray(rho)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise ValueError(
            f"expected a two-qubit state (4, 4) or a (B, 4, 4) stack of them, got shape {rho.shape}"
        )
    rhos, single = as_stack(rho)
    _require_hermitian(rhos)
    return rhos, single


def coherence_degenerate(rho):
    """Coherence carried by the degenerate level of the interacting
    Hamiltonian: a number for one (4, 4) state, a length-B array for a
    (B, 4, 4) stack.

    Measured as the eigenvalue splitting of the 2x2 block D^dag rho D on
    span{(|ge>-|eg>)/sqrt2, (|gg>-|ee>)/sqrt2}, D holding those two
    vectors as columns. When the block populations balance this equals
    twice the off-diagonal magnitude between the two vectors; unbalanced
    populations expose the same coherence in a rotated intra-level basis.
    """
    rhos, single = _two_qubit_states(rho)
    vals = np.linalg.eigvalsh(_DEGENERATE_LEVEL.conj().T @ rhos @ _DEGENERATE_LEVEL)
    out = vals[:, -1] - vals[:, 0]
    return float(out[0]) if single else out


def concurrence(rho):
    """Two-qubit entanglement via the spin-flip construction (Wootters
    1998): a number for one (4, 4) state, a length-B array for a
    (B, 4, 4) stack.

    max(0, l1 - l2 - l3 - l4) with l_i the descending square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy). Those roots equal the
    singular values of sqrt(rho) (sy x sy) conj(sqrt(rho)), which avoids
    the sqrt-of-near-zero precision loss of the eigenvalue route.
    """
    rhos, single = _two_qubit_states(rho)
    vals, vecs = np.linalg.eigh(rhos)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    sing = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    out = np.maximum(0.0, sing[:, 0] - sing[:, 1] - sing[:, 2] - sing[:, 3])
    return float(out[0]) if single else out
