"""Dense complex matrix primitives shared by every other module.

Everything here operates on plain ``numpy`` arrays holding unit-trace
Hermitian matrices (states), Hermitian observables, or Kraus operators.
States live on n qubits, so dimensions are powers of two, and nothing
is expected to grow past 2**10.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Computational basis kets; |g> is the n3=+1 pole of the Bloch sphere.
KET_G = np.array([1.0, 0.0], dtype=complex)
KET_E = np.array([0.0, 1.0], dtype=complex)


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (ascending) and the paired unitary of eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(m) -> np.ndarray:
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _require_hermitian(mats: np.ndarray, tol: float) -> None:
    """Raise on the worst non-Hermitian entry of a matrix or a (..., d, d) stack.

    NaN entries count as violations.
    """
    dev = np.abs(mats - np.swapaxes(mats, -1, -2).conj())
    worst = np.unravel_index(int(dev.argmax()), dev.shape)
    if not dev[worst] <= tol:
        i, j = worst[-2:]
        raise ValueError(
            f"matrix is not Hermitian: |M[{i},{j}] - conj(M[{j},{i}])| = {dev[worst]:.3e}"
        )


def require_hermitian(m, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate Hermiticity, reporting the worst offending entry."""
    mat = as_matrix(m)
    _require_hermitian(mat, tol)
    return mat


def herm_eig(m, tol: float = HERMITIAN_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues come back ascending; column k of the returned unitary is
    the eigenvector for eigenvalue k. Ties are resolved deterministically
    (fixed LAPACK path), and diagonal inputs keep their index order.
    """
    mat = require_hermitian(m, tol)
    vals, vecs = np.linalg.eigh(mat)
    return SpectralDecomposition(vals, vecs)


def kron(*ops) -> np.ndarray:
    """Tensor product of one or more operators, left to right."""
    if not ops:
        raise ValueError("kron needs at least one operator")
    out = as_matrix(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_matrix(op))
    return out


def num_qubits(rho) -> int:
    dim = as_matrix(rho).shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def partial_trace(rho, keep: Iterable[int]) -> np.ndarray:
    """Trace out every qubit not listed in ``keep``.

    Kept qubits stay in ascending original order. The result of tracing
    a unit-trace input is again unit trace.
    """
    rho = as_matrix(rho)
    n = num_qubits(rho)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must not be empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} qubits")
    traced = [i for i in range(n) if i not in keep]
    tens = rho.reshape((2,) * (2 * n))
    for offset, q in enumerate(traced):
        # axes shift left as earlier qubits are contracted away
        ax = q - offset
        tens = np.trace(tens, axis1=ax, axis2=ax + n - offset)
    d = 2 ** len(keep)
    return tens.reshape(d, d)


def trace_norm(m, tol: float = HERMITIAN_TOL) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix.

    The general (SVD) trace norm is deliberately out of scope; callers
    only ever need it for Hermitian differences of states.
    """
    vals = herm_eig(m, tol).eigenvalues
    return float(np.abs(vals).sum())


def project_psd(rho, tol: float = PSD_TOL) -> np.ndarray:
    """Clamp eigenvalues in [-tol, 0) to zero and renormalize the trace.

    Rounding from RK4 evolution or long symmetrization sums lives at this
    scale; anything more negative than ``tol`` is a real PSD violation.
    """
    vals, vecs = herm_eig(rho)
    if vals[0] < -tol:
        raise ValueError(f"matrix is not PSD: min eigenvalue {vals[0]:.3e}")
    if vals[0] >= 0.0:
        return as_matrix(rho)
    clipped = np.clip(vals, 0.0, None)
    out = (vecs * clipped) @ vecs.conj().T
    return out / np.trace(out).real


def state_spectra(rhos, tol: float = 1e-10) -> np.ndarray:
    """Ascending eigenvalues of a state or a (..., d, d) stack of states.

    Validates Hermiticity, trace one and positivity of every matrix on
    the way, with one batched eigensolve, and names the worst violation.
    """
    rhos = np.asarray(rhos, dtype=complex)
    _require_hermitian(rhos, HERMITIAN_TOL)
    tr = np.trace(rhos, axis1=-2, axis2=-1).real
    worst = np.unravel_index(int(np.abs(tr - 1.0).argmax()), tr.shape)
    if not abs(tr[worst] - 1.0) <= tol:
        raise ValueError(f"state trace is {tr[worst]}, expected 1")
    lam = np.linalg.eigvalsh(rhos)
    min_eig = float(lam[..., 0].min())
    if min_eig < -PSD_TOL:
        raise ValueError(f"state is not PSD: min eigenvalue {min_eig:.3e}")
    return lam


def require_density(rho, tol: float = 1e-10) -> np.ndarray:
    """Validate trace one, Hermiticity and positivity of a state."""
    mat = as_matrix(rho)
    state_spectra(mat, tol)
    return mat
