"""Dense matrix primitives shared by every other module.

Everything here operates on plain ``numpy`` arrays holding unit-trace
Hermitian matrices (states), Hermitian observables, or Kraus operators.
States live on n qubits, so dimensions are powers of two, and nothing
is expected to grow past 2**10.

Arithmetic is real where the inputs are, by one rule decided here:
``_exact_real`` turns an array with no nonzero imaginary part into
float64 and any other into complex128. Matrices enter through
``as_matrix`` or, as one matrix or a (B, d, d) stack, ``as_stack``, which
both apply it, and numpy's promotion decides every step after: a real
state under a real channel and Hamiltonian is evolved, diagonalized and
split in float64, and one imaginary part anywhere makes that step
complex128. The exported constants stay complex128.

Every dense state or stack takes one batched eigvalsh
(``state_spectra``), whatever its symmetry, and nothing probes it for
one: that brute-force route is the oracle. A register that no qubit
permutation changes is instead held by its class coordinates. Entry
(r, c) of an n-qubit operator falls in the class given by the counts
(n00, n01, n10, n11) of qubits whose (row bit, column bit) is each pair
(``_entry_classes``). A qubit permutation maps every class onto itself,
so an invariant operator has one value per class: D = C(n+3, 3) values
(20 at n = 3, 84 at n = 6, 165 at n = 8) in place of 4^n.
``_class_coordinates`` reads them as the class averages of a dense
matrix, the reference the tests hold the class route to, and
``_class_matrix`` gathers them back onto the 4^n entries.

By Schur-Weyl duality such an operator is the direct sum over total
spin J of M_J x 1_{d_J}, with M_J of size 2J+1 <= n+1; ``spin_blocks``
lists the (2J+1, d_J) pairs. ``_class_block_parts`` reads the blocks
from the class coordinates through one real (D, D) map in closed form:
exact integer counts over binomial square roots (``_class_block_map``,
with no isometry and no 2^n or 4^n array). ``_class_trace`` and
``_class_diagonal`` read the trace and the diagonal from the n + 1
diagonal classes. The
spectrum is the union of the spec(M_J), each value repeated d_J times
(``_block_spectrum``), and a state so held is validated with the same
private checks and messages as a dense one (``_require_hermitian``,
``_require_trace``, ``_require_psd``). Local-sum Hamiltonians are built
in these coordinates (``_local_sum_classes``). ``_class_levels`` holds the index maps with
which ``channels._class_expand`` applies a channel to every qubit in
these coordinates. Memory: what is cached per n is of order D^2. That
is the class lists, the block map (D^2 floats) and the level maps
(25,080 indices at n = 8, against D^2 = 27,225). The 4^n class codes of
a dense matrix's entries are rebuilt on each call and never cached.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
# largest |Tr rho - 1| a state may have
TRACE_TOL = 1e-10

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
    """m as one square matrix under the dtype rule (``_exact_real``)."""
    return _square(_exact_real(m))


def as_stack(m) -> tuple[np.ndarray, bool]:
    """m, one (d, d) matrix or a non-empty (B, d, d) stack, as a
    (B, d, d) stack under the dtype rule of ``as_matrix``, and whether
    it was one matrix."""
    mats = _exact_real(m)
    stack = mats[None] if mats.ndim == 2 else mats
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a square matrix or a stack of square matrices, got shape {mats.shape}")
    if not len(stack):
        raise ValueError(f"expected a matrix or a non-empty stack of matrices, got shape {mats.shape}")
    return stack, mats.ndim == 2


def _square(mat: np.ndarray) -> np.ndarray:
    """mat itself, once checked to be one square matrix."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _exact_real(a) -> np.ndarray:
    """a as a C-contiguous float64 array when no entry has a nonzero
    imaginary part, else as complex128. A real float64 array comes back
    as itself when already contiguous."""
    a = np.asarray(a)
    if np.iscomplexobj(a) and a.imag.any():
        return a.astype(complex, copy=False)
    return a.real.astype(float, order="C", copy=False)


def _require_hermitian(mats: np.ndarray) -> None:
    """Raise on the worst non-Hermitian entry of a matrix or a (..., d, d) stack.

    NaN entries count as violations, and an empty stack is rejected.
    """
    if not mats.size:
        raise ValueError(f"expected a matrix or a non-empty stack of matrices, got shape {mats.shape}")
    dev = np.abs(mats - np.swapaxes(mats, -1, -2).conj())
    worst = np.unravel_index(int(dev.argmax()), dev.shape)
    if not dev[worst] <= HERMITIAN_TOL:
        i, j = worst[-2:]
        raise ValueError(
            f"matrix is not Hermitian: |M[{i},{j}] - conj(M[{j},{i}])| = {dev[worst]:.3e}"
        )


def require_hermitian(m) -> np.ndarray:
    """Validate Hermiticity, reporting the worst offending entry."""
    mat = as_matrix(m)
    _require_hermitian(mat)
    return mat


def herm_eig(m) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues come back ascending; column k of the returned unitary is
    the eigenvector for eigenvalue k. Ties are resolved deterministically
    (fixed LAPACK path), and diagonal inputs keep their index order.
    """
    mat = require_hermitian(m)
    vals, vecs = np.linalg.eigh(mat)
    return SpectralDecomposition(vals, vecs)


def _kron_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices as one broadcast multiply: the same
    elementwise products, so bitwise equal, with none of np.kron's
    generic reshaping."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def kron(*ops) -> np.ndarray:
    """Tensor product of one or more operators, left to right."""
    if not ops:
        raise ValueError("kron needs at least one operator")
    out = as_matrix(ops[0])
    for op in ops[1:]:
        out = _kron_pair(out, as_matrix(op))
    return out


def num_qubits(rho) -> int:
    dim = as_matrix(rho).shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def _integer(value, name: str) -> int:
    """value through ``operator.index``: a float such as 0.7 is rejected, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value} is not an integer") from None


def partial_trace(rho, keep: Iterable[int]) -> np.ndarray:
    """Trace out every qubit not listed in ``keep``.

    Kept qubits stay in ascending original order. The result of tracing
    a unit-trace input is again unit trace.
    """
    rho = as_matrix(rho)
    n = num_qubits(rho)
    keep = sorted(set(_integer(k, "qubit index") for k in keep))
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


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix.

    The general (SVD) trace norm is deliberately out of scope; callers
    only ever need it for Hermitian differences of states.
    """
    vals = herm_eig(m).eigenvalues
    return float(np.abs(vals).sum())


@functools.cache
def spin_blocks(n: int) -> tuple[tuple[int, int], ...]:
    """(2J+1, d_J) for each total spin J = n/2, n/2 - 1, ... of n qubits:
    the size of the spin-J block and the number of its copies,
    d_J = C(n, k) - C(n, k-1) for J = n/2 - k.
    """
    n = _integer(n, "qubit count")
    if n < 1:
        raise ValueError("spin blocks need at least one qubit")
    return tuple(
        (n - 2 * k + 1, math.comb(n, k) - (math.comb(n, k - 1) if k else 0))
        for k in range(n // 2 + 1)
    )


def _spin_spectrum(values, n: int) -> np.ndarray:
    """The ascending (..., 2**n) spectrum of an operator whose spin
    blocks have the given (..., 2J+1) values, each repeated d_J times:
    one repeat of all the values side by side, sorted in place."""
    counts = [d for side, d in spin_blocks(n) for _ in range(side)]
    spectrum = np.repeat(np.concatenate(values, axis=-1), counts, axis=-1)
    spectrum.sort(axis=-1)
    return spectrum


def _block_spectrum(parts, n: int) -> np.ndarray:
    """The ascending (..., 2**n) spectrum of permutation-invariant
    Hermitian matrices from their spin-block parts W_J^T M W_J: one
    eigvalsh per block."""
    return _spin_spectrum([np.linalg.eigvalsh(p) for p in parts], n)


class EntryClasses(NamedTuple):
    """The classes of entries (r, c) of an operator on n qubits: entries
    whose qubits hold each (row bit, column bit) pair the same number of
    times, so that qubit permutations map each class onto itself and a
    permutation-invariant operator has one value per class.

    ``counts`` lists (n00, n01, n10, n11) for each of the C(n+3, 3)
    classes in lexicographic order, ``sizes`` the number of entries of
    each, n! / (n00! n01! n10! n11!), and ``rank`` the index of the
    class with counts (n01, n10, n11) (-1 where they exceed n)."""

    counts: np.ndarray
    sizes: np.ndarray
    rank: np.ndarray


@functools.cache
def _entry_classes(n: int) -> EntryClasses:
    """The read-only ``EntryClasses`` of n >= 0 qubits, built on first use."""
    counts = np.array([c for c in itertools.product(range(n + 1), repeat=4) if sum(c) == n])
    f = [math.factorial(i) for i in range(n + 1)]
    sizes = np.array([f[n] // math.prod(f[i] for i in c) for c in counts], dtype=float)
    rank = np.full((n + 1,) * 3, -1)
    rank[counts[:, 1], counts[:, 2], counts[:, 3]] = np.arange(len(counts))
    for a in (counts, sizes, rank):
        a.flags.writeable = False
    return EntryClasses(counts, sizes, rank)


@functools.cache
def _class_levels(n: int) -> tuple[tuple[np.ndarray, tuple], ...]:
    """The read-only index maps that move the n qubits of a
    permutation-invariant operator, one at a time, from its input classes
    to its output classes (``channels._class_expand``).

    After d qubits an entry is a pair (m, v): m a class of the d qubits
    moved (output pair types), v one of the n - d left (input pair
    types), flattened as m * (number of v) + v. Each output class m' of
    d + 1 qubits takes one fixed pair type b, its first nonzero count,
    and so one parent m' - e_b; its input pair type a came from
    v + e_a. Level d holds the (M' V', 4) flat index of (m' - e_b,
    v + e_a) for every m', v and a, and, per pair type b, the slice of
    the flat (m', v) entries whose m' takes b: in lexicographic order
    the first nonzero count never moves forward, so those are contiguous.
    """
    levels = []
    for d in range(n):
        moved, before = _entry_classes(d + 1), _entry_classes(d)
        left, rest = _entry_classes(n - d - 1), _entry_classes(n - d)
        kept = (moved.counts > 0).argmax(axis=1)
        parent = before.rank.ravel()[_class_codes(moved.counts - np.eye(4, dtype=int)[kept], d)]
        grown = rest.rank.ravel()[_class_codes(left.counts[:, None] + np.eye(4, dtype=int), n - d)]
        index = (parent[:, None, None] * len(rest.counts) + grown[None]).reshape(-1, 4)
        index.flags.writeable = False
        width = len(left.counts)
        groups = []
        for b in range(4):
            rows = np.flatnonzero(kept == b)
            if len(rows):
                assert rows[-1] - rows[0] == len(rows) - 1, "pair-type groups are contiguous"
                groups.append((b, slice(rows[0] * width, (rows[-1] + 1) * width)))
        levels.append((index, tuple(groups)))
    return tuple(levels)


def _class_codes(counts: np.ndarray, n: int) -> np.ndarray:
    """The code n01 (n+1)^2 + n10 (n+1) + n11 of classes given by their
    counts (..., 4); ``_entry_classes(n).rank`` read flat at a code is
    the class index."""
    return counts[..., 1:] @ np.array([(n + 1) ** 2, n + 1, 1])


def _entry_codes(n: int) -> np.ndarray:
    """The class code of every entry of a (2**n, 2**n) operator, built
    on each call (4**n integers, so never cached): entry (r, c) has
    n11 = |r & c|, n10 = |r| - n11 and n01 = |c| - n11, and the code is
    linear in those, so it is an outer sum plus a multiple of n11."""
    labels, s = np.arange(2**n), n + 1
    weight = np.bitwise_count(labels).astype(np.intp)
    both = np.bitwise_count(np.bitwise_and.outer(labels, labels)).astype(np.intp)
    return (weight * s)[:, None] + weight * (s * s) + both * (1 - s - s * s)


def _class_coordinates(mat: np.ndarray, n: int) -> np.ndarray:
    """The class coordinates of a permutation-invariant (2**n, 2**n)
    matrix: the average of its entries over each class of
    ``_entry_classes(n)``, from one bincount per real part over the class
    codes of the entries, float64 when exactly real (``_exact_real``)."""
    codes, size = _entry_codes(n).ravel(), (n + 1) ** 3
    flat = np.asarray(mat, dtype=complex).ravel()
    sums = np.bincount(codes, flat.real, size) + 1j * np.bincount(codes, flat.imag, size)
    classes = _entry_classes(n)
    return _exact_real(sums[_class_codes(classes.counts, n)] / classes.sizes)


def _class_matrix(coords: np.ndarray, n: int) -> np.ndarray:
    """The dense (2**n, 2**n) matrix of class coordinates: every entry
    gathered from the coordinate of its class, so ``_class_coordinates``
    of it gives the coordinates back."""
    return coords[_entry_classes(n).rank.ravel()[_entry_codes(n)]]


def _local_sum_classes(op: np.ndarray, n: int) -> np.ndarray:
    """The class coordinates of sum_t op on qubit t: n00 op[0, 0] + n11 op[1, 1]
    where no qubit flips, op[0, 1] (op[1, 0]) where one holds 01 (10) and none
    10 (01), else zero; added into a complex zero, as a sum of krons is."""
    n00, n01, n10, n11 = _entry_classes(n).counts.T
    out = np.zeros(len(n00), dtype=complex)
    still = (n01 == 0) & (n10 == 0)
    out[still] += n00[still] * op[0, 0] + n11[still] * op[1, 1]
    out[(n01 == 1) & (n10 == 0)] += op[0, 1]
    out[(n01 == 0) & (n10 == 1)] += op[1, 0]
    return out


@functools.cache
def _class_block_map(n: int) -> np.ndarray:
    """The real, read-only (D, D) map, D = C(n+3, 3), from the class
    coordinates of a permutation-invariant operator M on n qubits to its
    spin-block entries W_J^T M W_J, each block flattened row-major and
    the blocks side by side in the order of ``spin_blocks(n)``.

    Column a of W_J, for J = n/2 - k and m = n - 2k, is the state
    |J, J - a> (|g> is M = +1/2) singlet^k x Dicke(m, a): k singlets
    (|ge> - |eg>)/sqrt2 on fixed qubit pairs, then the m other qubits in
    the normalized sum of their labels of weight a. A singlet holds one 1 in its rows and one in its
    columns, so a class (n00, n01, n10, n11) reaches the one entry
    (a, b) = (n10 + n11 - k, n01 + n11 - k) of block J. Its weight, the
    sum over the class of W_J[r, a] W_J[c, b], is the coefficient of
    x00^n00 x01^n01 x10^n10 x11^n11 in
    (x00 x11 - x01 x10)^k (x00 + x01 + x10 + x11)^m, an exact integer,
    over sqrt(C(m, a) C(m, b)).
    """
    f = [math.factorial(i) for i in range(n + 1)]
    sides = [side for side, _ in spin_blocks(n)]
    offsets = np.cumsum([0] + [side * side for side in sides])
    out = np.zeros((len(_entry_classes(n).counts), offsets[-1]))
    for row, (n00, n01, n10, n11) in enumerate(_entry_classes(n).counts.tolist()):
        for k, side in enumerate(sides):
            m, a, b = side - 1, n10 + n11 - k, n01 + n11 - k
            if not (0 <= a <= m and 0 <= b <= m):
                continue
            coef = 0
            for j in range(k + 1):  # j singlets give x01 x10, the other k - j x00 x11
                tail = (n00 - k + j, n01 - j, n10 - j, n11 - k + j)
                if min(tail) >= 0:
                    coef += (-1) ** j * math.comb(k, j) * (f[m] // math.prod(f[t] for t in tail))
            out[row, offsets[k] + a * side + b] = coef / math.sqrt(math.comb(m, a) * math.comb(m, b))
    out.flags.writeable = False
    return out


def _class_block_parts(coords: np.ndarray, n: int) -> list[np.ndarray]:
    """W_J^T M W_J of every permutation-invariant M of a (..., D) stack of
    class coordinates, one (..., 2J+1, 2J+1) stack per block of
    ``spin_blocks(n)``, each the product with the block's columns of
    ``_class_block_map(n)``: a contiguous stack, which the checks and
    frame products on it read about twice as fast as a strided view."""
    block_map = _class_block_map(n)
    sides = [side for side, _ in spin_blocks(n)]
    edges = np.cumsum([0] + [m * m for m in sides])
    return [
        (coords @ block_map[:, i:j]).reshape(coords.shape[:-1] + (m, m))
        for i, j, m in zip(edges[:-1], edges[1:], sides)
    ]


def _class_diagonal(coords: np.ndarray, n: int) -> np.ndarray:
    """The (..., 2**n) diagonals of permutation-invariant operators from
    their class coordinates, ordered by Hamming weight rather than by
    label: the value of class (n - w, 0, 0, w) repeated C(n, w) times."""
    classes = _entry_classes(n).rank[0, 0]
    return np.repeat(coords[..., classes], _entry_classes(n).sizes[classes].astype(int), axis=-1)


def _class_trace(coords: np.ndarray, n: int) -> np.ndarray:
    """Traces of permutation-invariant operators from their class coordinates."""
    classes = _entry_classes(n).rank[0, 0]
    return coords[..., classes] @ _entry_classes(n).sizes[classes]


def _require_trace(tr: np.ndarray) -> None:
    """Raise on the trace of a stack of states farthest from one."""
    worst = np.unravel_index(int(np.abs(tr - 1.0).argmax()), tr.shape)
    if not abs(tr[worst] - 1.0) <= TRACE_TOL:
        raise ValueError(f"state trace is {tr[worst]}, expected 1")


def _require_psd(lam: np.ndarray) -> None:
    """Raise on the lowest eigenvalue of a stack of ascending spectra."""
    min_eig = float(lam[..., 0].min())
    if min_eig < -PSD_TOL:
        raise ValueError(f"state is not PSD: min eigenvalue {min_eig:.3e}")


def state_spectra(rhos) -> np.ndarray:
    """Ascending eigenvalues of a state or a (..., d, d) stack of states,
    from one batched dense eigvalsh, in float64 when exactly real
    (``_exact_real``).

    Validates Hermiticity, trace one and positivity of every matrix on
    the way and names the worst violation.
    """
    rhos = _exact_real(rhos)
    _require_hermitian(rhos)
    _require_trace(np.trace(rhos, axis1=-2, axis2=-1).real)
    lam = np.linalg.eigvalsh(rhos)
    _require_psd(lam)
    return lam


def require_density(rho) -> np.ndarray:
    """Validate trace one, Hermiticity and positivity of a state."""
    mat = as_matrix(rho)
    state_spectra(mat)
    return mat
