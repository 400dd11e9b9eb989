"""State and Hamiltonian constructors for small qubit registers.

Single qubits are handled both as Bloch vectors and as 2x2 matrices of
the form [[x, y], [conj(y), 1-x]]; two-qubit families cover Bell-diagonal
states, classical-quantum states, and symmetrized mixtures of locally
coherent qubits, extended up to eight qubits. The symmetrized mixture is
built from its placement sums, one qubit at a time, in place of the N!
permutation average it equals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import (
    IDENTITY_2,
    KET_E,
    KET_G,
    PAULIS,
    SIGMA_X,
    SIGMA_Z,
    as_matrix,
    herm_eig,
    kron,
    require_hermitian,
)

BLOCH_TOL = 1e-12
PSD_TOL = 1e-12
# the multipartite pipeline downstream is dense in 4^N entries per state
MAX_SYMMETRIZED_QUBITS = 8
DEGENERACY_TOL = 1e-9  # relative to the largest |energy level|
# incommensurate weight mixing J^2 into the level structure so that
# (energy, spin) pairs never collide accidentally
COLLECTIVE_WEIGHT = np.sqrt(2.0)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

_BDS_SIGNS = np.array([(-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)], dtype=float)

# two-qubit I x I and the correlators sigma_i x sigma_i, built once
IDENTITY_4 = kron(IDENTITY_2, IDENTITY_2)
PAULI_PAIRS = np.array([kron(p, p) for p in PAULIS])


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based RNG stream derived from (seed, stream).

    Streams with distinct indices are statistically independent, so
    per-sample streams give the same draws no matter how samples are
    scheduled.
    """
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def require_bloch(n) -> np.ndarray:
    """Validate a single-qubit Bloch vector: three finite components, norm <= 1."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    norm = math.hypot(*n)
    if not norm <= 1.0 + BLOCH_TOL:  # also false for a NaN norm
        if not np.isfinite(n).all():
            raise ValueError(f"Bloch vector {n.tolist()} must have finite components")
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    return n


def bloch_to_density(n) -> np.ndarray:
    """Single-qubit state (I + n.sigma)/2 from a Bloch vector."""
    n = require_bloch(n)
    rho = IDENTITY_2.copy() / 2.0
    for comp, pauli in zip(n, PAULIS):
        rho += 0.5 * comp * pauli
    return rho


def density_to_bloch(rho) -> np.ndarray:
    rho = require_hermitian(rho)
    if rho.shape != (2, 2):
        raise ValueError("expected a single-qubit state")
    return np.array([float(np.trace(rho @ p).real) for p in PAULIS])


def qubit_state(x: float, y: complex) -> np.ndarray:
    """Local qubit [[x, y], [conj(y), 1-x]] with population x, coherence y."""
    x = float(x)
    if not (np.isfinite(x) and np.isfinite(y)):
        raise ValueError(f"population {x} and coherence {y} must be finite")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"population {x} outside [0, 1]")
    if abs(y) ** 2 > x * (1.0 - x) + PSD_TOL:
        raise ValueError(
            f"coherence |{y}|^2 = {abs(y)**2:.6g} exceeds x(1-x) = {x*(1.0-x):.6g}"
        )
    return np.array([[x, y], [np.conj(y), 1.0 - x]], dtype=complex)


def bds_is_separable(c) -> bool:
    c = np.asarray(c, dtype=float)
    return float(np.abs(c).sum()) <= 1.0 + PSD_TOL


def bds_eigenvalues(c) -> np.ndarray:
    """The four closed-form eigenvalues (1 + s . c)/4 of a Bell-diagonal state.

    Sign patterns s = (---), (++-), (+-+), (-++), in that order; these
    are the populations of the Bell states Psi-, Psi+, Phi+, Phi-.
    """
    return (1.0 + _BDS_SIGNS @ np.asarray(c, dtype=float)) / 4.0


def make_bds(c) -> np.ndarray:
    """Bell-diagonal two-qubit state from its three correlation parameters.

    All four ``bds_eigenvalues`` must be nonnegative.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (3,):
        raise ValueError("Bell-diagonal parameters must be a real triple")
    if not np.isfinite(c).all():
        raise ValueError(f"Bell-diagonal parameters {c.tolist()} must be finite")
    for s, lam in zip(_BDS_SIGNS.astype(int), bds_eigenvalues(c)):
        if lam < -PSD_TOL:
            raise ValueError(
                f"parameters {tuple(c)} give negative eigenvalue "
                f"(1 {s[0]:+d}c1 {s[1]:+d}c2 {s[2]:+d}c3)/4 = {lam:.6g}"
            )
    rho = IDENTITY_4 / 4.0
    for ci, pair in zip(c, PAULI_PAIRS):
        rho += 0.25 * ci * pair
    return rho


def classical_quantum(p: float, a: float, c: complex) -> np.ndarray:
    """Mixture p |g><g| x rho(a,c) + (1-p) |e><e| x rho(a,0).

    The first qubit is classical; only one branch of the second carries
    coherence.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight {p} outside [0, 1]")
    gg = np.outer(KET_G, KET_G.conj())
    ee = np.outer(KET_E, KET_E.conj())
    return p * kron(gg, qubit_state(a, c)) + (1.0 - p) * kron(ee, qubit_state(a, 0.0))


def symmetric_pair(p: float, a: float, c: complex, d: complex) -> np.ndarray:
    """Mixture p rho(a,c) x rho(a,d) + (1-p) rho(a,d) x rho(a,c)."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight {p} outside [0, 1]")
    rc, rd = qubit_state(a, c), qubit_state(a, d)
    return p * kron(rc, rd) + (1.0 - p) * kron(rd, rc)


# The entry of a one-qubit factor that holds sigma+ (row bit 0, column
# bit 1) and the one that holds sigma-; A = diag(a, 1 - a) fills the rest.
_RAISED = np.array([[0, 1], [0, 0]])
_LOWERED = _RAISED.T


def _add_qubit(counts: np.ndarray, local: np.ndarray) -> np.ndarray:
    """Per-entry counts of a register grown by one qubit (a kron sum)."""
    d = len(counts)
    return (counts[:, None, :, None] + local[None, :, None, :]).reshape(2 * d, 2 * d)


def symmetrized_multipartite(a: float, coherences) -> np.ndarray:
    """Equal-weight mixture of all N! orderings of local states rho(a, c_i).

    With rho(a, c_i) = A + c_i sigma+ + conj(c_i) sigma-, the average is
    sum_{k,l} E_kl(c) / M(k, l) T_kl: E_kl is the x^k y^l coefficient of
    prod_i (1 + x c_i + y conj(c_i)), M(k, l) = N! / (k! l! (N-k-l)!),
    and T_kl sums the products with sigma+ on k qubits, sigma- on l
    others and A on the rest. Each matrix entry belongs to exactly one
    such placement, so T_kl is never formed: the counts (k, l) and the A
    factor of every entry are built one qubit at a time, and the state is
    the A factor times the weight of its placement.
    """
    coherences = list(coherences)
    n = len(coherences)
    if n < 1:
        raise ValueError("need at least one local coherence")
    if n > MAX_SYMMETRIZED_QUBITS:
        raise ValueError(f"qubit count {n} exceeds cap {MAX_SYMMETRIZED_QUBITS}")
    locals_ = [qubit_state(a, c) for c in coherences]
    # weight[k, l] = E_kl(c) / M(k, l)
    weight = np.zeros((n + 1, n + 1), dtype=complex)
    weight[0, 0] = 1.0
    for local in locals_:
        grown = weight.copy()
        grown[1:] += local[0, 1] * weight[:-1]
        grown[:, 1:] += local[1, 0] * weight[:, :-1]
        weight = grown
    f = [math.factorial(i) for i in range(n + 1)]
    for k in range(n + 1):
        for l in range(n + 1 - k):
            weight[k, l] *= f[k] * f[l] * f[n - k - l] / f[n]
    raised = lowered = np.zeros((1, 1), dtype=int)
    for _ in range(n):
        raised, lowered = _add_qubit(raised, _RAISED), _add_qubit(lowered, _LOWERED)
    a_factor = kron(*[np.where(np.eye(2, dtype=bool), locals_[0], 1.0)] * n)
    return a_factor * weight[raised, lowered]


def random_separable(seed_or_rng, num_terms: int = 2) -> np.ndarray:
    """Random separable two-qubit state sum_i p_i rho_i^A x rho_i^B.

    Weights are a flat Dirichlet draw; each local population is uniform
    on [0,1] and each coherence uniform on [0, sqrt(a(1-a))], which keeps
    every factor PSD by construction.
    """
    if num_terms < 1:
        raise ValueError("num_terms must be at least 1")
    if isinstance(seed_or_rng, np.random.Generator):
        rng = seed_or_rng
    else:
        rng = philox_stream(int(seed_or_rng))
    weights = rng.dirichlet(np.ones(num_terms))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        factors = []
        for _ in range(2):
            a = rng.uniform(0.0, 1.0)
            c = rng.uniform(0.0, np.sqrt(a * (1.0 - a)))
            factors.append(qubit_state(a, c))
        rho += w * kron(factors[0], factors[1])
    return rho


def entangled_theta(theta: float) -> np.ndarray:
    """Pure state cos(theta)|gg> + sin(theta)|ee> as a density matrix."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = np.cos(theta)
    ket[3] = np.sin(theta)
    return np.outer(ket, ket.conj())


def apply_hadamard_pair(rho) -> np.ndarray:
    """Conjugate a two-qubit state by local Hadamards on both qubits."""
    u = kron(HADAMARD, HADAMARD)
    return u @ np.asarray(rho, dtype=complex) @ u.conj().T


def x_product_basis(n: int) -> np.ndarray:
    """Unitary whose columns are the |x+/-> product kets, row-major order
    (|x+> plays the role of |g>)."""
    return kron(*[HADAMARD] * n)


def total_spin_squared(n: int) -> np.ndarray:
    """Collective J^2 = Jx^2 + Jy^2 + Jz^2 for n qubits."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for pauli in PAULIS:
        comp = 0.5 * _sum_local(pauli, n)
        out += comp @ comp
    return out


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian observable plus the dephasing convention attached to it.

    ``basis`` columns, when present, give the product eigenbasis in which
    dephasing strips every off-diagonal (``product_basis``); ``collective``
    splits the spectral blocks by total spin J^2 instead. With neither,
    dephasing keeps the spectral blocks (``block``). The matrix is stored
    read-only, so ``levels`` and ``frame`` are computed once per object.
    Equality and hashing are by identity, so a Hamiltonian can key a dict.
    """

    matrix: np.ndarray
    kind: str
    basis: np.ndarray | None = None
    collective: bool = False

    def __post_init__(self):
        object.__setattr__(self, "matrix", _read_only(require_hermitian(self.matrix)))
        if self.basis is not None:
            if self.collective:
                raise ValueError("dephasing is in a product basis or collective, not both")
            object.__setattr__(self, "basis", _read_only(as_matrix(self.basis)))

    @property
    def num_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    @property
    def dephasing(self) -> str:
        if self.basis is not None:
            return "product_basis"
        return "collective" if self.collective else "block"

    @cached_property
    def levels(self) -> np.ndarray:
        """Ascending energy levels."""
        return _read_only(np.linalg.eigvalsh(self.matrix))

    @cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        """The basis (columns) dephasing works in, and its kept-entry mask.
        Levels within DEGENERACY_TOL * max|levels| are one level, and J^2
        is weighted by that scale too, so s*H has the frame of H."""
        if self.basis is not None:
            return self.basis, _read_only(np.eye(len(self.basis), dtype=bool))
        scale = float(np.abs(self.levels).max())
        hm = self.matrix
        if self.collective:
            hm = hm + COLLECTIVE_WEIGHT * scale * total_spin_squared(self.num_qubits)
        evals, v = herm_eig(hm)
        same_level = np.abs(evals[:, None] - evals[None, :]) <= DEGENERACY_TOL * scale
        return _read_only(v), _read_only(same_level)


def _read_only(m: np.ndarray) -> np.ndarray:
    m = np.array(m)
    m.flags.writeable = False
    return m


def _sum_local(op: np.ndarray, n: int) -> np.ndarray:
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for t in range(n):
        out += kron(*[op if i == t else IDENTITY_2 for i in range(n)])
    return out


def hamiltonian(kind: str, n: int, h: float = 0.5, j: float = 0.4) -> Hamiltonian:
    """Build one of the named Hamiltonians on ``n`` qubits.

    kinds:
      excitation      sum_i |e><e|_i (energy gap 1 per qubit)
      z_sum           -(1/2) sum_i sigma_z_i (excitation shifted by -n/2)
      x_sum           sigma_x for n=1, else (1/2) sum_i sigma_x_i
      xx_interacting  h (sigma_x_1 + sigma_x_2) + j sigma_x x sigma_x, n=2
      z_plus_xx       h (sigma_z_1 + sigma_z_2) + j sigma_x x sigma_x, n=2
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if not (np.isfinite(h) and np.isfinite(j)):
        raise ValueError(f"field h = {h} and coupling j = {j} must be finite")
    if kind == "excitation":
        mat = _sum_local(np.outer(KET_E, KET_E.conj()), n)
        return Hamiltonian(mat, kind, basis=np.eye(2**n, dtype=complex))
    if kind == "z_sum":
        mat = -0.5 * _sum_local(SIGMA_Z, n)
        return Hamiltonian(mat, kind, basis=np.eye(2**n, dtype=complex))
    if kind == "x_sum":
        scale = 1.0 if n == 1 else 0.5
        mat = scale * _sum_local(SIGMA_X, n)
        return Hamiltonian(mat, kind, basis=x_product_basis(n))
    if kind == "xx_interacting":
        if n != 2:
            raise ValueError("xx_interacting is a two-qubit Hamiltonian")
        mat = h * _sum_local(SIGMA_X, 2) + j * kron(SIGMA_X, SIGMA_X)
        return Hamiltonian(mat, kind, collective=True)
    if kind == "z_plus_xx":
        if n != 2:
            raise ValueError("z_plus_xx is a two-qubit Hamiltonian")
        # nondegenerate for generic (h, j): block dephasing is already exact
        mat = h * _sum_local(SIGMA_Z, 2) + j * kron(SIGMA_X, SIGMA_X)
        return Hamiltonian(mat, kind)
    raise ValueError(f"unknown Hamiltonian kind {kind!r}")
