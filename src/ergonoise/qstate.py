"""State and Hamiltonian constructors for small qubit registers.

Single qubits are handled both as Bloch vectors and as 2x2 matrices of
the form [[x, y], [conj(y), 1-x]]; two-qubit families cover Bell-diagonal
states, classical-quantum states, and symmetrized mixtures of locally
coherent qubits, extended up to eight qubits. The symmetrized mixture is
built from its placement sums, one value per class of entries, in place
of the N! permutation average it equals.
"""

from __future__ import annotations

import functools
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
    SpectralDecomposition,
    _class_block_parts,
    _class_coordinates,
    _class_diagonal,
    _class_matrix,
    _entry_classes,
    _exact_real,
    _integer,
    _local_sum_classes,
    _require_hermitian,
    _spin_spectrum,
    as_matrix,
    as_stack,
    herm_eig,
    kron,
    require_hermitian,
)

BLOCH_TOL = 1e-12
PSD_TOL = 1e-12
# the class route holds its states and Hamiltonians in class coordinates, but
# spreads its spectra to 2^N values, and its dense oracle is checked up to here
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
    scheduled. Seed and stream are the two 64-bit words of the Philox
    key, so each must be an integer in [0, 2**64).
    """
    key = np.array([_key_word(seed, "seed"), _key_word(stream, "stream")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _key_word(value, name: str) -> int:
    """value as one 64-bit word of a Philox key, or a ValueError naming
    the value when it is not an integer and the bound when it is outside."""
    value = _integer(value, name)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} {value} is outside [0, 2**64)")
    return value


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
    return as_matrix(IDENTITY_2 / 2.0 + 0.5 * np.tensordot(n, PAULIS, 1))


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector (Tr rho sigma_i) of a single-qubit state, or the (T, 3)
    vectors of a (T, 2, 2) stack (``matcore.as_stack``), whose
    Hermiticity is checked once, naming its worst entry."""
    rhos, single = as_stack(rho)
    if rhos.shape[1:] != (2, 2):
        raise ValueError("expected a single-qubit state")
    _require_hermitian(rhos)
    bloch = np.trace(rhos[:, None] @ PAULIS, axis1=-2, axis2=-1).real
    return bloch[0] if single else bloch


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
    return as_matrix([[x, y], [np.conj(y), 1.0 - x]])


def bds_is_separable(c) -> bool:
    c = np.asarray(c, dtype=float)
    return float(np.abs(c).sum()) <= 1.0 + PSD_TOL


def bds_eigenvalues(c) -> np.ndarray:
    """The four closed-form eigenvalues (1 + s . c)/4 of a Bell-diagonal state.

    Sign patterns s = (---), (++-), (+-+), (-++), in that order; these
    are the populations of the Bell states Psi-, Psi+, Phi+, Phi-. A
    (..., 3) stack of parameters gives a (..., 4) stack of eigenvalues.
    """
    return (1.0 + np.asarray(c, dtype=float) @ _BDS_SIGNS.T) / 4.0


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
                f"parameters {tuple(c.tolist())} give negative eigenvalue "
                f"(1 {s[0]:+d}c1 {s[1]:+d}c2 {s[2]:+d}c3)/4 = {lam:.6g}"
            )
    return as_matrix(IDENTITY_4 / 4.0 + 0.25 * np.tensordot(c, PAULI_PAIRS, 1))


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


def _symmetrized_classes(a: float, coherences) -> np.ndarray:
    """The class coordinates of ``symmetrized_multipartite(a, coherences)``:
    one value per class (n00, n01, n10, n11) of ``matcore._entry_classes(n)``,
    C(n+3, 3) of them, in O(C(n+3, 3)) with no 2^n-sized array.

    With rho(a, c_i) = A + c_i sigma+ + conj(c_i) sigma-, A = diag(a, 1 - a),
    the average over all N! orderings is sum_{k,l} w[k, l] T_kl: T_kl sums
    the products with sigma+ on k qubits, sigma- on l others and A on the
    rest, and w[k, l] = E_kl(c) / M(k, l), where E_kl is the x^k y^l
    coefficient of prod_i (1 + x c_i + y conj(c_i)) and
    M(k, l) = N! / (k! l! (N-k-l)!). An entry whose qubits hold the
    (row bit, column bit) pairs 01 n01 times (sigma+), 10 n10 times
    (sigma-), 00 n00 and 11 n11 times belongs to T_kl at (n01, n10)
    alone, so its value is a^n00 (1 - a)^n11 w[n01, n10].
    """
    coherences = list(coherences)
    n = len(coherences)
    if n < 1:
        raise ValueError("need at least one local coherence")
    if n > MAX_SYMMETRIZED_QUBITS:
        raise ValueError(f"qubit count {n} exceeds cap {MAX_SYMMETRIZED_QUBITS}")
    locals_ = [qubit_state(a, c) for c in coherences]
    # weight[k, l] = E_kl(c) / M(k, l)
    weight = np.zeros((n + 1, n + 1), dtype=np.result_type(*locals_))
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
    n00, n01, n10, n11 = _entry_classes(n).counts.T
    a = float(a)
    return a**n00 * (1.0 - a) ** n11 * weight[n01, n10]


def symmetrized_multipartite(a: float, coherences) -> np.ndarray:
    """Equal-weight mixture of all N! orderings of local states rho(a, c_i).

    One construction serves two views of the state: its class coordinates
    (``_symmetrized_classes``), which the scaling curves read at every
    N, and this dense (2^N, 2^N) matrix, which gathers them at the class
    of every entry (``matcore._class_matrix``) and which the tests hold
    the class route to.
    """
    coherences = list(coherences)
    return _class_matrix(_symmetrized_classes(a, coherences), len(coherences))


def _separable_draws(rng: np.random.Generator, num_terms: int):
    """One sample's draws, in stream order: flat Dirichlet weights (T,),
    then the population a and coherence c of both factors of each term,
    as (T, 2) arrays."""
    if _integer(num_terms, "term count") < 1:
        raise ValueError("num_terms must be at least 1")
    # dirichlet(ones(T)) without its per-call overhead: numpy scales T
    # standard gamma(1), that is standard exponential, draws by 1 / their
    # running sum in index order (np.sum's pairwise sum differs from T = 8
    # on), so the weights and the stream after them are bitwise dirichlet's
    weights = rng.standard_exponential(num_terms)
    weights *= 1.0 / np.cumsum(weights)[-1]
    # uniform(low, high) is low + (high - low) * random(), so the stream of
    # uniform(0, 1) for a, then uniform(0, sqrt(a (1 - a))) for c, factor by
    # factor, is one (T, 2, 2) block of random() in that order
    u = rng.random((num_terms, 2, 2))
    pops = u[..., 0]
    return weights, pops, np.sqrt(pops * (1.0 - pops)) * u[..., 1]


def _separable_states(weights, pops, cohs) -> np.ndarray:
    """sum_t w_t rho(a_t1, c_t1) x rho(a_t2, c_t2) for (S, T) weights and
    (S, T, 2) factor draws, as a (S, 4, 4) stack.

    Every factor passes the ``qubit_state`` checks (the first failing one
    is rejected with its message); the terms add up in index order. The
    stack is float64 for real coherences, as the sampler draws them.
    """
    ok = np.isfinite(pops) & np.isfinite(cohs) & (pops >= 0.0) & (pops <= 1.0)
    ok &= ~(np.abs(cohs) ** 2 > pops * (1.0 - pops) + PSD_TOL)
    if not ok.all():  # qubit_state raises naming the violated constraint
        qubit_state(pops[~ok][0], cohs[~ok][0])
    local = np.empty(pops.shape + (2, 2), dtype=np.result_type(float, cohs))
    local[..., 0, 0] = pops
    local[..., 0, 1] = cohs
    local[..., 1, 0] = np.conj(cohs)
    local[..., 1, 1] = 1.0 - pops
    first, second = local[..., 0, :, :], local[..., 1, :, :]
    # kron of the two factors: entry (2i + k, 2j + l) is first[i, j] second[k, l]
    terms = first[..., :, None, :, None] * second[..., None, :, None, :]
    terms = terms.reshape(weights.shape + (4, 4))
    rho = np.zeros((len(weights), 4, 4), dtype=local.dtype)
    for t in range(weights.shape[1]):
        rho += weights[:, t, None, None] * terms[:, t]
    return rho


def random_separable(seed_or_rng, num_terms: int = 2) -> np.ndarray:
    """Random separable two-qubit state sum_i p_i rho_i^A x rho_i^B.

    Weights are a flat Dirichlet draw; each local population is uniform
    on [0,1] and each coherence uniform on [0, sqrt(a(1-a))], which keeps
    every factor PSD by construction, and real, so the state is float64.
    The one-sample case of ``random_separable_stack``'s construction.
    """
    if isinstance(seed_or_rng, np.random.Generator):
        rng = seed_or_rng
    else:
        rng = philox_stream(seed_or_rng)
    draws = _separable_draws(rng, num_terms)
    return _separable_states(*(x[None] for x in draws))[0]


def random_separable_stack(seed: int, samples, num_terms: int = 2) -> np.ndarray:
    """``random_separable(philox_stream(seed, i))`` for every sample index i
    of a non-empty ``samples``, as a (S, 4, 4) stack.

    Each sample draws from its own stream in the same order as
    ``random_separable``: one Philox bit generator is reset to the full
    fresh state of key (seed, i) (zero counter, empty buffer) before each
    sample, which gives the draws of a new ``philox_stream(seed, i)``
    without building a ``Generator`` per sample. The states are then
    built in one batched outer product, bitwise equal to the one-sample
    construction.
    """
    rng = philox_stream(seed)
    fresh = rng.bit_generator.state
    draws = []
    for i in samples:
        fresh["state"]["key"] = np.array([seed, _key_word(i, "sample index")], dtype=np.uint64)
        rng.bit_generator.state = fresh
        draws.append(_separable_draws(rng, num_terms))
    if not draws:
        raise ValueError("need at least one sample")
    return _separable_states(*(np.array(x) for x in zip(*draws)))


def entangled_theta(theta: float) -> np.ndarray:
    """Pure state cos(theta)|gg> + sin(theta)|ee> as a density matrix."""
    ket = np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)])
    return np.outer(ket, ket)


def apply_hadamard_pair(rho) -> np.ndarray:
    """Conjugate a two-qubit state by local Hadamards on both qubits."""
    u = kron(HADAMARD, HADAMARD)
    return u @ as_matrix(rho) @ u.conj().T


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


DEPHASINGS = ("block", "product_basis", "collective")


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian observable plus the dephasing convention attached to it.

    ``dephasing`` names the convention, one of DEPHASINGS: ``block`` keeps
    the spectral blocks; ``product_basis`` strips every off-diagonal in
    the product eigenbasis whose columns ``basis`` gives, the
    computational basis when ``basis`` is None; ``collective`` splits the
    spectral blocks by total spin J^2. Only ``product_basis`` takes a
    ``basis``. The matrix is stored read-only, so ``levels``,
    ``eigenbasis`` and ``frame`` are computed once per object, and only
    when read.
    The matrix and the basis enter through ``matcore.as_matrix``, so they
    are stored in float64 where they have no nonzero imaginary part, as
    every Hamiltonian ``hamiltonian`` builds does, and their frames are
    then real eigenvectors too, so that a real state is split in real
    arithmetic; any other is stored in complex128.
    Equality and hashing are by identity, so a Hamiltonian can key a dict.
    """

    matrix: np.ndarray
    kind: str
    dephasing: str = "block"
    basis: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", _read_only(require_hermitian(self.matrix)))
        if self.dephasing not in DEPHASINGS:
            raise ValueError(f"unknown dephasing {self.dephasing!r}, expected one of {', '.join(DEPHASINGS)}")
        if self.basis is not None:
            if self.dephasing != "product_basis":
                raise ValueError(f"{self.dephasing} dephasing takes no basis, only product_basis does")
            object.__setattr__(self, "basis", _read_only(as_matrix(self.basis)))

    @property
    def num_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    @cached_property
    def levels(self) -> np.ndarray:
        """Ascending energy levels."""
        return _read_only(np.linalg.eigvalsh(self.matrix))

    @cached_property
    def eigenbasis(self) -> SpectralDecomposition:
        """``herm_eig`` of the matrix, read-only: the eigenvectors
        ``workx.passive_state`` pairs populations with, and the block
        ``frame`` with its levels."""
        vals, vecs = herm_eig(self.matrix)
        return SpectralDecomposition(_read_only(vals), _read_only(vecs))

    @cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        """The basis (columns) dephasing works in, and its kept-entry mask.
        Levels within DEGENERACY_TOL * max|levels| are one level, and J^2
        is weighted by that scale too, so s*H has the frame of H."""
        if self.dephasing == "product_basis":
            v = _read_only(np.eye(len(self.matrix))) if self.identity_frame else self.basis
            return v, _read_only(np.eye(len(v), dtype=bool))
        scale = float(np.abs(self.levels).max())
        if self.dephasing == "collective":
            evals, v = herm_eig(self.matrix + COLLECTIVE_WEIGHT * scale * total_spin_squared(self.num_qubits))
        else:
            evals, v = self.eigenbasis
        return _read_only(v), _same_level(evals, scale)

    @property
    def identity_frame(self) -> bool:
        """Whether dephasing works in the computational basis itself."""
        return self.dephasing == "product_basis" and self.basis is None


@dataclass(frozen=True, eq=False)
class ClassHamiltonian:
    """A permutation-invariant Hamiltonian held by its read-only class coordinates
    (``matcore``) alone, as the class route takes it, dephased under ``product_basis``
    (H diagonal) or ``collective``; equality is by identity."""

    kind: str
    num_qubits: int
    classes: np.ndarray
    dephasing: str

    def __post_init__(self):
        if self.dephasing not in ("product_basis", "collective"):
            raise ValueError(f"class coordinates dephase by product_basis or collective, got {self.dephasing}")
        if self.dephasing == "product_basis":
            _, n01, n10, _ = _entry_classes(self.num_qubits).counts.T
            if np.any(self.classes[(n01 + n10) > 0]):
                raise ValueError(f"product_basis dephasing keeps the diagonal, but {self.kind} is not diagonal")

    @cached_property
    def spin_frames(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] | None:
        """The collective frame, None under ``product_basis``: per spin block H_J
        (``matcore._class_block_parts``, as the states' blocks are read) its
        eigenvectors, the kept-entry mask of its levels within DEGENERACY_TOL *
        max|levels| over all blocks, and its ascending levels."""
        if self.dephasing != "collective":
            return None
        blocks = [np.linalg.eigh(h_j) for h_j in _class_block_parts(self.classes, self.num_qubits)]
        scale = max(float(np.abs(evals).max()) for evals, _ in blocks)
        return tuple((_read_only(u), _same_level(evals, scale), _read_only(evals)) for evals, u in blocks)

    @cached_property
    def levels(self) -> np.ndarray:
        """Ascending levels: the sorted diagonal, or the spread block levels."""
        if self.spin_frames is None:
            return _read_only(np.sort(_class_diagonal(self.classes, self.num_qubits)))
        return _read_only(_spin_spectrum([values for _, _, values in self.spin_frames], self.num_qubits))


def _same_level(evals: np.ndarray, scale: float) -> np.ndarray:
    """Read-only mask of the level pairs within DEGENERACY_TOL * scale."""
    return _read_only(np.abs(evals[:, None] - evals[None, :]) <= DEGENERACY_TOL * scale)


def _read_only(m: np.ndarray) -> np.ndarray:
    m = np.array(m)
    m.flags.writeable = False
    return m


def _sum_local(op: np.ndarray, n: int) -> np.ndarray:
    """sum_t op on qubit t, gathered from its class coordinates (bitwise a sum of krons)."""
    return _class_matrix(_local_sum_classes(op, n), n)


def _named_hamiltonian(kind: str, n, h: float, j: float):
    """The one definition of each named Hamiltonian (``hamiltonian``): its class
    coordinates (``matcore``), its dephasing, and the builder of its product
    basis (of n) where that is not the computational one, else None."""
    n = _integer(n, "qubit count")
    if n < 1:
        raise ValueError("need at least one qubit")
    if not (np.isfinite(h) and np.isfinite(j)):
        raise ValueError(f"field h = {h} and coupling j = {j} must be finite")
    if kind == "excitation":
        return _local_sum_classes(np.outer(KET_E, KET_E.conj()), n), "product_basis", None
    if kind == "z_sum":
        return -0.5 * _local_sum_classes(SIGMA_Z, n), "product_basis", None
    if kind == "x_sum":
        return (1.0 if n == 1 else 0.5) * _local_sum_classes(SIGMA_X, n), "product_basis", x_product_basis
    if kind not in ("xx_interacting", "z_plus_xx"):
        raise ValueError(f"unknown Hamiltonian kind {kind!r}")
    if n != 2:
        raise ValueError(f"{kind} is a two-qubit Hamiltonian")
    # z_plus_xx is nondegenerate for generic (h, j): block dephasing is already exact
    field, dephasing = (SIGMA_X, "collective") if kind == "xx_interacting" else (SIGMA_Z, "block")
    return h * _local_sum_classes(field, 2) + j * _class_coordinates(kron(SIGMA_X, SIGMA_X), 2), dephasing, None


def hamiltonian(kind: str, n: int, h: float = 0.5, j: float = 0.4) -> Hamiltonian:
    """Build one of the named Hamiltonians on ``n`` qubits.

    kinds:
      excitation      sum_i |e><e|_i (energy gap 1 per qubit)
      z_sum           -(1/2) sum_i sigma_z_i (excitation shifted by -n/2)
      x_sum           sigma_x for n=1, else (1/2) sum_i sigma_x_i
      xx_interacting  h (sigma_x_1 + sigma_x_2) + j sigma_x x sigma_x, n=2
      z_plus_xx       h (sigma_z_1 + sigma_z_2) + j sigma_x x sigma_x, n=2

    Each kind has one definition (``_named_hamiltonian``): this dense matrix gathers its
    class coordinates (``matcore._class_matrix``, bitwise the sums of krons), and
    ``_class_hamiltonian`` takes them as they are.
    """
    classes, dephasing, basis = _named_hamiltonian(kind, n, h, j)
    return Hamiltonian(_class_matrix(classes, n), kind, dephasing, None if basis is None else basis(n))


@functools.cache
def _class_hamiltonian(kind: str, n: int) -> ClassHamiltonian:
    """The ``ClassHamiltonian`` of ``hamiltonian(kind, n)``, built once from its class
    coordinates, with no 2^n-sized array. The x field, dephased in the x product basis,
    is split by collective spin, as the two-qubit story's trends need, from n = 2 on (at
    n = 1 it is sigma_x, not half of it); block dephasing has no class form."""
    classes, dephasing, basis = _named_hamiltonian(kind, n, 0.5, 0.4)
    if basis is not None:
        dephasing = "collective" if n > 1 else None
    if dephasing not in ("product_basis", "collective"):
        raise ValueError(f"no class-coordinate {kind!r} Hamiltonian on {n} qubits")
    return ClassHamiltonian(kind, n, _read_only(_exact_real(classes)), dephasing)
