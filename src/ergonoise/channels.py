"""Markovian noise channels: Kraus sets, analytic parameter maps, local
application to multi-qubit states, and Lindblad time evolution.

All channels are parameterized by a strength q in [0, 1]. Every function
here that takes q takes it as a number or as a 1-D grid and returns the
matching shape: a grid gives results with a leading axis of length
len(q); a number is evaluated as the one-point grid [q] with that axis
dropped, so its result is bitwise row 0 of the grid result.
``strengths`` checks q once per call.

The Kraus sets are the physical definition and drive the numerical
pipeline: one table gives each kind's Kraus operators as (Q, d, d)
stacks over a q grid (``kraus_set``), whose superoperators are
sum_k K(q) (x) conj(K(q)). Each of those is a polynomial of low degree
in one variable x(q) (degree 1 in x = 1 - 2q for the flips,
depolarizing and the correlated flip; degree 2 in x = sqrt(1 - q) for
the two dampings), so the only other per-kind fact is one
(x(q), degree) row: the coefficient superoperators C_e are fit once per
kind from the Kraus route at deg + 1 strengths. The image of an
n-qubit state is then rho(q) = sum_k x(q)^k R_k with at most
deg * n + 1 terms. ``apply_local`` expands the R_k of one state or of
each state of a (S, d, d) stack, one target group at a time with every
C_e applied in one batched matmul, and evaluates any q grid from them
as a Vandermonde product, returning every image at once; the memory
rule is stated there. Callers that must bound their memory pass fewer
states per call.
For one permutation-invariant state, given by its class coordinates
(``matcore``: one value per class of entries, C(n+3, 3) of them), under
the same single-qubit kind on every qubit or the correlated flip on a
two-qubit register, ``_class_polynomial`` hands the same terms, in
class coordinates, and the Vandermonde weights to callers that form the
images from them, in class coordinates too. ``_class_expand`` moves one
qubit at a time from the input classes to the output classes with the same C_e,
so no 4^n-sized term is formed; the correlated flip's C_e act on the
16 entries of the two-qubit state.
The closed forms come from one table of affine Bloch maps
n -> T(q) n + t(q) per single-qubit kind. Every T(q) is diagonal, so a
row maps a q grid to a (Q, 3) stack of diagonals diag(T) and a (Q, 3)
stack of shifts t: ``bloch_map`` applies it as diag(T) * n + t and
``bds_param_map`` scales Bell-diagonal parameters by diag(T). The tests
check both against the Kraus route. The flip family and depolarizing
are unital; amplitude damping drains population toward |g> (t != 0)
and is the one non-unital case.
Phase damping is phase flip at the effective strength 1 - sqrt(1-q).
Lindblad evolution runs fixed-step RK4 on the d^2 x d^2 Liouvillian
``_liouvillian``: the master equation is linear, so the N steps are one
power of the step matrix P(dt L) = 1 + dt L + ... + (dt L)^4 / 4!. Like
q, the duration is a number or a grid: ``lindblad_evolve`` builds one
Liouvillian per call and one step matrix per distinct step dt.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    IDENTITY_2,
    KET_E,
    KET_G,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _class_coordinates,
    _class_levels,
    _class_matrix,
    _exact_real,
    _integer,
    _kron_pair,
    as_matrix,
    as_stack,
    kron,
    num_qubits,
)
from .qstate import IDENTITY_4, require_bloch

BIT_FLIP = "bit_flip"
BIT_PHASE_FLIP = "bit_phase_flip"
PHASE_FLIP = "phase_flip"
DEPOLARIZING = "depolarizing"
AMPLITUDE_DAMPING = "amplitude_damping"
PHASE_DAMPING = "phase_damping"
CORRELATED_BIT_FLIP = "correlated_bit_flip"

KINDS = (
    BIT_FLIP,
    BIT_PHASE_FLIP,
    PHASE_FLIP,
    DEPOLARIZING,
    AMPLITUDE_DAMPING,
    PHASE_DAMPING,
    CORRELATED_BIT_FLIP,
)

ALIASES = {
    "bf": BIT_FLIP,
    "bpf": BIT_PHASE_FLIP,
    "pf": PHASE_FLIP,
    "dc": DEPOLARIZING,
    "ad": AMPLITUDE_DAMPING,
    "pd": PHASE_DAMPING,
    "cbf": CORRELATED_BIT_FLIP,
}

# lowering operator |g><e|; drives amplitude damping
SIGMA_MINUS = np.outer(KET_G, KET_E.conj())
_PROJ_G = np.outer(KET_G, KET_G.conj())
_PROJ_E = np.outer(KET_E, KET_E.conj())


def _unital(q, tx, ty, tz):
    """diag(T(q)) of a unital row over a q grid from its three factors,
    each a number or an array like q, and its zero shift."""
    diag = np.empty(q.shape + (3,))
    diag[:, 0], diag[:, 1], diag[:, 2] = tx, ty, tz
    return diag, np.zeros_like(diag)


def _amplitude_damping(q):
    s = np.sqrt(1.0 - q)
    zero = np.zeros_like(q)
    return np.stack([s, s, 1.0 - q], axis=-1), np.stack([zero, zero, q], axis=-1)


# Affine Bloch map n -> T(q) n + t(q) of each single-qubit kind
# (Nielsen & Chuang 8.3). Every T(q) is diagonal, so a row maps a q array
# to its (Q, 3) diagonal diag(T) and (Q, 3) shift t. Only the closed
# forms read it; apply_local stays on the Kraus sets so that the tests
# can compare the two.
_AFFINE = {
    BIT_FLIP: lambda q: _unital(q, 1.0, 1.0 - q, 1.0 - q),
    BIT_PHASE_FLIP: lambda q: _unital(q, 1.0 - q, 1.0, 1.0 - q),
    PHASE_FLIP: lambda q: _unital(q, 1.0 - q, 1.0 - q, 1.0),
    DEPOLARIZING: lambda q: _unital(q, 1.0 - q, 1.0 - q, 1.0 - q),
    AMPLITUDE_DAMPING: _amplitude_damping,
    PHASE_DAMPING: lambda q: _unital(q, np.sqrt(1.0 - q), np.sqrt(1.0 - q), 1.0),
}

UNITAL_KINDS = tuple(
    kind for kind, affine in _AFFINE.items() if not affine(np.array([0.5]))[1].any()
)


def canonical_kind(kind: str) -> str:
    kind = ALIASES.get(kind, kind)
    if kind not in KINDS:
        raise ValueError(f"unknown channel kind {kind!r}")
    return kind


def strengths(q) -> np.ndarray:
    """q as a 1-D float grid, a number becoming the one-point grid [q],
    checked whole: non-empty, 1-D, every entry in [0, 1] (NaN is outside)."""
    qs = np.asarray(q, dtype=float)
    if qs.ndim == 0:
        qs = qs.reshape(1)
    if qs.ndim != 1:
        raise ValueError(f"noise strengths must form a 1-D grid, got shape {qs.shape}")
    if not qs.size:
        raise ValueError("need at least one noise strength")
    outside = ~((qs >= 0.0) & (qs <= 1.0))
    if outside.any():
        raise ValueError(f"noise strength q = {float(qs[outside.argmax()])} outside [0, 1]")
    return qs


def _shaped(q, result):
    """A result computed on the grid ``strengths(q)``, with its leading
    axis dropped when q is a number."""
    return result[0] if np.ndim(q) == 0 else result


# (Q,) coefficients times one operator: a (Q, d, d) stack
_outer = np.multiply.outer


def _flip(identity, op):
    """sqrt(1 - q/2) identity and sqrt(q/2) op."""
    return lambda q: [_outer(np.sqrt(1.0 - q / 2.0), identity), _outer(np.sqrt(q / 2.0), op)]


def _damping(op):
    """P_g + sqrt(1 - q) P_e and sqrt(q) op."""
    return lambda q: [_PROJ_G + _outer(np.sqrt(1.0 - q), _PROJ_E), _outer(np.sqrt(q), op)]


# Kraus operators of each kind as (Q, d, d) stacks over a q array, all of
# one dtype; every set satisfies sum K^dag K = I. Depolarizing uses
# sqrt(1 - 3q/4) on the identity term so that the set is complete and the
# Bloch vector contracts by exactly (1 - q).
_KRAUS = {
    BIT_FLIP: _flip(IDENTITY_2, SIGMA_X),
    BIT_PHASE_FLIP: _flip(IDENTITY_2, SIGMA_Y),
    PHASE_FLIP: _flip(IDENTITY_2, SIGMA_Z),
    DEPOLARIZING: lambda q: [_outer(np.sqrt(1.0 - 3.0 * q / 4.0), IDENTITY_2)]
    + [_outer(np.sqrt(q / 4.0), p) for p in PAULIS],
    AMPLITUDE_DAMPING: _damping(SIGMA_MINUS),
    PHASE_DAMPING: _damping(_PROJ_E),
    CORRELATED_BIT_FLIP: _flip(IDENTITY_4, kron(SIGMA_X, SIGMA_X)),
}


def kraus_set(kind: str, q) -> list[np.ndarray]:
    """Kraus operators of the channel at strength q: one (d, d) matrix
    each for a number, one (len(q), d, d) stack each for a grid."""
    kind = canonical_kind(kind)
    return [_shaped(q, k) for k in _KRAUS[kind](strengths(q))]


def _superoperators(kind: str, qs: np.ndarray) -> np.ndarray:
    """sum_k K(q) (x) conj(K(q)) at each strength, as a (len(qs), 4^m, 4^m)
    stack for an m-qubit kind.

    Rows run over (out rows, out cols) and columns over (in rows, in
    cols), each over the channel's qubits in order.
    """
    ks = np.stack(_KRAUS[kind](qs), axis=1)
    d = ks.shape[-1]
    sup = np.einsum("qkij,qkIJ->qiIjJ", ks, ks.conj())
    return sup.reshape(len(qs), d * d, d * d)


# Each kind's superoperator as a polynomial in one variable x(q): the
# variable and the degree. The Kraus weights of the flip family,
# depolarizing and the correlated flip (q/2, 1 - q/2, q/4, 1 - 3q/4) are
# linear in q, taken in x = 1 - 2q, which is better conditioned on
# [0, 1]; the two dampings have entries 1, x, x^2 and 1 - x^2 in
# x = sqrt(1 - q).
_LINEAR = (lambda q: 1.0 - 2.0 * q, 1)
_QUADRATIC = (lambda q: np.sqrt(1.0 - q), 2)
_POLYNOMIALS = {
    BIT_FLIP: _LINEAR,
    BIT_PHASE_FLIP: _LINEAR,
    PHASE_FLIP: _LINEAR,
    DEPOLARIZING: _LINEAR,
    AMPLITUDE_DAMPING: _QUADRATIC,
    PHASE_DAMPING: _QUADRATIC,
    CORRELATED_BIT_FLIP: _LINEAR,
}


@functools.cache
def _coefficients(kind: str) -> np.ndarray:
    """The read-only (deg + 1, 4^m, 4^m) stack of C_e with
    ``_superoperators(kind, q) = sum_e x(q)^e C_e``, fit from the
    superoperators at deg + 1 strengths spread over [0, 1] by solving
    their Vandermonde system. Every kind's C_e is exactly real (sigma_y
    enters only as sigma_y (x) conj(sigma_y)), so the table is float64."""
    x_of, degree = _POLYNOMIALS[kind]
    nodes = np.linspace(0.0, 1.0, degree + 1)
    sups = _superoperators(kind, nodes)
    vander = np.vander(x_of(nodes), increasing=True)
    coef = _exact_real(np.linalg.solve(vander, sups.reshape(degree + 1, -1)).reshape(sups.shape))
    coef.flags.writeable = False
    return coef


@functools.cache
def _toeplitz(kind: str, k: int) -> np.ndarray:
    """Multiplication of a degree k - 1 polynomial by sum_e x^e C_e, as a
    read-only ((k + deg) 4^m, k 4^m) block matrix on its k terms stacked
    in (term, 4^m) rows: block (k', k) is C_{k' - k}, zero off the band,
    in the dtype of the C_e."""
    coef = _coefficients(kind)
    degree, dim = len(coef) - 1, coef.shape[1]
    blocks = np.zeros((k + degree, dim, k, dim), dtype=coef.dtype)
    for j in range(k):
        blocks[j : j + degree + 1, :, j] = coef
    blocks = blocks.reshape((k + degree) * dim, k * dim)
    blocks.flags.writeable = False
    return blocks


def _expand(rhos: np.ndarray, kind: str, groups: tuple, n: int) -> np.ndarray:
    """The terms R_k of rho(x) = sum_k x^k R_k for every state of a
    (S, d, d) stack, as a (S, K, d * d) array with K = deg * len(groups) + 1.

    The K terms are held in place from the start. Each target group
    multiplies the polynomial by sum_e x^e C_e: the terms of every state
    are read whole (as (k 4^m, d^2 / 4^m) rows per state, the group's
    axes first), multiplied by ``_toeplitz`` in one batched matmul that
    applies every C_e at once, and written back over the same entries,
    so the temporaries are about twice the terms. Each state is its own
    product, so its terms come out the same alone or in a stack. The
    terms take the dtype the states and the C_e promote to: float64 for
    real states.
    """
    count, size = len(rhos), rhos.shape[-1] ** 2
    degree = _POLYNOMIALS[kind][1]
    dtype = np.result_type(rhos, _coefficients(kind))
    terms = np.empty((count, degree * len(groups) + 1, size), dtype=dtype)
    terms[:, 0] = rhos.reshape(count, size)
    for i, group in enumerate(groups):
        k = degree * i + 1
        front = list(group) + [n + t for t in group]
        order = front + [a for a in range(2 * n) if a not in front]
        view = terms.reshape(terms.shape[:2] + (2,) * (2 * n)).transpose([0, 1] + [2 + a for a in order])
        dim = 4 ** len(group)
        grown = view[:, : k + degree]
        grown[...] = (_toeplitz(kind, k) @ view[:, :k].reshape(count, k * dim, size // dim)).reshape(grown.shape)
    return terms


def _checked(rhos, kind: str, targets) -> tuple[np.ndarray, int, tuple]:
    """One state or a (S, d, d) stack as a (S, d, d) stack, its qubit
    count and the target groups of a canonical kind. The states' shape,
    the targets and the correlated pair are checked, in that order.
    The states enter through ``matcore.as_stack``, so exactly real ones
    come back as float64."""
    rhos, _ = as_stack(rhos)
    n = num_qubits(rhos[0])
    if targets is None:
        targets = range(2) if kind == CORRELATED_BIT_FLIP and n == 2 else range(n)
    targets = sorted(set(_integer(t, "qubit index") for t in targets))
    if targets and (targets[0] < 0 or targets[-1] >= n):
        raise ValueError(f"targets {targets} out of range for {n} qubits")
    if kind == CORRELATED_BIT_FLIP:
        if len(targets) != 2:
            raise ValueError("correlated bit flip acts on exactly one qubit pair")
        return rhos, n, (tuple(targets),)
    return rhos, n, tuple((t,) for t in targets)


def _vandermonde(kind: str, qs: np.ndarray, count: int) -> np.ndarray:
    """The (Q, count) real weights x(q)^k of a canonical kind."""
    return np.power.outer(_POLYNOMIALS[kind][0](qs), np.arange(count))


def _class_expand(coords: np.ndarray, kind: str, n: int) -> np.ndarray:
    """The (K, D) class coordinates of the terms R_k of
    rho(x) = sum_k x^k R_k, K = deg * n + 1, for the permutation-invariant
    state with class coordinates ``coords`` under a single-qubit kind on
    every one of its n qubits.

    The channel moves one qubit at a time from the input classes to the
    output classes (``matcore._class_levels``). After d qubits the
    polynomial is held as F_d[(m, v), k]: m a class of the d output
    qubits, v one of the n - d input qubits left, k a term. One more
    qubit gives, for each output class m' with its fixed pair type b and
    parent m' - e_b,
    F_{d+1}[(m', v), k'] = sum_{e, a} C_e[b, a] F_d[(m' - e_b, v + e_a), k' - e]:
    one gather of the parents' entries, columns (a, k), then one product
    per pair type b with the rows (k', b) of ``_toeplitz``, which apply
    every C_e and the shift of the terms at once.
    """
    poly = coords[:, None]
    for index, groups in _class_levels(n):
        count = poly.shape[1]
        # (b, (a, k), k'): the rows (k', b) of the Toeplitz operator, transposed
        op = _toeplitz(kind, count).reshape(-1, 4, count, 4).transpose(1, 3, 2, 0).reshape(4, 4 * count, -1)
        parents = np.take(poly, index, axis=0).reshape(len(index), -1)
        poly = np.empty((len(index), op.shape[-1]), dtype=np.result_type(parents, op))
        for b, rows in groups:
            np.matmul(parents[rows], op[b], out=poly[rows])
    return poly.T


def _class_polynomial(coords, kind: str, n: int, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The images of one permutation-invariant state on n qubits, given by
    its class coordinates, under a canonical kind at every strength of a
    checked grid: the (K, D) class coordinates of the terms R_k of
    rho(x) = sum_k x^k R_k and the (Q, K) weights x(q)^k.

    A single-qubit kind acts on every qubit (``_class_expand``). The
    correlated flip acts on a qubit pair, so it is taken only where that
    pair is the whole register, n = 2: its C_e apply to the 16 entries
    gathered from the 10 class coordinates, and each term is averaged
    back to class coordinates (``matcore._class_coordinates``; the flip
    of both qubits commutes with their swap, so the average is exact).
    On any other register it is rejected with the message of the dense
    route (``_checked``)."""
    if kind != CORRELATED_BIT_FLIP:
        terms = _class_expand(coords, kind, n)
    elif n == 2:
        dense = _class_matrix(coords, 2).reshape(-1)
        terms = np.array([_class_coordinates(c @ dense, 2) for c in _coefficients(kind)])
    else:
        raise ValueError("correlated bit flip acts on exactly one qubit pair")
    return terms, _vandermonde(kind, qs, len(terms))


def _local_images(rhos, kind: str, qs: np.ndarray, targets) -> np.ndarray:
    """The (S, Q, d, d) images of ``apply_local`` for one state or a
    (S, d, d) stack, a canonical kind and a checked grid."""
    rhos, n, groups = _checked(rhos, kind, targets)
    terms = _expand(rhos, kind, groups, n)
    # the weights in the terms' dtype, so that no state's product casts them
    vander = _vandermonde(kind, qs, terms.shape[1]).astype(terms.dtype, copy=False)
    count, d = len(terms), rhos.shape[-1]
    images = np.empty((count, len(qs), 1, d * d), dtype=terms.dtype)
    # one (1 x K) @ (K x d^2) product per (state, strength): an image does
    # not depend on the grid or the stack it is evaluated in
    np.matmul(vander[None, :, None], terms[:, None], out=images)
    return images.reshape(count, len(qs), d, d)


def apply_local(rho, kind: str, q, targets=None) -> np.ndarray:
    """Images of one (d, d) state, or of every state of a (S, d, d)
    stack, under the channel on the listed qubits (all of them by
    default) at every strength of q: one state gives a (d, d) state for a
    number q and a (len(q), d, d) stack for a grid, a stack gives
    (S, d, d) and (S, len(q), d, d). The kind, the grid, the states'
    shape and the targets are validated, in that order: a 3-D input is a
    stack (``matcore.as_stack``), any other one state
    (``matcore.as_matrix``).

    Each state is expanded once into the terms R_k of its image
    rho(q) = sum_k x(q)^k R_k (``_expand``), and its images are the
    Vandermonde product (Q x K) @ (K x d^2), taken row by row and written
    in place, so that an image does not depend on the grid or the stack
    it is evaluated in. The images are float64 when the states are
    exactly real (every kind's superoperator is), and complex128
    otherwise. Memory: a call holds every image of the states it is
    given, plus their terms, K d^2 entries per state (8.5 MiB and 17 MiB
    for a real and a complex state under amplitude damping at 8 qubits,
    K = 17), and about twice the terms in the expansion's temporaries
    (one complex state at 8 qubits peaks at 49 MiB with its 21-point
    curve). A caller that must bound its memory passes fewer states.

    Single-qubit kinds act on each target in ascending index order; the
    order is observationally irrelevant since the maps commute on
    distinct qubits. The correlated kind needs exactly one qubit pair;
    all qubits are the default targets (the pair itself for a two-qubit
    state).
    """
    kind = canonical_kind(kind)
    qs = strengths(q)
    one = np.ndim(rho) != 3
    images = _local_images(as_matrix(rho) if one else rho, kind, qs, targets)
    images = images[:, 0] if np.ndim(q) == 0 else images
    return images[0] if one else images


def bloch_map(kind: str, q, n) -> np.ndarray:
    """Closed-form image T(q) n + t(q) of a single-qubit Bloch vector: a
    3-vector for a number q, a (len(q), 3) array for a grid.

    The grid is validated whole by ``strengths`` and the Bloch vector
    once by ``require_bloch``.
    """
    kind = canonical_kind(kind)
    qs = strengths(q)
    if kind not in _AFFINE:
        raise ValueError(f"no single-qubit Bloch map for {kind!r}")
    n = require_bloch(n)
    diag, shift = _AFFINE[kind](qs)
    return _shaped(q, diag * n + shift)


def bds_param_map(kind: str, q, c, both_qubits: bool = True) -> np.ndarray:
    """Closed-form images of Bell-diagonal parameters under a unital
    channel: a 3-vector for a number q, a (len(q), 3) array for a grid.

    Each noised qubit scales (c1, c2, c3) by diag(T(q)), so noise on
    both qubits scales by diag(T)^2. The correlated flip leaves Bell-
    diagonal states unchanged. A non-unital kind (t != 0, amplitude
    damping) breaks the Bell-diagonal form and is rejected.
    """
    kind = canonical_kind(kind)
    qs = strengths(q)
    return _shaped(q, _bds_scaled(kind, qs, np.asarray(c, dtype=float), both_qubits))


def _bds_scaled(kind: str, qs: np.ndarray, c: np.ndarray, both_qubits: bool) -> np.ndarray:
    """``bds_param_map`` for a canonical kind and a checked grid: the
    (len(qs), 3) mapped parameters, with the same rejection."""
    if kind == CORRELATED_BIT_FLIP:
        factors = np.ones((len(qs), 3))
    elif kind in UNITAL_KINDS:
        factors = _AFFINE[kind](qs)[0]
        if both_qubits:
            factors = factors**2
    else:
        raise ValueError(
            f"{kind.replace('_', ' ')} destroys the symmetry required to "
            "preserve the Bell-diagonal form; apply the Kraus set instead"
        )
    return factors * c


@dataclass(frozen=True, eq=False)
class LindbladSpec:
    """Jump operators, their rates, and the evolution duration: a number or
    a non-empty 1-D grid (stored read-only in float64), each duration
    checked in order as a one-duration spec checks it. Equality and
    hashing are by identity, as its arrays have no one truth value."""

    jump_operators: tuple
    rates: tuple
    duration: float | np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "jump_operators", tuple(as_matrix(l) for l in self.jump_operators)
        )
        object.__setattr__(self, "rates", tuple(float(g) for g in self.rates))
        if len(self.jump_operators) != len(self.rates):
            raise ValueError("need one rate per jump operator")
        if np.ndim(self.duration):
            grid = np.array(self.duration, dtype=float)
            if grid.ndim != 1 or not grid.size:
                raise ValueError(f"durations must form a non-empty 1-D grid, got shape {grid.shape}")
            grid.flags.writeable = False
            object.__setattr__(self, "duration", grid)
        for t in np.atleast_1d(self.duration):
            if not all(map(math.isfinite, self.rates + (t,))):
                raise ValueError(f"rates {self.rates} and duration {t} must be finite")
            if any(g < 0 for g in self.rates):
                raise ValueError("rates must be nonnegative")
            if t < 0:
                raise ValueError("duration must be nonnegative")


MAX_RK4_STEPS = 10**6


def _liouvillian(ops, rates) -> np.ndarray:
    """The dissipator sum gamma (L rho L^dag - {L^dag L, rho}/2) as a d^2 x d^2
    matrix on the row-major vec ``rho.reshape(-1)``, where
    vec(A rho B) = (A (x) B^T) vec(rho)."""
    eye = np.eye(len(ops[0]))
    out = 0.0
    for gamma, l in zip(rates, ops):
        ldl = l.conj().T @ l
        out = out + gamma * (_kron_pair(l, l.conj()) - 0.5 * (_kron_pair(ldl, eye) + _kron_pair(eye, ldl.T)))
    return out


def lindblad_evolve(rho0, spec: LindbladSpec) -> np.ndarray:
    """Integrate the purely dissipative master equation with fixed-step RK4:
    one (d, d) state for a one-duration spec, a (T, d, d) stack in grid
    order for a grid.

    The step targets max(rate)*dt <= 1e-3; a run whose largest duration
    would need more than MAX_RK4_STEPS steps is rejected before anything
    is built. On the linear flow rho' = L rho one RK4 step is exactly
    rho <- P(dt L) rho with P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, so the
    N steps are applied as the one matrix P(dt L)^N, formed by repeated
    squaring. One Liouvillian serves the whole grid and one step matrix
    each distinct step dt = t / N; every duration takes its own power
    P^N, so each row is bitwise the one-duration run. The result takes
    the dtype that rho0 and the jump operators promote to.
    """
    rho, ops, rates = as_matrix(rho0), spec.jump_operators, spec.rates
    durations, rate = np.atleast_1d(spec.duration), max(rates, default=0.0)
    needed = {  # RK4 steps of each row that evolves
        i: max(1, math.ceil(t * rate / 1e-3)) for i, t in enumerate(durations) if t != 0.0 and rate != 0.0
    }
    if needed and max(needed.values()) > MAX_RK4_STEPS:
        raise ValueError(
            f"step-size underflow: {max(needed.values())} RK4 steps exceed the {MAX_RK4_STEPS} limit"
        )
    out = np.empty((len(durations),) + rho.shape, dtype=np.result_type(rho, *ops))
    out[:] = rho
    if needed:
        liouvillian = _liouvillian(ops, rates)
        eye = np.eye(len(liouvillian))
        steps = {}
        for i, count in needed.items():
            dt = durations[i] / count
            if dt not in steps:
                m = dt * liouvillian
                steps[dt] = eye + m @ (eye + (m / 2.0) @ (eye + (m / 3.0) @ (eye + m / 4.0)))
            out[i] = (np.linalg.matrix_power(steps[dt], count) @ rho.reshape(-1)).reshape(rho.shape)
    return out if np.ndim(spec.duration) else out[0]


# Lindblad clock of each kind: the jump operator L and the rate factor r
# such that evolving with L at rate gamma for a time t matches the Kraus
# channel at q = 1 - exp(-r gamma t).
_CLOCKS = {
    BIT_FLIP: (SIGMA_X, 2.0),
    AMPLITUDE_DAMPING: (SIGMA_MINUS, 1.0),
}


def jump_operator(kind: str) -> np.ndarray:
    """Jump operator whose Lindblad flow matches the Kraus channel clock."""
    kind = canonical_kind(kind)
    if kind not in _CLOCKS:
        raise ValueError(f"no jump-operator clock derived for {kind!r}")
    return _CLOCKS[kind][0].copy()


def q_of_t(kind: str, gamma: float, t: float) -> float:
    """Kraus strength reached after evolving for time t at rate gamma.

    Only the bit-flip and amplitude-damping clocks are defined:
    q = 1 - exp(-2 gamma t) and q = 1 - exp(-gamma t) respectively.
    """
    kind = canonical_kind(kind)
    if not (math.isfinite(gamma) and math.isfinite(t)):
        raise ValueError(f"gamma = {gamma} and t = {t} must be finite")
    if gamma < 0 or t < 0:
        raise ValueError("gamma and t must be nonnegative")
    if kind not in _CLOCKS:
        raise ValueError(f"no Kraus-equivalence clock for {kind!r}")
    return 1.0 - math.exp(-_CLOCKS[kind][1] * gamma * t)
