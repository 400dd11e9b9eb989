"""Markovian noise channels: Kraus sets, analytic parameter maps, local
application to multi-qubit states, and Lindblad time evolution.

All channels are parameterized by a strength q in [0, 1]. The Kraus sets
are the physical definition and drive the numerical pipeline: one table
gives each kind's Kraus operators as (Q, d, d) stacks over a whole q
array (``kraus_set`` reads one row), ``apply_local_grid`` turns them into
the superoperators sum_k K(q) (x) conj(K(q)) and applies them to each
target group as one batched matmul, and ``apply_local_chunks`` splits a
long grid into stacks of at most STACK_BUDGET_BYTES of states.
The closed forms come from one table of affine Bloch maps
n -> T(q) n + t(q) per single-qubit kind: ``bloch_map`` applies it and
``bds_param_map`` reads diag(T). The tests check both against the Kraus
route. The flip family and depolarizing are unital; amplitude damping
drains population toward |g> (t != 0) and is the one non-unital case.
Phase damping is phase flip at the effective strength 1 - sqrt(1-q).
"""

from __future__ import annotations

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
    as_matrix,
    num_qubits,
)
from .qstate import IDENTITY_4, PAULI_PAIRS, require_bloch

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


def _unital(tx: float, ty: float, tz: float):
    return np.diag([tx, ty, tz]), np.zeros(3)


def _amplitude_damping(q: float):
    s = math.sqrt(1.0 - q)
    return np.diag([s, s, 1.0 - q]), np.array([0.0, 0.0, q])


# Affine Bloch map n -> T(q) n + t(q) of each single-qubit kind
# (Nielsen & Chuang 8.3). Only the closed forms read it; apply_local
# stays on the Kraus sets so that the tests can compare the two.
_AFFINE = {
    BIT_FLIP: lambda q: _unital(1.0, 1.0 - q, 1.0 - q),
    BIT_PHASE_FLIP: lambda q: _unital(1.0 - q, 1.0, 1.0 - q),
    PHASE_FLIP: lambda q: _unital(1.0 - q, 1.0 - q, 1.0),
    DEPOLARIZING: lambda q: _unital(1.0 - q, 1.0 - q, 1.0 - q),
    AMPLITUDE_DAMPING: _amplitude_damping,
    PHASE_DAMPING: lambda q: _unital(math.sqrt(1.0 - q), math.sqrt(1.0 - q), 1.0),
}

UNITAL_KINDS = tuple(kind for kind, affine in _AFFINE.items() if not affine(0.5)[1].any())


def canonical_kind(kind: str) -> str:
    kind = ALIASES.get(kind, kind)
    if kind not in KINDS:
        raise ValueError(f"unknown channel kind {kind!r}")
    return kind


def strengths(q_grid) -> np.ndarray:
    """A q grid as a float array, checked whole: non-empty, 1-D, every
    entry in [0, 1] (NaN is outside)."""
    qs = np.asarray(q_grid, dtype=float)
    if qs.ndim != 1:
        raise ValueError(f"noise strengths must form a 1-D grid, got shape {qs.shape}")
    if not qs.size:
        raise ValueError("need at least one noise strength")
    outside = ~((qs >= 0.0) & (qs <= 1.0))
    if outside.any():
        raise ValueError(f"noise strength q = {float(qs[outside.argmax()])} outside [0, 1]")
    return qs


@dataclass(frozen=True)
class ChannelSpec:
    """A channel kind plus its noise strength q in [0, 1]."""

    kind: str
    q: float

    def __post_init__(self):
        object.__setattr__(self, "kind", canonical_kind(self.kind))
        object.__setattr__(self, "q", float(strengths([self.q])[0]))


# (Q,) coefficients times one operator: a (Q, d, d) stack
_outer = np.multiply.outer


def _flip(identity, op):
    """sqrt(1 - q/2) identity and sqrt(q/2) op."""
    return lambda q: [_outer(np.sqrt(1.0 - q / 2.0), identity), _outer(np.sqrt(q / 2.0), op)]


def _damping(op):
    """P_g + sqrt(1 - q) P_e and sqrt(q) op."""
    return lambda q: [_PROJ_G + _outer(np.sqrt(1.0 - q), _PROJ_E), _outer(np.sqrt(q), op)]


# Kraus operators of each kind as (Q, d, d) stacks over a q array; every
# set satisfies sum K^dag K = I. Depolarizing uses sqrt(1 - 3q/4) on the
# identity term so that the set is complete and the Bloch vector
# contracts by exactly (1 - q).
_KRAUS = {
    BIT_FLIP: _flip(IDENTITY_2, SIGMA_X),
    BIT_PHASE_FLIP: _flip(IDENTITY_2, SIGMA_Y),
    PHASE_FLIP: _flip(IDENTITY_2, SIGMA_Z),
    DEPOLARIZING: lambda q: [_outer(np.sqrt(1.0 - 3.0 * q / 4.0), IDENTITY_2)]
    + [_outer(np.sqrt(q / 4.0), p) for p in PAULIS],
    AMPLITUDE_DAMPING: _damping(SIGMA_MINUS),
    PHASE_DAMPING: _damping(_PROJ_E),
    CORRELATED_BIT_FLIP: _flip(IDENTITY_4, PAULI_PAIRS[0]),  # sigma_x x sigma_x
}


def kraus_set(spec: ChannelSpec) -> list[np.ndarray]:
    """Kraus operators of the channel at one strength (a row of the table)."""
    return [k[0] for k in _KRAUS[spec.kind](np.array([spec.q]))]


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


def _contract(rhos: np.ndarray, sups: np.ndarray, targets, n: int) -> np.ndarray:
    """Apply the i-th superoperator to the sorted ``targets`` of the i-th state.

    The targets' row and column axes move to the front, so the whole
    stack is one batched matmul onto a (Q, 4^m, 4^(n-m)) reshape.
    """
    m = len(targets)
    front = [1 + t for t in targets] + [1 + n + t for t in targets]
    perm = [0] + front + [a for a in range(1, 2 * n + 1) if a not in front]
    tens = rhos.reshape((len(rhos),) + (2,) * (2 * n)).transpose(perm)
    out = (sups @ tens.reshape(len(rhos), 4**m, -1)).reshape(tens.shape)
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    return out.transpose(inverse).reshape(rhos.shape)


def apply_local_grid(rho, kind: str, q_grid, targets=None) -> np.ndarray:
    """Images of one state under the channel at every strength of ``q_grid``.

    Returns a (len(q_grid), d, d) stack; the grid is validated whole by
    ``strengths``. Single-qubit kinds act on each target in ascending
    index order; the order is observationally irrelevant since the maps
    commute on distinct qubits. The correlated kind needs exactly one
    qubit pair; all qubits are the default targets (the pair itself for
    a two-qubit state).
    """
    kind = canonical_kind(kind)
    qs = strengths(q_grid)
    rho = as_matrix(rho)
    n = num_qubits(rho)
    if targets is None:
        targets = range(2) if kind == CORRELATED_BIT_FLIP and n == 2 else range(n)
    targets = sorted(set(int(t) for t in targets))
    if targets and (targets[0] < 0 or targets[-1] >= n):
        raise ValueError(f"targets {targets} out of range for {n} qubits")
    if kind == CORRELATED_BIT_FLIP:
        if len(targets) != 2:
            raise ValueError("correlated bit flip acts on exactly one qubit pair")
        groups = [targets]
    else:
        groups = [(t,) for t in targets]
    sups = _superoperators(kind, qs)
    out = np.repeat(rho[None], len(qs), axis=0)
    for group in groups:
        out = _contract(out, sups, group, n)
    return out


# Bytes of complex128 evolved states held at once along a q grid: a
# 101-point grid of 4x4 states fits in one stack, and from 8 qubits on
# every stack holds one state, so memory stays flat in the register size.
STACK_BUDGET_BYTES = 256 * 1024


def apply_local_chunks(rho, kind: str, q_grid, targets=None):
    """Yield (slice of q_grid, ``apply_local_grid`` stack) pieces of at most
    STACK_BUDGET_BYTES of states, the grid validated whole before the first."""
    qs = strengths(q_grid)
    dim = np.shape(rho)[0]
    step = max(1, STACK_BUDGET_BYTES // (16 * dim * dim))
    for start in range(0, len(qs), step):
        part = slice(start, start + step)
        yield part, apply_local_grid(rho, kind, qs[part], targets)


def apply_local(rho, spec: ChannelSpec, targets=None) -> np.ndarray:
    """Apply the channel to the listed qubits (all of them by default).

    The one-strength case of ``apply_local_grid``, with the same targets.
    """
    return apply_local_grid(rho, spec.kind, [spec.q], targets)[0]


def bloch_map(spec: ChannelSpec, n) -> np.ndarray:
    """Closed-form image T(q) n + t(q) of a single-qubit Bloch vector."""
    if spec.kind not in _AFFINE:
        raise ValueError(f"no single-qubit Bloch map for {spec.kind!r}")
    mat, shift = _AFFINE[spec.kind](spec.q)
    return mat @ require_bloch(n) + shift


def bds_param_map(spec: ChannelSpec, c, both_qubits: bool = True) -> np.ndarray:
    """Closed-form image of Bell-diagonal parameters under a unital channel.

    Each noised qubit scales (c1, c2, c3) by diag(T(q)), so noise on
    both qubits scales by diag(T)^2. The correlated flip leaves Bell-
    diagonal states unchanged. A non-unital kind (t != 0, amplitude
    damping) breaks the Bell-diagonal form and is rejected.
    """
    c = np.asarray(c, dtype=float)
    if spec.kind == CORRELATED_BIT_FLIP:
        return c.copy()
    if spec.kind not in UNITAL_KINDS:
        raise ValueError(
            f"{spec.kind.replace('_', ' ')} destroys the symmetry required to "
            "preserve the Bell-diagonal form; apply the Kraus set instead"
        )
    factors = np.diag(_AFFINE[spec.kind](spec.q)[0])
    if both_qubits:
        factors = factors**2
    return factors * c


@dataclass(frozen=True)
class LindbladSpec:
    """Jump operators, their rates, and the evolution duration."""

    jump_operators: tuple
    rates: tuple
    duration: float

    def __post_init__(self):
        object.__setattr__(
            self, "jump_operators", tuple(as_matrix(l) for l in self.jump_operators)
        )
        object.__setattr__(self, "rates", tuple(float(g) for g in self.rates))
        if len(self.jump_operators) != len(self.rates):
            raise ValueError("need one rate per jump operator")
        if not all(map(math.isfinite, self.rates + (self.duration,))):
            raise ValueError(f"rates {self.rates} and duration {self.duration} must be finite")
        if any(g < 0 for g in self.rates):
            raise ValueError("rates must be nonnegative")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")


MAX_RK4_STEPS = 10**6


def _dissipator(rho, ops, rates):
    out = np.zeros_like(rho)
    for gamma, l in zip(rates, ops):
        ld = l.conj().T
        ldl = ld @ l
        out += gamma * (l @ rho @ ld - 0.5 * (ldl @ rho + rho @ ldl))
    return out


def lindblad_evolve(rho0, spec: LindbladSpec):
    """Integrate the purely dissipative master equation with fixed-step RK4.

    The step targets max(rate)*dt <= 1e-3; a run that would need more than
    MAX_RK4_STEPS steps is rejected before stepping.
    """
    rho = as_matrix(rho0).copy()
    t = spec.duration
    if t == 0.0 or not spec.rates or max(spec.rates) == 0.0:
        return rho
    needed = max(1, math.ceil(t * max(spec.rates) / 1e-3))
    if needed > MAX_RK4_STEPS:
        raise ValueError(
            f"step-size underflow: {needed} RK4 steps exceed the {MAX_RK4_STEPS} limit"
        )
    dt = t / needed
    ops, rates = spec.jump_operators, spec.rates
    for _ in range(needed):
        k1 = _dissipator(rho, ops, rates)
        k2 = _dissipator(rho + 0.5 * dt * k1, ops, rates)
        k3 = _dissipator(rho + 0.5 * dt * k2, ops, rates)
        k4 = _dissipator(rho + dt * k3, ops, rates)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


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
