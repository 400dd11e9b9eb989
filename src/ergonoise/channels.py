"""Markovian noise channels: Kraus sets, analytic parameter maps, local
application to multi-qubit states, and Lindblad time evolution.

All channels are parameterized by a strength q in [0, 1]. The Kraus sets
are the physical definition and drive the numerical pipeline:
``apply_local_grid`` stacks the superoperators sum_k K(q) (x) conj(K(q))
of a whole q grid and contracts them onto the target qubits with one
batched einsum per target group, giving one evolved state per q;
``apply_local`` is the one-strength case of the same contraction.
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
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_matrix,
    kron,
    num_qubits,
)

COMPLETENESS_TOL = 1e-12

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


@dataclass(frozen=True)
class ChannelSpec:
    """A channel kind plus its noise strength q in [0, 1]."""

    kind: str
    q: float

    def __post_init__(self):
        object.__setattr__(self, "kind", canonical_kind(self.kind))
        object.__setattr__(self, "q", float(self.q))
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"noise strength q = {self.q} outside [0, 1]")


def kraus_set(spec: ChannelSpec) -> list[np.ndarray]:
    """Kraus operators of the channel; they satisfy sum K^dag K = I.

    Depolarizing uses sqrt(1 - 3q/4) on the identity term so that the
    set is complete and the Bloch vector contracts by exactly (1 - q).
    """
    q = spec.q
    if spec.kind == BIT_FLIP:
        return [np.sqrt(1.0 - q / 2.0) * IDENTITY_2, np.sqrt(q / 2.0) * SIGMA_X]
    if spec.kind == BIT_PHASE_FLIP:
        return [np.sqrt(1.0 - q / 2.0) * IDENTITY_2, np.sqrt(q / 2.0) * SIGMA_Y]
    if spec.kind == PHASE_FLIP:
        return [np.sqrt(1.0 - q / 2.0) * IDENTITY_2, np.sqrt(q / 2.0) * SIGMA_Z]
    if spec.kind == DEPOLARIZING:
        return [np.sqrt(1.0 - 3.0 * q / 4.0) * IDENTITY_2] + [
            np.sqrt(q / 4.0) * p for p in (SIGMA_X, SIGMA_Y, SIGMA_Z)
        ]
    if spec.kind == AMPLITUDE_DAMPING:
        return [_PROJ_G + np.sqrt(1.0 - q) * _PROJ_E, np.sqrt(q) * SIGMA_MINUS]
    if spec.kind == PHASE_DAMPING:
        return [_PROJ_G + np.sqrt(1.0 - q) * _PROJ_E, np.sqrt(q) * _PROJ_E]
    if spec.kind == CORRELATED_BIT_FLIP:
        return [
            np.sqrt(1.0 - q / 2.0) * kron(IDENTITY_2, IDENTITY_2),
            np.sqrt(q / 2.0) * kron(SIGMA_X, SIGMA_X),
        ]
    raise ValueError(f"unknown channel kind {spec.kind!r}")


def _superoperators(specs) -> np.ndarray:
    """sum_k K (x) conj(K) of each spec, stacked along a leading axis.

    After that axis come one size-2 axis per qubit index, running (out
    rows, out cols, in rows, in cols), each over the channel's qubits in
    order. Every spec must have the same kind.
    """
    ks = np.array([kraus_set(spec) for spec in specs])
    m = ks.shape[-1].bit_length() - 1
    sup = np.einsum("qkij,qkIJ->qiIjJ", ks, ks.conj())
    return sup.reshape((len(specs),) + (2,) * (4 * m))


def _contract(rhos: np.ndarray, sups: np.ndarray, targets, n: int) -> np.ndarray:
    """Apply the i-th superoperator to the sorted ``targets`` of the i-th state."""
    m = len(targets)
    axes = list(range(2 * n))
    fresh = list(range(2 * n, 2 * n + 2 * m))
    batch = 2 * n + 2 * m
    out_axes = axes.copy()
    for t, row, col in zip(targets, fresh[:m], fresh[m:]):
        out_axes[t], out_axes[n + t] = row, col
    sup_axes = [batch] + fresh + list(targets) + [n + t for t in targets]
    tens = rhos.reshape((len(rhos),) + (2,) * (2 * n))
    out = np.einsum(sups, sup_axes, tens, [batch] + axes, [batch] + out_axes)
    return out.reshape(rhos.shape)


def apply_local_grid(rho, kind: str, q_grid, targets=None) -> np.ndarray:
    """Images of one state under the channel at every strength of ``q_grid``.

    Returns a (len(q_grid), d, d) stack; every strength is validated as a
    ``ChannelSpec``. Single-qubit kinds act on each target in ascending
    index order; the order is observationally irrelevant since the maps
    commute on distinct qubits. The correlated kind needs exactly one
    qubit pair; all qubits are the default targets (the pair itself for
    a two-qubit state).
    """
    specs = [ChannelSpec(kind, q) for q in q_grid]
    if not specs:
        raise ValueError("need at least one noise strength")
    kind = specs[0].kind
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
    sups = _superoperators(specs)
    out = np.repeat(rho[None], len(specs), axis=0)
    for group in groups:
        out = _contract(out, sups, group, n)
    return out


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
    return mat @ np.asarray(n, dtype=float) + shift


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
    if gamma < 0 or t < 0:
        raise ValueError("gamma and t must be nonnegative")
    if kind not in _CLOCKS:
        raise ValueError(f"no Kraus-equivalence clock for {kind!r}")
    return 1.0 - math.exp(-_CLOCKS[kind][1] * gamma * t)
