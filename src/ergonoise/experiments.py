"""Parameter sweeps reproducing the figure-level results: single-qubit
noise curves, Bell-diagonal work vs correlations, enhancement grids for
locally coherent states, multipartite scaling, a randomized separable
census, Lindblad/Kraus consistency, and the entangled example.

Every run returns a ``SweepResult`` whose columns serialize to CSV and
whose metadata (including the dephasing convention and any seed) lands
in a JSON sidecar, so identical configurations give byte-identical
files.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from . import workx
from .matcore import _exact_real, _integer, as_stack
from .qstate import (
    MAX_SYMMETRIZED_QUBITS,
    ClassHamiltonian,
    Hamiltonian,
    _class_hamiltonian,
    _symmetrized_classes,
    apply_hadamard_pair,
    bds_eigenvalues,
    bloch_to_density,
    classical_quantum,
    density_to_bloch,
    entangled_theta,
    hamiltonian,
    qubit_state,
    random_separable_stack,
    require_bloch,
    symmetric_pair,
)
from .correlations import Z_SUM_2, correlation_work

DEFAULT_Q_POINTS = 101
AREA_Q_POINTS = 501
ENHANCEMENT_AREA_TOL = 1e-12
# the half-width of the central differences of interacting_depolarizing
FD_STEP = 1e-4


def q_grid_default(points: int = DEFAULT_Q_POINTS) -> np.ndarray:
    points = _integer(points, "grid point count")
    if points < 2:
        raise ValueError("grids need at least two points")
    return np.linspace(0.0, 1.0, points)


@dataclass
class SweepResult:
    """Column-oriented sweep records plus run metadata."""

    columns: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")

    def __len__(self):
        return 0 if not self.columns else len(next(iter(self.columns.values())))


@dataclass(frozen=True)
class EnhancementSummary:
    """Peak and integrated noise-induced gain of coherent work."""

    delta_wc_max: float
    argmax_q: float
    area_ap: float


def enhancement_summary(q_grid, delta_wc) -> EnhancementSummary:
    """Peak gain and the trapezoidal integral of its positive part.

    A gain within ENHANCEMENT_AREA_TOL of zero is rounding noise and reads
    as 0.0, so a frozen curve summarizes to (0.0, q_grid[0], 0.0) rather
    than to wherever its noise peaks. A 1-D curve gives floats; a (S, Q)
    stack of curves is summarized row by row, with every field a
    length-S array. A non-finite grid point or gain is rejected, naming
    its index.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    delta_wc = np.asarray(delta_wc, dtype=float)
    if q_grid.size < 2:
        raise ValueError("enhancement summary needs at least two grid points")
    if q_grid.ndim != 1 or delta_wc.ndim not in (1, 2) or delta_wc.shape[-1:] != q_grid.shape:
        raise ValueError("grid and values must align")
    for name, values in (("grid point", q_grid), ("gain", delta_wc)):
        bad = np.argwhere(~np.isfinite(values))
        if len(bad):
            at = tuple(map(int, bad[0]))
            raise ValueError(f"{name} at index {at[0] if len(at) == 1 else at} is {values[at]}, not finite")
    delta_wc = np.where(np.abs(delta_wc) <= ENHANCEMENT_AREA_TOL, 0.0, delta_wc)
    idx = delta_wc.argmax(axis=-1)
    fields = (
        np.take_along_axis(delta_wc, idx[..., None], axis=-1)[..., 0],
        q_grid[idx],
        np.trapezoid(np.clip(delta_wc, 0.0, None), q_grid, axis=-1),
    )
    if delta_wc.ndim == 1:
        fields = map(float, fields)
    return EnhancementSummary(*fields)


# ``hamiltonian(name, n, **params)``, built once per process for each argument tuple
_shared_hamiltonian = functools.cache(hamiltonian)


def _channel_energy(kind: str) -> str:
    """The Hamiltonian of a channel kind: the dephasing kinds only show enhancement
    against an x field, depolarizing needs the interacting form; the rest take the
    local excitation energy."""
    energies = {ch.PHASE_FLIP: "x_sum", ch.PHASE_DAMPING: "x_sum", ch.DEPOLARIZING: "xx_interacting"}
    return energies.get(ch.canonical_kind(kind), "excitation")


def channel_hamiltonian(kind: str, n: int) -> Hamiltonian:
    """Per-channel energy choice of the grid and census runs, built once per
    process for each Hamiltonian, not for each channel, so that its levels
    and frames, on a frozen read-only ``Hamiltonian``, are computed once."""
    return _shared_hamiltonian(_channel_energy(kind), n)


def _class_view(kind: str, n: int) -> ClassHamiltonian:
    """The same choice in class coordinates, as scaling splits against it: the x
    field dephased by collective spin, keeping the trends of the two-qubit story."""
    return _class_hamiltonian(_channel_energy(kind), n)


# ---------------------------------------------------------------------------
# single qubit and Bell-diagonal sweeps
# ---------------------------------------------------------------------------


def sweep_single(kind, n, basis: str = "computational", q_grid=None) -> SweepResult:
    """Work split of one qubit along a noise-strength grid.

    Records the closed-form total/incoherent/coherent work and coherence
    per point, with the enhancement threshold (when the channel has one)
    and the amplitude-damping branch point in the metadata.
    """
    kind = ch.canonical_kind(kind)
    q_grid = q_grid_default() if q_grid is None else ch.strengths(q_grid)
    n = require_bloch(n)
    curve = workx.closed_form(kind, q_grid, n, basis=basis)
    cols = {
        "q": q_grid,
        "W": curve.total,
        "WI": curve.incoherent,
        "WC": curve.coherent,
        "C": curve.l1_coherence,
    }
    meta = {
        "experiment": "single",
        "channel": kind,
        "basis": basis,
        "bloch": list(map(float, n)),
        "q_points": len(q_grid),
    }
    if (kind, basis) in workx.THRESHOLD_COMPONENTS:
        qb = workx.threshold_q(kind, n, basis)
        # JSON has no infinity: a missing threshold is null in the sidecar
        meta["threshold_q"] = qb if np.isfinite(qb) else None
        cols["threshold"] = np.full(len(q_grid), qb)
    if kind == ch.AMPLITUDE_DAMPING:
        meta["branch_q"] = abs(n[2]) / (1.0 + abs(n[2]))
    return SweepResult(cols, meta)


def _crossing_qs(c, kind: str, both: bool, q_grid) -> list[float]:
    """Noise strengths where the largest closed-form eigenvalue changes slot.

    Every grid interval whose endpoints differ in slot is bisected, all of
    them in lockstep: each step evaluates the live midpoints as one stack,
    and an interval stops moving once it is narrower than 1e-9.
    """

    def lams_at(qs):
        return bds_eigenvalues(ch._bds_scaled(kind, qs, c, both))

    slots = lams_at(q_grid).argmax(axis=1)
    k = np.flatnonzero(slots[:-1] != slots[1:])
    # bisect on the ordered pairs: slot i_lo wins at lo, i_hi at hi
    left = np.where(q_grid[k] <= q_grid[k + 1], k, k + 1)
    right = 2 * k + 1 - left
    lo, hi, i_lo, i_hi = q_grid[left], q_grid[right], slots[left], slots[right]
    live = hi - lo > 1e-9
    while live.any():
        mid = 0.5 * (lo[live] + hi[live])
        lams = lams_at(mid)
        rows = np.arange(len(mid))
        wins = lams[rows, i_lo[live]] >= lams[rows, i_hi[live]]
        lo[live] = np.where(wins, mid, lo[live])
        hi[live] = np.where(wins, hi[live], mid)
        live = hi - lo > 1e-9
    return (0.5 * (lo + hi)).tolist()


def sweep_bds(c, kind, q_grid=None, both_qubits: bool = True) -> SweepResult:
    """Bell-diagonal work and correlations along a noise grid.

    Includes the identity residual per point and any eigenvalue-crossing
    strengths (located by bisection) in the metadata.
    """
    kind = ch.canonical_kind(kind)
    c = np.asarray(c, dtype=float)
    q_grid = q_grid_default() if q_grid is None else ch.strengths(q_grid)
    curve = correlation_work(c, kind, q_grid, both_qubits)
    cols = {
        "q": q_grid,
        "W": curve.total_ergotropy,
        "WI": curve.ergotropy.incoherent,
        "WC": curve.ergotropy.coherent,
        "gqc": curve.gqc,
        "gcc": curve.gcc,
        "avg": curve.average,
        "residual": curve.residual,
    }
    meta = {
        "experiment": "bds",
        "channel": kind,
        "c": list(map(float, c)),
        "both_qubits": both_qubits,
        "identity_valid": curve.identity_valid,
        "dephasing": Z_SUM_2.dephasing,
        "q_points": len(q_grid),
    }
    if curve.identity_valid:
        meta["eigenvalue_crossings"] = _crossing_qs(c, kind, both_qubits, q_grid)
    return SweepResult(cols, meta)


# ---------------------------------------------------------------------------
# enhancement grids (locally coherent states)
# ---------------------------------------------------------------------------


def _wc_curves(rho0, kinds, hamiltonians, q_grid) -> tuple[np.ndarray, np.ndarray]:
    """Coherent work W_C(rho(q)) along the q grid under each of m kinds,
    each split against its own Hamiltonian (``hamiltonians``, one per
    kind), and W_C of rho0 itself against that Hamiltonian. Each kind, a
    repeated one or an alias too, keeps its row, in order.

    Both routes lay out each kind's curve the same way: one block of
    Q + 1 rows, its Q images then rho0, so W_C(rho0) is the block's last
    entry. The route follows the representation alone.

    A dense (d, d) state or (S, d, d) stack gives (m, Q) or (m, S, Q)
    curves and (m,) or (m, S) W_C(rho0), whatever the states' symmetry:
    per kind, the images of every state (one ``channels._local_images``
    call) are joined with the states along the strength axis, and the
    (S, Q + 1) stack is split by one ``decompose``, so each kind's
    spectra are one eigvalsh. That dense route is the oracle of the class
    route; it holds one kind's images of every state at a time, and twice
    them for the moment of the join.

    A 1-D rho0 is the C(N+3, 3) class coordinates of one
    permutation-invariant state, as ``scaling_run`` builds it, split
    against class-coordinate Hamiltonians (``qstate.ClassHamiltonian``);
    it gives (m, Q) curves and (m,) W_C(rho0). Both sides are invariant
    by construction, so only the count is checked, before any expansion,
    as is the Hamiltonians' type on either route.
    The coordinates are taken float64 when exactly real
    (``matcore._exact_real``). Each kind's terms R_k of
    rho(q) = sum_k x(q)^k R_k (``channels._class_polynomial``) give its
    (Q, D) images as vander @ terms, written into its block of one
    (m, Q + 1, D) stack, which goes to one ``workx._block_coherent``
    split, its state side taken once for all rows. No 4^N-sized term is
    formed, and what is cached per N is of order D^2.
    """
    kinds = [ch.canonical_kind(k) for k in kinds]
    hamiltonians = list(hamiltonians)
    if not kinds or len(hamiltonians) != len(kinds):
        raise ValueError(
            f"need at least one kind and one Hamiltonian per kind, got {len(kinds)} kinds "
            f"and {len(hamiltonians)} Hamiltonians"
        )
    want = Hamiltonian if np.ndim(rho0) != 1 else ClassHamiltonian
    for h in hamiltonians:
        if not isinstance(h, want):
            route = "dense states" if want is Hamiltonian else "class coordinates"
            raise ValueError(f"{route} need qstate.{want.__name__} Hamiltonians, got {type(h).__name__}")
    points = len(q_grid)
    if want is Hamiltonian:
        rhos, _ = as_stack(rho0)
        wc = []
        for kind, h in zip(kinds, hamiltonians):
            # the images are freed once copied into the join, so the
            # split's temporaries, not the join, set the peak
            joined = np.concatenate([ch._local_images(rhos, kind, q_grid, None), rhos[:, None]], axis=1)
            wc.append(workx.decompose(joined.reshape((-1,) + rhos.shape[1:]), h).coherent)
        wc = np.reshape(wc, (len(kinds),) + np.shape(rho0)[:-2] + (points + 1,))
    else:
        coords = _exact_real(rho0)
        for h in hamiltonians:
            if len(coords) != len(h.classes):
                raise ValueError(
                    f"class coordinate count {len(coords)} does not match Hamiltonian on "
                    f"{h.num_qubits} qubits, which needs C({h.num_qubits + 3}, 3) = {len(h.classes)}"
                )
        images = np.empty((len(kinds), points + 1, len(coords)), coords.dtype)
        for kind, block in zip(kinds, images):
            terms, vander = ch._class_polynomial(coords, kind, hamiltonians[0].num_qubits, q_grid)
            np.matmul(vander, terms, out=block[:points])
            block[points] = coords
        wc = workx._block_coherent(images, hamiltonians)
    return wc[..., :points], wc[..., points]


def grid_delta_wc(family: str, kind, axis_grid, q_grid=None, *, p=0.5, a=0.1, c=0.3, d=0.2) -> SweepResult:
    """Coherent-work gain over (state parameter, q) for a two-qubit family.

    family "classical_quantum" sweeps the coherence c at fixed (p, a);
    family "symmetric_pair" sweeps the shared population a at fixed
    (p, c, d) along a non-empty axis. Rows are emitted axis-major. The
    states of the axis form one dense stack, whose curves and W_C(rho0)
    come from one ``_wc_curves`` call on the dense route.
    """
    kind = ch.canonical_kind(kind)
    q_grid = q_grid_default() if q_grid is None else ch.strengths(q_grid)
    axis_grid = np.asarray(axis_grid, dtype=float)
    h = channel_hamiltonian(kind, 2)
    families = {  # swept parameter, state of its value, fixed parameters the sidecar records
        "classical_quantum": ("c", lambda v: classical_quantum(p, a, v), {"a": a}),
        "symmetric_pair": ("a", lambda v: symmetric_pair(p, v, c, d), {"c": c, "d": d}),
    }
    if family not in families:
        raise ValueError(f"unknown state family {family!r}")
    axis_name, builder, fixed = families[family]
    if axis_grid.ndim != 1 or not axis_grid.size:
        raise ValueError(f"the state axis must be a non-empty 1-D grid, got shape {axis_grid.shape}")
    (curves,), (wc0,) = _wc_curves(np.array([builder(v) for v in axis_grid]), [kind], [h], q_grid)
    cols = {
        axis_name: np.repeat(axis_grid, len(q_grid)),
        "q": np.tile(q_grid, len(axis_grid)),
        "WC0": np.repeat(wc0, len(q_grid)),
        "delta_WC": (curves - wc0[:, None]).ravel(),
    }
    meta = {
        "experiment": "grid",
        "family": family,
        "channel": kind,
        "p": p,
        "hamiltonian": h.kind,
        "dephasing": h.dephasing,
        "axis": axis_name,
        "axis_points": len(axis_grid),
        "q_points": len(q_grid),
        **fixed,
    }
    return SweepResult(cols, meta)


# ---------------------------------------------------------------------------
# multipartite scaling
# ---------------------------------------------------------------------------


def scaling_run(
    kinds=(ch.BIT_FLIP, ch.PHASE_FLIP, ch.AMPLITUDE_DAMPING),
    n_values=range(2, 9),
    a: float = 0.2,
    c0: float = 0.1,
    delta: float = 0.02,
    q_points: int = AREA_Q_POINTS,
) -> SweepResult:
    """Peak and area of coherent-work gain versus register size.

    Local coherences follow c_i = c0 + i*delta for qubits i = 1..N; the
    channel acts on every qubit; each channel keeps its own energy choice
    (phase flip gets the collective x field). Every register size must be
    at least 2, so that every row is in the same energy units, and at
    most MAX_SYMMETRIZED_QUBITS; depolarizing runs on two qubits only and
    the correlated flip on no more than two; every local state rho(a, c_i)
    up to the largest N must be a state (``qubit_state``). These are
    checked before any curve.

    Per register size, one class split serves every kind. rho0 is built
    as its D = C(N+3, 3) class coordinates alone
    (``qstate._symmetrized_classes``, O(D)), N = 2 included, and every
    distinct kind, each with its own Hamiltonian (bit flip, bit-phase
    flip, amplitude damping and the correlated flip share the excitation
    energy; phase flip and phase damping the collective x field;
    depolarizing the interacting one, in class coordinates: ``_class_view``),
    goes to one ``_wc_curves`` call: the spin-block parts and block spectra
    of every image and of rho0 are formed once, and the dephased spectra
    once per kind. No 4^N-sized
    array, nor a 2^N x 2^N state or Hamiltonian, is formed. Memory per
    split is then the (K, D) terms of one kind at a time, K <= 2N + 1, and
    the (m (Q + 1), D) images, (m (Q + 1), sum_J (2J+1)^2) blocks and
    (m (Q + 1), 2^N) block spectra of Q strengths and rho0 for m kinds,
    beside the maps of order D^2 cached per N (``matcore``) and the
    Hamiltonians' coordinates, frames and levels, built once per process.
    The (m, Q) gains take one ``enhancement_summary`` call per N. A kind
    named twice gets a row each time, from one curve.
    """
    kinds = [ch.canonical_kind(k) for k in kinds]
    n_values = sorted(set(_integer(n, "register size") for n in n_values))
    if not n_values:
        raise ValueError("scaling needs at least one register size, got an empty list")
    if n_values[0] < 2:
        # the one-qubit x field is sigma_x (gap 2), against (1/2) sum sigma_x from N = 2 on
        raise ValueError(f"scaling needs register sizes of at least 2 qubits, got {n_values[0]}")
    if n_values[-1] > MAX_SYMMETRIZED_QUBITS:
        too_large = min(n for n in n_values if n > MAX_SYMMETRIZED_QUBITS)
        raise ValueError(f"qubit count {too_large} exceeds cap {MAX_SYMMETRIZED_QUBITS}")
    if not kinds:
        raise ValueError("scaling needs at least one channel kind, got an empty list")
    if ch.DEPOLARIZING in kinds and n_values != [2]:
        raise ValueError("depolarizing scaling is limited to two qubits")
    if ch.CORRELATED_BIT_FLIP in kinds and n_values[-1] > 2:
        raise ValueError("correlated bit flip acts on exactly one qubit pair")
    coherences = [c0 + delta * i for i in range(1, n_values[-1] + 1)]
    for c in coherences:
        qubit_state(a, c)
    q_grid = q_grid_default(q_points)
    rows = {"channel": [], "N": [], "delta_wc_max": [], "argmax_q": [], "area_ap": []}
    dephasing = {}
    distinct = list(dict.fromkeys(kinds))
    for n in n_values:
        hs = [_class_view(kind, n) for kind in distinct]
        curves, wc0 = _wc_curves(_symmetrized_classes(a, coherences[:n]), distinct, hs, q_grid)
        summary = enhancement_summary(q_grid, curves - wc0[:, None])
        dephasing.update(zip(distinct, (h.dephasing for h in hs)))
        for kind in kinds:
            i = distinct.index(kind)
            rows["channel"].append(kind)
            rows["N"].append(n)
            rows["delta_wc_max"].append(summary.delta_wc_max[i])
            rows["argmax_q"].append(summary.argmax_q[i])
            rows["area_ap"].append(summary.area_ap[i])
    cols = {k: np.array(v) for k, v in rows.items()}
    meta = {
        "experiment": "scaling",
        "channels": list(kinds),
        "n_values": n_values,
        "a": a,
        "c0": c0,
        "delta": delta,
        "q_points": q_points,
        "dephasing": dephasing,
    }
    return SweepResult(cols, meta)


# ---------------------------------------------------------------------------
# randomized census
# ---------------------------------------------------------------------------


# Bytes of the real (float64) 4x4 images of one census stack of draws:
# 20 samples at 101 q
CENSUS_STACK_BYTES = 256 * 1024


def census_random(kind, count: int = 1000, seed: int = 7, q_points: int = DEFAULT_Q_POINTS, num_terms: int = 2) -> SweepResult:
    """Enhancement statistics over random separable two-qubit states.

    Each sample draws from its own counter-based stream (seed, index), so
    results do not depend on evaluation order. The census bounds its own
    memory: samples are drawn and evolved in stacks whose curves fit
    CENSUS_STACK_BYTES (at least one sample), one ``_wc_curves`` call per
    stack on the dense route, whose images and initial states are split
    together in one ``decompose``, so memory stays flat in ``count``. A
    sample is "enhancing" when the positive area of its gain curve
    exceeds 1e-12.
    """
    kind = ch.canonical_kind(kind)
    count = _integer(count, "sample count")
    if count < 1:
        raise ValueError("census needs at least one sample")
    q_grid = q_grid_default(q_points)
    h = channel_hamiltonian(kind, 2)
    # the sampled states are real, so the stacks and their images are float64
    step = max(1, CENSUS_STACK_BYTES // (np.dtype(float).itemsize * 16 * len(q_grid)))
    summaries = []
    for start in range(0, count, step):
        rho0s = random_separable_stack(seed, range(start, min(start + step, count)), num_terms)
        (curves,), (wc0,) = _wc_curves(rho0s, [kind], [h], q_grid)
        summaries.append(enhancement_summary(q_grid, curves - wc0[:, None]))
    cols = {"sample": np.arange(count)}
    for name in ("delta_wc_max", "argmax_q", "area_ap"):
        cols[name] = np.concatenate([getattr(s, name) for s in summaries])
    enhancing = int((cols["area_ap"] > ENHANCEMENT_AREA_TOL).sum())
    meta = {
        "experiment": "census",
        "channel": kind,
        "count": count,
        "seed": seed,
        "num_terms": num_terms,
        "q_points": q_points,
        "hamiltonian": h.kind,
        "dephasing": h.dephasing,
        "fraction_enhancing": enhancing / count,
    }
    return SweepResult(cols, meta)


# ---------------------------------------------------------------------------
# Lindblad consistency and the entangled example
# ---------------------------------------------------------------------------


def lindblad_consistency(kind, gamma: float, t_grid, n0) -> SweepResult:
    """RK4 master-equation evolution against the Kraus channel clock.

    Per time point: Bloch components from both routes and the coherent
    work from both routes, with the worst deviation in the metadata.

    The whole time grid is one evolution (``channels.lindblad_evolve`` of
    a grid ``LindbladSpec``): one Liouvillian, one RK4 step matrix per
    distinct step size and the step cap checked on the largest time,
    before any matrix is built.
    The Bloch vectors and their Hermiticity check are read once from the
    evolved stack.
    """
    kind = ch.canonical_kind(kind)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not t_grid.size:
        raise ValueError(f"the time grid must be a non-empty 1-D grid, got shape {t_grid.shape}")
    n0 = np.asarray(n0, dtype=float)
    jump = ch.jump_operator(kind)
    rho0 = bloch_to_density(n0)
    h = _shared_hamiltonian("excitation", 1)
    qs = np.array([ch.q_of_t(kind, gamma, t) for t in t_grid])
    evolved = ch.lindblad_evolve(rho0, ch.LindbladSpec((jump,), (gamma,), t_grid))
    rk4_bloch = density_to_bloch(evolved)
    kraus_bloch = ch.bloch_map(kind, qs, n0)
    cols = {"t": t_grid, "q": qs}
    for i, name in enumerate(("n1", "n2", "n3")):
        cols[f"{name}_rk4"] = rk4_bloch[:, i]
        cols[f"{name}_kraus"] = kraus_bloch[:, i]
    cols["WC_rk4"] = workx.decompose(evolved, h).coherent
    cols["WC_kraus"] = workx.closed_form(kind, qs, n0).coherent
    max_dev = max(
        float(np.abs(rk4_bloch - kraus_bloch).max()),
        float(np.abs(cols["WC_rk4"] - cols["WC_kraus"]).max()),
    )
    meta = {
        "experiment": "lindblad_check",
        "channel": kind,
        "gamma": gamma,
        "bloch": list(map(float, n0)),
        "t_points": len(t_grid),
        "max_deviation": max_dev,
    }
    return SweepResult(cols, meta)


def entangled_example(theta_grid, q_grid=None, h: float = 0.5, j: float = 0.4, kind=ch.BIT_FLIP) -> SweepResult:
    """Coherent work and concurrence of the Hadamard-rotated pure state.

    Per (theta, q): the coherent work, its gain over the noiseless value,
    and the concurrence of the evolved state under per-qubit noise. The
    images of every theta come from one channel call and take one
    ``decompose`` and one ``concurrence``.
    """
    kind = ch.canonical_kind(kind)
    theta_grid = np.asarray(theta_grid, dtype=float)
    q_grid = q_grid_default() if q_grid is None else ch.strengths(q_grid)
    if theta_grid.ndim != 1 or not theta_grid.size:
        raise ValueError(f"the theta axis must be a non-empty 1-D grid, got shape {theta_grid.shape}")
    if not np.isfinite(theta_grid).all():
        raise ValueError(f"the theta axis must be finite, got theta = {theta_grid[~np.isfinite(theta_grid)][0]}")
    ham = _shared_hamiltonian("z_plus_xx", 2, h=h, j=j)
    rho0s = np.array([apply_hadamard_pair(entangled_theta(theta)) for theta in theta_grid])
    states = ch._local_images(rho0s, kind, q_grid, None).reshape(-1, 4, 4)
    wc = workx.decompose(states, ham).coherent
    conc = workx.concurrence(states)
    wc0 = workx.decompose(rho0s, ham).coherent
    cols = {
        "theta": np.repeat(theta_grid, len(q_grid)),
        "q": np.tile(q_grid, len(theta_grid)),
        "WC": wc,
        "delta_WC": (wc.reshape(len(theta_grid), -1) - wc0[:, None]).ravel(),
        "concurrence": conc,
    }
    meta = {
        "experiment": "entangled",
        "channel": kind,
        "h": h,
        "j": j,
        "theta_points": len(theta_grid),
        "q_points": len(q_grid),
        "dephasing": ham.dephasing,
    }
    return SweepResult(cols, meta)


def interacting_depolarizing(
    a_values=(0.1, 0.4),
    c: float = 0.3,
    d: float = 0.2,
    h: float = 0.5,
    j: float = 0.4,
    q_grid=None,
) -> SweepResult:
    """Depolarizing noise against the interacting x-field Hamiltonian.

    Per (a, q): coherent work, its gain, the degenerate-level coherence,
    and central finite differences of both passive-state energies, whose
    slope crossover marks the enhancement window, with step FD_STEP.
    a_values must be non-empty. The states of every a value are evolved
    in one channel call, on one grid of the centre strengths and their
    neighbours, and split by one ``decompose``.
    """
    q_grid = q_grid_default() if q_grid is None else ch.strengths(q_grid)
    if len(a_values) == 0:
        raise ValueError("appendix D needs at least one population value a, got none")
    ham = _shared_hamiltonian("xx_interacting", 2, h=h, j=j)
    # the centre strengths, then their clipped neighbours, as one grid: a bad
    # centre q is reported first, and valid ones keep neighbours in [0, 1]
    lo_q, hi_q = np.maximum(0.0, q_grid - FD_STEP), np.minimum(1.0, q_grid + FD_STEP)
    grid = np.concatenate([q_grid, lo_q, hi_q])
    points = len(q_grid)
    centre, lo, hi = (slice(k * points, (k + 1) * points) for k in range(3))
    span = hi_q - lo_q
    rho0s = np.array([symmetric_pair(0.5, a, c, d) for a in a_values])
    wc0 = workx.decompose(rho0s, ham).coherent
    states = ch._local_images(rho0s, ch.DEPOLARIZING, grid, None)
    rep = workx.decompose(states.reshape(-1, 4, 4), ham)
    coherent, passive, dephased = (
        x.reshape(len(rho0s), -1) for x in (rep.coherent, rep.passive_energy, rep.dephased_passive_energy)
    )
    cols = {
        "a": np.repeat(np.array(a_values), points),
        "q": np.tile(q_grid, len(rho0s)),
        "WC": coherent[:, centre].ravel(),
        "delta_WC": (coherent[:, centre] - wc0[:, None]).ravel(),
        "coherence_degenerate": workx.coherence_degenerate(states[:, centre].reshape(-1, 4, 4)),
        "dEp_dq": ((passive[:, hi] - passive[:, lo]) / span).ravel(),
        "dEpd_dq": ((dephased[:, hi] - dephased[:, lo]) / span).ravel(),
    }
    meta = {
        "experiment": "appendix_d",
        "channel": ch.DEPOLARIZING,
        "a_values": list(map(float, a_values)),
        "c": c,
        "d": d,
        "h": h,
        "j": j,
        "q_points": len(q_grid),
        "fd_step": FD_STEP,
        "dephasing": ham.dephasing,
    }
    return SweepResult(cols, meta)
