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

from dataclasses import dataclass, field, replace

import numpy as np

from . import channels as ch
from . import workx
from .qstate import (
    Hamiltonian,
    apply_hadamard_pair,
    bds_eigenvalues,
    bloch_to_density,
    classical_quantum,
    density_to_bloch,
    entangled_theta,
    hamiltonian,
    philox_stream,
    random_separable,
    require_bloch,
    symmetric_pair,
    symmetrized_multipartite,
)
from .correlations import Z_SUM_2, correlation_work_curve

DEFAULT_Q_POINTS = 101
AREA_Q_POINTS = 501
ENHANCEMENT_AREA_TOL = 1e-12


def q_grid_default(points: int = DEFAULT_Q_POINTS) -> np.ndarray:
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
    fraction_enhancing: float | None = None


def enhancement_summary(q_grid, delta_wc) -> EnhancementSummary:
    """Peak gain and the trapezoidal integral of its positive part."""
    q_grid = np.asarray(q_grid, dtype=float)
    delta_wc = np.asarray(delta_wc, dtype=float)
    if q_grid.size < 2:
        raise ValueError("enhancement summary needs at least two grid points")
    if q_grid.shape != delta_wc.shape:
        raise ValueError("grid and values must align")
    idx = int(delta_wc.argmax())
    area = float(np.trapezoid(np.clip(delta_wc, 0.0, None), q_grid))
    return EnhancementSummary(
        delta_wc_max=float(delta_wc[idx]),
        argmax_q=float(q_grid[idx]),
        area_ap=area,
    )


def channel_hamiltonian(kind: str, n: int) -> Hamiltonian:
    """Per-channel energy choice used by the grid/census/scaling runs.

    The dephasing kinds only show enhancement against an x-aligned field,
    and depolarizing needs the interacting form; everything else uses the
    local excitation energy.
    """
    kind = ch.canonical_kind(kind)
    if kind in (ch.PHASE_FLIP, ch.PHASE_DAMPING):
        return hamiltonian("x_sum", n)
    if kind == ch.DEPOLARIZING:
        if n != 2:
            raise ValueError("the interacting Hamiltonian is two-qubit only")
        return hamiltonian("xx_interacting", 2, h=0.5, j=0.4)
    return hamiltonian("excitation", n)


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
    q_grid = q_grid_default() if q_grid is None else np.asarray(q_grid, dtype=float)
    n = require_bloch(n)
    rows = [workx.closed_form_single(kind, q, n, basis=basis) for q in q_grid]
    cols = {
        "q": q_grid,
        "W": np.array([r.total for r in rows]),
        "WI": np.array([r.incoherent for r in rows]),
        "WC": np.array([r.coherent for r in rows]),
        "C": np.array([r.l1_coherence for r in rows]),
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
        meta["threshold_q"] = qb
        cols["threshold"] = np.full(len(q_grid), qb)
    if kind == ch.AMPLITUDE_DAMPING:
        meta["branch_q"] = abs(n[2]) / (1.0 + abs(n[2]))
    return SweepResult(cols, meta)


def _crossing_qs(c, spec_kind: str, both: bool, q_grid) -> list[float]:
    """Noise strengths where the largest closed-form eigenvalue changes slot."""

    def lams_at(q):
        return bds_eigenvalues(ch.bds_param_map(ch.ChannelSpec(spec_kind, q), c, both))

    slots = [int(np.argmax(lams_at(q))) for q in q_grid]
    crossings = []
    for q0, q1, i0, i1 in zip(q_grid[:-1], q_grid[1:], slots[:-1], slots[1:]):
        if i0 == i1:
            continue
        # bisect on the ordered pair: slot i_lo wins at lo, i_hi at hi
        (lo, i_lo), (hi, i_hi) = sorted([(q0, i0), (q1, i1)])
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            lams = lams_at(mid)
            if lams[i_lo] >= lams[i_hi]:
                lo = mid
            else:
                hi = mid
        crossings.append(0.5 * (lo + hi))
    return crossings


def sweep_bds(c, kind, q_grid=None, both_qubits: bool = True) -> SweepResult:
    """Bell-diagonal work and correlations along a noise grid.

    Includes the identity residual per point and any eigenvalue-crossing
    strengths (located by bisection) in the metadata.
    """
    kind = ch.canonical_kind(kind)
    c = np.asarray(c, dtype=float)
    q_grid = q_grid_default() if q_grid is None else np.asarray(q_grid, dtype=float)
    curve = correlation_work_curve(c, kind, q_grid, both_qubits, Z_SUM_2)
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


def _wc_curve(rho0, kind, h: Hamiltonian, q_grid) -> np.ndarray:
    """Coherent work W_C(rho(q)) along the q grid."""
    wc = np.empty(len(q_grid))
    for part, states in ch.apply_local_chunks(rho0, kind, q_grid):
        wc[part] = workx.work_split(states, h).coherent
    return wc


def grid_delta_wc(family: str, kind, axis_grid, q_grid=None, *, p=0.5, a=0.1, c=0.3, d=0.2, h: Hamiltonian | None = None) -> SweepResult:
    """Coherent-work gain over (state parameter, q) for a two-qubit family.

    family "classical_quantum" sweeps the coherence c at fixed (p, a);
    family "symmetric_pair" sweeps the shared population a at fixed
    (p, c, d). Rows are emitted axis-major.
    """
    kind = ch.canonical_kind(kind)
    q_grid = q_grid_default() if q_grid is None else np.asarray(q_grid, dtype=float)
    axis_grid = np.asarray(axis_grid, dtype=float)
    if h is None:
        h = channel_hamiltonian(kind, 2)
    if family == "classical_quantum":
        builder = lambda v: classical_quantum(p, a, v)
        axis_name = "c"
    elif family == "symmetric_pair":
        builder = lambda v: symmetric_pair(p, v, c, d)
        axis_name = "a"
    else:
        raise ValueError(f"unknown state family {family!r}")
    axis_col, q_col, dwc_col, wc0_col = [], [], [], []
    for v in axis_grid:
        rho0 = builder(v)
        wc0 = workx.decompose(rho0, h).coherent
        curve = _wc_curve(rho0, kind, h, q_grid) - wc0
        axis_col.extend([v] * len(q_grid))
        q_col.extend(q_grid)
        wc0_col.extend([wc0] * len(q_grid))
        dwc_col.extend(curve)
    cols = {
        axis_name: np.array(axis_col),
        "q": np.array(q_col),
        "WC0": np.array(wc0_col),
        "delta_WC": np.array(dwc_col),
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
    }
    if family == "classical_quantum":
        meta["a"] = a
    else:
        meta["c"] = c
        meta["d"] = d
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
    (phase flip gets the collective x field).
    """
    kinds = [ch.canonical_kind(k) for k in kinds]
    n_values = sorted(set(int(n) for n in n_values))
    if not n_values:
        raise ValueError("scaling needs at least one register size, got an empty list")
    if not kinds:
        raise ValueError("scaling needs at least one channel kind, got an empty list")
    q_grid = q_grid_default(q_points)
    rows = {"channel": [], "N": [], "delta_wc_max": [], "argmax_q": [], "area_ap": []}
    dephasing = {}
    for n in n_values:
        coherences = [c0 + delta * i for i in range(1, n + 1)]
        rho0 = symmetrized_multipartite(a, coherences)
        for kind in kinds:
            if kind == ch.DEPOLARIZING and n != 2:
                raise ValueError("depolarizing scaling is limited to two qubits")
            h = channel_hamiltonian(kind, n)
            if kind in (ch.PHASE_FLIP, ch.PHASE_DAMPING):
                # the collective-spin (symmetry-adapted) dephasing keeps
                # the scaling trends consistent with the two-qubit story
                h = replace(h, basis=None, collective=True)
            dephasing[kind] = h.dephasing
            curve = _wc_curve(rho0, kind, h, q_grid) - workx.decompose(rho0, h).coherent
            summary = enhancement_summary(q_grid, curve)
            rows["channel"].append(kind)
            rows["N"].append(n)
            rows["delta_wc_max"].append(summary.delta_wc_max)
            rows["argmax_q"].append(summary.argmax_q)
            rows["area_ap"].append(summary.area_ap)
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


def census_random(kind, count: int = 1000, seed: int = 7, q_points: int = DEFAULT_Q_POINTS, num_terms: int = 2) -> SweepResult:
    """Enhancement statistics over random separable two-qubit states.

    Each sample draws from its own counter-based stream (seed, index), so
    results do not depend on evaluation order. A sample is "enhancing"
    when the positive area of its gain curve exceeds 1e-12.
    """
    kind = ch.canonical_kind(kind)
    if count < 1:
        raise ValueError("census needs at least one sample")
    q_grid = q_grid_default(q_points)
    h = channel_hamiltonian(kind, 2)
    rows = {"sample": [], "delta_wc_max": [], "argmax_q": [], "area_ap": []}
    enhancing = 0
    for i in range(count):
        rho0 = random_separable(philox_stream(seed, i), num_terms=num_terms)
        curve = _wc_curve(rho0, kind, h, q_grid) - workx.decompose(rho0, h).coherent
        summary = enhancement_summary(q_grid, curve)
        if summary.area_ap > ENHANCEMENT_AREA_TOL:
            enhancing += 1
        rows["sample"].append(i)
        rows["delta_wc_max"].append(summary.delta_wc_max)
        rows["argmax_q"].append(summary.argmax_q)
        rows["area_ap"].append(summary.area_ap)
    cols = {k: np.array(v) for k, v in rows.items()}
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
    """
    kind = ch.canonical_kind(kind)
    t_grid = np.asarray(t_grid, dtype=float)
    n0 = np.asarray(n0, dtype=float)
    jump = ch.jump_operator(kind)
    rho0 = bloch_to_density(n0)
    h = hamiltonian("excitation", 1)
    qs = np.array([ch.q_of_t(kind, gamma, t) for t in t_grid])
    evolved = np.array([ch.lindblad_evolve(rho0, ch.LindbladSpec((jump,), (gamma,), t)) for t in t_grid])
    rk4_bloch = np.array([density_to_bloch(s) for s in evolved])
    kraus_bloch = np.array([ch.bloch_map(ch.ChannelSpec(kind, q), n0) for q in qs])
    cols = {"t": t_grid, "q": qs}
    for i, name in enumerate(("n1", "n2", "n3")):
        cols[f"{name}_rk4"] = rk4_bloch[:, i]
        cols[f"{name}_kraus"] = kraus_bloch[:, i]
    cols["WC_rk4"] = workx.work_split(evolved, h).coherent
    cols["WC_kraus"] = np.array([workx.closed_form_single(kind, q, n0).coherent for q in qs])
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
    and the concurrence of the evolved state under per-qubit noise.
    """
    kind = ch.canonical_kind(kind)
    theta_grid = np.asarray(theta_grid, dtype=float)
    q_grid = q_grid_default() if q_grid is None else np.asarray(q_grid, dtype=float)
    ham = hamiltonian("z_plus_xx", 2, h=h, j=j)
    wc = np.empty((len(theta_grid), len(q_grid)))
    wc0 = np.empty((len(theta_grid), 1))
    conc = np.empty_like(wc)
    for i, theta in enumerate(theta_grid):
        rho0 = apply_hadamard_pair(entangled_theta(theta))
        wc0[i] = workx.decompose(rho0, ham).coherent
        for part, states in ch.apply_local_chunks(rho0, kind, q_grid):
            wc[i, part] = workx.work_split(states, ham).coherent
            conc[i, part] = [workx.concurrence(s) for s in states]
    cols = {
        "theta": np.repeat(theta_grid, len(q_grid)),
        "q": np.tile(q_grid, len(theta_grid)),
        "WC": wc.ravel(),
        "delta_WC": (wc - wc0).ravel(),
        "concurrence": conc.ravel(),
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
    fd_step: float = 1e-4,
) -> SweepResult:
    """Depolarizing noise against the interacting x-field Hamiltonian.

    Per (a, q): coherent work, its gain, the degenerate-level coherence,
    and central finite differences of both passive-state energies, whose
    slope crossover marks the enhancement window.
    """
    q_grid = q_grid_default() if q_grid is None else np.asarray(q_grid, dtype=float)
    ham = hamiltonian("xx_interacting", 2, h=h, j=j)
    # the centre strengths, then their clipped neighbours, as one grid: a bad
    # centre q is reported first, and valid ones keep neighbours in [0, 1]
    lo_q, hi_q = np.maximum(0.0, q_grid - fd_step), np.minimum(1.0, q_grid + fd_step)
    grid = np.concatenate([q_grid, lo_q, hi_q])
    points = len(q_grid)
    centre, lo, hi = (slice(k * points, (k + 1) * points) for k in range(3))
    span = hi_q - lo_q
    names = ("a", "q", "WC", "delta_WC", "coherence_degenerate", "dEp_dq", "dEpd_dq")
    rows = {name: [] for name in names}
    for a in a_values:
        rho0 = symmetric_pair(0.5, a, c, d)
        wc0 = workx.decompose(rho0, ham).coherent
        work = np.empty((6, len(grid)))
        for part, states in ch.apply_local_chunks(rho0, ch.DEPOLARIZING, grid):
            work[:, part] = list(vars(workx.work_split(states, ham)).values())
            rows["coherence_degenerate"].extend(
                workx.coherence_degenerate(s) for s in states[: max(0, points - part.start)]
            )
        rep = workx.ErgotropyReport(*work)
        rows["a"].extend([a] * points)
        rows["q"].extend(q_grid)
        rows["WC"].extend(rep.coherent[centre])
        rows["delta_WC"].extend(rep.coherent[centre] - wc0)
        rows["dEp_dq"].extend((rep.passive_energy[hi] - rep.passive_energy[lo]) / span)
        rows["dEpd_dq"].extend(
            (rep.dephased_passive_energy[hi] - rep.dephased_passive_energy[lo]) / span
        )
    cols = {k: np.array(v) for k, v in rows.items()}
    meta = {
        "experiment": "appendix_d",
        "channel": ch.DEPOLARIZING,
        "a_values": list(map(float, a_values)),
        "c": c,
        "d": d,
        "h": h,
        "j": j,
        "q_points": len(q_grid),
        "fd_step": fd_step,
        "dephasing": ham.dephasing,
    }
    return SweepResult(cols, meta)
