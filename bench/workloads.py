"""Workload definitions: the CLI invocations that make up one op.

An op is a list of ``Call``s, each one ``ergonoise`` CLI invocation
with the tag that names its output file. The inputs of op ``i`` of a
run come from ``random.Random`` seeded with (workload, seed, i), so the
same seed gives the same ops, and no two ops of a run repeat inputs
(a cache of whole results across calls cannot make ops free). Every op
of a workload has the same size, so the per-op times are comparable.

``points`` counts the (state, q) evaluations a call makes; for the
Lindblad check a point is one time sample. ``rows`` is the CSV length.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

CENSUS_KINDS = ("bf", "pf", "ad", "dc")
CENSUS_COUNT = 8
CENSUS_Q = 101

SCALING_N = (2, 3, 4, 5, 6)
SCALING_KINDS = ("bf", "pf", "ad")
SCALING_Q = 21

SINGLE_KINDS = ("bf", "bpf", "pf", "dc", "ad", "pd")
SINGLE_Q = 1001
BDS_Q = 101
GRID_AXIS = 7
GRID_Q = 51
LINDBLAD_T = 5
LINDBLAD_T_MAX = 1.0
ENTANGLED_THETA = 7
ENTANGLED_Q = 41
APPENDIX_Q = 51


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``argv`` excludes the ``--output`` option."""

    tag: str
    argv: tuple
    points: int
    rows: int


def _fmt(x: float) -> str:
    return repr(float(x))


def _triple(v) -> str:
    return ",".join(_fmt(x) for x in v)


def _bloch(rng: random.Random, max_norm: float = 0.95):
    """Uniform direction, norm uniform in [0.2, max_norm]."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = rng.uniform(0.2, max_norm)
    s = math.sqrt(1.0 - z * z)
    return (r * s * math.cos(phi), r * s * math.sin(phi), r * z)


def census_op(rng: random.Random) -> list[Call]:
    return [
        Call(
            f"census_{kind}",
            ("census", "--channel", kind, "--count", str(CENSUS_COUNT),
             "--seed", str(rng.randrange(2**31)), "--q-points", str(CENSUS_Q)),
            CENSUS_COUNT * CENSUS_Q,
            CENSUS_COUNT,
        )
        for kind in CENSUS_KINDS
    ]


def scaling_op(rng: random.Random) -> list[Call]:
    # every local state rho(a, c_i) needs c_i^2 <= a(1-a); c_N is the largest
    a = rng.uniform(0.15, 0.45)
    c_max = math.sqrt(a * (1.0 - a)) * rng.uniform(0.5, 0.9)
    c0 = c_max * rng.uniform(0.1, 0.5)
    delta = (c_max - c0) / max(SCALING_N)
    rows = len(SCALING_KINDS)
    # one call per register size, so the probe runs between sizes
    return [
        Call(
            f"scaling_n{n}",
            ("scaling", "--n", str(n), "--channels", ",".join(SCALING_KINDS),
             "--q-points", str(SCALING_Q), "--a", _fmt(a), "--c0", _fmt(c0), "--delta", _fmt(delta)),
            rows * SCALING_Q,
            rows,
        )
        for n in SCALING_N
    ]


def sweeps_op(rng: random.Random) -> list[Call]:
    calls = []
    kind = rng.choice(SINGLE_KINDS)
    calls.append(Call(
        "single",
        ("single", "--channel", kind, f"--bloch={_triple(_bloch(rng))}", "--q", f"0,1,{SINGLE_Q}"),
        SINGLE_Q, SINGLE_Q,
    ))
    for kind in ("pf", "ad"):
        # nonnegative correlations with c1 + c2 + c3 <= 1: a separable BDS
        w = [rng.expovariate(1.0) for _ in range(4)]
        c = [x / sum(w) for x in w[:3]]
        calls.append(Call(
            f"bds_{kind}",
            ("bds", "--channel", kind, f"--c={_triple(c)}", "--q", f"0,1,{BDS_Q}"),
            BDS_Q, BDS_Q,
        ))
    # the pair family sweeps a over [0.3, 0.7], where a(1-a) >= 0.21 > 0.4^2
    calls.append(Call(
        "grid_pair_bf",
        ("grid", "--family", "pair", "--channel", "bf",
         "--p", _fmt(rng.uniform(0.2, 0.8)), "--c", _fmt(rng.uniform(0.05, 0.4)),
         "--d", _fmt(rng.uniform(0.05, 0.4)), "--axis", f"0.3,0.7,{GRID_AXIS}",
         "--q", f"0,1,{GRID_Q}"),
        GRID_AXIS * GRID_Q, GRID_AXIS * GRID_Q,
    ))
    for kind in ("bf", "ad"):
        # the rate and time grid are fixed so the RK4 step count is too
        calls.append(Call(
            f"lindblad_{kind}",
            ("lindblad-check", "--kind", kind, "--gamma", "1.0",
             "--t", f"0,{LINDBLAD_T_MAX},{LINDBLAD_T}", f"--bloch={_triple(_bloch(rng))}"),
            LINDBLAD_T, LINDBLAD_T,
        ))
    theta_lo = rng.uniform(0.0, 0.5)
    calls.append(Call(
        "entangled",
        ("entangled", "--theta", f"{_fmt(theta_lo)},{_fmt(theta_lo + 1.0)},{ENTANGLED_THETA}",
         "--q", f"0,1,{ENTANGLED_Q}"),
        ENTANGLED_THETA * ENTANGLED_Q, ENTANGLED_THETA * ENTANGLED_Q,
    ))
    # populations in [0.1, 0.45] allow coherences up to sqrt(0.09) = 0.3
    a_values = sorted(rng.uniform(0.1, 0.45) for _ in range(2))
    calls.append(Call(
        "appendix_d",
        ("appendix-d", f"--a={_fmt(a_values[0])},{_fmt(a_values[1])}",
         "--c", _fmt(rng.uniform(0.05, 0.28)), "--d", _fmt(rng.uniform(0.05, 0.28)),
         "--q", f"0,1,{APPENDIX_Q}"),
        len(a_values) * APPENDIX_Q, len(a_values) * APPENDIX_Q,
    ))
    return calls


WORKLOADS = {"census": census_op, "scaling": scaling_op, "sweeps": sweeps_op}


def make_op(workload: str, seed: int, index: int) -> list[Call]:
    """The calls of op ``index`` of a run of ``workload`` with ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{index}"))
