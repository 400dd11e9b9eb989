"""Command-line surface: one subcommand per experiment family.

Each run writes one CSV plus a JSON metadata sidecar. Argument errors
exit with status 2 (argparse default); validation failures (PSD
violations, bad ranges) exit with status 1 and name the constraint.
The default output directory comes from ERGONOISE_OUTDIR, falling back
to the working directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments as ex
from .io import write_csv

OUTDIR_ENV = "ERGONOISE_OUTDIR"


def _grid(spec: str) -> np.ndarray:
    """Parse 'min,max,count' into an inclusive uniform grid."""
    parts = spec.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid spec {spec!r} is not min,max,count")
    lo, hi = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 2:
        raise argparse.ArgumentTypeError("grid count must be at least 2")
    return np.linspace(lo, hi, count)


def _triple(spec: str) -> np.ndarray:
    parts = [float(v) for v in spec.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{spec!r} is not a comma-separated triple")
    return np.array(parts)


def _n_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in spec.split(",")]


def _out_path(args, default_name: str) -> Path:
    if args.output is not None:
        return Path(args.output)
    base = Path(os.environ.get(OUTDIR_ENV, "."))
    return base / default_name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergonoise",
        description="Ergotropy decomposition of small qubit systems under Markovian noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", "-o", help="output CSV path (sidecar lands next to it)")
        p.add_argument("--q", type=_grid, default=None, help="q grid as min,max,count")

    p = sub.add_parser("single", help="single-qubit work split along a noise grid")
    p.add_argument("--channel", required=True)
    p.add_argument("--bloch", type=_triple, required=True, help="n1,n2,n3")
    p.add_argument("--basis", choices=("computational", "x"), default="computational")
    add_common(p)

    p = sub.add_parser("bds", help="Bell-diagonal work vs correlations")
    p.add_argument("--channel", required=True)
    p.add_argument("--c", type=_triple, required=True, help="c1,c2,c3")
    p.add_argument("--one-qubit", action="store_true", help="noise the first qubit only")
    add_common(p)

    p = sub.add_parser("grid", help="coherent-work gain over (parameter, q)")
    p.add_argument("--family", choices=("cq", "pair"), required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--a", type=float, default=0.1, help="population (cq family)")
    p.add_argument("--c", type=float, default=0.3)
    p.add_argument("--d", type=float, default=0.2, help="second coherence (pair family)")
    p.add_argument("--axis", type=_grid, required=True, help="state-parameter grid min,max,count")
    add_common(p)

    p = sub.add_parser("scaling", help="enhancement scaling with register size")
    p.add_argument("--n", type=_n_range, default="2..8", help="sizes, e.g. 2..8 or 2,4,6")
    p.add_argument("--a", type=float, default=0.2)
    p.add_argument("--c0", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.02)
    p.add_argument("--channels", default="bf,pf,ad", help="comma-separated channel kinds")
    p.add_argument("--q-points", type=int, default=ex.AREA_Q_POINTS)
    p.add_argument("--output", "-o")

    p = sub.add_parser("census", help="random separable-state enhancement census")
    p.add_argument("--channel", required=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--terms", type=int, default=2, help="mixture terms per sample")
    p.add_argument("--q-points", type=int, default=ex.DEFAULT_Q_POINTS)
    p.add_argument("--output", "-o")

    p = sub.add_parser("lindblad-check", help="RK4 master equation vs Kraus clock")
    p.add_argument("--kind", required=True, help="bf or ad")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--t", type=_grid, required=True, help="time grid min,max,count")
    p.add_argument("--bloch", type=_triple, required=True)
    p.add_argument("--output", "-o")

    p = sub.add_parser("entangled", help="coherent work and concurrence of the rotated pure state")
    p.add_argument("--theta", type=_grid, required=True, help="theta grid min,max,count")
    p.add_argument("--h", type=float, default=0.5)
    p.add_argument("--J", type=float, default=0.4)
    p.add_argument("--channel", default="bf")
    add_common(p)

    p = sub.add_parser(
        "appendix-d", help="depolarizing noise against the interacting Hamiltonian"
    )
    p.add_argument("--a", default="0.1,0.4", help="comma-separated population values")
    p.add_argument("--c", type=float, default=0.3)
    p.add_argument("--d", type=float, default=0.2)
    p.add_argument("--h", type=float, default=0.5)
    p.add_argument("--J", type=float, default=0.4)
    add_common(p)

    return parser


def _dispatch(args) -> tuple[ex.SweepResult, Path]:
    cmd = args.command
    if cmd == "single":
        result = ex.sweep_single(args.channel, args.bloch, basis=args.basis, q_grid=args.q)
        name = f"single_{result.metadata['channel']}.csv"
    elif cmd == "bds":
        result = ex.sweep_bds(args.c, args.channel, q_grid=args.q, both_qubits=not args.one_qubit)
        name = f"bds_{result.metadata['channel']}.csv"
    elif cmd == "grid":
        family = "classical_quantum" if args.family == "cq" else "symmetric_pair"
        result = ex.grid_delta_wc(
            family, args.channel, args.axis, q_grid=args.q,
            p=args.p, a=args.a, c=args.c, d=args.d,
        )
        name = f"grid_{args.family}_{result.metadata['channel']}.csv"
    elif cmd == "scaling":
        kinds = [k for k in args.channels.split(",") if k]
        result = ex.scaling_run(
            kinds=kinds, n_values=args.n, a=args.a, c0=args.c0,
            delta=args.delta, q_points=args.q_points,
        )
        name = "scaling.csv"
    elif cmd == "census":
        result = ex.census_random(
            args.channel, count=args.count, seed=args.seed,
            q_points=args.q_points, num_terms=args.terms,
        )
        name = f"census_{result.metadata['channel']}.csv"
    elif cmd == "lindblad-check":
        result = ex.lindblad_consistency(args.kind, args.gamma, args.t, args.bloch)
        name = f"lindblad_{result.metadata['channel']}.csv"
    elif cmd == "entangled":
        result = ex.entangled_example(
            args.theta, q_grid=args.q, h=args.h, j=args.J, kind=args.channel,
        )
        name = "entangled.csv"
    elif cmd == "appendix-d":
        a_values = [float(v) for v in args.a.split(",")]
        result = ex.interacting_depolarizing(
            a_values=a_values, c=args.c, d=args.d, h=args.h, j=args.J, q_grid=args.q,
        )
        name = "appendix_d.csv"
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(cmd)
    return result, _out_path(args, name)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, path = _dispatch(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    write_csv(path, result)
    if "fraction_enhancing" in result.metadata:
        print(f"fraction_enhancing={result.metadata['fraction_enhancing']}")
    print(f"wrote {path} ({len(result)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
