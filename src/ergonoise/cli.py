"""Command-line surface: one subcommand per experiment family.

Each subcommand is declared once, in ``build_parser``: its arguments, the
experiment it runs (``run``) and the name of the file it writes without
``-o`` (``name``, formatted with the arguments and the run's metadata).
Each run writes one CSV plus a JSON metadata sidecar. Argument errors
exit with status 2 (argparse default) and name the expected form;
validation failures (PSD violations, bad ranges) exit with status 1 and
name the constraint. The default output directory comes from
ERGONOISE_OUTDIR, falling back to the working directory.
"""

from __future__ import annotations

import argparse
import functools
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
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid spec {spec!r} is not min,max,count: two numbers and an integer"
        ) from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"grid bounds {lo}, {hi} must be finite")
    if count < 2:
        raise argparse.ArgumentTypeError("grid count must be at least 2")
    return np.linspace(lo, hi, count)


def _numbers(spec: str) -> list[float]:
    """Parse 'v1,v2,...' into a non-empty list of numbers; finiteness is
    left to the library, which names the value."""
    try:
        return [float(v) for v in spec.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{spec!r} is not comma-separated numbers") from None


def _triple(spec: str) -> np.ndarray:
    parts = _numbers(spec)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{spec!r} is not a comma-separated triple")
    return np.array(parts)


def _n_range(spec: str) -> list[int]:
    """Parse 'lo..hi' (inclusive) or 'n1,n2,...' into register sizes."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [int(v) for v in spec.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes {spec!r} are not lo..hi or comma-separated integers") from None


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
    p.set_defaults(name="single_{meta[channel]}.csv",
                   run=lambda a: ex.sweep_single(a.channel, a.bloch, basis=a.basis, q_grid=a.q))

    p = sub.add_parser("bds", help="Bell-diagonal work vs correlations")
    p.add_argument("--channel", required=True)
    p.add_argument("--c", type=_triple, required=True, help="c1,c2,c3")
    p.add_argument("--one-qubit", action="store_true", help="noise the first qubit only")
    add_common(p)
    p.set_defaults(name="bds_{meta[channel]}.csv",
                   run=lambda a: ex.sweep_bds(a.c, a.channel, q_grid=a.q, both_qubits=not a.one_qubit))

    p = sub.add_parser("grid", help="coherent-work gain over (parameter, q)")
    p.add_argument("--family", choices=("cq", "pair"), required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--a", type=float, default=0.1, help="population (cq family)")
    p.add_argument("--c", type=float, default=0.3)
    p.add_argument("--d", type=float, default=0.2, help="second coherence (pair family)")
    p.add_argument("--axis", type=_grid, required=True, help="state-parameter grid min,max,count")
    add_common(p)
    p.set_defaults(name="grid_{args.family}_{meta[channel]}.csv", run=lambda a: ex.grid_delta_wc(
        {"cq": "classical_quantum", "pair": "symmetric_pair"}[a.family], a.channel, a.axis,
        q_grid=a.q, p=a.p, a=a.a, c=a.c, d=a.d,
    ))

    p = sub.add_parser("scaling", help="enhancement scaling with register size")
    p.add_argument("--n", type=_n_range, default="2..8", help="sizes, e.g. 2..8 or 2,4,6")
    p.add_argument("--a", type=float, default=0.2)
    p.add_argument("--c0", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.02)
    p.add_argument("--channels", default="bf,pf,ad", help="comma-separated channel kinds")
    p.add_argument("--q-points", type=int, default=ex.AREA_Q_POINTS)
    p.add_argument("--output", "-o")
    p.set_defaults(name="scaling.csv", run=lambda a: ex.scaling_run(
        kinds=[k for k in a.channels.split(",") if k], n_values=a.n, a=a.a, c0=a.c0,
        delta=a.delta, q_points=a.q_points,
    ))

    p = sub.add_parser("census", help="random separable-state enhancement census")
    p.add_argument("--channel", required=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--terms", type=int, default=2, help="mixture terms per sample")
    p.add_argument("--q-points", type=int, default=ex.DEFAULT_Q_POINTS)
    p.add_argument("--output", "-o")
    p.set_defaults(name="census_{meta[channel]}.csv", run=lambda a: ex.census_random(
        a.channel, count=a.count, seed=a.seed, q_points=a.q_points, num_terms=a.terms,
    ))

    p = sub.add_parser("lindblad-check", help="RK4 master equation vs Kraus clock")
    p.add_argument("--kind", required=True, help="bf or ad")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--t", type=_grid, required=True, help="time grid min,max,count")
    p.add_argument("--bloch", type=_triple, required=True)
    p.add_argument("--output", "-o")
    p.set_defaults(name="lindblad_{meta[channel]}.csv",
                   run=lambda a: ex.lindblad_consistency(a.kind, a.gamma, a.t, a.bloch))

    p = sub.add_parser("entangled", help="coherent work and concurrence of the rotated pure state")
    p.add_argument("--theta", type=_grid, required=True, help="theta grid min,max,count")
    p.add_argument("--h", type=float, default=0.5)
    p.add_argument("--J", type=float, default=0.4)
    p.add_argument("--channel", default="bf")
    add_common(p)
    p.set_defaults(name="entangled.csv",
                   run=lambda a: ex.entangled_example(a.theta, q_grid=a.q, h=a.h, j=a.J, kind=a.channel))

    p = sub.add_parser(
        "appendix-d", help="depolarizing noise against the interacting Hamiltonian"
    )
    p.add_argument("--a", type=_numbers, default="0.1,0.4", help="comma-separated population values")
    p.add_argument("--c", type=float, default=0.3)
    p.add_argument("--d", type=float, default=0.2)
    p.add_argument("--h", type=float, default=0.5)
    p.add_argument("--J", type=float, default=0.4)
    add_common(p)
    p.set_defaults(name="appendix_d.csv", run=lambda a: ex.interacting_depolarizing(
        a_values=a.a, c=a.c, d=a.d, h=a.h, j=a.J, q_grid=a.q,
    ))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building it costs ~25x one parse."""
    return build_parser()


def _joined(argv: list[str]) -> list[str]:
    """argv with a long option that takes a value joined to a next token
    that starts with a minus sign, as ``--opt=value``: argparse reads
    ``--bloch -0.3,0.2,0.1`` as two options, since only a plain negative
    number passes as a value. A token that starts with ``--`` or with a
    short option of the subcommand stays an option."""
    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    if not argv or argv[0] not in commands:
        return argv
    known, out = commands[argv[0]]._option_string_actions, []
    for token in argv:
        last = out[-1] if out else ""
        valued = last.startswith("--") and last in known and known[last].nargs is None
        if valued and token.startswith("-") and not token.startswith("--") and token[:2] not in known:
            out[-1] = f"{last}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = _parser().parse_args(_joined(sys.argv[1:] if argv is None else list(argv)))
    try:
        result = args.run(args)
        name = args.name.format(args=args, meta=result.metadata)
        path = Path(os.environ.get(OUTDIR_ENV, ".")) / name if args.output is None else Path(args.output)
        write_csv(path, result)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if "fraction_enhancing" in result.metadata:
        print(f"fraction_enhancing={result.metadata['fraction_enhancing']}")
    print(f"wrote {path} ({len(result)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
