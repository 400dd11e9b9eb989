"""Benchmark of the ergonoise CLI: one workload, one closed-loop client.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``ergonoise`` from
its ``src`` directory; without one it exits with status 2. Ops call
``ergonoise.cli.main`` in-process with BLAS threads pinned to 1, one
after another for ``--seconds``. Every op's outputs are checked (see
``check.py``). Times are in reference seconds: each call's raw seconds
scaled by the calibration probe timed right before and after it (see
``probe.py``); an op's time is the sum over its calls.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates traced and untraced ops and reports the
per-layer metrics. The last line of stdout is one JSON object. A full
record, with per-op raw and probe times and the machine, is written to
``.bench_out/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_DIR = BENCH_DIR / "reference"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 0
SETUP_REPS = 15

# A fresh interpreter imports the CLI and builds its parser, then times the
# probe twice in the same process; prints seconds, probe times and module path.
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import ergonoise.cli as cli\n"
    "cli.build_parser()\n"
    "seconds = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from probe import Probe\n"
    "probe = Probe()\n"
    "print(seconds, probe.time(), probe.time(), cli.__file__)\n"
)


class SourceMissing(RuntimeError):
    pass


def _under_src(path) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def import_cli():
    """Import ``ergonoise.cli`` from the checkout's ``src``, never from elsewhere."""
    if not (SRC / "ergonoise" / "cli.py").is_file():
        raise SourceMissing(f"no ergonoise source under {SRC}")
    sys.path.insert(0, str(SRC))
    import ergonoise.cli as cli

    if not _under_src(cli.__file__):
        raise SourceMissing(f"ergonoise imported from {cli.__file__}, not {SRC}")
    return cli


def machine_record(np) -> dict:
    import ergonoise

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "ergonoise": ergonoise.__version__,
        "git_commit": commit,
    }


def measure_setup() -> list[dict]:
    """Import time of the CLI in fresh interpreters.

    The probe runs in the same child right after the import: a probe in
    this process, one spawn away, missed host speed changes that happen
    within the ~0.1 s import.
    """
    rows = []
    for _ in range(SETUP_REPS):
        child = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, probe_a, probe_b, path = child.stdout.split()
        if not _under_src(path):
            raise SourceMissing(f"child imported ergonoise from {path}")
        rows.append({"raw_s": float(seconds), "probe_s": [float(probe_a), float(probe_b)]})
    return rows


def _invoke(cli, argv) -> int | str:
    try:
        return cli.main(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 1
    except Exception:  # an op that raises is a failed op, and the run goes on
        return traceback.format_exc(limit=3)


def run_op(cli, calls, outdir: Path, probe, before: float, tracer=None, index=0):
    """Run one op's calls with a probe after each; return (timing, outputs, errors).

    ``timing`` holds, per call, its raw seconds and the probe times on
    either side; ``before`` is the probe time just before the first call.
    ``outputs`` maps each tag to its (csv bytes, sidecar bytes).
    """
    paths = {call.tag: outdir / f"{call.tag}.csv" for call in calls}
    for path in paths.values():
        path.unlink(missing_ok=True)
        path.with_suffix(".meta.json").unlink(missing_ok=True)
    timing, codes = [], []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for call in calls:
            if tracer is not None:
                tracer.op_id = (index, call.tag)
            start = time.perf_counter()
            codes.append(_invoke(cli, [*call.argv, "--output", str(paths[call.tag])]))
            raw = time.perf_counter() - start
            after = probe.time()
            timing.append({"tag": call.tag, "raw_s": raw, "probe_before_s": before, "probe_after_s": after})
            before = after
    outputs, errors = {}, []
    for call, code in zip(calls, codes):
        if code != 0:
            errors.append(f"{call.tag}: exit {code!r}")
            continue
        try:
            outputs[call.tag] = (paths[call.tag].read_bytes(),
                                 paths[call.tag].with_suffix(".meta.json").read_bytes())
        except OSError as err:
            errors.append(f"{call.tag}: {err}")
    return timing, outputs, errors


def check_outputs(calls, outputs) -> list[str]:
    from check import invariant_errors, parse_output

    errors = []
    for call in calls:
        if call.tag not in outputs:
            continue
        try:
            columns, meta = parse_output(*outputs[call.tag])
            errors += [f"{call.tag}: {e}" for e in invariant_errors(call.tag, call.rows, columns, meta)]
        except (ValueError, KeyError) as err:
            errors.append(f"{call.tag}: unreadable output: {err!r}")
    return errors


def reference_errors(workload, outputs) -> list[str]:
    """How op 0 of a default-seed run differs from the stored reference."""
    from check import compare, parse_output

    expected = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())["calls"]
    if sorted(expected) != sorted(outputs):
        return [f"tags {sorted(outputs)} differ from reference {sorted(expected)}"]
    errors = []
    for tag, (csv_bytes, meta_bytes) in outputs.items():
        columns, meta = parse_output(csv_bytes, meta_bytes)
        errors += [f"{tag}: {e}" for e in compare(expected[tag], columns, meta)]
    return errors


def write_reference(workload, outputs):
    from check import parse_output

    calls = {}
    for tag, pair in outputs.items():
        columns, meta = parse_output(*pair)
        calls[tag] = {"columns": columns, "meta": meta}
    REFERENCE_DIR.mkdir(exist_ok=True)
    payload = {"workload": workload, "seed": DEFAULT_SEED, "op": 0, "calls": calls}
    (REFERENCE_DIR / f"{workload}.json").write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run(args) -> dict:
    import numpy as np

    from probe import PROBE_REF_S, Probe, normalize
    from layertrace import Tracer, op_profile
    from workloads import make_op

    cli = import_cli()
    outdir = OUT / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    probe = Probe()
    setup_rows = measure_setup()
    for row in setup_rows:
        row["norm_s"] = normalize(row["raw_s"], *row["probe_s"])

    failed_ops = []

    def record_failure(index, errors):
        if errors:
            failed_ops.append({"op": index, "errors": errors[:10]})

    # warm-up op 0: untimed; its inputs are re-run at the end for byte identity
    calls0 = make_op(args.workload, args.seed, 0)
    _, first_outputs, errors = run_op(cli, calls0, outdir, probe, probe.time())
    record_failure(0, errors + check_outputs(calls0, first_outputs))

    ops = []
    spans_out = None
    index = 1
    deadline = time.perf_counter() + args.seconds
    before = probe.time()
    while time.perf_counter() < deadline or len(ops) < 4:
        calls = make_op(args.workload, args.seed, index)
        traced = bool(args.trace) and index % 2 == 1
        tracer = Tracer().install() if traced else None
        try:
            timing, outputs, errors = run_op(cli, calls, outdir, probe, before, tracer, index)
        finally:
            if tracer is not None:
                tracer.restore()
        before = timing[-1]["probe_after_s"]
        wall = sum(t["raw_s"] for t in timing)
        row = {
            "op": index, "traced": traced, "raw_s": wall,
            "norm_s": sum(normalize(t["raw_s"], t["probe_before_s"], t["probe_after_s"]) for t in timing),
            "points": sum(c.points for c in calls),
            "calls": timing,
        }
        errors += check_outputs(calls, outputs)
        record_failure(index, errors)
        if traced:
            size = sum(len(a) + len(b) for a, b in outputs.values())
            row["profile"] = op_profile(tracer.spans, wall, row["points"],
                                        {c.tag: c.points for c in calls}, size)
            if spans_out is None:
                spans_out = tracer.spans
        ops.append(row)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # (c) the same inputs give byte-identical files
    _, again, errors = run_op(cli, calls0, outdir, probe, probe.time())
    if again != first_outputs:
        changed = sorted(t for t in set(again) | set(first_outputs) if again.get(t) != first_outputs.get(t))
        errors.append(f"re-run of op 0 changed {changed}")
    record_failure("rerun", errors)
    if args.write_reference:
        write_reference(args.workload, first_outputs)
    elif args.seed == DEFAULT_SEED:
        record_failure(0, reference_errors(args.workload, first_outputs))

    timed = [r for r in ops if not r["traced"]]
    norm = [r["norm_s"] for r in timed]
    op_s = statistics.median(norm)
    points = ops[0]["points"]
    metrics = {
        "op_s": op_s,
        "points_per_s": points / op_s,
        "setup_s": statistics.median(r["norm_s"] for r in setup_rows),
        "peak_rss_mb": peak_rss_mb,
    }
    profiles = [r["profile"] for r in ops if r["traced"]]
    if profiles:
        for key in profiles[0]:
            if key != "layers":
                metrics[key] = statistics.median(p[key] for p in profiles)
        traced_norm = [r["norm_s"] for r in ops if r["traced"]]
        metrics["trace.overhead"] = statistics.median(traced_norm) / op_s - 1.0
    attempted = len(ops) + 2
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(np),
        "probe_ref_s": PROBE_REF_S,
        "attempted": attempted,
        "failed": len({str(f["op"]) for f in failed_ops}),
        "failures": failed_ops,
        "ops_timed": len(timed),
        "points_per_op": points,
        "metrics": metrics,
        "diagnostics": {
            "raw_p50_s": statistics.median(r["raw_s"] for r in timed),
            "raw_p90_s": _quantile([r["raw_s"] for r in timed], 0.9),
            "probe_median_s": statistics.median(t["probe_before_s"] for r in ops for t in r["calls"]),
            "setup_raw_median_s": statistics.median(r["raw_s"] for r in setup_rows),
        },
        "setup": setup_rows,
        "ops": ops,
    }
    if profiles:
        result["layers_first_traced_op"] = profiles[0]["layers"]
        result["spans_file"] = str(_write_spans(args, spans_out).relative_to(ROOT))
    return result


def _write_spans(args, spans) -> Path:
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-spans.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [[n, s, e, p, list(o) if isinstance(o, tuple) else o, note] for n, s, e, p, o, note in spans]
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op_id", "note"], "spans": rows}))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store the outputs of op 0 of seed {DEFAULT_SEED} as the reference")
    args = parser.parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"references are stored for seed {DEFAULT_SEED} only")

    # BLAS reads its thread count when numpy loads, so pin it first
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(BENCH_DIR))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    try:
        result = run(args)
    except SourceMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in listed}
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")

    error_rate = result["failed"] / result["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  {result['ops_timed']} timed ops "
          f"of {result['points_per_op']} points  machine {json.dumps(result['machine'])}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {error_rate:.6g} ({result['failed']}/{result['attempted']} ops)")
    print(f"  diagnostics {json.dumps(result['diagnostics'])}")
    for failure in result["failures"]:
        print(f"  FAILED op {failure['op']}: {failure['errors'][0]}")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
