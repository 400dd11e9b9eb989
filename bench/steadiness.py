"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/steadiness.py --workloads census,scaling,sweeps --seeds 1-10 [--out FILE]

For every end-to-end metric of ``BENCHMARK.json`` this prints the median
over the runs and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of that median, next
to the metric's bound. Runs go one at a time, so they do not contend.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in spec.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", help="write the runs and the summary to this JSON file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(line)
            values = {k: round(v["value"], 4) for k, v in line["metrics"].items()}
            print(f"{workload} seed {seed}: correct={line['correct']} {values}", flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            summary[metric["name"]] = {"median": statistics.median(values), "spread": spread,
                                       "bound": metric["bound"], "values": values}
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print(f"  {workload} {metric['name']}: median {statistics.median(values):.5g} "
                  f"spread {spread:.4f} (bound {metric['bound']}, a third is {metric['bound'] / 3:.4f})")
        report["workloads"][workload] = {
            "summary": summary,
            "all_correct": all(r["correct"] for r in runs),
        }
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
