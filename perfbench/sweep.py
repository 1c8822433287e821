"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py [--first-seed N] [--trace]
                               [--out perfbench/trajectory/<label>.json]

Each run is ``run.py`` with BENCHMARK.json's ``run_seconds``: ten seeds from
``--first-seed`` on every workload, one run after another, closed-loop.  For
every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to a third of the metric's
bound, and flags a spread at or above that third as NOT STEADY.  With ``--trace`` one traced run per workload follows.  With
``--out`` every run's result and environment stamp, and the summaries, are
written as one point of the bench trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"seed": seed, "env": json.loads(lines[-2])["env"], "result": json.loads(lines[-1]),
            "stderr": proc.stderr.strip().splitlines()}


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    point = {"run_seconds": seconds, "workloads": {}}
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            runs.append(run(workload, seed, seconds, 0))
            r = runs[-1]["result"]
            brief = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} {brief}", flush=True)
        summary = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs], bound)
                   for name, bound in bounds.items()}
        for name, s in summary.items():
            print(f"  {workload:12} {name:12} median {s['median']:.4f} q1 {s['q1']:.4f} "
                  f"q3 {s['q3']:.4f} spread {s['spread']:.4f} (bound/3 {s['bound'] / 3:.4f})"
                  f"{'' if s['steady'] else '  NOT STEADY'}", flush=True)
        entry = {"runs": runs, "summary": summary}
        if args.trace:
            entry["trace"] = run(workload, args.first_seed, seconds, 1)
            print(f"  {workload} traced: {json.dumps(entry['trace']['result'])[:300]}...",
                  flush=True)
        point["workloads"][workload] = entry
    if args.out:
        point["env"] = point["workloads"][workloads[0]]["runs"][0]["env"]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
