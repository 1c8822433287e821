"""Self-check of the benchmark.  Run from the repository root:

    python3 perfbench/selfcheck.py

It checks that BENCHMARK.json keeps to its format, that every op and seed
variant at both scales has a stored reference, that a reduced-size smoke run
of every workload (untraced and traced) is correct and emits exactly the
metrics BENCHMARK.json names, with their units, and that the benchmark
refuses to run, without printing a result, in a copy that holds only
BENCHMARK.json and the benchmark's own files.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import SCALES, WORKLOADS, all_ops, plan  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def check_spec(spec: dict) -> None:
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, f"BENCHMARK.json keys {sorted(spec)}")
    expect(spec["workloads"] and [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in spec[kind]]
    expect(len(names) == len(set(names)), "a name is used twice")
    for name in names:
        expect(NAME.fullmatch(name) is not None, f"bad name {name!r}")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200,
               f"workload {w['name']}: needs a one-line why of at most 200 characters")
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
               f"end-to-end metric {m['name']}: keys or bound")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per-layer metric {m['name']}: keys")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(UNIT.fullmatch(m["unit"]) is not None and m["better"] in ("lower", "higher"),
               f"metric {m['name']}: unit or better")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s must exist, in s, lower is better, with the largest bound")
    expect(1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int),
           "run_seconds must be a whole number from 1 to 60")
    runs = 4 + 22 * len(spec["workloads"])
    expect(runs * (spec["run_seconds"] + 8) < 3420,
           f"{runs} runs of about {spec['run_seconds'] + 8} s exceed the time allowed")
    for path in spec["paths"]:
        expect(not path.startswith("/") and ".." not in path.split("/"), f"bad path {path!r}")
    expect(all(len(a) <= 200 for a in spec["command"]) and len(spec["command"]) <= 32,
           "command too long")


def check_references() -> None:
    refs = json.loads((HERE / "references.json").read_text())
    for scale in SCALES:
        for op in all_ops(scale):
            ref = refs.get(scale, {}).get(op.ref)
            expect(ref is not None, f"{scale}: no reference for {op.label}")
            if ref is not None:
                expect(set(ref) >= {"exit", "count", "sha256", "lines", "bytes", "routes"}
                       and (len(ref["routes"]) >= 2 or ref["routes"] == ["verify cases"]),
                       f"{scale}: incomplete reference for {op.label}")
    for w in WORKLOADS:
        expect(plan(w, 7) == plan(w, 7), f"{w}: the same seed gave different plans")


def last_json_line(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def smoke(spec: dict) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[kind]}
        for workload in WORKLOADS:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180,
                                  check=False)
            where = f"smoke {workload} trace {trace}"
            result = last_json_line(proc.stdout)
            if proc.returncode != 0 or not isinstance(result, dict):
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            expect(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
            expect(result.get("correct") is True and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1,
                   f"{where}: correct={result.get('correct')} failed={result.get('failed')}: "
                   f"{proc.stderr[-500:]}")
            metrics = result.get("metrics", {})
            expect(set(metrics) == set(units),
                   f"{where}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(metrics) ^ set(units))}")
            for name, entry in metrics.items():
                value = entry.get("value")
                expect(isinstance(value, (int, float)) and math.isfinite(value)
                       and entry.get("unit") == units.get(name), f"{where}: metric {name} {entry}")
            if trace == 0:
                expect(all(metrics[m]["value"] > 0 for m in units if m in metrics),
                       f"{where}: an end-to-end metric is 0")
            print(f"ok  {where}: attempted {result['attempted']}")


def refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    expect(proc.returncode != 0 and last_json_line(proc.stdout) is None,
           f"run without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_references()
    refuses_without_sources()
    smoke(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{len(problems)} problems" if problems else "selfcheck passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
