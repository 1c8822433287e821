"""Run one benchmark workload against the digicon checkout this file sits in.

    python3 perfbench/run.py --workload sweep-count --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs closed-loop, one op at a time, each op a
fresh ``digicon`` CLI process (or a fresh interpreter making one library call
where the CLI has no route).  Passes over the seeded op sequence repeat until
``--seconds`` is used up; the end-to-end metrics are medians over passes.
Set-up time is the median of at least 15 fresh interpreters, five before
each pass, that import digicon and build the workload's graphs without
sweeping.

Each CPU of a shared host runs at one of two speeds, about 1.4 times apart,
switching every few seconds, and two CPUs often differ at the same moment.
So every timed child (op or set-up sample) is pinned to the CPU that a fixed
pure-Python probe finds fastest just before it.  While it runs, a thread of
this process times a short probe on the same CPU every 50 ms (in its own CPU
time, about 1 % of the CPU), and the probe runs once more after it.  End-to-end
times are reported in reference seconds: each op's time multiplied by
``PROBE_REF_S`` over the median probe time within that span (up to the first
byte for ``first_out_s``).  An op that asks for two workers is not pinned or
sampled; it is scaled by the probes of every CPU before and after it.  The raw
times and probe times stay in the run record.

With ``--trace 1`` one untraced pass runs, then one traced in-process pass
(``tracer.py``), and the per-layer metrics of the traced pass are reported
together with ``trace.overhead_s``, the traced minus the untraced wall time
(less the time the traced pass spends repeating recurrences under tracemalloc).

Every op's stdout is checked against its stored reference.  The last stdout
line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
``failed`` counts ops that did not deliver their reference answer (unexpected
exit code, timeout, or wrong output); ``correct`` is false when any op printed
a wrong answer, or two ops that must agree byte for byte did not.
A full record of the run, with its environment stamp, is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import SCALES, WORKLOADS, Op, graph_expr, plan  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
ALL_CPUS = set(os.sched_getaffinity(0))
SETUP_PER_PASS = 5
SETUP_MIN = 15
IMPORT_REPEATS = 3
OP_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0  # the whole run must end within 180 s
KEEP_STDERR = 2000
PROBE_LOOP = 50_000
PROBE_REPEATS = 5
# the probe's time on one CPU of the reference machine (2-vCPU Xeon,
# Python 3.11) in its fast state: times read as seconds at that speed
PROBE_REF_S = 0.0045
SAMPLE_LOOP = 5_000
SAMPLE_EVERY_S = 0.05
SCALED = ("wall_s", "cpu_s", "first_out_s")

LIB_CODE = """\
import sys
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)
from digicon.{module} import {function} as f
print(f(*{args!r}))
"""

SETUP_CODE = """\
import digicon
from digicon.graphs import cartesian_product, graph_power, make_complete, make_cycle, make_path
"""

WARMUP_CODE = """\
import digicon, numpy
print(numpy.__version__)
"""

IMPORT_CODE = """\
import time
start = time.perf_counter()
import digicon.cli
print(time.perf_counter() - start)
"""


class RunError(Exception):
    """The benchmark itself cannot run here (as opposed to a failed op)."""


def child_env() -> dict:
    """The environment ops run in: this checkout's sources, and no digicon
    or Python settings inherited from the caller that could change an op."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("DIGICON_", "PYTHON"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def op_command(op: Op) -> list[str]:
    if op.call is None:
        return [sys.executable, "-m", "digicon", *op.argv]
    module, function, args = op.call
    return [sys.executable, "-c", LIB_CODE.format(module=module, function=function, args=args)]


def probe_loop(n: int = PROBE_LOOP) -> int:
    total = 0
    for i in range(n):
        total += i * i & 1023
    return total


class Sampler(threading.Thread):
    """Times a short probe loop every SAMPLE_EVERY_S on a pinned child's CPU
    while the child runs, in this thread's own CPU time so that sharing the
    CPU with the child does not count: (time since start, the probe loop's
    time at that moment's speed)."""

    def __init__(self, cpu: int, start: float):
        super().__init__(daemon=True)
        self.cpu = cpu
        self.start_time = start
        self.done = threading.Event()
        self.samples: list[tuple[float, float]] = []

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self.done.wait(SAMPLE_EVERY_S):
            start = time.thread_time()
            probe_loop(SAMPLE_LOOP)
            self.samples.append((time.perf_counter() - self.start_time,
                                 (time.thread_time() - start) * PROBE_LOOP / SAMPLE_LOOP))


def probe(cpu: int) -> float:
    """Median time of the probe loop on one CPU; moves this process there."""
    os.sched_setaffinity(0, {cpu})
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        probe_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_child(cmd: list[str], env: dict, timeout: float, cpus: set | None = None) -> dict:
    """Spawn cmd, stream its stdout through SHA-256, and reap it with wait4.

    With ``cpus`` the child runs only on those CPUs.  Returns wall time, the
    child's own user+system CPU and peak RSS, time to the first stdout byte
    (None if it printed nothing), exit code, digest, byte and line counts,
    and the tail of stderr.
    """
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT, preexec_fn=pin)
    sampler = None
    if cpus is not None and len(cpus) == 1:
        sampler = Sampler(next(iter(cpus)), start)
        sampler.start()
    digest = hashlib.sha256()
    first_out = None
    nbytes = lines = 0
    stderr_tail = b""
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + timeout - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if not data:
                        sel.unregister(key.fileobj)
                    elif key.fileobj is proc.stdout:
                        if first_out is None:
                            first_out = time.perf_counter() - start
                        digest.update(data)
                        nbytes += len(data)
                        lines += data.count(b"\n")
                    else:
                        stderr_tail = (stderr_tail + data)[-KEEP_STDERR:]
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        if sampler is not None:
            sampler.done.set()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "first_out_s": first_out,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
        "timed_out": timed_out,
        "sha256": digest.hexdigest(),
        "bytes": nbytes,
        "lines": lines,
        "stderr_tail": stderr_tail.decode(errors="replace"),
        "samples": [] if sampler is None else sampler.samples,
    }


def timed_child(cmd: list[str], env: dict, timeout: float, threads: int = 1) -> dict:
    """run_child on the fastest CPU (on all CPUs for a multi-threaded op),
    with the probe times around it and the scaled times in ``scaled``.

    A time span from the spawn is scaled by the median probe time over the
    span: the probe before, the samples taken within it, and for the whole
    run the probe after."""
    before = {cpu: probe(cpu) for cpu in sorted(ALL_CPUS)}
    if threads == 1:
        fastest = min(before, key=before.get)
        before = {fastest: before[fastest]}
    # the reading parent keeps off a pinned child's CPU where it can
    os.sched_setaffinity(0, ALL_CPUS - before.keys() or ALL_CPUS)
    try:
        rec = run_child(cmd, env, timeout, set(before))
    finally:
        os.sched_setaffinity(0, ALL_CPUS)
    after = [probe(cpu) for cpu in before]
    os.sched_setaffinity(0, ALL_CPUS)
    samples = rec.pop("samples")

    def speed(until: float, end: list[float]) -> float:
        within = [probe_s for at, probe_s in samples if at <= until]
        return statistics.median([statistics.mean(before.values()), *within, *end])

    whole = speed(rec["wall_s"], [statistics.mean(after)])
    early = whole if rec["first_out_s"] is None else speed(rec["first_out_s"], [])
    rec.update(cpus=sorted(before), probe_before_s=list(before.values()), probe_after_s=after,
               samples=len(samples), probe_s=whole, probe_first_out_s=early)
    rec["scaled"] = {"wall_s": rec["wall_s"] * PROBE_REF_S / whole,
                     "cpu_s": rec["cpu_s"] * PROBE_REF_S / whole,
                     "first_out_s": None if rec["first_out_s"] is None
                     else rec["first_out_s"] * PROBE_REF_S / early}
    return rec


def failure(result: dict, ref: dict) -> str | None:
    """Why an op run did not deliver its reference answer, or None."""
    if result.get("timed_out"):
        return "timeout"
    if result["exit"] != ref["exit"]:
        return f"exit {result['exit']}, expected {ref['exit']}"
    if any(result[key] != ref[key] for key in ("sha256", "lines", "bytes")):
        return "wrong output"
    return None


def check_pass(records: list[dict], refs: dict) -> list[str]:
    """Mark each op record of one pass with its failure and whether it
    printed a wrong answer.  Returns the references whose ops, all exiting as
    expected, still printed different bytes (such as the --workers 1 and 2
    streams); each of those is a wrong answer too."""
    digests: dict[str, set] = {}
    for rec in records:
        rec["failure"] = failure(rec, refs[rec["ref"]])
        rec["wrong"] = rec["failure"] == "wrong output"
        if rec["failure"] in (None, "wrong output"):
            digests.setdefault(rec["ref"], set()).add(rec["sha256"])
    return sorted(ref for ref, seen in digests.items() if len(seen) > 1)


def run_pass(ops: list[Op], env: dict, refs: dict, deadline: float) -> dict:
    records = []
    for op in ops:
        timeout = min(OP_TIMEOUT_S, deadline - time.perf_counter())
        if timeout <= 0:
            rec = {"wall_s": 0.0, "cpu_s": 0.0, "first_out_s": None, "peak_rss_mb": 0.0,
                   "exit": None, "timed_out": True, "sha256": "", "bytes": 0, "lines": 0,
                   "scaled": dict.fromkeys(SCALED, 0.0)}
        else:
            rec = timed_child(op_command(op), env, timeout, op.threads)
        rec.update(ref=op.ref, op=op.label)
        records.append(rec)
    scaled = [r["scaled"] for r in records]
    return {
        "disagreeing": check_pass(records, refs),
        "raw_wall_s": sum(r["wall_s"] for r in records),
        "wall_s": sum(r["wall_s"] for r in scaled),
        "cpu_s": sum(r["cpu_s"] for r in scaled),
        # an op that prints nothing makes its caller wait until it exits
        "first_out_s": sum(r["wall_s"] if r["first_out_s"] is None else r["first_out_s"]
                           for r in scaled),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        "ops": records,
    }


def setup_sample(ops: list[Op], env: dict) -> float:
    """Scaled wall time of one fresh interpreter that imports digicon and
    builds the graphs of the ops, with no sweep."""
    specs = sorted({spec for op in ops for spec in op.graphs})
    code = SETUP_CODE + "".join(graph_expr(spec) + "\n" for spec in specs)
    rec = timed_child([sys.executable, "-c", code], env, OP_TIMEOUT_S)
    if rec["exit"] != 0:
        raise RunError(f"set-up child failed: {rec['stderr_tail']}")
    return rec["scaled"]["wall_s"]


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git (a copy
    that is not a repository has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(numpy_version: str) -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "loadavg_before": os.getloadavg(),
    }


def metric_specs(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def tagged(values: dict, kind: str) -> dict:
    units = metric_specs(kind)
    missing = units.keys() - values.keys()
    if missing:
        raise RunError(f"no value for metrics {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_untraced(ops, env, refs, seconds, deadline) -> tuple[dict, dict]:
    setups = []
    passes = []
    loop_start = time.perf_counter()
    while True:
        # set-up samples are spread over the run, so they see the same
        # machine as the passes rather than one moment of it
        setups += [setup_sample(ops, env) for _ in range(SETUP_PER_PASS)]
        passes.append(run_pass(ops, env, refs, deadline))
        elapsed = time.perf_counter() - loop_start
        mean = elapsed / len(passes)
        # stop when one more pass would overshoot --seconds by more than
        # stopping now falls short of it, or would cross the run deadline
        if elapsed + mean / 2 >= seconds or time.perf_counter() + mean >= deadline:
            break
    while len(setups) < SETUP_MIN:
        setups.append(setup_sample(ops, env))
    values = {name: statistics.median(p[name] for p in passes)
              for name in ("wall_s", "cpu_s", "first_out_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setups)
    return values, {"setup_s": setups, "passes": passes}


def measure_import(env: dict) -> list[float]:
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
        times.append(float(out.stdout))
    return times


def run_traced(workload, seed, scale, ops, env, refs, deadline) -> tuple[dict, dict]:
    untraced = run_pass(ops, env, refs, deadline)
    imports = measure_import(env)
    out = OUT_DIR / f"trace-{workload}-{scale}-seed{seed}.json"
    cmd = [sys.executable, str(HERE / "tracer.py"), "--workload", workload, "--seed", str(seed),
           "--scale", scale, "--out", str(out)]
    rec = run_child(cmd, env, max(1.0, deadline - time.perf_counter()))
    if rec["exit"] != 0:
        raise RunError(f"traced pass failed: {rec['stderr_tail']}")
    traced = json.loads(out.read_text())
    values = dict(traced["metrics"])
    values["cli.import_s"] = statistics.median(imports)
    # both walls run from the first spawn to the last exit; the tracemalloc
    # repeats of recurrences are a deliberate recomputation, not tracing cost
    values["trace.overhead_s"] = rec["wall_s"] - traced["peak_repeat_s"] - untraced["raw_wall_s"]
    traced_pass = {"disagreeing": check_pass(traced["ops"], refs), "wall_s": rec["wall_s"],
                   "peak_repeat_s": traced["peak_repeat_s"], "ops": traced["ops"],
                   "spans_file": out.name}
    return values, {"import_s": imports, "passes": [untraced, traced_pass]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="smoke runs the reduced-size ops of the self-check")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_start = time.perf_counter()
    deadline = run_start + RUN_DEADLINE_S
    if not (ROOT / "src" / "digicon" / "__init__.py").is_file():
        raise RunError(f"no digicon sources under {ROOT / 'src'}")
    refs = json.loads((HERE / "references.json").read_text())[args.scale]
    ops = plan(args.workload, args.seed, args.scale)
    env = child_env()
    # the first import compiles bytecode once; users do not pay that per run
    warm = subprocess.run([sys.executable, "-c", WARMUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=False)
    if warm.returncode != 0:
        raise RunError(f"cannot import digicon from {ROOT / 'src'}: {warm.stderr[-KEEP_STDERR:]}")
    stamp = environment(warm.stdout.strip())
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        values, detail = run_traced(args.workload, args.seed, args.scale, ops, env, refs, deadline)
        metrics = tagged(values, "per_layer")
    else:
        values, detail = run_untraced(ops, env, refs, args.seconds, deadline)
        metrics = tagged(values, "end_to_end")
    stamp["loadavg_after"] = os.getloadavg()
    stamp["run_s"] = time.perf_counter() - run_start
    records = [rec for p in detail["passes"] for rec in p["ops"]]
    disagreeing = [ref for p in detail["passes"] for ref in p["disagreeing"]]
    result = {
        "correct": not disagreeing and not any(rec["wrong"] for rec in records),
        "attempted": len(records),
        "failed": sum(rec["failure"] is not None for rec in records),
        "metrics": metrics,
    }
    for rec in records:
        if rec["failure"]:
            print(f"op failed: {rec['op']}: {rec['failure']}", file=sys.stderr)
    for ref in disagreeing:
        print(f"ops disagree: {ref}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "env": stamp,
              "plan": [op.label for op in ops], **detail, "result": result}
    name = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RunError, OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
