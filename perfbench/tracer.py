"""Traced in-process pass over one workload; run by ``run.py --trace 1``.

    python3 perfbench/tracer.py --workload stream-enum --seed 1 --out FILE

All ops of the seeded plan run in this one interpreter: CLI ops through
``digicon.cli.main`` with stdout captured, library ops as direct calls.
Before each op the ladder cache is cleared, because every CLI run starts
with it empty.  The spans live here, not in ``src/``: the public functions of
each ``digicon`` module (and the few private helpers a layer metric needs)
are replaced, in every module namespace that binds them, by wrappers that
record a span (name, start, end, parent, busy time) and counts at the same
boundary.  Generators get one span whose busy time sums the time spent
inside ``next``.  Per-object calls (building a ``VertexSet``, serialising a
set, mapping a string to a set) are too many to keep as spans, so they only
add to a time and call total.

Spans are kept in memory and written, with the per-op results and the
per-layer metrics, to FILE when the pass ends.  So is ``peak_repeat_s``, the
time spent repeating recurrences under tracemalloc, which ``run.py`` takes out
of ``trace.overhead_s``.  Metrics marked derived are differences of
measured spans, not measured themselves.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import digicon.cli
from digicon import _kernels, convexity, cyclic, graphs, products, sequences

from workloads import plan

now = time.perf_counter
DERIVED = ("kernels.convex_self_s", "products.merge_s", "trace.overhead_s")


class Tracer:
    """Spans, per-object call totals and counts, kept in memory.

    Each thread has its own stack of open spans, so a span's parent is the
    innermost span open in its thread; a sweep block run on a worker thread
    is parented on the scan that submitted it.
    """

    def __init__(self):
        self.started = now()
        self.spans: list[dict] = []
        self.hot: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.lock = threading.Lock()
        self.local = threading.local()

    def stack(self) -> list:
        if not hasattr(self.local, "stack"):
            self.local.stack = []
        return self.local.stack

    def add(self, name: str, amount: int = 1) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def open(self, name: str) -> dict:
        stack = self.stack()
        span = {"name": name, "parent": stack[-1]["id"] if stack else None,
                "nested": any(s["name"] == name for s in stack),
                "start": now() - self.started, "end": None, "busy": 0.0,
                "thread": threading.get_ident()}
        with self.lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        return span

    def run_in(self, span: dict, fn, *a, **kw):
        """Call fn with span open on this thread, adding the time to its busy time."""
        stack = self.stack()
        stack.append(span)
        t = now()
        try:
            return fn(*a, **kw)
        finally:
            span["busy"] += now() - t
            stack.pop()

    def close(self, span: dict) -> None:
        span["end"] = now() - self.started

    def call(self, name: str, fn, after=None):
        """Wrap fn in a span; after(span, args, result) records counts outside it."""
        def traced(*a, **kw):
            span = self.open(name)
            try:
                result = self.run_in(span, fn, *a, **kw)
            finally:
                self.close(span)
            if after:
                after(span, a, result)
            return result
        return traced

    def drive(self, span: dict, inner, item=None):
        """Yield from generator inner, timing each next() into span."""
        try:
            while True:
                try:
                    value = self.run_in(span, next, inner)
                except StopIteration:
                    return
                if item:
                    item(value)
                yield value
        finally:
            self.close(span)
            inner.close()

    def gen(self, name: str, fn, begin=None, item=None):
        """Wrap a generator function: one span per generator, busy only inside next()."""
        def traced(*a, **kw):
            span = self.open(name)
            if begin:
                begin(a)
            return self.drive(span, fn(*a, **kw), item)
        return traced

    def hot_call(self, name: str, fn):
        """Wrap a per-object call: add its time and a call to a total, keep no span."""
        total = self.hot.setdefault(name, [0.0, 0])
        lock = self.lock

        def traced(*a, **kw):
            t = now()
            try:
                return fn(*a, **kw)
            finally:
                elapsed = now() - t
                with lock:
                    total[0] += elapsed
                    total[1] += 1
        return traced


class NumpyWithTracedUnique:
    """numpy as ``products`` sees it, with ``unique`` traced."""

    def __init__(self, numpy, unique):
        self._numpy = numpy
        self.unique = unique

    def __getattr__(self, name):
        return getattr(self._numpy, name)


class Sink(io.TextIOBase):
    """Stands in for stdout: hashes and counts what an op prints."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.bytes = self.lines = 0

    def writable(self):
        return True

    def write(self, text):
        data = text.encode()
        self.digest.update(data)
        self.bytes += len(data)
        self.lines += data.count(b"\n")
        return len(text)


class Instrumented:
    """The wrappers installed into the digicon modules, and what they collect."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "digicon"]
        self.recurrence_calls: list[tuple] = []
        self.recurrence_peak = 0
        self.peak_repeat_s = 0.0
        t = tracer

        def outer(name, amount_of):
            def after(span, a, result):
                if not span["nested"]:
                    t.add(name, amount_of(a, result))
            return after

        for builder in (graphs.make_path, graphs.make_cycle, graphs.make_complete,
                        graphs.graph_power, graphs.cartesian_product):
            self.replace(builder, t.call("graphs.build", builder,
                                         outer("graphs.built", lambda a, r: 1)))
        graphs.VertexSet.__init__ = t.hot_call("graphs.vertexset", graphs.VertexSet.__init__)

        def predicate_counts(span, a, flags):
            t.add("kernels.tested", a[2] - a[1])
            t.add("kernels.survivors", int(flags.sum()))

        orig_scan = _kernels.scan_blocks

        def scan_blocks(total, block_fn, workers=1, block_size=_kernels.BLOCK_SIZE):
            span = t.open("kernels.scan")
            t.add("kernels.subsets", total)
            traced_block = t.call("kernels.block", block_fn)

            def block(lo, hi):
                t.add("kernels.blocks")
                stack = t.stack()
                stack.append(span)
                try:
                    return traced_block(lo, hi)
                finally:
                    stack.pop()
            return t.drive(span, orig_scan(total, block, workers, block_size))

        self.replace(orig_scan, scan_blocks)
        self.replace(_kernels.neighborhood_codes,
                     t.call("kernels.ns", _kernels.neighborhood_codes))
        self.replace(_kernels.convex_flags,
                     t.call("kernels.convex", _kernels.convex_flags, predicate_counts))
        self.replace(_kernels.mis_flags,
                     t.call("kernels.mis", _kernels.mis_flags, predicate_counts))

        self.replace(convexity.count_digitally_convex,
                     t.call("convexity.count", convexity.count_digitally_convex,
                            outer("convexity.sets", lambda a, r: r)))
        self.replace(convexity.enumerate_digitally_convex,
                     t.gen("convexity.enum", convexity.enumerate_digitally_convex,
                           item=lambda v: t.add("convexity.sets")))

        self.replace(cyclic.enumerate_B, t.gen(
            "cyclic.enum_B", cyclic.enumerate_B,
            begin=lambda a: t.add("cyclic.candidates", 1 << a[1]),
            item=lambda v: t.add("cyclic.members")))
        self.replace(cyclic.convex_set_from_string,
                     t.hot_call("cyclic.string_to_set", cyclic.convex_set_from_string))
        for fn in (cyclic.count_cycle_power, cyclic.a_count):
            self.replace(fn, t.call("cyclic.recurrence", fn))

        def image_counts(span, a, images):
            t.add("products.images", len(images))
            t.add("products.arrays", 1 << a[0] * a[1])

        self.replace(products._image_codes,
                     t.call("products.arrays", products._image_codes, image_counts))
        self.replace(products._min_codes, t.call("products.min_codes", products._min_codes))
        products.np = NumpyWithTracedUnique(products.np,
                                            t.call("products.unique", products.np.unique))
        self.ladder = products.generate_grid_p2
        self.replace(self.ladder, t.call("products.ladder", self.ladder,
                                         outer("products.ladder_sets", lambda a, r: len(r))))
        self.replace(products.count_mis_grid3,
                     t.call("products.mis", products.count_mis_grid3))

        def recurrence_counts(span, a, result):
            rec, n = a
            t.add("sequences.recurrence_terms", max(0, n - rec.first_recurrent_index + 1))
            t.add("sequences.result_bits", result.bit_length())
            self.recurrence_calls.append((n, rec))

        self.eval_recurrence = sequences.eval_recurrence
        self.replace(self.eval_recurrence,
                     t.call("sequences.recurrence", self.eval_recurrence, recurrence_counts))
        self.replace(sequences.expand_rational, t.call(
            "sequences.series", sequences.expand_rational,
            lambda span, a, r: t.add("sequences.result_bits",
                                     sum(c.bit_length() for c in r.coefficients))))
        self.replace(sequences.compare_with_bfile,
                     t.call("sequences.bfile_compare", sequences.compare_with_bfile))

        # serialising and printing are the emit layer
        self.emit = t.hot_call("cli.emit", print)
        digicon.cli.print = self.emit
        self.replace(graphs.set_to_json, t.hot_call("cli.emit", graphs.set_to_json))

    def replace(self, orig, traced) -> None:
        for module in self.modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, traced)

    def measure_recurrence_peak(self) -> None:
        """Repeat the op's largest recurrence call under tracemalloc, after
        the op, so that tracemalloc slows no timed span."""
        if not self.recurrence_calls:
            return
        n, rec = max(self.recurrence_calls, key=lambda c: c[0])
        self.recurrence_calls.clear()
        start = now()
        tracemalloc.start()
        try:
            self.eval_recurrence(rec, n)
            self.recurrence_peak = max(self.recurrence_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            self.peak_repeat_s += now() - start


def set_digit_limit(limit: int) -> None:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(limit)


def run_ops(ops, inst: Instrumented) -> list[dict]:
    tracer = inst.tracer
    default_digits = getattr(sys.int_info, "default_max_str_digits", 0)
    results = []
    real_stdout = sys.stdout
    for op in ops:
        # every CLI process starts with an empty ladder cache
        inst.ladder.cache_clear()
        sink = Sink()
        error = None
        span = tracer.open("op")
        span["op"] = op.label
        sys.stdout = sink
        try:
            if op.call is not None:
                module, function, call_args = op.call
                set_digit_limit(0)
                fn = getattr(importlib.import_module(f"digicon.{module}"), function)
                tracer.run_in(span, lambda: inst.emit(fn(*call_args)))
                code = 0
            else:
                set_digit_limit(default_digits)
                code = tracer.run_in(span, digicon.cli.main, list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # an uncaught error exits the CLI with 1
            code, error = 1, f"{type(exc).__name__}: {str(exc)[:300]}"
        finally:
            sys.stdout = real_stdout
            tracer.close(span)
        inst.measure_recurrence_peak()
        results.append({"ref": op.ref, "op": op.label, "exit": code, "error": error,
                        "timed_out": False, "sha256": sink.digest.hexdigest(),
                        "bytes": sink.bytes, "lines": sink.lines, "wall_s": span["busy"]})
    return results


def layer_metrics(inst: Instrumented, results: list[dict]) -> dict:
    tracer = inst.tracer
    spans = tracer.spans

    def busy(name):
        return sum(s["busy"] for s in spans if s["name"] == name and not s["nested"])

    def hot(name):
        return tracer.hot.get(name, [0.0, 0])[0]

    def count(name):
        return tracer.counts.get(name, 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    convex_ids = {s["id"] for s in spans if s["name"] == "kernels.convex"}
    ns_in_convex = sum(s["busy"] for s in spans
                       if s["name"] == "kernels.ns" and s["parent"] in convex_ids)
    return {
        "graphs.build_s": busy("graphs.build"),
        "graphs.built": count("graphs.built"),
        "graphs.vertexset_s": hot("graphs.vertexset"),
        "kernels.ns_s": busy("kernels.ns"),
        "kernels.convex_s": busy("kernels.convex"),
        "kernels.convex_self_s": busy("kernels.convex") - ns_in_convex,
        "kernels.mis_s": busy("kernels.mis"),
        "kernels.subsets": count("kernels.subsets"),
        "kernels.blocks": count("kernels.blocks"),
        "kernels.subsets_per_s": ratio(count("kernels.subsets"), busy("kernels.block")),
        "kernels.survivor_ratio": ratio(count("kernels.survivors"), count("kernels.tested")),
        "kernels.scan_wait_s": busy("kernels.scan"),
        "convexity.count_s": busy("convexity.count"),
        "convexity.enum_s": busy("convexity.enum"),
        "convexity.sets": count("convexity.sets"),
        "cyclic.enum_B_s": busy("cyclic.enum_B"),
        "cyclic.candidates": count("cyclic.candidates"),
        "cyclic.members": count("cyclic.members"),
        "cyclic.accept_ratio": ratio(count("cyclic.members"), count("cyclic.candidates")),
        "cyclic.string_to_set_s": hot("cyclic.string_to_set"),
        "cyclic.recurrence_s": busy("cyclic.recurrence"),
        "products.arrays_s": busy("products.arrays"),
        "products.min_codes_s": busy("products.min_codes"),
        "products.unique_s": busy("products.unique"),
        "products.merge_s": (busy("products.arrays") - busy("products.min_codes")
                             - busy("products.unique")),
        "products.images": count("products.images"),
        "products.image_ratio": ratio(count("products.images"), count("products.arrays")),
        "products.ladder_gen_s": busy("products.ladder"),
        "products.ladder_sets": count("products.ladder_sets"),
        "products.mis_s": busy("products.mis"),
        "sequences.recurrence_s": busy("sequences.recurrence"),
        "sequences.recurrence_terms": count("sequences.recurrence_terms"),
        "sequences.recurrence_peak_mb": inst.recurrence_peak / 2**20,
        "sequences.series_s": busy("sequences.series"),
        "sequences.result_bits": count("sequences.result_bits"),
        "sequences.bfile_compare_s": busy("sequences.bfile_compare"),
        "cli.emit_s": hot("cli.emit"),
        "cli.out_bytes": sum(r["bytes"] for r in results),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    inst = Instrumented(Tracer())
    results = run_ops(plan(args.workload, args.seed, args.scale), inst)
    record = {
        "ops": results,
        "metrics": layer_metrics(inst, results),
        "derived": DERIVED,
        "peak_repeat_s": inst.peak_repeat_s,
        "counts": inst.tracer.counts,
        "hot": {name: {"seconds": s, "calls": c} for name, (s, c) in inst.tracer.hot.items()},
        "spans": inst.tracer.spans,
    }
    Path(args.out).write_text(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
