"""Run the mersoct CLI with every layer boundary timed from outside.

    BENCH_TRACE_DIR=DIR BENCH_TRACE_ID=ID python3 benchmarks/tracer.py ARGS...

runs ``mersoct ARGS...`` after replacing the package's public callables
with timing wrappers.  Each wrapper is installed under every name that
refers to the original object, so import-time aliases (``verify.cd_mul``,
``oct_sequences.seq_window``) and registries (``verify._CHECKS``) are
traced too.  The source under ``src/`` is not changed.

The verify and cli layers record spans (id, parent id, name, start,
end); the arithmetic layers, called up to millions of times, only add
to per-name counts, total and self time.  Self time is a call's duration
minus that of the traced calls it made.  lru_cache hit ratios come from
``cache_info()``.  Pool workers inherit the wrappers (fork) or re-import
this file as ``__mp_main__`` (spawn, forkserver), and each process
writes ``DIR/trace-<pid>.json`` when it ends.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import time
import types
from concurrent.futures import ProcessPoolExecutor

# Layers whose calls are too many to keep one span each.
AGGREGATE_ONLY = ("quadratic.", "octonion.", "sequences.", "oct_sequences.")
MODULES = ("quadratic", "octonion", "sequences", "oct_sequences", "verify", "cli")


class Tracer:
    """Per-process span and counter store.  The containers are created
    once and cleared in place, because the wrappers hold them."""

    def __init__(self, out_dir: str, trace_id: str):
        self.out_dir = out_dir
        self.trace_id = trace_id
        self.stack = []
        self.agg = {}       # name -> [calls, total_s, self_s]
        self.spans = []     # (id, parent id, name, start, end)
        self.counters = {}
        self.cached = {}    # name -> lru_cache object
        self.cache_base = {}
        self._ids = itertools.count()
        self.reset()

    def reset(self):
        self.stack[:] = [[0.0, 0.0, None]]  # [start, child time, span id]
        for a in self.agg.values():
            a[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self.counters.clear()
        self.cache_base = {n: fn.cache_info() for n, fn in self.cached.items()}

    def wrap(self, name: str, fn):
        stack, agg, spans, ids = self.stack, self.agg, self.spans, self._ids
        clock = time.perf_counter
        keep_spans = not name.startswith(AGGREGATE_ONLY)
        agg.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            frame = [clock(), 0.0, next(ids) if keep_spans else None]
            parent = stack[-1]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                parent[1] += dur
                a = agg[name]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[1]
                if keep_spans:
                    spans.append((frame[2], parent[2], name, frame[0], end))

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, name))
        traced.__wrapped__ = fn
        if hasattr(fn, "cache_info"):
            traced.cache_info, traced.cache_clear = fn.cache_info, fn.cache_clear
            self.cached[name] = fn
        return traced

    def add(self, name: str, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def dump(self):
        caches = {}
        for n, fn in self.cached.items():
            info, base = fn.cache_info(), self.cache_base[n]
            caches[n] = [info.hits - base.hits, info.misses - base.misses]
        path = os.path.join(self.out_dir, f"trace-{os.getpid()}.json")
        with open(path, "w") as f:
            json.dump({"pid": os.getpid(), "trace_id": self.trace_id, "agg": self.agg,
                       "counters": self.counters, "caches": caches,
                       "spans": self.spans}, f)


def _replace_everywhere(modules, old, new):
    """Point every module attribute and module-level dict value that is
    `old` at `new`."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
            elif isinstance(value, dict) and key != "__builtins__":
                for dk, dv in list(value.items()):
                    if dv is old:
                        value[dk] = new


def _public_functions(mod):
    for key, value in list(vars(mod).items()):
        if key.startswith("_") or isinstance(value, type):
            continue
        if callable(value) and getattr(value, "__module__", None) == mod.__name__:
            yield key, value


def _timed_pool(tracer: Tracer):
    wait = tracer.wrap("verify.pool.wait", lambda call, *args, **kwargs: call(*args, **kwargs))

    class TimedPool(ProcessPoolExecutor):
        """Pool whose result waits and shutdown are traced as
        verify.pool.wait, a child of run_grid."""

        def map(self, fn, *iterables, **kwargs):
            results = super().map(fn, *iterables, **kwargs)
            while True:
                try:
                    item = wait(next, results)
                except StopIteration:
                    return
                yield item

        def shutdown(self, *args, **kwargs):
            return wait(super().shutdown, *args, **kwargs)

    return TimedPool


class _CountingFile:
    """Output file proxy: counts characters, and times the writes that
    are not already inside a timed csv writerow."""

    def __init__(self, tracer, inner):
        self._tracer, self._inner, self.in_row = tracer, inner, False

    def write(self, s):
        self._tracer.add("cli.output_bytes", len(s))
        if self.in_row:
            return self._inner.write(s)
        t0 = time.perf_counter()
        try:
            return self._inner.write(s)
        finally:
            self._tracer.add("cli.write_s", time.perf_counter() - t0)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _timed_csv(tracer):
    """Stand-in for the csv module whose writers time writerow, which
    covers the int -> str conversion as well as the write."""

    class Writer:
        def __init__(self, out, *args, **kwargs):
            self._out = out
            self._w = csv.writer(out, *args, **kwargs)

        def writerow(self, row):
            t0 = time.perf_counter()
            self._out.in_row = True
            try:
                return self._w.writerow(row)
            finally:
                self._out.in_row = False
                tracer.add("cli.write_s", time.perf_counter() - t0)

    return types.SimpleNamespace(writer=Writer)


def install(out_dir: str, trace_id: str) -> Tracer:
    """Wrap the package in this process and arrange for every process
    it forks to write its own trace file at exit."""
    pkg = importlib.import_module("mersenne_octonions")
    mods = {m: importlib.import_module(f"mersenne_octonions.{m}") for m in MODULES}
    everywhere = [pkg, *mods.values()]
    tracer = Tracer(out_dir, trace_id)

    for short, mod in mods.items():
        for key, fn in _public_functions(mod):
            _replace_everywhere(everywhere, fn, tracer.wrap(f"{short}.{key}", fn))

    quad, octo, ver, cli = (mods[m] for m in ("quadratic", "octonion", "verify", "cli"))
    quad.QuadElem.__mul__ = quad.QuadElem.__rmul__ = tracer.wrap(
        "quadratic.QuadElem.mul", quad.QuadElem.__mul__)
    quad.QuadElem.__init__ = tracer.wrap("quadratic.QuadElem.init", quad.QuadElem.__init__)
    octo.Octonion.__mul__ = tracer.wrap("octonion.Octonion.mul", octo.Octonion.__mul__)

    report = ver.VerificationReport
    report.to_dict = tracer.wrap("verify.to_dict", report.to_dict)
    to_json = tracer.wrap("verify.to_json", report.to_json)

    def sized_to_json(self):
        text = to_json(self)
        tracer.add("verify.report_bytes", len(text))
        return text

    report.to_json = sized_to_json
    ver.ProcessPoolExecutor = _timed_pool(tracer)

    open_out = getattr(cli, "_open_out", None)
    if open_out:  # cli.write.s and cli.output_bytes stay 0 without it
        def counting_open_out(path):
            out, close = open_out(path)
            return _CountingFile(tracer, out), close

        cli._open_out = counting_open_out
        cli.csv = _timed_csv(tracer)

    tracer.reset()
    multiprocessing.util.register_after_fork(tracer, _in_worker)
    return tracer


def _in_worker(tracer: Tracer):
    tracer.reset()
    multiprocessing.util.Finalize(tracer, tracer.dump, exitpriority=100)


def main(argv) -> int:
    tracer = install(os.environ["BENCH_TRACE_DIR"], os.environ.get("BENCH_TRACE_ID", ""))
    cli = importlib.import_module("mersenne_octonions.cli")
    try:
        return cli.main(argv)
    finally:
        tracer.dump()


if __name__ == "__mp_main__":
    _in_worker(install(os.environ["BENCH_TRACE_DIR"], os.environ.get("BENCH_TRACE_ID", "")))

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
