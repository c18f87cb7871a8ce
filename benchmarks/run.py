"""End-to-end and per-layer benchmark of the mersoct CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each command of a workload runs in a
fresh interpreter (``python3 -m mersenne_octonions.cli`` with ``src`` on
PYTHONPATH), one at a time, in its own process group, and the whole
group is reaped before the next command starts (see procs.py).  Passes
repeat while another one still fits in S seconds; the known defects run
once after them, untimed, so the measured window holds only passes.

--trace 0 reports the end-to-end metrics: medians over passes of the
pass's wall time, CPU time, peak RSS and per-command-kind wall time,
plus the median import time of a fresh interpreter (setup_s).
--trace 1 alternates untraced and traced passes (tracer.py) and reports
the per-layer metrics, the leaf timings of micro.py, and the tracing
overhead.

Every command's output is checked by workloads.py's oracles; later
passes must reproduce the first pass byte for byte, and the 2-worker
grid report must equal the serial one.  The last line of standard output
is a JSON object {correct, attempted, failed, metrics}; the full record
(machine, samples, quartiles, gate outcomes, known defects) is written
to .benchmarks/results/.  Without src/mersenne_octonions the benchmark
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import defaultdict
from datetime import datetime, timezone

import procs
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join("src", "mersenne_octonions")
OUT_DIR = ".benchmarks"
RUN_LIMIT_S = 170.0

KINDS = ("verify", "seq", "oct")

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def summarize(samples: list) -> dict:
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {"n": len(samples), "median": statistics.median(samples),
            "q1": q[0], "q3": q[2], "samples": samples}


def source_digest() -> str:
    h = hashlib.sha256(sys.version.encode())
    for base, dirs, files in sorted(os.walk(PACKAGE)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD's commit read from .git without starting git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(".git", "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }


class Gates:
    """attempted/failed tally with the reason for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name: str, reason):
        self.attempted += 1
        if reason:
            self.failures.append(f"{name}: {reason}")


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = os.path.join(OUT_DIR, "runs", str(os.getpid()))
        self.gates = Gates()
        self.defects = Gates()
        self.digests = {}
        self.span_edges = {}
        self.n_commands = 0
        pythonpath = os.path.abspath("src")
        if os.environ.get("PYTHONPATH"):
            pythonpath += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=pythonpath)

    # --- running commands -------------------------------------------------

    def _remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def execute(self, argv, workers: int, trace_dir=None, trace_id=""):
        """Run one command; returns (Finished, path stem of its .out and .err)."""
        self.n_commands += 1
        stem = os.path.join(self.work, f"cmd{self.n_commands}")
        env = dict(self.env, MERSOCT_MAX_WORKERS=str(workers))
        if trace_dir:
            env.update(BENCH_TRACE_DIR=trace_dir, BENCH_TRACE_ID=trace_id)
        done = procs.run(argv, env, stem + ".out", stem + ".err", self._remaining())
        if done.leaked:
            self.gates.record(" ".join(argv[1:4]), "left processes running after it exited")
        return done, stem

    def cli(self, cmd: workloads.Command, trace_dir=None):
        """Run cmd; returns (Finished, checker job naming its files)."""
        out = os.path.join(self.work, f"{cmd.label}.output")
        if os.path.exists(out):
            os.remove(out)
        entry = [os.path.join(HERE, "tracer.py")] if trace_dir else ["-m", "mersenne_octonions.cli"]
        argv = [sys.executable, *entry, *cmd.args, "-o", out]
        done, stem = self.execute(argv, cmd.workers, trace_dir, cmd.label)
        if not os.path.exists(out):
            open(out, "wb").close()
        return done, {"label": cmd.label, "returncode": done.returncode,
                      "output": out, "stderr": stem + ".err"}

    def check(self, jobs: list, workload=None, seed=None) -> list:
        """The oracles' reasons (None: right) for jobs, from a child
        process so this one never holds a parsed report."""
        if not jobs:
            return []
        path = os.path.join(self.work, "jobs.json")
        with open(path, "w") as f:
            json.dump({"workload": workload or self.workload,
                       "seed": self.seed if seed is None else seed, "jobs": jobs}, f)
        done, stem = self.execute([sys.executable, os.path.join(HERE, "workloads.py"), path], 1)
        if done.returncode != 0:
            return [f"checker exit {done.returncode}"] * len(jobs)
        with open(stem + ".out") as f:
            return json.load(f)

    @staticmethod
    def output_digest(cmd: workloads.Command, job: dict) -> str | None:
        if job["returncode"] != 0:
            return None
        h = hashlib.sha256()
        with open(job["output"], "rb") as f:
            if cmd.normalize:
                h.update(cmd.normalize(f.read()))
            else:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
        return h.hexdigest()

    def run_pass(self, cmds, trace_dir=None) -> dict:
        """One pass: every command timed and gated.  A label's first
        output goes to the oracle; later ones must match it byte for
        byte."""
        sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
        sample.update({f"{k}_s": 0.0 for k in KINDS})
        unchecked = []
        for cmd in cmds:
            cmd_dir = None
            if trace_dir:
                cmd_dir = os.path.join(trace_dir, cmd.label)
                os.makedirs(cmd_dir)
            done, job = self.cli(cmd, cmd_dir)
            sample["wall_s"] += done.wall_s
            sample["cpu_s"] += done.cpu_s
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], done.maxrss_kb / 1024)
            if cmd.kind in KINDS:
                sample[f"{cmd.kind}_s"] += done.wall_s
            digest = self.output_digest(cmd, job)
            first = self.digests.get(cmd.label)
            if first is None:
                unchecked.append((cmd.label, digest, job))
            else:
                self.gates.record(cmd.label, None if digest == first else
                                  f"exit {done.returncode}; output differs from the first pass")
        reasons = self.check([job for _, _, job in unchecked])
        for (label, digest, _), reason in zip(unchecked, reasons):
            self.gates.record(label, reason)
            if reason is None:
                self.digests[label] = digest
        return sample

    def run_defects(self):
        """The known defects, untimed; their outcomes are kept apart
        from the gates."""
        jobs = [self.cli(cmd)[1] for cmd in workloads.known_defects()]
        for job, reason in zip(jobs, self.check(jobs)):
            self.defects.record(job["label"], reason)

    # --- the gate between the serial and the 2-worker grid ------------------

    def serial_grid_digest(self) -> str | None:
        """Digest of the serial default-grid report for this source tree,
        from a cache that verify-grid runs fill, or by running it once."""
        cache = os.path.join(OUT_DIR, "cache", f"serial-grid-{source_digest()}.sha256")
        if os.path.exists(cache):
            with open(cache) as f:
                return f.read().strip()
        serial = next(c for c in workloads.commands("verify-grid", 0) if c.kind == "verify")
        done, job = self.cli(serial)
        if self.check([job], "verify-grid", 0)[0]:
            return None
        digest = self.output_digest(serial, job)
        self.store_serial_digest(digest)
        return digest

    @staticmethod
    def store_serial_digest(digest: str):
        path = os.path.join(OUT_DIR, "cache", f"serial-grid-{source_digest()}.sha256")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(digest + "\n")

    def grid_identity_gate(self):
        if self.workload == "verify-grid" and self.digests.get("verify"):
            self.store_serial_digest(self.digests["verify"])
        elif self.workload == "verify-parallel":
            serial = self.serial_grid_digest()
            parallel = self.digests.get("verify")
            self.gates.record("parallel-equals-serial",
                              None if serial and serial == parallel
                              else "2-worker report differs from the serial report")

    # --- the two modes -------------------------------------------------------

    def rounds(self):
        """Yield round numbers while another round, as long as the
        longest so far, still ends within the measured window (at least
        one round), so a run lasts about --seconds and never overruns."""
        start = time.perf_counter()
        longest = 0.0
        n = 0
        while n == 0 or time.perf_counter() - start + longest <= self.seconds:
            t0 = time.perf_counter()
            yield n
            longest = max(longest, time.perf_counter() - t0)
            n += 1

    def import_time(self) -> float:
        done, _ = self.execute([sys.executable, "-c", "import mersenne_octonions"], 1)
        self.gates.record("import", None if done.returncode == 0 else f"exit {done.returncode}")
        return done.wall_s

    def end_to_end(self, cmds) -> dict:
        self.import_time()  # compiles the bytecode, which users pay once
        raw = defaultdict(list)
        for _ in self.rounds():
            # set-up samples are spread over the window, like the passes,
            # so a slow spell of the machine weighs on both alike
            raw["setup_s"].append(self.import_time())
            for name, value in self.run_pass(cmds).items():
                raw[name].append(value)
        return raw

    def per_layer(self, cmds) -> dict:
        raw = defaultdict(list)
        counts = None
        for pairs in self.rounds():
            plain = self.run_pass(cmds)
            trace_dir = os.path.join(self.work, f"trace{pairs}")
            traced = self.run_pass(cmds, trace_dir)
            traces = load_traces(trace_dir)
            self.span_edges = self.span_edges or traces["edges"]
            layer = layer_metrics(traces)
            layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            these = {k: v for k, v in layer.items() if k.endswith((".calls", ".points"))}
            if counts is not None:
                diff = sorted(k for k in these if these[k] != counts[k])
                self.gates.record("counts-repeat", f"changed between traced passes: {diff}"
                                  if diff else None)
            counts = counts or these
            for k, v in layer.items():
                raw[k].append(v)
        done, stem = self.execute([sys.executable, os.path.join(HERE, "micro.py")], 1)
        if done.returncode != 0:
            with open(stem + ".err") as f:
                raise RuntimeError(f"micro.py exit {done.returncode}: {f.read()[-300:]}")
        with open(stem + ".out") as f:
            micro = json.load(f)
        self.gates.record("leaf cross-checks", "; ".join(micro["failures"]) or None)
        for k, v in micro["times_us"].items():
            raw[k].append(v)
        return dict(raw)

    def run(self, trace: bool):
        os.makedirs(self.work)
        cmds = workloads.commands(self.workload, self.seed)
        raw = self.per_layer(cmds) if trace else self.end_to_end(cmds)
        self.run_defects()
        if trace:
            raw["known_defects.failed"] = [len(self.defects.failures)]
        self.grid_identity_gate()
        return cmds, raw


def load_traces(trace_dir: str) -> dict:
    """Sum the trace files of every process of every command."""
    agg = defaultdict(lambda: [0, 0.0, 0.0])
    counters = defaultdict(float)
    caches = defaultdict(lambda: [0, 0])
    edges = defaultdict(lambda: [0, 0.0])  # "parent > child" -> [spans, total_s]
    for base, _dirs, files in os.walk(trace_dir):
        for name in files:
            with open(os.path.join(base, name)) as f:
                t = json.load(f)
            for k, v in t["agg"].items():
                a = agg[k]
                a[0] += v[0]
                a[1] += v[1]
                a[2] += v[2]
            for k, v in t["counters"].items():
                counters[k] += v
            for k, (hits, misses) in t["caches"].items():
                caches[k][0] += hits
                caches[k][1] += misses
            names = {sid: name for sid, _parent, name, _t0, _t1 in t["spans"]}
            for _sid, parent, name, t0, t1 in t["spans"]:
                e = edges[f"{names.get(parent, t['trace_id'])} > {name}"]
                e[0] += 1
                e[1] += t1 - t0
    return {"agg": agg, "counters": counters, "caches": caches, "edges": dict(edges)}


def layer_metrics(t: dict) -> dict:
    agg, counters, caches = t["agg"], t["counters"], t["caches"]

    def ratio(name):
        hits, misses = caches[name]
        return hits / (hits + misses) if hits + misses else 0.0

    m = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            m[name] = agg[base][0]
        elif field == "self_s":
            m[name] = agg[base][2]
    for identity in workloads.IDENTITIES:
        m[f"verify.check.{identity}.s"] = agg[f"verify.check_{identity}"][1]
        m[f"verify.check.{identity}.points"] = agg[f"verify.check_{identity}"][0]
    m.update({
        "sequences.seq_window.hit_ratio": ratio("sequences.seq_window"),
        "oct_sequences.oct_seq.hit_ratio": ratio("oct_sequences.oct_seq"),
        "verify.pool.wait_s": agg["verify.pool.wait"][1],
        "verify.to_dict.s": agg["verify.to_dict"][1],
        "verify.to_json.s": agg["verify.to_json"][1],
        "verify.report_bytes": int(counters["verify.report_bytes"]),
        "cli.write.s": counters["cli.write_s"],
        "cli.output_bytes": int(counters["cli.output_bytes"]),
    })
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"error: {PACKAGE} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2

    sys.set_int_max_str_digits(0)  # the oracles print numbers of any size
    procs.raise_on_sigterm()
    subreaper = procs.become_subreaper()
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        cmds, raw = bench.run(bool(args.trace))
    except KeyboardInterrupt:
        print("interrupted; every process started was reaped", file=sys.stderr)
        return 130
    except (procs.CommandTimeout, procs.LeakedProcesses, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    stats = {name: summarize(raw[name]) for name in units}
    gates = bench.gates
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "source_sha256": source_digest(),
        "machine": machine(),
        "subreaper": subreaper,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commands": [" ".join(c.args) for c in cmds],
        "metrics": {n: dict(stats[n], unit=units[n]) for n in units},
        "gates": {"attempted": gates.attempted, "failures": gates.failures},
        "span_edges": bench.span_edges,
        "known_defects": {"attempted": bench.defects.attempted,
                          "failures": bench.defects.failures},
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(OUT_DIR, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    for name, s in stats.items():
        print(f"{name:<48} {s['median']:>14.6g} {units[name]:<6} "
              f"(median of {s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    for failure in gates.failures:
        print(f"FAILED {failure}")
    print(f"known defects: {len(bench.defects.failures)} of {bench.defects.attempted} "
          f"failed ({', '.join(f.split(':')[0] for f in bench.defects.failures)})")
    print(f"record: {path}")
    print(json.dumps({
        "correct": not gates.failures,
        "attempted": gates.attempted,
        "failed": len(gates.failures),
        "metrics": {n: {"value": stats[n]["median"], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
