"""The benchmark's workloads and the independent oracles that gate them.

A workload is a list of CLI commands (one pass).  Every command carries
a check that decides, without the package's help, whether its output is
right: the expected verify results are enumerated here from the grid's
parameter space, and sequence values come from this file's own
recurrence.  Known defects (inputs that still end in a traceback) are
listed separately; they run once a run, untimed, and their outcomes are
reported apart from the gated commands.

The checks run in a child process,

    python3 benchmarks/workloads.py JOBS.json

which prints one JSON list of reasons (null for a right output).  This
keeps the benchmark process small: a spawned command's max-RSS starts
from its spawner's high-water mark, so a benchmark process that had
parsed a 13 MB report would inflate every later command's peak_rss_mb.
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Callable

IDENTITIES = (
    "binet", "norm_closed", "catalan", "cassini",
    "docagne", "vajda", "genfunc_ordinary", "finite_sum",
)
FAMILIES = ("mersenne", "mersenne-lucas")

# Every index the default grid reads: Vajda's S[n+i+j] at n = 24,
# i = j = 8, plus the seven further coordinates of an octonion.
GRID_SEQ_N = 47
GRID_OCT_N = 40

# A pass does under three seconds of big-integer work, so a run of the
# usual length holds a dozen passes and each metric is a median of that
# many samples: the host's speed swings by a third for tens of seconds at
# a time, which made a median of three longer passes too noisy.  The
# seed's jitter moves the cost by well under 1 %.  The seed moves where
# the windows start, never their width or the narrow verify's n, so every
# per-layer call count is the same for every seed.
SEQ_K, SEQ_N0, SEQ_WIDTH = 1, 9000, 30
OCT_K, OCT_N0, OCT_WIDTH = 2, 1500, 100
BENCH_NS = (4000, 12000)
VERIFY_LARGE = ("binet", "norm_closed", "cassini")
VERIFY_LARGE_KS = (1, 2)
VERIFY_LARGE_N = 120
JITTER = 16


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  kind groups commands for the per-kind
    metrics; check(returncode, output_bytes, stderr_bytes) returns None
    when the output is right, else a reason."""

    label: str
    kind: str
    args: tuple
    workers: int
    check: Callable = field(compare=False)
    normalize: Callable | None = field(default=None, compare=False)


# --- independent oracles ------------------------------------------------

def scalar_terms(family: str, k: int, n_hi: int) -> list:
    """Terms 0..n_hi of the k-Mersenne (0, 1) or k-Mersenne-Lucas
    (2, 3k) sequence by x[n+1] = 3k x[n] - 2 x[n-1]."""
    x0, x1 = (0, 1) if family == "mersenne" else (2, 3 * k)
    out = []
    for _ in range(n_hi + 1):
        out.append(x0)
        x0, x1 = x1, 3 * k * x1 - 2 * x0
    return out


def expected_grid(ks, n_max, specialized_n_max, identities=IDENTITIES,
                  ij_max=8, genfunc_ks=(1, 2, 3), genfunc_terms=32):
    """{(identity, family, params, status)} for a grid run with both
    families and the k = 1 specialized forms included.  params is a
    sorted tuple of (name, value) pairs as in the JSON report."""
    out = set()

    def add(identity, family, status="PASS", **params):
        out.add((identity, family, tuple(sorted(params.items())), status))

    for family in FAMILIES:
        for name in identities:
            if name == "genfunc_ordinary":
                for k in genfunc_ks:
                    add(name, family, k=k, terms=genfunc_terms)
                continue
            for k in ks:
                if name == "finite_sum":
                    for n in range(n_max + 1):
                        add(name, family, "SKIPPED" if k == 1 else "PASS",
                            k=k, n=n, form="general")
                        if k == 1:
                            add(name, family, k=k, n=n, form="specialized")
                    continue
                if name == "norm_closed":
                    for n in range(n_max + 1):
                        add(name, family, k=k, n=n)
                    continue
                for sp in (False, True) if k == 1 else (False,):
                    top = specialized_n_max if sp else n_max
                    for n in range(top + 1):
                        if name == "binet":
                            add(name, family, k=k, n=n, specialized=sp)
                        elif name == "cassini" and n >= 1:
                            for o in ("lr", "rl"):
                                add(name, family, k=k, n=n, ordering=o, specialized=sp)
                        elif name == "catalan":
                            for r in range(n + 1):
                                for o in ("lr", "rl"):
                                    add(name, family, k=k, n=n, r=r, ordering=o,
                                        specialized=sp)
                        elif name == "docagne":
                            for r in range(n + 1):
                                add(name, family, k=k, n=n, r=r, specialized=sp)
                        elif name == "vajda":
                            for i in range(ij_max + 1):
                                for j in range(ij_max + 1):
                                    add(name, family, k=k, n=n, i=i, j=j,
                                        specialized=sp)
    return out


def report_tuples(report: dict) -> set:
    return {
        (r["identity"], r["family"], tuple(sorted(r["params"].items())), r["status"])
        for r in report["results"]
    }


# --- output checks --------------------------------------------------------

def _exit_ok(rc, err):
    if rc != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return f"exit {rc}: {tail[0][:160]}"
    return None


def check_verify(expected: set):
    want = {s: sum(1 for t in expected if t[3] == s) for s in ("PASS", "FAIL", "SKIPPED")}

    def check(rc, out, err):
        bad = _exit_ok(rc, err)
        if bad:
            return bad
        report = json.loads(out)
        summary = {s: report["summary"].get(s, 0) for s in want}
        if summary != want:
            return f"summary {summary}, expected {want}"
        if report.get("input_errors"):
            return f"{len(report['input_errors'])} input errors"
        got = report_tuples(report)
        if got != expected:
            return (f"{len(got - expected)} unexpected and "
                    f"{len(expected - got)} missing results")
        return None

    return check


def check_seq_csv(ks, ns):
    def check(rc, out, err):
        bad = _exit_ok(rc, err)
        if bad:
            return bad
        rows = list(csv.reader(io.StringIO(out.decode())))
        if rows[0] != ["k", "n", "mersenne", "mersenne_lucas"]:
            return f"header {rows[0]}"
        want = []
        for k in ks:
            m = scalar_terms("mersenne", k, ns[-1])
            l = scalar_terms("mersenne-lucas", k, ns[-1])
            want += [[str(k), str(n), str(m[n]), str(l[n])] for n in ns]
        return None if rows[1:] == want else "sequence values differ from the recurrence"

    return check


def check_oct_csv(ks, ns):
    def check(rc, out, err):
        bad = _exit_ok(rc, err)
        if bad:
            return bad
        rows = list(csv.reader(io.StringIO(out.decode())))
        if rows[0] != ["family", "k", "n"] + [f"e{r}" for r in range(8)]:
            return f"header {rows[0]}"
        want = []
        for family in FAMILIES:
            for k in ks:
                t = scalar_terms(family, k, ns[-1] + 7)
                want += [[family, str(k), str(n)] + [str(t[n + r]) for r in range(8)]
                         for n in ns]
        return None if rows[1:] == want else "octonion coordinates differ from the recurrence"

    return check


def _bench_rows(out: bytes):
    return list(csv.reader(io.StringIO(out.decode())))


def normalize_bench(out: bytes) -> bytes:
    """bench output without its timing column, which differs every run."""
    return "\n".join(",".join(r[:3] + r[4:]) for r in _bench_rows(out)).encode()


def check_bench(k, ns):
    def check(rc, out, err):
        bad = _exit_ok(rc, err)
        if bad:
            return bad
        rows = _bench_rows(out)
        if rows[0] != ["k", "n", "method", "nanoseconds", "digits"]:
            return f"header {rows[0]}"
        want = []
        for n in ns:
            digits = str(len(str(scalar_terms("mersenne", k, n)[n])))
            want += [[str(k), str(n), m, digits] for m in ("recurrence", "matrix_power")]
        got = [r[:3] + r[4:] for r in rows[1:]]
        if got != want:
            return "bench rows differ from the recurrence"
        if not all(r[3].isdigit() and int(r[3]) > 0 for r in rows[1:]):
            return "bench timings are not positive integers"
        return None

    return check


def check_usage_error(rc, out, err):
    """A bad argument must end in a usage error (exit 2), not a traceback."""
    if b"Traceback" in err:
        return "traceback: " + err.decode(errors="replace").strip().splitlines()[-1][:160]
    return None if rc == 2 else f"exit {rc}, expected 2"


# --- workloads ------------------------------------------------------------

def _grid_commands(workers: int):
    """The default grid, plus the sequence and octonion tables it reads,
    one file per k.  Each table is a short command, so five per kind
    give seq_s and oct_s five samples of the machine per pass, not one."""
    ks = range(1, 6)
    cmds = [Command("verify", "verify", ("verify", "--format", "json"), workers,
                    check_verify(expected_grid(ks, 24, 20)))]
    for k in ks:
        cmds += [
            Command(f"seq-k{k}", "seq", ("seq", "--k", str(k), "--n", f"0..{GRID_SEQ_N}"),
                    workers, check_seq_csv((k,), range(GRID_SEQ_N + 1))),
            Command(f"oct-k{k}", "oct", ("oct", "--k", str(k), "--n", f"0..{GRID_OCT_N}"),
                    workers, check_oct_csv((k,), range(GRID_OCT_N + 1))),
        ]
    return cmds


def _large_n_commands(rng: random.Random):
    s0 = SEQ_N0 + rng.randrange(JITTER)
    o0 = OCT_N0 + rng.randrange(JITTER)
    bench_ns = tuple(n + rng.randrange(JITTER) for n in BENCH_NS)
    seq_ns = range(s0, s0 + SEQ_WIDTH + 1)
    oct_ns = range(o0, o0 + OCT_WIDTH + 1)
    ks = VERIFY_LARGE_KS
    return [
        Command("seq", "seq", ("seq", "--k", str(SEQ_K), "--n", f"{s0}..{seq_ns[-1]}"), 1,
                check_seq_csv((SEQ_K,), seq_ns)),
        Command("oct", "oct", ("oct", "--k", str(OCT_K), "--n", f"{o0}..{oct_ns[-1]}"), 1,
                check_oct_csv((OCT_K,), oct_ns)),
        Command("bench", "bench",
                ("bench", "--k", "1", "--n-values", ",".join(map(str, bench_ns))), 1,
                check_bench(1, bench_ns), normalize_bench),
        Command("verify", "verify",
                ("verify", "--identities", ",".join(VERIFY_LARGE),
                 "--k", f"{ks[0]}..{ks[-1]}", "--n", f"0..{VERIFY_LARGE_N}", "--format", "json"),
                1, check_verify(expected_grid(ks, VERIFY_LARGE_N, 20, VERIFY_LARGE))),
    ]


def commands(workload: str, seed: int) -> list:
    """One pass of the workload, in an order the seed chooses."""
    rng = random.Random(seed)
    if workload == "verify-grid":
        cmds = _grid_commands(1)
    elif workload == "verify-parallel":
        cmds = _grid_commands(2)
    elif workload == "large-n":
        cmds = _large_n_commands(rng)
    else:
        raise KeyError(workload)
    rng.shuffle(cmds)
    return cmds


def known_defects() -> list:
    """Inputs that still end in a traceback; a fix makes them pass."""
    return [
        Command("seq-past-4300-digits", "defect", ("seq", "--k", "1", "--n", "20000"), 1,
                check_seq_csv((1,), range(20000, 20001))),
        Command("oct-past-4300-digits", "defect", ("oct", "--k", "1", "--n", "15000"), 1,
                check_oct_csv((1,), range(15000, 15001))),
        Command("bench-repeat-0", "defect", ("bench", "--repeat", "0"), 1,
                check_usage_error),
        Command("bench-bad-n-value", "defect", ("bench", "--n-values", "5,x"), 1,
                check_usage_error),
    ]


def check_jobs(spec: dict) -> list:
    """Reasons (None for right) for spec["jobs"], each naming a command
    of spec's workload and seed, or a known defect, by label."""
    sys.set_int_max_str_digits(0)
    by_label = {c.label: c for c in commands(spec["workload"], spec["seed"])}
    by_label.update({c.label: c for c in known_defects()})
    reasons = []
    for job in spec["jobs"]:
        with open(job["output"], "rb") as f:
            out = f.read()
        with open(job["stderr"], "rb") as f:
            err = f.read()
        try:
            reason = by_label[job["label"]].check(job["returncode"], out, err)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unreadable output: {exc!r}"[:200]
        reasons.append(reason)
    return reasons


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        print(json.dumps(check_jobs(json.load(f))))
