"""Command-line front end.

Subcommands:
  seq     table of sequence values (k, n, M, m) as CSV
  oct     octonion sequence coordinates as CSV
  verify  run the identity grid; exit 0 iff no check FAILs
  bench   time the naive vs logarithmic sequence evaluators

All numbers are exact decimal integers; no scientific notation.  Exit
codes: 0 success, 1 an identity check failed (or a bench cross-check
mismatch), 2 usage or I/O error or a run too large for memory, so CI
can tell a violated identity from a broken environment.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from contextlib import closing, contextmanager, nullcontext, suppress
from itertools import islice

from . import __version__
from .sequences import Family, decimal_str, seq_fast, seq_terms, seq_value

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_FAMILIES = {
    "mersenne": (Family.MERSENNE,),
    "mersenne-lucas": (Family.MERSENNE_LUCAS,),
    "both": (Family.MERSENNE, Family.MERSENNE_LUCAS),
}


# n indexes one run of the recurrence through itertools.islice, which
# takes no index past this; verify's k range must also fit in a tuple,
# which a range this long does not (its MemoryError exits 2 in main)
_RANGE_MAX = sys.maxsize

# bench times each evaluator this many times at most per (k, n)
_REPEAT_MAX = 1000


def _parse_range(spec: str, what: str, lo: int) -> range:
    """Parse 'A..B' or a single integer into an inclusive range within
    lo.._RANGE_MAX."""
    a, sep, b = spec.partition("..")
    try:
        start, stop = int(a), int(b if sep else a)
    except ValueError:
        raise SystemExit2(f"invalid {what} range: {spec!r}")
    if start < lo or stop < start or stop > _RANGE_MAX:
        raise SystemExit2(f"empty or out-of-bounds {what} range: {spec!r}")
    return range(start, stop + 1)


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(EXIT_USAGE)


def _open_out(path: str | None):
    if path is None or path == "-":
        if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
            # unbuffered (python -u): a raw write drops what a closed pipe cut off
            return open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding, closefd=False), True
        return sys.stdout, False
    try:
        return open(path, "w", newline=""), True
    except OSError as exc:
        raise SystemExit2(f"cannot open output: {exc}")


@contextmanager
def _output(path: str | None):
    """The output stream for path, flushed on exit and closed unless it
    is sys.stdout (fd 1 always stays open).  A failed write exits 2 with
    an error; a closed pipe is passed on to main, which exits 2 silently."""
    out, close = _open_out(path)
    try:
        with closing(out) if close else nullcontext():
            yield out
            out.flush()
    except OSError as exc:
        if not close:
            # drop what stdout still buffers, so that the interpreter's
            # final flush cannot fail again; fd 1 itself stays open
            with suppress(OSError):
                out.close()
        if isinstance(exc, BrokenPipeError):
            raise
        raise SystemExit2(f"cannot write output: {exc}")


def cmd_seq(args) -> int:
    ks = _parse_range(args.k, "k", 1)
    ns = _parse_range(args.n, "n", 0)
    with _output(args.output) as out:
        w = csv.writer(out)
        w.writerow(["k", "n", "mersenne", "mersenne_lucas"])
        for k in ks:
            for n, m, l in zip(ns, seq_terms(Family.MERSENNE, k, ns.start),
                               seq_terms(Family.MERSENNE_LUCAS, k, ns.start)):
                w.writerow([k, n, decimal_str(m), decimal_str(l)])
    return EXIT_OK


def cmd_oct(args) -> int:
    ks = _parse_range(args.k, "k", 1)
    ns = _parse_range(args.n, "n", 0)
    with _output(args.output) as out:
        w = csv.writer(out)
        w.writerow(["family", "k", "n"] + [f"e{r}" for r in range(8)])
        for family in _FAMILIES[args.family]:
            for k in ks:
                # row n holds terms n..n+7: slide one window along one
                # run, converting each term to decimal once
                terms = map(decimal_str, seq_terms(family, k, ns.start))
                window = tuple(islice(terms, 7))
                for n, x in zip(ns, terms):
                    window = (*window[-7:], x)
                    w.writerow([family.value, k, n, *window])
    return EXIT_OK


def cmd_verify(args) -> int:
    # only verify needs the verifier and the octonions: seq, oct and bench
    # start without them
    from .octonion import corrupted_basis_table
    from .verify import _GRIDS, IDENTITIES, ConfigError, GridConfig, run_grid

    ks = _parse_range(args.k, "k", 1)
    ns = _parse_range(args.n, "n", 0)
    try:
        cfg = GridConfig(
            ks=tuple(ks),
            n_max=ns[-1],
            ij_max=args.ij_max,
            families=_FAMILIES[args.family],
            identities=(IDENTITIES if args.identities is None
                        else tuple(args.identities.split(","))),
        )
        # identities run from their first n (Cassini's is 1) to n_max: N means
        # 0..N, a later start would be dropped, and with no n axis any start
        # does; each identity's first point holds its smallest n
        if ".." in args.n and ns.start:
            firsts = (next(_GRIDS[name](cfg), {}) for name in cfg.identities)
            first = min((p["n"] for p in firsts if "n" in p), default=ns.start)
            if ns.start > first:
                raise ConfigError(f"verify runs n from {first}: give --n N or "
                                  f"--n {first}..N, not {args.n!r}")
        with corrupted_basis_table() if args.corrupt_table else nullcontext():
            report = run_grid(cfg)
    except ConfigError as exc:
        raise SystemExit2(str(exc))
    with _output(args.output) as out:
        if args.format == "json":
            # row by row, so that the report's text is never whole in memory
            for chunk in report.json_chunks():
                out.write(chunk)
        else:
            out.write(report.summary_table())
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


def _timed(fn, k: int, n: int) -> tuple:
    """(nanoseconds, value) of one call fn(Family.MERSENNE, k, n)."""
    t0 = time.perf_counter_ns()
    value = fn(Family.MERSENNE, k, n)
    return time.perf_counter_ns() - t0, value


def cmd_bench(args) -> int:
    ks = _parse_range(args.k, "k", 1)
    try:
        ns = [int(x) for x in args.n_values.split(",")]
    except ValueError:
        raise SystemExit2(f"invalid bench n values: {args.n_values!r}")
    if any(n < 0 or n > _RANGE_MAX for n in ns):
        raise SystemExit2(f"bench n values must lie in 0..{_RANGE_MAX}")
    if not 1 <= args.repeat <= _REPEAT_MAX:
        raise SystemExit2(f"--repeat must lie in 1..{_REPEAT_MAX}, got {args.repeat}")
    with _output(args.output) as out:
        w = csv.writer(out)
        w.writerow(["k", "n", "method", "nanoseconds", "digits"])
        for k in ks:
            for n in ns:
                # (name, the fastest repeat's time, its value): all repeats agree
                rows = [(name, *min(_timed(fn, k, n) for _ in range(args.repeat)))
                        for name, fn in (("recurrence", seq_value), ("matrix_power", seq_fast))]
                if rows[0][2] != rows[1][2]:
                    print(
                        f"error: evaluator mismatch at k={k}, n={n}",
                        file=sys.stderr,
                    )
                    return EXIT_CHECK_FAILED
                # the two values are equal: convert one to decimal, once
                digits = len(decimal_str(abs(rows[0][2])))
                for name, best, _ in rows:
                    w.writerow([k, n, name, best, digits])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mersoct",
        description="Exact k-Mersenne / k-Mersenne-Lucas octonion toolkit.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, k_default="1..3"):
        sp.add_argument("--k", default=k_default, help="k range, e.g. 2 or 1..5")
        sp.add_argument("--output", "-o", default=None,
                        help="output file (default: stdout)")

    sp = sub.add_parser("seq", help="sequence value table (CSV)")
    common(sp)
    sp.add_argument("--n", default="0..16", help="n range, e.g. 0..24")
    sp.set_defaults(fn=cmd_seq)

    sp = sub.add_parser("oct", help="octonion sequence coordinates (CSV)")
    common(sp)
    sp.add_argument("--n", default="0..8", help="n range")
    sp.add_argument("--family", choices=sorted(_FAMILIES), default="both")
    sp.set_defaults(fn=cmd_oct)

    sp = sub.add_parser("verify", help="run the identity verification grid")
    common(sp, k_default="1..5")
    sp.add_argument("--n", default="0..24",
                    help="N or 0..N: n runs from 0 (Cassini's from 1) to N")
    sp.add_argument("--ij-max", type=int, default=8)
    sp.add_argument("--family", choices=sorted(_FAMILIES), default="both")
    sp.add_argument("--identities", default=None,
                    help="comma-separated subset, e.g. catalan,cassini")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.add_argument("--corrupt-table", action="store_true",
                    help=argparse.SUPPRESS)  # mutation test hook
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("bench", help="time the sequence evaluators")
    common(sp)
    sp.add_argument("--n-values", default="1000,10000",
                    help="comma-separated n values")
    sp.add_argument("--repeat", type=int, default=3,
                    help=f"timed runs per evaluator, 1..{_REPEAT_MAX}")
    sp.set_defaults(fn=cmd_bench)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit2 as exc:
        return exc.code
    except BrokenPipeError:
        return EXIT_USAGE
    except MemoryError:
        # a grid or range too large to hold is refused, not a failed check
        # (without a memory cap, the OS may kill the process first)
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
