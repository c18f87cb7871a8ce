"""Time the leaf operations at fixed operands, with cross-checks.

    PYTHONPATH=src python3 benchmarks/micro.py

prints one JSON object: microseconds per call for a QuadElem multiply,
an octonion product by the basis table and by cd_mul, the three scalar
evaluators and an uncached seq_window, plus a list of cross-check
failures (the table product against cd_mul, the evaluators and the
window against each other).  Each time is the median of several
batches, each batch long enough to dwarf the clock's resolution.
"""

from __future__ import annotations

import json
import statistics
import time

from mersenne_octonions import Family, cd_mul, lam, oct_seq, seq_binet, seq_fast, seq_value
from mersenne_octonions.sequences import seq_window

window_uncached = getattr(seq_window, "__wrapped__", seq_window)

BATCH_S = 0.04
BATCHES = 7

K, N = 2, 2000          # scalar evaluators: about 1,500 digits
OCT_K, OCT_N = 3, 20    # octonion operands of the default grid's size


def per_call_us(fn) -> float:
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= BATCH_S:
            break
        reps *= 2
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps * 1e6)
    return statistics.median(samples)


def main() -> dict:
    failures = []
    x, y = lam(OCT_K) ** 17, lam(OCT_K) ** 23
    if x * y != lam(OCT_K) ** 40:
        failures.append("QuadElem: lam^17 * lam^23 != lam^40")

    a = oct_seq(Family.MERSENNE, OCT_K, OCT_N)
    b = oct_seq(Family.MERSENNE_LUCAS, OCT_K, OCT_N + 3)
    if a * b != cd_mul(a, b) or b * a != cd_mul(b, a):
        failures.append("octonion: table product differs from cd_mul")

    values = {f.__name__: f(Family.MERSENNE, K, N) for f in (seq_value, seq_fast, seq_binet)}
    if len(set(values.values())) != 1:
        failures.append(f"scalar evaluators disagree at k={K}, n={N}")
    window = window_uncached(Family.MERSENNE, K, N, 8)
    if list(window) != [seq_fast(Family.MERSENNE, K, N + r) for r in range(8)]:
        failures.append(f"seq_window differs from seq_fast at k={K}, n={N}")

    times = {
        "leaf.quad_mul.us": per_call_us(lambda: x * y),
        "leaf.table_mul.us": per_call_us(lambda: a * b),
        "leaf.cd_mul.us": per_call_us(lambda: cd_mul(a, b)),
        "leaf.seq_value.us": per_call_us(lambda: seq_value(Family.MERSENNE, K, N)),
        "leaf.seq_fast.us": per_call_us(lambda: seq_fast(Family.MERSENNE, K, N)),
        "leaf.seq_binet.us": per_call_us(lambda: seq_binet(Family.MERSENNE, K, N)),
        "leaf.seq_window.us": per_call_us(lambda: window_uncached(Family.MERSENNE, K, N, 8)),
    }
    return {"times_us": times, "failures": failures}


if __name__ == "__main__":
    print(json.dumps(main()))
