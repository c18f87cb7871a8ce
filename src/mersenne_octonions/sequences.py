"""The k-Mersenne and k-Mersenne-Lucas integer sequences.

Both satisfy x[n+1] = 3k*x[n] - 2*x[n-1]; the Mersenne family starts
(0, 1), the Lucas family (2, 3k).  Two evaluators live here: the
recurrence, run in one loop (seq_terms), and an O(log n) loop over the
bits of n (seq_fast).  That loop squares the companion matrix through
its two independent entries, U[m] and U[m+1] of the Mersenne run, by
the Lucas-sequence doubling rules U[2m] = U[m]*(2U[m+1] - 3k*U[m]) and
U[2m+1] = U[m+1]^2 - 2U[m]^2 (Joye & Quisquater, 1996), and then maps
the initial pair onto x[n].  The third, the Binet closed form, is
oct_sequences.seq_binet: coordinate e0 of the octonion closed form,
since alpha and beta both have e0 coordinate 1.  All three agree
everywhere, and values are arbitrary-precision integers (they grow like
(3k)^n); decimal_str writes any of them exactly.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from enum import Enum
from itertools import islice


class Family(str, Enum):
    MERSENNE = "mersenne"
    MERSENNE_LUCAS = "mersenne-lucas"


def _initial(family: Family, k: int):
    # Family() also resolves a plain string that names a family
    if Family(family) is Family.MERSENNE:
        return 0, 1
    return 2, 3 * k


def _check_params(k: int, n: int):
    """k and n must be ints (a bool is not one), k >= 1 and n >= 0."""
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be a positive integer, got {decimal_repr(k)}")
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be nonnegative, got {decimal_repr(n)}")


def seq_terms(family: Family, k: int, n: int):
    """Terms n, n+1, ... of one run of the recurrence; bad input raises here."""
    _check_params(k, n)
    return islice(_run(*_initial(family, k), 3 * k), n, None)


def _run(x0: int, x1: int, c: int):
    while True:  # the one loop that steps x[n+1] = c*x[n] - 2*x[n-1]
        yield x0
        x0, x1 = x1, c * x1 - 2 * x0


def seq_value(family: Family, k: int, n: int) -> int:
    """n-th term by running the recurrence."""
    return next(seq_terms(family, k, n))


def seq_window(family: Family, k: int, n: int, length: int = 8) -> tuple:
    """Terms n, n+1, ..., n+length-1 in one pass."""
    return tuple(islice(seq_terms(family, k, n), length))


def seq_fast(family: Family, k: int, n: int) -> int:
    """n-th term in O(log n) ring operations, by doubling (U[m], U[m+1])
    along the bits of n."""
    _check_params(k, n)
    x0, x1 = _initial(family, k)
    c = 3 * k
    u, v = 0, 1  # U[m], U[m+1] at m = 0: the Mersenne run
    for bit in f"{n:b}":
        # m -> 2m, then m -> m+1 by the recurrence where n has a one
        u, v = u * (2 * v - c * u), v * v - 2 * u * u
        if bit == "1":
            u, v = v, c * v - 2 * u
    # x[n] = x0*U[n+1] + (x1 - c*x0)*U[n] (U[1] = 1, U[0] = 0 at n = 0)
    return x0 * v + (x1 - c * x0) * u


@contextmanager
def _no_digit_limit():
    """Lift the interpreter's int->str digit limit for the block, then
    restore it; nested blocks restore in turn."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def decimal_str(x) -> str:
    """str(x), with every int in it in full decimal."""
    with _no_digit_limit():
        return str(x)


def decimal_repr(x) -> str:
    """repr(x), with every int in it in full decimal: for messages that
    echo a caller's value."""
    with _no_digit_limit():
        return repr(x)
