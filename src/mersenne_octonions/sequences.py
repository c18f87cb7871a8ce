"""The k-Mersenne and k-Mersenne-Lucas integer sequences.

Both satisfy x[n+1] = 3k*x[n] - 2*x[n-1]; the Mersenne family starts
(0, 1), the Lucas family (2, 3k).  Two evaluators live here: the
recurrence, run in one loop (seq_terms), and an O(log n)
companion-matrix power.  The third, the Binet closed form, is
oct_sequences.seq_binet: coordinate e0 of the octonion closed form,
since alpha and beta both have e0 coordinate 1.  All three agree
everywhere, and values are arbitrary-precision integers (they grow like
(3k)^n).
"""

from __future__ import annotations

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
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be nonnegative, got {n!r}")


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


def _mat_mul(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def _mat_pow(A, n: int):
    R = ((1, 0), (0, 1))
    while n:
        if n & 1:
            R = _mat_mul(R, A)
        A = _mat_mul(A, A)
        n >>= 1
    return R


def seq_fast(family: Family, k: int, n: int) -> int:
    """n-th term in O(log n) ring operations via the companion matrix
    of x^2 = 3k*x - 2 acting on the initial pair."""
    _check_params(k, n)
    x0, x1 = _initial(family, k)
    P = _mat_pow(((3 * k, -2), (1, 0)), n)
    # bottom row of P maps (x1, x0) to x_n (P is the identity at n = 0)
    return P[1][0] * x1 + P[1][1] * x0
