"""The k-Mersenne and k-Mersenne-Lucas integer sequences.

Both satisfy x[n+1] = 3k*x[n] - 2*x[n-1]; the Mersenne family starts
(0, 1), the Lucas family (2, 3k).  Three evaluators are provided: the
recurrence, run in one loop (seq_terms), the Binet closed form computed
exactly in the quadratic quotient ring, and an O(log n) companion-matrix
power.  They agree everywhere, and values are arbitrary-precision
integers (they grow like (3k)^n).
"""

from __future__ import annotations

from enum import Enum
from itertools import islice

from .quadratic import div_by_root_diff, lam


class Family(str, Enum):
    MERSENNE = "mersenne"
    MERSENNE_LUCAS = "mersenne-lucas"


class InternalInconsistencyError(RuntimeError):
    """A closed form failed to reduce to the integer it must equal."""


def _initial(family: Family, k: int):
    # Family() also resolves a plain string that names a family
    if Family(family) is Family.MERSENNE:
        return 0, 1
    return 2, 3 * k


def _check_params(k: int, n: int):
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")


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


def seq_binet(family: Family, k: int, n: int) -> int:
    """n-th term from the closed form in the roots lam1, lam2.

    Mersenne: (lam1^n - lam2^n)/(lam1 - lam2); Lucas: lam1^n + lam2^n.
    Evaluated in the quotient ring; the result must come out with zero
    L-coordinate and integer value, anything else is a bug here.
    """
    _check_params(k, n)
    l1 = lam(k)
    l2 = l1.conj()
    if Family(family) is Family.MERSENNE:
        q = div_by_root_diff(l1**n - l2**n)
    else:
        q = l1**n + l2**n
    val = q.rational()
    if val.denominator != 1:
        raise InternalInconsistencyError(
            f"closed form gave non-integer {val} at {family}, k={k}, n={n}"
        )
    return int(val)


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
