"""Octonion sequences with k-Mersenne and k-Mersenne-Lucas coordinates.

The n-th sequence octonion has coordinate r equal to the scalar
sequence at index n+r.  Closed forms use the constant octonions

    alpha = sum_r lam1^r e_r,    beta = sum_r lam2^r e_r,

which live over the quadratic ring and do not commute.  Every closed
form is computed there and only then dropped to integer coordinates
by one helper, _exact; a non-integer after reduction means a bug, not
bad input.  Both alpha and beta have e0 coordinate 1, so coordinate e0
of the octonion closed form is the scalar Binet form, seq_binet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .octonion import Octonion, cd_mul
from .quadratic import QuadElem, discriminant, lam
from .sequences import Family, _check_params, decimal_str, seq_window


class InternalInconsistencyError(RuntimeError):
    """A closed form failed to reduce to the integer it must equal."""


@dataclass(frozen=True)
class AlphaBeta:
    """The closed forms' constants at the roots lam1, lam2: alpha =
    sum_r lam1^r e_r, beta = sum_r lam2^r e_r, their products
    ab = alpha beta and ba = beta alpha, which differ, and their norms."""

    lam1: QuadElem
    lam2: QuadElem
    disc: int  # (lam1 - lam2)^2
    alpha: Octonion
    beta: Octonion
    ab: Octonion
    ba: Octonion
    norms: tuple  # (|alpha|^2, |beta|^2) = (sum_r lam1^(2r), sum_r lam2^(2r))

    def powers(self, e: int) -> tuple:
        """(lam1^e, lam2^e), from one cached power."""
        p = _lam_pow(self.lam1.k, e)
        return p, p.conj()


# Each bound is at least twice the most keys one command fills: the
# default grid (oct_seq 490, alpha_beta 5), a verify at n <= 120 (_lam_pow 362).
# verify's caches keep the same rule: the default grid fills 1,380 of
# _core's 4,096 keys, 250 of _j_factor's 1,024 and 19 of _frame's 64.
# typed: True and 1.0 equal 1 as keys, and must not be served k = 1's
# constants; QuadElem refuses them.  k is positional, one key per k.
@lru_cache(maxsize=16, typed=True)
def alpha_beta(k: int, /) -> AlphaBeta:
    """alpha and beta at the roots L, 3k - L of the quotient ring.

    The products are taken through the Cayley-Dickson oracle, not the
    stored basis table, so the right side of every identity is computed
    on a code path fully independent of the table data the left side
    exercises."""
    lam1, lam2 = lam(k), lam(k).conj()
    alpha = Octonion(tuple(lam1**r for r in range(8)))
    beta = Octonion(tuple(lam2**r for r in range(8)))
    return AlphaBeta(lam1, lam2, discriminant(k), alpha, beta, cd_mul(alpha, beta),
                     cd_mul(beta, alpha), (alpha.norm_sq(), beta.norm_sq()))


# typed: True and 3.0 equal 1 and 3 as keys, and must reach the checks
@lru_cache(maxsize=1024, typed=True)
def oct_seq(family: Family, k: int, n: int) -> Octonion:
    """Defining form: coordinate r is the scalar sequence at n+r."""
    return Octonion(seq_window(family, k, n, 8))


def oct_seq_conj(family: Family, k: int, n: int) -> Octonion:
    """Conjugate with real part at index n: the rule that the conjugate
    entry of verify.DISCREPANCIES says this tool implements."""
    return oct_seq(family, k, n).conj()


def _exact(c, divisor: int = 1) -> int:
    """The integer c (a QuadElem with zero L-coordinate, or an int)
    divided exactly by divisor: the one drop to Z.  A leftover
    L-coordinate raises NonRationalError, and a nonzero remainder
    InternalInconsistencyError, which names the quotient exactly."""
    v = c.rational() if isinstance(c, QuadElem) else c
    q, rem = divmod(v, divisor)
    if rem:
        raise InternalInconsistencyError(
            f"non-integer value {decimal_str(v)}/{decimal_str(divisor)}")
    return q


def project_rational(x: Octonion, divisor: int = 1) -> Octonion:
    """x / divisor with int coordinates, each dropped by _exact."""
    return x.map_coords(lambda c: _exact(c, divisor))


@lru_cache(maxsize=1024)
def _lam_pow(k: int, e: int) -> QuadElem:
    return lam(k) ** e


def oct_seq_closed(family: Family, k: int, n: int) -> Octonion:
    """Closed form at the roots of alpha_beta(k):
    (alpha lam1^n - beta lam2^n)/(lam1 - lam2) for the Mersenne family,
    alpha lam1^n + beta lam2^n for the Lucas family."""
    _check_params(k, n)
    ab = alpha_beta(k)
    p1, p2 = ab.powers(n)
    if Family(family) is Family.MERSENNE:
        # over lam1 - lam2 as a product with it, then exactly over disc
        x = (ab.alpha.scale(p1) - ab.beta.scale(p2)).scale(ab.lam1 - ab.lam2)
        return project_rational(x, ab.disc)
    return project_rational(ab.alpha.scale(p1) + ab.beta.scale(p2))


def seq_binet(family: Family, k: int, n: int) -> int:
    """n-th scalar term by the closed form: coordinate e0 of
    oct_seq_closed, (lam1^n - lam2^n)/(lam1 - lam2) for the Mersenne
    family and lam1^n + lam2^n for the Lucas family."""
    return oct_seq_closed(family, k, n).coords[0]


def oct_seq_norm_sq_closed(family: Family, k: int, n: int) -> int:
    """Squared norm by closed form, with |alpha|^2 = sum_r lam1^(2r):

        lam1^(2n) |alpha|^2  +  lam2^(2n) |beta|^2  -+  255 * 2^(n+1),

    minus and divided by 9k^2 - 8 for the Mersenne family, plus and
    undivided for the Lucas family.
    """
    _check_params(k, n)
    ab = alpha_beta(k)
    (p1, p2), (s1, s2) = ab.powers(2 * n), ab.norms
    val = p1 * s1 + p2 * s2
    tail = 255 * 2 ** (n + 1)
    if Family(family) is Family.MERSENNE:
        return _exact(val - tail, ab.disc)
    return _exact(val + tail)
