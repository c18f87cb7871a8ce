"""Octonion sequences with k-Mersenne and k-Mersenne-Lucas coordinates.

The n-th sequence octonion has coordinate r equal to the scalar
sequence at index n+r.  Closed forms use the constant octonions

    alpha = sum_r lam1^r e_r,    beta = sum_r lam2^r e_r,

which live over the quadratic ring and do not commute.  Every closed
form is computed there and only then dropped to integer coordinates
by one helper, _exact; a non-integer after reduction means a bug, not
bad input.  Both alpha and beta have e0 coordinate 1, so coordinate e0
of the octonion closed form is the scalar Binet form, seq_binet.
A family reaches a closed form only through its seeds (x0, x1), as
x[n] = (A lam1^n - B lam2^n)/(lam1 - lam2) with A = x1 - x0 lam2 and
B = x1 - x0 lam1, and through c = AB = x1^2 - 3k x0 x1 + 2 x0^2, the
characteristic form at the seeds: 1 for the Mersenne family, -(9k^2 - 8)
for the Lucas family (Horadam, Fibonacci Quart. 3, 1965).  Vajda's right
side is 2^n c M[k,i] Y_j, with M[k,i] read exactly as an L-coordinate
and Y_j dropped through _exact like every closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .octonion import Octonion, cd_mul
from .quadratic import QuadElem, discriminant, lam
from .sequences import Family, _check_params, _initial, decimal_str, seq_window


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


# Each cache holds twice or more the most keys one command fills, here
# the default grid's 5.  typed, and k positional: one key per k, and
# True or 1.0 is never served k = 1's constants; QuadElem refuses them.
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


# the default grid's 490; typed, so that True and 3.0 reach the checks
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


# the 362 powers of a verify at n <= 120
@lru_cache(maxsize=1024)
def _lam_pow(k: int, e: int) -> QuadElem:
    return lam(k) ** e


# the default grid's 10: one per family and k
@lru_cache(maxsize=32)
def _seed_factors(k: int, x0: int, x1: int) -> tuple:
    """(A (lam1 - lam2), A^2 |alpha|^2, c) at the seeds (x0, x1): the
    factors of alpha lam1^n in Binet's numerator, taken times lam1 -
    lam2, and of lam1^(2n) in the norm's, and c as an int.  As B =
    conj(A) and lam2 - lam1 = conj(lam1 - lam2), the factors of beta
    lam2^n and of lam2^(2n) there are the first two's conjugates."""
    ab = alpha_beta(k)
    a = x1 - x0 * ab.lam2
    return a * (ab.lam1 - ab.lam2), a * a * ab.norms[0], x1 * x1 - 3 * k * x0 * x1 + 2 * x0 * x0


def oct_seq_closed(family: Family, k: int, n: int) -> Octonion:
    """Closed form at the roots of alpha_beta(k) and the family's seeds:
    (A alpha lam1^n - B beta lam2^n)/(lam1 - lam2), over lam1 - lam2 as
    a product with it, then exactly over the discriminant."""
    _check_params(k, n)
    ab, (a, _, _) = alpha_beta(k), _seed_factors(k, *_initial(family, k))
    q = a * _lam_pow(k, n)
    return project_rational(ab.alpha.scale(q) + ab.beta.scale(q.conj()), ab.disc)


def seq_binet(family: Family, k: int, n: int) -> int:
    """n-th scalar term by the closed form: coordinate e0 of
    oct_seq_closed, (A lam1^n - B lam2^n)/(lam1 - lam2)."""
    return oct_seq_closed(family, k, n).coords[0]


def oct_seq_norm_sq_closed(family: Family, k: int, n: int) -> int:
    """Squared norm by closed form, with |alpha|^2 = sum_r lam1^(2r):

        (A^2 lam1^(2n) |alpha|^2 + B^2 lam2^(2n) |beta|^2
         - 255 * 2^(n+1) c) / (9k^2 - 8).
    """
    _check_params(k, n)
    _, a_norm, c = _seed_factors(k, *_initial(family, k))
    q = a_norm * _lam_pow(k, 2 * n)
    return _exact(q + q.conj() - 255 * 2 ** (n + 1) * c, discriminant(k))


# the default grid's 250 (k, j, opposite)
@lru_cache(maxsize=1024)
def _vajda_y(k: int, j: int, opposite: bool) -> tuple:
    """The int coordinates of Y_j = (beta alpha lam1^j - alpha beta
    lam2^j)/(lam1 - lam2), products swapped if opposite is set; the exact
    drop by disc holds only as alpha beta and beta alpha are conjugate."""
    ab = alpha_beta(k)
    p1, p2 = ab.powers(j)
    x, y = (ab.ab, ab.ba) if opposite else (ab.ba, ab.ab)
    return project_rational((x.scale(p1) - y.scale(p2)).scale(ab.lam1 - ab.lam2),
                            ab.disc).coords


def _vajda_closed(family: Family, k: int, i: int, j: int, opposite: bool) -> tuple:
    """(m, y) with S[n+i]S[n+j] - S[n]S[n+i+j] = 2^n m y, in the opposite
    algebra if opposite is set: m = c M[k,i], with M[k,i] the L-coordinate
    of lam1^i = -2 M[k,i-1] + M[k,i] L."""
    return _lam_pow(k, i).b * _seed_factors(k, *_initial(family, k))[2], _vajda_y(k, j, opposite)
