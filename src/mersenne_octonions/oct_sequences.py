"""Octonion sequences with k-Mersenne and k-Mersenne-Lucas coordinates.

The n-th sequence octonion has coordinate r equal to the scalar
sequence at index n+r.  Closed forms use the constant octonions

    alpha = sum_r lam1^r e_r,    beta = sum_r lam2^r e_r,

which live over the quadratic ring and do not commute.  Every closed
form is computed there and only then projected down to rational (in
fact integer) coordinates; a non-rational coordinate after reduction
means a bug, not bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .octonion import Octonion
from .quadratic import QuadElem, discriminant, div_by_root_diff, lam, zero
from .sequences import Family, InternalInconsistencyError, seq_window


@dataclass(frozen=True)
class AlphaBeta:
    """The pair of non-commuting closed-form constants; beta is the
    coordinatewise root-conjugate of alpha."""

    alpha: Octonion
    beta: Octonion


# Each bound is at least twice the most keys one command fills: the
# default grid (oct_seq 490, alpha_beta 5), a verify at n <= 120 (_lam_pow 362).
@lru_cache(maxsize=16)
def alpha_beta(k: int) -> AlphaBeta:
    powers = [lam(k) ** r for r in range(8)]
    return AlphaBeta(
        alpha=Octonion(tuple(powers)),
        beta=Octonion(tuple(p.conj() for p in powers)),
    )


def alpha_beta_evaluated_k1() -> AlphaBeta:
    """alpha, beta at k=1 under the split lam1 = 2, lam2 = 1: rational
    octonions (1,2,4,...,128) and (1,...,1)."""
    return AlphaBeta(
        alpha=Octonion(tuple(2**r for r in range(8))),
        beta=Octonion((1,) * 8),
    )


@lru_cache(maxsize=1024)
def oct_seq(family: Family, k: int, n: int) -> Octonion:
    """Defining form: coordinate r is the scalar sequence at n+r."""
    return Octonion(seq_window(family, k, n, 8))


def oct_seq_conj(family: Family, k: int, n: int) -> Octonion:
    return oct_seq(family, k, n).conj()


def project_rational(x: Octonion) -> Octonion:
    """Drop an all-rational Octonion over QuadElem (or over Fraction)
    down to int coordinates, failing loudly on any leftover L-coordinate
    or fractional part."""

    def down(c):
        v = c.rational() if isinstance(c, QuadElem) else Fraction(c)
        if v.denominator != 1:
            raise InternalInconsistencyError(f"non-integer coordinate {v}")
        return int(v)

    return x.map_coords(down)


@lru_cache(maxsize=1024)
def _lam_pow(k: int, e: int) -> QuadElem:
    return lam(k) ** e


def oct_seq_closed(family: Family, k: int, n: int) -> Octonion:
    """Closed form: (alpha lam1^n - beta lam2^n)/(lam1 - lam2) for the
    Mersenne family, alpha lam1^n + beta lam2^n for the Lucas family."""
    ab = alpha_beta(k)
    p1 = _lam_pow(k, n)
    p2 = p1.conj()
    if Family(family) is Family.MERSENNE:
        x = (ab.alpha.scale(p1) - ab.beta.scale(p2)).map_coords(div_by_root_diff)
    else:
        x = ab.alpha.scale(p1) + ab.beta.scale(p2)
    return project_rational(x)


def oct_seq_norm_sq_closed(family: Family, k: int, n: int) -> int:
    """Squared norm by closed form:

        lam1^(2n) * sum_r lam1^(2r)  +  lam2^(2n) * sum_r lam2^(2r)
        -+ 255 * 2^(n+1),

    minus and divided by 9k^2 - 8 for the Mersenne family, plus and
    undivided for the Lucas family.
    """
    s1 = sum((_lam_pow(k, 2 * r) for r in range(8)), start=zero(k))
    s2 = s1.conj()
    p1 = _lam_pow(k, 2 * n)
    val = (p1 * s1 + p1.conj() * s2).rational()
    tail = 255 * 2 ** (n + 1)
    if Family(family) is Family.MERSENNE:
        val = (val - tail) / discriminant(k)
    else:
        val = val + tail
    if val.denominator != 1:
        raise InternalInconsistencyError(f"non-integer norm {val}")
    return int(val)
