"""Exact arithmetic in the quotient ring Z[L] / (L^2 - 3k*L + 2).

The residue class of L stands for the larger root lam1 of the
characteristic polynomial x^2 - 3k*x + 2, and its conjugate 3k - L
stands for the smaller root lam2.  Working in the quotient ring keeps
every Binet-style closed form exact.  This includes k = 1, where the
discriminant 9k^2 - 8 equals 1 and the ring splits with zero divisors
(L - 1)(L - 2) = 0; for that reason no division is provided.  The one
division the closed forms need, by the root difference lam1 - lam2, is
taken in oct_sequences as a product with lam1 - lam2 followed by an
exact integer division by the discriminant.

Every closed form is an integer combination of powers of the roots,
so the coordinates are plain ints.  The public constructor checks them
once; the arithmetic builds its results unchecked, since a sum or
product of ints is an int.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sequences import decimal_repr, decimal_str


class NonRationalError(ValueError):
    """Raised when a rational value is demanded of an element with a
    nonzero L-coordinate.  Carries the offending element."""

    def __init__(self, elem: "QuadElem"):
        self.elem = elem
        super().__init__(f"element is not rational: {elem}")


class RingMismatchError(ValueError):
    """Raised when two elements from rings with different k are combined."""


def discriminant(k: int) -> int:
    """Square of the root difference lam1 - lam2, always 9k^2 - 8."""
    return 9 * k * k - 8


_setattr = object.__setattr__


def _new(k: int, a: int, b: int) -> "QuadElem":
    """Build an element from a valid k and int coordinates, skipping
    the checks of __init__ (the arithmetic's constructor)."""
    e = object.__new__(QuadElem)
    _setattr(e, "k", k)
    _setattr(e, "a", a)
    _setattr(e, "b", b)
    return e


@dataclass(frozen=True, eq=False, slots=True)
class QuadElem:
    """Element a + b*L of Z[L]/(L^2 - 3k*L + 2), with int coordinates.

    Immutable; all operations return new elements.  Mixed-k arithmetic
    raises RingMismatchError since it silently corrupts results
    otherwise.  int operands act as constants of the same ring; an
    integer-valued element (b = 0) compares and hashes equal to its
    integer value.  k must be an int >= 1 (ValueError otherwise) and a,
    b ints (TypeError otherwise); a bool is neither.
    """

    k: int
    a: int
    b: int

    def __post_init__(self):
        if type(self.k) is not int or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {decimal_repr(self.k)}")
        if type(self.a) is not int or type(self.b) is not int:
            raise TypeError("coordinates must be ints, "
                            f"got {decimal_repr(self.a)}, {decimal_repr(self.b)}")

    def __eq__(self, other):
        if isinstance(other, QuadElem):
            if self.k != other.k:
                # only rational values are comparable across rings
                return self.b == other.b == 0 and self.a == other.a
            return self.a == other.a and self.b == other.b
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.k, self.a, self.b))

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.k != self.k:
                raise RingMismatchError(
                    f"cannot combine elements with k={self.k} and k={other.k}"
                )
            return other
        if isinstance(other, int):
            return _new(self.k, other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _new(self.k, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _new(self.k, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _new(self.k, -self.a, -self.b)

    def __mul__(self, other):
        # (a1 + b1 L)(a2 + b2 L) with L^2 reduced to 3k L - 2.
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        bb = self.b * o.b
        return _new(
            self.k,
            self.a * o.a - 2 * bb,
            self.a * o.b + self.b * o.a + 3 * self.k * bb,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QuadElem":
        if n < 0:
            raise ValueError("negative powers are not defined in this ring")
        result = one(self.k)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "QuadElem":
        """Swap the two roots: L -> 3k - L.  An involution fixing
        exactly the rational elements."""
        return _new(self.k, self.a + 3 * self.k * self.b, -self.b)

    def rational(self) -> int:
        """Integer value a of an element with zero L-coordinate."""
        if self.b != 0:
            raise NonRationalError(self)
        return self.a

    def __repr__(self):
        return f"QuadElem(k={decimal_str(self.k)}, a={decimal_str(self.a)}, b={decimal_str(self.b)})"


def lam(k: int) -> QuadElem:
    """The class of L, playing the larger characteristic root."""
    return QuadElem(k, 0, 1)


def one(k: int) -> QuadElem:
    return QuadElem(k, 1, 0)

