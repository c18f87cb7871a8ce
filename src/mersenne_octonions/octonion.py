"""The eight-dimensional octonion algebra over an exact scalar ring.

The basis product e_i * e_j is stored as data (a sign array and an
index array) rather than as 64 hand-written branches.  A Cayley-Dickson
doubling of the quaternions serves as an independent multiplication
oracle whose only purpose is to catch transcription errors in that
data; the doubling convention is

    (p1, q1)(p2, q2) = (p1 p2 - conj(q2) q1,  q2 p1 + q1 conj(p2))

over the basis split {e0..e3 | e4..e7}, which reproduces the stored
table on all 64 basis pairs.

Scalars may be int or QuadElem; any ring with exact +, -, * works,
since octonion multiplication is the bilinear extension of the basis
table.  That extension is compiled from the sign and index arrays
into eight straight-line sums of products of coordinates, with no
per-term table lookups.  Products are taken with the one compiled
function in force; the mutation test hook swaps in one compiled from
its corrupted table, so that table is exercised by the same code.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from operator import add, neg, sub

from .sequences import decimal_repr, decimal_str

# Basis products e_i * e_j as (sign, index) meaning sign * e_index.
_TABLE = (
    ((+1, 0), (+1, 1), (+1, 2), (+1, 3), (+1, 4), (+1, 5), (+1, 6), (+1, 7)),
    ((+1, 1), (-1, 0), (+1, 3), (-1, 2), (+1, 5), (-1, 4), (-1, 7), (+1, 6)),
    ((+1, 2), (-1, 3), (-1, 0), (+1, 1), (+1, 6), (+1, 7), (-1, 4), (-1, 5)),
    ((+1, 3), (+1, 2), (-1, 1), (-1, 0), (+1, 7), (-1, 6), (+1, 5), (-1, 4)),
    ((+1, 4), (-1, 5), (-1, 6), (-1, 7), (-1, 0), (+1, 1), (+1, 2), (+1, 3)),
    ((+1, 5), (+1, 4), (-1, 7), (+1, 6), (-1, 1), (-1, 0), (-1, 3), (+1, 2)),
    ((+1, 6), (+1, 7), (+1, 4), (-1, 5), (-1, 2), (+1, 3), (-1, 0), (-1, 1)),
    ((+1, 7), (-1, 6), (+1, 5), (+1, 4), (-1, 3), (-1, 2), (+1, 1), (-1, 0)),
)

SIGN = tuple(tuple(s for s, _ in row) for row in _TABLE)
INDEX = tuple(tuple(t for _, t in row) for row in _TABLE)


def _compile_product(table: tuple):
    """The bilinear extension of one (sign, index) basis table as a
    straight-line function of two coordinate tuples: one fixed sum per
    output coordinate, generated from the table so that it stays the
    only copy of the basis products.  The function carries the table
    it was compiled from as its `table` attribute.  Every sign must be
    the int +1 or -1 and every index row a permutation of 0..7 (a
    ValueError otherwise): the sums read only a sign's sign."""
    sign, index = table
    if len(sign) != 8 or len(index) != 8:
        raise ValueError("a basis table has 8 rows of signs and 8 of indices")
    for signs, indices in zip(sign, index):
        if len(signs) != 8 or not all(type(s) is int and s in (1, -1) for s in signs):
            raise ValueError(f"a basis sign is the int +1 or -1, got {decimal_repr(signs)}")
        if not all(type(t) is int for t in indices) or sorted(indices) != list(range(8)):
            raise ValueError("an index row is a permutation of 0..7, "
                             f"got {decimal_repr(indices)}")
    terms = [[] for _ in range(8)]
    for i in range(8):
        for j in range(8):
            terms[index[i][j]].append((sign[i][j], f"a{i} * b{j}"))
    sums = []
    for row in terms:
        # no leading unary +: not every scalar ring defines __pos__
        expr = ("-" if row[0][0] < 0 else "") + row[0][1]
        expr += "".join((" - " if s < 0 else " + ") + p for s, p in row[1:])
        sums.append(f"        {expr},")
    source = "\n".join([
        "def product(a, b):",
        "    a0, a1, a2, a3, a4, a5, a6, a7 = a",
        "    b0, b1, b2, b3, b4, b5, b6, b7 = b",
        "    return (",
        *sums,
        "    )",
    ])
    namespace = {}
    exec(source, namespace)
    product = namespace["product"]
    product.table = table
    return product


# The compiled product in force; only the mutation test hook swaps in
# another, and run_grid hands its table to every pool worker it starts.
_product = _compile_product((SIGN, INDEX))


def active_basis_table() -> tuple:
    """The (sign, index) basis table products currently use."""
    return _product.table


def use_basis_table(table: tuple) -> None:
    """Compile table and put it in force (the pool initializer that
    carries the parent's table into a worker); a mutation hook that is
    on still restores the product it replaced when it exits."""
    global _product
    _product = _compile_product(table)


def _check_basis_index(*indices):
    """A basis index is an int (not a bool) in 0..7: a negative one would
    silently count from the end."""
    for x in indices:
        if type(x) is not int or not 0 <= x <= 7:
            raise ValueError(f"a basis index is an int in 0..7, got {decimal_repr(x)}")


@contextmanager
def corrupted_basis_table(i: int = 1, j: int = 2):
    """Test hook: temporarily flip the sign of one basis product.

    Used to demonstrate that the verifier actually detects a wrong
    multiplication table.  Never nest with concurrent verification.
    """
    global _product
    _check_basis_index(i, j)
    sign = [list(row) for row in SIGN]
    sign[i][j] = -sign[i][j]
    saved, _product = _product, _compile_product((tuple(tuple(r) for r in sign), INDEX))
    try:
        yield
    finally:
        _product = saved  # the very object it replaced, not a recompile


_setattr = object.__setattr__


def _new(coords: tuple) -> "Octonion":
    """Build an octonion from a tuple of 8 coordinates, skipping the
    checks of __post_init__ (the arithmetic's constructor)."""
    o = object.__new__(Octonion)
    _setattr(o, "coords", coords)
    return o


@dataclass(frozen=True, slots=True)
class Octonion:
    """Immutable octonion with 8 exact scalar coordinates e0..e7.

    The public constructor takes any iterable of 8 coordinates (a
    ValueError otherwise) and stores them as a tuple; the arithmetic
    builds its results unchecked."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(self.coords)
        if len(coords) != 8:
            raise ValueError("an octonion has exactly 8 coordinates")
        _setattr(self, "coords", coords)

    @classmethod
    def basis(cls, r: int, scale=1) -> "Octonion":
        _check_basis_index(r)
        c = [0] * 8
        c[r] = scale
        return cls(tuple(c))

    def __add__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return _new(tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return _new(tuple(map(sub, self.coords, other.coords)))

    def __neg__(self):
        return _new(tuple(map(neg, self.coords)))

    def __mul__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return _new(_product(self.coords, other.coords))

    def scale(self, s) -> "Octonion":
        """Multiply every coordinate by the scalar s."""
        return _new(tuple([x * s for x in self.coords]))

    def conj(self) -> "Octonion":
        """Negate the seven imaginary coordinates."""
        c = self.coords
        return _new((c[0], *map(neg, c[1:])))

    def norm_sq(self):
        """Squared norm: the sum of squared coordinates.

        The square root is never taken, since it leaves the scalar
        ring; all norm statements are checked at this level.
        """
        return sum(x * x for x in self.coords)

    def map_coords(self, f) -> "Octonion":
        return _new(tuple(map(f, self.coords)))

    def __repr__(self):
        return f"Octonion(coords=({', '.join(map(decimal_str, self.coords))}))"


def _qmul(p, q):
    # Hamilton quaternion product on 4-tuples (1, i, j, k).
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
        p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
    )


def _qconj(p):
    return (p[0], -p[1], -p[2], -p[3])


def cd_mul(a: Octonion, b: Octonion) -> Octonion:
    """Independent multiplication oracle via Cayley-Dickson doubling.

    Shares no data with the stored basis table; see the module
    docstring for the doubling convention.
    """
    p1, q1 = a.coords[:4], a.coords[4:]
    p2, q2 = b.coords[:4], b.coords[4:]
    lo = map(sub, _qmul(p1, p2), _qmul(_qconj(q2), q1))
    hi = map(add, _qmul(q2, p1), _qmul(q1, _qconj(p2)))
    return _new((*lo, *hi))
