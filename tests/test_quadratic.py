"""Tests for the quadratic quotient ring Z[L]/(L^2 - 3kL + 2)."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mersenne_octonions.quadratic import (
    NonRationalError,
    QuadElem,
    RingMismatchError,
    discriminant,
    lam,
    one,
)

small_ints = st.integers(min_value=-20, max_value=20)


def quad_elems(ks=st.integers(min_value=1, max_value=6)):
    return st.builds(QuadElem, ks, small_ints, small_ints)


def quad_pairs_same_k():
    return st.tuples(
        st.integers(min_value=1, max_value=6), small_ints,
        small_ints, small_ints, small_ints,
    ).map(lambda t: (QuadElem(t[0], t[1], t[2]), QuadElem(t[0], t[3], t[4])))


def quad_triples_same_k():
    return st.tuples(
        st.integers(min_value=1, max_value=6),
        *([small_ints] * 6),
    ).map(lambda t: (
        QuadElem(t[0], t[1], t[2]),
        QuadElem(t[0], t[3], t[4]),
        QuadElem(t[0], t[5], t[6]),
    ))


class TestBasics:
    def test_add_coordinatewise(self):
        x = QuadElem(2, 1, 0) + QuadElem(2, 0, 1)
        assert x == QuadElem(2, 1, 1)

    def test_add_zero_identity(self):
        x = QuadElem(3, 5, -2)
        assert x + QuadElem(3, 0, 0) == x

    def test_add_cancellation(self):
        x = QuadElem(1, 4, -3)
        y = QuadElem(1, -3, 3)
        assert x + y == QuadElem(1, 1, 0)

    def test_lambda_squared_reduces(self):
        # L^2 = 3kL - 2
        assert lam(2) * lam(2) == QuadElem(2, -2, 6)

    def test_mul_derived_k1(self):
        # (1 + L)(1 - L) = 1 - L^2 = 1 - (3L - 2) = 3 - 3L
        x = QuadElem(1, 1, 1) * QuadElem(1, 1, -1)
        assert x == QuadElem(1, 3, -3)

    def test_mul_one_identity(self):
        x = QuadElem(4, -7, 5)
        assert x * one(4) == x

    def test_mismatched_k_raises(self):
        with pytest.raises(RingMismatchError):
            lam(1) + lam(2)
        with pytest.raises(RingMismatchError):
            lam(1) * lam(2)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            QuadElem(0, 1, 0)

    def test_int_on_the_left_of_a_difference(self):
        # Octonion products over the ring subtract from an int zero
        assert 3 - lam(2) == QuadElem(2, 3, -1)


class TestIntegerValues:
    """An element with zero L-coordinate is its integer value: it
    equals and hashes as that int, and as the same value in any ring."""

    def test_equal_across_rings_only_when_rational(self):
        assert QuadElem(1, 3, 0) == QuadElem(2, 3, 0) != QuadElem(2, 3, 1)
        assert QuadElem(1, 3, 1) != QuadElem(2, 3, 1)
        assert QuadElem(1, 3, 0) != QuadElem(2, 4, 0)

    def test_hash_of_an_integer_value(self):
        assert len({QuadElem(2, 5, 0), 5}) == 1
        assert hash(QuadElem(1, 5, 0)) == hash(QuadElem(3, 5, 0)) == hash(5)
        assert len({QuadElem(2, 5, 1), QuadElem(2, 5, 1), 5}) == 2


class TestConjugation:
    def test_conj_of_lambda(self):
        assert lam(2).conj() == QuadElem(2, 6, -1)

    def test_involution(self):
        x = QuadElem(3, 11, -7)
        assert x.conj().conj() == x

    def test_norm_is_two(self):
        # lam1 * lam2 = 2 for every k
        for k in range(1, 7):
            assert (lam(k) * lam(k).conj()).rational() == 2

    def test_trace_is_3k(self):
        for k in range(1, 7):
            assert (lam(k) + lam(k).conj()).rational() == 3 * k

    def test_fixes_exactly_rationals(self):
        assert QuadElem(2, 5, 0).conj() == QuadElem(2, 5, 0)
        assert lam(2).conj() != lam(2)


class TestPowers:
    def test_zeroth_power(self):
        assert lam(3) ** 0 == one(3)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative powers"):
            lam(3) ** -1

    def test_square_k1(self):
        assert lam(1) ** 2 == QuadElem(1, -2, 3)

    def test_cube_k1(self):
        # L^3 = L * (3L - 2) = 3L^2 - 2L = 7L - 6; under L -> 2 gives 8
        x = lam(1) ** 3
        assert x == QuadElem(1, -6, 7)
        assert x.a + 2 * x.b == 8

    @given(quad_elems(), st.integers(min_value=0, max_value=12))
    def test_matches_repeated_mul(self, x, n):
        acc = one(x.k)
        for _ in range(n):
            acc = acc * x
        assert x**n == acc


def root_diff(k):
    """lam1 - lam2 = L - (3k - L)."""
    return lam(k) - lam(k).conj()


class TestRootDiff:
    def test_square_is_discriminant(self):
        for k in range(1, 8):
            sq = root_diff(k) ** 2
            assert sq.rational() == discriminant(k) == 9 * k * k - 8

    def test_k1_square_is_one(self):
        assert (root_diff(1) ** 2).rational() == 1

    def test_k2_square(self):
        assert (root_diff(2) ** 2).rational() == 28

    def test_plus_3k_is_two_lambda(self):
        for k in (1, 2, 5):
            assert root_diff(k) + 3 * k == lam(k) * 2


class TestRational:
    def test_extracts(self):
        assert QuadElem(2, 6, 0).rational() == 6

    def test_non_rational_raises_with_element(self, default_digit_limit):
        # the message shows the element in full, even past the digit limit
        for x in (lam(3), QuadElem(1, 10**5000, 1)):
            with pytest.raises(NonRationalError) as exc:
                x.rational()
            assert exc.value.elem == x
        assert "QuadElem(k=1, a=1" + "0" * 5000 + ", b=1)" in str(exc.value)

    def test_lambda_times_conj(self):
        assert (lam(5) * lam(5).conj()).rational() == 2


class TestDisplay:
    """One display, the repr, with the dataclass's shape."""

    def test_repr(self):
        assert repr(lam(2)) == "QuadElem(k=2, a=0, b=1)"
        assert repr(QuadElem(3, -4, 5)) == "QuadElem(k=3, a=-4, b=5)"
        assert str(lam(2)) == repr(lam(2))


class TestRingAxioms:
    @given(quad_pairs_same_k())
    def test_commutativity(self, pair):
        x, y = pair
        assert x + y == y + x
        assert x * y == y * x

    @given(quad_triples_same_k())
    def test_associativity(self, triple):
        x, y, z = triple
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)

    @given(quad_triples_same_k())
    def test_distributivity(self, triple):
        x, y, z = triple
        assert x * (y + z) == x * y + x * z

    @given(quad_pairs_same_k())
    def test_conj_is_ring_homomorphism(self, pair):
        x, y = pair
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()


class TestRatioRelation:
    """lam1 * lam2 = 2, stated without halves."""

    def test_inverse_of_conj_lambda_is_half_lambda(self):
        # lam2^-1 = lam1/2, that is lam1 * lam2 = 2 * 1
        for k in (1, 2, 3, 4):
            assert lam(k) * lam(k).conj() == one(k) * 2

    def test_ratio_as_half_square(self):
        # lam1/lam2 = lam1^2/2, that is 2 * lam1 = lam1^2 * lam2
        for k in (1, 2, 3):
            l = lam(k)
            assert 2 * l == l**2 * l.conj()


class TestSplitEvaluationK1:
    """At k=1 the ring splits; L -> 2 (and conj(L) -> 1) maps every
    identity to a true rational identity."""

    @staticmethod
    def _ev(x):
        assert x.k == 1
        return x.a + 2 * x.b

    @given(quad_pairs_same_k().filter(lambda p: p[0].k == 1))
    def test_evaluation_is_homomorphism(self, pair):
        x, y = pair
        assert self._ev(x * y) == self._ev(x) * self._ev(y)
        assert self._ev(x + y) == self._ev(x) + self._ev(y)

    @given(quad_elems(ks=st.just(1)))
    def test_conj_evaluates_at_other_root(self, x):
        # conj swaps the roots, so evaluating conj(x) at 2 equals
        # evaluating x at 1
        assert self._ev(x.conj()) == x.a + x.b


class TestCoordinateTypes:
    """Coordinates are ints: the constructor rejects anything else, and
    the arithmetic keeps them ints."""

    @pytest.mark.parametrize("k", [1.5, True, "2"], ids=["float", "bool", "str"])
    def test_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            QuadElem(k, 0, 1)

    @pytest.mark.parametrize("a, b", [
        (0.1, 1), ("1", 1), (Fraction(1, 2), 0), (Fraction(4, 2), 0), (0, True),
    ], ids=["float", "str", "fraction", "integral-fraction", "bool"])
    def test_rejects_non_integer_coordinates(self, a, b):
        with pytest.raises(TypeError):
            QuadElem(2, a, b)

    def test_rejects_a_fraction_operand(self):
        with pytest.raises(TypeError):
            lam(2) * Fraction(1, 2)

    @pytest.mark.parametrize("op", [
        lambda x: x + 1.5,
        lambda x: x - 1.5,
        lambda x: 1.5 - x,
    ], ids=["add", "sub", "rsub"])
    def test_rejects_a_float_operand(self, op):
        with pytest.raises(TypeError):
            op(lam(2))

    def test_never_equals_a_float(self):
        assert QuadElem(2, 1, 0) != 1.0

    def test_arithmetic_keeps_ints(self):
        for k in (1, 2, 5):
            x = lam(k) ** 9 - lam(k).conj() ** 4 * 3 + 7
            assert type(x.a) is int and type(x.b) is int

    def test_rational_is_an_int(self):
        v = QuadElem(2, 6, 0).rational()
        assert type(v) is int and v == 6
