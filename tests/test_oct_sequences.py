"""Tests for the octonion sequences and their closed forms."""

from fractions import Fraction

import pytest

from mersenne_octonions import oct_sequences
from mersenne_octonions.octonion import Octonion, cd_mul
from mersenne_octonions.oct_sequences import (
    InternalInconsistencyError,
    alpha_beta,
    oct_seq,
    oct_seq_closed,
    oct_seq_conj,
    oct_seq_norm_sq_closed,
    project_rational,
)
from mersenne_octonions.quadratic import NonRationalError, QuadElem, lam, one
from mersenne_octonions.sequences import Family, seq_value

M, ML = Family.MERSENNE, Family.MERSENNE_LUCAS


class TestDefinition:
    def test_mersenne_k1_start(self):
        assert oct_seq(M, 1, 0).coords == (0, 1, 3, 7, 15, 31, 63, 127)

    def test_lucas_k1_start(self):
        assert oct_seq(ML, 1, 0).coords == (2, 3, 5, 9, 17, 33, 65, 129)

    def test_k2_n1(self):
        assert oct_seq(M, 2, 1).coords[:4] == (1, 6, 34, 192)

    @pytest.mark.parametrize("family", [M, ML])
    def test_recurrence(self, family):
        for k in (1, 2, 4):
            for n in range(1, 10):
                expected = (
                    oct_seq(family, k, n).scale(3 * k)
                    - oct_seq(family, k, n - 1).scale(2)
                )
                assert oct_seq(family, k, n + 1) == expected


class TestConjugate:
    def test_k1_start(self):
        assert oct_seq_conj(M, 1, 0).coords == (
            0, -1, -3, -7, -15, -31, -63, -127
        )

    @pytest.mark.parametrize("family", [M, ML])
    def test_sum_with_conjugate(self, family):
        # S + conj(S) = 2 * (scalar value at n) * e0; the real part is
        # the index-n value, not the index-0 one
        for k in (1, 3):
            for n in range(6):
                s = oct_seq(family, k, n)
                expected = Octonion.basis(0, 2 * seq_value(family, k, n))
                assert s + s.conj() == expected

    def test_product_with_conjugate_is_norm(self):
        s = oct_seq(M, 2, 3)
        assert s * s.conj() == Octonion.basis(0, s.norm_sq())


class TestAlphaBeta:
    def test_coordinate_zero_is_one(self):
        ab = alpha_beta(3)
        assert ab.alpha.coords[0] == one(3)
        assert ab.beta.coords[0] == one(3)

    def test_alpha_coords_are_lambda_powers(self):
        ab = alpha_beta(2)
        for r in range(8):
            assert ab.alpha.coords[r] == lam(2) ** r

    def test_beta_is_conjugate_of_alpha(self):
        ab = alpha_beta(4)
        for r in range(8):
            assert ab.beta.coords[r] == ab.alpha.coords[r].conj()

    def test_sum_is_lucas_start(self):
        for k in (1, 2, 3):
            ab = alpha_beta(k)
            s = ab.alpha + ab.beta
            got = tuple(c.rational() for c in s.coords)
            assert got == tuple(seq_value(ML, k, r) for r in range(8))
            assert got[:3] == (2, 3 * k, 9 * k * k - 4)

    def test_products_do_not_commute(self):
        ab = alpha_beta(2)
        assert ab.alpha * ab.beta != ab.beta * ab.alpha

    def test_evaluated_k1(self):
        # under L -> 2, a ring map at k = 1, alpha_beta(1) is the printed
        # alpha_2 = sum_r 2^r e_r and beta_2 = sum_r e_r, and the closed
        # forms are the printed 2^n alpha_2 -+ beta_2
        alpha2, beta2 = Octonion(tuple(2**r for r in range(8))), Octonion((1,) * 8)

        def at_two(x):
            return x.map_coords(lambda q: q.a + 2 * q.b)

        ab = alpha_beta(1)
        assert at_two(ab.alpha) == alpha2 and at_two(ab.beta) == beta2
        assert at_two(ab.ab) == cd_mul(alpha2, beta2)
        assert at_two(ab.ba) == cd_mul(beta2, alpha2)
        for n in range(41):
            for family, sign in (M, -1), (ML, 1):
                printed = alpha2.scale(2**n) + beta2.scale(sign)
                assert oct_seq(family, 1, n) == oct_seq_closed(family, 1, n) == printed

    def test_one_value_per_k(self):
        # k is positional, so a call has one spelling and one cache entry
        assert alpha_beta(2) is alpha_beta(2)
        size = alpha_beta.cache_info().currsize
        with pytest.raises(TypeError):
            alpha_beta(k=2)
        assert alpha_beta.cache_info().currsize == size

    def test_k_equal_to_1_is_not_served_k1(self, run_fresh):
        # in a fresh interpreter, so that the k = 1 entry is known to be
        # cached before True and 1.0, which equal 1 as keys, are asked
        proc = run_fresh("""
            from mersenne_octonions.oct_sequences import alpha_beta

            alpha_beta(1)
            for k in True, 1.0:
                try:
                    alpha_beta(k)
                except ValueError:
                    pass
                else:
                    raise AssertionError(f"alpha_beta({k!r}) was served k = 1")
        """)
        assert proc.returncode == 0, proc.stderr


class TestClosedForm:
    def test_lucas_n0_is_alpha_plus_beta(self):
        for k in (1, 2, 5):
            got = oct_seq_closed(ML, k, 0)
            assert got == oct_seq(ML, k, 0)

    def test_mersenne_k2_n1(self):
        assert oct_seq_closed(M, 2, 1).coords[:4] == (1, 6, 34, 192)

    def test_mersenne_k1_power_pattern(self):
        got = oct_seq_closed(M, 1, 3)
        assert got.coords == tuple(2 ** (3 + r) - 1 for r in range(8))

    @pytest.mark.parametrize("family", [M, ML])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_equals_definition(self, family, k):
        for n in range(25):
            assert oct_seq_closed(family, k, n) == oct_seq(family, k, n)

    @pytest.mark.parametrize("family", [M, ML])
    def test_negative_n_is_bad_input(self, family):
        # an input error, not an InternalInconsistencyError from the drop
        with pytest.raises(ValueError, match="n must be nonnegative"):
            oct_seq_closed(family, 1, -1)


class TestProjectRational:
    """The one drop to Z: an exact quotient, or an error."""

    def test_exact_quotient(self):
        x = Octonion((QuadElem(2, 6, 0), Fraction(12, 2), 0, -3, 9, 3, 30, 300))
        got = project_rational(x, 3)
        assert got.coords == (2, 2, 0, -1, 3, 1, 10, 100)
        assert all(type(c) is int for c in got.coords)

    def test_divisor_that_does_not_divide(self, default_digit_limit):
        with pytest.raises(InternalInconsistencyError, match="7/3"):
            project_rational(Octonion.basis(1, 7), 3)
        # the quotient is named in full, even past the digit limit
        with pytest.raises(InternalInconsistencyError) as exc:
            oct_sequences._exact(10**5000 + 1, 2)
        assert "1" + "0" * 4999 + "1/2" in str(exc.value)

    def test_fraction_coordinate(self):
        with pytest.raises(InternalInconsistencyError, match="1/2"):
            project_rational(Octonion.basis(0, Fraction(1, 2)))
        # a QuadElem cannot carry one: its constructor refuses it
        with pytest.raises(TypeError):
            QuadElem(3, Fraction(1, 2), 0)

    def test_leftover_l_coordinate(self):
        with pytest.raises(NonRationalError):
            project_rational(Octonion.basis(0, lam(2)))


class TestNormClosedForm:
    def test_k1_spot_values(self):
        assert oct_seq_norm_sq_closed(M, 1, 0) == 21343
        assert oct_seq_norm_sq_closed(ML, 1, 0) == 22363

    def test_k2_n3_matches_direct_sum(self):
        direct = sum(seq_value(M, 2, 3 + r) ** 2 for r in range(8))
        assert oct_seq_norm_sq_closed(M, 2, 3) == direct

    @pytest.mark.parametrize("family", [M, ML])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_equals_direct_norm(self, family, k):
        for n in range(17):
            direct = oct_seq(family, k, n).norm_sq()
            assert oct_seq_norm_sq_closed(family, k, n) == direct

    def test_k1_polynomial_in_2n(self):
        for n in range(21):
            assert (
                oct_seq_norm_sq_closed(M, 1, n)
                == 21845 * 4**n - 510 * 2**n + 8
            )
            assert (
                oct_seq_norm_sq_closed(ML, 1, n)
                == 21845 * 4**n + 510 * 2**n + 8
            )


class TestExactIntegerResults:
    """The closed forms return ints, never floats, even where a float
    would overflow."""

    @pytest.mark.parametrize("family", [M, ML])
    @pytest.mark.parametrize("k", [1, 3])
    def test_large_n_stays_int(self, family, k):
        n = 1200
        closed = oct_seq_closed(family, k, n)
        assert all(type(c) is int for c in closed.coords)
        assert closed == oct_seq(family, k, n)
        norm = oct_seq_norm_sq_closed(family, k, n)
        assert type(norm) is int
        assert norm == oct_seq(family, k, n).norm_sq()
