"""Tests for the scalar k-Mersenne and k-Mersenne-Lucas sequences."""

import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from mersenne_octonions.octonion import Octonion
from mersenne_octonions.oct_sequences import (
    oct_seq,
    oct_seq_closed,
    oct_seq_norm_sq_closed,
    seq_binet,
)
from mersenne_octonions.sequences import (
    Family,
    decimal_repr,
    decimal_str,
    seq_fast,
    seq_terms,
    seq_value,
    seq_window,
)

M, ML = Family.MERSENNE, Family.MERSENNE_LUCAS


class TestRecurrence:
    def test_mersenne_initials(self):
        for k in (1, 2, 5):
            assert seq_value(M, k, 0) == 0
            assert seq_value(M, k, 1) == 1

    def test_lucas_initials(self):
        for k in (1, 2, 5):
            assert seq_value(ML, k, 0) == 2
            assert seq_value(ML, k, 1) == 3 * k

    def test_k2_values(self):
        # recurrence by hand: x[n+1] = 6x[n] - 2x[n-1]
        assert [seq_value(M, 2, n) for n in range(4)] == [0, 1, 6, 34]
        assert [seq_value(ML, 2, n) for n in range(4)] == [2, 6, 32, 180]

    def test_k1_closed_forms(self):
        for n in range(65):
            assert seq_value(M, 1, n) == 2**n - 1
            assert seq_value(ML, 1, n) == 2**n + 1

    def test_window_matches_pointwise(self):
        assert seq_window(ML, 2, 3, 4) == tuple(
            seq_value(ML, 2, n) for n in range(3, 7)
        )

    def test_bad_params(self):
        for fn in (seq_value, seq_binet):
            with pytest.raises(ValueError):
                fn(M, 0, 1)
            with pytest.raises(ValueError):
                fn(M, 1, -1)

    @pytest.mark.parametrize("k, n", [(0, 1), (1, -1)])
    def test_bad_params_raise_at_the_call(self, k, n):
        # not at the first term: a zero-length window reads none
        with pytest.raises(ValueError):
            seq_window(M, k, n, 0)
        with pytest.raises(ValueError):
            seq_terms(M, k, n)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((M, ML)), st.integers(1, 5), st.integers(0, 400),
           st.integers(1, 12))
    @example(M, 1, 0, 1)
    @example(ML, 5, 0, 8)
    def test_value_and_window_match_matrix_power(self, family, k, n, length):
        assert seq_value(family, k, n) == seq_fast(family, k, n)
        assert seq_window(family, k, n, length) == tuple(
            seq_fast(family, k, m) for m in range(n, n + length)
        )


class TestBinet:
    def test_lucas_start(self):
        for k in (1, 2, 3, 7):
            assert seq_binet(ML, k, 0) == 2
            assert seq_binet(ML, k, 1) == 3 * k

    def test_mersenne_second_is_3k(self):
        for k in (1, 2, 4):
            assert seq_binet(M, k, 2) == 3 * k


class TestFast:
    def test_small_values(self):
        assert [seq_fast(M, 1, n) for n in range(6)] == [0, 1, 3, 7, 15, 31]
        assert seq_fast(M, 2, 0) == 0
        assert seq_fast(ML, 2, 2) == 32

    def test_matches_recurrence_large(self):
        # 2^14 - 1 walks all one bits, 2^14 a one and then zeros only
        for n in (10_000, 2**14 - 1, 2**14, 2**14 + 1):
            for k in (1, 2, 3):
                assert seq_fast(M, k, n) == seq_value(M, k, n)
                assert seq_fast(ML, k, n) == seq_value(ML, k, n)


class TestEquivalenceAndGrowth:
    @pytest.mark.parametrize("family", [M, ML])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_three_way_equivalence(self, family, k):
        for n in range(65):
            v = seq_value(family, k, n)
            assert seq_binet(family, k, n) == v
            assert seq_fast(family, k, n) == v

    @pytest.mark.parametrize("family", [M, ML])
    def test_strictly_increasing(self, family):
        for k in range(1, 6):
            vals = [seq_value(family, k, n) for n in range(1, 30)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_scalar_catalan_shadow(self):
        # M[n+r]M[n-r] - M[n]^2 = -2^(n-r) M[r]^2
        for k in range(1, 6):
            for n in range(21):
                for r in range(n + 1):
                    lhs = (
                        seq_value(M, k, n + r) * seq_value(M, k, n - r)
                        - seq_value(M, k, n) ** 2
                    )
                    assert lhs == -(2 ** (n - r)) * seq_value(M, k, r) ** 2


class TestBadParams:
    """k and n must be ints (a bool is not one) with k >= 1 and n >= 0.
    Every evaluator rejects anything else with a ValueError, never a
    float result, an InternalInconsistencyError or a cached value."""

    @pytest.mark.parametrize("fn", [
        seq_value, seq_fast, seq_window, seq_binet,
        oct_seq, oct_seq_closed, oct_seq_norm_sq_closed,
    ], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("k, n, match", [
        (1.5, 3, "k must be a positive integer"),
        (True, 3, "k must be a positive integer"),
        (0, 3, "k must be a positive integer"),
        (2, 3.0, "n must be nonnegative"),
        (2, True, "n must be nonnegative"),
        (2, -1, "n must be nonnegative"),
    ])
    def test_rejected(self, fn, k, n, match):
        # fill any cache at the int keys that 1.5, True and 3.0 equal
        fn(M, 1, 3), fn(M, 2, 1), fn(M, 2, 3)
        with pytest.raises(ValueError, match=match):
            fn(M, k, n)


class TestFamilyByName:
    def test_string_names_its_family(self, run_fresh):
        # A string equals its Family member as a cache key, so "mersenne"
        # read as the Lucas family would fill oct_seq's cache with Lucas
        # values and fail a later grid in the same process.
        proc = run_fresh("""
            from mersenne_octonions.oct_sequences import (
                oct_seq, oct_seq_closed, oct_seq_norm_sq_closed, seq_binet)
            from mersenne_octonions.sequences import (
                Family, seq_fast, seq_value, seq_window)
            from mersenne_octonions.verify import GridConfig, run_grid

            assert seq_value("mersenne", 2, 3) == 34
            assert oct_seq("mersenne", 2, 0).coords[:4] == (0, 1, 6, 34)
            cfg = GridConfig(ks=(2,), n_max=3, ij_max=1)
            report = run_grid(cfg)
            assert report.summary["FAIL"] == 0, report.summary
            for family in Family:
                for fn in (seq_value, seq_fast, seq_binet, seq_window,
                           oct_seq_closed, oct_seq_norm_sq_closed):
                    assert fn(family.value, 2, 3) == fn(family, 2, 3), (fn, family)
            try:
                seq_value("fibonacci", 2, 3)
            except ValueError:
                pass
            else:
                raise AssertionError("an unknown family name was accepted")
        """)
        assert proc.returncode == 0, proc.stderr


class TestDecimalStr:
    def test_any_length_under_the_default_limit(self):
        # the interpreter's default int->str limit is 4,300 digits; the
        # helper writes past it and leaves the limit as it found it
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            texts = [decimal_str(x) for x in (0, -7, 10**5000, -(10**5000))]
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(old)
        assert texts == ["0", "-7", "1" + "0" * 5000, "-1" + "0" * 5000]

    def test_repr_of_any_length(self, default_digit_limit):
        # a message's echo of a caller's value; an octonion's display
        # lifts the limit again inside it and restores the outer lift
        big = 10**5000
        assert decimal_repr((big, "a")) == "(1" + "0" * 5000 + ", 'a')"
        assert decimal_repr([Octonion.basis(0, -big)]) == (
            "[Octonion(coords=(-1" + "0" * 5000 + ", 0, 0, 0, 0, 0, 0, 0))]")
