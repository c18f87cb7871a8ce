"""Tests for the octonion algebra: table fidelity, the Cayley-Dickson
oracle, and the structural properties every octonion algebra must have."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mersenne_octonions import octonion
from mersenne_octonions.octonion import (
    INDEX,
    SIGN,
    Octonion,
    active_basis_table,
    cd_mul,
    corrupted_basis_table,
    use_basis_table,
)
from mersenne_octonions.oct_sequences import oct_seq
from mersenne_octonions.quadratic import QuadElem, lam
from mersenne_octonions.sequences import Family

# Independently transcribed basis products, (sign, index) per cell.
EXPECTED_TABLE = [
    [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)],
    [(1, 1), (-1, 0), (1, 3), (-1, 2), (1, 5), (-1, 4), (-1, 7), (1, 6)],
    [(1, 2), (-1, 3), (-1, 0), (1, 1), (1, 6), (1, 7), (-1, 4), (-1, 5)],
    [(1, 3), (1, 2), (-1, 1), (-1, 0), (1, 7), (-1, 6), (1, 5), (-1, 4)],
    [(1, 4), (-1, 5), (-1, 6), (-1, 7), (-1, 0), (1, 1), (1, 2), (1, 3)],
    [(1, 5), (1, 4), (-1, 7), (1, 6), (-1, 1), (-1, 0), (-1, 3), (1, 2)],
    [(1, 6), (1, 7), (1, 4), (-1, 5), (-1, 2), (1, 3), (-1, 0), (-1, 1)],
    [(1, 7), (-1, 6), (1, 5), (1, 4), (-1, 3), (-1, 2), (1, 1), (-1, 0)],
]


def rand_oct(rnd, lo=-9, hi=9):
    return Octonion(tuple(rnd.randint(lo, hi) for _ in range(8)))


def rand_quad_oct(rnd, k):
    return Octonion(tuple(
        QuadElem(k, rnd.randint(-5, 5), rnd.randint(-5, 5)) for _ in range(8)
    ))


oct_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
octonions = st.builds(Octonion, st.tuples(*([oct_fracs] * 8)))

small_ints = st.integers(min_value=-10**6, max_value=10**6)


def quad_scalars(k):
    return st.builds(QuadElem, st.just(k), small_ints, small_ints)


# Octonion pairs over int and QuadElem, the scalar rings the verifier
# uses, and over Fraction, since Octonion is generic (one ring per pair).
octonion_pairs = st.one_of(
    st.tuples(*[st.builds(Octonion, st.tuples(*([small_ints] * 8)))] * 2),
    st.tuples(octonions, octonions),
    st.integers(min_value=1, max_value=4).flatmap(lambda k: st.tuples(
        *[st.builds(Octonion, st.tuples(*([quad_scalars(k)] * 8)))] * 2)),
)


class TestBasisTable:
    @pytest.mark.parametrize("i", range(8))
    @pytest.mark.parametrize("j", range(8))
    def test_each_entry(self, i, j):
        sign, index = EXPECTED_TABLE[i][j]
        prod = Octonion.basis(i) * Octonion.basis(j)
        assert prod == Octonion.basis(index, sign)

    def test_identity_row_and_column(self):
        for r in range(8):
            assert SIGN[0][r] == SIGN[r][0] == 1
            assert INDEX[0][r] == INDEX[r][0] == r

    def test_imaginary_squares(self):
        for i in range(1, 8):
            assert SIGN[i][i] == -1 and INDEX[i][i] == 0

    def test_anticommutativity_off_diagonal(self):
        for i in range(1, 8):
            for j in range(1, 8):
                if i != j:
                    assert INDEX[i][j] == INDEX[j][i]
                    assert SIGN[i][j] == -SIGN[j][i]

    def test_spot_products(self):
        e = Octonion.basis
        assert e(1) * e(2) == e(3)
        assert e(2) * e(1) == -e(3)
        assert e(5) * e(6) == -e(3)


class TestCayleyDicksonOracle:
    def test_matches_on_all_basis_pairs(self):
        for i in range(8):
            for j in range(8):
                a, b = Octonion.basis(i), Octonion.basis(j)
                assert cd_mul(a, b) == a * b, (i, j)

    def test_e4_squared(self):
        e4 = Octonion.basis(4)
        assert cd_mul(e4, e4) == Octonion.basis(0, -1)

    def test_matches_on_random_octonions(self):
        rnd = random.Random(20230915)
        for _ in range(500):
            a, b = rand_oct(rnd), rand_oct(rnd)
            assert cd_mul(a, b) == a * b

    def test_matches_over_quad_scalars(self):
        rnd = random.Random(7)
        for _ in range(50):
            a, b = rand_quad_oct(rnd, 2), rand_quad_oct(rnd, 2)
            assert cd_mul(a, b) == a * b


class TestConjugationAndNorm:
    def test_conj_fixes_real(self):
        assert Octonion.basis(0).conj() == Octonion.basis(0)

    def test_conj_negates_imaginary(self):
        assert Octonion.basis(3).conj() == -Octonion.basis(3)

    def test_conj_linearity(self):
        x = Octonion((1, 0, 0, 0, 0, 2, 0, 0))
        assert x.conj() == Octonion((1, 0, 0, 0, 0, -2, 0, 0))

    def test_norm_of_basis_vectors(self):
        for r in range(8):
            assert Octonion.basis(r).norm_sq() == 1

    def test_norm_of_mersenne_vector(self):
        x = Octonion((0, 1, 3, 7, 15, 31, 63, 127))
        assert x.norm_sq() == 21343 == 21845 - 510 + 8

    def test_norm_of_zero(self):
        assert Octonion((0,) * 8).norm_sq() == 0

    def test_times_conj_gives_norm(self):
        rnd = random.Random(11)
        for _ in range(100):
            a = rand_oct(rnd)
            n = Octonion.basis(0, a.norm_sq())
            assert a * a.conj() == n
            assert a.conj() * a == n

    @given(octonions, octonions)
    def test_norm_composition(self, a, b):
        assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()

    def test_norm_composition_over_quad(self):
        rnd = random.Random(13)
        for k in (1, 2, 3):
            for _ in range(30):
                a, b = rand_quad_oct(rnd, k), rand_quad_oct(rnd, k)
                assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()

    @given(octonions, octonions)
    def test_conj_anti_automorphism(self, a, b):
        assert (a * b).conj() == b.conj() * a.conj()


class TestAssociativityStructure:
    """The associator (ab)c - a(bc) of the table's product: nonzero in
    general, zero when two arguments coincide (alternativity)."""

    def test_associator_witness(self):
        e = Octonion.basis
        assert (e(1) * e(2)) * e(4) == e(7)
        assert e(1) * (e(2) * e(4)) == -e(7)
        assert (e(1) * e(2)) * e(4) - e(1) * (e(2) * e(4)) == e(7, 2)

    def test_quaternion_subalgebra_associates(self):
        e = Octonion.basis
        assert (e(1) * e(2)) * e(3) - e(1) * (e(2) * e(3)) == Octonion((0,) * 8)

    @given(octonions, octonions)
    def test_alternativity(self, a, b):
        zero = Octonion((0,) * 8)
        assert (a * a) * b - a * (a * b) == zero
        assert (b * a) * a - b * (a * a) == zero


class TestScalarRings:
    def test_scale_by_fraction(self):
        x = Octonion((2, 4, 0, 0, 0, 0, 0, 0)).scale(Fraction(1, 2))
        assert x == Octonion((1, 2, 0, 0, 0, 0, 0, 0))

    def test_quad_scalar_multiplication(self):
        a = Octonion.basis(1, lam(2))
        b = Octonion.basis(2, lam(2))
        prod = a * b
        assert prod == Octonion.basis(3, lam(2) * lam(2))

    def test_mixed_k_rejected(self):
        from mersenne_octonions.quadratic import RingMismatchError

        a = Octonion.basis(0, lam(1))
        b = Octonion.basis(0, lam(2))
        with pytest.raises(RingMismatchError):
            a * b

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            Octonion((1, 2, 3))

    @pytest.mark.parametrize("op", [
        lambda x: x + 1,
        lambda x: x - 1,
        lambda x: x * 2,
    ], ids=["add", "sub", "mul"])
    def test_non_octonion_operand_rejected(self, op):
        # a scalar acts only through scale
        with pytest.raises(TypeError):
            op(Octonion.basis(1))

    def test_any_iterable_of_eight(self):
        # the coordinates are copied to a tuple before the length check,
        # so a generator works and a wrong-length iterator is a ValueError
        x = Octonion(c for c in range(8))
        assert x.coords == tuple(range(8)) and x == Octonion(range(8))
        with pytest.raises(ValueError):
            Octonion(iter(range(9)))


class TestDisplay:
    """One display, the repr, which writes each coordinate in full."""

    def test_repr_of_a_sequence_octonion(self):
        x = oct_seq(Family.MERSENNE, 1, 0)
        assert repr(x) == "Octonion(coords=(0, 1, 3, 7, 15, 31, 63, 127))"
        assert str(x) == repr(x)
        y = Octonion.basis(1, lam(2))
        assert str(y) == repr(y) == (
            "Octonion(coords=(0, QuadElem(k=2, a=0, b=1), 0, 0, 0, 0, 0, 0))")

    def test_past_the_digit_limit(self, default_digit_limit):
        x = Octonion((10**5000,) + (0,) * 7)
        expected = "Octonion(coords=(1" + "0" * 5000 + ", 0, 0, 0, 0, 0, 0, 0))"
        assert str(x) == repr(x) == expected


class TestUncheckedResults:
    """The arithmetic builds its results without the constructor's
    checks; they must still be proper octonions."""

    @pytest.mark.parametrize("op", [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: -a,
        lambda a, b: a * b,
        lambda a, b: a.scale(-3),
        lambda a, b: a.conj(),
        lambda a, b: a.map_coords(abs),
        lambda a, b: cd_mul(a, b),
    ], ids=["add", "sub", "neg", "mul", "scale", "conj", "map_coords", "cd_mul"])
    def test_result_is_a_proper_octonion(self, op):
        rnd = random.Random(19)
        for _ in range(20):
            x = op(rand_oct(rnd), rand_oct(rnd))
            assert type(x) is Octonion and type(x.coords) is tuple
            checked = Octonion(tuple(x.coords))
            assert x == checked and hash(x) == hash(checked)
            # so is a pickled copy
            copy = pickle.loads(pickle.dumps(x))
            assert type(copy) is Octonion and copy == x and copy.coords == x.coords


class TestCompiledProduct:
    """The product compiled from SIGN/INDEX against the independent
    Cayley-Dickson oracle."""

    @given(octonion_pairs)
    def test_equals_cd_mul(self, pair):
        a, b = pair
        assert a * b == cd_mul(a, b)
        assert b * a == cd_mul(b, a)

    @given(octonion_pairs)
    def test_corrupted_table_differs_by_the_flipped_term(self, pair):
        # flipping e1*e2 = e3 to -e3 moves the product by -2 a1 b2 e3
        a, b = pair
        with corrupted_basis_table(1, 2):
            wrong = a * b
        flipped = a.coords[1] * b.coords[2] * -2
        assert wrong - cd_mul(a, b) == Octonion.basis(3, flipped)
        if flipped != 0:
            assert wrong != cd_mul(a, b)
        assert a * b == cd_mul(a, b)


class TestCorruptionHook:
    # the compiled sums read only a sign's sign, so a magnitude other
    # than 1 would compile as +-1, and a repeated index would drop a term
    @pytest.mark.parametrize("entry", [(2, 3), (0, 3), (-2, 3), (True, 3), (1, 4)],
                             ids=["sign 2", "sign 0", "sign -2", "sign True",
                                  "repeated index"])
    def test_malformed_table_refused(self, monkeypatch, entry):
        monkeypatch.setattr(octonion, "_product", octonion._product)
        sign = [list(row) for row in SIGN]
        index = [list(row) for row in INDEX]
        # e1 * e2 = +e3; row 1 already holds e4, at e1 * e4
        sign[1][2], index[1][2] = entry
        table = (tuple(map(tuple, sign)), tuple(map(tuple, index)))
        in_force = octonion._active_product()
        with pytest.raises(ValueError, match="basis sign|index row"):
            use_basis_table(table)
        assert octonion._active_product() is in_force
        # and so is a table without 8 rows
        with pytest.raises(ValueError, match="8 rows"):
            use_basis_table((table[0][:7], table[1][:7]))
        assert octonion._active_product() is in_force

    def test_flips_one_product_and_restores(self):
        e1, e2 = Octonion.basis(1), Octonion.basis(2)
        in_force = octonion._active_product()
        assert e1 * e2 == Octonion.basis(3)
        with corrupted_basis_table(1, 2):
            assert octonion._active_product() is not in_force
            assert e1 * e2 == Octonion.basis(3, -1)
        # the very object it replaced, not a recompile of its table
        assert octonion._active_product() is in_force
        assert e1 * e2 == Octonion.basis(3)

    def test_worker_initializer_inside_the_hook(self, monkeypatch):
        # the pool initializer puts a product in force, and the hook
        # still restores the one it replaced
        monkeypatch.setattr(octonion, "_product", octonion._product)
        e1, e2 = Octonion.basis(1), Octonion.basis(2)
        in_force = octonion._active_product()
        with corrupted_basis_table(1, 2):
            use_basis_table(active_basis_table())
            assert e1 * e2 == Octonion.basis(3, -1)
        assert octonion._active_product() is in_force
        assert e1 * e2 == Octonion.basis(3)
        # and a fresh worker's product is compiled from the given table
        use_basis_table(active_basis_table())
        assert octonion._active_product() is not in_force
        assert active_basis_table() == (SIGN, INDEX)

    def test_nested_hooks_restore_in_turn(self):
        e1, e2, e3 = Octonion.basis(1), Octonion.basis(2), Octonion.basis(3)
        outer = octonion._active_product()
        with corrupted_basis_table(1, 2):
            middle = octonion._active_product()
            with corrupted_basis_table(2, 3):
                # each hook flips the true table, so only the inner flip shows
                assert e1 * e2 == Octonion.basis(3)
                assert e2 * e3 == Octonion.basis(1, -1)
            assert octonion._active_product() is middle
            assert e1 * e2 == Octonion.basis(3, -1)
            assert e2 * e3 == Octonion.basis(1)
        assert octonion._active_product() is outer

    # -1 would count from the end (e7), True would be e1 and 8 an
    # IndexError; each must be a ValueError
    @pytest.mark.parametrize("bad", [-1, 8, True, 1.0])
    def test_out_of_range_basis_index_rejected(self, bad):
        with pytest.raises(ValueError, match="basis index"):
            Octonion.basis(bad)
        in_force = octonion._active_product()
        for i, j in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError, match="basis index"):
                with corrupted_basis_table(i, j):
                    pass
            assert octonion._active_product() is in_force
