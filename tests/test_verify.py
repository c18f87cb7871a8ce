"""Tests for the identity verifier and its report machinery."""

import collections
import contextlib
import dataclasses
import enum
import hashlib
import importlib
import inspect
import itertools
import json
import pkgutil
import random
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mersenne_octonions
from mersenne_octonions.octonion import (INDEX, SIGN, Octonion, active_basis_table, cd_mul,
                                         corrupted_basis_table, use_basis_table)
from mersenne_octonions.sequences import Family, seq_value, seq_window
from mersenne_octonions.oct_sequences import _vajda_closed, alpha_beta, oct_seq, oct_seq_conj
from mersenne_octonions.quadratic import QuadElem
from mersenne_octonions import oct_sequences, sequences, verify
from mersenne_octonions.verify import (
    IDENTITIES,
    CheckResult,
    ConfigError,
    GridConfig,
    ParamError,
    Status,
    VerificationReport,
    check_binet,
    check_cassini,
    check_catalan,
    check_docagne,
    check_finite_sum,
    check_genfunc_ordinary,
    check_norm_closed,
    check_vajda,
    run_grid,
)

M, ML = Family.MERSENNE, Family.MERSENNE_LUCAS


class Three(enum.IntEnum):
    THREE = 3


# What a GridConfig field might be given by mistake: small ints,
# strings, floats, None, bools, small tuples and (unhashable) lists.
_scalar = st.one_of(st.integers(-2, 3), st.text(max_size=3), st.floats(),
                    st.none(), st.booleans())
_small = st.lists(_scalar, max_size=2)
_junk = st.one_of(_scalar, _small.map(tuple), _small)


# Every field valid, on a tiny grid.
_fields = {
    "ks": st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True).map(tuple),
    "n_max": st.integers(1, 3),
    "ij_max": st.integers(0, 2),
    "families": st.lists(st.sampled_from((M, ML)), min_size=1, max_size=2,
                         unique=True).map(tuple),
    "identities": st.lists(st.sampled_from(IDENTITIES), max_size=3, unique=True).map(tuple),
}


class TestCatalan:
    def test_spot_pass(self):
        assert check_catalan(M, 1, 2, 1, "lr").status is Status.PASS
        assert check_catalan(M, 2, 3, 2, "rl").status is Status.PASS

    def test_r_zero_both_sides_vanish(self):
        for family in (M, ML):
            res = check_catalan(family, 3, 5, 0, "lr")
            assert res.status is Status.PASS
            assert res.residual is None

    def test_orderings_have_different_rhs(self):
        # alpha*beta != beta*alpha, so the lr and rl right sides differ
        # for generic parameters, yet each matches its own left side
        lr = check_catalan(ML, 2, 4, 2, "lr")
        rl = check_catalan(ML, 2, 4, 2, "rl")
        assert lr.status is rl.status is Status.PASS
        lhs_lr = oct_seq(ML, 2, 6) * oct_seq(ML, 2, 2)
        lhs_rl = oct_seq(ML, 2, 2) * oct_seq(ML, 2, 6)
        assert lhs_lr != lhs_rl

    def test_r_exceeding_n_is_input_error(self):
        with pytest.raises(ParamError):
            check_catalan(M, 1, 2, 3)


class TestCassini:
    def test_spot_pass(self):
        assert check_cassini(M, 1, 1, "lr").status is Status.PASS
        assert check_cassini(ML, 3, 2, "rl").status is Status.PASS

    def test_equals_catalan_at_r1(self):
        rnd = random.Random(42)
        cases = [(rnd.choice([M, ML]), rnd.randint(1, 5), rnd.randint(1, 12),
                  rnd.choice(["lr", "rl"]), False) for _ in range(20)]
        # and the specialized k = 1 forms, at every key of their core
        cases += [(family, 1, n, ordering, True) for family in (M, ML)
                  for ordering in ("lr", "rl") for n in (1, 2, 7)]
        for family, k, n, ordering, sp in cases:
            a = check_cassini(family, k, n, ordering, specialized=sp)
            b = check_catalan(family, k, n, 1, ordering, specialized=sp)
            assert a.status is b.status is Status.PASS
            assert a.residual == b.residual

    def test_n_zero_is_input_error(self):
        with pytest.raises(ParamError):
            check_cassini(M, 1, 0)


class TestDocagne:
    def test_spot_pass(self):
        assert check_docagne(M, 2, 1, 3).status is Status.PASS
        assert check_docagne(ML, 1, 2, 0).status is Status.PASS

    def test_equal_indices_reduce_to_commutator(self):
        res = check_docagne(M, 2, 4, 4)
        assert res.status is Status.PASS

    @pytest.mark.parametrize("family", [M, ML])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_r_exceeding_n(self, family, k):
        # the cached core is mirrored for n - r < 0
        for n in range(6):
            for r in range(n + 1, n + 7):
                assert check_docagne(family, k, n, r).status is Status.PASS
                if k == 1:
                    res = check_docagne(family, k, n, r, specialized=True)
                    assert res.status is Status.PASS


class TestVajda:
    def test_spot_pass(self):
        assert check_vajda(M, 2, 1, 1, 2).status is Status.PASS
        assert check_vajda(ML, 1, 2, 2, 1).status is Status.PASS

    def test_i_zero_both_sides_vanish(self):
        res = check_vajda(ML, 3, 2, 0, 4)
        assert res.status is Status.PASS
        assert seq_value(M, 3, 0) == 0


class TestProductIdentitiesOffTheGrid:
    # k, n, r, i and j past the default grid; d'Ocagne also at r > n
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((M, ML)),
           st.sampled_from([(1, True)] + [(k, False) for k in range(1, 10)]),
           st.integers(0, 40), st.integers(0, 45), st.integers(0, 12),
           st.integers(0, 30), st.sampled_from(("lr", "rl")))
    def test_all_pass(self, family, k_sp, n, r, i, j, ordering):
        k, sp = k_sp
        for res in (
            check_catalan(family, k, n, r % (n + 1), ordering, specialized=sp),
            check_cassini(family, k, n + 1, ordering, specialized=sp),
            check_docagne(family, k, n, r, specialized=sp),
            check_vajda(family, k, n, i, j, specialized=sp),
        ):
            assert res.status is Status.PASS, (res.identity, res.params)


class TestGenfunc:
    def test_first_coefficient_is_s0(self):
        res = check_genfunc_ordinary(M, 1, 2)
        assert res.status is Status.PASS

    @pytest.mark.parametrize("family", [M, ML])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sixteen_coefficients(self, family, k):
        assert check_genfunc_ordinary(family, k, 16).status is Status.PASS

    def test_too_few_terms_rejected(self):
        with pytest.raises(ParamError):
            check_genfunc_ordinary(M, 1, 1)

    def test_first_mismatch_fails(self, monkeypatch):
        # one more e0 in S[5]: the expansion, run from the true S[0] and
        # S[1], first differs at coefficient 5, by minus that e0
        def shifted(family, k, n):
            return oct_seq(family, k, n) + Octonion.basis(0, int(n == 5))

        monkeypatch.setattr(verify, "oct_seq", shifted)
        res = check_genfunc_ordinary(M, 2, 8)
        assert res.status is Status.FAIL
        assert res.note == "first mismatch at coefficient 5"
        assert res.to_dict()["residual"] == ["-1"] + ["0"] * 7


class TestFiniteSum:
    def test_general_k2_with_scalar_shadow(self):
        res = check_finite_sum(M, 2, 2)
        assert res.status is Status.PASS
        # e0 shadow of the closed form: (2*6 - 34 + 1 + 0)/(-3) = 7
        assert (2 * 6 - 34 + 1 + 0) // -3 == 7 == 0 + 1 + 6

    def test_k1_mersenne_shadow(self):
        res = check_finite_sum(M, 1, 1)
        assert res.status is Status.PASS
        assert res.params["form"] == "specialized"
        # e0 shadow: M[2] - (alpha0 + 1*beta0) = 3 - 2 = 1 = M[0] + M[1]
        assert seq_value(M, 1, 2) - 2 == 1 == seq_value(M, 1, 0) + seq_value(M, 1, 1)

    def test_k1_lucas_shadow(self):
        res = check_finite_sum(ML, 1, 1)
        assert res.status is Status.PASS
        # e0 shadow: m[2] - (alpha0 - 1*beta0) = 5 - 0 = 5 = m[0] + m[1]
        assert seq_value(ML, 1, 2) - 0 == 5 == seq_value(ML, 1, 0) + seq_value(ML, 1, 1)

    def test_general_fail_residual_is_an_integer(self, monkeypatch):
        # one more e0 in the n = 2 term, which only the sum reads, shows
        # as 3(1-k) times that error: the sum is checked multiplied through
        def shifted(family, k, n):
            return oct_seq(family, k, n) + Octonion.basis(0, int(n == 2))

        monkeypatch.setattr(verify, "oct_seq", shifted)
        res = check_finite_sum(M, 2, 4)
        assert res.status is Status.FAIL
        assert res.to_dict()["residual"] == ["-3"] + ["0"] * 7

    def test_general_form_skipped_at_k1(self):
        res = check_finite_sum(M, 1, 3, form="general")
        assert res.status is Status.SKIPPED
        assert "3(1-k)" in res.note

    def test_specialized_requires_k1(self):
        # the guard's rule, not one of the check's own
        with pytest.raises(ParamError) as exc:
            check_finite_sum(M, 2, 3, form="specialized")
        assert str(exc.value) == "specialized forms are defined only at k=1"


class TestCheckCommon:
    def test_bad_parameters_raise_param_error(self, default_digit_limit):
        # every guard in _check_common, and a relational condition; a
        # string family is in TestGrid::test_string_family_is_an_input_error.
        # A message writes an int past the digit limit in full, so a huge
        # value is still a ParamError
        for check, args, kwargs in (
            (check_binet, (M, "2", 1), {}),
            (check_binet, (M, 2, "1"), {}),
            (check_binet, (M, True, 1), {}),
            (check_catalan, (M, 2, 3, 1.0), {}),
            (check_catalan, (M, 1, 1, 1), {"specialized": [1]}),
            (check_catalan, (M, 2, 1, 5), {}),
            (check_cassini, (M, 2, 3, "xy"), {}),
            (check_binet, (M, -(10**5000), 1), {}),
            (check_binet, (M, 1, -(10**5000)), {}),
            (check_catalan, (M, 1, 1, 10**5000), {}),
        ):
            with pytest.raises(ParamError):
                check(*args, **kwargs)

    @pytest.mark.parametrize("family, k, specialized, counts, message", [
        ("mersenne", 2, False, {"n": 1}, "not a family: 'mersenne'"),
        (M, 0, False, {"n": 1}, "k must be a positive integer, got 0"),
        (M, True, False, {"n": 1}, "k must be an integer, got True"),
        (M, 2, False, {"n": 3, "r": True}, "r must be an integer, got True"),
        (M, 2, False, {"n": 3, "r": 1.0}, "r must be an integer, got 1.0"),
        (M, 2, False, {"n": 3, "i": 0, "j": -1}, "need n, i, j >= 0, got n=3, i=0, j=-1"),
        (M, 1, [1], {"n": 1}, "specialized must be a bool, got [1]"),
        (M, 1, 1, {"n": 1}, "specialized must be a bool, got 1"),
        (M, 2, True, {"n": 1}, "specialized forms are defined only at k=1"),
        # several faults at once: the first rule in order names one
        ("x", True, [1], {"n": -1}, "not a family: 'x'"),
        (M, True, 1, {"n": -1}, "k must be an integer, got True"),
        (M, 0, [1], {"n": -1}, "k must be a positive integer, got 0"),
        (M, 2, True, {"n": -1}, "need n >= 0, got n=-1"),
    ])
    def test_each_rule_and_its_message(self, family, k, specialized, counts, message):
        # the guard alone, so that no input reaches a cache
        with pytest.raises(ParamError) as exc:
            verify._check_common(family, k, specialized, **counts)
        assert str(exc.value) == message

    def test_int_subclass_is_not_an_int(self):
        # the package's one integer rule, type(v) is int, as in
        # sequences._check_params: an IntEnum count is a ParamError
        with pytest.raises(ParamError) as exc:
            verify._check_common(M, 1, True, n=Three.THREE)
        assert str(exc.value) == "n must be an integer, got <Three.THREE: 3>"
        with pytest.raises(ParamError) as exc:
            check_vajda(M, 2, 1, Three.THREE, 1)
        assert str(exc.value) == "i must be an integer, got <Three.THREE: 3>"
        with pytest.raises(ParamError) as exc:
            check_binet(M, 2, Three.THREE)
        assert str(exc.value) == "n must be an integer, got <Three.THREE: 3>"


class _BigInt(int):
    """An int subclass, which the checks refuse as a count."""


_BIG = 10**5000
# str(_BIG) itself would fail under the default digit limit
_DIGITS = "1" + "0" * 5000


class TestMessagesPastTheDigitLimit:
    # a message that echoes a caller's value writes its ints in full, so
    # a huge value keeps the error's type and its text under the default
    # limit, where plain repr raises a bare ValueError
    @pytest.mark.parametrize("call, error, message", [
        (lambda: GridConfig(ks=(_BIG, _BIG)), ConfigError,
         f"ks repeats an entry: ({_DIGITS}, {_DIGITS})"),
        (lambda: GridConfig(families=(_BIG,)), ConfigError, f"not a family: {_DIGITS}"),
        (lambda: verify._check_common(_BIG, 1, False, n=1), ParamError,
         f"not a family: {_DIGITS}"),
        (lambda: verify._check_common(M, 1, False, n=_BigInt(_BIG)), ParamError,
         f"n must be an integer, got {_DIGITS}"),
        (lambda: verify._check_common(M, 1, _BIG, n=1), ParamError,
         f"specialized must be a bool, got {_DIGITS}"),
        (lambda: check_catalan(M, 2, 1, 1, ordering=_BIG), ParamError,
         f"unknown ordering {_DIGITS}"),
        (lambda: check_finite_sum(M, 2, 1, form=_BIG), ParamError, f"unknown form {_DIGITS}"),
        (lambda: seq_value(M, 1, -_BIG), ValueError, f"n must be nonnegative, got -{_DIGITS}"),
        (lambda: seq_value(M, -_BIG, 1), ValueError,
         f"k must be a positive integer, got -{_DIGITS}"),
        (lambda: Octonion.basis(_BIG), ValueError, f"a basis index is an int in 0..7, got {_DIGITS}"),
        (lambda: QuadElem(-_BIG, 0, 0), ValueError,
         f"k must be a positive integer, got -{_DIGITS}"),
        (lambda: QuadElem(2, _BIG, 1.5), TypeError, f"coordinates must be ints, got {_DIGITS}, 1.5"),
        (lambda: alpha_beta(-_BIG), ValueError, f"k must be a positive integer, got -{_DIGITS}"),
    ], ids=["GridConfig-repeat", "GridConfig-family", "guard-family", "guard-count",
            "guard-specialized", "catalan-ordering", "finite_sum-form", "seq-n", "seq-k",
            "basis-index", "QuadElem-k", "QuadElem-coords", "alpha_beta-k"])
    def test_error_keeps_its_type_and_text(self, default_digit_limit, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error
        assert str(exc.value) == message


class TestOtherChecks:
    def test_binet(self):
        assert check_binet(ML, 4, 7).status is Status.PASS
        assert check_binet(M, 1, 7, specialized=True).status is Status.PASS

    def test_norm_closed(self):
        assert check_norm_closed(M, 3, 5).status is Status.PASS

    def test_a_pass_builds_no_octonion(self, monkeypatch):
        # a PASS carries no residual, so no check builds an octonion for
        # one; only a FAIL does, for its residual
        monkeypatch.setattr(verify, "Octonion", None)
        for res in (check_binet(ML, 2, 5), check_norm_closed(M, 3, 5),
                    check_catalan(M, 2, 4, 2, "rl"), check_vajda(ML, 1, 2, 2, 1, True),
                    check_genfunc_ordinary(ML, 2, 8), check_finite_sum(M, 2, 4)):
            assert res.status is Status.PASS, res.identity
            assert res.residual is None, res.identity

    def test_specialized_needs_k1(self):
        with pytest.raises(ParamError):
            check_binet(M, 2, 3, specialized=True)


class TestLedger:
    """Each DISCREPANCIES entry quotes a stated form: evaluated here, it
    fails exactly where the entry says, while the derived form passes."""

    def test_stated_conjugate(self):
        # real part S[0] where the conjugation rule puts S[n]: S times it
        # is |S|^2 e0 only at n = 0, where the two real parts coincide
        assert "index-0" in verify.DISCREPANCIES[0]
        points = [(family, k, n) for family in (M, ML) for k in (1, 2) for n in range(6)]
        failed = set()
        for family, k, n in points:
            s, conj = oct_seq(family, k, n), oct_seq_conj(family, k, n)
            norm = Octonion.basis(0, s.norm_sq())
            assert s * conj == norm
            assert check_norm_closed(family, k, n).status is Status.PASS
            stated = Octonion((seq_value(family, k, 0), *conj.coords[1:]))
            if s * stated != norm:
                failed.add((family, k, n))
        assert failed == {(family, k, n) for family, k, n in points if n > 0}
        assert len(failed) == 20

    def test_stated_mersenne_denominator(self):
        # (S0 + x(S1 - 3k S0)) / (1 - c x + 2x^2): the derivation's c = 3k
        # gives the sequence at every k, the stated c = 3 only at k = 1
        def expand(k, c, terms=32):
            s0, s1 = oct_seq(M, k, 0), oct_seq(M, k, 1)
            coeffs = [s0, s0.scale(c) + s1 - s0.scale(3 * k)]
            while len(coeffs) < terms:
                coeffs.append(coeffs[-1].scale(c) - coeffs[-2].scale(2))
            return coeffs

        assert "1 - 3x + 2x^2" in verify.DISCREPANCIES[1]
        for k in (1, 2, 3):
            sequence = [oct_seq(M, k, n) for n in range(32)]
            assert expand(k, 3 * k) == sequence
            assert check_genfunc_ordinary(M, k, 32).status is Status.PASS
            assert (expand(k, 3) == sequence) is (k == 1), k

    def test_stated_lucas_cassini_prefactor(self):
        # the k = 1 Lucas Cassini left side is 2^(n-1) times the core,
        # never the stated 2^n times it
        assert "stated prefactor is 2^n" in verify.DISCREPANCIES[2]
        failed = 0
        for n in range(1, 21):
            for ordering in ("lr", "rl"):
                a, b = (n + 1, n - 1) if ordering == "lr" else (n - 1, n + 1)
                s = {m: oct_seq(ML, 1, m) for m in (n - 1, n, n + 1)}
                lhs = s[a] * s[b] - s[n] * s[n]
                m, y = _vajda_closed(ML, 1, 1, 1, ordering == "lr")
                core = Octonion(y).scale(m)
                assert lhs == core.scale(-(2 ** (n - 1)))
                assert check_cassini(ML, 1, n, ordering, specialized=True).status is Status.PASS
                failed += lhs != core.scale(-(2 ** n))
        assert failed == 40


class TestRightSideCores:
    def test_core_is_int(self):
        # Vajda's right side is 2^n m y: y has int coordinates, and m is
        # the recurrence's M[k,i], times -(9k^2 - 8) for the Lucas family
        for family in (M, ML):
            for opposite in (False, True):
                for i in range(9):
                    for j in range(9):
                        for k in (1, 2, 3):
                            m, y = _vajda_closed(family, k, i, j, opposite)
                            assert type(m) is int and len(y) == 8
                            assert all(type(c) is int for c in y)
                            lucas = -(9 * k * k - 8) if family is ML else 1
                            assert m == lucas * seq_value(M, k, i), (family, k, i, j)

    def test_k1_cores_are_the_printed_ones(self):
        # the k = 1 cores, taken in the ring, are the Vajda cores of the
        # printed alpha_2 = sum_r 2^r e_r and beta_2 = sum_r e_r, at the
        # roots 2, 1 with (2 - 1)^2 = 1
        alpha2, beta2 = Octonion(tuple(2**r for r in range(8))), Octonion((1,) * 8)
        ab, ba = cd_mul(alpha2, beta2), cd_mul(beta2, alpha2)
        for opposite in (False, True):
            x, y = (ab, ba) if opposite else (ba, ab)
            for i in range(9):
                for j in range(25):
                    core = (x.scale(2**j) - y).scale(2**i - 1)
                    for family, sign in (M, 1), (ML, -1):
                        m, factor = _vajda_closed(family, 1, i, j, opposite)
                        assert Octonion(factor).scale(m) == core.scale(sign), (family, i, j)

    @pytest.mark.parametrize("table", [contextlib.nullcontext, corrupted_basis_table],
                             ids=["true", "corrupted"])
    def test_a_specialized_row_is_its_general_twin(self, table):
        # both k = 1 passes take their right sides from the same ring, so
        # a specialized row has the status and residual of the general
        # row with its other params, FAIL residuals included
        cfg = GridConfig(ks=(1,), n_max=20, ij_max=3,
                         identities=("binet", "catalan", "cassini", "docagne", "vajda"))
        with table():
            results = run_grid(cfg).results

        def general_key(r):
            params = {**r.params, "specialized": False}
            return r.identity, r.family, tuple(sorted(params.items()))

        general = {general_key(r): r for r in results if not r.params["specialized"]}
        specialized = [r for r in results if r.params["specialized"]]
        assert len(specialized) == 2180
        for r in specialized:
            twin = general[general_key(r)]
            assert (r.status, r.residual) == (twin.status, twin.residual), r
        fails = sum(r.status is Status.FAIL for r in specialized)
        assert (fails > 0) is (table is corrupted_basis_table)

    def test_caches_hold_the_default_grid(self, monkeypatch):
        # one _vajda_y key (k, j, opposite) per Y_j of the Vajda (i, j) the
        # default grid asks for: Catalan (r, r), Cassini (1, 1), d'Ocagne
        # (1, |n - r|) and Vajda (i, j); Catalan and Cassini take their
        # products reversed in "lr", d'Ocagne when r > n
        keys = set()
        for name, family, p in verify._grid_points(GridConfig()):
            k = p["k"]
            if name == "catalan":
                keys.add((k, p["r"], p["ordering"] == "lr"))
            elif name == "cassini":
                keys.add((k, 1, p["ordering"] == "lr"))
            elif name == "docagne":
                d = p["n"] - p["r"]
                keys.add((k, abs(d), d < 0))
            elif name == "vajda":
                keys.add((k, p["j"], False))
        assert len(keys) == 250
        # the caches below are pinned by the most keys one command fills,
        # measured from cold caches: the default grid, and a verify at
        # large n; each bound holds twice that
        monkeypatch.delenv("MERSOCT_MAX_WORKERS", raising=False)
        bounded = [oct_sequences.oct_seq, oct_sequences._lam_pow, oct_sequences.alpha_beta,
                   oct_sequences._vajda_y]
        cold = bounded + [verify._table_product]
        needed = [0] * len(bounded)
        for cfg in (GridConfig(), GridConfig(ks=(1, 2), n_max=120,
                                             identities=("binet", "norm_closed", "cassini"))):
            for cache in cold:
                cache.cache_clear()
            run_grid(cfg)
            if cfg == GridConfig():
                # the grid fills exactly the keys derived above
                assert oct_sequences._vajda_y.cache_info().currsize == len(keys)
                # every left-side product goes through the product cache:
                # two per Catalan, Cassini, d'Ocagne and Vajda point, of
                # which 10,600 are distinct.  Grid order keeps each block's
                # products close together, so 1,024 entries miss 17,530
                # times; a grid order that lost that locality would miss
                # far more often
                products = verify._table_product.cache_info()
                assert products.hits + products.misses == 70_696
                assert products.misses <= 21_000
                assert products.maxsize == 1024
            needed = [max(n, c.cache_info().currsize) for n, c in zip(needed, bounded)]
        # alpha_beta: one per k; _vajda_y: the 250 keys derived above
        assert needed == [490, 362, 5, 250]
        for cache, n in zip(bounded, needed):
            assert cache.cache_info().maxsize >= 2 * n
        # oct_seq caches the same keys, so seq_window's own cache only missed
        assert not hasattr(seq_window, "cache_info")


    def test_right_sides_never_read_the_recurrence(self, monkeypatch):
        # with every left-side octonion cached, the checks reach the
        # recurrence only through a right side, which must not use it
        n_max = 4
        for family in (M, ML):
            for k in (1, 2, 3):
                for n in range(2 * n_max + 4):
                    oct_seq(family, k, n)
        oct_sequences._vajda_y.cache_clear()
        oct_sequences._lam_pow.cache_clear()

        def recurrence(*args):
            raise AssertionError("a right side ran the recurrence")

        monkeypatch.setattr(sequences, "seq_terms", recurrence)
        for family in (M, ML):
            for k, sp in ((1, True), (1, False), (2, False), (3, False)):
                for n in range(n_max + 1):
                    results = [check_binet(family, k, n, sp), check_norm_closed(family, k, n)]
                    if n:
                        results += [check_cassini(family, k, n, o, sp) for o in ("lr", "rl")]
                    for r in range(n + 1):
                        results += [check_catalan(family, k, n, r, o, sp) for o in ("lr", "rl")]
                    # d'Ocagne with r <= n and with r > n
                    results += [check_docagne(family, k, n, r, sp) for r in range(n + 3)]
                    results += [check_vajda(family, k, n, i, j, sp)
                                for i in range(3) for j in range(3)]
                    assert all(r.status is Status.PASS for r in results), (family, k, n)


class TestCorruptedTable:
    def test_checks_fail_with_corrupted_table(self):
        # A sign flip at basis entry (i, j) cancels out of the Catalan
        # left side exactly when j - i == r, so pick r != 1 here.
        with corrupted_basis_table():
            res = check_catalan(M, 2, 4, 2, "lr")
        assert res.status is Status.FAIL
        assert any(res.residual.coords)

    # (check, its arguments after family and k, the left side's a, b, c,
    # d in S[a]S[b] - S[c]S[d]); Catalan with r = 1 in "lr" order, which
    # is Cassini's "lr", cannot see the flip at e1 e2 (see above)
    @pytest.mark.parametrize("check, args, abcd", [
        (check_catalan, (4, 2, "lr"), (6, 2, 4, 4)),
        (check_catalan, (4, 2, "rl"), (2, 6, 4, 4)),
        (check_cassini, (3, "rl"), (2, 4, 3, 3)),
        (check_docagne, (4, 2), (2, 5, 3, 4)),
        (check_docagne, (2, 4), (4, 3, 5, 2)),
        (check_vajda, (3, 1, 2), (4, 5, 3, 6)),
    ], ids=["catalan-lr", "catalan-rl", "cassini-rl",
            "docagne-r-le-n", "docagne-r-gt-n", "vajda"])
    def test_residual_is_the_corrupted_left_side_minus_the_true_one(self, check, args, abcd):
        # the true left side equals the right side, so a FAIL's residual
        # (left minus right) is what the corruption moved the left side by
        a, b, c, d = abcd
        for family in (M, ML):
            for k, sp in ((1, True), (1, False), (2, False)):
                def left():
                    s = [oct_seq(family, k, m) for m in abcd]
                    return s[0] * s[1] - s[2] * s[3]

                true = left()
                with corrupted_basis_table():
                    wrong = left()
                    res = check(family, k, *args, specialized=sp)
                assert res.status is Status.FAIL, (family, k, sp)
                assert type(res.residual) is Octonion
                assert type(res.residual.coords) is tuple
                assert all(type(x) is int for x in res.residual.coords)
                assert res.residual == wrong - true, (family, k, sp)

    @staticmethod
    @contextlib.contextmanager
    def _index_swapped(i, j1, j2):
        """The true table with e_i e_j1 and e_i e_j2 sent to each other's
        basis element, in force for the block."""
        index = [list(row) for row in INDEX]
        index[i][j1], index[i][j2] = index[i][j2], index[i][j1]
        use_basis_table((SIGN, tuple(map(tuple, index))))
        try:
            yield
        finally:
            use_basis_table((SIGN, INDEX))

    def test_every_sign_flip_fails_the_product_identities(self):
        # Binet, the generating function and the finite sum take no
        # octonion product, so they cannot see the table; the norm, taken
        # as S times its conjugate, and the product identities (in the
        # general pass and in the k = 1 specialized pass) must fail under
        # each of the 64 sign flips and each of the 8 * 28 swaps of two
        # indices within a row (a single redirected index does not compile)
        cfg = GridConfig(ks=(1, 2), n_max=3, ij_max=1)
        assert len(list(verify._grid_points(cfg))) == 380
        expected = {(name, sp) for name in ("catalan", "cassini", "docagne", "vajda")
                    for sp in (False, True)} | {("norm_closed", None)}
        mutants = [(corrupted_basis_table, (i, j)) for i in range(8) for j in range(8)]
        mutants += [(self._index_swapped, (i, *pair)) for i in range(8)
                    for pair in itertools.combinations(range(8), 2)]
        assert len(mutants) == 64 + 224
        for mutant, args in mutants:
            with mutant(*args):
                report = run_grid(cfg)
            failed = {(r.identity, r.params.get("specialized")) for r in report.results
                      if r.status is Status.FAIL}
            assert failed == expected, (mutant.__name__, args)
        assert active_basis_table() == (SIGN, INDEX)

    def test_warm_products_do_not_hide_a_corrupted_table(self):
        # the clean run fills the left sides' product cache first; the
        # corrupted table must still be the one the products come from,
        # and the clean table again after it
        points = [
            (check_catalan, (M, 2, 4, 2, "lr")),
            (check_catalan, (ML, 2, 4, 2, "rl")),
            (check_catalan, (M, 1, 4, 2, "lr", True)),
            (check_cassini, (M, 3, 3, "rl")),
            (check_docagne, (M, 2, 4, 1)),  # r <= n
            (check_docagne, (ML, 2, 2, 4)),  # r > n
            (check_vajda, (M, 2, 2, 1, 2)),
            (check_vajda, (ML, 1, 3, 2, 1, True)),
        ]

        def statuses():
            return [check(*args).status for check, args in points]

        assert statuses() == [Status.PASS] * len(points)
        with corrupted_basis_table():
            assert statuses() == [Status.FAIL] * len(points)
        assert statuses() == [Status.PASS] * len(points)

    def test_clean_after_corruption(self):
        with corrupted_basis_table():
            check_cassini(ML, 2, 2)
        assert check_cassini(ML, 2, 2).status is Status.PASS

    def test_corrupted_product_report_digest(self):
        # the FAIL rows' residuals pinned byte for byte, as CI pins the
        # console script's report of the same run
        cfg = GridConfig(ks=(1, 2), n_max=6,
                         identities=("catalan", "cassini", "docagne", "vajda"))
        with corrupted_basis_table():
            report = run_grid(cfg)
        assert report.summary == {"PASS": 534, "FAIL": 3444, "SKIPPED": 0}
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "a68409338dc26b6538b4b77cf085e9ab99528a72533a4f54f8b053defce5014c"


# Row text for the frame: JSON's specials, %, non-ASCII and controls.
_row_text = st.text(st.one_of(st.sampled_from('%"\\{}:,\x00\n\x1f\x7f\u00e9\u20ac\U0001d11e'),
                              st.characters()), max_size=12)


class TestRowText:
    # a row without a residual is written as its params in a cached
    # frame; its text must still be its to_dict row, encoded

    @staticmethod
    def _assert_rows_are_their_dicts(results):
        for r in results:
            assert r.to_json() == verify._encode(r.to_dict()), r

    def test_default_rows(self, default_report):
        self._assert_rows_are_their_dicts(default_report.results)

    def test_corrupted_product_rows(self):
        cfg = GridConfig(ks=(1, 2), n_max=6,
                         identities=("catalan", "cassini", "docagne", "vajda"))
        with corrupted_basis_table():
            report = run_grid(cfg)
        assert {r.status for r in report.results} == {Status.PASS, Status.FAIL}
        self._assert_rows_are_their_dicts(report.results)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_row_text, _row_text, st.sampled_from((M, ML)),
           st.sampled_from((Status.PASS, Status.SKIPPED)),
           st.dictionaries(_row_text, st.one_of(st.booleans(), _row_text, st.integers(),
                                                st.just(10**5000)), max_size=4))
    def test_any_text(self, default_digit_limit, identity, note, family, status, params):
        row = CheckResult(identity, family, params, status, note=note)
        self._assert_rows_are_their_dicts([row])
        # and the text json.dumps writes, escaped to ASCII
        with sequences._no_digit_limit():
            expected = json.dumps(row.to_dict(), sort_keys=True, separators=(",", ":"))
        assert row.to_json() == expected

    def test_both_encoder_builds_write_the_same_text(self, default_digit_limit, monkeypatch):
        # the C encoder built once, and JSONEncoder.encode where there is none
        with corrupted_basis_table():
            report = run_grid(GridConfig(ks=(1, 2), n_max=3, ij_max=1))
        big = VerificationReport((CheckResult("binet", M, {"k": 10**5000, "n": 0},
                                              Status.PASS, note='%"\\\x00\u00e9'),),
                                 GridConfig(ks=(10**5000,)))
        texts = [report.to_json(), big.to_json()]
        assert not isinstance(getattr(verify._compact, "__self__", None), json.JSONEncoder)
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        fallback = verify._compact_encoder()
        assert isinstance(fallback.__self__, json.JSONEncoder)
        monkeypatch.setattr(verify, "_compact", fallback)
        verify._frame.cache_clear()
        try:
            assert [report.to_json(), big.to_json()] == texts
        finally:
            verify._frame.cache_clear()

    def test_caches_are_bounded_and_at_most_half_full(self, monkeypatch):
        # every lru_cache of the package has a bound, and a cold default
        # run fills at most half of it; the left sides' product cache is
        # exempt, as its comment explains
        modules = [importlib.import_module(f"mersenne_octonions.{m.name}")
                   for m in pkgutil.iter_modules(mersenne_octonions.__path__)]
        caches = {f"{module.__name__}.{name}": fn for module in modules
                  for name, fn in vars(module).items()
                  if hasattr(fn, "cache_info") and fn.__module__ == module.__name__}
        decorated = sum(re.subn(r"@(functools\.)?(lru_)?cache\b", "",
                                inspect.getsource(module))[1] for module in modules)
        assert len(caches) == decorated
        for name, cache in caches.items():
            assert cache.cache_info().maxsize is not None, name
        assert sorted(name.rsplit(".", 1)[1] for name in caches) == [
            "_frame", "_lam_pow", "_table_product", "_vajda_y", "alpha_beta", "oct_seq"]
        del caches["mersenne_octonions.verify._table_product"]
        monkeypatch.delenv("MERSOCT_MAX_WORKERS", raising=False)
        for cache in caches.values():
            cache.cache_clear()
        run_grid().to_json()
        for name, cache in caches.items():
            info = cache.cache_info()
            assert 0 < 2 * info.currsize <= info.maxsize, (name, info)


class TestGrid:
    def test_grid_without_points_is_config_error(self):
        # no identity, or only the generating function past its k <= 3
        for cfg in (GridConfig(identities=()),
                    GridConfig(ks=(4,), identities=("genfunc_ordinary",))):
            with pytest.raises(ConfigError, match="^the selected identities have no "
                                                  "grid point at these k and n$"):
                run_grid(cfg)

    def test_default_grid_all_pass(self, default_report):
        assert default_report.summary["FAIL"] == 0
        assert default_report.summary["PASS"] > 0
        # a row holds a residual only when it FAILs, as its JSON row does
        assert all(r.residual is None for r in default_report.results)

    def test_skips_only_general_finite_sum_at_k1(self, default_report):
        skipped = [r for r in default_report.results if r.status is Status.SKIPPED]
        assert skipped
        for r in skipped:
            assert r.identity == "finite_sum"
            assert r.params["k"] == 1
            assert r.params["form"] == "general"

    def test_grid_point_counts(self):
        # pins the enumeration of every identity's parameter space,
        # including Cassini's n >= 1, genfunc_ordinary at the k <= 3 of
        # ks, the specialized pass up to min(20, n_max) and finite_sum's
        # k = 1 form running up to n_max
        b = GridConfig(ks=(1, 2, 4), n_max=22, ij_max=2)
        c = dataclasses.replace(b, n_max=7, families=(ML,))
        d = GridConfig(ks=(1, 3), n_max=7, ij_max=2, families=(ML,))
        expected = {
            "binet": (180, 32, 24), "cassini": (344, 56, 42),
            "catalan": (4236, 288, 216), "docagne": (2118, 144, 108),
            "finite_sum": (184, 32, 24), "genfunc_ordinary": (4, 2, 2),
            "norm_closed": (138, 24, 16), "vajda": (1620, 288, 216),
        }
        for col, cfg in enumerate((b, c, d)):
            counts = collections.Counter(name for name, _, _ in verify._grid_points(cfg))
            assert counts == {name: n[col] for name, n in expected.items()}
        assert [sum(n[col] for n in expected.values()) for col in range(3)] == [8824, 866, 648]

    def test_malformed_config_rejected(self, default_digit_limit):
        for kwargs in (
            {"ks": ()}, {"families": ()},
            {"identities": ("nope",)},
            # an empty name, as `--identities ""` gives
            {"identities": ("",)},
            # a repeated entry
            {"ks": (2, 2)}, {"families": (M, M)}, {"identities": ("cassini", "cassini")},
            # a field of the wrong type
            {"ks": ("a",)}, {"ks": (1.5,)}, {"ks": (True,)}, {"ks": 3},
            {"n_max": "3"}, {"n_max": 2.0}, {"ij_max": None},
            {"identities": (1, "nope")},
            # an unknown name is written in full, even past the digit limit
            {"identities": (10**5000,)},
            # an int subclass is not an int, as in the checks' guard
            {"ks": (Three.THREE,)}, {"n_max": Three.THREE}, {"ij_max": Three.THREE},
        ):
            # refused when built, and when rebuilt by dataclasses.replace
            with pytest.raises(ConfigError):
                GridConfig(**kwargs)
            with pytest.raises(ConfigError):
                dataclasses.replace(GridConfig(), **kwargs)

    @settings(max_examples=100, deadline=None)
    @given(st.fixed_dictionaries(_fields),
           st.dictionaries(st.sampled_from(sorted(_fields)), _junk, max_size=2))
    def test_fuzzed_config_gives_report_or_config_error(self, fields, broken):
        try:
            report = run_grid(GridConfig(**{**fields, **broken}))
        except ConfigError:
            return
        json.loads(report.to_json())

    def test_serial_grid_is_evaluated_as_it_is_generated(self, monkeypatch):
        # each point's row exists before the next point is generated, so
        # a serial run never holds the grid's point list
        seen, evaluated = [], []
        points, evaluate = verify._GRIDS["binet"], verify._evaluate_point

        def recording(cfg):
            for params in points(cfg):
                seen.append(len(evaluated))
                yield params

        def counting(point):
            evaluated.append(point)
            return evaluate(point)

        monkeypatch.setitem(verify._GRIDS, "binet", recording)
        monkeypatch.setattr(verify, "_evaluate_point", counting)
        monkeypatch.setenv("MERSOCT_MAX_WORKERS", "1")
        report = run_grid(GridConfig(ks=(2,), n_max=3, families=(M,), identities=("binet",)))
        assert len(report.results) == 4
        assert seen == [0, 1, 2, 3]

    def test_empty_report_keeps_its_ending(self):
        # run_grid never returns a report with no row, but one still
        # writes its results as an empty list on two lines
        report = VerificationReport((), GridConfig())
        assert report.to_json().endswith('"results":[\n\n]}\n')
        assert report.to_dict()["results"] == []
        assert json.loads(report.to_json())["results"] == []

    def test_json_is_the_to_dict_document_in_chunks(self):
        # the header, one chunk per row, then the end
        with corrupted_basis_table():
            report = run_grid(GridConfig(ks=(1, 2), n_max=3, ij_max=1))
        chunks = list(report.json_chunks())
        assert len(chunks) == len(report.results) + 2
        assert "".join(chunks) == report.to_json()
        assert json.loads(report.to_json()) == json.loads(json.dumps(report.to_dict()))

    def test_report_deterministic(self):
        cfg = GridConfig(ks=(1, 2), n_max=4, ij_max=2)
        a = run_grid(cfg)
        b = run_grid(cfg)
        assert a.to_json() == b.to_json()

    def test_string_family_is_an_input_error(self, run_fresh):
        # in a fresh interpreter, so that a regression cannot fill this
        # session's cached right sides with the other family's values
        proc = run_fresh("""
            import json

            from mersenne_octonions import verify
            from mersenne_octonions.verify import GridConfig, ParamError, run_grid

            for name, check in verify._CHECKS.items():
                params = next(iter(verify._GRIDS[name](GridConfig(ks=(2,)))))
                try:
                    check("mersenne", **params)
                except ParamError as exc:
                    assert "not a family" in str(exc), exc
                else:
                    raise AssertionError(f"{name} took a string family")
            report = run_grid(GridConfig(ks=(2,), n_max=3, ij_max=1))
            assert report.summary["FAIL"] == 0, report.summary
            assert json.loads(report.to_json())["input_errors"] == []
        """)
        assert proc.returncode == 0, proc.stderr

    def test_json_schema(self):
        cfg = GridConfig(
            ks=(1, 2), n_max=10, ij_max=1, identities=("catalan", "finite_sum"),
        )
        text = run_grid(cfg).to_json()
        doc = json.loads(text)
        assert doc["schema_version"] == 2
        assert doc["tool"] == "mersenne-octonions"
        assert set(doc["summary"]) == {"PASS", "FAIL", "SKIPPED"}
        assert doc["input_errors"] == []
        assert len(doc["discrepancies"]) == 3
        for entry in doc["results"]:
            assert entry["status"] in ("PASS", "SKIPPED")
            assert entry["family"] in ("mersenne", "mersenne-lucas")
            assert entry["residual"] is None
        assert doc["summary"]["SKIPPED"] > 0
        # one row per line, each a JSON object on its own
        header, *lines, end = text.splitlines()
        assert header.endswith('"results":[') and end == "]}"
        rows = [json.loads(line.removesuffix(",")) for line in lines]
        assert rows == doc["results"]
        # grid order: n = 2 before n = 10, which a string sort reverses
        ns = [r["params"]["n"] for r in rows if r["identity"] == "finite_sum"
              and r["family"] == "mersenne" and r["params"]["k"] == 2]
        assert ns.index(2) < ns.index(10)
        assert [(r["identity"], r["family"], r["params"]) for r in rows] == [
            (name, family.value, params) for name, family, params in verify._grid_points(cfg)]
        # a FAIL row keeps its 8 residual coordinates
        with corrupted_basis_table():
            doc = json.loads(run_grid(GridConfig(ks=(2,), n_max=3, identities=("cassini",)))
                             .to_json())
        failed = [r["residual"] for r in doc["results"] if r["status"] == "FAIL"]
        assert failed
        for residual in failed:
            assert len(residual) == 8 and all(isinstance(c, str) for c in residual)
            assert any(c != "0" for c in residual)

    def test_fail_residual_past_the_digit_limit(self):
        # the library, not only the CLI, writes and shows a residual of any length,
        # and leaves the interpreter's int->str limit as it found it
        row = CheckResult("binet", M, {"k": 2, "n": 1}, Status.FAIL,
                          Octonion((10**5000,) + (0,) * 7))
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            text = VerificationReport((row,), GridConfig()).to_json()
            shown = repr(row)
            # a pool report decodes its results from the rows' text
            assert verify._decode_rows(row.to_json()) == (row,)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(old)
        (result,) = json.loads(text)["results"]
        assert result["residual"] == ["1" + "0" * 5000] + ["0"] * 7
        assert "residual=Octonion(coords=(1" + "0" * 5000 + ", 0, 0, 0, 0, 0, 0, 0))" in shown

    def test_report_records_its_config(self):
        cfg = GridConfig(ks=(3, 1), n_max=4, ij_max=2, families=(ML,),
                         identities=("vajda", "binet"))
        text = run_grid(cfg).to_json()
        config = json.loads(text)["config"]
        assert config == {"ks": [3, 1], "n_max": 4, "ij_max": 2,
                          "families": ["mersenne-lucas"], "identities": ["vajda", "binet"]}
        again = GridConfig(
            ks=tuple(config["ks"]), n_max=config["n_max"], ij_max=config["ij_max"],
            families=tuple(map(Family, config["families"])),
            identities=tuple(config["identities"]),
        )
        assert again == cfg
        assert run_grid(again).to_json() == text

    def test_discrepancy_ledger_mentions_denominator(self, default_report):
        joined = " ".join(default_report.discrepancies)
        assert "1 - 3kx + 2x^2" in joined
        assert "conjugate" in joined
        assert "2^(n-1)" in joined

    def test_default_report_digest(self, default_report):
        # pinned byte for byte, serial: any change to it is a change to
        # the tool's output and must be declared as one
        digest = hashlib.sha256(default_report.to_json().encode()).hexdigest()
        assert digest == "678e411e401209d5a24184339d080b86debf76b0fbe8c4f4972f43e787cedd49"

    def test_summary_table_shape(self, default_report):
        table = default_report.summary_table()
        assert "catalan" in table
        assert "total" in table
        assert "discrepancy ledger:" in table

    def test_summary_table_columns_line_up(self):
        # every selected name is shorter than the header's "identity"
        cfg = GridConfig(ks=(2,), n_max=2, ij_max=0, identities=("vajda",))
        header, *rows = run_grid(cfg).summary_table().split("\n\n")[0].splitlines()
        assert [row.split()[0] for row in rows] == ["vajda", "vajda", "total"]
        for row in rows:
            assert len(row) == len(header)
        for row, family in zip(rows, ("mersenne", "mersenne-lucas")):
            assert row.index(family) == header.index("family")

    def test_parallel_run_matches_serial(self, monkeypatch):
        def assert_same(serial, parallel):
            # a pool report writes its text, summary and table from its
            # workers' rows and counts, without decoding its results
            assert parallel.to_json() == serial.to_json()
            assert parallel.summary == serial.summary
            assert parallel.failed == serial.failed
            assert parallel.summary_table() == serial.summary_table()
            assert "results" not in vars(parallel)
            # decoded when asked, the results are the serial ones, and
            # only a FAIL holds a residual; so the two reports are equal
            assert parallel.results == serial.results
            assert parallel == serial and serial == parallel
            assert type(parallel) is not type(serial)
            for r in parallel.results:
                assert (r.residual is None) is (r.status is not Status.FAIL)
            assert parallel.to_dict() == serial.to_dict()

        cfg = GridConfig(ks=(1, 2), n_max=3, ij_max=1)
        serial = run_grid(cfg)
        # a pool, even on one CPU
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("MERSOCT_MAX_WORKERS", "2")
        assert_same(serial, run_grid(cfg))
        # FAIL rows carry their residuals across the pool unchanged
        with corrupted_basis_table():
            parallel = run_grid(cfg)
            monkeypatch.setenv("MERSOCT_MAX_WORKERS", "1")
            serial = run_grid(cfg)
        assert serial.summary["FAIL"] > 0
        assert_same(serial, parallel)

    def test_params_past_the_digit_limit(self, default_digit_limit, monkeypatch):
        # k = 10**5000 is written in full in the header's config and in
        # every row, serially and by the pool's workers alike
        cfg = GridConfig(ks=(10**5000,), n_max=1, identities=("binet",))
        serial = run_grid(cfg).to_json()
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("MERSOCT_MAX_WORKERS", "2")
        assert run_grid(cfg).to_json() == serial
        # in the header's ks and in each of the 4 rows' params
        assert serial.count("1" + "0" * 5000) == 1 + 4
        with sequences._no_digit_limit():
            doc = json.loads(serial)
        assert doc["config"]["ks"] == [10**5000]
        assert doc["summary"] == {"PASS": 4, "FAIL": 0, "SKIPPED": 0}

    def test_worker_count_is_clamped(self, monkeypatch):
        # a pool starts all its workers up front, so a huge request must
        # not reach it; the stub pool starts no process
        pools = []

        class StubPool:
            def __init__(self, max_workers, initializer, initargs):
                pools.append(self)
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, points, chunksize):
                assert chunksize * self.max_workers >= len(points)
                return map(fn, points)

        cfg = GridConfig(ks=(2,), n_max=1, identities=("binet",))  # 4 points
        serial = run_grid(cfg).to_json()
        monkeypatch.setattr(verify, "ProcessPoolExecutor", StubPool)
        monkeypatch.setenv("MERSOCT_MAX_WORKERS", "100000")
        for cpus, workers in ((2, 2), (64, 4)):
            monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
            assert run_grid(cfg).to_json() == serial
            assert pools.pop().max_workers == workers
        # one CPU, or an unknown count, runs serially without a pool
        for cpus in (1, None):
            monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
            assert run_grid(cfg).to_json() == serial
        assert pools == []
