"""Tests for the identity verifier and its report machinery."""

import collections
import dataclasses
import hashlib
import inspect
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from mersenne_octonions.octonion import corrupted_basis_table
from mersenne_octonions.sequences import Family, seq_value, seq_window
from mersenne_octonions.oct_sequences import oct_seq
from mersenne_octonions import oct_sequences, verify
from mersenne_octonions.verify import (
    IDENTITIES,
    ConfigError,
    GridConfig,
    ParamError,
    Status,
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

# What a GridConfig field or a check parameter might be given by
# mistake: small ints, strings, floats, None, bools, small tuples and
# (unhashable) lists.
_scalar = st.one_of(st.integers(-2, 3), st.text(max_size=3), st.floats(),
                    st.none(), st.booleans())
_small = st.lists(_scalar, max_size=2)
_junk = st.one_of(_scalar, _small.map(tuple), _small)


def _extra_point(name):
    """A point for check_<name> with each keyword it takes (its optional
    ones maybe left out), each a small int or anything else."""
    params = list(inspect.signature(verify._CHECKS[name]).parameters.values())[1:]
    value = st.one_of(st.integers(0, 3), _junk)
    return st.tuples(
        st.just(name), st.one_of(st.sampled_from((M, ML)), _junk),
        st.fixed_dictionaries(
            {p.name: value for p in params if p.default is p.empty},
            optional={p.name: value for p in params if p.default is not p.empty}),
    )


# Every field valid, on a tiny grid; bad extra points are still valid.
_fields = {
    "ks": st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
    "genfunc_ks": st.lists(st.integers(1, 3), max_size=2).map(tuple),
    "n_max": st.integers(1, 3),
    "specialized_n_max": st.integers(1, 3),
    "ij_max": st.integers(0, 2),
    "genfunc_terms": st.integers(2, 8),
    "families": st.lists(st.sampled_from((M, ML)), min_size=1, max_size=2).map(tuple),
    "identities": st.lists(st.sampled_from(IDENTITIES), max_size=3).map(tuple),
    "include_specialized": st.booleans(),
    "extra_points": st.lists(st.sampled_from(IDENTITIES).flatmap(_extra_point),
                             max_size=2).map(tuple),
}


class TestCatalan:
    def test_spot_pass(self):
        assert check_catalan(M, 1, 2, 1, "lr").status is Status.PASS
        assert check_catalan(M, 2, 3, 2, "rl").status is Status.PASS

    def test_r_zero_both_sides_vanish(self):
        for family in (M, ML):
            res = check_catalan(family, 3, 5, 0, "lr")
            assert res.status is Status.PASS
            assert res.residual.is_zero()

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
        for _ in range(20):
            family = rnd.choice([M, ML])
            k = rnd.randint(1, 5)
            n = rnd.randint(1, 12)
            ordering = rnd.choice(["lr", "rl"])
            a = check_cassini(family, k, n, ordering)
            b = check_catalan(family, k, n, 1, ordering)
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

    def test_general_form_skipped_at_k1(self):
        res = check_finite_sum(M, 1, 3, form="general")
        assert res.status is Status.SKIPPED
        assert "3(1-k)" in res.note

    def test_specialized_requires_k1(self):
        with pytest.raises(ParamError):
            check_finite_sum(M, 2, 3, form="specialized")


class TestOtherChecks:
    def test_binet(self):
        assert check_binet(ML, 4, 7).status is Status.PASS
        assert check_binet(M, 1, 7, specialized=True).status is Status.PASS

    def test_norm_closed(self):
        assert check_norm_closed(M, 3, 5).status is Status.PASS

    def test_specialized_needs_k1(self):
        with pytest.raises(ParamError):
            check_binet(M, 2, 3, specialized=True)


class TestRightSideCores:
    def test_specialized_catalan_core_is_int(self):
        for family in (M, ML):
            for r in range(8):
                for ordering in ("lr", "rl"):
                    core = verify._catalan_core(family, 1, r, ordering, True)
                    assert all(type(c) is int for c in core.coords)

    def test_caches_hold_the_default_grid(self, monkeypatch):
        # one key per distinct core the default grid asks for
        keys = {name: set() for name in ("catalan", "cassini", "docagne", "vajda")}
        for name, family, p in verify._grid_points(GridConfig()):
            sp = p.get("specialized")
            if name == "catalan":
                keys[name].add((family, p["k"], p["r"], p["ordering"], sp))
            elif name == "cassini":
                keys[name].add((family, p["k"], p["ordering"], sp))
            elif name == "docagne" and not sp:
                keys[name].add((family, p["k"], p["n"] - p["r"]))
            elif name == "vajda":
                keys[name].add((family, p["k"], p["j"], sp))
        assert {n: len(v) for n, v in keys.items()} == {
            "catalan": 584, "cassini": 24, "docagne": 250, "vajda": 108,
        }
        for name, cache in (("catalan", verify._catalan_core),
                            ("cassini", verify._cassini_core),
                            ("docagne", verify._docagne_core),
                            ("vajda", verify._vajda_core)):
            maxsize = cache.cache_info().maxsize
            assert maxsize is not None and maxsize >= len(keys[name])
        # the caches below are pinned by the most keys one command fills,
        # measured from cold caches: the default grid, and a verify at
        # large n; each bound holds twice that
        monkeypatch.delenv("MERSOCT_MAX_WORKERS", raising=False)
        cold = [oct_sequences.oct_seq, oct_sequences._lam_pow, oct_sequences.alpha_beta,
                verify._products, verify._catalan_core,
                verify._cassini_core, verify._docagne_core, verify._vajda_core]
        bounded = cold[:4]
        needed = [0] * len(bounded)
        for cfg in (GridConfig(), GridConfig(ks=(1, 2), n_max=120,
                                             identities=("binet", "norm_closed", "cassini"))):
            for cache in cold:
                cache.cache_clear()
            run_grid(cfg)
            needed = [max(n, c.cache_info().currsize) for n, c in zip(needed, bounded)]
        # _products: five general k plus the k = 1 specialized split
        assert needed == [490, 362, 5, 6]
        for cache, n in zip(bounded, needed):
            assert cache.cache_info().maxsize >= 2 * n
        # oct_seq caches the same keys, so seq_window's own cache only missed
        assert not hasattr(seq_window, "cache_info")


class TestCorruptedTable:
    def test_checks_fail_with_corrupted_table(self):
        # A sign flip at basis entry (i, j) cancels out of the Catalan
        # left side exactly when j - i == r, so pick r != 1 here.
        with corrupted_basis_table():
            res = check_catalan(M, 2, 4, 2, "lr")
        assert res.status is Status.FAIL
        assert not res.residual.is_zero()

    def test_clean_after_corruption(self):
        with corrupted_basis_table():
            check_cassini(ML, 2, 2)
        assert check_cassini(ML, 2, 2).status is Status.PASS


class TestGrid:
    def test_empty_identities_gives_empty_report(self):
        report = run_grid(GridConfig(identities=(), extra_points=()))
        assert report.results == ()
        assert report.summary == {"PASS": 0, "FAIL": 0, "SKIPPED": 0}

    def test_default_grid_all_pass(self, default_report):
        assert default_report.summary["FAIL"] == 0
        assert default_report.summary["PASS"] > 0

    def test_skips_only_general_finite_sum_at_k1(self, default_report):
        skipped = [r for r in default_report.results if r.status is Status.SKIPPED]
        assert skipped
        for r in skipped:
            assert r.identity == "finite_sum"
            assert r.params["k"] == 1
            assert r.params["form"] == "general"

    def test_grid_point_counts(self):
        # pins the enumeration of every identity's parameter space,
        # including Cassini's n >= 1, genfunc_ordinary's own k axis and
        # finite_sum's k = 1 form running up to n_max
        b = GridConfig(ks=(1, 3), n_max=7, specialized_n_max=4, ij_max=2,
                       genfunc_ks=(2,), genfunc_terms=5)
        c = dataclasses.replace(b, include_specialized=False, families=(ML,))
        expected = {
            "binet": (42, 16), "cassini": (72, 28), "catalan": (348, 144),
            "docagne": (174, 72), "finite_sum": (48, 16),
            "genfunc_ordinary": (2, 1), "norm_closed": (32, 16),
            "vajda": (378, 144),
        }
        for col, cfg in enumerate((b, c)):
            counts = collections.Counter(name for name, _, _ in verify._grid_points(cfg))
            assert counts == {name: n[col] for name, n in expected.items()}
        assert sum(n for n, _ in expected.values()) == 1096
        assert sum(n for _, n in expected.values()) == 437

    def test_malformed_config_rejected(self):
        for kwargs in (
            {"ks": ()},
            {"identities": ("nope",)},
            {"extra_points": (("nope", M, {}),)},
            # a field of the wrong type
            {"ks": ("a",)}, {"ks": (1.5,)}, {"ks": (True,)}, {"ks": 3},
            {"genfunc_ks": ("1",)}, {"n_max": "3"}, {"specialized_n_max": 2.0},
            {"ij_max": None}, {"genfunc_terms": "8"}, {"include_specialized": "no"},
            {"identities": (1, "nope")}, {"extra_points": (1,)},
            {"extra_points": (("binet", M, {1: 2, "k": 2}),)},
            # genfunc_ks below 1, with genfunc_ordinary selected
            {"genfunc_ks": (0,)},
        ):
            with pytest.raises(ConfigError):
                run_grid(GridConfig(**kwargs))

    def test_bad_extra_points_reported_not_fatal(self):
        cfg = GridConfig(
            ks=(2,), n_max=2, ij_max=1, identities=("cassini",),
            include_specialized=False,
            extra_points=(
                ("catalan", M, {"k": 2, "n": 1, "r": 5}),
                # integer parameters that are not ints (a bool k too),
                # and a specialized that is not a bool
                ("binet", M, {"k": "2", "n": 1}),
                ("binet", M, {"k": 2, "n": "1"}),
                ("binet", M, {"k": True, "n": 1}),
                ("catalan", M, {"k": 2, "n": 3, "r": 1.0}),
                ("catalan", M, {"k": 1, "n": 1, "r": 1, "specialized": [1]}),
            ),
        )
        report = run_grid(cfg)
        assert sorted(e["identity"] for e in report.input_errors) == [
            "binet", "binet", "binet", "catalan", "catalan", "catalan",
        ]
        assert report.summary["PASS"] > 0
        json.loads(report.to_json())

    @settings(max_examples=100, deadline=None)
    @given(st.fixed_dictionaries(_fields),
           st.dictionaries(st.sampled_from(sorted(_fields)), _junk, max_size=2))
    def test_fuzzed_config_gives_report_or_config_error(self, fields, broken):
        try:
            report = run_grid(GridConfig(**{**fields, **broken}))
        except ConfigError:
            return
        json.loads(report.to_json())

    def test_report_deterministic(self):
        cfg = GridConfig(ks=(1, 2), n_max=4, ij_max=2, genfunc_terms=8)
        a = run_grid(cfg)
        b = run_grid(cfg)
        assert a.to_json() == b.to_json()

    def test_bad_extra_point_keywords_reported_not_fatal(self):
        extra = (
            ("catalan", M, {"k": 2, "n": 1, "r": 1, "x": 0}),
            ("catalan", M, {"k": 2, "n": 1}),
            ("vajda", M, {"k": 2, "n": 1, "i": 1, "j": 1}),
        )
        cfg = GridConfig(ks=(2,), n_max=2, identities=("cassini",),
                         include_specialized=False, extra_points=extra)
        report = run_grid(cfg)
        assert sorted(e["error"] for e in report.input_errors) == [
            "got an unexpected keyword argument 'x'",
            "missing a required argument: 'r'",
        ]
        assert report.summary == {"PASS": 9, "FAIL": 0, "SKIPPED": 0}
        with pytest.raises(ConfigError):
            run_grid(GridConfig(extra_points=(("catalan", M, [2, 1, 1]),)))

    def test_string_family_is_an_input_error(self, run_fresh):
        # in a fresh interpreter, so that a regression cannot fill this
        # session's cached right sides with the other family's values
        proc = run_fresh("""
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
            extra = (("catalan", "mersenne", {"k": 2, "n": 3, "r": 1}),)
            cfg = GridConfig(ks=(2,), n_max=3, ij_max=1, include_specialized=False,
                             extra_points=extra)
            report = run_grid(cfg)
            assert report.summary["FAIL"] == 0, report.summary
            (error,) = report.input_errors
            assert error["family"] == "mersenne", error
            assert "not a family" in error["error"], error
        """)
        assert proc.returncode == 0, proc.stderr

    def test_json_schema(self):
        cfg = GridConfig(
            ks=(2,), n_max=3, ij_max=1, identities=("catalan", "finite_sum"),
            include_specialized=False,
        )
        doc = json.loads(run_grid(cfg).to_json())
        assert doc["tool"] == "mersenne-octonions"
        assert set(doc["summary"]) == {"PASS", "FAIL", "SKIPPED"}
        assert len(doc["discrepancies"]) == 3
        for entry in doc["results"]:
            assert entry["status"] in ("PASS", "FAIL", "SKIPPED")
            assert entry["family"] in ("mersenne", "mersenne-lucas")
            if entry["status"] == "PASS":
                assert entry["residual"] == ["0"] * 8

    def test_discrepancy_ledger_mentions_denominator(self, default_report):
        joined = " ".join(default_report.discrepancies)
        assert "1 - 3kx + 2x^2" in joined
        assert "conjugate" in joined
        assert "2^(n-1)" in joined

    def test_default_report_digest(self, default_report):
        # pinned byte for byte, serial: any change to it is a change to
        # the tool's output and must be declared as one
        digest = hashlib.sha256(default_report.to_json().encode()).hexdigest()
        assert digest == "2ce8b51fcb906f586ade3e49dcd5cf715e52f8d9aed4b80bc16ecc3fff2f0fff"

    def test_summary_table_shape(self, default_report):
        table = default_report.summary_table()
        assert "catalan" in table
        assert "total" in table
        assert "discrepancy ledger:" in table

    def test_parallel_run_matches_serial(self, monkeypatch):
        cfg = GridConfig(ks=(1, 2), n_max=3, ij_max=1, genfunc_terms=4)
        serial = run_grid(cfg)
        monkeypatch.setenv("MERSOCT_MAX_WORKERS", "2")
        parallel = run_grid(cfg)
        assert serial.to_json() == parallel.to_json()
