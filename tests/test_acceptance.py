"""Acceptance suite: one test per acceptance criterion, all exact.

Each test prints a single "ACCEPTANCE nn <name>: PASS/FAIL" line (visible
with `pytest -s`).  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

from mersenne_octonions.octonion import Octonion, cd_mul
from mersenne_octonions.oct_sequences import (
    oct_seq,
    oct_seq_closed,
    oct_seq_norm_sq_closed,
    seq_binet,
)
from mersenne_octonions.quadratic import QuadElem, discriminant, lam
from mersenne_octonions.sequences import Family, seq_fast, seq_value
from mersenne_octonions.verify import Status

M, ML = Family.MERSENNE, Family.MERSENNE_LUCAS
FAMILIES = (M, ML)


def _report(num, name, failures):
    ok = not failures
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}): {failures[:5]}"


def _rand_oct(rnd, lo=-9, hi=9):
    return Octonion(tuple(rnd.randint(lo, hi) for _ in range(8)))


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


def test_01_table_fidelity_and_oracle():
    failures = []
    for i in range(8):
        for j in range(8):
            sign, index = EXPECTED_TABLE[i][j]
            expected = Octonion.basis(index, sign)
            a, b = Octonion.basis(i), Octonion.basis(j)
            if a * b != expected:
                failures.append(("table", i, j))
            if cd_mul(a, b) != expected:
                failures.append(("oracle-basis", i, j))
    rnd = random.Random(0xC0FFEE)
    for t in range(10_000):
        a, b = _rand_oct(rnd), _rand_oct(rnd)
        if cd_mul(a, b) != a * b:
            failures.append(("oracle-random", t))
    _report(1, "table fidelity + Cayley-Dickson oracle", failures)


def test_02_norm_closed_forms_k1():
    failures = []
    if oct_seq_norm_sq_closed(M, 1, 0) != 21343:
        failures.append("spot 21343")
    if oct_seq_norm_sq_closed(ML, 1, 0) != 22363:
        failures.append("spot 22363")
    for n in range(21):
        if oct_seq(M, 1, n).norm_sq() != 21845 * 4**n - 510 * 2**n + 8:
            failures.append(("mersenne", n))
        if oct_seq(ML, 1, n).norm_sq() != 21845 * 4**n + 510 * 2**n + 8:
            failures.append(("lucas", n))
    _report(2, "k=1 norm closed forms", failures)


def test_03_norm_closed_forms_general_k():
    failures = []
    for family in FAMILIES:
        for k in range(1, 6):
            for n in range(17):
                direct = sum(seq_value(family, k, n + r) ** 2 for r in range(8))
                if oct_seq_norm_sq_closed(family, k, n) != direct:
                    failures.append((family.value, k, n))
    _report(3, "general-k norm closed forms", failures)


def test_04_binet_equivalence():
    failures = []
    for family in FAMILIES:
        for k in range(1, 7):
            for n in range(65):
                v = seq_value(family, k, n)
                if seq_binet(family, k, n) != v or seq_fast(family, k, n) != v:
                    failures.append(("scalar", family.value, k, n))
        for k in range(1, 6):
            for n in range(25):
                if oct_seq_closed(family, k, n) != oct_seq(family, k, n):
                    failures.append(("octonion", family.value, k, n))
    _report(4, "Binet equivalence (scalar and octonion)", failures)


def _grid_results(report, identity, specialized):
    return [
        r for r in report.results
        if r.identity == identity
        and r.params.get("specialized", False) is specialized
    ]


def test_05_identity_suites(default_report):
    failures = []
    expected_counts = {
        # families * orderings * k * points(n<=24, r<=n / i,j<=8)
        "catalan": 2 * 2 * 5 * 325,
        "cassini": 2 * 2 * 5 * 24,
        "docagne": 2 * 5 * 325,
        "vajda": 2 * 5 * 25 * 81,
    }
    for identity, count in expected_counts.items():
        results = _grid_results(default_report, identity, specialized=False)
        if len(results) != count:
            failures.append((identity, "count", len(results), count))
        for r in results:
            if r.status is not Status.PASS or r.residual is not None:
                failures.append((identity, r.params))
    _report(5, "Catalan/Cassini/d'Ocagne/Vajda suites", failures)


def test_06_k1_specializations(default_report):
    failures = []
    seen = set()
    for identity in ("binet", "catalan", "cassini", "docagne", "vajda"):
        for r in _grid_results(default_report, identity, specialized=True):
            seen.add(identity)
            if r.params["k"] != 1 or r.params["n"] > 20:
                failures.append((identity, "range", r.params))
            if r.status is not Status.PASS:
                failures.append((identity, r.params))
    if seen != {"binet", "catalan", "cassini", "docagne", "vajda"}:
        failures.append(("missing identities", seen))
    # same left sides at k=1: the general checks on the same params all
    # PASS too, so both right-hand forms equal one shared left side
    for identity in ("catalan", "cassini", "docagne", "vajda"):
        for r in _grid_results(default_report, identity, specialized=False):
            if r.params["k"] == 1 and r.status is not Status.PASS:
                failures.append((identity, "general-at-k1", r.params))
    _report(6, "k=1 specialized forms", failures)


def test_07_ordinary_generating_functions(default_report):
    failures = []
    results = [r for r in default_report.results if r.identity == "genfunc_ordinary"]
    got = {(r.family, r.params["k"]) for r in results}
    want = {(f, k) for f in FAMILIES for k in (1, 2, 3)}
    if got != want:
        failures.append(("coverage", got))
    for r in results:
        if r.params["terms"] != 32 or r.status is not Status.PASS:
            failures.append(r.params)
    if not any("1 - 3kx + 2x^2" in d for d in default_report.discrepancies):
        failures.append("denominator discrepancy missing from ledger")
    _report(7, "ordinary generating functions", failures)


def test_08_finite_sums(default_report):
    failures = []
    results = [r for r in default_report.results if r.identity == "finite_sum"]
    for r in results:
        k, form = r.params["k"], r.params["form"]
        if form == "general" and k == 1:
            if r.status is not Status.SKIPPED:
                failures.append(("should skip", r.params))
        elif r.status is not Status.PASS:
            failures.append((r.family.value, r.params))
    ks_general = {r.params["k"] for r in results if r.params["form"] == "general"}
    if ks_general != {1, 2, 3, 4, 5}:
        failures.append(("coverage", ks_general))
    # worked scalar shadows
    if (2 * 6 - 34 + 1 + 0) // -3 != 7:
        failures.append("k=2 shadow")
    if seq_value(M, 1, 2) - 2 != 1 or seq_value(ML, 1, 2) - 0 != 5:
        failures.append("k=1 shadows")
    _report(8, "finite sums", failures)


def test_09_algebraic_property_suites():
    failures = []
    rnd = random.Random(0xA11CE)

    def rq(k):
        return QuadElem(k, rnd.randint(-30, 30), rnd.randint(-30, 30))

    for t in range(1000):
        k = rnd.randint(1, 8)
        x, y, z = rq(k), rq(k), rq(k)
        if (x + y) + z != x + (y + z) or (x * y) * z != x * (y * z):
            failures.append(("assoc", t))
        if x * y != y * x or x * (y + z) != x * y + x * z:
            failures.append(("comm/dist", t))
        if (x * y).conj() != x.conj() * y.conj():
            failures.append(("conj-hom-mul", t))
        if (x + y).conj() != x.conj() + y.conj():
            failures.append(("conj-hom-add", t))
    for k in range(1, 1001):
        l = lam(k)
        if (l + l.conj()).rational() != 3 * k:
            failures.append(("trace", k))
        if (l * l.conj()).rational() != 2:
            failures.append(("product", k))
        if ((l - l.conj()) ** 2).rational() != discriminant(k):
            failures.append(("root-diff", k))
    for t in range(1000):
        a, b = _rand_oct(rnd), _rand_oct(rnd)
        if (a * b).norm_sq() != a.norm_sq() * b.norm_sq():
            failures.append(("norm-comp", t))
        if any(((a * b) * b - a * (b * b)).coords):
            failures.append(("alt-right", t))
        if any(((a * a) * b - a * (a * b)).coords):
            failures.append(("alt-left", t))
        if (a * b).conj() != b.conj() * a.conj():
            failures.append(("anti-auto", t))
    for t in range(200):
        k = rnd.randint(1, 4)
        a = Octonion(tuple(rq(k) for _ in range(8)))
        b = Octonion(tuple(rq(k) for _ in range(8)))
        if (a * b).norm_sq() != a.norm_sq() * b.norm_sq():
            failures.append(("norm-comp-quad", t))
    _report(9, "algebraic property suites", failures)


def test_10_performance_sanity():
    failures = []
    for k in (1, 2, 3):
        naive = seq_value(M, k, 10_000)
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            fast = seq_fast(M, k, 10_000)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        if fast != naive:
            failures.append(("mismatch", k))
        if best >= 0.1:
            failures.append(("slow", k, best))
    _report(10, "fast evaluator at n=10^4", failures)
