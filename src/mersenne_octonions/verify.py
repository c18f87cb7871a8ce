"""Exact verification of the closed-form identities.

Every check computes its two sides by independent routes: the left side
from the defining recurrence with integer octonion arithmetic, the
right side from the alpha/beta constants in the quadratic quotient ring
followed by rational projection.  A check passes exactly when the two
sides are equal; a failure carries the residual (left minus right), so
it is diagnosable down to a single coordinate.

The non-commutativity of alpha and beta is why Catalan and Cassini come
in two factor orderings ("lr" and "rl"); both are checked.

Known discrepancies in the source statements are never silently
corrected in the statements' names: they are listed in every report's
discrepancy ledger, and the affected checks verify the form the
derivation actually yields (see DISCREPANCIES below).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import islice
from operator import sub
from typing import NamedTuple

from . import __version__
from .octonion import Octonion, _active_product, active_basis_table, use_basis_table
from .oct_sequences import (alpha_beta, oct_seq, oct_seq_closed, oct_seq_conj,
                            oct_seq_norm_sq_closed, project_rational)
from .sequences import Family, _no_digit_limit, decimal_repr, decimal_str

DISCREPANCIES = (
    "conjugate display: the stated conjugates write the real part as the "
    "index-0 sequence value; the general conjugation rule gives real part "
    "at index n, which is what this tool implements.",
    "ordinary generating function, Mersenne family: the stated denominator "
    "1 - 3x + 2x^2 omits k; the derivation yields 1 - 3kx + 2x^2, which is "
    "what this tool verifies.",
    "k=1 Mersenne-Lucas Cassini: the stated prefactor is 2^n, but the k=1 "
    "Catalan identity at r=1 yields 2^(n-1); this tool verifies the "
    "2^(n-1) form.",
)


class Status(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    SKIPPED = "SKIPPED"


class ParamError(ValueError):
    """Parameters violate a check's precondition (an input error, as
    opposed to a failed identity)."""


class ConfigError(ValueError):
    """Malformed grid configuration, rejected before any evaluation."""


def _compact_encoder():
    """Compact JSON with sorted keys, as JSONEncoder(sort_keys=True,
    separators=(",", ":")).encode writes it.  JSONEncoder.encode builds
    its C encoder anew on every call, so the C one is built here once.
    It keeps no markers: the ids that an encoding cut short by a
    ValueError left behind would make _encode's retry a "circular
    reference"."""
    if json.encoder.c_make_encoder is None:
        return json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    encoder = json.encoder.c_make_encoder(None, None, json.encoder.encode_basestring_ascii,
                                          None, ":", ",", True, False, True)
    return lambda obj: "".join(encoder(obj, 0))


_compact = _compact_encoder()


def _encode(obj) -> str:
    """The one JSON encoder of a report, its header and its rows alike;
    only an int past the digit limit (a ValueError) costs a second pass."""
    try:
        return _compact(obj)
    except ValueError:
        with _no_digit_limit():
            return _compact(obj)


class CheckResult(NamedTuple):
    identity: str
    family: Family
    params: dict
    status: Status
    residual: Octonion | None = None
    note: str = ""

    def to_dict(self) -> dict:
        """The report row; the residual is null unless the row FAILs.
        family and status are str enum members, encoded as their values."""
        return {
            "identity": self.identity,
            "family": self.family,
            "params": dict(self.params),
            "status": self.status,
            "residual": (list(map(decimal_str, self.residual.coords))
                         if self.status is Status.FAIL else None),
            "note": self.note,
        }

    def to_json(self) -> str:
        """The report row, as one line of compact JSON with sorted keys.
        Only a FAIL row is encoded whole; any other is its params set in
        the frame its other fields make."""
        if self.status is Status.FAIL:
            return _encode(self.to_dict())
        head, tail = _frame(self.identity, self.family, self.note, self.status)
        return head + _encode(self.params) + tail


# bounded at over twice the 19 frames the default grid's rows make
@lru_cache(maxsize=64)
def _frame(identity, family, note, status) -> tuple:
    """The text of a row without a residual, before and after its params:
    the row with params {}, encoded and cut at them.  A '"' inside an
    encoded string is escaped, so '"params":{}' is only the key's."""
    row = CheckResult(identity, family, {}, status, note=note).to_dict()
    head, _, tail = _compact(row).partition('"params":{}')
    return head + '"params":', tail


def _decode_rows(text: str) -> tuple:
    """The CheckResults whose to_json rows, joined by ",\n", make text,
    each field as its row writes it: a FAIL's residual, null otherwise."""
    # a FAIL residual may have more digits than the limit allows
    with _no_digit_limit():
        return tuple(CheckResult(row["identity"], Family(row["family"]), row["params"],
                                 Status(row["status"]),
                                 row["residual"] and Octonion(map(int, row["residual"])),
                                 row["note"]) for row in json.loads(f"[{text}]"))


def _result(identity, family, params, lhs: tuple, rhs: tuple, note="") -> CheckResult:
    """PASS, with no residual, when the two sides' coordinate tuples are
    equal; only a FAIL builds octonions, for its residual."""
    if lhs == rhs:
        return CheckResult(identity, family, params, Status.PASS, note=note)
    return CheckResult(identity, family, params, Status.FAIL,
                       Octonion(lhs) - Octonion(rhs), note)


def _check_common(family, k: int, specialized: bool, **counts):
    """The guard every check runs first: family is a Family, k and each
    of the (one or more) counts n, r, i, j, terms are ints (a bool or an
    int subclass is not one), k >= 1, the counts are >= 0, and
    specialized is a bool, set only at k = 1."""
    # a string equals its Family member as a cache key, not by identity
    if type(family) is not Family:
        raise ParamError(f"not a family: {decimal_repr(family)}")
    for name, value in ("k", k), *counts.items():
        if type(value) is not int:
            raise ParamError(f"{name} must be an integer, got {decimal_repr(value)}")
    if k < 1:
        raise ParamError(f"k must be a positive integer, got {decimal_str(k)}")
    if min(counts.values()) < 0:
        got = ", ".join(f"{name}={decimal_str(value)}" for name, value in counts.items())
        raise ParamError(f"need {', '.join(counts)} >= 0, got {got}")
    # specialized is written into the row, so it must be a bool
    if type(specialized) is not bool:
        raise ParamError(f"specialized must be a bool, got {decimal_repr(specialized)}")
    if specialized and k != 1:
        raise ParamError("specialized forms are defined only at k=1")


# --- Identity registry ----------------------------------------------

# name -> check_<name>; the grid calls every check through this dict
_CHECKS = {}
# name -> points(cfg), the check's keyword dicts beyond family on the grid
_GRIDS = {}

_ORDERINGS = ("lr", "rl")


def _identity(points):
    """Register the decorated check_<name> as identity <name>, run on
    every keyword dict that points(cfg) yields."""
    def register(check):
        name = check.__name__.removeprefix("check_")
        _CHECKS[name], _GRIDS[name] = check, points
        return check
    return register


_SPECIALIZED_N_MAX = 20


def _passes(cfg):
    """(k, n_max, specialized) for the general pass at each k, then for
    the specialized pass at k = 1, up to n = min(20, n_max), of the
    identities that have one."""
    for k in cfg.ks:
        yield k, cfg.n_max, False
        if k == 1:
            yield k, min(_SPECIALIZED_N_MAX, cfg.n_max), True


# --- Binet closed form and norm --------------------------------------

@_identity(lambda cfg: ({"k": k, "n": n, "specialized": sp}
                        for k, n_hi, sp in _passes(cfg) for n in range(n_hi + 1)))
def check_binet(family: Family, k: int, n: int,
                specialized: bool = False) -> CheckResult:
    """Defining recurrence octonion against the closed form."""
    _check_common(family, k, specialized, n=n)
    lhs = oct_seq(family, k, n)
    rhs = oct_seq_closed(family, k, n)
    params = {"k": k, "n": n, "specialized": specialized}
    return _result("binet", family, params, lhs.coords, rhs.coords)


@_identity(lambda cfg: ({"k": k, "n": n} for k in cfg.ks for n in range(cfg.n_max + 1)))
def check_norm_closed(family: Family, k: int, n: int) -> CheckResult:
    """S times its conjugate, by the table in force, against the
    closed-form squared norm in the e0 slot."""
    _check_common(family, k, False, n=n)
    lhs = (oct_seq(family, k, n) * oct_seq_conj(family, k, n)).coords
    closed = oct_seq_norm_sq_closed(family, k, n)
    return _result("norm_closed", family, {"k": k, "n": n}, lhs, (closed,) + (0,) * 7)


# --- Catalan, Cassini, d'Ocagne and Vajda ----------------------------

# Catalan, Cassini, d'Ocagne and Vajda are each a difference of products
# S[a]S[b] - S[c]S[d] with a + b = c + d, so the alpha^2 and beta^2 terms
# cancel and each right side is one scaling of Vajda's,
#     S[n+i]S[n+j] - S[n]S[n+i+j] = 2^n _core(i, j).
# Products taken in the reverse order are Vajda's identity in the
# opposite algebra, where alpha beta and beta alpha trade places.  The
# caches are bounded so that a long-lived process stays small, each at
# twice or more the keys one command fills: the default grid asks for
# 1,380 cores, which share 250 j-factors.

@lru_cache(maxsize=1024)
def _j_factor(k: int, j: int, opposite: bool) -> Octonion:
    """beta alpha lam1^j - alpha beta lam2^j at the roots of
    alpha_beta(k), with the products swapped if opposite is set: the
    factor of _core that neither i nor the family changes."""
    ab = alpha_beta(k)
    p1, p2 = ab.powers(j)
    x, y = (ab.ab, ab.ba) if opposite else (ab.ba, ab.ab)
    return x.scale(p1) - y.scale(p2)


@lru_cache(maxsize=4096)
def _core(family: Family, k: int, i: int, j: int, opposite: bool) -> Octonion:
    """Vajda's right side with 2^n stripped, in the opposite algebra if
    opposite is set; always integer-coordinated.  At the roots of
    alpha_beta(k), the Mersenne core is
    (beta alpha lam1^j - alpha beta lam2^j)(lam1^i - lam2^i)/(lam1 - lam2)^2."""
    ab = alpha_beta(k)
    q1, q2 = ab.powers(i)
    core = _j_factor(k, j, opposite).scale(q1 - q2)
    # the Lucas core is the same product negated, undivided
    if family is Family.MERSENNE:
        return project_rational(core, ab.disc)
    return project_rational(-core)


# The left sides take their products S[a]S[b] by the table from one
# cache, keyed by the compiled product in force, so that the mutation
# hook's table gets its own entries.  The default grid takes 70,696
# products, 10,600 of them distinct.  Grid order (identity, family, k,
# n) keeps the products one block needs close together, so 1,024 entries
# miss 17,530 times, and twice as many would still miss 17,218 times;
# holding all 10,600 raised a run's peak memory by some 7 MB.

@lru_cache(maxsize=1024, typed=True)
def _table_product(family: Family, k: int, a: int, b: int, product) -> tuple:
    """The coordinates of oct_seq(family, k, a) * oct_seq(family, k, b);
    product, the compiled product in force, is only part of the key."""
    return (oct_seq(family, k, a) * oct_seq(family, k, b)).coords


def _vajda_form(identity, family, k, params, abcd, core, s, note="") -> CheckResult:
    """The verdict of S[a]S[b] - S[c]S[d], by the table in force, against
    _core(family, k, *core) scaled by s.  The sides are compared as
    coordinate tuples, so that a PASS builds no octonion."""
    a, b, c, d = abcd
    product = _active_product()
    lhs = tuple(map(sub, _table_product(family, k, a, b, product),
                    _table_product(family, k, c, d, product)))
    rhs = tuple([x * s for x in _core(family, k, *core).coords])
    return _result(identity, family, params, lhs, rhs, note)


@_identity(lambda cfg: ({"k": k, "n": n, "r": r, "ordering": o, "specialized": sp}
                        for k, n_hi, sp in _passes(cfg) for n in range(n_hi + 1)
                        for r in range(n + 1) for o in _ORDERINGS))
def check_catalan(family: Family, k: int, n: int, r: int,
                  ordering: str = "lr", specialized: bool = False) -> CheckResult:
    """S[n+r]S[n-r] - S[n]^2 ("lr") or S[n-r]S[n+r] - S[n]^2 ("rl")
    against the closed right side."""
    _check_common(family, k, specialized, n=n, r=r)
    if ordering not in _ORDERINGS:
        raise ParamError(f"unknown ordering {decimal_repr(ordering)}")
    if r > n:
        raise ParamError(f"need 0 <= r <= n, got r={decimal_str(r)}, n={decimal_str(n)}")
    a, b = (n + r, n - r) if ordering == "lr" else (n - r, n + r)
    params = {"k": k, "n": n, "r": r, "ordering": ordering, "specialized": specialized}
    # Vajda at (n - r, r, r), negated; "lr" takes its products reversed
    return _vajda_form("catalan", family, k, params, (a, b, n, n),
                       (r, r, ordering == "lr"), -(2 ** (n - r)))


@_identity(lambda cfg: ({"k": k, "n": n, "ordering": o, "specialized": sp}
                        for k, n_hi, sp in _passes(cfg) for n in range(1, n_hi + 1)
                        for o in _ORDERINGS))
def check_cassini(family: Family, k: int, n: int,
                  ordering: str = "lr", specialized: bool = False) -> CheckResult:
    """The r=1 Catalan case: the left side is computed from the Cassini
    statement, S[n+1]S[n-1] - S[n]^2 ("lr") or S[n-1]S[n+1] - S[n]^2
    ("rl"), and the right side is Catalan's at r=1.

    The specialized Mersenne-Lucas forms carry a stated prefactor of
    2^n; the derivation gives 2^(n-1), which is what is verified (see
    DISCREPANCIES).
    """
    _check_common(family, k, specialized, n=n)
    if ordering not in _ORDERINGS:
        raise ParamError(f"unknown ordering {decimal_repr(ordering)}")
    if n < 1:
        raise ParamError(f"Cassini needs n >= 1, got n={n}")
    a, b = (n + 1, n - 1) if ordering == "lr" else (n - 1, n + 1)
    note = ""
    if specialized and family is Family.MERSENNE_LUCAS:
        note = "verified with prefactor 2^(n-1); stated 2^n is a known discrepancy"
    params = {"k": k, "n": n, "ordering": ordering, "specialized": specialized}
    return _vajda_form("cassini", family, k, params, (a, b, n, n),
                       (1, 1, ordering == "lr"), -(2 ** (n - 1)), note)


@_identity(lambda cfg: ({"k": k, "n": n, "r": r, "specialized": sp}
                        for k, n_hi, sp in _passes(cfg) for n in range(n_hi + 1)
                        for r in range(n + 1)))
def check_docagne(family: Family, k: int, n: int, r: int,
                  specialized: bool = False) -> CheckResult:
    """S[r]S[n+1] - S[r+1]S[n] against the closed right side."""
    _check_common(family, k, specialized, n=n, r=r)
    if r <= n:  # Vajda at (r, 1, n - r), negated
        core, s = (1, n - r, False), -(2**r)
    else:  # Vajda at (n, 1, r - n) in the opposite algebra
        core, s = (1, r - n, True), 2**n
    params = {"k": k, "n": n, "r": r, "specialized": specialized}
    return _vajda_form("docagne", family, k, params, (r, n + 1, r + 1, n), core, s)


@_identity(lambda cfg: ({"k": k, "n": n, "i": i, "j": j, "specialized": sp}
                        for k, n_hi, sp in _passes(cfg) for n in range(n_hi + 1)
                        for i in range(cfg.ij_max + 1) for j in range(cfg.ij_max + 1)))
def check_vajda(family: Family, k: int, n: int, i: int, j: int,
                specialized: bool = False) -> CheckResult:
    """S[n+i]S[n+j] - S[n]S[n+i+j] against the closed right side."""
    _check_common(family, k, specialized, n=n, i=i, j=j)
    params = {"k": k, "n": n, "i": i, "j": j, "specialized": specialized}
    return _vajda_form("vajda", family, k, params, (n + i, n + j, n, n + i + j),
                       (i, j, False), 2**n)


# --- Generating function and finite sum ------------------------------

_GENFUNC_K_MAX = 3
_GENFUNC_TERMS = 32


@_identity(lambda cfg: ({"k": k, "terms": _GENFUNC_TERMS}
                        for k in cfg.ks if k <= _GENFUNC_K_MAX))
def check_genfunc_ordinary(family: Family, k: int, terms: int) -> CheckResult:
    """Expand (S0 + x(S1 - 3k S0)) / (1 - 3kx + 2x^2) and compare the
    first `terms` coefficients with the sequence octonions.

    The Mersenne-family denominator is stated without k in its source;
    the derivation's 1 - 3kx + 2x^2 is used (see DISCREPANCIES).
    """
    _check_common(family, k, False, terms=terms)
    if terms < 2:
        raise ParamError(f"need at least 2 terms, got {terms}")
    # c0 = S0 and c1 = 3k*c0 + (S1 - 3k*S0) = S1 are the seeds; thereafter
    # the numerator is exhausted and c follows the bare recurrence.
    c_pp, c_p = oct_seq(family, k, 0), oct_seq(family, k, 1)
    params = {"k": k, "terms": terms}
    for n in range(2, terms):
        c_pp, c_p = c_p, c_p.scale(3 * k) - c_pp.scale(2)
        expected = oct_seq(family, k, n)
        if c_p != expected:
            return _result("genfunc_ordinary", family, params, c_p.coords, expected.coords,
                           note=f"first mismatch at coefficient {n}")
    return CheckResult("genfunc_ordinary", family, params, Status.PASS,
                       note="denominator 1 - 3kx + 2x^2 per derivation")


# the k = 1 pass is the specialized form, over the general pass's n range
@_identity(lambda cfg: ({"k": k, "n": n, "form": "specialized" if sp else "general"}
                        for k, _, sp in _passes(cfg) for n in range(cfg.n_max + 1)))
def check_finite_sum(family: Family, k: int, n: int,
                     form: str = "auto") -> CheckResult:
    """Partial sum of the first n+1 sequence octonions against the
    applicable closed form.

    The general-k formula divides by 3(1-k) and is excluded at k=1;
    requesting it there yields SKIPPED.  For k >= 2, where 3(1-k) is
    nonzero, it is checked multiplied through: 3(1-k) times the sum
    against the formula's numerator.  Both sides stay integers, and a
    FAIL residual is 3(1-k) times the stated form's.  At k=1 the
    specialized form S[n+1] - (alpha +- n*beta) applies, with alpha and
    beta at the roots 2, 1: coordinate r of the tail is 2^r +- n.
    """
    _check_common(family, k, form == "specialized", n=n)
    if form not in ("auto", "general", "specialized"):
        raise ParamError(f"unknown form {decimal_repr(form)}")
    if form == "auto":
        form = "general" if k >= 2 else "specialized"
    params = {"k": k, "n": n, "form": form}
    if form == "general" and k == 1:
        return CheckResult(
            "finite_sum", family, params, Status.SKIPPED,
            note="excluded: general-form denominator 3(1-k) vanishes at k=1",
        )
    lhs = oct_seq(family, k, 0)
    for j in range(1, n + 1):
        lhs = lhs + oct_seq(family, k, j)
    if form == "general":
        lhs = lhs.scale(3 * (1 - k))
        rhs = (
            oct_seq(family, k, n).scale(2)
            - oct_seq(family, k, n + 1)
            + oct_seq(family, k, 1)
            + oct_seq(family, k, 0).scale(1 - 3 * k)
        )
    else:
        m = n if family is Family.MERSENNE else -n
        rhs = oct_seq(family, k, n + 1) - Octonion(tuple(2**r + m for r in range(8)))
    return _result("finite_sum", family, params, lhs.coords, rhs.coords)


# --- Grid runner ------------------------------------------------------

IDENTITIES = tuple(_CHECKS)

BOTH_FAMILIES = (Family.MERSENNE, Family.MERSENNE_LUCAS)


@dataclass(frozen=True)
class GridConfig:
    """Cartesian parameter ranges for a verification run.

    Every identity runs over one k axis, ks, with n up to n_max (r up
    to n, i and j up to ij_max), except the generating function, which
    is expanded to 32 coefficients at each k of ks up to 3.  When ks
    holds 1, the k = 1 specialized forms run as a second pass up to
    n = min(20, n_max).  The defaults cover k in 1..5 with n up to 24
    and i, j up to 8.  A malformed config is refused with a ConfigError
    when it is built, so every GridConfig is valid.
    """

    ks: tuple = (1, 2, 3, 4, 5)
    n_max: int = 24
    ij_max: int = 8
    families: tuple = BOTH_FAMILIES
    identities: tuple = IDENTITIES

    def __post_init__(self):
        for name in ("ks", "families", "identities"):
            if not isinstance(getattr(self, name), tuple):
                raise ConfigError(f"{name} must be a tuple")
        if not all(type(k) is int for k in self.ks):
            raise ConfigError("ks must hold integers")
        for name in ("n_max", "ij_max"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an integer")
        if not self.ks or min(self.ks) < 1:
            raise ConfigError("ks must be a non-empty tuple of integers >= 1")
        if not self.families:
            raise ConfigError("families must be non-empty")
        for f in self.families:
            if not isinstance(f, Family):
                raise ConfigError(f"not a family: {decimal_repr(f)}")
        # compared by ==, so an unhashable name is unknown, not a TypeError
        unknown = {decimal_str(i) for i in self.identities if i not in IDENTITIES}
        if unknown:
            raise ConfigError(f"unknown identities: {sorted(unknown)}")
        # a repeated entry would run, and report, the same points twice
        for name in ("ks", "families", "identities"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats an entry: {decimal_repr(values)}")
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if self.ij_max < 0:
            raise ConfigError("ij_max must be >= 0")


def _grid_points(cfg: GridConfig):
    """The (identity, family, params-dict) tasks, generated in grid order."""
    return ((name, family, params) for name in cfg.identities
            for family in cfg.families for params in _GRIDS[name](cfg))


def _evaluate_point(point):
    identity, family, params = point
    return _CHECKS[identity](family, **params)


def _tally(r: CheckResult) -> tuple:
    """The key a report counts r under."""
    return r.identity, r.family, r.status


def _evaluate_slice(job) -> tuple:
    """A pool worker's share of the grid, points lo to hi - 1 of cfg's:
    their rows as JSON text, joined by ",\n", and their Counter of
    _tally keys.  The worker generates the points itself, so that none
    crosses the pool."""
    cfg, lo, hi = job
    counts, rows = Counter(), []
    for r in map(_evaluate_point, islice(_grid_points(cfg), lo, hi)):
        counts[_tally(r)] += 1
        rows.append(r.to_json())
    return ",\n".join(rows), counts


@dataclass(frozen=True, eq=False)
class VerificationReport:
    results: tuple
    config: GridConfig
    discrepancies = DISCREPANCIES  # a class constant, not a field

    # by value, so that a pool's _PoolReport equals its serial twin
    def __eq__(self, other):
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return (self.config, self.results) == (other.config, other.results)

    @cached_property
    def _counts(self) -> Counter:
        """Results per (identity, family, status), counted in one walk."""
        return Counter(map(_tally, self.results))

    @property
    def summary(self) -> dict:
        summary = {s.value: 0 for s in Status}
        for (_, _, status), count in self._counts.items():
            summary[status.value] += count
        return summary

    @property
    def failed(self) -> bool:
        return any(status is Status.FAIL for _, _, status in self._counts)

    def _header(self) -> dict:
        """The report document without its results."""
        return {
            "schema_version": 2,
            "tool": "mersenne-octonions",
            "version": __version__,
            "config": {**asdict(self.config),
                       "families": [f.value for f in self.config.families]},
            "summary": self.summary,
            "discrepancies": list(self.discrepancies),
            # every grid point meets its check's preconditions
            "input_errors": [],
        }

    def to_dict(self) -> dict:
        return {**self._header(), "results": [r.to_dict() for r in self.results]}

    def _row_blocks(self):
        """The rows' JSON text, in blocks of rows joined by ",\n": here one
        row a block, encoded as it is asked for."""
        return map(CheckResult.to_json, self.results)

    def json_chunks(self):
        """The to_json text in pieces, so that a writer never holds all of
        it: the header up to the results, then one block of rows a piece,
        then the end."""
        yield f'{_encode(self._header())[:-1]},"results":[\n'
        for i, block in enumerate(self._row_blocks()):
            yield (",\n" if i else "") + block
        yield "\n]}\n"

    def to_json(self) -> str:
        """The to_dict document in compact JSON with sorted keys, except
        that the results come last, one row per line, in grid order."""
        return "".join(self.json_chunks())

    def summary_table(self) -> str:
        """Human-readable per-identity tally."""
        counts = self._counts
        rows = sorted({(identity, family) for identity, family, _ in counts})
        width = max([len("identity")] + [len(i) for i, _ in rows])
        cells = [("identity", "family", *(s.value for s in Status))]
        cells += [(i, f.value, *(counts[i, f, s] for s in Status)) for i, f in rows]
        cells.append(("total", "", *self.summary.values()))
        lines = [f"{name:<{width}}  {family:<14}  {ok:>6}  {bad:>6}  {skip:>7}"
                 for name, family, ok, bad, skip in cells]
        lines += ["", "discrepancy ledger:", *(f"  - {d}" for d in self.discrepancies)]
        return "\n".join(lines) + "\n"


class _PoolReport(VerificationReport):
    """A pool run's report, built from its workers' shares in grid order:
    the summed counts give its summary and table, the workers' text its
    rows, and results is decoded from that text when first read."""

    def __init__(self, config: GridConfig, shares):
        blocks, counts = zip(*shares)
        # the dataclass is frozen: fill the instance as its __init__ would
        vars(self).update(config=config, _blocks=blocks, _counts=sum(counts, Counter()))

    @cached_property
    def results(self) -> tuple:
        return _decode_rows(",\n".join(self._blocks))

    def _row_blocks(self):
        return self._blocks


# The pool's modules (multiprocessing, pickle, socket and more) load on
# the first run with more than one worker, so that every other command
# starts without them.  run_grid reads this name at call time, so that
# a caller can substitute a pool class.
ProcessPoolExecutor = None


def _max_workers() -> int:
    raw = os.environ.get("MERSOCT_MAX_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"MERSOCT_MAX_WORKERS must be an integer, got {raw!r}")
    return max(workers, 1)


def run_grid(cfg: GridConfig | None = None) -> VerificationReport:
    """Evaluate every enabled identity over the configured grid.

    Grid points are independent pure evaluations.  A serial run
    evaluates each point as it is generated and keeps the results.
    With MERSOCT_MAX_WORKERS > 1 the grid is cut into one contiguous
    slice per process, at most one per CPU and one per point; each
    worker evaluates its slice and sends back only its rows' JSON text
    and their counts, which pool.map keeps in grid order.  So the report
    does not depend on the worker count.  A grid with no point is a
    ConfigError, not an empty report.
    """
    global ProcessPoolExecutor
    cfg = cfg or GridConfig()
    # a pool starts every worker up front, so the count must be bounded;
    # the points are counted to cut the slices, and never listed
    workers = min(_max_workers(), os.cpu_count() or 1)
    if workers > 1:
        size = sum(1 for _ in _grid_points(cfg))
        workers = min(workers, size)
    if workers > 1:
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        slices = [(cfg, size * w // workers, size * (w + 1) // workers)
                  for w in range(workers)]
        # the initializer carries the active basis table (the mutation
        # hook's, if it is on) into workers under every start method
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=use_basis_table,
                                 initargs=(active_basis_table(),)) as pool:
            shares = tuple(pool.map(_evaluate_slice, slices, chunksize=1))
        return _PoolReport(cfg, shares)
    results = tuple(map(_evaluate_point, _grid_points(cfg)))
    if not results:
        raise ConfigError("the selected identities have no grid point at these k and n")
    return VerificationReport(results, cfg)
