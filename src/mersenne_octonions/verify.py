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
from functools import cached_property, lru_cache, partial
from itertools import chain, islice
from operator import sub
from typing import Callable, NamedTuple

from . import __version__
from .octonion import Octonion, active_basis_table, use_basis_table
from .oct_sequences import (_vajda_closed, oct_seq, oct_seq_closed, oct_seq_conj,
                            oct_seq_norm_sq_closed)
from .sequences import Family, _initial, _no_digit_limit, decimal_repr, decimal_str

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

class _Identity(NamedTuple):
    """One identity's declaration.  blocks(cfg) is its grid, one
    family's, as (size, points, k, rows) blocks in grid order, where
    points iterates over the block's points, size counts them in closed
    form, and rows(family, points, table) evaluates any run of them as
    (status, row text) pairs; a product block takes its products S[a]S[b]
    at k from table, the _Products that the blocks of one (family, k)
    share, and any other block has k None and table None.  first_n is
    the smallest n of its points on every grid, None if it has no n
    axis, and notes maps (family, specialized) to its rows' note there."""

    blocks: Callable
    first_n: int | None
    notes: dict


# name -> its _Identity, in declaration order, which is the grid's
_IDENTITIES = {}

_ORDERINGS = ("lr", "rl")


def _identity(points, size, first_n=0):
    """Declare the decorated check_<name> as identity <name>, evaluated
    a point at a time: one block a family, of the size(cfg) keyword dicts
    that points(cfg) yields; first_n is _Identity's."""
    def register(check):
        name = check.__name__.removeprefix("check_")
        _IDENTITIES[name] = _Identity(
            lambda cfg: [(size(cfg), points(cfg), None, partial(_point_rows, name))], first_n, {})
        return check
    return register


def _point_rows(name, family, points, table):
    """The rows of identity name at points, one check_<name> call each;
    the check is read from the module when the block is evaluated, so
    that a rebound check_<name> is the one called.  Such a block takes
    no product from table."""
    check = globals()[f"check_{name}"]
    return ((r.status, r.to_json()) for r in (check(family, **params) for params in points))


def _product_identity(forms, points, size, largest, first_n=0, notes=()):
    """Declare the decorated check_<name> as product identity <name>,
    evaluated by _vajda_rows a block (family, k, pass) at a time: in the
    pass (k, n_hi, specialized), forms(k, specialized, points(n_hi,
    ij_max)) maps the block's size(n_hi, ij_max) points onto Vajda's
    identity, the block reads the products at k, and its guard takes
    largest(n_hi, ij_max) as its counts; first_n and notes are
    _Identity's."""
    def register(check):
        name = check.__name__.removeprefix("check_")

        def blocks(cfg):
            for k, n_hi, sp in _passes(cfg):
                ij = cfg.ij_max
                yield (size(n_hi, ij), forms(k, sp, points(n_hi, ij)), k,
                       partial(_vajda_rows, name, k, sp, largest(n_hi, ij)))

        _IDENTITIES[name] = _Identity(blocks, first_n, dict(notes))
        return check
    return register


def _first_n(identities):
    """The smallest n that any of identities runs from, None if none of
    them has an n axis: read from their declarations, never walked."""
    return min((first for name in identities
                if (first := _IDENTITIES[name].first_n) is not None), default=None)


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
                        for k, n_hi, sp in _passes(cfg) for n in range(n_hi + 1)),
           lambda cfg: sum(n_hi + 1 for _, n_hi, _ in _passes(cfg)))
def check_binet(family: Family, k: int, n: int,
                specialized: bool = False) -> CheckResult:
    """Defining recurrence octonion against the closed form."""
    _check_common(family, k, specialized, n=n)
    lhs = oct_seq(family, k, n)
    rhs = oct_seq_closed(family, k, n)
    params = {"k": k, "n": n, "specialized": specialized}
    return _result("binet", family, params, lhs.coords, rhs.coords)


@_identity(lambda cfg: ({"k": k, "n": n} for k in cfg.ks for n in range(cfg.n_max + 1)),
           lambda cfg: len(cfg.ks) * (cfg.n_max + 1))
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
#     S[n+i]S[n+j] - S[n]S[n+i+j] = 2^n m y   (oct_sequences._vajda_closed).
# Products taken in the reverse order are Vajda's identity in the
# opposite algebra, where alpha beta and beta alpha trade places.

# A group's table holds at most this many products and is emptied when a
# product past it is taken.  The default grid's largest group needs
# 1,060, so it is never emptied there; an entry's size grows with n, so
# the bound stays within about twice that need.
_PRODUCTS_MAX = 2048


class _Products(dict):
    """{(a, b): coordinates of S[a]S[b]} at one (family, k), the left-side
    products that the product blocks of one group share.  A product is
    taken by the table in force, through Octonion.__mul__, when first
    asked for."""

    def __init__(self, family, k):
        self.family, self.k = family, k

    def __missing__(self, key):
        if len(self) >= _PRODUCTS_MAX:
            self.clear()
        a, b = key
        x, y = oct_seq(self.family, self.k, a), oct_seq(self.family, self.k, b)
        xy = self[key] = (x * y).coords
        return xy


def _vajda_sides(family, k, forms, table):
    """Per point (params, a, b, c, d, core, s) of forms, a point of a
    product identity mapped onto Vajda's: its params and its two sides as
    coordinate tuples, S[a]S[b] - S[c]S[d] from table and s m y, where
    (m, y) = _vajda_closed(family, k, *core) is taken once a core."""
    closed = {}
    for params, a, b, c, d, core, s in forms:
        try:
            m, y = closed[core]
        except KeyError:
            m, y = closed[core] = _vajda_closed(family, k, *core)
        s *= m
        yield params, tuple(map(sub, table[a, b], table[c, d])), tuple([x * s for x in y])


def _note(identity, family, specialized) -> str:
    return _IDENTITIES[identity].notes.get((family, specialized), "")


def _vajda_rows(identity, k, specialized, counts, family, forms, table):
    """The rows of product identity at forms, points of its block (family,
    k, specialized), as (status, row text), their sides by _vajda_sides
    from the group's table, after the one guard the block runs, on its
    largest counts.  The row frame and the note are taken once a block:
    a PASS builds no octonion and is its params in the frame, and only a
    FAIL builds its CheckResult."""
    _check_common(family, k, specialized, **counts)
    note = _note(identity, family, specialized)
    head, tail = _frame(identity, family, note, Status.PASS)
    for params, lhs, rhs in _vajda_sides(family, k, forms, table):
        if lhs == rhs:
            yield Status.PASS, head + _encode(params) + tail
        else:
            yield Status.FAIL, _result(identity, family, params, lhs, rhs, note).to_json()


def _vajda_check(identity, family, k, specialized, forms) -> CheckResult:
    """The CheckResult of product identity at the one point of forms, by
    the grid's _vajda_sides with a fresh table."""
    ((params, lhs, rhs),) = _vajda_sides(family, k, forms, _Products(family, k))
    return _result(identity, family, params, lhs, rhs, _note(identity, family, specialized))


def _catalan_forms(k, specialized, points):
    # Vajda at (n - r, r, r), negated; "lr" takes its products reversed
    for n, r, ordering in points:
        lr = ordering == "lr"
        a, b = (n + r, n - r) if lr else (n - r, n + r)
        yield ({"k": k, "n": n, "r": r, "ordering": ordering, "specialized": specialized},
               a, b, n, n, (r, r, lr), -(2 ** (n - r)))


@_product_identity(_catalan_forms,
                   lambda n_hi, ij: ((n, r, o) for n in range(n_hi + 1)
                                     for r in range(n + 1) for o in _ORDERINGS),
                   lambda n_hi, ij: (n_hi + 1) * (n_hi + 2),
                   lambda n_hi, ij: {"n": n_hi, "r": n_hi})
def check_catalan(family: Family, k: int, n: int, r: int,
                  ordering: str = "lr", specialized: bool = False) -> CheckResult:
    """S[n+r]S[n-r] - S[n]^2 ("lr") or S[n-r]S[n+r] - S[n]^2 ("rl")
    against the closed right side."""
    _check_common(family, k, specialized, n=n, r=r)
    if ordering not in _ORDERINGS:
        raise ParamError(f"unknown ordering {decimal_repr(ordering)}")
    if r > n:
        raise ParamError(f"need 0 <= r <= n, got r={decimal_str(r)}, n={decimal_str(n)}")
    forms = _catalan_forms(k, specialized, [(n, r, ordering)])
    return _vajda_check("catalan", family, k, specialized, forms)


def _cassini_forms(k, specialized, points):
    # Catalan at r = 1
    for n, ordering in points:
        lr = ordering == "lr"
        a, b = (n + 1, n - 1) if lr else (n - 1, n + 1)
        yield ({"k": k, "n": n, "ordering": ordering, "specialized": specialized},
               a, b, n, n, (1, 1, lr), -(2 ** (n - 1)))


@_product_identity(_cassini_forms,
                   lambda n_hi, ij: ((n, o) for n in range(1, n_hi + 1) for o in _ORDERINGS),
                   lambda n_hi, ij: 2 * n_hi,
                   lambda n_hi, ij: {"n": n_hi}, first_n=1,
                   notes={(Family.MERSENNE_LUCAS, True):
                          "verified with prefactor 2^(n-1); stated 2^n is a known discrepancy"})
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
    forms = _cassini_forms(k, specialized, [(n, ordering)])
    return _vajda_check("cassini", family, k, specialized, forms)


def _docagne_forms(k, specialized, points):
    for n, r in points:
        params = {"k": k, "n": n, "r": r, "specialized": specialized}
        if r <= n:  # Vajda at (r, 1, n - r), negated
            yield params, r, n + 1, r + 1, n, (1, n - r, False), -(2**r)
        else:  # Vajda at (n, 1, r - n) in the opposite algebra
            yield params, r, n + 1, r + 1, n, (1, r - n, True), 2**n


@_product_identity(_docagne_forms,
                   lambda n_hi, ij: ((n, r) for n in range(n_hi + 1) for r in range(n + 1)),
                   lambda n_hi, ij: (n_hi + 1) * (n_hi + 2) // 2,
                   lambda n_hi, ij: {"n": n_hi, "r": n_hi})
def check_docagne(family: Family, k: int, n: int, r: int,
                  specialized: bool = False) -> CheckResult:
    """S[r]S[n+1] - S[r+1]S[n] against the closed right side."""
    _check_common(family, k, specialized, n=n, r=r)
    forms = _docagne_forms(k, specialized, [(n, r)])
    return _vajda_check("docagne", family, k, specialized, forms)


def _vajda_forms(k, specialized, points):
    for n, i, j in points:
        yield ({"k": k, "n": n, "i": i, "j": j, "specialized": specialized},
               n + i, n + j, n, n + i + j, (i, j, False), 2**n)


@_product_identity(_vajda_forms,
                   lambda n_hi, ij: ((n, i, j) for n in range(n_hi + 1)
                                     for i in range(ij + 1) for j in range(ij + 1)),
                   lambda n_hi, ij: (n_hi + 1) * (ij + 1) ** 2,
                   lambda n_hi, ij: {"n": n_hi, "i": ij, "j": ij})
def check_vajda(family: Family, k: int, n: int, i: int, j: int,
                specialized: bool = False) -> CheckResult:
    """S[n+i]S[n+j] - S[n]S[n+i+j] against the closed right side."""
    _check_common(family, k, specialized, n=n, i=i, j=j)
    forms = _vajda_forms(k, specialized, [(n, i, j)])
    return _vajda_check("vajda", family, k, specialized, forms)


# --- Generating function and finite sum ------------------------------

_GENFUNC_K_MAX = 3
_GENFUNC_TERMS = 32


@_identity(lambda cfg: ({"k": k, "terms": _GENFUNC_TERMS}
                        for k in cfg.ks if k <= _GENFUNC_K_MAX),
           lambda cfg: sum(k <= _GENFUNC_K_MAX for k in cfg.ks), first_n=None)
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
                        for k, _, sp in _passes(cfg) for n in range(cfg.n_max + 1)),
           lambda cfg: sum(cfg.n_max + 1 for _ in _passes(cfg)))
def check_finite_sum(family: Family, k: int, n: int,
                     form: str = "auto") -> CheckResult:
    """Partial sum of the first n+1 sequence octonions against the
    applicable closed form.

    The general-k formula divides by 3(1-k) and is excluded at k=1;
    requesting it there yields SKIPPED.  For k >= 2, where 3(1-k) is
    nonzero, it is checked multiplied through: 3(1-k) times the sum
    against the formula's numerator.  Both sides stay integers, and a
    FAIL residual is 3(1-k) times the stated form's.  At k=1 the
    specialized form S[n+1] - tail applies: at the roots 2, 1 and the
    seeds (x0, x1), coordinate r of the tail is (x1 - x0) 2^r + (x1 - 2x0) n.
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
        x0, x1 = _initial(family, k)
        tail = tuple((x1 - x0) * 2**r + (x1 - 2 * x0) * n for r in range(8))
        rhs = oct_seq(family, k, n + 1) - Octonion(tail)
    return _result("finite_sum", family, params, lhs.coords, rhs.coords)


# --- Grid runner ------------------------------------------------------

IDENTITIES = tuple(_IDENTITIES)

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
    when it is built, so every GridConfig is valid.  Its grid's size is
    counted in closed form, block by block; run_grid refuses a grid of
    more than _GRID_MAX points before it evaluates any.
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


# a refused grid is counted, never walked: 276 times the default grid
_GRID_MAX = 10**7


def _grid_size(cfg: GridConfig) -> int:
    """The number of grid points, summed over the blocks' closed forms."""
    return sum(size for name in cfg.identities for _ in cfg.families
               for size, *_ in _IDENTITIES[name].blocks(cfg))


def _rows(cfg: GridConfig, lo: int, hi: int):
    """The blocks that hold any of grid points lo to hi - 1, in grid
    order, as (identity, family, k, points, rows), each block's points
    sliced to the slice: a block is entered at an offset, so no point
    outside the slice is evaluated."""
    start = 0
    for name in cfg.identities:
        for family in cfg.families:
            for size, points, k, rows in _IDENTITIES[name].blocks(cfg):
                if max(lo, start) < min(hi, start + size):
                    yield name, family, k, islice(points, max(lo - start, 0), hi - start), rows
                start += size


def _tally(r: CheckResult) -> tuple:
    """The key a report counts r under."""
    return r.identity, r.family, r.status


# a block's rows are joined this many at a time, so that a large block
# never holds its rows' strings and their join at once; the default
# grid's largest block has 2,025
_PIECE_ROWS = 4096


def _evaluate_slice(job) -> tuple:
    """Grid points lo to hi - 1 of cfg's, a serial run's whole grid or a
    pool worker's share: their rows' JSON text, in grid order, as strings
    of up to _PIECE_ROWS rows of one block joined by ",\n", and their
    Counter of _tally keys.  The product blocks are evaluated grouped by
    (family, k), both k = 1 passes in one group, and each group takes
    its products S[a]S[b] from one _Products table, bounded and dropped
    when the group ends; any other block is a group of its own.  The
    slice's points are generated here, its first and last blocks entered
    at an offset, so that no point crosses the pool and none outside the
    slice is evaluated."""
    cfg, lo, hi = job
    groups = {}
    for i, (name, family, k, points, rows) in enumerate(_rows(cfg, lo, hi)):
        groups.setdefault(i if k is None else (family, k), []).append(
            (i, name, family, k, points, rows))
    texts, counts = {}, Counter()
    for blocks in groups.values():
        _, _, family, k, _, _ = blocks[0]
        table = None if k is None else _Products(family, k)
        for i, name, family, _, points, rows in blocks:
            pending, texts[i] = rows(family, points, table), []
            while piece := tuple(islice(pending, _PIECE_ROWS)):
                statuses, lines = zip(*piece)
                texts[i].append(",\n".join(lines))
                for status, n in Counter(statuses).items():
                    counts[name, family, status] += n
    return [text for i in range(len(texts)) for text in texts[i]], counts


@dataclass(frozen=True, eq=False)
class VerificationReport:
    results: tuple
    config: GridConfig
    discrepancies = DISCREPANCIES  # a class constant, not a field

    # by value, so that a run's _TextReport equals the report of its results
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
        it: the header up to the results, then one run of rows a piece (up
        to _PIECE_ROWS rows of one grid block in run_grid's report, kept
        as text since the run; one row, encoded when asked for, in a
        report built from its results), then the end."""
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


class _TextReport(VerificationReport):
    """run_grid's report, built from its slices' shares in grid order:
    the summed counts give its summary and table, the pieces of row text
    its rows, and results is decoded from that text, a piece at a time,
    when first read."""

    def __init__(self, config: GridConfig, shares):
        blocks, counts = zip(*shares)
        # the dataclass is frozen: fill the instance as its __init__ would
        vars(self).update(config=config, _blocks=tuple(chain.from_iterable(blocks)),
                          _counts=sum(counts, Counter()))

    @cached_property
    def results(self) -> tuple:
        return tuple(chain.from_iterable(map(_decode_rows, self._blocks)))

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

    Grid points are independent pure evaluations.  The grid's size is
    counted first, in closed form: a grid with no point, or with more
    than _GRID_MAX, is a ConfigError before any point is evaluated.  A
    serial run evaluates the whole grid as one slice, by
    _evaluate_slice.  With MERSOCT_MAX_WORKERS > 1 the grid is cut into
    one contiguous slice per process, at most one per CPU and one per
    point; each worker evaluates its slice by the same _evaluate_slice
    and sends back only its rows' JSON text and their counts, which
    pool.map keeps in grid order.  Either way the report is kept as
    that text and those counts, so it does not depend on the worker
    count.
    """
    global ProcessPoolExecutor
    cfg = cfg or GridConfig()
    workers = min(_max_workers(), os.cpu_count() or 1)
    size = _grid_size(cfg)
    if not size:
        raise ConfigError("the selected identities have no grid point at these k and n")
    if size > _GRID_MAX:
        raise ConfigError(f"the grid has {decimal_str(size)} points, "
                          f"more than the {_GRID_MAX:,} a run may take")
    # a pool starts every worker up front, so the count must be bounded
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
    else:
        shares = [_evaluate_slice((cfg, 0, size))]
    return _TextReport(cfg, shares)
