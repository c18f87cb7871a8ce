"""Exact octonion algebra over k-Mersenne and k-Mersenne-Lucas
sequences, with a verifier for their closed-form identities."""

__version__ = "0.1.0"

from .quadratic import (
    NonRationalError,
    QuadElem,
    RingMismatchError,
    discriminant,
    lam,
    one,
    zero,
)
from .octonion import Octonion, associator, cd_mul
from .sequences import Family, seq_fast, seq_value
from .oct_sequences import (
    AlphaBeta,
    alpha_beta,
    oct_seq,
    oct_seq_closed,
    oct_seq_conj,
    oct_seq_norm_sq_closed,
    seq_binet,
)
from .verify import (
    CheckResult,
    GridConfig,
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

__all__ = [
    "AlphaBeta",
    "CheckResult",
    "Family",
    "GridConfig",
    "NonRationalError",
    "Octonion",
    "QuadElem",
    "RingMismatchError",
    "Status",
    "VerificationReport",
    "alpha_beta",
    "associator",
    "cd_mul",
    "check_binet",
    "check_cassini",
    "check_catalan",
    "check_docagne",
    "check_finite_sum",
    "check_genfunc_ordinary",
    "check_norm_closed",
    "check_vajda",
    "discriminant",
    "lam",
    "oct_seq",
    "oct_seq_closed",
    "oct_seq_conj",
    "oct_seq_norm_sq_closed",
    "one",
    "run_grid",
    "seq_binet",
    "seq_fast",
    "seq_value",
    "zero",
]
