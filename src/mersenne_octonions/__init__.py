"""Exact octonion algebra over k-Mersenne and k-Mersenne-Lucas
sequences, with a verifier for their closed-form identities.

Each public name is imported from its module on first use (PEP 562), so
`import mersenne_octonions` loads no submodule and a command that needs
only `sequences` never loads the verifier."""

from importlib import import_module

__version__ = "0.1.0"

# every public name, and the module that defines it
_HOMES = {
    "quadratic": ("NonRationalError", "QuadElem", "RingMismatchError",
                  "discriminant", "lam", "one"),
    "octonion": ("Octonion", "cd_mul"),
    "sequences": ("Family", "seq_fast", "seq_value"),
    "oct_sequences": ("AlphaBeta", "alpha_beta", "oct_seq", "oct_seq_closed",
                      "oct_seq_conj", "oct_seq_norm_sq_closed", "seq_binet"),
    "verify": ("CheckResult", "GridConfig", "Status", "VerificationReport",
               "check_binet", "check_cassini", "check_catalan", "check_docagne",
               "check_finite_sum", "check_genfunc_ordinary", "check_norm_closed",
               "check_vajda", "run_grid"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
