import subprocess
import sys
import textwrap

import pytest

from mersenne_octonions.verify import GridConfig, run_grid


@pytest.fixture(scope="session")
def default_report():
    """One full default-grid verification run, shared across tests."""
    return run_grid(GridConfig())


@pytest.fixture
def default_digit_limit():
    """Pin the interpreter's int->str limit at its default, 4,300 digits,
    require the test to leave it there, and restore the caller's."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture
def run_fresh():
    """Run Python source in a fresh interpreter, so that nothing it
    caches can reach this session."""
    def run(source):
        return subprocess.run(
            [sys.executable, "-c", textwrap.dedent(source)],
            capture_output=True, text=True, timeout=300,
        )
    return run
