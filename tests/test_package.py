"""The package root: every public name loads its module on first use."""

import importlib
import re
from pathlib import Path

import pytest

import mersenne_octonions as pkg


@pytest.mark.parametrize("name", pkg.__all__)
def test_root_name_is_its_home_modules_object(name):
    value = getattr(pkg, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("mersenne_octonions.")
    assert getattr(home, name) is value
    assert vars(pkg)[name] is value  # cached: later reads skip __getattr__


def test_star_import_binds_all():
    namespace = {}
    exec("from mersenne_octonions import *", namespace)
    assert set(pkg.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(pkg, name) for name in pkg.__all__)


def test_dir_lists_all():
    assert set(pkg.__all__) <= set(dir(pkg))
    assert "__version__" in dir(pkg)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")


def test_import_loads_only_what_is_used(run_fresh):
    proc = run_fresh("""
        import sys
        import mersenne_octonions

        def submodules():
            return sorted(m for m in sys.modules if m.startswith("mersenne_octonions."))

        print(submodules())
        mersenne_octonions.seq_fast
        print(submodules(), "seq_fast" in vars(mersenne_octonions))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n['mersenne_octonions.sequences'] True\n"


def test_readme_library_example_runs(monkeypatch):
    # README's one python block, run as written, so that a public name it
    # uses that is removed or renamed fails a test, not only the docs
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.delenv("MERSOCT_MAX_WORKERS", raising=False)
    exec(compile(blocks[0], "README.md", "exec"), {})
