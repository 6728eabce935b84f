"""The package root loads its names on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import haarriesz

SRC = Path(haarriesz.__file__).resolve().parent.parent


def fresh_interpreter(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout


def test_import_loads_no_submodule_and_no_numpy():
    out = fresh_interpreter(
        "import sys, haarriesz\n"
        "print(haarriesz.__version__)\n"
        "print(sorted(k for k in sys.modules if k == 'numpy' or k.startswith('haarriesz.')))\n")
    assert out.split("\n")[:2] == [haarriesz.__version__, "[]"]


def test_first_lookup_imports_only_its_submodule():
    out = fresh_interpreter(
        "import sys, haarriesz\n"
        "haarriesz.haar_analyze\n"
        "print(sorted(k for k in sys.modules if k.startswith('haarriesz.')))\n")
    assert out.strip() == "['haarriesz.grid', 'haarriesz.haar']"


def test_from_import_of_a_submodule():
    assert fresh_interpreter("from haarriesz import cli\nprint(cli.__name__)").strip() == (
        "haarriesz.cli")


def test_every_name_is_its_submodules_object():
    listed = dir(haarriesz)
    for name in haarriesz.__all__:
        module = importlib.import_module(f"haarriesz.{haarriesz._SOURCE[name]}")
        assert getattr(haarriesz, name) is getattr(module, name), name
        assert name in listed and name in vars(haarriesz), name  # bound: a dict hit next time


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        haarriesz.no_such_name
    assert not hasattr(haarriesz, "no_such_name")
