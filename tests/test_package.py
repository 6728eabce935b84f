"""The package root loads nothing, and each run loads only its own layers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import haarriesz

SRC = Path(haarriesz.__file__).resolve().parent.parent


def fresh_interpreter(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout


def test_import_loads_no_submodule_and_no_numpy():
    out = fresh_interpreter(
        "import sys, haarriesz\n"
        "print(haarriesz.__version__)\n"
        "print(sorted(k for k in sys.modules if k == 'numpy' or k.startswith('haarriesz.')))\n")
    assert out.split("\n")[:2] == [haarriesz.__version__, "[]"]


def test_from_import_of_a_submodule():
    assert fresh_interpreter("from haarriesz import cli\nprint(cli.__name__)").strip() == (
        "haarriesz.cli")


def layers(*names: str) -> set[str]:
    return {f"haarriesz.{name}" for name in names}


# each subcommand at its smallest grid, its exit code, and the modules it
# must not load; a flag the parser rejects loads numpy and no layer
RUNS = [
    (["tl-decay", "--J", "4", "--ell=-1..1", "--trials", "4"], 0,
     layers("sharpness", "semiconvexity")),
    (["ring-decay", "--J", "3", "--lambda", "0,1"], 0, layers("sharpness", "semiconvexity")),
    (["rearrange-scaling", "--J", "2", "--lambda", "0,1"], 0,
     layers("sharpness", "semiconvexity", "experiments")),
    (["interp-ratio", "--J", "4", "--trials", "1"], 0, layers("semiconvexity")),
    (["sharpness", "--eps", "1/2,1/4", "--sample", "10"], 0,
     layers("multiscale", "semiconvexity", "experiments")),
    (["jensen", "--J", "3", "--trials", "1"], 0, layers("multiscale", "sharpness", "experiments")),
    (["semicontinuity", "--J", "3"], 0, layers("multiscale", "sharpness", "experiments")),
    (["tl-decay", "--J", "3"], 2,
     {"numpy", *layers("experiments", "fields", "fourier", "grid", "haar", "multiscale",
                       "profiles", "semiconvexity", "sharpness")}),
]


@pytest.mark.parametrize("argv,code,excluded", RUNS, ids=[" ".join(a) for a, _, _ in RUNS])
def test_a_run_loads_only_its_own_layers(argv, code, excluded, tmp_path):
    out = fresh_interpreter(
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(k for k in sys.modules if k == 'numpy' or k.startswith('haarriesz.'))\n"
        "from haarriesz import cli\n"
        "imported = loaded()\n"
        "code = cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([imported, code, loaded()]))\n",
        json.dumps([*argv, "--out", str(tmp_path / "x")]))
    imported, exit_code, run = json.loads(out.splitlines()[-1])
    assert imported == ["haarriesz.cli"]
    assert exit_code == code
    assert not excluded & set(run), sorted(excluded & set(run))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        haarriesz.no_such_name
    assert not hasattr(haarriesz, "no_such_name")
