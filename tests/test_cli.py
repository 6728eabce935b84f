"""Runner behavior: CSV/manifest artifacts, determinism, exit codes."""

import csv
import json

import pytest

from haarriesz.cli import main, parse_dyadic, parse_eps_list, parse_int_list


class TestFlagParsing:
    def test_dyadic_fractions(self):
        assert parse_dyadic("1/2") == 0.5
        assert parse_dyadic("1/8") == 0.125
        assert parse_dyadic("0.25") == 0.25

    def test_rejects_non_dyadic(self):
        from haarriesz.cli import ValidationError

        with pytest.raises(ValidationError):
            parse_dyadic("1/3")

    def test_eps_list(self):
        assert parse_eps_list("1/2,1/4,1/8") == [0.5, 0.25, 0.125]

    def test_int_ranges(self):
        assert parse_int_list("-4..4") == list(range(-4, 5))
        assert parse_int_list("3,4,5") == [3, 4, 5]
        assert parse_int_list("-3,0,2") == [-3, 0, 2]


class TestSelftest:
    def test_exit_zero_and_row_count(self, tmp_path):
        out = tmp_path / "st"
        code = main(["selftest", "--n", "2", "--J", "5", "--seed", "7", "--out", str(out)])
        assert code == 0
        rows = (out / "results.csv").read_text().strip().split("\n")
        assert len(rows) - 1 >= 50
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["assertions_failed"] == []
        assert manifest["parameters"]["seed"] == 7
        assert manifest["cpu_s"] > 0.0

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["selftest", "--J", "5", "--seed", "3", "--out", str(a)]) == 0
        assert main(["selftest", "--J", "5", "--seed", "3", "--out", str(b)]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma["results_digest_sha256"] == mb["results_digest_sha256"]


class TestTlDecay:
    def test_nine_rows_and_slack(self, tmp_path):
        out = tmp_path / "tl"
        code = main(["tl-decay", "--p", "2", "--ell=-4..4", "--J", "7",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "results.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        decay_rows = [r for r in rows if r["experiment"] == "tl-decay"]
        assert len(decay_rows) == 9
        for r in decay_rows:
            if r["bound_model"] != "reference":
                assert float(r["slack"]) <= 2.0

    def test_floor_row(self, tmp_path):
        # at J = 5 the order L = 4 = J-1 of the decomposition row already
        # reaches the truncation floor
        out = tmp_path / "tl"
        main(["tl-decay", "--J", "5", "--ell=0..1", "--trials", "4", "--seed", "1",
              "--out", str(out)])
        with open(out / "results.csv", newline="") as fh:
            rows = {r["experiment"]: r for r in csv.DictReader(fh)}
        floor = rows["tl-decomposition-floor"]
        assert floor["ell_or_lambda"] == "4"
        assert floor["measured"] == rows["tl-decomposition"]["measured"]
        assert float(floor["slack"]) == float(floor["measured"]) / 0.05
        assert [floor[c] for c in ("iterations", "residual", "converged")] == ["0", "0.0", ""]


class TestSharpness:
    def test_growth_column(self, tmp_path):
        out = tmp_path / "sh"
        code = main(["sharpness", "--regime", "ple2", "--p", "1.5",
                     "--eps", "1/2,1/4,1/8", "--eta", "0.1", "--out", str(out)])
        assert code == 0
        lines = (out / "results.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        ratios = [float(r["ratio"]) for r in rows]
        floor = 2.0**0.1 * 0.7
        for a, b in zip(ratios, ratios[1:]):
            assert b / a >= floor


class TestInterpRatio:
    def test_rows_have_header_width(self, tmp_path):
        # bound_model holds a comma, so the writer must quote it
        out = tmp_path / "ir"
        code = main(["interp-ratio", "--J", "4", "--p-list", "2,1.5", "--trials", "2",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        with open(out / "results.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(rows) == 4
        for row in rows:
            assert len(row) == len(header)


class TestExitCodes:
    def test_validation_failure(self, tmp_path):
        code = main(["tl-decay", "--p", "3", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_non_dyadic_eps(self, tmp_path):
        code = main(["sharpness", "--eps", "1/3", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_resource_refusal(self, tmp_path):
        code = main(["selftest", "--n", "3", "--J", "9",
                     "--cap-bytes", "1000000", "--out", str(tmp_path / "x")])
        assert code == 4

    def test_bad_J(self, tmp_path):
        assert main(["selftest", "--J", "99", "--out", str(tmp_path / "x")]) == 2

    def test_assertion_failure_names_row(self, tmp_path, capsys):
        # an unreachable slack forces a failing assertion
        code = main(["ring-decay", "--J", "7", "--lambda", "3,4",
                     "--slack", "0.0001", "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert "ring-decay ratio" in err


class TestManifest:
    def test_digest_matches_csv(self, tmp_path):
        import hashlib

        out = tmp_path / "m"
        main(["jensen", "--J", "4", "--trials", "10", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
        assert manifest["results_digest_sha256"] == digest
        assert manifest["subcommand"] == "jensen"

    def test_records_the_environment(self, tmp_path):
        import platform

        import numpy as np

        out = tmp_path / "env"
        main(["jensen", "--J", "4", "--trials", "10", "--out", str(out)])
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert sorted(env) == ["numpy", "platform", "python"]
        assert env["numpy"] == np.__version__
        assert env["python"] == platform.python_version()
        assert env["platform"]


class TestEffectiveParameters:
    """The manifest records the values a run used, and a run uses the values
    it was given."""

    def test_ring_decay_keeps_requested_slack(self, tmp_path, capsys):
        out = tmp_path / "rd"
        code = main(["ring-decay", "--J", "7", "--lambda", "3,4", "--slack", "2.0",
                     "--out", str(out)])
        assert code == 0
        params = json.loads((out / "manifest.json").read_text())["parameters"]
        assert params["slack"] == 2.0
        assert params["lambda"] == [3, 4]
        # the ratio bound is 2^(-1/2) * slack
        assert f"bound={2.0 ** -0.5 * 2.0:.4f}" in capsys.readouterr().out

    def test_jensen_defaults_are_recorded(self, tmp_path):
        out = tmp_path / "j"
        assert main(["jensen", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"] == {
            "n": 2, "J": 4, "trials": 10, "seed": 0, "cap_bytes": 4 * 1024**3,
        }
        assert manifest["subcommand"] == "jensen"

    def test_jensen_rejects_unrun_J(self, tmp_path):
        assert main(["jensen", "--J", "7", "--out", str(tmp_path / "x")]) == 2

    def test_sharpness_ple2_records_the_p_it_runs(self, tmp_path):
        out = tmp_path / "sh"
        assert main(["sharpness", "--regime", "ple2", "--eps", "1/2,1/4",
                     "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["parameters"]["p"] == 1.5
        with open(out / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["p"] for r in rows} == {"1.5"}

    def test_list_flags_are_stored_parsed(self, tmp_path):
        out = tmp_path / "ir"
        assert main(["interp-ratio", "--J", "4", "--trials", "2", "--out", str(out)]) == 0
        params = json.loads((out / "manifest.json").read_text())["parameters"]
        assert params["p_list"] == [2.0]
        assert "p" not in params and "subcommand" not in params

    def test_foreign_flag_is_rejected(self, tmp_path):
        assert main(["semicontinuity", "--trials", "5", "--out", str(tmp_path / "x")]) == 2


OUT_OF_DOMAIN = [
    (["tl-decay", "--trials", "3"], "--trials"),
    (["tl-decay", "--J", "3"], "--J"),
    (["tl-decay", "--p", "1.5"], "--p"),
    (["tl-decay", "--ell="], "--ell"),
    (["tl-decay", "--J", "5", "--ell=1,0,0"], "--ell"),
    (["tl-decay", "--ell=0,0"], "--ell"),
    (["tl-decay", "--slack", "nan"], "--slack"),
    (["tl-decay", "--slack", "-3"], "--slack"),
    (["tl-decay", "--slack", "0"], "--slack"),
    (["tl-decay", "--slack", "inf"], "--slack"),
    (["ring-decay", "--slack", "nan"], "--slack"),
    (["rearrange-scaling", "--slack", "-inf"], "--slack"),
    (["ring-decay", "--trials", "3"], "--trials"),
    (["ring-decay", "--J", "7", "--lambda", "3,6"], "--lambda"),
    (["ring-decay", "--J", "7", "--lambda=-1"], "--lambda"),
    (["rearrange-scaling", "--J", "5", "--lambda", "5"], "--lambda"),
    (["rearrange-scaling", "--J", "4", "--lambda", "2,1"], "--lambda"),
    (["ring-decay", "--lambda", "5,3"], "--lambda"),
    (["rearrange-scaling", "--trials", "4"], "--trials"),
    (["interp-ratio", "--J", "3"], "--J"),
    (["interp-ratio", "--p-list", "2,0.5"], "--p-list"),
    (["interp-ratio", "--trials", "0"], "--trials"),
    (["sharpness", "--eps", "3/8"], "--eps"),
    (["sharpness", "--regime", "ple2", "--eps", "1"], "--eps"),
    (["sharpness", "--eps", "1/16"], "--eps"),
    (["sharpness", "--regime", "ple2", "--eps", "1/8,1/4,1/2", "--eta", "0.6"], "--eps"),
    (["sharpness", "--regime", "ple2", "--eps", "1/4,1/4"], "--eps"),
    (["sharpness", "--p", "2.5"], "--p"),
    (["sharpness", "--p", "1"], "--p"),
    (["sharpness", "--sample", "9"], "--sample"),
    (["sharpness", "--eta", "nan"], "--eta"),
    (["sharpness", "--eta", "inf"], "--eta"),
    (["jensen", "--n", "1"], "--n"),
    (["jensen", "--J", "2"], "--J"),
    (["jensen", "--J", "5"], "--J"),
    (["jensen", "--trials", "0"], "--trials"),
    (["semicontinuity", "--n", "1"], "--n"),
    (["semicontinuity", "--J", "2"], "--J"),
    (["selftest", "--J", "2"], "--J"),
    (["selftest", "--n", "4"], "--n"),
]


@pytest.mark.parametrize("argv,flag", OUT_OF_DOMAIN, ids=[" ".join(a) for a, _ in OUT_OF_DOMAIN])
def test_out_of_domain_exits_2_naming_the_flag(argv, flag, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_ring_decay_runs_no_iteration(tmp_path, monkeypatch):
    # the norms come from the cover counts alone
    def broken(*args, **kwargs):
        raise AssertionError("ring-decay ran an operator")

    for target in ("haarriesz.cli.op_norm2_estimate",
                   "haarriesz.multiscale.op_norm2_estimate",
                   "haarriesz.multiscale.ring_projection_operator"):
        monkeypatch.setattr(target, broken)
    assert main(["ring-decay", "--J", "7", "--lambda", "3,4,5", "--out", str(tmp_path / "x")]) == 0
    with open(tmp_path / "x" / "results.csv", newline="") as fh:
        assert {r["trials"] for r in csv.DictReader(fh)} == {"0"}


def test_interp_ratio_builds_each_family_once(tmp_path, monkeypatch):
    from haarriesz import experiments

    built = []
    family = experiments.interpolatory_family

    def counted(*args, **kwargs):
        built.append(args[1])
        return family(*args, **kwargs)

    monkeypatch.setattr(experiments, "interpolatory_family", counted)
    assert main(["interp-ratio", "--J", "4", "--p-list", "2,3,1.5",
                 "--out", str(tmp_path / "x")]) == 0
    assert built == [4, 5]


def test_internal_error_propagates(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr("haarriesz.cli.op_norm2_estimate", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["tl-decay", "--J", "5", "--out", str(tmp_path / "x")])


FLAG_TABLE = {
    "tl-decay": ["--n", "--J", "--p", "--ell", "--trials", "--slack"],
    "ring-decay": ["--n", "--J", "--lambda", "--slack"],
    "rearrange-scaling": ["--n", "--J", "--lambda", "--trials", "--slack"],
    "interp-ratio": ["--n", "--J", "--p-list", "--trials"],
    "sharpness": ["--p", "--eps", "--eta", "--sample", "--regime"],
    "jensen": ["--n", "--J", "--trials"],
    "semicontinuity": ["--n", "--J"],
    "selftest": ["--n", "--J"],
}


def test_each_subcommand_declares_only_its_flags():
    import argparse

    from haarriesz.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(FLAG_TABLE)
    settable = 0
    for name, flags in FLAG_TABLE.items():
        declared = [s for a in sub.choices[name]._actions for s in a.option_strings
                    if s not in ("-h", "--help")]
        assert sorted(declared) == sorted([*flags, "--seed", "--out", "--cap-bytes"]), name
        settable += len(declared)
    assert settable == 55


def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    # every reduction behind a CSV value adds in a fixed order (grid.dot),
    # not across however many threads BLAS splits it into
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"t{threads}"
        subprocess.run([sys.executable, "-m", "haarriesz.cli", "rearrange-scaling", "--n", "2",
                        "--J", "7", "--lambda", "1,2", "--seed", "1", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]
