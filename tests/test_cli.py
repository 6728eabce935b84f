"""Runner behavior: CSV/manifest artifacts, determinism, exit codes."""

import csv
import json
import math

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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_row_names(self, n, tmp_path):
        # every row checks a layer that another subcommand calls
        out = tmp_path / "st"
        assert main(["selftest", "--n", str(n), "--J", "5", "--seed", "1", "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            names = [r["check"] for r in csv.DictReader(fh)]
        want = [f"{c}[{i}]" for i in range(10) for c in ("roundtrip", "parseval")]
        want += ["projection-reconstruction"]
        want += [f"projection-orthogonality[{a},{b}]" for a, b in ((0, 1), (0, 2), (1, 2)) if n > 1]
        want += ["projection-idempotent", "E0-global-mean", "EJ-identity", "EM-tower",
                 "lp-const-1", "riesz-energy"]
        for s in (1, 2, 3):
            want += [f"kernel-integral[s={s}]"]
            want += [f"kernel-moment[s={s},axis={ax}]" for ax in range(1, n + 1)]
        want += ["delta-const", "delta-telescoping", "t-ell-range"]
        if n == 2:
            want += ["ring-cover-40cells", "ring-cover-measure", "profile-A-vs-haar",
                     "profile-A-energy", "profile-B-energy", "block-coefficient[eps=0.5]",
                     "block-coefficient[eps=0.25]", "jensen[ab]", "jensen[abs_sum]",
                     "jensen[quad_cross]"]
        assert names == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("J", [3, 4])
    def test_row_names_are_unique(self, n, J, tmp_path):
        out = tmp_path / "st"
        assert main(["selftest", "--n", str(n), "--J", str(J), "--seed", "1",
                     "--out", str(out)]) == 0
        with open(out / "results.csv", newline="") as fh:
            names = [r["check"] for r in csv.DictReader(fh)]
        assert len(names) == len(set(names))

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
        # the floor row is the order L = inf, ||P beta_0 u|| / ||P u||
        from haarriesz.experiments import decomposition_residuals
        from haarriesz.grid import axis_direction

        out = tmp_path / "tl"
        main(["tl-decay", "--J", "5", "--ell=0..1", "--trials", "4", "--seed", "1",
              "--out", str(out)])
        with open(out / "results.csv", newline="") as fh:
            rows = {r["experiment"]: r for r in csv.DictReader(fh)}
        floor = rows["tl-decomposition-floor"]
        (want,), base = decomposition_residuals(2, 5, axis_direction(2, 1), [math.inf], seed=1)
        assert floor["ell_or_lambda"] == "inf"
        assert float(floor["measured"]) == want / base
        assert float(floor["measured"]) < float(rows["tl-decomposition"]["measured"])
        assert float(floor["slack"]) == float(floor["measured"]) / 0.05
        assert [floor[c] for c in ("iterations", "residual", "converged")] == ["0", "0.0", ""]

    @pytest.mark.parametrize("n,J", [(1, 4), (2, 4), (3, 5)])
    def test_smallest_grids_pass(self, n, J, tmp_path):
        # every scale j+ell >= 0 is kept, so the decomposition check holds
        # on the smallest grids the flags admit
        out = tmp_path / "tl"
        assert main(["tl-decay", "--n", str(n), "--J", str(J), "--ell=-1..1", "--trials", "4",
                     "--seed", "1", "--out", str(out)]) == 0


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

    def test_records_start_up_cpu_and_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        out = tmp_path / "start"
        main(["jensen", "--J", "3", "--trials", "1", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        # the process CPU before the run: at least the imports of this test
        assert manifest["startup_cpu_s"] > 0
        assert manifest["blas_thread_env"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2"}


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
    (["tl-decay", "--n", "2", "--J", "6", "--ell=-5..0"], "--ell"),
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
    (["interp-ratio", "--p-list", "2,2"], "--p-list"),
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

    for target in ("haarriesz.multiscale.op_norm2_estimate",
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

    monkeypatch.setattr("haarriesz.multiscale.op_norm2_estimate", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["tl-decay", "--J", "5", "--ell=-1..1", "--out", str(tmp_path / "x")])


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


def test_digest_tool_lists_every_checked_in_invocation():
    # the CI steps (23), the README usage lines (8) and the benchmark's
    # jobs at seeds 1 and 2 (16); none is run here
    import sys
    from pathlib import Path

    from haarriesz.cli import build_parser

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
    try:
        import csv_digests
    finally:
        sys.path.pop(0)
    runs = csv_digests.invocations()
    assert len(runs) == 47
    parser = build_parser()
    for args in runs:
        assert "--out" not in args
        parser.parse_args(args)
