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
