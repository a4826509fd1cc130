import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from compana import cli, series


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_scientific_notation(self):
        assert cli.parse_count("1e6") == 1_000_000
        assert cli.parse_count("1048576") == 1_048_576
        assert cli.parse_count("2.5e3") == 2_500

    def test_rejects_non_integers(self):
        with pytest.raises(Exception):
            cli.parse_count("2.5")

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="no int-to-str digit limit before Python 3.10.7",
    )
    def test_digit_limit_does_not_follow_the_process(self, capsys):
        # main lifts the process's int-to-str limit; parse_count keeps
        # refusing what a fresh process refuses, and accepts what it accepts.
        limit = cli._MAX_COUNT_DIGITS
        previous = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(limit)
            assert cli.parse_count("1" * limit) == int("1" * limit)
            with pytest.raises(argparse.ArgumentTypeError):
                cli.parse_count("1" * (limit + 1))
            assert cli.main(["rho", "--k", "3"]) == 0
            capsys.readouterr()
            assert sys.get_int_max_str_digits() == 0
            assert cli.parse_count("1" * limit) == int("1" * limit)
            with pytest.raises(argparse.ArgumentTypeError):
                cli.parse_count("1" * (limit + 1))
            with pytest.raises(SystemExit) as excinfo:
                cli.main(["rho", "--k", "1" * (limit + 1)])
            assert excinfo.value.code == 2
        finally:
            sys.set_int_max_str_digits(previous)

    def test_power_past_the_digit_limit_is_refused(self):
        limit = cli._MAX_COUNT_DIGITS
        assert cli.parse_count(f"10^{limit - 1}") == 10 ** (limit - 1)
        # (10^(limit/2) - 1)^2 has exactly `limit` digits.
        nines = "9" * (limit // 2)
        assert cli.parse_count(f"{nines}^2") == int(nines) ** 2
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_count(f"10^{limit}")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["predict", "--n", f"10^{limit}", "--m", "1"])
        assert excinfo.value.code == 2

    def test_negative_exponent_is_refused(self):
        for text in ("0^-1", "10^-3"):
            with pytest.raises(argparse.ArgumentTypeError):
                cli.parse_count(text)

    @pytest.mark.parametrize(
        "argv",
        [
            ("predict", "--n", "10^400", "--m", "1"),
            ("rho", "--k", "10^400"),
            ("mellin", "--n", "10^400", "--m", "1"),
            ("compare", "--n", "10^400", "--m", "1"),
            ("prob", "--n", "10^400", "--k", "3", "--m", "1", "--route", "singularity"),
        ],
    )
    def test_count_too_large_for_a_float_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_count_list(self):
        assert cli.parse_count_list("10,100,1000") == [10, 100, 1000]
        assert cli.parse_count_list("100..1600") == [100, 200, 400, 800, 1600]
        assert cli.parse_count_list("100..1000") == [100, 200, 400, 800, 1000]
        assert cli.parse_count_list("1e2, 1e3") == [100, 1000]


class TestExactCommand:
    def test_n5_table(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--n", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,probability,decimal"
        assert lines[1:] == [
            "1,5/8,0.625",
            "2,3/16,0.1875",
            "3,1/8,0.125",
            "5,1/16,0.0625",
        ]

    def test_n1(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--n", "1")
        assert code == 0
        assert out.strip().splitlines()[1] == "1,1,1"

    def test_rows_sum_to_one(self, capsys):
        from fractions import Fraction

        code, out, _ = run_cli(capsys, "exact", "--n", "6")
        assert code == 0
        total = sum(Fraction(line.split(",")[1]) for line in out.strip().splitlines()[1:])
        assert total == 1

    def test_cap_exceeded_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--n", "30")
        assert code == 2
        assert "cap" in err

    def test_cap_is_fixed_at_25(self, capsys, monkeypatch):
        # The environment variable that once moved the cap has no effect.
        monkeypatch.setenv("COMPANA_ENUM_CAP", "5")
        code, out, _ = run_cli(capsys, "exact", "--n", "25", "--m", "1")
        assert code == 0
        assert out.startswith("m,probability,decimal\n1,")
        code, out, err = run_cli(capsys, "exact", "--n", "26")
        assert code == 2
        assert out == ""
        assert "enumeration cap of 25" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--n", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0] == {"m": 1, "probability": "5/8", "decimal": "0.625"}


class TestProbCommand:
    def test_series_route(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--n", "5", "--k", "1", "--m", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[3] == "5/16"
        assert row[4] == "0.3125"

    def test_k_above_n_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--n", "10", "--k", "11", "--m", "1")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[3] == "0"

    def test_both_routes_close_at_scale(self, capsys):
        code, out, _ = run_cli(
            capsys, "prob", "--n", "2000", "--k", "5", "--m", "2", "--route", "both"
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[-1]) <= 0.01

    def test_exact_rational_past_int_str_digit_limit(self, capsys):
        # The reduced denominator 2^14999 has about 4515 decimal digits.
        code, out, _ = run_cli(capsys, "prob", "--n", "15000", "--k", "1", "--m", "0")
        assert code == 0
        rational = Fraction(out.strip().splitlines()[1].split(",")[3])
        assert rational * 2**14999 == series.count_with_multiplicity(15000, 1, 0)


class TestPredictCommand:
    def test_power_of_two(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--n", "1048576", "--m", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        scaled, frac, fluct = float(row[3]), float(row[4]), float(row[5])
        assert frac == 0.0
        assert abs(fluct) <= 1.1e-5
        # printed at 12 significant digits, so absolute agreement ~1e-11
        assert scaled == pytest.approx(1.0 + fluct, abs=1e-11)

    def test_tiny_n_is_finite(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--n", "5", "--m", "1")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[2]) > 0

    def test_one_gamma_series_per_row(self, capsys, monkeypatch):
        calls = []
        gamma = cli.asymptotics.complex_gamma

        def counted(z):
            calls.append(z)
            return gamma(z)

        monkeypatch.setattr(cli.asymptotics, "complex_gamma", counted)
        code, _, _ = run_cli(capsys, "predict", "--n", "1e6", "--m", "2")
        assert code == 0
        assert len(calls) == cli.asymptotics.DEFAULT_HARMONICS


class TestSampleCommand:
    def test_close_to_exact_n5(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--n", "5", "--m", "1", "--trials", "200000", "--seed", "7"
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        mc, stderr = float(row[5]), float(row[6])
        assert abs(mc - 0.625) <= 5 * stderr

    def test_byte_identical_reruns(self, capsys):
        args = ("sample", "--n", "40", "--m", "1", "--trials", "30000", "--seed", "3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_byte_identical_multiworker(self, capsys):
        args = (
            "sample", "--n", "40", "--m", "2",
            "--trials", "30000", "--seed", "3", "--workers", "3",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_n_past_monte_carlo_bound_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--n", "3e9", "--m", "1", "--trials", "100")
        assert code == 2
        assert out == ""
        assert "exceeds the Monte Carlo limit of 1000000000" in err

    def test_n_at_monte_carlo_bound(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "1e9", "--m", "1", "--trials", "200")
        assert code == 0
        assert out.splitlines()[1].startswith("1000000000,1,200,")

    @pytest.mark.parametrize(
        "flag,value",
        [("--trials", "-1"), ("--workers", "0"), ("--precision", "0"), ("--precision", "-1")],
    )
    def test_bad_knobs_rejected_while_parsing(self, flag, value, capsys, monkeypatch):
        def must_not_sample(*args, **kwargs):
            raise AssertionError("sampled before the arguments were checked")

        monkeypatch.setattr(cli.compositions, "mc_event_probability", must_not_sample)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sample", "--n", "100", "--m", "1", flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "sample"])
    def test_m_past_the_limit_law_range_fails_before_sampling(self, command, capsys, monkeypatch):
        def must_not_sample(*args, **kwargs):
            raise AssertionError("sampled before the prediction")

        monkeypatch.setattr(cli.compositions, "mc_event_probability", must_not_sample)
        code, out, err = run_cli(capsys, command, "--n", "1e6", "--m", "142")
        assert (code, out) == (2, "")
        assert err == (
            "error: m=142 with p_max=19 is out of range: "
            "the limit law's Gamma factor overflows a double\n"
        )


class TestDistinctCommand:
    def test_small_n_mean_matches_enumeration(self, capsys):
        code, out, _ = run_cli(
            capsys, "distinct", "--n", "5", "--trials", "100000", "--seed", "11"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        mean = float(record["mean_distinct"])
        stderr = float(record["mean_distinct_stderr"])
        assert abs(mean - 1.875) <= 5 * stderr

    def test_empirical_probability_exceeds_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "distinct", "--n", "400", "--trials", "20000", "--seed", "2"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        empirical = float(record["empirical_window_prob"])
        bound = float(record["exact_lower_bound"])
        stderr = float(record["window_prob_stderr"])
        assert empirical >= bound - 5 * stderr
        lo, hi = int(record["window_lo"]), int(record["window_hi"])
        assert lo <= float(record["mean_distinct"]) <= hi

    def test_window_bound_at_a_billion(self, capsys):
        code, out, _ = run_cli(
            capsys, "distinct", "--n", "1e9", "--trials", "1000", "--seed", "1"
        )
        assert code == 0
        header, row = out.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert 0.9 < float(record["exact_lower_bound"]) < 1

    def test_histogram_json_and_file(self, capsys, tmp_path):
        hist_file = tmp_path / "hist.csv"
        code, out, _ = run_cli(
            capsys,
            "distinct", "--n", "20", "--trials", "5000", "--seed", "1",
            "--format", "json", "--hist-out", str(hist_file),
        )
        assert code == 0
        payload = json.loads(out)
        assert sum(payload["histogram"].values()) == 5000
        lines = hist_file.read_text().strip().splitlines()
        assert lines[0] == "distinct,count"
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 5000


class TestCompareCommand:
    def test_header_is_byte_exact(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "10", "--m", "1")
        assert code == 0
        header = out.splitlines()[0]
        assert header == (
            "n,m,exact,series,singularity,prediction,mc,mc_stderr,"
            "rel_err_series_exact,rel_err_pred_mc"
        )

    def test_exact_routes_agree_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "10,100,1000", "--m", "1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        by_n = {int(r[0]): r for r in rows}
        assert float(by_n[10][8]) == 0.0  # rel_err_series_exact
        assert by_n[100][2] == ""  # enumeration infeasible above the cap
        assert by_n[100][3] != ""

    def test_series_vs_singularity_error_shrinks(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "250..4000", "--m", "1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        errors = [
            abs(float(r[4]) - float(r[3])) / float(r[3]) for r in rows if r[3] and r[4]
        ]
        assert len(errors) >= 4
        assert errors[-1] < errors[0]

    def test_with_trials_populates_mc(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--n", "50", "--m", "1", "--trials", "20000", "--seed", "5"
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[6] != "" and row[7] != "" and row[9] != ""

    def test_round_trip_at_declared_precision(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "10,200", "--m", "2")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            for cell in line.split(",")[2:]:
                if cell:
                    assert format(float(cell), ".12g") == cell


class TestRhoCommand:
    def test_dump_fields(self, capsys):
        code, out, _ = run_cli(capsys, "rho", "--k", "2")
        assert code == 0
        header, row = out.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["method"] == "bisection+newton"
        assert 0.5333 < float(record["rho"]) < 0.625
        assert float(record["residual"]) <= 1e-12

    def test_series_expansion_tag(self, capsys):
        code, out, _ = run_cli(capsys, "rho", "--k", "50")
        assert code == 0
        assert "series-expansion" in out


class TestMellinCommand:
    def test_routes_agree(self, capsys):
        code, out, _ = run_cli(capsys, "mellin", "--n", "1e6", "--m", "1")
        assert code == 0
        header, row = out.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert float(record["rel_diff"]) < 1e-8
        assert int(record["k_lo"]) >= 1

    @pytest.mark.parametrize("p_max", ["101", "1e5", "10^9", "-1"])
    def test_p_max_outside_the_cap_refused_while_parsing(self, p_max, capsys, monkeypatch):
        def must_not_sum(*args, **kwargs):
            raise AssertionError("summed before the arguments were checked")

        monkeypatch.setattr(cli.asymptotics, "harmonic_sum_result", must_not_sum)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["mellin", "--n", "1e6", "--m", "1", "--p-max", p_max])
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out) == (2, "")
        assert f"must be between 0 and {cli.asymptotics.MAX_HARMONICS}" in captured.err

    def test_p_max_at_the_cap_runs(self, capsys):
        cap = str(cli.asymptotics.MAX_HARMONICS)
        code, out, _ = run_cli(capsys, "mellin", "--n", "1e6", "--m", "1", "--p-max", cap)
        assert code == 0
        assert out.splitlines()[1].endswith(f",{cap}")


class TestOutputPlumbing:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "exact", "--n", "5", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[1] == "1,5/8,0.625"

    @pytest.mark.parametrize(
        "argv",
        [
            ("rho", "--k", "3", "--out", "{missing}/table.csv"),
            ("distinct", "--n", "100", "--trials", "10", "--hist-out", "{missing}/hist.csv"),
        ],
    )
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing"
        code, out, err = run_cli(capsys, *(a.format(missing=missing) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert str(missing) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--n", "1e6", "--m", "1", "--trials", "2e5", "--out", "{bad}/x.csv"),
            ("distinct", "--n", "1e6", "--trials", "2e5", "--hist-out", "{bad}/x.csv"),
        ],
    )
    @pytest.mark.parametrize("bad", ["missing", "file", "dir"])
    def test_unwritable_output_fails_before_sampling(
        self, capsys, tmp_path, monkeypatch, argv, bad
    ):
        # "dir": the output path itself is an existing directory.
        def must_not_sample(*args, **kwargs):
            raise AssertionError("sampled before the output path was checked")

        monkeypatch.setattr(cli.compositions, "mc_event_probability", must_not_sample)
        monkeypatch.setattr(cli.compositions, "distinct_size_histogram", must_not_sample)
        (tmp_path / "file").write_text("")
        (tmp_path / "dir" / "x.csv").mkdir(parents=True)
        bad_dir = tmp_path / bad
        code, out, err = run_cli(capsys, *(a.format(bad=bad_dir) for a in argv))
        assert (code, out) == (2, "")
        reason = "it is a directory" if bad == "dir" else f"{bad_dir} is not a writable directory"
        assert err == f"error: cannot write {bad_dir / 'x.csv'}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
        assert not any((tmp_path / "dir" / "x.csv").iterdir())

    def test_out_file_in_the_working_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "rho", "--k", "3", "--out", "rho.csv")
        assert (code, out) == (0, "")
        assert (tmp_path / "rho.csv").read_text().startswith("k,rho,")

    def test_precision_flag(self, capsys):
        _, out12, _ = run_cli(capsys, "rho", "--k", "3")
        _, out4, _ = run_cli(capsys, "rho", "--k", "3", "--precision", "4")
        rho12 = out12.strip().splitlines()[1].split(",")[1]
        rho4 = out4.strip().splitlines()[1].split(",")[1]
        assert len(rho4) < len(rho12)
        assert float(rho4) == pytest.approx(float(rho12), rel=1e-3)

    def test_missing_argument_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["exact"])
        assert excinfo.value.code == 2

    def test_shared_parser_matches_fresh_parsers(self, monkeypatch):
        argvs = [
            ["rho", "--k", "3"],
            ["predict", "--n", "1e6", "--m", "2", "--format", "json"],
            ["sample", "--n", "100", "--m", "1", "--trials", "-1"],
            ["mellin", "--n", "1e3", "--m", "1", "--precision", "4"],
            ["exact"],
        ]

        def run_all():
            results = []
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                results.append((code, out.getvalue(), err.getvalue()))
            return results

        shared = run_all()
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = run_all()
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2]

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2


def test_package_exports_the_readme_library_names():
    import compana

    exported = {name for name, value in vars(compana).items() if callable(value)}
    assert exported == {
        "exact_event_probability", "prob_multiplicity", "mc_event_probability",
        "prob_multiplicity_singularity", "predict_event_probability",
    }
    assert compana.__version__ == "0.1.0"


# Runs in a fresh interpreter: the test suite itself has numpy loaded.
_SAMPLER_MODULES_PROBE = """
import json, sys
import compana, compana.cli as cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(json.dumps([m for m in ("numpy", "concurrent.futures") if m in sys.modules]))
"""


def sampler_modules_after(*argvs):
    """Which of numpy and concurrent.futures a fresh interpreter has loaded
    after importing compana and running the given commands."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", _SAMPLER_MODULES_PROBE, json.dumps(argvs)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_commands_that_do_not_sample_leave_numpy_unloaded():
    assert sampler_modules_after(
        ["exact", "--n", "6"],
        ["prob", "--n", "50", "--k", "2", "--m", "1", "--route", "both"],
        ["predict", "--n", "1e6", "--m", "1"],
        ["rho", "--k", "3"],
        ["mellin", "--n", "1e6", "--m", "1"],
        ["compare", "--n", "10,100", "--m", "1", "--trials", "0"],
    ) == []


def test_sample_loads_numpy_and_the_pool():
    assert sampler_modules_after(
        ["sample", "--n", "100", "--m", "1", "--trials", "100", "--workers", "2"]
    ) == ["numpy", "concurrent.futures"]
