"""Tests for the command line front end."""

import csv
import errno
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import auesim.cli
from auesim.cli import build_parser, main
from auesim.harness import BLOCK, CSV_HEADER, DEFAULT_TRIALS


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


def child_env(**overrides):
    """Environment of a child interpreter that imports this checkout's package."""
    src = Path(auesim.cli.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=str(src), **overrides)


class TestParserDefaults:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.n == 100
        assert args.k == 25
        assert args.m == 32
        assert args.snr_db == 10.0
        assert args.eps_max == 0.15
        assert args.cfo == "uniform"
        assert [s.value for s in args.schemes] == ["eig-sum", "eig-diff", "orthogonal", "mle"]
        assert args.trials == DEFAULT_TRIALS
        assert args.seed == 0
        assert args.theory is False
        assert args.out == "-"
        assert args.format == "csv"
        assert args.workers == 1

    def test_main_builds_one_parser_and_keeps_it_unchanged(self, monkeypatch, capsys):
        built = []
        real_build = auesim.cli.build_parser

        def counting_build():
            built.append(1)
            return real_build()

        monkeypatch.setattr(auesim.cli, "build_parser", counting_build)
        auesim.cli._parser.cache_clear()
        try:
            argv = ["run", "--trials", "3", "--k", "2", "--schemes", "mle", "--seed", "4"]
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(["run", "--trials", "3", "--schemes", "mle"]) == 0
            assert main(argv) == 0
            assert capsys.readouterr().out.endswith(first)
            assert len(built) == 1
            defaults = vars(auesim.cli._parser().parse_args(["run"]))
            assert defaults == vars(real_build().parse_args(["run"]))
        finally:
            auesim.cli._parser.cache_clear()

    def test_scheme_names_accept_underscores(self):
        args = build_parser().parse_args(["run", "--schemes", "eig_sum,MLE"])
        assert [s.value for s in args.schemes] == ["eig-sum", "mle"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--k", "0"],
            ["run", "--trials", "-5"],
            ["run", "--schemes", "bogus"],
            ["run", "--schemes", "mle,mle"],
            ["run", "--format", "xml"],
            ["sweep", "--values", "1,2"],
            ["sweep", "--axis", "m"],
            ["sweep", "--axis", "bogus", "--values", "1"],
            ["sweep", "--axis", "m", "--values", "a,b"],
        ],
    )
    def test_bad_arguments_exit_2(self, argv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2


class TestRunCommand:
    def test_csv_to_stdout(self, capsys):
        code = main(["run", "--trials", "40", "--seed", "3", "--theory"])
        assert code == 0
        lines = read_csv(capsys.readouterr().out)
        assert lines[0] == list(CSV_HEADER)
        assert len(lines) == 5
        for row, scheme in zip(lines[1:], ["eig-sum", "eig-diff", "orthogonal", "mle"]):
            assert row[0] == "none"
            assert row[1] == ""
            assert row[2] == scheme
            assert row[5] == "40"
            assert row[6] == "3"
        assert lines[1][4] != ""  # eig-sum carries the theory column
        assert lines[2][4] == ""

    def test_json_format(self, capsys):
        code = main(["run", "--trials", "25", "--seed", "4", "--schemes", "mle", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["axis"] == "none"
        assert payload[0]["axis_value"] is None
        assert payload[0]["scheme"] == "mle"
        assert payload[0]["trials"] == 25

    def test_rows_follow_scheme_order(self, capsys):
        main(["run", "--trials", "10", "--schemes", "mle,eig-sum"])
        lines = read_csv(capsys.readouterr().out)
        assert [row[2] for row in lines[1:]] == ["mle", "eig-sum"]

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "point.csv"
        code = main(["run", "--trials", "15", "--schemes", "orthogonal", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        lines = read_csv(out.read_text())
        assert lines[0] == list(CSV_HEADER)
        assert len(lines) == 2

    def test_json_output_file(self, tmp_path):
        out = tmp_path / "point.json"
        main(["run", "--trials", "15", "--schemes", "orthogonal", "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload[0]["scheme"] == "orthogonal"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_file_overwrites_longer_file(self, tmp_path, capsys, fmt):
        argv = ["run", "--trials", "15", "--schemes", "orthogonal", "--format", fmt]
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode()
        out = tmp_path / "point.out"
        out.write_bytes(b"x" * (10 * len(expected)))
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected

    def test_output_to_device_exits_0(self, capsys):
        if not os.path.exists(os.devnull):
            pytest.skip(f"no {os.devnull} on this platform")
        assert main(["run", "--trials", "15", "--schemes", "orthogonal", "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""


class TestSweepCommand:
    def test_axis_rows(self, capsys):
        code = main(
            [
                "sweep",
                "--axis",
                "k",
                "--values",
                "5,10",
                "--schemes",
                "eig-sum",
                "--trials",
                "30",
                "--seed",
                "2",
                "--theory",
            ]
        )
        assert code == 0
        lines = read_csv(capsys.readouterr().out)
        assert len(lines) == 3
        assert [row[0] for row in lines[1:]] == ["k", "k"]
        assert [row[1] for row in lines[1:]] == ["5", "10"]
        assert all(row[4] != "" for row in lines[1:])

    @pytest.mark.parametrize(
        "axis,values,flag,extra",
        [
            ("snr", "-5,0,20", "--snr-db", ["--n", "4", "--k", "2", "--m", "2"]),
            ("k", "40,1,10", "--k", ["--n", "40", "--cfo", "gaussian", "--eps-max", "0.2"]),
            ("m", "1,2,8", "--m", ["--cfo", "gaussian"]),
            ("epsilon", "0,0.1,0.25", "--eps-max", ["--schemes", "eig-sum,eig-diff"]),
        ],
    )
    def test_sweep_rows_equal_run_rows(self, capsys, axis, values, flag, extra):
        """Every sweep row is the row of ``run`` at its configuration and the same seed."""
        common = [*extra, "--trials", str(2 * BLOCK + 7), "--seed", "21", "--theory"]
        assert main(["sweep", "--axis", axis, f"--values={values}", *common]) == 0
        swept = read_csv(capsys.readouterr().out)[1:]
        alone = []
        for value in values.split(","):
            assert main(["run", f"{flag}={value}", *common]) == 0
            alone += read_csv(capsys.readouterr().out)[1:]
        assert len(swept) == len(alone) > 0
        for row, single in zip(swept, alone):
            assert row[0] == axis and single[:2] == ["none", ""]
            assert row[2:] == single[2:], (row, single)

    def test_epsilon_axis_formats_values(self, capsys):
        main(["sweep", "--axis", "epsilon", "--values", "0.1,0.15", "--schemes", "mle", "--trials", "10"])
        lines = read_csv(capsys.readouterr().out)
        assert [row[1] for row in lines[1:]] == ["0.100000000", "0.150000000"]


class TestExitCodes:
    def test_config_error_exits_2(self, capsys):
        code = main(["run", "--k", "300", "--trials", "10"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_population_above_error_sum_bound_exits_2(self, capsys):
        """At N = 1e9 the int64 error sums of this run used to wrap (traceback, exit 1)."""
        argv = ["run", "--n", "1000000000", "--k", "1", "--m", "1", "--snr-db=-80",
                "--trials", "5000", "--schemes", "eig-sum"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds MAX_POPULATION = 33554431" in captured.err

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["run", "--snr-db=-4000"], "snr_db = -4000.0"),  # 10^400 overflowed in the dB conversion
            (["run", "--snr-db=-3080"], "noise_variance"),  # finite, but r1 overflowed to inf mid-run
            (["run", "--snr-db=-1500.1"], "noise_variance"),
            (["sweep", "--axis", "snr", "--values=10,-4000"], "snr_db = -4000.0"),
            (["sweep", "--axis", "snr", "--values=10,-3080"], "noise_variance"),
            # 10^-400 underflows to 0, and the error named noise_variance = 0.0
            (["run", "--snr-db=4000"], "snr_db = 4000.0"),
            (["sweep", "--axis", "snr", "--values=10,4000"], "snr_db = 4000.0"),
        ],
        ids=["run-4000", "run-3080", "run-1500.1", "sweep-4000", "sweep-3080", "run+4000", "sweep+4000"],
    )
    def test_noise_power_past_bound_exits_2(self, capsys, argv, named):
        """Both used to end in a traceback with exit 1, the second only mid-run.
        The error names the SNR where the noise power leaves the float range."""
        assert main([*argv, "--m", "1", "--trials", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert named in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--trials", "5", "--schemes", "orthogonal"],
            ["sweep", "--axis", "k", "--values", ",".join(map(str, range(1, 101))), "--trials", "10"],
        ],
        ids=["buffered", "mid-write"],
    )
    def test_closed_pipe_exits_2_without_traceback(self, argv):
        """A reader that had gone away gave a BrokenPipeError traceback from
        write_csv (exit 1) or, for output still buffered, an "Exception ignored"
        line at shutdown (exit 120).  The read end is closed before the run, so
        the write fails on every run."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "auesim", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=child_env(),
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_full_device_exits_2(self, capsys):
        """Writing to /dev/full ended in an OSError traceback (exit 1) when the file closed."""
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        assert main(["run", "--trials", "5", "--schemes", "orthogonal", "--out", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert os.path.exists("/dev/full")

    def test_failed_write_removes_only_a_created_file(self, tmp_path, monkeypatch, capsys):
        def full(rows, stream):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(auesim.cli, "write_csv", full)
        fresh = tmp_path / "fresh.csv"
        assert main(["run", "--trials", "5", "--out", str(fresh)]) == 2
        assert not fresh.exists()
        kept = tmp_path / "kept.csv"
        kept.write_bytes(b"earlier results\n")
        assert main(["run", "--trials", "5", "--out", str(kept)]) == 2
        assert kept.read_bytes() == b"earlier results\n"
        assert capsys.readouterr().err.count("error: ") == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--eps-max", "1e300"],
            ["run", "--eps-max", "1000000.0000000001", "--cfo", "gaussian"],
            ["sweep", "--axis", "epsilon", "--values", "0.15,2e6"],
        ],
        ids=["run-1e300", "run-next-float", "sweep-2e6"],
    )
    def test_offset_past_bound_exits_2(self, capsys, argv):
        """Past MAX_EPSILON the table reduction of the phase stops being exact (at
        1e300 it would index the table with garbage), so the request is refused."""
        assert main([*argv, "--trials", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "[0, 1e+06]" in captured.err

    def test_offset_at_bound_runs_without_warnings(self):
        """At the bound every phase reduces exactly: no warning under -W error.
        eig-diff is left out, since alpha underflows to 0 there (exit 3)."""
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "auesim", "run", "--eps-max", "1e6",
             "--cfo", "gaussian", "--schemes", "eig-sum,orthogonal,mle", "--trials", str(BLOCK + 1)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0 and proc.stderr == ""
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert len(rows) == 3
        assert all(math.isfinite(float(row["nrmse_sim"])) for row in rows)

    def test_noise_power_just_inside_bound_runs(self, capsys):
        """At sigma^2 = 10^149.9 and M = 1 every covariance product stays finite:
        no overflow warning, and finite rows."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--m", "1", "--snr-db=-1499", "--trials", str(BLOCK + 1), "--theory"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert len(rows) == 4
        assert all(math.isfinite(float(row["nrmse_sim"])) for row in rows)

    @pytest.mark.parametrize("target", ["missing/point.csv", "."])
    def test_unwritable_output_exits_2_before_the_run(self, tmp_path, monkeypatch, capsys, target):
        """A path in a missing directory, or a directory, used to fail with a
        traceback and exit 1 after the whole run."""

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(auesim.cli, "run_sweep", no_run)
        assert main(["run", "--trials", "5", "--out", str(tmp_path / target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["run", "--k", "300", "--trials", "5"], 2),
            (["run", "--eps-max", "0.5", "--schemes", "eig-diff", "--trials", "5"], 3),
        ],
    )
    def test_failing_exit_keeps_existing_output(self, tmp_path, capsys, argv, code):
        out = tmp_path / "point.csv"
        out.write_bytes(b"earlier results\n")
        assert main([*argv, "--out", str(out)]) == code
        assert out.read_bytes() == b"earlier results\n"
        fresh = tmp_path / "fresh.csv"
        assert main([*argv, "--out", str(fresh)]) == code
        assert not fresh.exists()
        capsys.readouterr()

    def test_domain_error_exits_3(self, capsys):
        code = main(["run", "--eps-max", "0.5", "--schemes", "eig-diff", "--trials", "5"])
        assert code == 3
        assert "characteristic function too small" in capsys.readouterr().err

    def test_success_exits_0(self, capsys):
        assert main(["run", "--trials", "5", "--schemes", "orthogonal"]) == 0
        capsys.readouterr()


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, capsys):
        argv = ["sweep", "--axis", "m", "--values", "8,16", "--trials", "60", "--seed", "11", "--theory"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_worker_flag_does_not_change_output(self, capsys):
        argv = ["run", "--trials", "90", "--seed", "13"]
        main(argv)
        serial = capsys.readouterr().out
        main(argv + ["--workers", "3"])
        parallel = capsys.readouterr().out
        assert serial == parallel


class TestEntryPoints:
    def test_console_script(self, tmp_path):
        # Run the console script this checkout declares, through the launcher an
        # installer writes for it, rather than whatever `auesim` is on PATH.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert "auesim" in scripts
        entry = EntryPoint("auesim", scripts["auesim"], "console_scripts")
        launcher = tmp_path / "auesim"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            f"sys.exit({entry.attr}())\n"
        )
        launcher.chmod(0o755)
        env = child_env(PATH=os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]))
        proc = subprocess.run(
            ["auesim", "run", "--trials", "5", "--schemes", "orthogonal", "--seed", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(",".join(CSV_HEADER)), proc.stderr

    def test_serial_run_loads_no_pool_machinery(self):
        """The process pool is imported only when one starts: importing the CLI and a
        serial run leave concurrent.futures unloaded.  No production module loads
        the reference code, and none keeps a name that moved there or was deleted."""
        code = (
            "import os, sys\n"
            "import auesim.cli\n"
            "loaded = ['concurrent.futures' in sys.modules]\n"
            "auesim.cli.main(['run', '--trials', '300', '--out', os.devnull])\n"
            "loaded.append('concurrent.futures' in sys.modules)\n"
            "from auesim import cli, covariance, estimators, harness, model, theory\n"
            "loaded.append('auesim.reference' in sys.modules)\n"
            "print(loaded)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[False, False, False]"
        gone = {
            "model": ("sample_wishart",),
            "model.SystemConfig": ("snr_db",),
            "estimators": ("estimate", "statistic", "Covariance"),
            "harness": ("nrmse",),
            "theory": ("PopulationSpec", "CovarianceMoments", "moment_oracles"),
        }
        left = []
        for owner, names in gone.items():
            module, _, cls = owner.partition(".")
            scope = importlib.import_module(f"auesim.{module}")
            scope = getattr(scope, cls) if cls else scope
            left += [f"{owner}.{name}" for name in names if hasattr(scope, name)]
        assert left == []

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "auesim", "run", "--trials", "5", "--schemes", "mle"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith(",".join(CSV_HEADER))
