"""Tests for the command line front end."""

import argparse
import contextlib
import copy
import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import auesim.cli
from auesim import estimators, harness, model, theory
from auesim.cli import OPTIONS, SWEEP_OPTIONS, main, parse_args
from auesim.harness import BLOCK, CSV_HEADER, DEFAULT_TRIALS, SweepAxis
from auesim.model import CfoKind

import oracles


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


def child_env(**overrides):
    """Environment of a child interpreter that imports this checkout's package."""
    src = Path(auesim.cli.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=str(src), **overrides)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before its option table: the oracle of
    ``parse_args``.  The scheme and value converters are the CLI's own."""
    parser = argparse.ArgumentParser(
        prog="auesim",
        description="Monte Carlo NRMSE of covariance-based active-user counting schemes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    system = common.add_argument_group("system")
    system.add_argument("--n", type=_positive_int, default=100, help="population size (default 100)")
    system.add_argument("--k", type=_positive_int, default=25, help="active users (default 25)")
    system.add_argument("--m", type=_positive_int, default=32, help="receive antennas (default 32)")
    system.add_argument("--snr-db", type=float, default=10.0, help="per-user SNR in dB (default 10)")
    system.add_argument(
        "--eps-max", type=float, default=0.15, help="worst-case normalized CFO (default 0.15)"
    )
    system.add_argument(
        "--cfo",
        choices=[kind.value for kind in CfoKind],
        default=CfoKind.UNIFORM.value,
        help="CFO distribution (default uniform); --eps-max 0 disables offsets",
    )
    runner = common.add_argument_group("experiment")
    runner.add_argument(
        "--schemes",
        type=auesim.cli._parse_schemes,
        default=auesim.cli._parse_schemes("eig-sum,eig-diff,orthogonal,mle"),
        help="comma list of schemes",
    )
    runner.add_argument(
        "--trials", type=_positive_int, default=DEFAULT_TRIALS,
        help=f"Monte Carlo trials per point (default {DEFAULT_TRIALS})",
    )
    runner.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    runner.add_argument(
        "--theory", action="store_true", help="attach the closed-form eig-sum NRMSE column"
    )
    runner.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes (default 1; results do not depend on this)",
    )
    output = common.add_argument_group("output")
    output.add_argument("--out", default="-", help="output path, '-' for stdout (default)")
    output.add_argument("--format", choices=["csv", "json"], default="csv", help="output format")

    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("run", parents=[common], help="simulate the base configuration")
    sweep = commands.add_parser("sweep", parents=[common], help="vary one axis over a value list")
    sweep.add_argument(
        "--axis",
        choices=[a.value for a in SweepAxis if a is not SweepAxis.NONE],
        required=True,
        help="system parameter to sweep",
    )
    sweep.add_argument(
        "--values", type=auesim.cli._parse_values, required=True, help="comma list of axis values"
    )
    return parser


def oracle_args(argv):
    """The oracle's values of ``argv`` by destination, or None where it exits 2."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 2
        return None


def table_args(argv):
    """``parse_args``'s values of ``argv``, or None where it rejects them."""
    try:
        return parse_args(argv)
    except ValueError:
        return None


def spelled(values):
    """Values compared by repr, so that NaN equals NaN and -0.0 differs from 0.0."""
    return None if values is None else {key: repr(value) for key, value in values.items()}


# argparse reads an argument that starts with '-' as an option, not as the
# value of the option before it, unless it is '-' alone or one of these
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")

_JUNK = st.sampled_from(["x", "", "1e", "0x10", "1,,2"])
_COUNTS = st.integers(1, 400).map(str) | st.sampled_from([" 7 ", "+3", "1_0", "\u0663"])
_FLOATS = st.floats().map(repr) | st.sampled_from(["1e3", "-5", "-.5", "inf", " 2 ", "1_0.5"])
_SCHEME_LISTS = st.lists(
    st.sampled_from(["eig-sum", "eig_diff", "ORTHOGONAL", " mle "]), min_size=1, max_size=4, unique=True
).map(",".join)
_PATHS = st.sampled_from(["-", "", "out.csv", "a=b", "-x", "--k", "- x"])
_COUNT_TEXTS = (_COUNTS, _JUNK | st.integers(-3, 0).map(str))
# the valid and the invalid values of each option
_VALUES = {
    "n": _COUNT_TEXTS,
    "k": _COUNT_TEXTS,
    "m": _COUNT_TEXTS,
    "snr_db": (_FLOATS, _JUNK),
    "eps_max": (_FLOATS, _JUNK),
    "cfo": (st.sampled_from(["uniform", "gaussian"]), st.sampled_from(["Uniform", "bogus", ""])),
    "schemes": (_SCHEME_LISTS, st.sampled_from(["bogus", "", "mle,MLE", "eig-sum,,mle"])),
    "trials": _COUNT_TEXTS,
    "seed": (st.integers(-5, 2**70).map(str), _JUNK),
    "theory": (st.none(), st.sampled_from(["", "x"])),  # None: the switch alone
    "workers": _COUNT_TEXTS,
    "out": (_PATHS, _PATHS),  # every path parses; one that cannot be opened fails later
    "format": (st.sampled_from(["csv", "json"]), st.sampled_from(["xml", "CSV"])),
    "axis": (st.sampled_from(["epsilon", "m", "snr", "k"]), st.sampled_from(["none", "K", ""])),
    "values": (st.lists(_FLOATS, min_size=1, max_size=4).map(",".join), _JUNK),
}


@st.composite
def argument_lists(draw):
    """A run or sweep argument list: any options of the command's table, in any
    order, repeated or not, each spelled in full or as a prefix, with its value
    as ``--opt=value`` or as the next argument, valid or invalid; and at times a
    stray argument, such as a sweep option given to run."""
    command = draw(st.sampled_from(["run", "sweep"]))
    table = OPTIONS if command == "run" else (*OPTIONS, *SWEEP_OPTIONS)
    options = draw(st.lists(st.sampled_from(table), max_size=6))
    if command == "sweep" and draw(st.integers(0, 3)):
        options += SWEEP_OPTIONS
    argv = [command]
    for opt in draw(st.permutations(options)):
        name = draw(st.sampled_from([opt.flag] * 3 + [opt.flag[:cut] for cut in range(3, len(opt.flag))]))
        valid, invalid = _VALUES[opt.dest]
        text = draw(invalid if draw(st.sampled_from([False] * 9 + [True])) else valid)
        if opt.convert is None:
            argv.append(name if text is None else f"{name}={text}")
        # documented difference: parse_args reads any next argument as the value
        elif draw(st.booleans()) and (text == "-" or not text.startswith("-") or NEGATIVE_NUMBER.match(text)):
            argv += [name, text]
        else:
            argv.append(f"{name}={text}")
    stray = draw(st.sampled_from([None] * 40 + ["x", "5", "-x", "--", "--bogus", "--axis=m", "--va=1"]))
    if stray is not None:
        argv.insert(draw(st.integers(1, len(argv))), stray)
    return argv


class TestParserDefaults:
    def test_run_defaults(self):
        args = parse_args(["run"])
        assert args["n"] == 100
        assert args["k"] == 25
        assert args["m"] == 32
        assert args["snr_db"] == 10.0
        assert args["eps_max"] == 0.15
        assert args["cfo"] == "uniform"
        assert [s.value for s in args["schemes"]] == ["eig-sum", "eig-diff", "orthogonal", "mle"]
        assert args["trials"] == DEFAULT_TRIALS
        assert args["seed"] == 0
        assert args["theory"] is False
        assert args["out"] == "-"
        assert args["format"] == "csv"
        assert args["workers"] == 1

    def test_parsing_leaves_the_table_unchanged(self, capsys):
        tables = copy.deepcopy((OPTIONS, SWEEP_OPTIONS))
        defaults = {"run": parse_args(["run"]), "sweep": parse_args(["sweep", "--axis=m", "--values=1"])}
        parse_args(["run"])["k"] = 0
        argv = ["run", "--trials", "3", "--k", "2", "--schemes", "mle", "--seed", "4", "--theory"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(["run", "--trials", "3", "--schemes", "mle"]) == 0
        assert parse_args(["sweep", "--axis", "k", "--values", "1,2", "--n=5", "--format", "json"])
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(first)
        assert (OPTIONS, SWEEP_OPTIONS) == tables
        assert parse_args(["run"]) == defaults["run"] == oracle_args(["run"])
        assert parse_args(["sweep", "--axis=m", "--values=1"]) == defaults["sweep"]
        assert defaults["sweep"] == oracle_args(["sweep", "--axis=m", "--values=1"])

    def test_scheme_names_accept_underscores(self):
        args = parse_args(["run", "--schemes", "eig_sum,MLE"])
        assert [s.value for s in args["schemes"]] == ["eig-sum", "mle"]

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
    def test_bad_arguments_exit_2(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(auesim.cli, "run_sweep", pytest.fail)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert oracle_args(argv) is None

    @pytest.mark.parametrize(
        "argv",
        [[], ["bogus"], ["--k", "5", "run"], ["run", "extra"], ["run", "run"], ["run", "--"],
         ["run", "--s", "3"], ["run", "--axis", "m"], ["run", "--theory=1"], ["run", "--k"],
         ["run", "-k", "5"], ["--help=x"], ["run", "--help=x"]],
        ids=repr,
    )
    def test_malformed_argument_lists_exit_2(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(auesim.cli, "run_sweep", pytest.fail)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert oracle_args(argv) is None

    @pytest.mark.parametrize(
        "argv,dest,value",
        [
            (["run", "--tri", "7"], "trials", 7),
            (["run", "--tri=7"], "trials", 7),
            (["run", "--th"], "theory", True),
            (["run", "--w=2", "--w", "3"], "workers", 3),
            (["sweep", "--va", "1", "--ax", "m"], "values", (1.0,)),
            (["run", "--snr-db", "-5"], "snr_db", -5.0),
            (["run", "--out=a=b"], "out", "a=b"),
            (["run", "--out", ""], "out", ""),
        ],
    )
    def test_prefixes_and_value_forms(self, argv, dest, value):
        """A unique prefix names its option, and the last of a repeated option wins, as with argparse."""
        assert parse_args(argv)[dest] == value
        assert oracle_args(argv)[dest] == value

    @pytest.mark.parametrize(
        "argv,dest,value",
        [
            (["sweep", "--axis", "snr", "--values", "-10,-5"], "values", (-10.0, -5.0)),
            (["run", "--snr-db", "-1e1"], "snr_db", -10.0),
            (["run", "--out", "-x.csv"], "out", "-x.csv"),
            (["run", "--out", "--k"], "out", "--k"),
        ],
    )
    def test_value_may_start_with_a_dash(self, argv, dest, value):
        """Documented difference: the argument after an option is its value,
        whatever it starts with; argparse read these as options and exited 2."""
        assert parse_args(argv)[dest] == value
        assert oracle_args(argv) is None

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(argument_lists())
    def test_parse_args_agrees_with_argparse(self, argv):
        """Any argument list of the option grammar parses to the oracle's values,
        or both reject it.  Excluded, as documented differences: a value that
        starts with '-' given as its own argument (other than '-' and negative
        numbers), which argparse rejects, and -h/--help, which parse_args reads
        before any argument that follows it, so an unknown argument before it is
        an error and one after it is not read."""
        assert spelled(table_args(argv)) == spelled(oracle_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["--help"], ["--he"], ["run", "-h"], ["sweep", "--help"], ["sweep", "--h"],
         ["run", "--k", "3", "-h", "--k", "0"]],
        ids=repr,
    )
    def test_help_exits_0_and_names_every_option(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(auesim.cli, "run_sweep", pytest.fail)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        flags = {opt.flag for opt in (*OPTIONS, *SWEEP_OPTIONS)}
        oracle = build_parser()._subparsers._group_actions[0].choices
        assert flags == {flag for sub in oracle.values() for action in sub._actions
                         for flag in action.option_strings if flag not in ("-h", "--help")}
        assert all(flag in captured.out for flag in (*flags, "--help", "run", "sweep"))


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_only_an_existing_file_is_cut(self, tmp_path, capsys, monkeypatch, fmt):
        """A file the call creates is empty, so it is written and not cut; an
        existing, longer file is cut to the output's length."""
        argv = ["run", "--trials", "15", "--schemes", "orthogonal", "--format", fmt]
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode()
        cuts = []
        real_ftruncate = os.ftruncate

        def recording_ftruncate(fd, length):
            cuts.append(length)
            real_ftruncate(fd, length)

        monkeypatch.setattr(os, "ftruncate", recording_ftruncate)
        out = tmp_path / "point.out"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected
        assert cuts == []
        out.write_bytes(b"x" * (3 * len(expected)))
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected
        assert cuts == [len(expected)]

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


def _either(usual, extremes):
    """The usual and the extreme texts of one option's value."""
    rare = st.sampled_from(extremes) if isinstance(extremes, list) else extremes
    return usual.map(str), rare.map(str)


_SNR_EXTREMES = st.floats() | st.sampled_from([-4000, -3080, -1500.1, -1500, 2990, 4000, 1e308])
_EPS_EXTREMES = st.floats() | st.sampled_from([1e6, 1e6 + 1, 0.5, 0.4999, 1.4999, 0.0, -0.0])
# the usual values keep each call cheap (K <= 64, --trials <= 512) and are
# mostly valid; the extremes are valid at the edge, or values the CLI refuses
_VALUE_PAIRS = {
    "n": _either(st.integers(1, 200), [-1, 0, 2**25 - 1, 2**25, 2**63, 10**400, "1e3"]),
    "k": _either(st.integers(1, 64), [-1, 0, 2**25, 2**63, 10**400]),
    "m": _either(st.integers(1, 64), [-1, 0, 2**53, 2**53 + 1, 2**1023, 10**400]),
    "snr_db": _either(st.floats(-100.0, 100.0), _SNR_EXTREMES),
    "eps_max": _either(st.floats(0.0, 0.45), _EPS_EXTREMES),
    "cfo": _either(st.sampled_from(["uniform", "gaussian"]), ["bogus", "Gaussian"]),
    "schemes": _either(_SCHEME_LISTS, ["bogus", "mle,mle", ""]),
    "seed": _either(st.integers(0, 2**64 - 1), [-1, 2**64 - 1, 2**64, 10**30]),
    "theory": (st.none(), st.just("x")),  # None: the switch alone
    "workers": _either(st.just(1), [0, -3, "x"]),  # no pool starts
    "out": _either(st.sampled_from(["-", "{tmp}/rows"]), ["{tmp}", "{tmp}/missing/rows", ""]),
    "format": _either(st.sampled_from(["csv", "json"]), ["xml", "CSV"]),
    "trials": _either(st.integers(1, 512), [-1, 0, 1, 256, 257, 512, 2**63, 10**30]),
    "axis": _either(st.sampled_from(["k", "m", "snr", "epsilon"]), ["none", "K", ""]),
}
_AXIS_VALUE_PAIRS = {
    "k": _either(st.integers(1, 64), [-1, 0, 2.5, 1e300, 2**25, 10**400, "nan"]),
    "m": _either(st.integers(1, 64), [-1, 0, 2**53, 2**53 + 1, 2.5, 1e300, "inf"]),
    "snr": _either(st.floats(-100.0, 100.0), _SNR_EXTREMES),
    "epsilon": _either(st.floats(0.0, 0.45), _EPS_EXTREMES),
}


@st.composite
def extreme_argument_lists(draw):
    """A run or sweep argument list of any options at usual values, then one
    option, or one sweep value, at an extreme, so that a failure points at one
    value; each option is spelled with '=' or with its value as the next
    argument.  ``--trials`` comes last, so that no call runs the default
    20,000 trials.  ``{tmp}`` in a path stands for a fresh temporary directory."""
    command = draw(st.sampled_from(["run", "sweep"]))
    flags = {opt.dest: opt.flag for opt in (OPTIONS if command == "run" else (*OPTIONS, *SWEEP_OPTIONS))}
    focus = draw(st.sampled_from(sorted(flags)))

    def value(dest):
        usual, extreme = _VALUE_PAIRS[dest]
        return draw(extreme if dest == focus else usual)

    others = sorted(flags.keys() - {"axis", "values", "trials", focus})
    pairs = [(flags[dest], value(dest)) for dest in draw(st.lists(st.sampled_from(others), max_size=6))]
    if focus not in ("axis", "values", "trials"):
        pairs.append((flags[focus], value(focus)))
    if command == "sweep":
        axis = value("axis")
        # an axis the CLI refuses takes any values
        usual, extreme = _AXIS_VALUE_PAIRS.get(axis, _AXIS_VALUE_PAIRS["snr"])
        values = draw(st.lists(usual, min_size=1, max_size=3))
        if focus == "values":
            values[draw(st.integers(0, len(values) - 1))] = draw(extreme)
        pairs += [("--axis", axis), ("--values", ",".join(values))]
    if draw(st.integers(0, 30)) == 0:
        pairs.insert(draw(st.integers(0, len(pairs))), ("--help", None))
    argv = [command]
    for flag, text in pairs:
        if text is None:
            argv.append(flag)
        elif draw(st.booleans()) and flag != "--theory":
            argv += [flag, text]
        else:
            argv.append(f"{flag}={text}")
    return argv + ["--trials", value("trials")]


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
        "argv,named",
        [
            (["run", "--m", str(10**400)], "MAX_ANTENNAS"),  # OverflowError in standard_gamma
            (["run", "--m", str(2**1023)], "MAX_ANTENNAS"),  # P * Gamma(M) overflowed to inf mid-run
            (["sweep", "--axis", "m", "--values", "1,1e300"], "MAX_ANTENNAS"),
            (["run", "--trials", str(10**30)], "MAX_TRIALS"),  # OverflowError from len() of the blocks
        ],
        ids=["m-10^400", "m-2^1023", "sweep-m-1e300", "trials-10^30"],
    )
    def test_sizes_past_bound_exit_2(self, monkeypatch, capsys, argv, named):
        """Each ended in a traceback with exit 1; now the request is refused before any trial runs."""
        monkeypatch.setattr(auesim.cli, "run_sweep", pytest.fail)
        assert main(argv) == 2
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

    @pytest.mark.parametrize("exception", [KeyboardInterrupt, RuntimeError])
    @pytest.mark.parametrize("stage", ["run_sweep", "write_csv"])
    def test_interrupt_removes_only_a_created_file(self, tmp_path, monkeypatch, stage, exception):
        """An interrupt or an unexpected error in the run or the write propagates,
        and takes the file this call created with it, not an existing one."""
        def interrupted(*args, **kwargs):
            raise exception

        monkeypatch.setattr(auesim.cli, stage, interrupted)
        fresh = tmp_path / "fresh.csv"
        with pytest.raises(exception):
            main(["run", "--trials", "5", "--out", str(fresh)])
        assert not fresh.exists()
        kept = tmp_path / "kept.csv"
        kept.write_bytes(b"earlier results\n")
        with pytest.raises(exception):
            main(["run", "--trials", "5", "--out", str(kept)])
        assert kept.read_bytes() == b"earlier results\n"

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

    def test_file_created_by_another_process_keeps_its_bytes(self, tmp_path, monkeypatch, capsys):
        """A file that appears after a check for an existing --out and before its
        open is not this call's, and a failing exit must leave it.  Reporting the
        existing file as missing makes that race happen on every run."""
        out = tmp_path / "point.csv"
        out.write_bytes(b"earlier results\n")
        monkeypatch.setattr(os.path, "lexists", lambda path: False)
        argv = ["run", "--eps-max", "0.5", "--schemes", "eig-diff", "--trials", "5", "--out", str(out)]
        assert main(argv) == 3
        assert out.read_bytes() == b"earlier results\n"
        assert capsys.readouterr().err.startswith("error: ")

    def test_domain_error_exits_3(self, capsys):
        code = main(["run", "--eps-max", "0.5", "--schemes", "eig-diff", "--trials", "5"])
        assert code == 3
        assert "characteristic function too small" in capsys.readouterr().err

    def test_sweep_domain_error_names_the_point(self, capsys):
        argv = ["sweep", "--axis", "epsilon", "--values", "0,0.5", "--schemes", "eig-diff"]
        assert main([*argv, "--trials", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: epsilon = 0.5: characteristic function too small")

    def test_success_exits_0(self, capsys):
        assert main(["run", "--trials", "5", "--schemes", "orthogonal"]) == 0
        capsys.readouterr()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(extreme_argument_lists())
    @example(argv=["sweep", "--axis", "epsilon", "--values=0.1,0.5", "--trials", "5"])
    @example(argv=["run", "--m", str(2**53), "--k", "64", "--snr-db=-1500", "--theory", "--trials", "512"])
    def test_extreme_options_exit_cleanly(self, argv):
        """Any option at an extreme value works (0), is refused (2) or meets a
        scheme's domain (3), with one ``error:`` line on every failing exit and
        no exception.  In process, with one worker, so no pool starts."""
        with tempfile.TemporaryDirectory() as tmp:
            argv = [arg.replace("{tmp}", tmp) for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2, 3), (argv, code)
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


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
        serial run leave concurrent.futures unloaded, and argparse and csv are not
        loaded at all.  The same run loads every module the package ships, so a
        module off the production path (test code among them) cannot ship; and no
        module keeps a name that moved or was deleted."""
        code = (
            "import json, os, sys\n"
            "import auesim.cli\n"
            "unused = ('concurrent.futures', 'argparse', 'csv')\n"
            "loaded = [name in sys.modules for name in unused]\n"
            "auesim.cli.main(['run', '--trials', '300', '--out', os.devnull])\n"
            "loaded += [name in sys.modules for name in unused]\n"
            "imported = sorted(name for name in sys.modules if name.startswith('auesim.'))\n"
            "import pkgutil\n"
            "shipped = sorted(f'auesim.{m.name}' for m in pkgutil.iter_modules(auesim.__path__))\n"
            "shipped.remove('auesim.__main__')\n"
            "print(json.dumps([loaded, shipped, imported]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        loaded, shipped, imported = json.loads(proc.stdout)
        assert loaded == [False] * 6
        assert "auesim.harness" in shipped
        assert shipped == imported
        gone = {
            model: ("sample_wishart",),
            model.SystemConfig: ("snr_db",),
            estimators: (
                "estimate", "statistic", "Covariance", "EstimatorContext", "_STATISTICS",
                "_extremes", "eig_sum_statistic", "eig_diff_statistic", "orthogonal_statistic", "mle_statistic",
                "characteristic_function",
            ),
            harness: ("nrmse",),
            harness.ExperimentConfig: ("alphas",),
            theory: ("PopulationSpec", "CovarianceMoments", "moment_oracles"),
            oracles: (
                "gamma_exact", "population_eigenvalues", "_GAMMA_TOL",
                "ReceivedPilot", "SampleCovariance", "EigenPair", "PopulationSpec",
            ),
        }
        left = [f"{scope.__name__}.{name}" for scope, names in gone.items() for name in names if hasattr(scope, name)]
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
