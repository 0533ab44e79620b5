"""Command line front end.

Two subcommands share one set of options: ``run`` simulates the base
configuration as a single point, ``sweep`` varies one axis over a list of
values; both build one ``ExperimentConfig`` and hand it to ``run_sweep``.
Every option is one entry of ``OPTIONS`` or, for ``sweep`` alone,
``SWEEP_OPTIONS``: ``parse_args`` reads an argument list from them in one
pass, and ``usage`` builds the help text from them.  Results go to stdout
or ``--out`` as CSV or JSON.  Exit codes: 0 success or ``-h``/``--help``;
2 bad arguments, bad configuration, an output path that cannot be opened
or a failed write; 3 estimator domain error.  Every failing exit prints one
``error: ...`` line on stderr.
"""

from __future__ import annotations

import contextlib
import io
import os
import stat
import sys
from typing import Any, Callable, NamedTuple, Sequence

from .estimators import EstimatorDomainError, Scheme
from .harness import (
    DEFAULT_TRIALS,
    ExperimentConfig,
    SweepAxis,
    run_sweep,
    snr_db_to_noise_variance,
    write_csv,
    write_json,
)
from .model import CfoKind, CfoModel, SystemConfig

_DEFAULT_SCHEMES = "eig-sum,eig-diff,orthogonal,mle"


def _parse_schemes(text: str) -> tuple[Scheme, ...]:
    names = [part.strip().lower().replace("_", "-") for part in text.split(",") if part.strip()]
    if not names:
        raise ValueError("at least one scheme is required")
    schemes: list[Scheme] = []
    for name in names:
        try:
            scheme = Scheme(name)
        except ValueError:
            known = ", ".join(s.value for s in Scheme)
            raise ValueError(f"unknown scheme '{name}' (known: {known})") from None
        if scheme in schemes:
            raise ValueError(f"scheme '{name}' listed twice")
        schemes.append(scheme)
    return tuple(schemes)


def _parse_values(text: str) -> tuple[float, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ValueError("at least one axis value is required")
    try:
        return tuple(float(part) for part in parts)
    except ValueError:
        raise ValueError(f"bad axis value in '{text}'") from None


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


def _choice(*names: str) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in names:
            raise ValueError(f"invalid choice '{text}' (choose from {', '.join(names)})")
        return text

    return convert


class Option(NamedTuple):
    """One option: ``convert`` turns its text into the value stored under
    ``dest``, or is None for a switch, which takes no value and stores True."""

    flag: str
    dest: str
    convert: Callable[[str], Any] | None
    default: Any
    help: str


_CFO_KINDS = tuple(kind.value for kind in CfoKind)
_AXES = tuple(axis.value for axis in SweepAxis if axis is not SweepAxis.NONE)

OPTIONS = (
    Option("--n", "n", _count, 100, "population size (default 100)"),
    Option("--k", "k", _count, 25, "active users (default 25)"),
    Option("--m", "m", _count, 32, "receive antennas (default 32)"),
    Option("--snr-db", "snr_db", float, 10.0, "per-user SNR in dB (default 10)"),
    Option("--eps-max", "eps_max", float, 0.15, "worst-case normalized CFO (default 0.15)"),
    Option(
        "--cfo", "cfo", _choice(*_CFO_KINDS), CfoKind.UNIFORM.value,
        f"CFO distribution, {' or '.join(_CFO_KINDS)} (default uniform); --eps-max 0 disables offsets",
    ),
    Option(
        "--schemes", "schemes", _parse_schemes, _parse_schemes(_DEFAULT_SCHEMES),
        f"comma list of schemes (default {_DEFAULT_SCHEMES})",
    ),
    Option(
        "--trials", "trials", _count, DEFAULT_TRIALS,
        f"Monte Carlo trials per point (default {DEFAULT_TRIALS})",
    ),
    Option("--seed", "seed", int, 0, "master seed (default 0)"),
    Option("--theory", "theory", None, False, "attach the closed-form eig-sum NRMSE column"),
    Option("--workers", "workers", _count, 1, "worker processes (default 1; results do not depend on this)"),
    Option("--out", "out", str, "-", "output path, '-' for stdout (default)"),
    Option("--format", "format", _choice("csv", "json"), "csv", "output format, csv or json (default csv)"),
)

# a default of None marks a value that sweep requires
SWEEP_OPTIONS = (
    Option("--axis", "axis", _choice(*_AXES), None, f"system parameter to sweep: {', '.join(_AXES)}"),
    Option("--values", "values", _parse_values, None, "comma list of axis values"),
)

_HELP = Option("--help", "help", None, False, "print this text and exit (also -h)")

_FLAGS = {
    "run": {opt.flag: opt for opt in (*OPTIONS, _HELP)} | {"-h": _HELP},
    "sweep": {opt.flag: opt for opt in (*OPTIONS, *SWEEP_OPTIONS, _HELP)} | {"-h": _HELP},
}
_DEFAULTS = {
    "run": {opt.dest: opt.default for opt in OPTIONS},
    "sweep": {opt.dest: opt.default for opt in (*OPTIONS, *SWEEP_OPTIONS)},
}


def _lookup(name: str, flags: dict[str, Option]) -> Option:
    """The option ``name`` spells in full, else the one option it is a prefix of."""
    if name in flags:
        return flags[name]
    if name.startswith("--"):
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) == 1:
            return flags[matches[0]]
        if matches:
            raise ValueError(f"ambiguous option: {name} could match {', '.join(matches)}")
    raise ValueError(f"unrecognized argument: {name}")


def parse_args(argv: Sequence[str]) -> dict[str, Any] | None:
    """The values of a ``run`` or ``sweep`` argument list, by destination.

    Returns None when ``-h``/``--help`` asks for the usage text; the rest of
    the list is then not read.  An option takes its value as ``--opt=value``
    or from the next argument, whatever that argument starts with, and may be
    abbreviated to any prefix that names no other option.  A bad argument
    raises ``ValueError``.
    """
    if not argv:
        raise ValueError("expected a command, run or sweep")
    command = argv[0]
    if command not in _FLAGS:
        if command == "-h" or (command.startswith("--h") and "--help".startswith(command)):
            return None
        raise ValueError(f"unknown command '{command}' (choose from run, sweep)")
    flags = _FLAGS[command]
    values = {"command": command, **_DEFAULTS[command]}
    tokens = iter(argv[1:])
    for token in tokens:
        name, equals, text = token.partition("=") if token.startswith("--") else (token, "", "")
        opt = _lookup(name, flags)
        if opt is _HELP and not equals:
            return None
        if opt.convert is None:
            if equals:
                raise ValueError(f"argument {opt.flag}: ignored explicit argument '{text}'")
            values[opt.dest] = True
            continue
        if not equals:
            text = next(tokens, None)
            if text is None:
                raise ValueError(f"argument {opt.flag}: expected one argument")
        try:
            values[opt.dest] = opt.convert(text)
        except ValueError as exc:
            raise ValueError(f"argument {opt.flag}: {exc}") from None
    if command == "sweep":
        missing = [opt.flag for opt in SWEEP_OPTIONS if values[opt.dest] is None]
        if missing:
            raise ValueError(f"sweep requires {' and '.join(missing)}")
    return values


def usage() -> str:
    """The help text: both commands and every option, from the option tables."""
    lines = [
        "usage: auesim run [options]",
        "       auesim sweep --axis AXIS --values VALUES [options]",
        "",
        "Monte Carlo NRMSE of covariance-based active-user counting schemes.",
        "",
        "commands:",
        "  run      simulate the base configuration",
        "  sweep    vary one axis over a value list",
        "",
        "options (sweep alone takes --axis and --values, and requires both):",
    ]
    for opt in (*SWEEP_OPTIONS, *OPTIONS, _HELP):
        spelled = opt.flag if opt.convert is None else f"{opt.flag} {opt.dest.upper()}"
        lines.append(f"  {spelled:<20} {opt.help}")
    return "\n".join(lines) + "\n"


def _build_config(args: dict[str, Any]) -> ExperimentConfig:
    cfo = CfoModel(kind=args["cfo"], epsilon_max=args["eps_max"])
    base = SystemConfig(
        n_potential=args["n"],
        k_active=args["k"],
        m_antennas=args["m"],
        noise_variance=snr_db_to_noise_variance(args["snr_db"]),
        cfo=cfo,
    )
    return ExperimentConfig(
        base=base,
        schemes=args["schemes"],
        trials=args["trials"],
        master_seed=args["seed"],
        axis=args.get("axis", SweepAxis.NONE),
        values=args.get("values", ()),
        emit_theory=args["theory"],
    )


def _open_for_writing(path: str) -> tuple[int, bool]:
    """A descriptor of the file at ``path``, and whether this call created the file.

    The file is not truncated on open: truncating makes some file systems
    flush the file on close, which costs more than a whole default run.
    ``O_EXCL`` first tells a file this call creates from one that was there,
    with no gap in which another process could create it.
    """
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    try:
        return os.open(path, flags | os.O_EXCL, 0o666), True
    except FileExistsError:
        return os.open(path, flags, 0o666), False


def _write_output(text: str, fd: int | None, created: bool) -> None:
    """Write ``text`` to stdout (``fd`` None) or to the file ``fd``, and cut a
    regular file that was already there to the written length; a file this
    call ``created`` is empty, and devices and pipes are not cut."""
    if fd is None:
        sys.stdout.write(text)
        # flushed here, so that a failed write of a short output is caught too
        sys.stdout.flush()
        return
    data = memoryview(text.encode())
    written = 0
    while written < len(data):
        written += os.write(fd, data[written:])
    if not created and stat.S_ISREG(os.fstat(fd).st_mode):
        os.ftruncate(fd, written)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(usage())
            return 0
        config = _build_config(args)
        # the output is opened before the run, so that a path that cannot be
        # written fails at once; a file is neither cut nor written until the
        # rows are ready, so an existing one keeps its bytes on a failing exit
        fd, created = (None, False) if args["out"] == "-" else _open_for_writing(args["out"])
    except (ValueError, OSError) as exc:
        return _fail(exc, 2)
    done = False
    try:
        try:
            rows = run_sweep(config, workers=args["workers"])
        except EstimatorDomainError as exc:
            return _fail(exc, 3)
        try:
            buffer = io.StringIO()
            (write_csv if args["format"] == "csv" else write_json)(rows, buffer)
            _write_output(buffer.getvalue(), fd, created)
            if fd is not None:
                # closed here, so that a failed close is reported; on every
                # other path the finally clause closes it
                fd, closing = None, fd
                os.close(closing)
        except OSError as exc:
            if args["out"] == "-":
                # the Python docs' SIGPIPE note: the rest goes to the null device at exit
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            return _fail(exc, 2)
        done = True
        return 0
    finally:
        if fd is not None:
            with contextlib.suppress(OSError):
                os.close(fd)
        # a failing exit, an interrupt or an unexpected error leaves no new file behind
        if created and not done:
            with contextlib.suppress(OSError):  # a failure to remove must not hide the error
                os.remove(args["out"])


def _fail(exc: Exception, code: int) -> int:
    """Report ``exc`` on one line and return the exit ``code``."""
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
