"""Command line front end.

Two subcommands share one set of system flags: ``run`` simulates the base
configuration as a single point, ``sweep`` varies one axis over a list of
values; both build one ``ExperimentConfig`` and hand it to ``run_sweep``.
Results go to stdout or ``--out`` as CSV or JSON.  Exit codes: 0 success,
2 bad configuration, arguments, output path or failed write, 3 estimator
domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import stat
import sys
from typing import IO, Sequence

from .estimators import EstimatorDomainError, Scheme
from .harness import (
    DEFAULT_TRIALS,
    ExperimentConfig,
    SweepAxis,
    SweepSpec,
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
        raise argparse.ArgumentTypeError("at least one scheme is required")
    schemes: list[Scheme] = []
    for name in names:
        try:
            scheme = Scheme(name)
        except ValueError:
            known = ", ".join(s.value for s in Scheme)
            raise argparse.ArgumentTypeError(f"unknown scheme '{name}' (known: {known})") from None
        if scheme in schemes:
            raise argparse.ArgumentTypeError(f"scheme '{name}' listed twice")
        schemes.append(scheme)
    return tuple(schemes)


def _parse_values(text: str) -> tuple[float, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("at least one axis value is required")
    try:
        return tuple(float(part) for part in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad axis value in '{text}'") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
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
        type=_parse_schemes,
        default=_parse_schemes(_DEFAULT_SCHEMES),
        help=f"comma list of schemes (default {_DEFAULT_SCHEMES})",
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
        "--values", type=_parse_values, required=True, help="comma list of axis values"
    )
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # parsing leaves a parser unchanged, so one serves every call of main in a
    # process; building it anew cost about as much as a small sweep and left
    # reference cycles that made the garbage collector stall later calls
    return build_parser()


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfo = CfoModel(kind=CfoKind(args.cfo), epsilon_max=args.eps_max)
    base = SystemConfig(
        n_potential=args.n,
        k_active=args.k,
        m_antennas=args.m,
        noise_variance=snr_db_to_noise_variance(args.snr_db),
        cfo=cfo,
    )
    if args.command == "sweep":
        spec = SweepSpec(axis=SweepAxis(args.axis), values=args.values)
    else:
        spec = SweepSpec.single_point()
    return ExperimentConfig(
        base=base,
        schemes=args.schemes,
        trials=args.trials,
        master_seed=args.seed,
        sweep=spec,
        emit_theory=args.theory,
    )


def _dump(rows, stream: IO[str], fmt: str) -> None:
    if fmt == "csv":
        write_csv(rows, stream)
    else:
        write_json(rows, stream)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _build_config(args)
        # the output is opened before the run, so that a path that cannot be
        # written fails at once; a file is neither cut nor written until the
        # rows are ready, so an existing one keeps its bytes on a failing exit
        created = args.out if args.out != "-" and not os.path.lexists(args.out) else None
        output = _open_output(args.out, args.format)
    except (ValueError, OSError) as exc:
        return _fail(exc, 2, None)
    try:
        with output as stream:
            try:
                rows = run_sweep(config, workers=args.workers)
            except EstimatorDomainError as exc:
                return _fail(exc, 3, created)
            try:
                _dump(rows, stream, args.format)
                # flushed here, so that a failed write of a short output is caught too
                stream.flush()
                if stream is not sys.stdout and stat.S_ISREG(os.fstat(stream.fileno()).st_mode):
                    stream.truncate()
            except OSError as exc:
                if stream is sys.stdout:
                    # the Python docs' SIGPIPE note: the rest goes to the null device at exit
                    devnull = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(devnull, sys.stdout.fileno())
                    os.close(devnull)
                else:
                    with contextlib.suppress(OSError):  # flushing the rest fails again
                        stream.close()
                return _fail(exc, 2, created)
    except BaseException:
        # an interrupt or an unexpected error leaves no new, empty file behind
        _remove(created)
        raise
    return 0


def _fail(exc: Exception, code: int, created: str | None) -> int:
    """Report ``exc`` on one line and remove the output file this call created."""
    print(f"error: {exc}", file=sys.stderr)
    _remove(created)
    return code


def _remove(created: str | None) -> None:
    """Remove the output file this call created, if any; a failure to remove
    it is ignored, so that it cannot hide the error being reported."""
    if created is not None:
        with contextlib.suppress(OSError):
            os.remove(created)


def _open_output(path: str, fmt: str):
    """Context manager of the output stream: stdout for '-', else the file at ``path``."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="" if fmt == "csv" else None, opener=_open_without_truncating)


def _open_without_truncating(path: str, flags: int) -> int:
    # truncating on open makes some file systems flush the file on close,
    # which costs more than a whole default run; a regular file is cut to the
    # written length after writing instead, and devices and pipes are not cut
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


if __name__ == "__main__":
    sys.exit(main())
