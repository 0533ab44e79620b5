"""Correctness checks on one auesim output: schema, ranges and the eig-sum closed form.

The closed form is written out here rather than taken from ``auesim.theory``
so that a broken theory function cannot vouch for itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

# a point is treated as clamp-free when the nearer clamp edge (0 or N) lies at
# least this many RMS errors away from the true count
CLAMP_FREE_RMS = 5.0
# allowed distance between simulated and predicted eig-sum NRMSE, in Monte
# Carlo standard errors; wide enough that the ~100 clamp-free rows checked by
# a full benchmark pass never fail by chance
Z_LIMIT = 5.0
# Sheppard's correction: rounding to an integer adds 1/12 to the MSE
SHEPPARD = 1.0 / 12.0
# relative slack for a float printed to nine significant digits
PRINT_TOL = 1e-8


@dataclass(frozen=True)
class Point:
    """System parameters of one sweep point as the output should report them."""

    axis: str
    axis_value: float | None
    n: int
    k: int
    m: int
    noise_variance: float
    alpha: float


def characteristic_function(cfo: str, eps_max: float) -> float:
    if eps_max == 0.0:
        return 1.0
    bound = 2.0 * math.pi * eps_max
    if cfo == "uniform":
        return math.sin(bound) / bound
    return math.exp(-bound * bound / 18.0)


def eig_sum_mse(point: Point) -> float:
    k = float(point.k)
    coherent = k + k * (k - 1.0) * point.alpha**2
    return (coherent + (k + point.noise_variance) ** 2) / (2.0 * point.m)


def _float_or_none(value) -> float | None:
    return None if value is None or value == "" else float(value)


def parse_rows(data: bytes, fmt: str, header: tuple[str, ...]) -> list[dict]:
    """Rows of a CSV or JSON output as dicts; raises ValueError on a schema mismatch."""
    text = data.decode("utf-8")
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        found = tuple(next(reader, ()))
        if found != header:
            raise ValueError(f"CSV header {found} differs from {header}")
        records = []
        for line in reader:
            if len(line) != len(header):
                raise ValueError(f"CSV row has {len(line)} fields, header has {len(header)}")
            records.append(dict(zip(header, line)))
    else:
        records = json.loads(text)
        if not isinstance(records, list):
            raise ValueError("JSON output is not a list")
        for record in records:
            if not isinstance(record, dict) or tuple(record) != header:
                raise ValueError(f"JSON row keys differ from {header}: {record}")
    return [
        {
            "axis": str(r["axis"]),
            "axis_value": _float_or_none(r["axis_value"]),
            "scheme": str(r["scheme"]),
            "nrmse_sim": float(r["nrmse_sim"]),
            "nrmse_theory": _float_or_none(r["nrmse_theory"]),
            "trials": int(r["trials"]),
            "seed": int(r["seed"]),
        }
        for r in records
    ]


def check_output(
    data: bytes,
    fmt: str,
    header: tuple[str, ...],
    points: list[Point],
    schemes: tuple[str, ...],
    trials: int,
    seed: int,
    theory: bool,
) -> list[str]:
    """Every problem found in one output; an empty list means it passed."""
    try:
        rows = parse_rows(data, fmt, header)
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return [f"schema: {exc}"]
    expected = [(p, s) for p in points for s in schemes]
    if len(rows) != len(expected):
        return [f"schema: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (point, scheme) in zip(rows, expected):
        where = f"{point.axis}={point.axis_value} {scheme}"
        if (row["axis"], row["axis_value"], row["scheme"]) != (point.axis, point.axis_value, scheme):
            problems.append(f"{where}: row labelled {row['axis']}={row['axis_value']} {row['scheme']}")
        if (row["trials"], row["seed"]) != (trials, seed):
            problems.append(f"{where}: trials/seed {row['trials']}/{row['seed']}")
        sim = row["nrmse_sim"]
        bound = max(point.k, point.n - point.k) / point.k
        if not (math.isfinite(sim) and 0.0 <= sim <= bound * (1.0 + PRINT_TOL)):
            problems.append(f"{where}: nrmse_sim {sim} outside [0, {bound}]")
            continue
        if scheme != "eig-sum":
            if row["nrmse_theory"] is not None:
                problems.append(f"{where}: theory value on a scheme without a closed form")
            continue
        mse = eig_sum_mse(point)
        if theory:
            closed = math.sqrt(mse) / point.k
            got = row["nrmse_theory"]
            if got is None or abs(got - closed) > PRINT_TOL * closed:
                problems.append(f"{where}: nrmse_theory {got}, closed form {closed}")
        elif row["nrmse_theory"] is not None:
            problems.append(f"{where}: theory value without --theory")
        rms = math.sqrt(mse + SHEPPARD)
        if min(point.k, point.n - point.k) < CLAMP_FREE_RMS * rms:
            continue
        predicted = rms / point.k
        # delta method: SE(NRMSE) = NRMSE * sqrt((kurtosis - 1) / (4 T)); the
        # error kurtosis is 3 plus O(1/M), bounded here by 3 + 12/M
        se = predicted * math.sqrt((2.0 + 12.0 / point.m) / (4.0 * trials))
        if abs(sim - predicted) > Z_LIMIT * se:
            problems.append(
                f"{where}: nrmse_sim {sim} is {(sim - predicted) / se:+.1f} SE from {predicted:.6f}"
            )
    return problems
