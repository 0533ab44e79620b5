"""Seeded Monte Carlo runner: NRMSE of the counting schemes along one system axis.

Reproducibility contract: the trials of a point are cut into fixed blocks of
``BLOCK`` consecutive trials, the last one short.  Block ``b`` of a point
seeded with ``s`` holds trials ``b*BLOCK`` up to ``(b+1)*BLOCK`` and draws all
its randomness from the substream ``SeedSequence((s, b))``, in the order
documented by ``model.sample_wishart``; a sweep point at index ``i`` is seeded
with ``point_seed(master_seed, i)``.  Workers take whole blocks, and
estimates are integers, so per-point error sums are exact integer arithmetic;
together these make every result a pure function of the experiment
description, independent of worker count and execution order.  Within a
trial, one sample covariance is shared by all requested schemes so the
comparison between schemes is paired.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from . import model
from .estimators import (
    EstimatorContext,
    EstimatorDomainError,
    Scheme,
    characteristic_function,
    estimate_array,
)
from .model import SystemConfig
from .theory import nrmse_eig_sum_theory

DEFAULT_TRIALS = 20_000

# trials per seeded block; part of the output contract, since changing it
# changes which substream every trial draws from
BLOCK = 256

CSV_HEADER = ("axis", "axis_value", "scheme", "nrmse_sim", "nrmse_theory", "trials", "seed")


class SweepAxis(enum.Enum):
    """System parameter varied across sweep points; values match the CLI spelling."""

    EPSILON_MAX = "epsilon"
    ANTENNAS = "m"
    SNR_DB = "snr"
    ACTIVE_USERS = "k"
    NONE = "none"


_INTEGER_AXES = frozenset({SweepAxis.ANTENNAS, SweepAxis.ACTIVE_USERS})


@dataclass(frozen=True)
class SweepSpec:
    """Axis and ordered values of one sweep; ``NONE`` with no values is a single point."""

    axis: SweepAxis
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if self.axis is SweepAxis.NONE:
            if values:
                raise ValueError("axis 'none' takes no sweep values")
            return
        if not values:
            raise ValueError(f"axis '{self.axis.value}' needs at least one value")
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"sweep values must be finite, got {v}")
            if self.axis in _INTEGER_AXES and not v.is_integer():
                raise ValueError(f"axis '{self.axis.value}' takes integer values, got {v}")
            if self.axis is SweepAxis.EPSILON_MAX and v < 0.0:
                raise ValueError(f"epsilon values must be >= 0, got {v}")
            if self.axis is SweepAxis.ANTENNAS and v < 1:
                raise ValueError(f"antenna counts must be >= 1, got {v}")
            if self.axis is SweepAxis.ACTIVE_USERS and v < 1:
                raise ValueError(f"active-user counts must be >= 1, got {v}")

    @classmethod
    def single_point(cls) -> "SweepSpec":
        return cls(axis=SweepAxis.NONE)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment; results are a pure function of it.

    ``schemes`` is an ordered tuple rather than a set: output rows follow it,
    and a canonical order is what makes repeated runs byte-identical.
    """

    base: SystemConfig
    schemes: tuple[Scheme, ...]
    trials: int = DEFAULT_TRIALS
    master_seed: int = 0
    sweep: SweepSpec = SweepSpec.single_point()
    emit_theory: bool = False

    def __post_init__(self) -> None:
        schemes = tuple(self.schemes)
        object.__setattr__(self, "schemes", schemes)
        if not schemes:
            raise ValueError("at least one scheme is required")
        if any(not isinstance(s, Scheme) for s in schemes):
            raise ValueError(f"schemes must be Scheme members, got {schemes}")
        if len(set(schemes)) != len(schemes):
            raise ValueError(f"duplicate schemes in {tuple(s.value for s in schemes)}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must fit in 64 unsigned bits, got {self.master_seed}")
        if self.base.k_active < 1:
            raise ValueError("k_active must be >= 1 (errors are normalized by the true count)")
        # surface bad axis values (e.g. k above the population size) at build
        # time instead of mid-run
        for value in self.sweep.values:
            apply_axis_value(self.base, self.sweep.axis, value)


@dataclass(frozen=True)
class SweepRow:
    """One (axis value, scheme) result; ``seed`` is the sweep's master seed."""

    axis: str
    axis_value: float | None
    scheme: Scheme
    nrmse_sim: float
    nrmse_theory: float | None
    trials: int
    seed: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def for_scheme(self, scheme: Scheme) -> tuple[SweepRow, ...]:
        return tuple(row for row in self.rows if row.scheme is scheme)


def snr_db_to_noise_variance(snr_db: float) -> float:
    """Noise power at unit per-user receive power: sigma_z^2 = 10^(-SNR/10)."""
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    return 10.0 ** (-snr_db / 10.0)


def apply_axis_value(base: SystemConfig, axis: SweepAxis, value: float | None) -> SystemConfig:
    """Configuration for one sweep point: ``base`` with ``axis`` set to ``value``."""
    if axis is SweepAxis.NONE:
        return base
    if value is None:
        raise ValueError(f"axis '{axis.value}' needs a value")
    if axis is SweepAxis.EPSILON_MAX:
        cfo = dataclasses.replace(base.cfo, epsilon_max=float(value))
        return dataclasses.replace(base, cfo=cfo)
    if axis is SweepAxis.ANTENNAS:
        return dataclasses.replace(base, m_antennas=int(value))
    if axis is SweepAxis.SNR_DB:
        return dataclasses.replace(base, noise_variance=snr_db_to_noise_variance(float(value)))
    return dataclasses.replace(base, k_active=int(value))


def point_seed(master_seed: int, point_index: int) -> int:
    """Seed of sweep point ``point_index``, hashed from the master seed.

    Feeding this back into ``run_point`` reproduces any single output row
    without rerunning the rest of the sweep.
    """
    sequence = np.random.SeedSequence((master_seed, point_index))
    return int(sequence.generate_state(1, np.uint64)[0])


def nrmse(estimates: Sequence[int] | np.ndarray, k_true: int) -> float:
    """Root mean squared count error, normalized by the true count."""
    if k_true < 1:
        raise ValueError(f"k_true must be >= 1, got {k_true}")
    arr = np.asarray(estimates)
    if arr.size == 0:
        raise ValueError("estimates must be non-empty")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"estimates must be integers, got dtype {arr.dtype}")
    squared = (arr.astype(np.int64) - int(k_true)) ** 2
    return math.sqrt(float(squared.sum()) / arr.size) / k_true


def _estimate_blocks(
    cfg: SystemConfig, schemes: tuple[Scheme, ...], seed: int, trials: int, first: int, stop: int
) -> dict[Scheme, np.ndarray]:
    """Estimates of blocks ``first`` up to ``stop`` of a ``trials``-trial point."""
    ctx = EstimatorContext(
        noise_variance=cfg.noise_variance,
        alpha=characteristic_function(cfg.cfo),
        n_potential=cfg.n_potential,
    )
    parts: dict[Scheme, list[np.ndarray]] = {scheme: [] for scheme in schemes}
    for block in range(first, stop):
        size = min(BLOCK, trials - block * BLOCK)
        rng = np.random.default_rng(np.random.SeedSequence((seed, block)))
        cov = model.sample_wishart(cfg, size, rng)
        for scheme in schemes:
            parts[scheme].append(estimate_array(scheme, cov, ctx))
    return {scheme: np.concatenate(parts[scheme]) for scheme in schemes}


def collect_estimates(
    cfg: SystemConfig,
    schemes: Iterable[Scheme],
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> dict[Scheme, np.ndarray]:
    """Integer estimates of every scheme over ``trials`` seeded trials.

    Block ``b`` draws from substream ``(seed, b)`` and every scheme sees the
    same sample covariances, so outputs are deterministic in ``seed`` and do
    not depend on ``workers``.  At most ``min(workers, blocks, cpu count)``
    processes run, each on a contiguous range of whole blocks; one means no
    pool at all.
    """
    schemes = tuple(schemes)
    if not schemes:
        raise ValueError("at least one scheme is required")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    blocks = -(-trials // BLOCK)
    workers = min(workers, blocks, os.cpu_count() or 1)
    if workers <= 1:
        return _estimate_blocks(cfg, schemes, seed, trials, 0, blocks)
    bounds = [blocks * w // workers for w in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_estimate_blocks, cfg, schemes, seed, trials, lo, hi)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        chunks = [future.result() for future in futures]
    return {scheme: np.concatenate([chunk[scheme] for chunk in chunks]) for scheme in schemes}


def run_point(
    cfg: SystemConfig,
    schemes: Iterable[Scheme],
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> dict[Scheme, float]:
    """Per-scheme NRMSE at one operating point."""
    estimates = collect_estimates(cfg, schemes, trials, seed, workers=workers)
    return {scheme: nrmse(values, cfg.k_active) for scheme, values in estimates.items()}


def run_sweep(config: ExperimentConfig, *, workers: int = 1) -> SweepResult:
    """Run every sweep point and collect one row per (axis value, scheme).

    The theory column is attached to eig-sum rows when ``emit_theory`` is set
    and left empty everywhere else.
    """
    axis = config.sweep.axis
    values: tuple[float | None, ...]
    values = config.sweep.values if axis is not SweepAxis.NONE else (None,)
    rows: list[SweepRow] = []
    for index, value in enumerate(values):
        cfg = apply_axis_value(config.base, axis, value)
        seed = point_seed(config.master_seed, index)
        try:
            per_scheme = run_point(cfg, config.schemes, config.trials, seed, workers=workers)
        except EstimatorDomainError as exc:
            where = "single point" if value is None else f"{axis.value} = {value}"
            raise EstimatorDomainError(f"{where}: {exc}") from exc
        theory_value = None
        if config.emit_theory:
            alpha = characteristic_function(cfg.cfo)
            theory_value = nrmse_eig_sum_theory(
                cfg.k_active, cfg.m_antennas, cfg.noise_variance, alpha
            )
        for scheme in config.schemes:
            rows.append(
                SweepRow(
                    axis=axis.value,
                    axis_value=value,
                    scheme=scheme,
                    nrmse_sim=per_scheme[scheme],
                    nrmse_theory=theory_value if scheme is Scheme.EIG_SUM else None,
                    trials=config.trials,
                    seed=config.master_seed,
                )
            )
    return SweepResult(rows=tuple(rows))


def _format_float(x: float) -> str:
    # '#' keeps trailing zeros so every float shows 9 significant digits
    return format(float(x), "#.9g")


def _format_axis_value(value: float | None) -> str:
    if value is None:
        return ""
    v = float(value)
    return str(int(v)) if v.is_integer() else _format_float(v)


def write_csv(result: SweepResult, stream: IO[str]) -> None:
    """Write one header line plus one line per result row."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in result.rows:
        writer.writerow(
            [
                row.axis,
                _format_axis_value(row.axis_value),
                row.scheme.value,
                _format_float(row.nrmse_sim),
                "" if row.nrmse_theory is None else _format_float(row.nrmse_theory),
                str(row.trials),
                str(row.seed),
            ]
        )


def _row_payload(row: SweepRow) -> Mapping[str, object]:
    axis_value: object = None
    if row.axis_value is not None:
        v = float(row.axis_value)
        axis_value = int(v) if v.is_integer() else v
    return {
        "axis": row.axis,
        "axis_value": axis_value,
        "scheme": row.scheme.value,
        "nrmse_sim": row.nrmse_sim,
        "nrmse_theory": row.nrmse_theory,
        "trials": row.trials,
        "seed": row.seed,
    }


def write_json(result: SweepResult, stream: IO[str]) -> None:
    """Write the rows as a JSON array of objects, one object per result row."""
    json.dump([_row_payload(row) for row in result.rows], stream, indent=2)
    stream.write("\n")
