"""Seeded Monte Carlo runner: NRMSE of the counting schemes along one system axis.

An ``ExperimentConfig`` describes a run and is checked, point by point,
when it is built; ``run_sweep`` turns it into ``SweepRow`` results, and a
single point is a sweep of one.  ``collect_estimates`` returns the
per-trial counts of one point instead; it builds the same one-point
configuration, so every request is checked the same way.

Reproducibility contract (stream 0.4.0): the trials of a point are cut into
fixed blocks of ``BLOCK`` consecutive trials, the last one short.  Block
``b`` holds trials ``b*BLOCK`` up to ``(b+1)*BLOCK`` and, at every point of
a run seeded with ``s``, draws all its randomness from one generator seeded
with ``SeedSequence(s, spawn_key=(b,))``, in the order documented by
``model.draw_wishart``.  From the block's start come the normals, then the
unit offsets, user-major, which each point scales by its own offset bound;
the gammas of each M come from one fixed position far along the same
stream.  So every point of a sweep draws what the one-point run of its
configuration at the same seed draws, and a sweep row equals that single
run bit for bit.  Estimates are integers, so error sums are exact integer
arithmetic; together these make every result a pure function of the
experiment description, independent of worker count, pass boundaries and
execution order.  Within a trial, one sample covariance is shared by all
requested schemes, so the comparison between schemes is paired.

Evaluation: a sweep first checks every point, then numbers the (block,
point) units of all points in one list, block-major, and evaluates them in
passes of at most ``PASS_BLOCKS`` units, whole blocks where they fit.
Within a pass, the points of one block draw once, sized for their largest
K: an SNR sweep draws each block once, a K sweep forms the phasors of its
largest K only, and an M sweep forms its phasors once and draws only the
gammas per M.  The covariance transform, all schemes' counts and the
squared-error sums run once per pass, over arrays that span several points.
A pass keeps only its (point, scheme) error sums, so memory does not grow
with the trial count;
``collect_estimates``, which returns per-trial counts, is the one caller
that keeps more.  A pass sums in int64, which ``MAX_POPULATION`` keeps
exact, and the totals over passes are Python integers, exact at any trial
count.  With ``workers > 1`` one process pool serves the whole sweep, each
worker taking a contiguous range of units.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import functools
import json
import math
import os
from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from . import model
from .estimators import (
    EstimatorContext,
    EstimatorDomainError,
    Scheme,
    characteristic_function,
    check_domain,
    estimate_counts,
)
from .model import SystemConfig
from .theory import nrmse_eig_sum_theory

DEFAULT_TRIALS = 20_000

# trials per seeded block; part of the output contract, since changing it
# changes which substream every trial draws from
BLOCK = 256

# (block, point) units evaluated together in one vectorised pass; it bounds
# the memory of a run and changes no result, since blocks are seeded one by
# one and error sums are exact
PASS_BLOCKS = 32

# largest population size N whose squared count errors, each at most N^2,
# still sum exactly in int64 over a full pass of PASS_BLOCKS * BLOCK trials
MAX_POPULATION = math.isqrt((2**63 - 1) // (PASS_BLOCKS * BLOCK))

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
    """Axis and ordered values of one sweep; ``NONE`` with no values is a single point.

    Only the shape of the values is checked here: their number, that they
    are finite, and that the M and K axes take integers.  Whether a value is
    in range for its axis is checked by the configuration it builds.
    """

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

    @classmethod
    def single_point(cls) -> "SweepSpec":
        return cls(axis=SweepAxis.NONE)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment; results are a pure function of it.

    This is the one request the runners take, and building it checks all of
    it: the schemes, trials and seed, and the configuration of every point,
    which ``points`` holds in sweep order.  A single point is a sweep of one.
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
        if self.base.n_potential > MAX_POPULATION:
            raise ValueError(f"population size {self.base.n_potential} exceeds MAX_POPULATION = "
                             f"{MAX_POPULATION}, the largest whose error sums stay exact in int64")
        for cfg in self.points:
            if cfg.k_active < 1:
                raise ValueError(
                    f"k_active must be >= 1 (errors are normalized by the true count), got {cfg.k_active}"
                )

    @property
    def axis_values(self) -> tuple[float | None, ...]:
        """The sweep values, or ``(None,)`` for a single point."""
        return self.sweep.values or (None,)

    @functools.cached_property
    def points(self) -> tuple[SystemConfig, ...]:
        """The configuration of every point, in the order of ``axis_values``."""
        return tuple(apply_axis_value(self.base, self.sweep.axis, v) for v in self.axis_values)


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


def snr_db_to_noise_variance(snr_db: float) -> float:
    """Noise power at unit per-user receive power: sigma_z^2 = 10^(-SNR/10)."""
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    try:
        noise_variance = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db = {snr_db} gives a noise power past the float range") from None
    if noise_variance == 0.0:
        raise ValueError(f"snr_db = {snr_db} gives a noise power that underflows to 0")
    return noise_variance


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


def _nrmse_of_sum(squared_sum: int, trials: int, k_true: int) -> float:
    """NRMSE of ``trials`` estimates whose squared errors sum to ``squared_sum``."""
    return math.sqrt(float(squared_sum) / trials) / k_true


def _alphas(config: ExperimentConfig) -> list[float]:
    """The alpha of every point, once every scheme is known to be defined there.

    This check belongs to the run, not to the configuration: an undefined
    scheme is an ``EstimatorDomainError``, which callers tell apart from a
    bad configuration.
    """
    alphas = []
    for value, cfg in zip(config.axis_values, config.points):
        alpha = characteristic_function(cfg.cfo)
        try:
            check_domain(config.schemes, alpha)
        except EstimatorDomainError as exc:
            where = "single point" if value is None else f"{config.sweep.axis.value} = {value}"
            raise EstimatorDomainError(f"{where}: {exc}") from exc
        alphas.append(alpha)
    return alphas


def _per_trial(values: list, lengths: list[int]):
    """One value per run of trials: a scalar when all agree, else one entry per trial."""
    if values.count(values[0]) == len(values):
        return values[0]
    return np.repeat(values, lengths)


def _evaluate_pass(
    config: ExperimentConfig, alphas: Sequence[float], first: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Counts and squared-error sums of units ``first`` up to ``stop``.

    Unit ``u`` is block ``u // P`` of point ``u % P``, for the ``P`` points
    of ``config``.  The units of one block draw together from one generator,
    seeded with the master seed and the spawn key ``(block,)``; everything
    after the draws runs once over the whole pass.  Returns the
    (schemes, trials) counts in unit order and the (schemes, points) sums of
    squared count errors.
    """
    points, trials = config.points, config.trials
    units = [divmod(u, len(points)) for u in range(first, stop)]
    lengths = [min(BLOCK, trials - block * BLOCK) for block, _ in units]
    starts = list(accumulate(lengths, initial=0))
    draws = model.WishartDraws.empty(starts[-1])
    for block, members in groupby(range(len(units)), key=lambda i: units[i][0]):
        members = list(members)
        model.draw_wishart(
            [points[units[i][1]] for i in members],
            np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=(block,))),
            [draws.part(starts[i], starts[i + 1]) for i in members],
        )

    covered = [points[p] for _, p in units]
    k_active = _per_trial([cfg.k_active for cfg in covered], lengths)
    noise_variance = _per_trial([cfg.noise_variance for cfg in covered], lengths)
    m_antennas = _per_trial([cfg.m_antennas for cfg in covered], lengths)
    cov = model.bartlett_covariance(draws, k_active, m_antennas, noise_variance)
    ctx = EstimatorContext(
        noise_variance=noise_variance,
        alpha=_per_trial([alphas[p] for _, p in units], lengths),
        # no sweep axis changes the population size
        n_potential=config.base.n_potential,
    )
    counts = estimate_counts(config.schemes, cov, ctx)
    errors = counts - k_active
    errors *= errors
    sums = np.zeros((len(config.schemes), len(points)), dtype=np.int64)
    np.add.at(sums, (slice(None), [p for _, p in units]), np.add.reduceat(errors, starts[:-1], axis=1))
    return counts, sums


def _evaluate_blocks(
    config: ExperimentConfig, alphas: Sequence[float], first: int, stop: int, keep: bool
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Units ``first`` up to ``stop`` in passes of at most ``PASS_BLOCKS`` units.

    A pass takes whole blocks of all points when they fit, so that no
    block's draws are split between passes.  Returns the (schemes, points)
    sums of squared count errors, as Python integers, and, when ``keep`` is
    set, the counts of every pass in order.
    """
    points = len(config.points)
    step = PASS_BLOCKS // points * points or PASS_BLOCKS
    sums = np.zeros((len(config.schemes), points), dtype=object)
    kept = []
    for start in range(first, stop, step):
        counts, pass_sums = _evaluate_pass(config, alphas, start, min(start + step, stop))
        sums += pass_sums.astype(object)
        if keep:
            kept.append(counts)
    return sums, kept


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one
    (so ``taskset`` and cpusets bind), else the CPU count, an unknown one as 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _evaluate(
    config: ExperimentConfig, alphas: Sequence[float], workers: int, keep: bool
) -> tuple[np.ndarray, list[np.ndarray]]:
    """``_evaluate_blocks`` over every unit of ``config``, on at most ``workers`` processes.

    At most ``min(workers, units, usable CPUs)`` processes run, in one pool,
    each on a contiguous range of units; one means no pool at all.
    """
    units = -(-config.trials // BLOCK) * len(config.points)
    if workers > 1:
        workers = min(workers, units, _usable_cpus())
    if workers <= 1:
        return _evaluate_blocks(config, alphas, 0, units, keep)
    # imported here so that serial runs do not pay for the pool machinery at start-up
    from concurrent.futures import ProcessPoolExecutor

    bounds = [units * w // workers for w in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_evaluate_blocks, config, alphas, lo, hi, keep)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        parts = [future.result() for future in futures]
    return sum(sums for sums, _ in parts), [counts for _, kept in parts for counts in kept]


def collect_estimates(
    cfg: SystemConfig,
    schemes: Iterable[Scheme],
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> dict[Scheme, np.ndarray]:
    """Integer estimates of every scheme over ``trials`` seeded trials at ``cfg``.

    The request is checked as the one-point ``ExperimentConfig`` it builds,
    and its trials are the ones ``run_sweep`` of that configuration draws,
    so outputs are deterministic in ``seed`` and do not depend on
    ``workers``.
    """
    config = ExperimentConfig(base=cfg, schemes=tuple(schemes), trials=trials, master_seed=seed)
    _, kept = _evaluate(config, _alphas(config), workers, keep=True)
    return dict(zip(config.schemes, np.concatenate(kept, axis=1)))


def run_sweep(config: ExperimentConfig, *, workers: int = 1) -> tuple[SweepRow, ...]:
    """Run every point of ``config`` and return one row per (axis value, scheme).

    All points are checked before any trial runs, and their blocks are
    evaluated together, in one pool when ``workers`` allows.  The theory
    column is attached to eig-sum rows when ``emit_theory`` is set and left
    empty everywhere else.
    """
    alphas = _alphas(config)
    sums, _ = _evaluate(config, alphas, workers, keep=False)
    rows: list[SweepRow] = []
    for value, cfg, alpha, point_sums in zip(config.axis_values, config.points, alphas, sums.T):
        theory_value = None
        if config.emit_theory:
            theory_value = nrmse_eig_sum_theory(cfg.k_active, cfg.m_antennas, cfg.noise_variance, alpha)
        for scheme, total in zip(config.schemes, point_sums):
            rows.append(
                SweepRow(
                    axis=config.sweep.axis.value,
                    axis_value=value,
                    scheme=scheme,
                    nrmse_sim=_nrmse_of_sum(int(total), config.trials, cfg.k_active),
                    nrmse_theory=theory_value if scheme is Scheme.EIG_SUM else None,
                    trials=config.trials,
                    seed=config.master_seed,
                )
            )
    return tuple(rows)


def _format_float(x: float) -> str:
    # '#' keeps trailing zeros so every float shows 9 significant digits
    return format(float(x), "#.9g")


def _format_axis_value(value: float | None) -> str:
    if value is None:
        return ""
    v = float(value)
    return str(int(v)) if v.is_integer() else _format_float(v)


def write_csv(rows: Iterable[SweepRow], stream: IO[str]) -> None:
    """Write one header line plus one line per result row."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
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


# encodes one row's fields at the indent of ``json.dumps(rows, indent=2)``;
# without ``indent`` it runs the C encoder, which leaves no cyclic garbage
_ROW_ENCODER = json.JSONEncoder(separators=(",\n    ", ": "))


def write_json(rows: Iterable[SweepRow], stream: IO[str]) -> None:
    """Write the rows as a JSON array of objects, one object per result row.

    The bytes are those of ``json.dumps(payloads, indent=2)``.
    """
    objects = ["  {\n    " + _ROW_ENCODER.encode(_row_payload(row))[1:-1] + "\n  }" for row in rows]
    stream.write("[\n" + ",\n".join(objects) + "\n]\n" if objects else "[]\n")
