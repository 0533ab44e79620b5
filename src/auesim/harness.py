"""Seeded Monte Carlo runner: NRMSE of the counting schemes along one system axis.

An ``ExperimentConfig`` is the one record a run reads: a base
configuration, the schemes, trials and seed, and at most one swept axis
with its values.  It is checked, point by point, when it is built, and
holds the configuration of every point; ``run_sweep`` checks that every
scheme is defined at each point's alpha, which its offset model holds,
and turns the record into ``SweepRow`` results.  A single point is a sweep of one.

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

Evaluation: a sweep first checks every point, then evaluates it in passes.
A pass is a rectangle of at most ``PASS_BLOCKS`` points by as many whole
blocks as keep it within ``PASS_BLOCKS`` (block, point) units.  Each block
of a pass draws once for all the pass's points, sized for their largest K,
into its columns of one record, and the phasors of blocks with few users
are formed for several blocks at once: an SNR sweep shares every draw, a K
sweep forms the phasors of its largest K only, and an M sweep forms its
phasors once and draws only the gammas per M.  The covariance transform,
all schemes' counts and the squared-error sums then run once over the
(points, trials) layout, and a pass keeps only the per-(point, scheme)
sums of its (schemes, points, trials) errors, so memory does not grow with
the trial count.  A pass sums in int64, which ``MAX_POPULATION`` keeps
exact, and the totals over passes are Python integers, exact at any trial
count.  With ``workers > 1`` one process pool serves the whole sweep, each
worker taking a contiguous range of blocks for every point.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import IO, Iterable

import numpy as np

from . import model
from .estimators import EstimatorDomainError, Scheme, check_domain, estimate_counts
from .model import CfoModel, SystemConfig
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

# largest trial count accepted: its block count and every trial index fit
# in the signed 64-bit sizes that ranges and numpy take
MAX_TRIALS = 2**63 - 1

CSV_HEADER = ("axis", "axis_value", "scheme", "nrmse_sim", "nrmse_theory", "trials", "seed")


class SweepAxis(enum.Enum):
    """System parameter varied across sweep points; values match the CLI spelling."""

    EPSILON_MAX = "epsilon"
    ANTENNAS = "m"
    SNR_DB = "snr"
    ACTIVE_USERS = "k"
    NONE = "none"


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment; results are a pure function of it.

    This is the one request the runners take, and building it checks all of
    it: the schemes, trials and seed, the sweep values (their number, and
    that they are finite reals, stored as Python floats), and the
    configuration of every point, which ``points`` holds in sweep order; the
    alpha of a point is its ``cfo.alpha``.  ``axis`` ``NONE`` with no values
    is a single point, a sweep of one; ``axis`` may be given by its CLI
    spelling and is stored as the ``SweepAxis`` member.
    ``schemes`` is an ordered tuple rather than a set: output rows follow
    it, and a canonical order is what makes repeated runs byte-identical.
    """

    base: SystemConfig
    schemes: tuple[Scheme, ...]
    trials: int = DEFAULT_TRIALS
    master_seed: int = 0
    axis: SweepAxis = SweepAxis.NONE
    values: tuple[float, ...] = ()
    emit_theory: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.base, SystemConfig):
            raise ValueError(f"base must be a SystemConfig, got {self.base!r}")
        # every reader tests the member by identity, so a spelling must not survive
        object.__setattr__(self, "axis", SweepAxis(self.axis))
        for name in ("schemes", "values"):
            items = getattr(self, name)
            if isinstance(items, (str, bytes)) or not hasattr(items, "__iter__"):
                raise ValueError(f"{name} must be a sequence, got {items!r}")
        if type(self.emit_theory) is not bool:
            raise ValueError(f"emit_theory must be a bool, got {self.emit_theory!r}")
        schemes = tuple(self.schemes)
        object.__setattr__(self, "schemes", schemes)
        if not schemes:
            raise ValueError("at least one scheme is required")
        if any(not isinstance(s, Scheme) for s in schemes):
            raise ValueError(f"schemes must be Scheme members, got {schemes}")
        if len(set(schemes)) != len(schemes):
            raise ValueError(f"duplicate schemes in {tuple(s.value for s in schemes)}")
        for name in ("trials", "master_seed"):
            object.__setattr__(self, name, model.as_int(name, getattr(self, name)))
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, MAX_TRIALS = 2**63 - 1], got {self.trials}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must fit in 64 unsigned bits, got {self.master_seed}")
        if self.base.n_potential > MAX_POPULATION:
            raise ValueError(f"population size {self.base.n_potential} exceeds MAX_POPULATION = "
                             f"{MAX_POPULATION}, the largest whose error sums stay exact in int64")
        values = tuple(model.as_real("sweep values", v) for v in self.values)
        object.__setattr__(self, "values", values)
        if self.axis is SweepAxis.NONE and values:
            raise ValueError("axis 'none' takes no sweep values")
        if self.axis is not SweepAxis.NONE and not values:
            raise ValueError(f"axis '{self.axis.value}' needs at least one value")
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"sweep values must be finite, got {v}")
        for cfg in self.points:
            if cfg.k_active < 1:
                raise ValueError(
                    f"k_active must be >= 1 (errors are normalized by the true count), got {cfg.k_active}"
                )

    @property
    def axis_values(self) -> tuple[float | None, ...]:
        """The sweep values, or ``(None,)`` for a single point."""
        return self.values or (None,)

    @functools.cached_property
    def points(self) -> tuple[SystemConfig, ...]:
        """The configuration of every point, in the order of ``axis_values``."""
        return tuple(apply_axis_value(self.base, self.axis, v) for v in self.axis_values)


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
    snr_db = model.as_real("snr_db", snr_db)
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    try:
        noise_variance = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db = {snr_db} gives a noise power past the float range") from None
    if noise_variance == 0.0:
        raise ValueError(f"snr_db = {snr_db} gives a noise power that underflows to 0")
    return noise_variance


def apply_axis_value(base: SystemConfig, axis: SweepAxis | str, value: float | None) -> SystemConfig:
    """Configuration for one sweep point: ``base`` with ``axis``, or its spelling, set to ``value``,
    a real that ``model.as_real`` takes and, on the M and K axes, an integral one."""
    axis = SweepAxis(axis)
    if axis is SweepAxis.NONE:
        return base
    value = model.as_real("sweep value", value)
    # built field by field; the configuration checks the point as it is made
    k_active, m_antennas, noise_variance, cfo = base.k_active, base.m_antennas, base.noise_variance, base.cfo
    if axis is SweepAxis.EPSILON_MAX:
        cfo = CfoModel(cfo.kind, value)
    elif axis is SweepAxis.SNR_DB:
        noise_variance = snr_db_to_noise_variance(value)
    elif not value.is_integer():
        raise ValueError(f"axis '{axis.value}' takes integer values, got {value}")
    elif axis is SweepAxis.ANTENNAS:
        m_antennas = int(value)
    else:
        k_active = int(value)
    return SystemConfig(base.n_potential, k_active, m_antennas, noise_variance, cfo)


def _nrmse_of_sum(squared_sum: int, trials: int, k_true: int) -> float:
    """NRMSE of ``trials`` estimates whose squared errors sum to ``squared_sum``."""
    return math.sqrt(float(squared_sum) / trials) / k_true


def _check_domain(config: ExperimentConfig) -> None:
    """Raise ``EstimatorDomainError``, naming the point, where a scheme is undefined.

    This check belongs to the run, not to the configuration: an undefined
    scheme is an ``EstimatorDomainError``, which callers tell apart from a
    bad configuration.
    """
    for value, cfg in zip(config.axis_values, config.points):
        try:
            check_domain(config.schemes, cfg.cfo.alpha)
        except EstimatorDomainError as exc:
            where = "single point" if value is None else f"{config.axis.value} = {value}"
            raise EstimatorDomainError(f"{where}: {exc}") from exc


def _per_point(values: list):
    """A scalar when every point agrees, else a (points, 1) column that broadcasts over trials."""
    if values.count(values[0]) == len(values):
        return values[0]
    return np.array(values)[:, None]


def _evaluate_pass(config: ExperimentConfig, points: range, blocks: range) -> np.ndarray:
    """Squared-error sums of ``points`` over the trials of ``blocks``.

    Every block draws all the pass's points at once, into its columns of
    one record, from one generator seeded with the master seed and the spawn
    key ``(block,)``; one ``draw_wishart`` call takes the generators of all
    the pass's blocks, and everything after the draws runs once over the
    (points, trials) rectangle.  Returns the (schemes, points) int64 sums
    of squared count errors.
    """
    cfgs = [config.points[p] for p in points]
    offset = blocks.start * BLOCK
    draws = model.WishartDraws.empty(len(cfgs), min(blocks.stop * BLOCK, config.trials) - offset)
    rngs = [np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=(b,))) for b in blocks]
    model.draw_wishart(cfgs, rngs, draws, BLOCK)
    k_active = _per_point([cfg.k_active for cfg in cfgs])
    noise_variance = _per_point([cfg.noise_variance for cfg in cfgs])
    m_antennas = _per_point([cfg.m_antennas for cfg in cfgs])
    cov = model.bartlett_covariance(draws, k_active, m_antennas, noise_variance)
    alpha = _per_point([cfg.cfo.alpha for cfg in cfgs])
    # no sweep axis changes the population size
    errors = estimate_counts(config.schemes, cov, noise_variance, alpha, config.base.n_potential) - k_active
    errors *= errors
    return errors.sum(axis=-1)


def _evaluate_blocks(config: ExperimentConfig, blocks: range) -> np.ndarray:
    """Every point over ``blocks``, in passes of at most ``PASS_BLOCKS`` (block, point) units.

    A pass is a rectangle: a run of up to ``PASS_BLOCKS`` consecutive points
    by as many whole blocks as then fit, so that the last, narrower run of a
    long sweep takes deeper passes.  Returns the (schemes, points) sums of
    squared count errors, as Python integers.
    """
    points = range(len(config.points))
    sums = np.zeros((len(config.schemes), len(points)), dtype=object)
    for lo in range(0, len(points), PASS_BLOCKS):
        covered = points[lo : lo + PASS_BLOCKS]
        depth = PASS_BLOCKS // len(covered)
        for first in range(0, len(blocks), depth):
            pass_sums = _evaluate_pass(config, covered, blocks[first : first + depth])
            sums[:, lo : lo + PASS_BLOCKS] += pass_sums.astype(object)
    return sums


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one
    (so ``taskset`` and cpusets bind), else the CPU count, an unknown one as 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _evaluate(config: ExperimentConfig, workers: int) -> np.ndarray:
    """``_evaluate_blocks`` over every block of ``config``, on at most ``workers`` processes.

    At most ``min(workers, blocks, usable CPUs)`` processes run, in one pool,
    each on a contiguous range of blocks for every point; one means no pool
    at all.
    """
    blocks = -(-config.trials // BLOCK)
    if workers > 1:
        workers = min(workers, blocks, _usable_cpus())
    if workers <= 1:
        return _evaluate_blocks(config, range(blocks))
    # imported here so that serial runs do not pay for the pool machinery at start-up
    from concurrent.futures import ProcessPoolExecutor

    bounds = [blocks * w // workers for w in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_evaluate_blocks, config, range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        return sum(future.result() for future in futures)


def run_sweep(config: ExperimentConfig, *, workers: int = 1) -> tuple[SweepRow, ...]:
    """Run every point of ``config`` and return one row per (axis value, scheme).

    All points are checked before any trial runs, and their blocks are
    evaluated together, in one pool when ``workers`` allows.  The theory
    column is attached to eig-sum rows when ``emit_theory`` is set and left
    empty everywhere else.
    """
    workers = model.as_int("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_domain(config)
    sums = _evaluate(config, workers)
    axis, trials, seed = config.axis.value, config.trials, config.master_seed
    rows: list[SweepRow] = []
    # the sums are Python integers already; tolist hands them over without a numpy round trip
    for value, cfg, point_sums in zip(config.axis_values, config.points, sums.T.tolist()):
        theory_value = None
        if config.emit_theory:
            theory_value = nrmse_eig_sum_theory(
                cfg.k_active, cfg.m_antennas, cfg.noise_variance, cfg.cfo.alpha
            )
        for scheme, total in zip(config.schemes, point_sums):
            theory = theory_value if scheme is Scheme.EIG_SUM else None
            nrmse_sim = _nrmse_of_sum(total, trials, cfg.k_active)
            # positional, in the order of SweepRow's fields
            rows.append(SweepRow(axis, value, scheme, nrmse_sim, theory, trials, seed))
    return tuple(rows)


def _format_float(x: float) -> str:
    # '#' keeps trailing zeros so every float shows 9 significant digits
    return format(float(x), "#.9g")


def _format_axis_value(value: float | None) -> str:
    if value is None:
        return ""
    v = float(value)
    return str(int(v)) if v.is_integer() else _format_float(v)


@functools.lru_cache(maxsize=1024)
def _csv_point(axis: str, axis_value: float | None) -> str:
    return f"{axis},{_format_axis_value(axis_value)},"


def write_csv(rows: Iterable[SweepRow], stream: IO[str]) -> None:
    """Write one header line plus one line per result row, each ending in ``\\n``.

    The bytes are those of ``csv.writer`` with ``lineterminator="\\n"``; no
    field needs quoting, since axis and scheme names come from enums and
    every other field is a formatted number.
    """
    lines = [",".join(CSV_HEADER) + "\n"]
    for row in rows:
        theory = "" if row.nrmse_theory is None else _format_float(row.nrmse_theory)
        lines.append(
            f"{_csv_point(row.axis, row.axis_value)}{row.scheme.value},{_format_float(row.nrmse_sim)},"
            f"{theory},{row.trials},{row.seed}\n"
        )
    stream.write("".join(lines))


# ``json.dumps`` spells the non-finite floats so, and every other float as its repr
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# each scheme name as a JSON string, quoted and escaped
_JSON_SCHEME = {scheme: encode_basestring_ascii(scheme.value) for scheme in Scheme}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_NON_FINITE.get(text, text)


def _json_axis_value(value: float | None) -> str:
    if value is None:
        return "null"
    v = float(value)
    return str(int(v)) if v.is_integer() else _json_float(v)


@functools.lru_cache(maxsize=1024)
def _json_point(axis: str, axis_value: float | None) -> str:
    # the start of an object at the indent of ``json.dumps(rows, indent=2)``
    return '  {\n    "axis": %s,\n    "axis_value": %s,\n    "scheme": ' % (
        encode_basestring_ascii(axis),
        _json_axis_value(axis_value),
    )


def write_json(rows: Iterable[SweepRow], stream: IO[str]) -> None:
    """Write the rows as a JSON array of objects, one object per result row.

    The bytes are those of ``json.dumps`` with ``indent=2`` of one object
    per row, with the fields in ``CSV_HEADER`` order, an integral axis value
    as an integer and a missing one as null.
    """
    objects = []
    for row in rows:
        theory = "null" if row.nrmse_theory is None else _json_float(row.nrmse_theory)
        objects.append(
            f'{_json_point(row.axis, row.axis_value)}{_JSON_SCHEME[row.scheme]},\n'
            f'    "nrmse_sim": {_json_float(row.nrmse_sim)},\n    "nrmse_theory": {theory},\n'
            f'    "trials": {row.trials},\n    "seed": {row.seed}\n  }}'
        )
    stream.write("[\n" + ",\n".join(objects) + "\n]\n" if objects else "[]\n")
