"""Test oracles: the direct 2 x M model, moments, per-trial counts and an exact NRMSE.

``generate_received`` synthesises the block Y of ``auesim.model`` channel by
channel, with offsets from ``draw_cfos``, as a (2, M) array;
``sample_covariance`` forms R = Y Y^H / M from it as a one-trial
``CovarianceBlock``, and ``eigenvalues`` gives R's two eigenvalues.
``moment_oracles`` are the closed-form moments at one operating point.
``collect_estimates`` gives the per-trial counts of one point, block by
block, and ``nrmse`` scores a list of counts in Python integers.

This is a test module, not part of the package: the test modules import it
as ``oracles``, which pytest's default import mode puts on the path.  It
reaches into three private names of the package, ``harness._check_domain``,
``harness._nrmse_of_sum`` and ``theory._check_point``, so that it accepts
what the production code accepts and scores as the runner does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from auesim import model
from auesim.covariance import CovarianceBlock, check_entries
from auesim.estimators import Scheme, estimate_counts
from auesim.harness import BLOCK, ExperimentConfig, _check_domain, _nrmse_of_sum
from auesim.model import CfoKind, CfoModel, SystemConfig
from auesim.theory import _check_point

_SQRT2 = math.sqrt(2.0)


def draw_cfos(cfo: CfoModel, k_active: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``k_active`` offsets omega (radians per symbol) from the CFO model."""
    if k_active < 0:
        raise ValueError(f"k_active must be >= 0, got {k_active}")
    if cfo.kind is CfoKind.UNIFORM:
        return rng.uniform(-cfo.omega_max, cfo.omega_max, size=k_active)
    return rng.normal(0.0, cfo.omega_max / 3.0, size=k_active)


def generate_received(
    cfg: SystemConfig, rng: np.random.Generator, *, with_noise: bool = True
) -> np.ndarray:
    """Simulate one pilot slot: the received 2 x M complex128 block, row i from symbol i.

    Draw order is fixed (offsets, channels, noise) so a given generator
    state always produces the same block.  ``with_noise=False`` zeroes the
    additive noise; it exists for tests that need the noise-free signal
    component, which the configuration itself cannot express because
    ``noise_variance`` must stay positive.
    """
    k, m = cfg.k_active, cfg.m_antennas
    omegas = draw_cfos(cfg.cfo, k, rng)
    channels = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / _SQRT2
    rotation = np.vstack([np.ones(k), np.exp(1j * omegas)])
    samples = rotation @ channels
    if with_noise:
        scale = math.sqrt(cfg.noise_variance / 2.0)
        samples = samples + scale * (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m)))
    return samples


def sample_covariance(samples: np.ndarray) -> CovarianceBlock:
    """Average the M per-antenna outer products of [y1_i, y2_i] of a (2, M) block.

    The entries are checked as ``bartlett_covariance`` checks its own, so a
    NaN or inf sample, which makes its row's power non-finite, raises.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 2 or samples.shape[0] != 2 or samples.shape[1] < 1:
        raise ValueError(f"samples must have shape (2, M) with M >= 1, got {samples.shape}")
    y1, y2 = samples
    m = samples.shape[1]
    r1 = float(np.vdot(y1, y1).real) / m
    r2 = float(np.vdot(y2, y2).real) / m
    # vdot conjugates its first argument: sum_i y1_i * conj(y2_i)
    r12 = complex(np.vdot(y2, y1)) / m
    check_entries(r1, r2, r12)
    return CovarianceBlock(r1, r2, r12)


def eigenvalues(cov: CovarianceBlock) -> tuple[float, float]:
    """(lambda_max, lambda_min) of [[r1, r12], [r12*, r2]] via the quadratic formula.

    lambda = (r1 + r2)/2 +- sqrt((r1 - r2)^2 + 4 |r12|^2) / 2.  The
    discriminant is clamped at zero so roundoff near a repeated eigenvalue
    cannot produce a NaN; a value that overflows raises ``ValueError``.
    """
    mean = 0.5 * (cov.r1 + cov.r2)
    try:
        disc = (cov.r1 - cov.r2) ** 2 + 4.0 * (cov.r12.real**2 + cov.r12.imag**2)
    except OverflowError:  # a square of Python floats past the float range
        disc = math.inf
    half = 0.5 * math.sqrt(max(disc, 0.0))
    lambda_max, lambda_min = mean + half, mean - half
    if not (math.isfinite(lambda_max) and math.isfinite(lambda_min)):
        raise ValueError(f"eigenvalues must be finite, got {lambda_max} and {lambda_min}")
    return lambda_max, lambda_min


@dataclass(frozen=True)
class CovarianceMoments:
    """First and second moments of the diagonal covariance entries."""

    r1_mean: float
    r1_square_mean: float
    r1_r2_mean: float


def moment_oracles(k_active: int, noise_variance: float, alpha: float, m_antennas: int) -> CovarianceMoments:
    """Exact moments of R1 (and the R1*R2 cross moment) at the operating point.

    With P = K + sigma_z^2:

        E[R1]      = P
        E[R1^2]    = (1 + 1/M) P^2
        E[R1 R2]   = (K + K(K-1) alpha^2) / M + P^2

    R1 and R2 are identically distributed, so the same numbers serve for R2.
    The point is checked as ``theory.nrmse_eig_sum_theory`` does, K = 0 allowed.
    """
    k_active, m_antennas = _check_point(k_active, m_antennas, noise_variance, alpha, k_min=0)
    k = float(k_active)
    power = k + noise_variance
    return CovarianceMoments(
        r1_mean=power,
        r1_square_mean=(1.0 + 1.0 / m_antennas) * power**2,
        r1_r2_mean=(k + k * (k - 1.0) * alpha**2) / m_antennas + power**2,
    )


def nrmse(estimates: Sequence[int] | np.ndarray, k_true: int) -> float:
    """Root mean squared count error, normalized by the true count."""
    k = model.as_int("k_true", k_true)
    if k < 1:
        raise ValueError(f"k_true must be >= 1, got {k_true}")
    arr = np.asarray(estimates)
    if arr.size == 0:
        raise ValueError("estimates must be non-empty")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"estimates must be integers, got dtype {arr.dtype}")
    # Python integers: no square or sum can overflow
    return _nrmse_of_sum(sum((e - k) * (e - k) for e in arr.tolist()), arr.size, k)


def collect_estimates(
    cfg: SystemConfig, schemes: Iterable[Scheme], trials: int, seed: int
) -> dict[Scheme, np.ndarray]:
    """Integer counts of every scheme over ``trials`` seeded trials at ``cfg``, as int64.

    The request is checked as the one-point ``ExperimentConfig`` it builds,
    so it accepts and rejects what ``run_sweep`` does.  Block b then draws
    alone from ``SeedSequence(seed, spawn_key=(b,))`` and goes through the
    production steps one block at a time, without the runner's passes,
    phasor groups or pool; so its counts are the trials whose squared errors
    ``run_sweep`` sums, reached by another route.
    """
    config = ExperimentConfig(base=cfg, schemes=tuple(schemes), trials=trials, master_seed=seed)
    _check_domain(config)
    alpha = cfg.cfo.alpha
    counts = []
    for block, lo in enumerate(range(0, trials, BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        draws = model.WishartDraws.empty(1, min(lo + BLOCK, trials) - lo)
        model.draw_wishart([cfg], [rng], draws, BLOCK)
        cov = model.bartlett_covariance(draws, cfg.k_active, cfg.m_antennas, cfg.noise_variance)
        counts.append(estimate_counts(config.schemes, cov, cfg.noise_variance, alpha, cfg.n_potential)[:, 0])
    return dict(zip(config.schemes, np.concatenate(counts, axis=-1)))
