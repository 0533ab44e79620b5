"""Test oracles: the direct 2 x M pilot model, population moments and an exact NRMSE.

``generate_received`` synthesises the block Y of ``auesim.model`` channel by
channel, with offsets from ``draw_cfos``, and ``sample_covariance`` forms
R = Y Y^H / M from it.  ``moment_oracles`` and ``population_eigenvalues``
are the closed forms at a ``PopulationSpec``, and ``nrmse`` scores a list of
counts in Python integers.  No production module imports this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covariance import check_entries
from .harness import _nrmse_of_sum
from .model import CfoKind, CfoModel, SystemConfig
from .theory import _check_power

_SQRT2 = math.sqrt(2.0)

_GAMMA_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ReceivedPilot:
    """One received 2 x M pilot block; row i is the array snapshot for symbol i."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 2 or samples.shape[0] != 2 or samples.shape[1] < 1:
            raise ValueError(f"samples must have shape (2, M) with M >= 1, got {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def m_antennas(self) -> int:
        return self.samples.shape[1]

    @property
    def y1(self) -> np.ndarray:
        return self.samples[0]

    @property
    def y2(self) -> np.ndarray:
        return self.samples[1]


def draw_cfos(cfo: CfoModel, k_active: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``k_active`` offsets omega (radians per symbol) from the CFO model."""
    if k_active < 0:
        raise ValueError(f"k_active must be >= 0, got {k_active}")
    if cfo.kind is CfoKind.UNIFORM:
        return rng.uniform(-cfo.omega_max, cfo.omega_max, size=k_active)
    return rng.normal(0.0, cfo.omega_max / 3.0, size=k_active)


def generate_received(
    cfg: SystemConfig, rng: np.random.Generator, *, with_noise: bool = True
) -> ReceivedPilot:
    """Simulate one pilot slot and return the received 2 x M block.

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
    return ReceivedPilot(samples=samples)


@dataclass(frozen=True)
class SampleCovariance:
    """Entries of R = Y Y^H / M: diagonal powers r1, r2 and cross term r12 = y1 y2^H / M."""

    r1: float
    r2: float
    r12: complex

    def __post_init__(self) -> None:
        check_entries(self.r1, self.r2, self.r12)

    @property
    def trace(self) -> float:
        return self.r1 + self.r2

    @property
    def determinant(self) -> float:
        return self.r1 * self.r2 - (self.r12.real**2 + self.r12.imag**2)


@dataclass(frozen=True)
class EigenPair:
    """Ordered eigenvalues of a 2 x 2 Hermitian matrix."""

    lambda_max: float
    lambda_min: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lambda_max) and math.isfinite(self.lambda_min)):
            raise ValueError("eigenvalues must be finite")
        if self.lambda_max < self.lambda_min:
            raise ValueError(
                f"lambda_max = {self.lambda_max} < lambda_min = {self.lambda_min}"
            )

    @property
    def spread(self) -> float:
        return self.lambda_max - self.lambda_min


def sample_covariance(pilot: ReceivedPilot) -> SampleCovariance:
    """Average the M per-antenna outer products of [y1_i, y2_i]."""
    y1, y2 = pilot.y1, pilot.y2
    m = pilot.m_antennas
    r1 = float(np.vdot(y1, y1).real) / m
    r2 = float(np.vdot(y2, y2).real) / m
    # vdot conjugates its first argument: sum_i y1_i * conj(y2_i)
    r12 = complex(np.vdot(y2, y1)) / m
    return SampleCovariance(r1=r1, r2=r2, r12=r12)


def eigenvalues(cov: SampleCovariance) -> EigenPair:
    """Eigenvalues of [[r1, r12], [r12*, r2]] via the quadratic formula.

    lambda = (r1 + r2)/2 +- sqrt((r1 - r2)^2 + 4 |r12|^2) / 2.  The
    discriminant is clamped at zero so roundoff near a repeated eigenvalue
    cannot produce a NaN.
    """
    mean = 0.5 * (cov.r1 + cov.r2)
    disc = (cov.r1 - cov.r2) ** 2 + 4.0 * (cov.r12.real**2 + cov.r12.imag**2)
    half = 0.5 * math.sqrt(max(disc, 0.0))
    return EigenPair(lambda_max=mean + half, lambda_min=mean - half)


def gamma_exact(omegas: np.ndarray) -> float:
    """Coherent offset sum |sum_n e^{j omega_n}| for one realized offset draw."""
    phasor = np.exp(1j * np.asarray(omegas, dtype=float)).sum()
    return float(abs(phasor))


@dataclass(frozen=True)
class PopulationSpec:
    """Operating point for the closed-form quantities."""

    k_active: int
    noise_variance: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.k_active < 0:
            raise ValueError(f"k_active must be >= 0, got {self.k_active}")
        if not math.isfinite(self.noise_variance) or self.noise_variance < 0.0:
            raise ValueError(f"noise_variance must be finite and >= 0, got {self.noise_variance}")
        _check_power(self.k_active, self.noise_variance)
        if not -1.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [-1, 1], got {self.alpha}")


@dataclass(frozen=True)
class CovarianceMoments:
    """First and second moments of the diagonal covariance entries."""

    r1_mean: float
    r1_square_mean: float
    r1_r2_mean: float


def moment_oracles(spec: PopulationSpec, m_antennas: int) -> CovarianceMoments:
    """Exact moments of R1 (and the R1*R2 cross moment) at the operating point.

    With P = K + sigma_z^2:

        E[R1]      = P
        E[R1^2]    = (1 + 1/M) P^2
        E[R1 R2]   = (K + K(K-1) alpha^2) / M + P^2

    R1 and R2 are identically distributed, so the same numbers serve for R2.
    """
    if m_antennas < 1:
        raise ValueError(f"m_antennas must be >= 1, got {m_antennas}")
    k = float(spec.k_active)
    power = k + spec.noise_variance
    return CovarianceMoments(
        r1_mean=power,
        r1_square_mean=(1.0 + 1.0 / m_antennas) * power**2,
        r1_r2_mean=(k + k * (k - 1.0) * spec.alpha**2) / m_antennas + power**2,
    )


def population_eigenvalues(spec: PopulationSpec, gamma: float) -> EigenPair:
    """Population covariance eigenvalues K + sigma_z^2 +- gamma.

    ``gamma`` is the realized coherent sum, which the triangle inequality
    bounds by K; values outside [0, K] are rejected.
    """
    k = spec.k_active
    if gamma < -_GAMMA_TOL or gamma > k * (1.0 + _GAMMA_TOL) + _GAMMA_TOL:
        raise ValueError(f"gamma must lie in [0, k_active={k}], got {gamma}")
    level = k + spec.noise_variance
    return EigenPair(lambda_max=level + gamma, lambda_min=level - gamma)


def nrmse(estimates: Sequence[int] | np.ndarray, k_true: int) -> float:
    """Root mean squared count error, normalized by the true count."""
    if k_true < 1:
        raise ValueError(f"k_true must be >= 1, got {k_true}")
    arr = np.asarray(estimates)
    if arr.size == 0:
        raise ValueError("estimates must be non-empty")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"estimates must be integers, got dtype {arr.dtype}")
    k = int(k_true)
    # Python integers: no square or sum can overflow
    return _nrmse_of_sum(sum((e - k) * (e - k) for e in arr.tolist()), arr.size, k_true)
