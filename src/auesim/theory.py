"""Closed-form population quantities the simulation is checked against.

For K active users with offsets omega_n, the population covariance of the
two received pilot symbols is

    E[R] = [[K + sigma_z^2,  g],
            [g*,             K + sigma_z^2]],    g = sum_n e^{j omega_n},

whose eigenvalues are K + sigma_z^2 +- |g| (``reference.population_eigenvalues``
computes them for one realised offset draw).  Averaging over the offset
distribution replaces e^{j omega} by its mean alpha, which is where the
second-order moments and the eig-sum error formula below come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# largest K + sigma_z^2 accepted: its square, and every moment built on it,
# stays some eight orders of magnitude below the float maximum
MAX_POWER = 1e150


def _check_power(k_active: int, noise_variance: float) -> None:
    # comparing K alone first is exact for any integer, so a K past the float
    # range is rejected before the sum converts it
    if k_active > MAX_POWER or k_active + noise_variance > MAX_POWER:
        raise ValueError(
            f"K + noise_variance must be at most MAX_POWER = {MAX_POWER:g} so that its square "
            f"stays finite, got K = {k_active}, noise_variance = {noise_variance}"
        )


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


def nrmse_eig_sum_theory(
    k_active: int, m_antennas: int, noise_variance: float, alpha: float
) -> float:
    """Predicted normalized RMS error of the eig-sum scheme before rounding.

    The estimate is (R1 + R2)/2 - sigma_z^2 with per-antenna averaging over M
    i.i.d. snapshots, and its mean-squared error follows from the covariance
    moments (see ``moment_oracles``):

        MSE = (K + K(K-1) alpha^2 + (K + sigma_z^2)^2) / (2 M)

    Integer rounding of the final estimate adds roughly 1/12 to the MSE on
    top of this, which only matters when the MSE itself is order one.
    """
    if k_active < 1:
        raise ValueError(f"k_active must be >= 1 (the error is normalized by it), got {k_active}")
    if m_antennas < 1:
        raise ValueError(f"m_antennas must be >= 1, got {m_antennas}")
    if not math.isfinite(noise_variance) or noise_variance < 0.0:
        raise ValueError(f"noise_variance must be finite and >= 0, got {noise_variance}")
    _check_power(k_active, noise_variance)
    if not -1.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [-1, 1], got {alpha}")
    k = float(k_active)
    mse = (k + k * (k - 1.0) * alpha**2 + (k + noise_variance) ** 2) / (2.0 * m_antennas)
    return math.sqrt(mse) / k


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
