"""Closed-form error of the eig-sum scheme: the theory column the CLI emits.

For K active users with offsets omega_n, the population covariance of the
two received pilot symbols is

    E[R] = [[K + sigma_z^2,  g],
            [g*,             K + sigma_z^2]],    g = sum_n e^{j omega_n}.

Averaging over the offset distribution replaces e^{j omega} by its mean
alpha, which gives the moments of the covariance entries and the eig-sum
error below.  The moments are a test oracle, ``moment_oracles`` of
``tests/oracles.py``.
"""

from __future__ import annotations

import math

from .model import as_int

# largest K + sigma_z^2 accepted: its square, and every moment built on it,
# stays some eight orders of magnitude below the float maximum
MAX_POWER = 1e150


def _check_point(
    k_active: int, m_antennas: int, noise_variance: float, alpha: float, k_min: int
) -> tuple[int, int]:
    """K and M as Python ints; ``ValueError`` unless the point is one the closed forms take."""
    k_active, m_antennas = as_int("k_active", k_active), as_int("m_antennas", m_antennas)
    if k_active < k_min:
        raise ValueError(f"k_active must be >= {k_min}, got {k_active}")
    if m_antennas < 1:
        raise ValueError(f"m_antennas must be >= 1, got {m_antennas}")
    if not math.isfinite(noise_variance) or noise_variance < 0.0:
        raise ValueError(f"noise_variance must be finite and >= 0, got {noise_variance}")
    # comparing K alone first is exact for any integer, so a K past the float
    # range is rejected before the sum converts it
    if k_active > MAX_POWER or k_active + noise_variance > MAX_POWER:
        raise ValueError(
            f"K + noise_variance must be at most MAX_POWER = {MAX_POWER:g} so that its square "
            f"stays finite, got K = {k_active}, noise_variance = {noise_variance}"
        )
    if not -1.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [-1, 1], got {alpha}")
    return k_active, m_antennas


def nrmse_eig_sum_theory(
    k_active: int, m_antennas: int, noise_variance: float, alpha: float
) -> float:
    """Predicted normalized RMS error of the eig-sum scheme before rounding.

    The estimate is (R1 + R2)/2 - sigma_z^2 with per-antenna averaging over M
    i.i.d. snapshots, and its mean-squared error follows from the covariance
    moments (see ``moment_oracles`` in ``tests/oracles.py``):

        MSE = (K + K(K-1) alpha^2 + (K + sigma_z^2)^2) / (2 M)

    Integer rounding of the final estimate adds roughly 1/12 to the MSE on
    top of this, which only matters when the MSE itself is order one.  K is
    at least 1, since the error is normalized by it.
    """
    k_active, m_antennas = _check_point(k_active, m_antennas, noise_variance, alpha, k_min=1)
    k = float(k_active)
    mse = (k + k * (k - 1.0) * alpha**2 + (k + noise_variance) ** 2) / (2.0 * m_antennas)
    return math.sqrt(mse) / k
