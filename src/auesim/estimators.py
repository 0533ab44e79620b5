"""Active-count schemes operating on the 2 x 2 sample covariance.

All four schemes reduce to scalar statistics of (r1, r2, r12):

    eig-sum      (r1 + r2)/2 - sigma_z^2
    eig-diff     sqrt((r1 - r2)^2 + 4 |r12|^2) / (2 alpha)
    orthogonal   Re(r12)
    mle          (r1 + r2 + 2 Re(r12))/4 - sigma_z^2 / 2

where alpha = E[e^{j omega}] is the characteristic function of the CFO
distribution evaluated at 1: the offset law's, read from its home,
``model.CfoModel.alpha``.  The first two are the sum and difference of the
covariance eigenvalues recentred by their known population offsets; the
orthogonal scheme correlates the two received symbols directly, and the mle
scheme is the maximum-likelihood count for the zero-offset model.  What sets
them apart is the side information each reads: eig-sum and mle the known
noise variance, eig-diff only alpha, orthogonal neither.  ``statistics``
returns these real values, one branch per scheme; the counts round them half
away from zero and clamp to the population range [0, n_potential].

Each formula is written once and reads only ``cov.r1``, ``cov.r2`` and
``cov.r12``, so it takes a ``CovarianceBlock`` of arrays or of one trial's
scalars alike.  ``estimate_counts`` is the path the simulation runs: every
requested scheme on one block, rounded and clamped in one step.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

from .covariance import CovarianceBlock
from .model import as_int

# below this the eig-diff division by alpha amplifies covariance noise past
# any useful range, and alpha = 0 (offsets near half the symbol rate) would
# divide by zero outright
ALPHA_MIN = 1e-3


class Scheme(enum.Enum):
    EIG_SUM = "eig-sum"
    EIG_DIFF = "eig-diff"
    ORTHOGONAL = "orthogonal"
    MLE = "mle"


class EstimatorDomainError(ValueError):
    """A scheme was evaluated outside the parameter region where it is defined."""


def _clamped_counts(values: np.ndarray, n_potential: int) -> np.ndarray:
    """Round half away from zero, then clamp to [0, n_potential], elementwise.

    floor(x) + (x - floor(x) >= 0.5) rounds half up, which parts from half
    away from zero only below zero, where the clamp takes both to 0.  Above
    zero, x - floor(x) is exact, whereas x + 0.5 rounds 0.49999999999999994 up
    to 1; round() and np.rint tie to even, which would bias counts at exact
    .5 values.  A NaN survives to the clamp's maximum, and raises there.
    """
    whole = np.floor(values)
    whole += values - whole >= 0.5
    whole.clip(0, n_potential, out=whole)
    if math.isnan(np.maximum.reduce(whole, axis=None, initial=0.0)):
        raise ValueError("statistic is NaN; cannot round it to a count")
    return whole.astype(np.int64)


def _require_alpha(alpha) -> None:
    # a scalar alpha, the one of a single point, skips the array round trip
    smallest = alpha if isinstance(alpha, float) else float(np.min(alpha))
    if smallest <= ALPHA_MIN:
        raise EstimatorDomainError(
            f"characteristic function too small (alpha = {smallest:.3e}, "
            f"limit {ALPHA_MIN}); the eig-diff scheme divides by it"
        )


def statistics(schemes: Sequence[Scheme], cov: CovarianceBlock, noise_variance, alpha) -> np.ndarray:
    """Raw statistic of every scheme for every covariance in ``cov``, before rounding.

    Row i holds ``schemes[i]``, and all rows read the same entries.
    ``noise_variance`` (read by eig-sum and mle) and ``alpha`` (read by
    eig-diff only) are scalars or arrays that broadcast over the entries,
    for a block whose covariances come from several points.
    """
    values = np.empty((len(schemes),) + np.shape(cov.r1))
    for row, scheme in enumerate(schemes):
        if scheme is Scheme.EIG_SUM:
            values[row] = 0.5 * (cov.r1 + cov.r2) - noise_variance
        elif scheme is Scheme.EIG_DIFF:
            _require_alpha(alpha)
            spread = np.sqrt((cov.r1 - cov.r2) ** 2 + 4.0 * (cov.r12.real**2 + cov.r12.imag**2))
            values[row] = spread / (2.0 * alpha)
        elif scheme is Scheme.ORTHOGONAL:
            values[row] = cov.r12.real
        elif scheme is Scheme.MLE:
            values[row] = 0.25 * (cov.r1 + cov.r2 + 2.0 * cov.r12.real) - 0.5 * noise_variance
        else:
            raise ValueError(f"not a Scheme: {scheme!r}")
    return values


# multiplications per estimate as (per-antenna slope, constant): the M-linear
# part accumulates the covariance entries each scheme touches, the constant
# covers the scalar combine step
_MULT_COUNTS = {
    Scheme.EIG_SUM: (2, 3),
    Scheme.EIG_DIFF: (3, 7),
    Scheme.ORTHOGONAL: (1, 1),
    Scheme.MLE: (3, 5),
}


def check_domain(schemes: Sequence[Scheme], alpha: float) -> None:
    """Raise ``EstimatorDomainError`` if a scheme in ``schemes`` is undefined at this alpha."""
    if Scheme.EIG_DIFF in schemes:
        _require_alpha(alpha)


def estimate_counts(
    schemes: Sequence[Scheme], cov: CovarianceBlock, noise_variance, alpha, n_potential: int
) -> np.ndarray:
    """``statistics`` rounded half away from zero and clamped to [0, n_potential], as int64."""
    return _clamped_counts(statistics(schemes, cov, noise_variance, alpha), n_potential)


def multiplication_count(scheme: Scheme, m_antennas: int) -> int:
    """Real multiplications one estimate costs at array size ``m_antennas``."""
    if not isinstance(scheme, Scheme):
        raise ValueError(f"not a Scheme: {scheme!r}")
    m_antennas = as_int("m_antennas", m_antennas)
    if m_antennas < 1:
        raise ValueError(f"m_antennas must be >= 1, got {m_antennas}")
    slope, constant = _MULT_COUNTS[scheme]
    return slope * m_antennas + constant
