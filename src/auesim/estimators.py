"""Active-count schemes operating on the 2 x 2 sample covariance.

All four schemes reduce to scalar statistics of (r1, r2, r12):

    eig-sum      (r1 + r2)/2 - sigma_z^2
    eig-diff     sqrt((r1 - r2)^2 + 4 |r12|^2) / (2 alpha)
    orthogonal   Re(r12)
    mle          (r1 + r2 + 2 Re(r12))/4 - sigma_z^2 / 2

where alpha = E[e^{j omega}] is the characteristic function of the CFO
distribution evaluated at 1.  The first two are the sum and difference of the
covariance eigenvalues recentred by their known population offsets; the
orthogonal scheme correlates the two received symbols directly, and the mle
scheme is the maximum-likelihood count for the zero-offset model.  The
``*_statistic`` functions return these real values; the counts round them half
away from zero and clamp to the population range [0, n_potential].

Each formula is written once and reads only ``cov.r1``, ``cov.r2`` and
``cov.r12``, so it takes a whole ``CovarianceBlock`` of arrays or anything
else with those three entries, one ``reference.SampleCovariance`` included.
``estimate_counts`` is the path the simulation runs: every requested scheme
on one block, rounded and clamped in one step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covariance import CovarianceBlock
from .model import CfoKind, CfoModel

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


@dataclass(frozen=True)
class EstimatorContext:
    """Side information shared by the schemes at one operating point.

    ``noise_variance`` and ``alpha`` may instead be arrays with one value per
    covariance, for a block whose covariances come from several points.
    ``alpha`` may be any value in [-1, 1] here; the eig-diff scheme itself
    rejects values at or below ``ALPHA_MIN`` since it divides by alpha.
    """

    noise_variance: float | np.ndarray
    alpha: float | np.ndarray
    n_potential: int

    def __post_init__(self) -> None:
        noise = np.asarray(self.noise_variance)
        if not np.all(np.isfinite(noise) & (noise >= 0.0)):
            raise ValueError(f"noise_variance must be finite and >= 0, got {self.noise_variance}")
        alpha = np.asarray(self.alpha)
        if not np.all((-1.0 <= alpha) & (alpha <= 1.0)):
            raise ValueError(f"alpha must lie in [-1, 1], got {self.alpha}")
        if self.n_potential < 1:
            raise ValueError(f"n_potential must be >= 1, got {self.n_potential}")


def characteristic_function(cfo: CfoModel) -> float:
    """alpha = E[e^{j omega}] of the offset distribution; real since omega is symmetric.

    Uniform on [-a, a] gives sin(a)/a with a = 2*pi*epsilon_max; Gaussian with
    std a/3 gives exp(-a^2/18); no offset (epsilon_max = 0) gives 1.
    """
    if cfo.epsilon_max == 0.0:
        return 1.0
    bound = cfo.omega_max
    if cfo.kind is CfoKind.UNIFORM:
        return math.sin(bound) / bound
    std = bound / 3.0
    return math.exp(-0.5 * std * std)


def _clamped_counts(values: np.ndarray, n_potential: int) -> np.ndarray:
    """Round half away from zero, then clamp to [0, n_potential], elementwise."""
    if np.isnan(values).any():
        raise ValueError("statistic is NaN; cannot round it to a count")
    whole = np.trunc(values)
    # x - trunc(x) is exact, whereas x + 0.5 rounds 0.49999999999999994 up to 1;
    # round() and np.rint tie to even, which would bias counts at exact .5 values;
    # the steps run in place to keep a large block's temporaries few
    step = np.abs(values - whole)
    up = step >= 0.5
    np.sign(values, out=step)
    step *= up
    whole += step
    return np.clip(whole, 0, n_potential, out=whole).astype(np.int64)


def _require_alpha(alpha) -> None:
    smallest = float(np.min(alpha))
    if smallest <= ALPHA_MIN:
        raise EstimatorDomainError(
            f"characteristic function too small (alpha = {smallest:.3e}, "
            f"limit {ALPHA_MIN}); the eig-diff scheme divides by it"
        )


def eig_sum_statistic(cov: CovarianceBlock, ctx: EstimatorContext) -> float | np.ndarray:
    """Half the covariance trace minus the known noise floor."""
    return 0.5 * (cov.r1 + cov.r2) - ctx.noise_variance


def eig_diff_statistic(cov: CovarianceBlock, ctx: EstimatorContext) -> float | np.ndarray:
    """Half the eigenvalue spread divided by alpha."""
    _require_alpha(ctx.alpha)
    spread = np.sqrt((cov.r1 - cov.r2) ** 2 + 4.0 * (cov.r12.real**2 + cov.r12.imag**2))
    return spread / (2.0 * ctx.alpha)


def orthogonal_statistic(cov: CovarianceBlock, ctx: EstimatorContext) -> float | np.ndarray:
    """Symbol correlation Re(r12), exact in the mean when all offsets are zero."""
    return cov.r12.real


def mle_statistic(cov: CovarianceBlock, ctx: EstimatorContext) -> float | np.ndarray:
    """Maximum-likelihood count for the zero-offset model, before rounding."""
    return 0.25 * (cov.r1 + cov.r2 + 2.0 * cov.r12.real) - 0.5 * ctx.noise_variance


_STATISTICS = {
    Scheme.EIG_SUM: eig_sum_statistic,
    Scheme.EIG_DIFF: eig_diff_statistic,
    Scheme.ORTHOGONAL: orthogonal_statistic,
    Scheme.MLE: mle_statistic,
}

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
    schemes: Sequence[Scheme], cov: CovarianceBlock, ctx: EstimatorContext
) -> np.ndarray:
    """Integer estimates of every scheme for every covariance in ``cov``, as int64.

    Row i holds ``schemes[i]``; all rows are computed from the same entries.
    """
    values = np.empty((len(schemes),) + np.shape(cov.r1))
    for row, scheme in enumerate(schemes):
        values[row] = _STATISTICS[scheme](cov, ctx)
    return _clamped_counts(values, ctx.n_potential)


def multiplication_count(scheme: Scheme, m_antennas: int) -> int:
    """Real multiplications one estimate costs at array size ``m_antennas``."""
    if m_antennas < 1:
        raise ValueError(f"m_antennas must be >= 1, got {m_antennas}")
    slope, constant = _MULT_COUNTS[scheme]
    return slope * m_antennas + constant
