"""Sample covariance of the 2 x M pilot block and its closed-form eigenvalues."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    # model builds covariance blocks, so covariance may not import it at run time
    from .model import ReceivedPilot

# relative slack on the determinant check; Cauchy-Schwarz guarantees det >= 0
# in exact arithmetic, so anything below this is a construction error
_DET_TOL = 1e-12


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


class CovarianceBlock(NamedTuple):
    """Entries of many sample covariances, element i of each array from trial i.

    The counting schemes read only ``r1``, ``r2`` and ``r12``, so they take a
    block wherever they take a ``SampleCovariance`` and return arrays.
    """

    r1: np.ndarray
    r2: np.ndarray
    r12: np.ndarray


def check_entries(r1, r2, r12) -> None:
    """Raise ``ValueError`` unless every (r1, r2, r12) is a valid sample covariance.

    Takes scalars or arrays: entries must be finite, r1, r2 >= 0, and the
    determinant r1*r2 - |r12|^2 at least -1e-12 * max(1, r1*r2).
    """
    r1, r2, r12 = np.asarray(r1), np.asarray(r2), np.asarray(r12)
    for name, values, rule, ok in (
        ("r1", r1, "finite and >= 0", r1 >= 0.0),
        ("r2", r2, "finite and >= 0", r2 >= 0.0),
        ("r12", r12, "finite", True),
    ):
        bad = ~(np.isfinite(values) & ok)
        if bad.any():
            raise ValueError(f"{name} must be {rule}, got {values[bad][0]}")
    cross = r12.real**2 + r12.imag**2
    bad = r1 * r2 - cross < -_DET_TOL * np.maximum(1.0, r1 * r2)
    if bad.any():
        raise ValueError(
            f"|r12|^2 = {cross[bad][0]} exceeds r1*r2 = {(r1 * r2)[bad][0]}; "
            "not a valid sample covariance"
        )


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
