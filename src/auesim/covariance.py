"""Entries (r1, r2, r12) of the Hermitian 2 x 2 pilot sample covariance, over many trials.

The single-trial ``SampleCovariance`` and its eigenvalues are in ``auesim.reference``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# relative slack on the determinant check; Cauchy-Schwarz guarantees det >= 0
# in exact arithmetic, so anything below this is a construction error
_DET_TOL = 1e-12


class CovarianceBlock(NamedTuple):
    """Entries of many sample covariances, element i of each array from trial i.

    The counting schemes read only ``r1``, ``r2`` and ``r12``, so they take a
    block wherever they take a single covariance and return arrays.
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
