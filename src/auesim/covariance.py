"""Entries (r1, r2, r12) of the Hermitian 2 x 2 pilot sample covariance, over many trials.

The direct model in the test oracles, ``tests/oracles.py``, builds the same record for one trial.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

# relative slack on the determinant check; Cauchy-Schwarz guarantees det >= 0
# in exact arithmetic, so anything below this is a construction error
_DET_TOL = 1e-12

# 0-d constants, which numpy takes without converting a Python float per call
_ONE = np.array(1.0)
_NEG_DET_TOL = np.array(-_DET_TOL)

# the smallest and largest entry, +inf and -inf for none; NaN if there is one
_lowest = functools.partial(np.minimum.reduce, axis=None, initial=math.inf)
_highest = functools.partial(np.maximum.reduce, axis=None, initial=-math.inf)


class CovarianceBlock(NamedTuple):
    """Entries of many sample covariances, element i of each array from trial i.

    The fields may also be one trial's scalars.  The counting schemes read
    only ``r1``, ``r2`` and ``r12``, so they take either and return arrays.
    """

    r1: np.ndarray
    r2: np.ndarray
    r12: np.ndarray


def check_entries(r1, r2, r12) -> None:
    """Raise ``ValueError`` unless every (r1, r2, r12) is a valid sample covariance.

    Takes scalars or arrays: entries must be finite, r1, r2 >= 0, and the
    determinant r1*r2 - |r12|^2 at least -1e-12 * max(1, r1*r2), with
    |r12|^2 = Re(r12)^2 + Im(r12)^2.  The test covers every entry at once,
    and the bound is formed only when some determinant is below -1e-12; only
    when the test fails is the first bad value looked up for the message, in
    the order r1, r2, r12, determinant.
    """
    r1, r2, r12 = np.asarray(r1), np.asarray(r2), np.asarray(r12)
    # NaN fails every comparison, and the extremes propagate it
    if _lowest(r1) >= 0.0 and _lowest(r2) >= 0.0 and _highest(r1) < math.inf and _highest(r2) < math.inf:
        product = r1 * r2
        cross = r12.real**2 + r12.imag**2
        determinant = product - cross
        # the bound never exceeds -1e-12, so this passes no determinant the
        # full test refuses; a non-finite r12 leaves -inf or NaN, which fail it
        if _lowest(determinant) >= -_DET_TOL:
            return
        if np.isfinite(r12).all():
            bound = np.maximum(product, _ONE)
            bound *= _NEG_DET_TOL
            bad = determinant < bound
            if not bad.any():
                return
            raise ValueError(
                f"|r12|^2 = {cross[bad][0]} exceeds r1*r2 = {product[bad][0]}; not a valid sample covariance"
            )
    for name, values, rule, ok in (
        ("r1", r1, "finite and >= 0", r1 >= 0.0),
        ("r2", r2, "finite and >= 0", r2 >= 0.0),
        ("r12", r12, "finite", True),
    ):
        bad = ~(np.isfinite(values) & ok)
        if bad.any():
            raise ValueError(f"{name} must be {rule}, got {values[bad][0]}")
