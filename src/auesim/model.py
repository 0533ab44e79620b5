"""Pilot covariance sampling for a grant-free uplink with a two-symbol common pilot.

Every active user transmits the same pilot s = [1, 1]^T over a flat Rayleigh
channel to an M-antenna receiver.  A per-user carrier frequency offset (CFO)
rotates the second pilot symbol, so the received 2 x M block is

    Y = sum_n tau(omega_n) h_n^T + Z,      tau(omega) = [1, e^{j omega}]^T,

with channel rows h_n ~ CN(0, I_M), i.i.d. CN(0, noise_variance) noise, and
omega_n = 2*pi*epsilon_n the CFO of user n in radians per symbol.  Receive
power is assumed perfectly controlled (unit power per active user), so the
active count is the only amplitude parameter in the model.

Given the offsets, the M columns of Y are i.i.d. CN(0, Sigma) with

    Sigma = [[P, conj(g)], [g, P]],    P = K + sigma_z^2,  g = sum_n e^{j omega_n},

so M R = Y Y^H is a 2 x 2 complex Wishart matrix CW_2(M, Sigma), which the
complex Bartlett decomposition draws directly in O(K) per trial.  The
simulation runs it in two halves: ``draw_wishart`` once per seeded block for
all the configurations of that block, and ``bartlett_covariance`` once over
many blocks.  The phasors e^{j omega_n} come from a table of the unit circle
and a short Taylor step (``_unit_phasors``), within a few ulps of ``np.exp``.
Y itself is synthesised only by the direct model in ``auesim.reference``,
which the tests check this sampler's law against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .covariance import CovarianceBlock, check_entries

_SQRT2 = math.sqrt(2.0)

# unit offsets drawn and phased at a time per block; bounds the transient
# memory of a block without changing a bit of its draws
CHUNK_DRAWS = 2**16

# draws between a block's start and its gammas: far past any block's normals
# and offsets, so the gammas of each M begin at one fixed position
GAMMA_OFFSET = 2**64

# largest noise power accepted: it keeps (K + sigma_z^2)^2 some eight orders
# of magnitude below the float maximum, so that products of two covariance
# entries, such as the determinant r1*r2 - |r12|^2, stay finite
MAX_NOISE_VARIANCE = 1e150

# largest worst-case offset accepted: a double still resolves omega to 1e-9
# rad, and omega counted in table steps stays far below 2^51, where the
# reduction in _unit_phasors stops being exact, for any Gaussian draw under
# a million standard deviations
MAX_EPSILON = 1e6


class CfoKind(enum.Enum):
    """Distribution family of the per-user normalized frequency offset."""

    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class CfoModel:
    """CFO distribution with worst-case normalized offset ``epsilon_max``.

    ``UNIFORM`` draws omega uniformly on [-2*pi*epsilon_max, 2*pi*epsilon_max].
    ``GAUSSIAN`` draws omega from N(0, (2*pi*epsilon_max / 3)^2), untruncated,
    so the nominal worst case sits at three standard deviations.
    ``epsilon_max = 0`` pins every offset to zero under either kind, and
    values above ``MAX_EPSILON`` are rejected.
    """

    kind: CfoKind
    epsilon_max: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon_max <= MAX_EPSILON:
            raise ValueError(f"epsilon_max must lie in [0, {MAX_EPSILON:g}], got {self.epsilon_max}")

    @property
    def omega_max(self) -> float:
        """Worst-case offset in radians per symbol, 2*pi*epsilon_max."""
        return 2.0 * math.pi * self.epsilon_max

    @classmethod
    def uniform(cls, epsilon_max: float) -> "CfoModel":
        return cls(kind=CfoKind.UNIFORM, epsilon_max=epsilon_max)

    @classmethod
    def gaussian(cls, epsilon_max: float) -> "CfoModel":
        return cls(kind=CfoKind.GAUSSIAN, epsilon_max=epsilon_max)


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of one simulated uplink.

    Attributes:
        n_potential: size of the user population; estimates are clamped to
            [0, n_potential].
        k_active: number of users actually transmitting in the pilot slot.
        m_antennas: receive array size M.
        noise_variance: per-entry noise power sigma_z^2 (linear, in
            (0, MAX_NOISE_VARIANCE]).
        cfo: offset distribution shared by all users.
    """

    n_potential: int
    k_active: int
    m_antennas: int
    noise_variance: float
    cfo: CfoModel

    def __post_init__(self) -> None:
        if self.n_potential < 1:
            raise ValueError(f"n_potential must be >= 1, got {self.n_potential}")
        if not 0 <= self.k_active <= self.n_potential:
            raise ValueError(
                f"k_active must lie in [0, n_potential={self.n_potential}], got {self.k_active}"
            )
        if self.m_antennas < 1:
            raise ValueError(f"m_antennas must be >= 1, got {self.m_antennas}")
        if not 0.0 < self.noise_variance <= MAX_NOISE_VARIANCE:
            raise ValueError(
                f"noise_variance must lie in (0, {MAX_NOISE_VARIANCE:g}], got {self.noise_variance}"
            )


class WishartDraws(NamedTuple):
    """Random inputs of the Bartlett sampler for many slots, element i from slot i.

    ``g`` is the phasor sum of the slot's K offsets, ``gamma_m`` and
    ``gamma_m1`` are a11^2 ~ Gamma(M) and a22^2 ~ Gamma(M - 1), and ``re``
    and ``im`` are the real and imaginary normals behind a21.
    """

    g: np.ndarray
    gamma_m: np.ndarray
    gamma_m1: np.ndarray
    re: np.ndarray
    im: np.ndarray

    @classmethod
    def empty(cls, trials: int) -> "WishartDraws":
        return cls(np.empty(trials, complex), *(np.empty(trials) for _ in range(4)))

    def part(self, start: int, stop: int) -> "WishartDraws":
        """Views of slots ``start`` up to ``stop``; filling them fills this record."""
        return WishartDraws(*(values[start:stop] for values in self))


def draw_wishart(
    cfgs: Sequence[SystemConfig], rng: np.random.Generator, outs: Sequence[WishartDraws]
) -> None:
    """Fill ``outs[i]`` with the random inputs of ``cfgs[i]``, all from one block's stream ``rng``.

    The configurations share the CFO kind, and the records share their size
    B; K, M, epsilon and the noise may differ.  Draw order is fixed.  From
    the generator's state at entry come the 2B normals behind a21 (the real
    parts, then the imaginary parts) and then the unit offsets, user-major:
    B for user 0, then B for user 1, up to the largest K.  They are
    u ~ U(-1, 1) for uniform CFO and z ~ N(0, 1) for Gaussian CFO, and
    configuration i scales them by its omega_max or omega_max / 3.  The
    gammas, B a11^2 ~ Gamma(M) then B a22^2 ~ Gamma(M - 1), come from that
    entry state advanced by ``GAMMA_OFFSET`` draws, once per distinct M.  So
    every configuration gets exactly the draws it would get alone, only its
    gammas depend on M, and one with K users reads the first K*B offsets.
    Only the phasor sums g are kept, each the running sum of the phasors
    (``_unit_phasors``) added one user row at a time.  The bit generator of
    ``rng`` must support ``advance``, as PCG64, the default, does.
    """
    kind = cfgs[0].cfo.kind
    if any(cfg.cfo.kind is not kind for cfg in cfgs):
        raise ValueError("configurations that draw together must share the CFO kind")
    bit_generator = rng.bit_generator
    start = bit_generator.state
    first = outs[0]
    # two calls that consume the stream as one call of 2B would
    rng.standard_normal(out=first.re)
    rng.standard_normal(out=first.im)
    _phasor_sums(cfgs, rng, outs)
    for out in outs[1:]:
        out.re[...] = first.re
        out.im[...] = first.im
    by_m: dict[int, WishartDraws] = {}
    for cfg, out in zip(cfgs, outs):
        drawn = by_m.get(cfg.m_antennas)
        if drawn is None:
            by_m[cfg.m_antennas] = out
            bit_generator.state = start
            bit_generator.advance(GAMMA_OFFSET)
            rng.standard_gamma(cfg.m_antennas, out=out.gamma_m)
            # shape 0 yields exact zeros without consuming the stream
            rng.standard_gamma(cfg.m_antennas - 1, out=out.gamma_m1)
        else:
            out.gamma_m[...] = drawn.gamma_m
            out.gamma_m1[...] = drawn.gamma_m1


def _phasor_sums(cfgs: Sequence[SystemConfig], rng: np.random.Generator, outs) -> None:
    """Draw the unit offsets of ``draw_wishart`` and write each configuration's g.

    Users are drawn and phased ``CHUNK_DRAWS // B`` at a time, carrying the
    running sums, so transient memory does not grow with K and the result is
    bit for bit that of one chunk.  Phasors are formed once per distinct
    scale, for the largest K at that scale.
    """
    trials = outs[0].g.size
    gaussian = cfgs[0].cfo.kind is CfoKind.GAUSSIAN
    # scale -> K -> the g records that take the running sum after K users
    wanted: dict[float, dict[int, list[np.ndarray]]] = {}
    for cfg, out in zip(cfgs, outs):
        scale = cfg.cfo.omega_max / (3.0 if gaussian else 1.0)
        if scale == 0.0 or cfg.k_active == 0:
            # every phasor is exactly 1, so the running sum is exactly K
            out.g[...] = cfg.k_active
        else:
            wanted.setdefault(scale, {}).setdefault(cfg.k_active, []).append(out.g)
    if not wanted:
        return
    users = max(max(targets) for targets in wanted.values())
    sums = {scale: np.zeros(trials, complex) for scale in wanted}
    step = max(1, CHUNK_DRAWS // trials)
    for lo in range(0, users, step):
        rows = min(step, users - lo)
        unit = rng.standard_normal((rows, trials)) if gaussian else rng.uniform(-1.0, 1.0, (rows, trials))
        for scale, targets in wanted.items():
            needed = min(rows, max(targets) - lo)
            if needed <= 0:
                continue
            total = sums[scale]
            for user, phasor in enumerate(_unit_phasors(unit[:needed], scale), start=lo + 1):
                total += phasor
                for g in targets.get(user, ()):
                    g[...] = total


def _unit_circle(points: int) -> np.ndarray:
    """The ``points`` phasors e^{j 2 pi i / points}, each within about half an ulp.

    Only the first octant is evaluated, where the angles carry the least
    rounding; the rest of the circle follows by exact reflections and quarter
    turns.  ``points`` is a multiple of 8.
    """
    eighth = points // 8
    angle = np.arange(eighth + 1) * (2.0 * math.pi / points)
    cos, sin = np.cos(angle), np.sin(angle)
    quarter = np.empty(points // 4, complex)
    quarter[: eighth + 1] = cos + 1j * sin
    # e^{j (pi/2 - a)} = sin(a) + j cos(a)
    quarter[eighth + 1 :] = (sin + 1j * cos)[eighth - 1 : 0 : -1]
    return np.concatenate([quarter, 1j * quarter, -quarter, -1j * quarter])


# e^{j omega} = T[k mod L] e^{j theta}: T is the L-point table of the unit
# circle, h = 2 pi / L, k = rint(omega / h) and |theta| = |omega - k h| <= h / 2
_TABLE_SIZE = 4096
_STEP = 2.0 * math.pi / _TABLE_SIZE
_TABLE = _unit_circle(_TABLE_SIZE)
# the constants below are 0-d arrays, which numpy takes without the
# conversion a Python float costs on every call
_INDEX_MASK = np.array(_TABLE_SIZE - 1)
# adding 1.5 * 2^52 to |t| < 2^51 rounds t to the nearest integer k, and
# leaves k mod L in the low bits of the sum
_ROUNDER = np.array(1.5 * 2.0**52)
# Taylor coefficients of e^{j f h} in powers of the step fraction f = t - k
_ONE, _COS2, _COS4, _SIN1, _SIN3 = map(
    np.array, (1.0, -_STEP**2 / 2, _STEP**4 / 24, _STEP, -_STEP**3 / 6)
)


def _unit_phasors(unit: np.ndarray, scale: float) -> np.ndarray:
    """e^{j omega} for omega = scale * unit, as a new array shaped like ``unit``.

    A table lookup and a short polynomial (Tang 1989): with T, L and h as
    above, t = omega / h, k = rint(t) and theta = (t - k) h,

        e^{j omega} = T[k mod L] (1 - theta^2/2 + theta^4/24 + j theta (1 - theta^2/6)).

    The truncation error is below 2^-58 for |theta| <= pi / 4096, and each
    phasor lies within 2 ulp * max(1, |omega|) of ``np.exp(1j * omega)``.
    The reduction is exact while |t| < 2^51, which ``MAX_EPSILON`` ensures.
    Every step writes in place, and at most five real arrays of ``unit``'s
    size are alive at once, so a block's peak memory stays that of
    ``np.exp(1j * (scale * unit))``.
    """
    t = np.multiply(unit, scale / _STEP)
    k = np.add(t, _ROUNDER)
    index = np.bitwise_and(k.view(np.int64), _INDEX_MASK)
    k -= _ROUNDER
    t -= k  # the step fraction f, exactly
    f2 = np.multiply(t, t, out=k)
    step = np.empty(unit.shape, complex)  # e^{j theta}
    sin, cos = step.imag, step.real
    np.multiply(f2, _SIN3, out=sin)
    sin += _SIN1
    sin *= t
    np.multiply(f2, _COS4, out=t)
    t += _COS2
    t *= f2
    np.add(t, _ONE, out=cos)
    # freed before the table values are gathered, which need two arrays' room
    del t, k, f2
    return np.multiply(_TABLE.take(index), step, out=step)


def bartlett_covariance(draws: WishartDraws, k_active, m_antennas, noise_variance) -> CovarianceBlock:
    """Covariance entries (r1, r2, r12) of the slots in ``draws``.

    With Sigma as in the module docstring, L = chol(Sigma) and
    A = [[a11, 0], [a21, a22]], X = L A gives M R = X X^H (Goodman 1963).
    The system parameters are scalars or arrays with one value per slot.
    The block passes ``check_entries`` before it is returned.
    """
    a11 = np.sqrt(draws.gamma_m)
    a22 = np.sqrt(draws.gamma_m1)
    a21 = (draws.re + 1j * draws.im) / _SQRT2
    power = k_active + noise_variance
    # Cholesky factor of Sigma: l11 = sqrt(P), l21 = g / l11, l22^2 = (P^2 - |g|^2) / P;
    # the factored form of l22^2 cannot overflow, and roundoff in |g| <= K
    # may not push it below zero
    l11 = np.sqrt(power)
    magnitude = np.abs(draws.g)
    l22 = np.sqrt(np.maximum((1.0 - magnitude / power) * (power + magnitude), 0.0))
    x11 = l11 * a11
    x21 = (draws.g / l11) * a11 + l22 * a21
    x22 = l22 * a22
    block = CovarianceBlock(
        r1=x11 * x11 / m_antennas,
        r2=(x21.real**2 + x21.imag**2 + x22 * x22) / m_antennas,
        r12=x11 * np.conj(x21) / m_antennas,
    )
    check_entries(*block)
    return block

