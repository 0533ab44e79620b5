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
simulation runs it in two halves: ``draw_wishart`` once over the seeded
blocks of a pass for all the configurations of the pass, and
``bartlett_covariance`` once over the whole record it fills.  The phasors
e^{j omega_n} come from a table of the unit circle and a short Taylor step
(``_unit_phasors``), within a few ulps of ``np.exp``.  Y itself is
synthesised only by the direct model of the test oracles
(``tests/oracles.py``), which the tests check this sampler's law against.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .covariance import CovarianceBlock, check_entries

_SQRT2 = math.sqrt(2.0)

# unit offsets drawn and phased at a time per block; bounds the transient
# memory of a block without changing a bit of its draws
CHUNK_DRAWS = 2**16

# most unit offsets (largest K x slots) that consecutive blocks phase
# together: here the kernel's complex temporaries stay at 128 KiB, and a
# little past it the allocator maps each afresh on every call, whose page
# faults cost more than phasing the blocks one by one
GROUP_DRAWS = 2**13

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

# largest array size accepted: M and M - 1 stay exact as doubles, and
# (K + sigma_z^2) Gamma(M) stays finite under MAX_NOISE_VARIANCE
MAX_ANTENNAS = 2**53


def as_int(name: str, value: object) -> int:
    """``value`` as a Python int, for a Python or numpy integer; ``ValueError`` for anything else."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _require_real(name: str, value: object) -> None:
    """``ValueError`` unless ``value`` is a real number, such as a Python or numpy float."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


class CfoKind(enum.Enum):
    """Distribution family of the per-user normalized frequency offset."""

    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class CfoModel:
    """CFO distribution with worst-case normalized offset ``epsilon_max``: the one home of the offset law.

    ``UNIFORM`` draws omega uniformly on [-2*pi*epsilon_max, 2*pi*epsilon_max].
    ``GAUSSIAN`` draws omega from N(0, (2*pi*epsilon_max / 3)^2), untruncated,
    so the nominal worst case sits at three standard deviations.
    ``epsilon_max = 0`` pins every offset to zero under either kind, and
    values above ``MAX_EPSILON`` are rejected.  ``kind`` may be given by its
    CLI spelling and is stored as the ``CfoKind`` member.  The sampler scales
    its unit draws by ``draw_scale`` and eig-diff reads ``alpha``: one law.
    """

    kind: CfoKind
    epsilon_max: float = 0.0

    def __post_init__(self) -> None:
        # every reader tests the member by identity, so a spelling must not survive
        object.__setattr__(self, "kind", CfoKind(self.kind))
        _require_real("epsilon_max", self.epsilon_max)
        if not 0.0 <= self.epsilon_max <= MAX_EPSILON:
            raise ValueError(f"epsilon_max must lie in [0, {MAX_EPSILON:g}], got {self.epsilon_max}")

    @property
    def omega_max(self) -> float:
        """Worst-case offset in radians per symbol, 2*pi*epsilon_max."""
        return 2.0 * math.pi * self.epsilon_max

    @property
    def draw_scale(self) -> float:
        """omega per unit draw: omega_max for uniform U(-1, 1), omega_max / 3 for Gaussian N(0, 1)."""
        return self.omega_max / 3.0 if self.kind is CfoKind.GAUSSIAN else self.omega_max

    @functools.cached_property
    def alpha(self) -> float:
        """E[e^{j omega}]: 1 if epsilon_max = 0, else sin(a)/a for U(-a, a), exp(-s^2/2) for N(0, s^2)."""
        if self.epsilon_max == 0.0:
            return 1.0
        if self.kind is CfoKind.UNIFORM:
            return math.sin(self.omega_max) / self.omega_max
        return math.exp(-0.5 * self.draw_scale * self.draw_scale)

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
        for name in ("n_potential", "k_active", "m_antennas"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        if self.n_potential < 1:
            raise ValueError(f"n_potential must be >= 1, got {self.n_potential}")
        if not 0 <= self.k_active <= self.n_potential:
            raise ValueError(
                f"k_active must lie in [0, n_potential={self.n_potential}], got {self.k_active}"
            )
        if not 1 <= self.m_antennas <= MAX_ANTENNAS:
            raise ValueError(f"m_antennas must lie in [1, MAX_ANTENNAS = 2**53], got {self.m_antennas}")
        _require_real("noise_variance", self.noise_variance)
        if not 0.0 < self.noise_variance <= MAX_NOISE_VARIANCE:
            raise ValueError(
                f"noise_variance must lie in (0, {MAX_NOISE_VARIANCE:g}], got {self.noise_variance}"
            )
        if not isinstance(self.cfo, CfoModel):
            raise ValueError(f"cfo must be a CfoModel, got {self.cfo!r}")


class WishartDraws(NamedTuple):
    """Random inputs of the Bartlett sampler for P configurations over T slots.

    ``re`` and ``im``, of shape (T,), are the real and imaginary normals
    behind a21, shared by every configuration.  ``g``, the phasor sum of the
    slot's K offsets, and ``gamma_m`` and ``gamma_m1``, a11^2 ~ Gamma(M) and
    a22^2 ~ Gamma(M - 1), have shape (P, T), row i for configuration i.
    """

    g: np.ndarray
    gamma_m: np.ndarray
    gamma_m1: np.ndarray
    re: np.ndarray
    im: np.ndarray

    @classmethod
    def empty(cls, points: int, trials: int) -> "WishartDraws":
        shape = (points, trials)
        return cls(np.empty(shape, complex), *map(np.empty, (shape, shape, trials, trials)))


def draw_wishart(
    cfgs: Sequence[SystemConfig], rngs: Sequence[np.random.Generator], out: WishartDraws, block: int
) -> None:
    """Fill row i of ``out`` with the random inputs of ``cfgs[i]``, from the streams of consecutive blocks.

    ``rngs[j]`` is the stream of block j, which holds slots ``j*block`` up
    to ``(j+1)*block`` of ``out``, the last block what remains.  The
    configurations share the CFO kind; K, M, epsilon and the noise may
    differ.  Draw order is fixed, for a block of B slots.  From its
    generator's state at entry come the 2B normals behind a21 (the real
    parts, then the imaginary parts), drawn once for all rows, and then the
    unit offsets, user-major: B for user 0, then B for user 1, up to the
    largest K.  They are u ~ U(-1, 1) for uniform CFO and z ~ N(0, 1) for
    Gaussian CFO, and configuration i scales them by its
    ``cfo.draw_scale``.  The gammas, B a11^2 ~ Gamma(M) then B a22^2 ~
    Gamma(M - 1), come from that entry state advanced by ``GAMMA_OFFSET``
    draws, once per distinct M, into the first row of that M, which the
    other rows of that M copy.  So every configuration gets exactly the
    draws it would get alone, only its gammas depend on M, and one with K
    users reads the first K*B offsets of each block.

    Each block only draws, into its columns; the arithmetic on the offsets
    runs once per group of consecutive whole blocks that hold at most
    ``GROUP_DRAWS`` offsets (largest K times slots) between them, so that
    blocks of few users share its numpy calls: blocks of 256 slots group at
    K <= 16 and are phased one by one above (``_phasor_sums``).  Only the
    phasor sums g are kept.
    Each is the sum of its K phasors (``_unit_phasors``) in exactly one
    order, on which the bytes depend: from +0, one user row after another in
    user order.  The bit generators must support ``advance``, as PCG64, the
    default, does.
    """
    kind = cfgs[0].cfo.kind
    if any(cfg.cfo.kind is not kind for cfg in cfgs):
        raise ValueError("configurations that draw together must share the CFO kind")
    gaussian = kind is CfoKind.GAUSSIAN
    # scale -> K -> the rows of g that take the sum of the first K users
    wanted: dict[float, dict[int, list[int]]] = {}
    # M -> the rows that take the gammas of that M
    rows_of: dict[int, list[int]] = {}
    for row, cfg in enumerate(cfgs):
        scale = cfg.cfo.draw_scale
        if scale == 0.0 or cfg.k_active == 0:
            # every phasor is exactly 1, so the running sum is exactly K
            out.g[row] = cfg.k_active
        else:
            wanted.setdefault(scale, {}).setdefault(cfg.k_active, []).append(row)
        rows_of.setdefault(cfg.m_antennas, []).append(row)
    users = max((max(targets) for targets in wanted.values()), default=0)
    trials = out.re.shape[-1]
    if len(rngs) != -(-trials // block):
        raise ValueError(f"{len(rngs)} generators for {trials} slots in blocks of {block}")
    spans = [(rng, lo, min(lo + block, trials)) for rng, lo in zip(rngs, range(0, trials, block))]
    # runs of whole blocks whose offsets, together, stay within GROUP_DRAWS
    per_group = max(1, GROUP_DRAWS // (max(users, 1) * block))
    groups = [spans[first : first + per_group] for first in range(0, len(spans), per_group)]
    for group in groups:
        starts = []
        for rng, lo, hi in group:
            starts.append(rng.bit_generator.state)
            # two calls that consume the stream as one call of 2B would
            rng.standard_normal(out=out.re[lo:hi])
            rng.standard_normal(out=out.im[lo:hi])
        if users:
            _phasor_sums(wanted, users, gaussian, group, out.g)
        for (rng, lo, hi), start in zip(group, starts):
            for m_antennas, (row, *_) in rows_of.items():
                rng.bit_generator.state = start
                rng.bit_generator.advance(GAMMA_OFFSET)
                rng.standard_gamma(m_antennas, out=out.gamma_m[row, lo:hi])
                # shape 0 yields exact zeros without consuming the stream
                rng.standard_gamma(m_antennas - 1, out=out.gamma_m1[row, lo:hi])
    for row, *rest in rows_of.values():
        if rest:
            out.gamma_m[_rows(rest)] = out.gamma_m[row]
            out.gamma_m1[_rows(rest)] = out.gamma_m1[row]


def _rows(rows: list[int]) -> list[int] | slice:
    """Increasing ``rows`` as a slice when they are consecutive, which numpy
    assigns to without an index array, else as they are."""
    return slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else rows


def _phasor_sums(
    wanted: dict[float, dict[int, list[int]]],
    users: int,
    gaussian: bool,
    group: Sequence[tuple[np.random.Generator, int, int]],
    g: np.ndarray,
) -> None:
    """Draw the first ``users`` unit offsets of each block of ``group``; write the rows ``wanted`` names.

    ``group`` lists (generator, first slot, end slot) of consecutive blocks
    whose normals are drawn; ``wanted`` maps a scale and a K to the rows of
    ``g`` that take the sum of the first K phasors at that scale.  Each block
    only draws its offsets, into its own (users, slots) part of one buffer;
    the arithmetic then runs once over the buffer: the 2u - 1 of uniform
    offsets, one ``_unit_phasors`` call per scale, and the sums, over the
    full blocks as one (blocks, users, slots) array and over a short last
    block as a part of its own.

    The sum at one scale adds the phasor rows from +0 in user order, as a
    loop of ``total += row`` would, but pays per target K, not per user:
    each run of rows up to the next target K is one reduction over the user
    axis, which adds the rows one after another, after the running total has
    been added into the run's first row.  So every addition is one the loop
    makes, in its order, and the bits are the loop's.  (In a block of one
    slot, numpy adds a run of rows pairwise instead, as that block would
    alone.)  A group of several blocks holds at most ``GROUP_DRAWS`` offsets;
    one block with more than ``CHUNK_DRAWS`` is drawn and phased in chunks of
    users, carrying the total, so that transient memory does not grow with K
    and the result is bit for bit that of one chunk.

    Phasors are formed once per distinct scale, for every user drawn, and
    all rows that share (scale, K) take their sum in one assignment.  A
    phasor's bits depend on its offset alone, so grouping moves none.
    """
    lo, hi = group[0][1], group[-1][2]
    slots = hi - lo
    width = group[0][2] - lo
    # only the last block of a group can be short
    full = len(group) - (group[-1][2] - group[-1][1] != width)
    # (first slot, blocks, slots per block) of each part of equal blocks
    parts = [(0, full, width)]
    if full < len(group):
        parts.append((full * width, 1, hi - group[-1][1]))
    # a +0 start, so that even the sign of a zero is that of adding row by row
    sums = {scale: np.zeros(slots, complex) for scale in wanted}
    step = max(1, CHUNK_DRAWS // slots)
    for first_user in range(0, users, step):
        rows = min(step, users - first_user)
        unit = np.empty(rows * slots)
        for rng, start, end in group:
            drawn = unit[rows * (start - lo) : rows * (end - lo)].reshape(rows, end - start)
            if gaussian:
                rng.standard_normal(out=drawn)
            else:
                rng.random(out=drawn)
        if not gaussian:
            # uniform(-1, 1) computes -1 + 2u from the same draws; 2u - 1 is that exactly
            unit *= 2.0
            unit -= 1.0
        for scale, targets in wanted.items():
            needed = min(rows, max(targets) - first_user)
            if needed <= 0:
                continue
            phasors = _unit_phasors(unit, scale)
            total = sums[scale]
            views = [
                (
                    phasors[rows * at : rows * (at + count * size)].reshape(count, rows, size),
                    total[at : at + count * size].reshape(count, size),
                )
                for at, count, size in parts
            ]
            begin = 0
            ends = sorted(k - first_user for k in targets if first_user < k < first_user + needed)
            for end in (*ends, needed):
                for view, part_total in views:
                    view[:, begin] += part_total
                    np.add.reduce(view[:, begin:end], axis=1, out=part_total)
                if first_user + end in targets:
                    g[_rows(targets[first_user + end]), lo:hi] = total
                begin = end


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
    Every step but a one-element product writes in place, and at most five
    real arrays of ``unit``'s size are alive at once, so a block's peak
    memory stays that of ``np.exp(1j * (scale * unit))``.  A phasor's bits
    depend on its offset alone, whatever the size of ``unit``.
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
    # in place, numpy multiplies one complex element without its vector loop's fused multiply-add
    return np.multiply(_TABLE.take(index), step, out=step if step.size > 1 else None)


def bartlett_covariance(draws: WishartDraws, k_active, m_antennas, noise_variance) -> CovarianceBlock:
    """Covariance entries (r1, r2, r12) of the slots in ``draws``.

    With Sigma as in the module docstring, L = chol(Sigma) and
    A = [[a11, 0], [a21, a22]], X = L A gives M R = X X^H (Goodman 1963).
    The system parameters are scalars or (points, 1) columns.  In ``draws``,
    g and the gammas have shape (points, slots), and re and im have shape
    (slots,), shared by every point.
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

