"""Tests for the counting schemes, their statistics, and the operation counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auesim.covariance import CovarianceBlock, check_entries
from auesim.estimators import (
    ALPHA_MIN,
    EstimatorDomainError,
    Scheme,
    _clamped_counts,
    check_domain,
    estimate_counts,
    multiplication_count,
    statistics,
)
from auesim.harness import MAX_POPULATION

from oracles import eigenvalues, sample_covariance

# side information of the reference point: noise variance, alpha of uniform eps 0.15, population
NOISE, ALPHA, N = 0.1, 0.8583936913341694, 100


def raw_statistic(scheme, cov, noise_variance=NOISE, alpha=ALPHA):
    """Statistic of one scheme: its row of ``statistics``."""
    return statistics((scheme,), cov, noise_variance, alpha)[0]


def estimate(scheme, cov, noise_variance=NOISE, alpha=ALPHA, n_potential=N):
    """Count of one scheme on one covariance: the one entry of ``estimate_counts``."""
    return estimate_counts((scheme,), cov, noise_variance, alpha, n_potential)[0]


def random_cov(rng, m=8):
    return sample_covariance(rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m)))


def one_cov(r1, r2, r12):
    """Hand-written entries of one covariance, after ``check_entries`` passes them."""
    check_entries(r1, r2, r12)
    return CovarianceBlock(r1, r2, r12)


def cov_with_cross(real_cross, diag=10.0):
    return one_cov(diag, diag, complex(real_cross, 0.0))


class TestStatistics:
    """The simplified statistics must agree with their defining expressions."""

    def quadratic_form(self, cov, vector):
        matrix = np.array([[cov.r1, cov.r12], [np.conj(cov.r12), cov.r2]])
        return float(np.real(vector.conj() @ matrix @ vector))

    def test_orthogonal_equals_pilot_projection_difference(self):
        """Re(r12) is the quarter difference of the common and orthogonal pilot powers."""
        rng = np.random.default_rng(41)
        common = np.array([1.0, 1.0])
        ortho = np.array([1.0, -1.0])
        for _ in range(300):
            cov = random_cov(rng)
            literal = (self.quadratic_form(cov, common) - self.quadratic_form(cov, ortho)) / 4.0
            assert raw_statistic(Scheme.ORTHOGONAL, cov) == pytest.approx(literal, rel=1e-12, abs=1e-14)

    def test_mle_equals_common_pilot_form(self):
        rng = np.random.default_rng(42)
        common = np.array([1.0, 1.0])
        for _ in range(300):
            cov = random_cov(rng)
            literal = self.quadratic_form(cov, common) / 4.0 - NOISE / 2.0
            assert raw_statistic(Scheme.MLE, cov) == pytest.approx(literal, rel=1e-12, abs=1e-14)

    def test_eig_sum_equals_eigenvalue_mean(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            cov = random_cov(rng)
            lambda_max, lambda_min = eigenvalues(cov)
            literal = 0.5 * (lambda_max + lambda_min) - NOISE
            assert raw_statistic(Scheme.EIG_SUM, cov) == pytest.approx(literal, rel=1e-12, abs=1e-14)

    def test_eig_diff_equals_eigenvalue_spread(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            cov = random_cov(rng)
            lambda_max, lambda_min = eigenvalues(cov)
            literal = (lambda_max - lambda_min) / (2.0 * ALPHA)
            assert raw_statistic(Scheme.EIG_DIFF, cov) == pytest.approx(literal, rel=1e-12, abs=1e-14)

    def test_statistic_dispatch(self):
        """Each row of ``estimate_counts`` rounds the statistic of its own scheme,
        whatever the order the schemes are asked in."""
        rng = np.random.default_rng(45)
        covs = [random_cov(rng) for _ in range(50)]
        # scaled so the four schemes give distinct counts
        r1, r2, r12 = zip(*((c.r1, c.r2, c.r12) for c in covs))
        block = CovarianceBlock(8.0 * np.array(r1), 8.0 * np.array(r2), 8.0 * np.array(r12))
        for schemes in (tuple(Scheme), tuple(reversed(Scheme))):
            counts = estimate_counts(schemes, block, NOISE, ALPHA, N)
            for row, scheme in zip(counts, schemes):
                raw = raw_statistic(scheme, block)
                assert list(row) == [_round_half_away_clamped(x, N) for x in raw]

    def test_side_information_each_scheme_reads(self):
        """The paper's split: eig-diff works without the noise variance and
        orthogonal without either; their rows do not move, bit for bit, when
        the side information they do not read changes."""
        rng = np.random.default_rng(49)
        covs = [random_cov(rng) for _ in range(100)]
        r1, r2, r12 = (np.array(column) for column in zip(*((c.r1, c.r2, c.r12) for c in covs)))
        block = CovarianceBlock(r1, r2, r12)
        schemes = (Scheme.EIG_DIFF, Scheme.ORTHOGONAL)
        rows = [statistics(schemes, block, noise, alpha).tobytes()
                for noise in (0.0, 0.1, 1e3) for alpha in (ALPHA, 0.5)]
        eig_diff = [statistics(schemes[:1], block, noise, ALPHA).tobytes() for noise in (0.0, 0.1, 1e3)]
        orthogonal = [statistics(schemes[1:], block, noise, alpha).tobytes()
                      for noise in (0.0, 0.1, 1e3) for alpha in (ALPHA, 0.5, -1.0)]
        assert len(set(eig_diff)) == 1
        assert len(set(orthogonal)) == 1
        # the guard above would pass on rows that ignore every input; alpha does move eig-diff
        assert len(set(rows)) == 2

    def test_rejects_a_non_scheme(self):
        with pytest.raises(ValueError, match="not a Scheme"):
            statistics(("eig-sum",), cov_with_cross(1.0), NOISE, ALPHA)


class TestRoundingAndClamping:
    def test_ties_round_away_from_zero(self):
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(0.5)) == 1
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(2.5)) == 3
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(3.5)) == 4

    def test_plain_rounding(self):
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(2.4)) == 2
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(2.6)) == 3

    def test_negative_values_clamp_to_zero(self):
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(-0.5), noise_variance=1.0) == 0
        # eig-sum statistic is (0.1 + 0.1)/2 - 1.0 < 0
        assert estimate(Scheme.EIG_SUM, one_cov(r1=0.1, r2=0.1, r12=0j), noise_variance=1.0) == 0

    def test_large_values_clamp_to_population(self):
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(7.6), n_potential=5) == 5
        assert estimate(Scheme.EIG_SUM, one_cov(r1=30.0, r2=30.0, r12=0j), n_potential=5) == 5

    def test_integer_outputs(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            cov = random_cov(rng)
            counts = estimate_counts(tuple(Scheme), cov, NOISE, ALPHA, N)
            assert counts.dtype == np.int64
            assert np.all((0 <= counts) & (counts <= N))

    def test_estimate_matches_rounded_statistic(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            cov = random_cov(rng)
            for scheme in Scheme:
                raw = raw_statistic(scheme, cov)
                expected = min(max(int(math.floor(raw + 0.5)) if raw >= 0 else int(math.ceil(raw - 0.5)), 0), 100)
                assert estimate(scheme, cov) == expected


def _round_half_away_clamped(raw, n):
    rounded = math.floor(raw + 0.5) if raw >= 0 else math.ceil(raw - 0.5)
    return min(max(rounded, 0), n)


class TestEstimateArray:
    """The batched path, ``estimate_counts``, must equal scalar ``estimate`` element by element."""

    SIDE = dict(noise_variance=0.25, alpha=0.5)
    N = 10
    # (r1, r2, r12) chosen so each scheme lands on exact +-x.5 ties, negative
    # statistics and values above n_potential = 10; all are binary fractions
    EDGES = [
        (3.0, 3.0, 2.5 + 0j),  # orthogonal 2.5
        (3.0, 3.0, -2.5 + 0j),  # orthogonal -2.5
        (3.0, 3.0, 0.5 - 1j),  # orthogonal 0.5
        (3.0, 3.0, -0.5 + 1j),  # orthogonal -0.5
        (3.0, 3.0, 0.25 + 0j),  # mle 1.5
        (4.5, 4.5, 2.25 + 0j),  # mle 3.25, eig-diff 4.5
        (0.75, 0.75, 0j),  # eig-sum 0.5
        (2.75, 2.75, 0j),  # eig-sum 2.5
        (0.125, 0.125, 0j),  # eig-sum -0.125, mle -0.0625
        (1.0, 1.0, -1.0 + 0j),  # mle -0.125
        (3.75, 1.25, 0j),  # eig-diff 2.5
        (40.0, 30.0, 20.0 + 10j),  # every scheme above n_potential
        (1e6, 2e6, 1e5 - 3e5j),  # every scheme far above n_potential
    ]

    def block(self):
        rng = np.random.default_rng(48)
        r1, r2, r12 = (np.array(column) for column in zip(*self.EDGES))
        check_entries(r1, r2, r12)
        random = [random_cov(rng) for _ in range(200)]
        scale = 8.0  # spreads the random statistics across [0, n_potential] and beyond
        r1 = np.concatenate([r1, scale * np.array([c.r1 for c in random])])
        r2 = np.concatenate([r2, scale * np.array([c.r2 for c in random])])
        r12 = np.concatenate([r12, scale * np.array([c.r12 for c in random])])
        return CovarianceBlock(r1=r1, r2=r2, r12=r12)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_matches_scalar_estimate(self, scheme):
        cov = self.block()
        batch = estimate_counts((scheme,), cov, **self.SIDE, n_potential=self.N)[0]
        assert batch.dtype == np.int64
        assert batch.shape == cov.r1.shape
        for i, (r1, r2, r12) in enumerate(zip(*cov)):
            one = CovarianceBlock(float(r1), float(r2), complex(r12))
            expected = _round_half_away_clamped(raw_statistic(scheme, one, **self.SIDE), 10)
            assert estimate(scheme, one, **self.SIDE, n_potential=self.N) == expected
            assert batch[i] == expected, f"element {i}: {(r1, r2, r12)}"

    def test_counts_with_per_covariance_context(self):
        """All schemes at once, with noise and alpha given per covariance, equal
        scalar ``estimate`` under each covariance's own noise and alpha."""
        cov = self.block()
        odd = np.arange(cov.r1.size) % 2 == 1
        noise = np.where(odd, 1.5, 0.25)
        alpha = np.where(odd, 0.9, 0.5)
        schemes = (Scheme.MLE, Scheme.EIG_DIFF, Scheme.EIG_SUM, Scheme.ORTHOGONAL)
        counts = estimate_counts(schemes, cov, noise, alpha, n_potential=10)
        assert counts.dtype == np.int64
        assert counts.shape == (len(schemes),) + cov.r1.shape
        for i, (r1, r2, r12) in enumerate(zip(*cov)):
            one = CovarianceBlock(float(r1), float(r2), complex(r12))
            side = dict(noise_variance=float(noise[i]), alpha=float(alpha[i]), n_potential=10)
            assert [estimate(scheme, one, **side) for scheme in schemes] == list(counts[:, i])

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_edges_cover_ties_negatives_and_clamp(self, scheme):
        """Guard the test data itself: each scheme meets the cases it should."""
        raw = np.array([raw_statistic(scheme, one_cov(*edge), **self.SIDE) for edge in self.EDGES])
        assert np.any((raw % 1.0 == 0.5) & (raw > 0.0))
        assert np.any(raw > self.N)
        # the eig-diff statistic is a square root, never negative
        assert np.any(raw < 0.0) == (scheme is not Scheme.EIG_DIFF)

    def test_eig_diff_domain_error_from_batch(self):
        cov = self.block()
        for alpha in (ALPHA_MIN, ALPHA_MIN / 2, 0.0, -0.5):
            with pytest.raises(EstimatorDomainError):
                estimate_counts((Scheme.EIG_DIFF,), cov, 0.1, alpha, 100)
            # one covariance below the limit is enough
            per_cov = np.full(cov.r1.shape, 0.5)
            per_cov[-1] = alpha
            with pytest.raises(EstimatorDomainError):
                estimate_counts((Scheme.ORTHOGONAL, Scheme.EIG_DIFF), cov, 0.1, per_cov, 100)

    def test_rejects_nan_statistic(self):
        cov = CovarianceBlock(r1=np.array([1.0, np.nan]), r2=np.ones(2), r12=np.zeros(2, complex))
        with pytest.raises(ValueError):
            estimate_counts((Scheme.EIG_SUM,), cov, **self.SIDE, n_potential=self.N)


class TestEigDiffGuard:
    def test_rejects_alpha_at_or_below_limit(self):
        cov = cov_with_cross(1.0)
        for alpha in (ALPHA_MIN, ALPHA_MIN / 2, 0.0, -0.5):
            with pytest.raises(EstimatorDomainError):
                estimate(Scheme.EIG_DIFF, cov, alpha=alpha)

    def test_accepts_alpha_above_limit(self):
        assert estimate(Scheme.EIG_DIFF, cov_with_cross(0.001), alpha=2 * ALPHA_MIN) >= 0

    @pytest.mark.parametrize(
        "form", [float, np.float64, lambda a: np.array([a])], ids=["float", "float64", "array"]
    )
    def test_bound_is_exclusive_for_every_alpha_form(self, form):
        """A scalar alpha is compared directly and an array by its minimum: the
        limit itself is refused and the next float up is accepted either way."""
        with pytest.raises(EstimatorDomainError):
            check_domain((Scheme.EIG_DIFF,), form(ALPHA_MIN))
        check_domain((Scheme.EIG_DIFF,), form(np.nextafter(ALPHA_MIN, 1.0)))

    def test_domain_error_is_value_error(self):
        assert issubclass(EstimatorDomainError, ValueError)

    def test_other_schemes_ignore_alpha(self):
        cov = cov_with_cross(3.0)
        assert estimate(Scheme.ORTHOGONAL, cov, alpha=0.0) == 3
        assert estimate(Scheme.EIG_SUM, cov, alpha=0.0) >= 0
        assert estimate(Scheme.MLE, cov, alpha=0.0) >= 0


class TestMultiplicationCount:
    @pytest.mark.parametrize(
        "scheme,expected",
        [
            (Scheme.EIG_SUM, {1: 5, 32: 67, 128: 259}),
            (Scheme.EIG_DIFF, {1: 10, 32: 103, 128: 391}),
            (Scheme.ORTHOGONAL, {1: 2, 32: 33, 128: 129}),
            (Scheme.MLE, {1: 8, 32: 101, 128: 389}),
        ],
    )
    def test_frozen_counts(self, scheme, expected):
        for m, count in expected.items():
            assert multiplication_count(scheme, m) == count

    @pytest.mark.parametrize("m", [1, 2, 8, 32, 128, 1024])
    def test_cost_ordering(self, m):
        """Orthogonal is cheapest, eig-diff dearest, at every array size."""
        assert (
            multiplication_count(Scheme.ORTHOGONAL, m)
            < multiplication_count(Scheme.EIG_SUM, m)
            < multiplication_count(Scheme.MLE, m)
            < multiplication_count(Scheme.EIG_DIFF, m)
        )

    @pytest.mark.parametrize("m", [0, 2.5, math.inf, math.nan])
    def test_rejects_bad_antenna_count(self, m):
        """M is a count of at least 1: a fraction, inf or NaN raises, as zero does."""
        with pytest.raises(ValueError, match="m_antennas must be"):
            multiplication_count(Scheme.EIG_SUM, m)

    def test_rejects_scheme_name(self):
        """A scheme spelled as its string raises ``ValueError``, as ``statistics`` does."""
        with pytest.raises(ValueError, match="not a Scheme"):
            multiplication_count("mle", 32)


def clamped_counts_oracle(values, n_potential):
    """The rounding ``estimators._clamped_counts`` made with trunc, sign and an
    absolute step, eleven numpy calls, kept as the reference for the counts."""
    if np.isnan(values).any():
        raise ValueError("statistic is NaN; cannot round it to a count")
    whole = np.trunc(values)
    step = np.abs(values - whole)
    up = step >= 0.5
    np.sign(values, out=step)
    step *= up
    whole += step
    return np.clip(whole, 0, n_potential, out=whole).astype(np.int64)


def _counts_outcome(clamp, values, n_potential):
    """The counts, or the message of the ``ValueError`` raised instead."""
    try:
        # inf - inf in the step fraction is part of the inputs, on both sides alike
        with np.errstate(invalid="ignore"):
            return clamp(values, n_potential)
    except ValueError as exc:
        return str(exc)


_POPULATIONS = [1, 4, 100, MAX_POPULATION]


@st.composite
def _statistics(draw):
    """An array of statistics for a population N: ties, values one ulp off a
    tie or a whole number, signed zeros, 2^52 +- 0.5, infinities and the clamp
    edges 0 and N, besides any float."""
    n = draw(st.sampled_from(_POPULATIONS))
    edges = [0.5, -0.5, 0.49999999999999994, -0.49999999999999994, 1.5, -1.5, 2.5, 0.0, -0.0,
             2.0**52 - 0.5, 2.0**52 + 0.5, 2.0**52, 2.0**53 + 1, math.inf, -math.inf,
             n, n - 0.5, n + 0.5, n - 0.49999999999999994, n + 1.0, -1.0]
    value = st.one_of(
        st.sampled_from(edges),
        st.integers(-4 * n, 4 * n).map(lambda half: half / 2),
        st.tuples(st.integers(-4 * n, 4 * n), st.sampled_from([-math.inf, math.inf])).map(
            lambda near: float(np.nextafter(near[0] / 2, near[1]))
        ),
        st.floats(allow_nan=False),
    )
    shape = draw(st.sampled_from([(1,), (7,), (2, 3), (4, 2, 5)]))
    values = draw(st.lists(value, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=float).reshape(shape), n


class TestClampedCountsAgainstOracle:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_statistics())
    def test_same_counts(self, case):
        values, n = case
        with np.errstate(invalid="ignore"):
            counts = _clamped_counts(values.copy(), n)
            expected = clamped_counts_oracle(values.copy(), n)
        assert counts.dtype == np.int64
        assert counts.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", _POPULATIONS)
    def test_nan_still_raises(self, n):
        for values in (np.array([math.nan]), np.array([1.5, math.nan, -math.inf]), np.array([[0.5], [math.nan]])):
            outcome = _counts_outcome(_clamped_counts, values.copy(), n)
            assert outcome == _counts_outcome(clamped_counts_oracle, values.copy(), n)
            assert outcome == "statistic is NaN; cannot round it to a count"

    def test_edges(self):
        values = np.array([0.5, -0.5, 0.49999999999999994, -0.0, 2.0**52 - 0.5, 2.0**52 + 0.5, math.inf,
                           -math.inf, 3.5, 4.5, 4.49999999999999994, -2.5])
        with np.errstate(invalid="ignore"):
            assert _clamped_counts(values, 4).tolist() == [1, 0, 0, 0, 4, 4, 4, 0, 4, 4, 4, 0]
            assert _clamped_counts(values, 4).tolist() == clamped_counts_oracle(values, 4).tolist()
