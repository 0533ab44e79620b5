"""Tests for the counting schemes, their statistics, and the operation counts."""

import math

import numpy as np
import pytest
from scipy import integrate

from auesim.covariance import CovarianceBlock
from auesim.estimators import (
    ALPHA_MIN,
    EstimatorContext,
    EstimatorDomainError,
    Scheme,
    characteristic_function,
    eig_diff_statistic,
    eig_sum_statistic,
    estimate_counts,
    mle_statistic,
    multiplication_count,
    orthogonal_statistic,
)
from auesim.model import CfoModel
from auesim.reference import ReceivedPilot, SampleCovariance, eigenvalues, sample_covariance

CTX = EstimatorContext(noise_variance=0.1, alpha=0.8583936913341694, n_potential=100)

# the statistic behind each scheme, as the paper defines it
STATISTIC = {
    Scheme.EIG_SUM: eig_sum_statistic,
    Scheme.EIG_DIFF: eig_diff_statistic,
    Scheme.ORTHOGONAL: orthogonal_statistic,
    Scheme.MLE: mle_statistic,
}


def estimate(scheme, cov, ctx):
    """Count of one scheme on one covariance: the one entry of ``estimate_counts``."""
    return estimate_counts((scheme,), cov, ctx)[0]


def random_cov(rng, m=8):
    samples = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    return sample_covariance(ReceivedPilot(samples=samples))


def cov_with_cross(real_cross, diag=10.0):
    return SampleCovariance(r1=diag, r2=diag, r12=complex(real_cross, 0.0))


class TestCharacteristicFunction:
    def test_uniform_frozen_value(self):
        assert characteristic_function(CfoModel.uniform(0.15)) == pytest.approx(
            0.858393691334, rel=1e-11
        )

    def test_gaussian_frozen_value(self):
        assert characteristic_function(CfoModel.gaussian(0.15)) == pytest.approx(
            0.951849807369, rel=1e-11
        )

    def test_no_offset_gives_one(self):
        assert characteristic_function(CfoModel.uniform(0.0)) == 1.0
        assert characteristic_function(CfoModel.gaussian(0.0)) == 1.0

    @pytest.mark.parametrize("eps", [0.05, 0.15, 0.3])
    def test_uniform_matches_quadrature(self, eps):
        """Closed form against direct numerical integration of E[cos(omega)]."""
        a = 2.0 * math.pi * eps
        expected, _ = integrate.quad(lambda w: math.cos(w) / (2.0 * a), -a, a)
        assert characteristic_function(CfoModel.uniform(eps)) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("eps", [0.05, 0.15, 0.3])
    def test_gaussian_matches_quadrature(self, eps):
        std = 2.0 * math.pi * eps / 3.0
        density = lambda w: math.exp(-0.5 * (w / std) ** 2) / (std * math.sqrt(2.0 * math.pi))
        expected, _ = integrate.quad(lambda w: math.cos(w) * density(w), -10 * std, 10 * std)
        assert characteristic_function(CfoModel.gaussian(eps)) == pytest.approx(expected, rel=1e-10)

    def test_decreases_with_spread(self):
        values = [characteristic_function(CfoModel.uniform(e)) for e in (0.0, 0.1, 0.2, 0.3, 0.4)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestEstimatorContext:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(noise_variance=-0.1),
            dict(noise_variance=math.nan),
            dict(alpha=1.5),
            dict(alpha=-1.5),
            dict(n_potential=0),
            dict(noise_variance=np.array([0.1, -0.1])),
            dict(noise_variance=np.array([0.1, math.inf])),
            dict(alpha=np.array([0.5, 1.5])),
            dict(alpha=np.array([0.5, math.nan])),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        fields = dict(noise_variance=0.1, alpha=0.9, n_potential=100)
        fields.update(kwargs)
        with pytest.raises(ValueError):
            EstimatorContext(**fields)


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
            assert orthogonal_statistic(cov, CTX) == pytest.approx(literal, rel=1e-12, abs=1e-14)

    def test_mle_equals_common_pilot_form(self):
        rng = np.random.default_rng(42)
        common = np.array([1.0, 1.0])
        for _ in range(300):
            cov = random_cov(rng)
            literal = self.quadratic_form(cov, common) / 4.0 - CTX.noise_variance / 2.0
            assert mle_statistic(cov, CTX) == pytest.approx(literal, rel=1e-12, abs=1e-14)

    def test_eig_sum_equals_eigenvalue_mean(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            cov = random_cov(rng)
            pair = eigenvalues(cov)
            literal = 0.5 * (pair.lambda_max + pair.lambda_min) - CTX.noise_variance
            assert eig_sum_statistic(cov, CTX) == pytest.approx(literal, rel=1e-12, abs=1e-14)

    def test_eig_diff_equals_eigenvalue_spread(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            cov = random_cov(rng)
            literal = eigenvalues(cov).spread / (2.0 * CTX.alpha)
            assert eig_diff_statistic(cov, CTX) == pytest.approx(literal, rel=1e-12, abs=1e-14)

    def test_statistic_dispatch(self):
        """Each row of ``estimate_counts`` rounds the statistic of its own scheme,
        whatever the order the schemes are asked in."""
        rng = np.random.default_rng(45)
        covs = [random_cov(rng) for _ in range(50)]
        # scaled so the four schemes give distinct counts
        r1, r2, r12 = zip(*((c.r1, c.r2, c.r12) for c in covs))
        block = CovarianceBlock(8.0 * np.array(r1), 8.0 * np.array(r2), 8.0 * np.array(r12))
        for schemes in (tuple(Scheme), tuple(reversed(Scheme))):
            counts = estimate_counts(schemes, block, CTX)
            for row, scheme in zip(counts, schemes):
                raw = STATISTIC[scheme](block, CTX)
                assert list(row) == [_round_half_away_clamped(x, CTX.n_potential) for x in raw]


class TestRoundingAndClamping:
    def test_ties_round_away_from_zero(self):
        ctx = EstimatorContext(noise_variance=0.1, alpha=1.0, n_potential=100)
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(0.5), ctx) == 1
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(2.5), ctx) == 3
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(3.5), ctx) == 4

    def test_plain_rounding(self):
        ctx = EstimatorContext(noise_variance=0.1, alpha=1.0, n_potential=100)
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(2.4), ctx) == 2
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(2.6), ctx) == 3

    def test_negative_values_clamp_to_zero(self):
        ctx = EstimatorContext(noise_variance=1.0, alpha=1.0, n_potential=100)
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(-0.5), ctx) == 0
        # eig-sum statistic is (0.1 + 0.1)/2 - 1.0 < 0
        assert estimate(Scheme.EIG_SUM, SampleCovariance(r1=0.1, r2=0.1, r12=0j), ctx) == 0

    def test_large_values_clamp_to_population(self):
        ctx = EstimatorContext(noise_variance=0.1, alpha=1.0, n_potential=5)
        assert estimate(Scheme.ORTHOGONAL, cov_with_cross(7.6), ctx) == 5
        assert estimate(Scheme.EIG_SUM, SampleCovariance(r1=30.0, r2=30.0, r12=0j), ctx) == 5

    def test_integer_outputs(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            cov = random_cov(rng)
            counts = estimate_counts(tuple(Scheme), cov, CTX)
            assert counts.dtype == np.int64
            assert np.all((0 <= counts) & (counts <= CTX.n_potential))

    def test_estimate_matches_rounded_statistic(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            cov = random_cov(rng)
            for scheme in Scheme:
                raw = STATISTIC[scheme](cov, CTX)
                expected = min(max(int(math.floor(raw + 0.5)) if raw >= 0 else int(math.ceil(raw - 0.5)), 0), 100)
                assert estimate(scheme, cov, CTX) == expected


def _round_half_away_clamped(raw, n):
    rounded = math.floor(raw + 0.5) if raw >= 0 else math.ceil(raw - 0.5)
    return min(max(rounded, 0), n)


class TestEstimateArray:
    """The batched path, ``estimate_counts``, must equal scalar ``estimate`` element by element."""

    CTX = EstimatorContext(noise_variance=0.25, alpha=0.5, n_potential=10)
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
        random = [random_cov(rng) for _ in range(200)]
        scale = 8.0  # spreads the random statistics across [0, n_potential] and beyond
        r1 = np.concatenate([r1, scale * np.array([c.r1 for c in random])])
        r2 = np.concatenate([r2, scale * np.array([c.r2 for c in random])])
        r12 = np.concatenate([r12, scale * np.array([c.r12 for c in random])])
        return CovarianceBlock(r1=r1, r2=r2, r12=r12)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_matches_scalar_estimate(self, scheme):
        cov = self.block()
        batch = estimate_counts((scheme,), cov, self.CTX)[0]
        assert batch.dtype == np.int64
        assert batch.shape == cov.r1.shape
        for i, (r1, r2, r12) in enumerate(zip(*cov)):
            one = SampleCovariance(r1=float(r1), r2=float(r2), r12=complex(r12))
            expected = _round_half_away_clamped(STATISTIC[scheme](one, self.CTX), 10)
            assert estimate(scheme, one, self.CTX) == expected
            assert batch[i] == expected, f"element {i}: {(r1, r2, r12)}"

    def test_counts_with_per_covariance_context(self):
        """All schemes at once, with noise and alpha given per covariance, equal
        scalar ``estimate`` under each covariance's own context."""
        cov = self.block()
        odd = np.arange(cov.r1.size) % 2 == 1
        noise = np.where(odd, 1.5, 0.25)
        alpha = np.where(odd, 0.9, 0.5)
        schemes = (Scheme.MLE, Scheme.EIG_DIFF, Scheme.EIG_SUM, Scheme.ORTHOGONAL)
        counts = estimate_counts(schemes, cov, EstimatorContext(noise, alpha, n_potential=10))
        assert counts.dtype == np.int64
        assert counts.shape == (len(schemes),) + cov.r1.shape
        for i, (r1, r2, r12) in enumerate(zip(*cov)):
            one = SampleCovariance(r1=float(r1), r2=float(r2), r12=complex(r12))
            ctx = EstimatorContext(float(noise[i]), float(alpha[i]), n_potential=10)
            assert [estimate(scheme, one, ctx) for scheme in schemes] == list(counts[:, i])

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_edges_cover_ties_negatives_and_clamp(self, scheme):
        """Guard the test data itself: each scheme meets the cases it should."""
        raw = np.array([STATISTIC[scheme](SampleCovariance(*edge), self.CTX) for edge in self.EDGES])
        assert np.any((raw % 1.0 == 0.5) & (raw > 0.0))
        assert np.any(raw > self.CTX.n_potential)
        # the eig-diff statistic is a square root, never negative
        assert np.any(raw < 0.0) == (scheme is not Scheme.EIG_DIFF)

    def test_eig_diff_domain_error_from_batch(self):
        cov = self.block()
        for alpha in (ALPHA_MIN, ALPHA_MIN / 2, 0.0, -0.5):
            ctx = EstimatorContext(noise_variance=0.1, alpha=alpha, n_potential=100)
            with pytest.raises(EstimatorDomainError):
                estimate_counts((Scheme.EIG_DIFF,), cov, ctx)
            # one covariance below the limit is enough
            per_cov = np.full(cov.r1.shape, 0.5)
            per_cov[-1] = alpha
            ctx = EstimatorContext(noise_variance=0.1, alpha=per_cov, n_potential=100)
            with pytest.raises(EstimatorDomainError):
                estimate_counts((Scheme.ORTHOGONAL, Scheme.EIG_DIFF), cov, ctx)

    def test_rejects_nan_statistic(self):
        cov = CovarianceBlock(r1=np.array([1.0, np.nan]), r2=np.ones(2), r12=np.zeros(2, complex))
        with pytest.raises(ValueError):
            estimate_counts((Scheme.EIG_SUM,), cov, self.CTX)


class TestEigDiffGuard:
    def test_rejects_alpha_at_or_below_limit(self):
        cov = cov_with_cross(1.0)
        for alpha in (ALPHA_MIN, ALPHA_MIN / 2, 0.0, -0.5):
            ctx = EstimatorContext(noise_variance=0.1, alpha=alpha, n_potential=100)
            with pytest.raises(EstimatorDomainError):
                estimate(Scheme.EIG_DIFF, cov, ctx)

    def test_accepts_alpha_above_limit(self):
        ctx = EstimatorContext(noise_variance=0.1, alpha=2 * ALPHA_MIN, n_potential=100)
        assert estimate(Scheme.EIG_DIFF, cov_with_cross(0.001), ctx) >= 0

    def test_domain_error_is_value_error(self):
        assert issubclass(EstimatorDomainError, ValueError)

    def test_other_schemes_ignore_alpha(self):
        ctx = EstimatorContext(noise_variance=0.1, alpha=0.0, n_potential=100)
        cov = cov_with_cross(3.0)
        assert estimate(Scheme.ORTHOGONAL, cov, ctx) == 3
        assert estimate(Scheme.EIG_SUM, cov, ctx) >= 0
        assert estimate(Scheme.MLE, cov, ctx) >= 0


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

    def test_rejects_bad_antenna_count(self):
        with pytest.raises(ValueError):
            multiplication_count(Scheme.EIG_SUM, 0)
