"""Tests for the sample covariance summary and the 2 x 2 eigenvalue formula."""

import math

import numpy as np
import pytest

from auesim.reference import (
    EigenPair,
    ReceivedPilot,
    SampleCovariance,
    eigenvalues,
    sample_covariance,
)


def random_pilot(rng, m=8):
    samples = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    return ReceivedPilot(samples=samples)


def as_matrix(cov):
    return np.array([[cov.r1, cov.r12], [np.conj(cov.r12), cov.r2]])


class TestSampleCovariance:
    def test_hand_computed_entries(self):
        pilot = ReceivedPilot(samples=np.array([[1.0, 1j], [1.0, -1.0]]))
        cov = sample_covariance(pilot)
        assert cov.r1 == pytest.approx(1.0, rel=1e-15)
        assert cov.r2 == pytest.approx(1.0, rel=1e-15)
        # r12 = (y1 . conj(y2)) / M = (1*1 + 1j*(-1)) / 2
        assert cov.r12 == pytest.approx((1.0 - 1.0j) / 2.0, rel=1e-15)

    def test_matches_outer_product_average(self):
        """Entries must equal Y Y^H / M computed the long way."""
        rng = np.random.default_rng(31)
        for _ in range(50):
            pilot = random_pilot(rng)
            cov = sample_covariance(pilot)
            full = pilot.samples @ pilot.samples.conj().T / pilot.m_antennas
            assert cov.r1 == pytest.approx(full[0, 0].real, rel=1e-12)
            assert cov.r2 == pytest.approx(full[1, 1].real, rel=1e-12)
            assert cov.r12 == pytest.approx(full[0, 1], rel=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            cov = sample_covariance(random_pilot(rng, m=3))
            assert cov.r1 >= 0.0
            assert cov.r2 >= 0.0
            assert cov.determinant >= -1e-12 * max(1.0, cov.r1 * cov.r2)

    def test_rank_one_pilot_has_zero_determinant(self):
        y1 = np.array([1.0 + 0.5j, -0.25j, 0.75])
        pilot = ReceivedPilot(samples=np.vstack([y1, (0.3 - 0.9j) * y1]))
        cov = sample_covariance(pilot)
        assert cov.determinant == pytest.approx(0.0, abs=1e-12)

    def test_rejects_cross_term_violating_cauchy_schwarz(self):
        with pytest.raises(ValueError):
            SampleCovariance(r1=1.0, r2=1.0, r12=1.5 + 0.0j)

    @pytest.mark.parametrize("kwargs", [dict(r1=-0.5), dict(r2=math.nan), dict(r12=complex(math.inf, 0))])
    def test_rejects_bad_entries(self, kwargs):
        entries = dict(r1=2.0, r2=2.0, r12=0.5 + 0.5j)
        entries.update(kwargs)
        with pytest.raises(ValueError):
            SampleCovariance(**entries)

    def test_trace(self):
        cov = SampleCovariance(r1=2.0, r2=3.0, r12=1.0 + 1.0j)
        assert cov.trace == pytest.approx(5.0, rel=1e-15)


class TestEigenvalues:
    def test_diagonal_matrix(self):
        cov = SampleCovariance(r1=3.0, r2=1.0, r12=0.0 + 0.0j)
        pair = eigenvalues(cov)
        assert pair.lambda_max == pytest.approx(3.0, rel=1e-15)
        assert pair.lambda_min == pytest.approx(1.0, rel=1e-15)

    def test_matches_hermitian_eigensolver(self):
        """Closed form against numpy's Hermitian eigensolver on random inputs."""
        rng = np.random.default_rng(33)
        for _ in range(1000):
            cov = sample_covariance(random_pilot(rng))
            pair = eigenvalues(cov)
            lo, hi = np.linalg.eigvalsh(as_matrix(cov))
            np.testing.assert_allclose([pair.lambda_min, pair.lambda_max], [lo, hi], rtol=1e-9, atol=1e-12)

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(34)
        for _ in range(500):
            cov = sample_covariance(random_pilot(rng))
            pair = eigenvalues(cov)
            assert pair.lambda_max + pair.lambda_min == pytest.approx(cov.trace, rel=1e-12)
            assert pair.lambda_max * pair.lambda_min == pytest.approx(
                cov.determinant, rel=1e-9, abs=1e-12 * cov.trace**2
            )

    def test_ordering_and_spread(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            pair = eigenvalues(sample_covariance(random_pilot(rng)))
            assert pair.lambda_max >= pair.lambda_min
            assert pair.spread == pytest.approx(pair.lambda_max - pair.lambda_min, rel=1e-15)

    def test_repeated_eigenvalue(self):
        cov = SampleCovariance(r1=2.0, r2=2.0, r12=0.0 + 0.0j)
        pair = eigenvalues(cov)
        assert pair.lambda_max == pair.lambda_min == pytest.approx(2.0, rel=1e-15)


class TestEigenPair:
    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            EigenPair(lambda_max=1.0, lambda_min=2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EigenPair(lambda_max=math.nan, lambda_min=0.0)
