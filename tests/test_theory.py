"""Tests for the closed-form population quantities."""

import dataclasses
import math

import numpy as np
import pytest

from auesim.model import CfoKind, CfoModel, SystemConfig
from auesim.theory import MAX_POWER, nrmse_eig_sum_theory

from oracles import CovarianceMoments, generate_received, moment_oracles, sample_covariance

ALPHA_UNIFORM_015 = 0.8583936913341694


class TestNrmseTheory:
    def test_frozen_reference_point(self):
        value = nrmse_eig_sum_theory(25, 32, 0.1, ALPHA_UNIFORM_015)
        assert value == pytest.approx(0.165613543950, rel=1e-11)

    def test_frozen_large_array_point(self):
        value = nrmse_eig_sum_theory(25, 128, 0.1, ALPHA_UNIFORM_015)
        assert value == pytest.approx(0.082806771975, rel=1e-11)

    def test_frozen_zero_offset_point(self):
        assert nrmse_eig_sum_theory(25, 32, 0.1, 1.0) == pytest.approx(0.177130601535, rel=1e-11)

    def test_quadrupling_antennas_halves_error(self):
        for m in (8, 16, 32):
            ratio = nrmse_eig_sum_theory(25, m, 0.1, 0.9) / nrmse_eig_sum_theory(25, 4 * m, 0.1, 0.9)
            assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_consistent_with_moment_oracles(self):
        """Independent route: the same MSE must follow from the second moments.

        With X = (R1 + R2)/2 - sigma^2 and P = K + sigma^2:
        E[X] = K, so MSE = E[X^2] - K^2 with
        E[X^2] = (E[R1^2] + E[R1 R2])/2 - 2 sigma^2 P + sigma^4.
        """
        for k, m, s2, alpha in [(25, 32, 0.1, ALPHA_UNIFORM_015), (5, 16, 0.5, 0.3), (45, 128, 0.01, 1.0)]:
            moments = moment_oracles(k, s2, alpha, m)
            power = k + s2
            second = (moments.r1_square_mean + moments.r1_r2_mean) / 2.0 - 2.0 * s2 * power + s2**2
            mse = second - k**2
            assert (k * nrmse_eig_sum_theory(k, m, s2, alpha)) ** 2 == pytest.approx(mse, rel=1e-10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k_active=0),
            dict(m_antennas=0),
            dict(noise_variance=-0.1),
            dict(alpha=1.0001),
            dict(k_active=math.nan),
            dict(k_active=2.5),
            dict(m_antennas=math.nan),
            dict(m_antennas=math.inf),
            dict(m_antennas=32.5),
            dict(m_antennas="32"),
            dict(k_active=True),
            # a string or None raised TypeError, and 10^400 OverflowError, from math.isfinite
            dict(noise_variance="0.1"),
            dict(noise_variance=None),
            dict(noise_variance=10**400),
            dict(alpha="0.9"),
            dict(alpha=True),
            dict(alpha=0.9 + 0j),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        """Counts that are not integers were accepted: K = 2.5 or M = 32.5 gave a
        value, M = NaN gave NaN, M = inf gave 0.0, and M = "32" a TypeError."""
        args = dict(k_active=25, m_antennas=32, noise_variance=0.1, alpha=0.9)
        args.update(kwargs)
        with pytest.raises(ValueError):
            nrmse_eig_sum_theory(**args)

    @pytest.mark.parametrize("k_active,noise_variance", [(1, 1e200), (1, 2e150), (10**400, 1.0)])
    def test_rejects_power_past_bound(self, k_active, noise_variance):
        """(K + sigma_z^2)^2 past the float range raised OverflowError, not ValueError."""
        with pytest.raises(ValueError, match="MAX_POWER"):
            nrmse_eig_sum_theory(k_active, 1, noise_variance, 1.0)

    def test_finite_up_to_bound(self):
        value = nrmse_eig_sum_theory(25, 1, MAX_POWER - 25, 1.0)
        assert math.isfinite(value)
        assert value == pytest.approx(MAX_POWER / math.sqrt(2.0) / 25, rel=1e-12)


class TestMomentOracles:
    def test_frozen_reference_point(self):
        moments = moment_oracles(25, 0.1, ALPHA_UNIFORM_015, 32)
        assert moments.r1_mean == pytest.approx(25.1, rel=1e-12)
        assert moments.r1_square_mean == pytest.approx(649.6978125, rel=1e-10)
        assert moments.r1_r2_mean == pytest.approx(644.6069949248, rel=1e-10)

    def test_cross_moment_below_square_moment(self):
        """Offsets and noise both decorrelate the rows, so E[R1 R2] < E[R1^2]."""
        moments = moment_oracles(25, 0.1, 0.85, 32)
        assert moments.r1_r2_mean < moments.r1_square_mean
        # with aligned offsets and no noise the two rows are identical
        aligned = moment_oracles(25, 0.0, 1.0, 32)
        assert aligned.r1_r2_mean == pytest.approx(aligned.r1_square_mean, rel=1e-12)

    def test_monte_carlo_agreement(self):
        """Sample mean of R1 against the oracle at five sigma."""
        cfg = SystemConfig(
            n_potential=100,
            k_active=25,
            m_antennas=32,
            noise_variance=0.1,
            cfo=CfoModel(CfoKind.UNIFORM, 0.15),
        )
        alpha = cfg.cfo.alpha
        oracle = moment_oracles(25, 0.1, alpha, cfg.m_antennas)
        rng = np.random.default_rng(53)
        r1 = np.array([sample_covariance(generate_received(cfg, rng)).r1 for _ in range(4000)])
        se = r1.std(ddof=1) / math.sqrt(r1.size)
        assert abs(r1.mean() - oracle.r1_mean) < 5 * se

    def test_rejects_bad_antennas(self):
        with pytest.raises(ValueError):
            moment_oracles(5, 0.1, 1.0, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k_active=-1),
            dict(noise_variance=-0.5),
            dict(alpha=-1.2),
            dict(k_active=math.nan),
            dict(k_active=2.5),
            dict(m_antennas=2.5),
            dict(noise_variance="0.1"),
            dict(alpha=None),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        """K = NaN and K = 2.5 gave moments."""
        args = dict(k_active=10, noise_variance=0.1, alpha=0.9, m_antennas=32)
        args.update(kwargs)
        with pytest.raises(ValueError):
            moment_oracles(**args)

    @pytest.mark.parametrize("k_active,noise_variance", [(1, 1e200), (1, 2e150), (10**400, 1.0)])
    def test_rejects_power_past_bound(self, k_active, noise_variance):
        """moment_oracles(1, 1e200, 1.0, 1) raised OverflowError."""
        with pytest.raises(ValueError, match="MAX_POWER"):
            moment_oracles(k_active, noise_variance, 1.0, 1)

    def test_moments_finite_up_to_bound(self):
        moments = moment_oracles(0, MAX_POWER, 1.0, 1)
        assert all(math.isfinite(v) for v in dataclasses.astuple(moments))
