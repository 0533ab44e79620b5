"""Tests for the closed-form population quantities."""

import dataclasses
import math

import numpy as np
import pytest

from auesim.estimators import characteristic_function
from auesim.model import CfoModel, SystemConfig
from auesim.reference import (
    CovarianceMoments,
    PopulationSpec,
    gamma_exact,
    generate_received,
    moment_oracles,
    population_eigenvalues,
    sample_covariance,
)
from auesim.theory import MAX_POWER, nrmse_eig_sum_theory

ALPHA_UNIFORM_015 = 0.8583936913341694


class TestGammaExact:
    def test_aligned_offsets_sum_coherently(self):
        assert gamma_exact(np.zeros(25)) == pytest.approx(25.0, rel=1e-12)

    def test_single_user(self):
        assert gamma_exact(np.array([0.3])) == pytest.approx(1.0, rel=1e-12)

    def test_opposite_phases_cancel(self):
        assert gamma_exact(np.array([0.4, 0.4 + math.pi])) == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_count(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            omegas = rng.uniform(-1.0, 1.0, size=17)
            assert gamma_exact(omegas) <= 17.0 + 1e-12

    def test_empty(self):
        assert gamma_exact(np.zeros(0)) == 0.0


class TestPopulationEigenvalues:
    def test_matches_eigensolver_on_population_matrix(self):
        """K + sigma^2 +- |g| against numpy on the actual 2 x 2 population matrix."""
        rng = np.random.default_rng(52)
        spec = PopulationSpec(k_active=25, noise_variance=0.1)
        for _ in range(200):
            omegas = rng.uniform(-0.95, 0.95, size=spec.k_active)
            g = np.exp(1j * omegas).sum()
            matrix = np.array(
                [
                    [spec.k_active + spec.noise_variance, g],
                    [np.conj(g), spec.k_active + spec.noise_variance],
                ]
            )
            pair = population_eigenvalues(spec, abs(g))
            lo, hi = np.linalg.eigvalsh(matrix)
            np.testing.assert_allclose([pair.lambda_min, pair.lambda_max], [lo, hi], rtol=1e-12)

    def test_zero_offsets_give_extreme_split(self):
        spec = PopulationSpec(k_active=10, noise_variance=0.5)
        pair = population_eigenvalues(spec, 10.0)
        assert pair.lambda_max == pytest.approx(20.5, rel=1e-14)
        assert pair.lambda_min == pytest.approx(0.5, rel=1e-14)

    def test_noise_floor_is_lower_bound(self):
        spec = PopulationSpec(k_active=10, noise_variance=0.5)
        for gamma in (0.0, 3.0, 10.0):
            assert population_eigenvalues(spec, gamma).lambda_min >= spec.noise_variance - 1e-12

    @pytest.mark.parametrize("gamma", [-0.5, 10.2])
    def test_rejects_gamma_outside_triangle_bound(self, gamma):
        spec = PopulationSpec(k_active=10, noise_variance=0.5)
        with pytest.raises(ValueError):
            population_eigenvalues(spec, gamma)


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
            moments = moment_oracles(PopulationSpec(k_active=k, noise_variance=s2, alpha=alpha), m)
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
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
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
        spec = PopulationSpec(k_active=25, noise_variance=0.1, alpha=ALPHA_UNIFORM_015)
        moments = moment_oracles(spec, 32)
        assert moments.r1_mean == pytest.approx(25.1, rel=1e-12)
        assert moments.r1_square_mean == pytest.approx(649.6978125, rel=1e-10)
        assert moments.r1_r2_mean == pytest.approx(644.6069949248, rel=1e-10)

    def test_cross_moment_below_square_moment(self):
        """Offsets and noise both decorrelate the rows, so E[R1 R2] < E[R1^2]."""
        spec = PopulationSpec(k_active=25, noise_variance=0.1, alpha=0.85)
        moments = moment_oracles(spec, 32)
        assert moments.r1_r2_mean < moments.r1_square_mean
        # with aligned offsets and no noise the two rows are identical
        aligned = moment_oracles(PopulationSpec(k_active=25, noise_variance=0.0, alpha=1.0), 32)
        assert aligned.r1_r2_mean == pytest.approx(aligned.r1_square_mean, rel=1e-12)

    def test_monte_carlo_agreement(self):
        """Sample mean of R1 against the oracle at five sigma."""
        cfg = SystemConfig(
            n_potential=100,
            k_active=25,
            m_antennas=32,
            noise_variance=0.1,
            cfo=CfoModel.uniform(0.15),
        )
        alpha = characteristic_function(cfg.cfo)
        oracle = moment_oracles(
            PopulationSpec(k_active=25, noise_variance=0.1, alpha=alpha), cfg.m_antennas
        )
        rng = np.random.default_rng(53)
        r1 = np.array([sample_covariance(generate_received(cfg, rng)).r1 for _ in range(4000)])
        se = r1.std(ddof=1) / math.sqrt(r1.size)
        assert abs(r1.mean() - oracle.r1_mean) < 5 * se

    def test_rejects_bad_antennas(self):
        with pytest.raises(ValueError):
            moment_oracles(PopulationSpec(k_active=5, noise_variance=0.1), 0)


class TestPopulationSpec:
    @pytest.mark.parametrize(
        "kwargs", [dict(k_active=-1), dict(noise_variance=-0.5), dict(alpha=-1.2)]
    )
    def test_rejects_bad_fields(self, kwargs):
        fields = dict(k_active=10, noise_variance=0.1, alpha=0.9)
        fields.update(kwargs)
        with pytest.raises(ValueError):
            PopulationSpec(**fields)

    @pytest.mark.parametrize("k_active,noise_variance", [(1, 1e200), (1, 2e150), (10**400, 1.0)])
    def test_rejects_power_past_bound(self, k_active, noise_variance):
        """moment_oracles(PopulationSpec(1, 1e200), 1) raised OverflowError."""
        with pytest.raises(ValueError, match="MAX_POWER"):
            moment_oracles(PopulationSpec(k_active, noise_variance), 1)

    def test_moments_finite_up_to_bound(self):
        moments = moment_oracles(PopulationSpec(0, MAX_POWER, alpha=1.0), 1)
        assert all(math.isfinite(v) for v in dataclasses.astuple(moments))
