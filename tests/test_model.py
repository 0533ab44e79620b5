"""Tests for the received-pilot signal model."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from auesim import model
from auesim.estimators import characteristic_function
from auesim.model import (
    MAX_EPSILON,
    MAX_NOISE_VARIANCE,
    CfoKind,
    CfoModel,
    SystemConfig,
    WishartDraws,
    bartlett_covariance,
    draw_wishart,
)
from auesim.harness import snr_db_to_noise_variance
from auesim.reference import (
    PopulationSpec,
    ReceivedPilot,
    draw_cfos,
    generate_received,
    moment_oracles,
    sample_covariance,
)

BASE_CFG = SystemConfig(
    n_potential=100,
    k_active=25,
    m_antennas=32,
    noise_variance=0.1,
    cfo=CfoModel.uniform(0.15),
)


class TestCfoModel:
    def test_omega_max_is_two_pi_epsilon(self):
        cfo = CfoModel.uniform(0.15)
        assert cfo.omega_max == pytest.approx(2.0 * math.pi * 0.15, rel=1e-15)

    def test_constructors_set_kind(self):
        assert CfoModel.uniform(0.1).kind is CfoKind.UNIFORM
        assert CfoModel.gaussian(0.1).kind is CfoKind.GAUSSIAN

    @pytest.mark.parametrize("bad", [-0.01, math.nan, math.inf, math.nextafter(MAX_EPSILON, math.inf)])
    def test_rejects_bad_epsilon(self, bad):
        with pytest.raises(ValueError):
            CfoModel.uniform(bad)

    def test_accepts_epsilon_up_to_bound(self):
        assert CfoModel.gaussian(MAX_EPSILON).epsilon_max == 1e6
        with pytest.raises(ValueError, match=r"\[0, 1e\+06\]"):
            CfoModel.gaussian(1e300)


class TestDrawCfos:
    def test_uniform_respects_bounds(self):
        rng = np.random.default_rng(11)
        cfo = CfoModel.uniform(0.15)
        omegas = draw_cfos(cfo, 100_000, rng)
        assert omegas.shape == (100_000,)
        assert np.all(np.abs(omegas) <= cfo.omega_max)

    def test_uniform_phasor_mean_matches_sinc(self):
        """The empirical mean of e^{j omega} estimates sin(a)/a for uniform offsets."""
        rng = np.random.default_rng(12)
        cfo = CfoModel.uniform(0.15)
        omegas = draw_cfos(cfo, 200_000, rng)
        phasor_mean = np.exp(1j * omegas).mean()
        a = cfo.omega_max
        expected = math.sin(a) / a
        # five-sigma band on the real part; imaginary part is zero-mean
        sigma = np.std(np.cos(omegas)) / math.sqrt(omegas.size)
        assert abs(phasor_mean.real - expected) < 5 * sigma
        assert abs(phasor_mean.imag) < 5 / math.sqrt(2 * omegas.size)

    def test_gaussian_std_is_third_of_omega_max(self):
        rng = np.random.default_rng(13)
        cfo = CfoModel.gaussian(0.15)
        omegas = draw_cfos(cfo, 200_000, rng)
        target = cfo.omega_max / 3.0
        assert abs(omegas.mean()) < 5 * target / math.sqrt(omegas.size)
        assert omegas.std() == pytest.approx(target, rel=0.02)

    def test_gaussian_is_untruncated(self):
        """About 0.27% of draws should exceed the nominal worst case (3 sigma)."""
        rng = np.random.default_rng(14)
        cfo = CfoModel.gaussian(0.15)
        omegas = draw_cfos(cfo, 100_000, rng)
        assert np.count_nonzero(np.abs(omegas) > cfo.omega_max) > 0

    def test_none_and_zero_epsilon_give_zero_offsets(self):
        rng = np.random.default_rng(15)
        assert np.all(draw_cfos(CfoModel.uniform(0.0), 50, rng) == 0.0)
        assert np.all(draw_cfos(CfoModel.gaussian(0.0), 50, rng) == 0.0)

    def test_empty_draw(self):
        rng = np.random.default_rng(16)
        assert draw_cfos(CfoModel.uniform(0.1), 0, rng).shape == (0,)

    def test_negative_count_rejected(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            draw_cfos(CfoModel.uniform(0.1), -1, rng)


class TestSystemConfig:
    def test_accepts_noise_power_up_to_bound(self):
        cfg = dataclasses.replace(BASE_CFG, noise_variance=MAX_NOISE_VARIANCE)
        assert snr_db_to_noise_variance(-1500.0) == pytest.approx(cfg.noise_variance, rel=1e-12)

    def test_snr_db_property(self):
        """The CLI's per-user SNR maps to sigma_z^2 = 10^(-SNR/10) at unit receive power."""
        assert snr_db_to_noise_variance(10.0) == pytest.approx(BASE_CFG.noise_variance, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_potential=0),
            dict(k_active=101),
            dict(k_active=-1),
            dict(m_antennas=0),
            dict(noise_variance=0.0),
            dict(noise_variance=-0.1),
            dict(noise_variance=math.nan),
            dict(noise_variance=math.inf),
            dict(noise_variance=1e308),
            dict(noise_variance=math.nextafter(MAX_NOISE_VARIANCE, math.inf)),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        base = dict(
            n_potential=100,
            k_active=25,
            m_antennas=32,
            noise_variance=0.1,
            cfo=CfoModel.uniform(0.15),
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            SystemConfig(**base)


class TestReceivedPilot:
    def test_row_views(self):
        samples = np.arange(6, dtype=float).reshape(2, 3) + 0j
        pilot = ReceivedPilot(samples=samples)
        assert pilot.m_antennas == 3
        np.testing.assert_array_equal(pilot.y1, samples[0])
        np.testing.assert_array_equal(pilot.y2, samples[1])

    @pytest.mark.parametrize("shape", [(3, 4), (2, 0), (2,)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            ReceivedPilot(samples=np.zeros(shape, dtype=complex))

    def test_rejects_non_finite(self):
        samples = np.zeros((2, 4), dtype=complex)
        samples[1, 2] = np.nan
        with pytest.raises(ValueError):
            ReceivedPilot(samples=samples)


class TestGenerateReceived:
    def test_shape_and_dtype(self):
        pilot = generate_received(BASE_CFG, np.random.default_rng(20))
        assert pilot.samples.shape == (2, 32)
        assert pilot.samples.dtype == np.complex128

    def test_equal_seeds_give_identical_blocks(self):
        """One seed, one block: the generator is the only source of randomness."""
        a = generate_received(BASE_CFG, np.random.default_rng(21))
        b = generate_received(BASE_CFG, np.random.default_rng(21))
        np.testing.assert_array_equal(a.samples, b.samples)
        c = generate_received(BASE_CFG, np.random.default_rng(22))
        assert not np.array_equal(a.samples, c.samples)

    def test_noise_free_single_user_rows_are_proportional(self):
        """Without noise, K=1 gives y2 = e^{j omega} y1 exactly (rank-one block)."""
        cfg = SystemConfig(
            n_potential=100,
            k_active=1,
            m_antennas=16,
            noise_variance=0.1,
            cfo=CfoModel.uniform(0.15),
        )
        pilot = generate_received(cfg, np.random.default_rng(23), with_noise=False)
        ratio = pilot.y2 / pilot.y1
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)
        assert abs(ratio[0]) == pytest.approx(1.0, rel=1e-12)

    def test_noise_free_zero_users_is_silent(self):
        cfg = SystemConfig(
            n_potential=100,
            k_active=0,
            m_antennas=8,
            noise_variance=0.1,
            cfo=CfoModel.uniform(0.15),
        )
        pilot = generate_received(cfg, np.random.default_rng(24), with_noise=False)
        np.testing.assert_array_equal(pilot.samples, np.zeros((2, 8), dtype=complex))

    def test_noise_only_power(self):
        """With K=0 the block is pure noise with per-entry power noise_variance."""
        cfg = SystemConfig(
            n_potential=100,
            k_active=0,
            m_antennas=64,
            noise_variance=0.5,
            cfo=CfoModel.uniform(0.0),
        )
        rng = np.random.default_rng(25)
        powers = [np.mean(np.abs(generate_received(cfg, rng).samples) ** 2) for _ in range(200)]
        mean_power = np.mean(powers)
        # 200 blocks of 128 entries; |z|^2 has mean 0.5 and std 0.5
        sigma = 0.5 / math.sqrt(200 * 128)
        assert abs(mean_power - 0.5) < 5 * sigma

    def test_received_power_matches_population_value(self):
        """Per-entry received power should average to k_active + noise_variance."""
        rng = np.random.default_rng(26)
        trials = 400
        power = np.mean(
            [np.mean(np.abs(generate_received(BASE_CFG, rng).samples) ** 2) for _ in range(trials)]
        )
        expected = BASE_CFG.k_active + BASE_CFG.noise_variance
        # per-entry power is roughly exponential-like; entries within a block
        # are correlated across the 2 rows, so take a generous sigma
        sigma = expected / math.sqrt(trials * BASE_CFG.m_antennas / 2)
        assert abs(power - expected) < 5 * sigma


def _ks_config(m, cfo):
    # few users and a wide offset spread, so the per-trial offsets move
    # Sigma a lot and a sampler that mixed over them wrongly would show
    return SystemConfig(n_potential=10, k_active=4, m_antennas=m, noise_variance=0.5, cfo=cfo)


def sample_wishart(cfg, trials, rng):
    """Entries of ``trials`` slots of ``cfg`` from ``rng``: one ``draw_wishart``
    record, then ``bartlett_covariance``, as the simulation runs them."""
    draws = WishartDraws.empty(trials)
    draw_wishart((cfg,), rng, (draws,))
    return bartlett_covariance(draws, cfg.k_active, cfg.m_antennas, cfg.noise_variance)


class TestSampleWishart:
    """The Wishart sampler must have the law of the direct 2 x M model.

    Seeds and thresholds were fixed before the first run; a failure here is a
    sampler defect to investigate, never a reason to pick other seeds.
    """

    def test_moments_match_oracles(self):
        trials = 100_000
        alpha = characteristic_function(BASE_CFG.cfo)
        oracle = moment_oracles(
            PopulationSpec(k_active=BASE_CFG.k_active, noise_variance=BASE_CFG.noise_variance, alpha=alpha),
            BASE_CFG.m_antennas,
        )
        rng = np.random.default_rng(7101)
        blocks = [sample_wishart(BASE_CFG, 10_000, rng) for _ in range(trials // 10_000)]
        r1 = np.concatenate([b.r1 for b in blocks])
        r2 = np.concatenate([b.r2 for b in blocks])
        samples = {
            "E[R1]": (r1, oracle.r1_mean),
            "E[R2]": (r2, oracle.r1_mean),
            "E[R1^2]": (r1**2, oracle.r1_square_mean),
            "E[R2^2]": (r2**2, oracle.r1_square_mean),
            "E[R1 R2]": (r1 * r2, oracle.r1_r2_mean),
        }
        for name, (sample, target) in samples.items():
            z = (sample.mean() - target) / (sample.std(ddof=1) / math.sqrt(trials))
            assert abs(z) < 5.0, f"{name} off by {z:+.2f} standard errors"

    @pytest.mark.parametrize("cfo", [CfoModel.uniform(0.3), CfoModel.gaussian(0.3)], ids=["uniform", "gaussian"])
    @pytest.mark.parametrize("m", [1, 2, 32])
    def test_distribution_matches_direct_model(self, m, cfo):
        """Two-sample KS of every entry against sample_covariance(generate_received(...))."""
        cfg = _ks_config(m, cfo)
        case = (m, cfo.kind is CfoKind.GAUSSIAN)
        rng = np.random.default_rng(np.random.SeedSequence((7202, *case)))
        direct = [sample_covariance(generate_received(cfg, rng)) for _ in range(4000)]
        wishart = sample_wishart(cfg, 40_000, np.random.default_rng(np.random.SeedSequence((7203, *case))))
        direct_r12 = np.array([c.r12 for c in direct])
        pairs = {
            "r1": (np.array([c.r1 for c in direct]), wishart.r1),
            "r2": (np.array([c.r2 for c in direct]), wishart.r2),
            "Re r12": (direct_r12.real, wishart.r12.real),
            "Im r12": (direct_r12.imag, wishart.r12.imag),
            "|r12|": (np.abs(direct_r12), np.abs(wishart.r12)),
        }
        for name, (a, b) in pairs.items():
            p = stats.ks_2samp(a, b).pvalue
            assert p > 1e-3, f"{name}: KS p = {p:.2e}"

    def test_single_antenna_is_rank_one(self):
        """At M = 1, a22 = 0 and R = x x^H exactly, so r1 r2 = |r12|^2."""
        cfg = _ks_config(1, CfoModel.uniform(0.3))
        cov = sample_wishart(cfg, 1000, np.random.default_rng(7204))
        np.testing.assert_allclose(cov.r1 * cov.r2, np.abs(cov.r12) ** 2, rtol=1e-12)

    def test_shapes_and_determinism(self):
        a = sample_wishart(BASE_CFG, 37, np.random.default_rng(7205))
        b = sample_wishart(BASE_CFG, 37, np.random.default_rng(7205))
        assert a.r1.shape == a.r2.shape == a.r12.shape == (37,)
        assert a.r12.dtype == np.complex128
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_per_slot_parameters_match_separate_blocks(self):
        """One transform over slots of three configurations gives, bit for bit, the
        entries each configuration's own sample_wishart call gives."""
        cfgs = [
            BASE_CFG,
            dataclasses.replace(BASE_CFG, k_active=3, m_antennas=1, noise_variance=2.5),
            dataclasses.replace(BASE_CFG, cfo=CfoModel.gaussian(0.4), m_antennas=7),
        ]
        sizes = [37, 5, 20]
        parts = []
        for i, (cfg, size) in enumerate(zip(cfgs, sizes)):
            draws = WishartDraws.empty(size)
            draw_wishart((cfg,), np.random.default_rng(7206 + i), (draws,))
            parts.append(draws)
        joined = WishartDraws(*(np.concatenate(column) for column in zip(*parts)))

        def per_slot(name):
            return np.repeat([getattr(cfg, name) for cfg in cfgs], sizes)

        block = bartlett_covariance(
            joined, per_slot("k_active"), per_slot("m_antennas"), per_slot("noise_variance")
        )
        start = 0
        for i, (cfg, size) in enumerate(zip(cfgs, sizes)):
            alone = sample_wishart(cfg, size, np.random.default_rng(7206 + i))
            for entry, expected in zip(block, alone):
                assert entry[start : start + size].tobytes() == expected.tobytes()
            start += size


def _drawn(cfgs, trials, seed):
    """The records ``draw_wishart`` fills for ``cfgs`` from one generator seeded ``seed``."""
    outs = [WishartDraws.empty(trials) for _ in cfgs]
    draw_wishart(cfgs, np.random.default_rng(seed), outs)
    return outs


def _same_bytes(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


class TestDrawWishart:
    """Stream 0.4.0: configurations that share the CFO kind share one block's draws,
    all but the gammas, which depend on M."""

    @pytest.mark.parametrize("kind", [CfoKind.UNIFORM, CfoKind.GAUSSIAN])
    def test_group_draws_equal_separate_draws(self, kind):
        cfgs = [
            dataclasses.replace(BASE_CFG, cfo=CfoModel(kind, 0.15)),
            dataclasses.replace(BASE_CFG, k_active=3, noise_variance=2.5, cfo=CfoModel(kind, 0.15)),
            dataclasses.replace(BASE_CFG, k_active=40, cfo=CfoModel(kind, 0.3)),
            dataclasses.replace(BASE_CFG, k_active=7, cfo=CfoModel(kind, 0.0)),
            dataclasses.replace(BASE_CFG, k_active=0, cfo=CfoModel(kind, 0.3)),
        ]
        together = _drawn(cfgs, 37, 7301)
        for cfg, out in zip(cfgs, together):
            assert _same_bytes(out, _drawn([cfg], 37, 7301)[0])

    def test_offsets_nest_along_k(self):
        """A point with K users reads the first K user rows of a larger K's draws."""
        small, large = _drawn([dataclasses.replace(BASE_CFG, k_active=5), BASE_CFG], 64, 7302)
        rng = np.random.default_rng(7302)
        # the normals come first; the gammas lie far along the stream
        rng.standard_normal(128)
        unit = rng.uniform(-1.0, 1.0, (25, 64))
        phasors = model._unit_phasors(unit, BASE_CFG.cfo.omega_max)
        assert small.g.tobytes() == np.cumsum(phasors[:5], axis=0)[-1].tobytes()
        assert large.g.tobytes() == np.cumsum(phasors, axis=0)[-1].tobytes()

    def test_zero_offsets_sum_to_k_exactly(self):
        (out,) = _drawn([dataclasses.replace(BASE_CFG, cfo=CfoModel.uniform(0.0))], 20, 7303)
        assert np.all(out.g == BASE_CFG.k_active)

    @pytest.mark.parametrize("chunk", [1, 300, 2**20])
    def test_chunks_change_no_bit(self, monkeypatch, chunk):
        cfgs = [BASE_CFG, dataclasses.replace(BASE_CFG, k_active=13, cfo=CfoModel.uniform(0.4))]
        expected = _drawn(cfgs, 40, 7304)
        monkeypatch.setattr(model, "CHUNK_DRAWS", chunk)
        for out, want in zip(_drawn(cfgs, 40, 7304), expected):
            assert _same_bytes(out, want)

    @pytest.mark.parametrize("kind", [CfoKind.UNIFORM, CfoKind.GAUSSIAN])
    def test_antenna_points_share_all_but_gammas(self, kind):
        """Points at different M get the same g and normals from one call; the
        gammas of each M start 2^64 draws past the block's start."""
        cfgs = [
            dataclasses.replace(BASE_CFG, m_antennas=m, cfo=CfoModel(kind, 0.15)) for m in (1, 8, 32, 8)
        ]
        outs = _drawn(cfgs, 53, 7306)
        for out in outs[1:]:
            for name in ("g", "re", "im"):
                assert getattr(out, name).tobytes() == getattr(outs[0], name).tobytes()
        for cfg, out in zip(cfgs, outs):
            rng = np.random.default_rng(7306)
            rng.bit_generator.advance(2**64)
            assert out.gamma_m.tobytes() == rng.standard_gamma(cfg.m_antennas, 53).tobytes()
            assert out.gamma_m1.tobytes() == rng.standard_gamma(cfg.m_antennas - 1, 53).tobytes()
            assert _same_bytes(out, _drawn([cfg], 53, 7306)[0])

    def test_rejects_configurations_that_cannot_share(self):
        with pytest.raises(ValueError, match="share the CFO kind"):
            _drawn([BASE_CFG, dataclasses.replace(BASE_CFG, cfo=CfoModel.gaussian(0.15))], 4, 7305)


class TestUnitPhasors:
    """The table-and-Taylor phasors that replace ``np.exp(1j * omega)``."""

    EPSILONS = (0.01, 0.15, 0.5, 10.0, 1e6)

    @staticmethod
    def _ulps(scale, unit):
        """|phasor - np.exp(1j omega)| in units of 2^-52 max(1, |omega|)."""
        omega = scale * unit
        error = np.abs(model._unit_phasors(unit, scale) - np.exp(1j * omega))
        return error / (2.0**-52 * np.maximum(1.0, np.abs(omega)))

    @pytest.mark.parametrize("kind", [CfoKind.UNIFORM, CfoKind.GAUSSIAN])
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_within_8_ulp_of_exp(self, kind, epsilon):
        seed = 7400 + 2 * self.EPSILONS.index(epsilon) + (kind is CfoKind.GAUSSIAN)
        rng = np.random.default_rng(seed)
        cfo = CfoModel(kind, epsilon)
        if kind is CfoKind.GAUSSIAN:
            unit, scale = rng.standard_normal((8, 2**14)), cfo.omega_max / 3.0
        else:
            unit, scale = rng.uniform(-1.0, 1.0, (8, 2**14)), cfo.omega_max
        assert self._ulps(scale, unit).max() <= 8.0

    def test_table_points_half_steps_and_quarter_turns(self):
        """Exact multiples of the table step, ties between two entries, quarter
        turns and the largest offsets the bound admits."""
        step = 2.0 * math.pi / 4096
        k = np.array([0.0, 1.0, 2.0, 511.0, 512.0, 1024.0, 2047.0, 2048.0, 4095.0, 4096.0, 1e9])
        omega = np.concatenate([k * step, (k + 0.5) * step, [math.pi / 2, math.pi, 2.0 * math.pi]])
        omega = np.concatenate([omega, -omega, [CfoModel.uniform(MAX_EPSILON).omega_max]])
        assert self._ulps(1.0, omega).max() <= 8.0

    def test_zero_offset_is_exactly_one(self):
        phasors = model._unit_phasors(np.zeros((2, 3)), 0.7)
        assert phasors.dtype == complex and phasors.shape == (2, 3)
        assert np.all(phasors == 1.0) and not np.any(np.signbit(phasors.imag))

    @pytest.mark.parametrize(
        "k,trials,cfo,parent_kib",
        [(25, 256, CfoModel.uniform(0.15), 306.4), (50, 100, CfoModel.gaussian(0.15), 238.4)],
        ids=["uniform-25x256", "gaussian-50x100"],
    )
    def test_block_memory(self, k, trials, cfo, parent_kib):
        """One block's tracemalloc peak stays within 1.2x that of the np.exp path
        the kernel replaced (measured with stream 0.4.0 and numpy 2.4).  A kernel
        that keeps ten temporaries alive needs about twice as much."""
        cfg = dataclasses.replace(BASE_CFG, k_active=k, cfo=cfo)
        out = WishartDraws.empty(trials)
        draw_wishart((cfg,), np.random.default_rng(7410), (out,))
        rng = np.random.default_rng(7410)
        tracemalloc.start()
        try:
            draw_wishart((cfg,), rng, (out,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * parent_kib * 1024
