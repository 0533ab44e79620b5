"""Tests for the received-pilot signal model."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from auesim import model
from auesim.covariance import CovarianceBlock
from auesim.estimators import ALPHA_MIN, Scheme, estimate_counts
from auesim.model import (
    MAX_ANTENNAS,
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

from oracles import (
    collect_estimates,
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
    cfo=CfoModel(CfoKind.UNIFORM, 0.15),
)


class TestAsReal:
    def test_as_real_returns_python_floats(self):
        value = 0.15
        assert model.as_real("x", value) is value
        for given in (np.float32(0.15), np.float64(0.15), 3, np.int64(3), np.uint8(3)):
            converted = model.as_real("x", given)
            assert type(converted) is float and converted == float(given)

    @pytest.mark.parametrize("bad", ["0.1", b"0.1", None, True, False, np.True_, 0.1j, np.complex64(0.1), [0.1]])
    def test_as_real_rejects_non_reals(self, bad):
        with pytest.raises(ValueError, match=r"x must be a real number, got "):
            model.as_real("x", bad)


class TestCfoModel:
    def test_omega_max_is_two_pi_epsilon(self):
        cfo = CfoModel(CfoKind.UNIFORM, 0.15)
        assert cfo.omega_max == pytest.approx(2.0 * math.pi * 0.15, rel=1e-15)

    def test_constructors_set_kind(self):
        assert CfoModel(CfoKind.UNIFORM, 0.1).kind is CfoKind.UNIFORM
        assert CfoModel(CfoKind.GAUSSIAN, 0.1).kind is CfoKind.GAUSSIAN

    @pytest.mark.parametrize("kind", list(CfoKind))
    def test_spelled_kind_is_stored_as_the_member(self, kind):
        """A kind given by its CLI spelling was stored as the string, which the
        sampler read as uniform and the alpha of the eig-diff scheme as Gaussian."""
        cfo = CfoModel(kind.value, 0.15)
        assert cfo.kind is kind
        assert cfo == CfoModel(kind, 0.15)

    @pytest.mark.parametrize("bad", ["bogus", "Gaussian", None, 1])
    def test_rejects_unknown_kind(self, bad):
        with pytest.raises(ValueError):
            CfoModel(bad, 0.15)

    # a string raised TypeError from the range comparison
    @pytest.mark.parametrize(
        "bad",
        [-0.01, math.nan, math.inf, math.nextafter(MAX_EPSILON, math.inf), "0.1", None, True, 0.1j, 10**400],
    )
    def test_rejects_bad_epsilon(self, bad):
        with pytest.raises(ValueError):
            CfoModel(CfoKind.UNIFORM, bad)

    def test_accepts_epsilon_up_to_bound(self):
        assert CfoModel(CfoKind.GAUSSIAN, MAX_EPSILON).epsilon_max == 1e6
        with pytest.raises(ValueError, match=r"\[0, 1e\+06\]"):
            CfoModel(CfoKind.GAUSSIAN, 1e300)

    def test_draw_scale_is_omega_per_unit_draw(self):
        assert CfoModel(CfoKind.UNIFORM, 0.15).draw_scale == CfoModel(CfoKind.UNIFORM, 0.15).omega_max
        assert CfoModel(CfoKind.GAUSSIAN, 0.15).draw_scale == CfoModel(CfoKind.GAUSSIAN, 0.15).omega_max / 3.0
        assert CfoModel(CfoKind.GAUSSIAN, 0.0).draw_scale == 0.0

    def test_alpha_uniform_frozen_value(self):
        assert CfoModel(CfoKind.UNIFORM, 0.15).alpha == pytest.approx(0.858393691334, rel=1e-11)

    def test_alpha_gaussian_frozen_value(self):
        assert CfoModel(CfoKind.GAUSSIAN, 0.15).alpha == pytest.approx(0.951849807369, rel=1e-11)

    def test_alpha_no_offset_gives_one(self):
        assert CfoModel(CfoKind.UNIFORM, 0.0).alpha == 1.0
        assert CfoModel(CfoKind.GAUSSIAN, 0.0).alpha == 1.0

    @pytest.mark.parametrize("eps", [0.05, 0.15, 0.3])
    def test_alpha_uniform_matches_quadrature(self, eps):
        """Closed form against direct numerical integration of E[cos(omega)]."""
        a = 2.0 * math.pi * eps
        expected, _ = integrate.quad(lambda w: math.cos(w) / (2.0 * a), -a, a)
        assert CfoModel(CfoKind.UNIFORM, eps).alpha == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("eps", [0.05, 0.15, 0.3])
    def test_alpha_gaussian_matches_quadrature(self, eps):
        std = 2.0 * math.pi * eps / 3.0
        density = lambda w: math.exp(-0.5 * (w / std) ** 2) / (std * math.sqrt(2.0 * math.pi))
        expected, _ = integrate.quad(lambda w: math.cos(w) * density(w), -10 * std, 10 * std)
        assert CfoModel(CfoKind.GAUSSIAN, eps).alpha == pytest.approx(expected, rel=1e-10)

    def test_alpha_decreases_with_spread(self):
        values = [CfoModel(CfoKind.UNIFORM, e).alpha for e in (0.0, 0.1, 0.2, 0.3, 0.4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    # alpha before it moved into CfoModel, as float.hex; the grid holds alpha ~ 4e-17
    # at uniform 0.5, a negative uniform alpha at 0.7 and the Gaussian underflow at 1e6
    @pytest.mark.parametrize(
        "kind,eps,bits",
        [
            (CfoKind.UNIFORM, 0.0, "0x1.0000000000000p+0"),
            (CfoKind.UNIFORM, 1e-300, "0x1.0000000000000p+0"),
            (CfoKind.UNIFORM, 1e-08, "0x1.ffffffffffffap-1"),
            (CfoKind.UNIFORM, 0.05, "0x1.f79e9114b55dcp-1"),
            (CfoKind.UNIFORM, 0.15, "0x1.b77f60bebee61p-1"),
            (CfoKind.UNIFORM, 0.3, "0x1.02548755aac3ep-1"),
            (CfoKind.UNIFORM, 0.45, "0x1.bfa964842f6ffp-4"),
            (CfoKind.UNIFORM, 0.5, "0x1.678afae35cdd1p-55"),
            (CfoKind.UNIFORM, 0.7, "-0x1.bada0c92db98ep-3"),
            (CfoKind.UNIFORM, 1.0, "-0x1.678afae35cdd1p-55"),
            (CfoKind.UNIFORM, 10.0, "-0x1.678afae35cdd2p-55"),
            (CfoKind.UNIFORM, 1000000.0, "-0x1.47a1eaca67576p-54"),
            (CfoKind.GAUSSIAN, 0.0, "0x1.0000000000000p+0"),
            (CfoKind.GAUSSIAN, 1e-300, "0x1.0000000000000p+0"),
            (CfoKind.GAUSSIAN, 1e-08, "0x1.ffffffffffffep-1"),
            (CfoKind.GAUSSIAN, 0.05, "0x1.fd3348b7b3c0dp-1"),
            (CfoKind.GAUSSIAN, 0.15, "0x1.e758dba2b5b95p-1"),
            (CfoKind.GAUSSIAN, 0.3, "0x1.a448e78f37ea5p-1"),
            (CfoKind.GAUSSIAN, 0.45, "0x1.48630a9987e1cp-1"),
            (CfoKind.GAUSSIAN, 0.5, "0x1.27e5c5a3f5fe8p-1"),
            (CfoKind.GAUSSIAN, 0.7, "0x1.5d98e020f55eep-2"),
            (CfoKind.GAUSSIAN, 1.0, "0x1.c8ecf923184dep-4"),
            (CfoKind.GAUSSIAN, 10.0, "0x1.7f1925b40544fp-317"),
            (CfoKind.GAUSSIAN, 1000000.0, "0x0.0p+0"),
        ],
    )
    def test_alpha_bits_are_pinned(self, kind, eps, bits):
        alpha = CfoModel(kind, eps).alpha
        assert type(alpha) is float
        assert alpha.hex() == bits

    def test_alpha_is_computed_once(self):
        cfo = CfoModel(CfoKind.GAUSSIAN, 0.15)
        assert "alpha" not in vars(cfo)
        assert cfo.alpha is cfo.alpha
        assert vars(cfo)["alpha"] is cfo.alpha
        assert cfo == CfoModel(CfoKind.GAUSSIAN, 0.15) and hash(cfo) == hash(CfoModel(CfoKind.GAUSSIAN, 0.15))


class TestDrawCfos:
    def test_uniform_respects_bounds(self):
        rng = np.random.default_rng(11)
        cfo = CfoModel(CfoKind.UNIFORM, 0.15)
        omegas = draw_cfos(cfo, 100_000, rng)
        assert omegas.shape == (100_000,)
        assert np.all(np.abs(omegas) <= cfo.omega_max)

    def test_uniform_phasor_mean_matches_sinc(self):
        """The empirical mean of e^{j omega} estimates sin(a)/a for uniform offsets."""
        rng = np.random.default_rng(12)
        cfo = CfoModel(CfoKind.UNIFORM, 0.15)
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
        cfo = CfoModel(CfoKind.GAUSSIAN, 0.15)
        omegas = draw_cfos(cfo, 200_000, rng)
        target = cfo.omega_max / 3.0
        assert abs(omegas.mean()) < 5 * target / math.sqrt(omegas.size)
        assert omegas.std() == pytest.approx(target, rel=0.02)

    def test_gaussian_is_untruncated(self):
        """About 0.27% of draws should exceed the nominal worst case (3 sigma)."""
        rng = np.random.default_rng(14)
        cfo = CfoModel(CfoKind.GAUSSIAN, 0.15)
        omegas = draw_cfos(cfo, 100_000, rng)
        assert np.count_nonzero(np.abs(omegas) > cfo.omega_max) > 0

    def test_none_and_zero_epsilon_give_zero_offsets(self):
        rng = np.random.default_rng(15)
        assert np.all(draw_cfos(CfoModel(CfoKind.UNIFORM, 0.0), 50, rng) == 0.0)
        assert np.all(draw_cfos(CfoModel(CfoKind.GAUSSIAN, 0.0), 50, rng) == 0.0)

    def test_empty_draw(self):
        rng = np.random.default_rng(16)
        assert draw_cfos(CfoModel(CfoKind.UNIFORM, 0.1), 0, rng).shape == (0,)

    def test_negative_count_rejected(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            draw_cfos(CfoModel(CfoKind.UNIFORM, 0.1), -1, rng)


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
            # a string raised TypeError from the range comparison
            dict(noise_variance="0.1"),
            dict(noise_variance=None),
            dict(noise_variance=True),
            dict(noise_variance=np.complex128(0.1)),
            dict(noise_variance=10**400),
            # M = 10^400 overflowed in standard_gamma, and M = 2^1023 overflowed
            # P * Gamma(M) to inf, both mid-run
            dict(m_antennas=MAX_ANTENNAS + 1),
            dict(m_antennas=2**1023),
            dict(m_antennas=10**400),
            # an offset model of the wrong type built, and the run failed later
            dict(cfo=None),
            dict(cfo="uniform"),
            dict(cfo=CfoKind.UNIFORM),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        base = dict(
            n_potential=100,
            k_active=25,
            m_antennas=32,
            noise_variance=0.1,
            cfo=CfoModel(CfoKind.UNIFORM, 0.15),
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            SystemConfig(**base)

    @pytest.mark.parametrize(
        "field,value",
        [("n_potential", 100.5), ("k_active", 2.5), ("m_antennas", 2.5), ("k_active", True)],
    )
    def test_rejects_non_integer_counts(self, field, value):
        """A float count fails at construction instead of simulating a fractional system."""
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
            dataclasses.replace(BASE_CFG, **{field: value})

    @pytest.mark.parametrize("snr_db", [10.0, -1500.0, 2990.0])
    def test_largest_array_gives_finite_entries(self, snr_db):
        """M = MAX_ANTENNAS draws and transforms cleanly at both ends of the noise range."""
        cfg = dataclasses.replace(
            BASE_CFG, m_antennas=MAX_ANTENNAS, noise_variance=snr_db_to_noise_variance(snr_db)
        )
        out = WishartDraws.empty(1, 8)
        draw_wishart([cfg], [np.random.default_rng(7330)], out, 8)
        # passes check_entries, or it raises
        bartlett_covariance(out, cfg.k_active, cfg.m_antennas, cfg.noise_variance)

    def test_accepts_numpy_integer_counts(self):
        cfg = dataclasses.replace(
            BASE_CFG, n_potential=np.int64(100), k_active=np.int32(25), m_antennas=np.uint8(32)
        )
        assert cfg == BASE_CFG
        assert all(type(v) is int for v in (cfg.n_potential, cfg.k_active, cfg.m_antennas))


class TestReceivedPilot:
    """``sample_covariance`` takes only a finite (2, M) block, M >= 1."""

    @pytest.mark.parametrize("shape", [(3, 4), (2, 0), (2,)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError, match="shape"):
            sample_covariance(np.zeros(shape, dtype=complex))

    def test_rejects_non_finite(self):
        for bad in (complex(math.nan, 0.0), complex(0.0, math.inf), -math.inf):
            samples = np.zeros((2, 4), dtype=complex)
            samples[1, 2] = bad
            with pytest.raises(ValueError, match="r2 must be finite"):
                sample_covariance(samples)


class TestGenerateReceived:
    def test_shape_and_dtype(self):
        pilot = generate_received(BASE_CFG, np.random.default_rng(20))
        assert pilot.shape == (2, 32)
        assert pilot.dtype == np.complex128

    def test_equal_seeds_give_identical_blocks(self):
        """One seed, one block: the generator is the only source of randomness."""
        a = generate_received(BASE_CFG, np.random.default_rng(21))
        b = generate_received(BASE_CFG, np.random.default_rng(21))
        np.testing.assert_array_equal(a, b)
        c = generate_received(BASE_CFG, np.random.default_rng(22))
        assert not np.array_equal(a, c)

    def test_noise_free_single_user_rows_are_proportional(self):
        """Without noise, K=1 gives y2 = e^{j omega} y1 exactly (rank-one block)."""
        cfg = SystemConfig(
            n_potential=100,
            k_active=1,
            m_antennas=16,
            noise_variance=0.1,
            cfo=CfoModel(CfoKind.UNIFORM, 0.15),
        )
        pilot = generate_received(cfg, np.random.default_rng(23), with_noise=False)
        ratio = pilot[1] / pilot[0]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)
        assert abs(ratio[0]) == pytest.approx(1.0, rel=1e-12)

    def test_noise_free_zero_users_is_silent(self):
        cfg = SystemConfig(
            n_potential=100,
            k_active=0,
            m_antennas=8,
            noise_variance=0.1,
            cfo=CfoModel(CfoKind.UNIFORM, 0.15),
        )
        pilot = generate_received(cfg, np.random.default_rng(24), with_noise=False)
        np.testing.assert_array_equal(pilot, np.zeros((2, 8), dtype=complex))

    def test_noise_only_power(self):
        """With K=0 the block is pure noise with per-entry power noise_variance."""
        cfg = SystemConfig(
            n_potential=100,
            k_active=0,
            m_antennas=64,
            noise_variance=0.5,
            cfo=CfoModel(CfoKind.UNIFORM, 0.0),
        )
        rng = np.random.default_rng(25)
        powers = [np.mean(np.abs(generate_received(cfg, rng)) ** 2) for _ in range(200)]
        mean_power = np.mean(powers)
        # 200 blocks of 128 entries; |z|^2 has mean 0.5 and std 0.5
        sigma = 0.5 / math.sqrt(200 * 128)
        assert abs(mean_power - 0.5) < 5 * sigma

    def test_received_power_matches_population_value(self):
        """Per-entry received power should average to k_active + noise_variance."""
        rng = np.random.default_rng(26)
        trials = 400
        power = np.mean(
            [np.mean(np.abs(generate_received(BASE_CFG, rng)) ** 2) for _ in range(trials)]
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
    record, drawn as one block, then ``bartlett_covariance``, as the simulation
    runs them; the record's one row, flattened."""
    draws = WishartDraws.empty(1, trials)
    draw_wishart((cfg,), [rng], draws, trials)
    block = bartlett_covariance(draws, cfg.k_active, cfg.m_antennas, cfg.noise_variance)
    return CovarianceBlock(*(entry.ravel() for entry in block))


class TestSampleWishart:
    """The Wishart sampler must have the law of the direct 2 x M model.

    Seeds and thresholds were fixed before the first run; a failure here is a
    sampler defect to investigate, never a reason to pick other seeds.
    """

    def test_moments_match_oracles(self):
        trials = 100_000
        alpha = BASE_CFG.cfo.alpha
        oracle = moment_oracles(BASE_CFG.k_active, BASE_CFG.noise_variance, alpha, BASE_CFG.m_antennas)
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

    @pytest.mark.parametrize("cfo", [CfoModel(CfoKind.UNIFORM, 0.3), CfoModel(CfoKind.GAUSSIAN, 0.3)], ids=["uniform", "gaussian"])
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
        cfg = _ks_config(1, CfoModel(CfoKind.UNIFORM, 0.3))
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
            dataclasses.replace(BASE_CFG, cfo=CfoModel(CfoKind.GAUSSIAN, 0.4), m_antennas=7),
        ]
        sizes = [37, 5, 20]
        parts = []
        for i, (cfg, size) in enumerate(zip(cfgs, sizes)):
            draws = WishartDraws.empty(1, size)
            draw_wishart((cfg,), [np.random.default_rng(7206 + i)], draws, size)
            parts.append(draws)
        joined = WishartDraws(*(np.concatenate(column, axis=-1) for column in zip(*parts)))

        def per_slot(name):
            return np.repeat([getattr(cfg, name) for cfg in cfgs], sizes)

        block = bartlett_covariance(
            joined, per_slot("k_active"), per_slot("m_antennas"), per_slot("noise_variance")
        )
        start = 0
        for i, (cfg, size) in enumerate(zip(cfgs, sizes)):
            alone = sample_wishart(cfg, size, np.random.default_rng(7206 + i))
            for entry, expected in zip(block, alone):
                assert entry.ravel()[start : start + size].tobytes() == expected.tobytes()
            start += size


def _pooled(table, smallest=5.0):
    """Merge adjacent columns of a 2-row count table, in count order, until each
    column's expected count under homogeneity is at least ``smallest`` in both
    rows; a short remainder joins the last column."""
    need = smallest * table.sum() / table.sum(axis=1).min()
    columns, current = [], np.zeros(2, dtype=np.int64)
    for column in table.T:
        current = current + column
        if current.sum() >= need:
            columns.append(current)
            current = np.zeros(2, dtype=np.int64)
    if columns:
        columns[-1] = columns[-1] + current
    else:
        columns.append(current)
    return np.array(columns).T


class TestCountLaw:
    """Count histograms of every scheme: the oracle's replay of the production
    steps against the direct 2 x M model, at the extremes of the model.

    A chi-square homogeneity test of 20,000 production counts against 4,000
    direct ones, with columns pooled to an expected count of at least 5 and
    p > 1e-3 required for every scheme.  Seeds, pooling and threshold were
    fixed before the first run; a failure is a finding to report, never a
    reason to pick other seeds.
    """

    POINTS = {
        "K=N=2,M=1": SystemConfig(2, 2, 1, 0.1, CfoModel(CfoKind.UNIFORM, 0.3)),
        "K=N=8,M=2,tiny-noise": SystemConfig(8, 8, 2, 1e-6, CfoModel(CfoKind.GAUSSIAN, 0.2)),
        "K=3,M=4,large-noise": SystemConfig(10, 3, 4, 100.0, CfoModel(CfoKind.UNIFORM, 0.15)),
        "alpha-near-limit": SystemConfig(10, 4, 8, 0.1, CfoModel(CfoKind.UNIFORM, 0.49925)),
    }

    @pytest.mark.parametrize("index,name", enumerate(POINTS), ids=list(POINTS))
    def test_histograms_match_direct_model(self, index, name):
        cfg = self.POINTS[name]
        alpha = cfg.cfo.alpha
        assert name != "alpha-near-limit" or ALPHA_MIN < alpha <= 2 * ALPHA_MIN
        schemes = tuple(Scheme)
        production = collect_estimates(cfg, schemes, 20_000, seed=7301 + index)
        rng = np.random.default_rng(np.random.SeedSequence((7302, index)))
        direct = [sample_covariance(generate_received(cfg, rng)) for _ in range(4000)]
        block = CovarianceBlock(*(np.array(entry) for entry in zip(*direct)))
        counts = estimate_counts(schemes, block, cfg.noise_variance, alpha, cfg.n_potential)
        for scheme, row in zip(schemes, counts):
            bins = np.arange(cfg.n_potential + 2)
            table = _pooled(np.array([np.histogram(production[scheme], bins)[0], np.histogram(row, bins)[0]]))
            # one column left: the counts sit on too few values to tell apart
            p = 1.0 if table.shape[1] < 2 else stats.chi2_contingency(table, correction=False).pvalue
            assert p > 1e-3, f"{scheme.value}: chi-square p = {p:.2e} over {table.shape[1]} columns"


def _drawn(cfgs, trials, seed):
    """Per-row views of the record ``draw_wishart`` fills for ``cfgs`` as one
    block, from a generator seeded ``seed``: row i's g and gammas, and the
    shared normals."""
    out = WishartDraws.empty(len(cfgs), trials)
    draw_wishart(cfgs, [np.random.default_rng(seed)], out, trials)
    return [WishartDraws(out.g[i], out.gamma_m[i], out.gamma_m1[i], out.re, out.im) for i in range(len(cfgs))]


def _same_bytes(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _slots(draws, start, stop):
    """Views of slots ``start`` up to ``stop`` of ``draws``; filling them fills ``draws``."""
    return WishartDraws(*(a[..., start:stop] for a in draws))


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

    @pytest.mark.parametrize("kind", [CfoKind.UNIFORM, CfoKind.GAUSSIAN])
    def test_one_slot_point_equals_its_draw_alone(self, kind):
        """At one slot, a point whose scale needs one user gets the phasor its
        own draw forms, from a one-element array, although the block phases
        25 users: a phasor's bits depend on its offset alone."""
        cfgs = [
            dataclasses.replace(BASE_CFG, cfo=CfoModel(kind, 0.15)),
            dataclasses.replace(BASE_CFG, k_active=1, cfo=CfoModel(kind, 0.05)),
        ]
        # the two products agree in about half the cases, so several seeds
        for seed in range(7308, 7324):
            together = _drawn(cfgs, 1, seed)
            for cfg, out in zip(cfgs, together):
                assert _same_bytes(out, _drawn([cfg], 1, seed)[0])

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
        (out,) = _drawn([dataclasses.replace(BASE_CFG, cfo=CfoModel(CfoKind.UNIFORM, 0.0))], 20, 7303)
        assert np.all(out.g == BASE_CFG.k_active)

    @pytest.mark.parametrize("chunk", [1, 300, 2**20])
    def test_chunks_change_no_bit(self, monkeypatch, chunk):
        cfgs = [BASE_CFG, dataclasses.replace(BASE_CFG, k_active=13, cfo=CfoModel(CfoKind.UNIFORM, 0.4))]
        expected = _drawn(cfgs, 40, 7304)
        monkeypatch.setattr(model, "CHUNK_DRAWS", chunk)
        for out, want in zip(_drawn(cfgs, 40, 7304), expected):
            assert _same_bytes(out, want)

    @pytest.mark.parametrize("chunk", [1, 3 * 40, 2**20])
    @pytest.mark.parametrize("kind", [CfoKind.UNIFORM, CfoKind.GAUSSIAN])
    def test_segment_sums_equal_the_user_loop(self, monkeypatch, kind, chunk):
        """Each g is, bit for bit, a loop adding the phasor rows to +0 in user
        order, with targets on, inside and past the chunk boundaries."""
        monkeypatch.setattr(model, "CHUNK_DRAWS", chunk)
        trials = 40
        ks = (1, 2, 5, 13, 25, 25)
        cfgs = [dataclasses.replace(BASE_CFG, k_active=k, cfo=CfoModel(kind, 0.15)) for k in ks]
        cfgs.append(dataclasses.replace(BASE_CFG, k_active=7, cfo=CfoModel(kind, 0.4)))
        outs = _drawn(cfgs, trials, 7307)
        rng = np.random.default_rng(7307)
        rng.standard_normal(2 * trials)
        if kind is CfoKind.UNIFORM:
            unit = rng.uniform(-1.0, 1.0, (25, trials))
        else:
            unit = rng.standard_normal((25, trials))
        for cfg, out in zip(cfgs, outs):
            scale = cfg.cfo.omega_max / (3.0 if kind is CfoKind.GAUSSIAN else 1.0)
            total = np.zeros(trials, complex)
            for phasor in model._unit_phasors(unit[: cfg.k_active], scale):
                total += phasor
            assert out.g.tobytes() == total.tobytes()

    @pytest.mark.parametrize("kind", [CfoKind.UNIFORM, CfoKind.GAUSSIAN])
    def test_antenna_points_share_all_but_gammas(self, kind):
        """Points at different M get the same g and normals from one call; the
        gammas of each M start 2^64 draws past the block's start."""
        cfgs = [
            dataclasses.replace(BASE_CFG, m_antennas=m, cfo=CfoModel(kind, 0.15)) for m in (1, 8, 32, 8, 1, 8)
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
            _drawn([BASE_CFG, dataclasses.replace(BASE_CFG, cfo=CfoModel(CfoKind.GAUSSIAN, 0.15))], 4, 7305)

    @pytest.mark.parametrize("streams", [1, 3])
    def test_rejects_a_generator_count_that_does_not_cover_the_record(self, streams):
        rngs = [np.random.default_rng(7309 + b) for b in range(streams)]
        with pytest.raises(ValueError, match="generators for 300 slots"):
            draw_wishart([BASE_CFG], rngs, WishartDraws.empty(1, 300), 256)


class TestGroupedBlocks:
    """A pass phases the offsets of several blocks together; every block's
    draws must equal, bit for bit, those it gets when drawn on its own."""

    BLOCK = 256

    @staticmethod
    def _streams(blocks, seed):
        return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,))) for b in range(blocks)]

    @pytest.mark.parametrize("chunk", [1, 2**20])
    @pytest.mark.parametrize("last", [1, 100])
    @pytest.mark.parametrize("blocks", [1, 2, 16, 32])
    @pytest.mark.parametrize("kind", [CfoKind.UNIFORM, CfoKind.GAUSSIAN])
    @pytest.mark.parametrize("k", [1, 2, 5, 13, 16, 17, 25, 33, 45])
    def test_grouped_equal_per_block(self, monkeypatch, k, kind, blocks, last, chunk):
        """Passes of 1 to 32 blocks, the last one short, at K from 1 to 45:
        groups of up to 32 blocks (K = 1), of one (K >= 17), and a short block,
        of one slot or more, that joins a group.  Two scales, one of which
        needs fewer users than the pass draws, two targets at the other, and
        two points that share M."""
        monkeypatch.setattr(model, "CHUNK_DRAWS", chunk)
        cfgs = [
            dataclasses.replace(BASE_CFG, k_active=k, m_antennas=2, cfo=CfoModel(kind, 0.15)),
            dataclasses.replace(BASE_CFG, k_active=-(-k // 2), m_antennas=8, cfo=CfoModel(kind, 0.4)),
            dataclasses.replace(BASE_CFG, k_active=-(-k // 2), m_antennas=2, cfo=CfoModel(kind, 0.15)),
        ]
        trials = (blocks - 1) * self.BLOCK + last
        seed = 7500 + k
        grouped = WishartDraws.empty(len(cfgs), trials)
        draw_wishart(cfgs, self._streams(blocks, seed), grouped, self.BLOCK)
        alone = WishartDraws.empty(len(cfgs), trials)
        for b, rng in enumerate(self._streams(blocks, seed)):
            part = _slots(alone, b * self.BLOCK, min((b + 1) * self.BLOCK, trials))
            draw_wishart(cfgs, [rng], part, self.BLOCK)
        assert _same_bytes(grouped, alone)

    @pytest.mark.parametrize("kind", [CfoKind.UNIFORM, CfoKind.GAUSSIAN])
    def test_blocks_of_one_slot(self, kind):
        """Blocks one slot wide, phased together, equal their own draws."""
        cfg = dataclasses.replace(BASE_CFG, k_active=1, cfo=CfoModel(kind, 0.15))
        grouped = WishartDraws.empty(1, 5)
        draw_wishart([cfg], self._streams(5, 7560), grouped, 1)
        alone = WishartDraws.empty(1, 5)
        for b, rng in enumerate(self._streams(5, 7560)):
            draw_wishart([cfg], [rng], _slots(alone, b, b + 1), 1)
        assert _same_bytes(grouped, alone)

    def test_groups_hold_at_most_group_draws(self, monkeypatch):
        """At K = 2, a 32-block pass phases its offsets in two groups of 16
        blocks, and 15 full blocks with a last block of one slot in one group;
        at K = 25, block by block."""
        calls = []
        real = model._unit_phasors

        def recording(unit, scale):
            calls.append(unit.size)
            return real(unit, scale)

        monkeypatch.setattr(model, "_unit_phasors", recording)
        full, one_slot = 32 * self.BLOCK, 15 * self.BLOCK + 1
        for k, trials, sizes in (
            (2, full, [2 * 16 * self.BLOCK] * 2),
            (2, one_slot, [2 * one_slot]),
            (25, full, [25 * self.BLOCK] * 32),
        ):
            calls.clear()
            cfg = dataclasses.replace(BASE_CFG, k_active=k)
            streams = self._streams(-(-trials // self.BLOCK), 7550)
            draw_wishart([cfg], streams, WishartDraws.empty(1, trials), self.BLOCK)
            assert calls == sizes
            assert max(sizes) <= model.GROUP_DRAWS


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
        omega = np.concatenate([omega, -omega, [CfoModel(CfoKind.UNIFORM, MAX_EPSILON).omega_max]])
        assert self._ulps(1.0, omega).max() <= 8.0

    @pytest.mark.parametrize("kind", [CfoKind.UNIFORM, CfoKind.GAUSSIAN])
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_one_element_equals_the_vector_call(self, kind, epsilon):
        """numpy multiplies a one-element complex array written in place without
        the fused multiply-add of its vector loop, which changed the last bit
        of about a quarter of the phasors; each must depend on its offset alone."""
        seed = 7420 + 2 * self.EPSILONS.index(epsilon) + (kind is CfoKind.GAUSSIAN)
        rng = np.random.default_rng(seed)
        cfo = CfoModel(kind, epsilon)
        if kind is CfoKind.GAUSSIAN:
            unit, scale = rng.standard_normal(1000), cfo.omega_max / 3.0
        else:
            unit, scale = rng.uniform(-1.0, 1.0, 1000), cfo.omega_max
        alone = np.concatenate([model._unit_phasors(unit[i : i + 1], scale) for i in range(unit.size)])
        assert alone.tobytes() == model._unit_phasors(unit, scale).tobytes()

    def test_table_bits_are_pinned(self):
        """The table of the unit circle, as numpy 2.4's sin and cos build it; a
        numpy whose sin or cos gives other bits moves output bytes."""
        digest = hashlib.sha256(model._TABLE.tobytes()).hexdigest()
        assert digest == "3436548cc5b3e08e502264f35a60c6370d7a7dd2e01830d1ac29e06fd09d88d7"

    def test_zero_offset_is_exactly_one(self):
        phasors = model._unit_phasors(np.zeros((2, 3)), 0.7)
        assert phasors.dtype == complex and phasors.shape == (2, 3)
        assert np.all(phasors == 1.0) and not np.any(np.signbit(phasors.imag))

    @pytest.mark.parametrize(
        "k,trials,cfo,parent_kib",
        [(25, 256, CfoModel(CfoKind.UNIFORM, 0.15), 306.4), (50, 100, CfoModel(CfoKind.GAUSSIAN, 0.15), 238.4)],
        ids=["uniform-25x256", "gaussian-50x100"],
    )
    def test_block_memory(self, k, trials, cfo, parent_kib):
        """One block's tracemalloc peak stays within 1.2x that of the np.exp path
        the kernel replaced (measured with stream 0.4.0 and numpy 2.4).  A kernel
        that keeps ten temporaries alive needs about twice as much."""
        cfg = dataclasses.replace(BASE_CFG, k_active=k, cfo=cfo)
        out = WishartDraws.empty(1, trials)
        draw_wishart((cfg,), [np.random.default_rng(7410)], out, trials)
        rng = np.random.default_rng(7410)
        tracemalloc.start()
        try:
            draw_wishart((cfg,), [rng], out, trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * parent_kib * 1024
