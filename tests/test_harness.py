"""Tests for the Monte Carlo runner, sweep plumbing, and output writers."""

import concurrent.futures
import dataclasses
import gc
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from auesim import estimators, harness, model
from auesim.estimators import EstimatorDomainError, Scheme, characteristic_function
from auesim.harness import (
    BLOCK,
    CSV_HEADER,
    DEFAULT_TRIALS,
    MAX_POPULATION,
    PASS_BLOCKS,
    ExperimentConfig,
    SweepAxis,
    SweepRow,
    SweepSpec,
    apply_axis_value,
    collect_estimates,
    run_sweep,
    snr_db_to_noise_variance,
    write_csv,
    write_json,
)
from auesim.model import CfoKind, CfoModel, SystemConfig
from auesim.reference import nrmse
from auesim.theory import nrmse_eig_sum_theory

BASE_CFG = SystemConfig(
    n_potential=100,
    k_active=25,
    m_antennas=32,
    noise_variance=0.1,
    cfo=CfoModel.uniform(0.15),
)
ALL_SCHEMES = (Scheme.EIG_SUM, Scheme.EIG_DIFF, Scheme.ORTHOGONAL, Scheme.MLE)


def small_config(**overrides):
    fields = dict(
        base=BASE_CFG,
        schemes=ALL_SCHEMES,
        trials=40,
        master_seed=7,
        sweep=SweepSpec(axis=SweepAxis.ANTENNAS, values=(8.0, 16.0)),
        emit_theory=True,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def point_nrmse(cfg, schemes, trials, seed):
    """Per-scheme NRMSE at one operating point: the rows of its one-point sweep."""
    config = ExperimentConfig(base=cfg, schemes=tuple(schemes), trials=trials, master_seed=seed)
    return {row.scheme: row.nrmse_sim for row in run_sweep(config)}


class TestNrmse:
    def test_perfect_estimates(self):
        assert nrmse([25, 25, 25], 25) == 0.0

    def test_symmetric_unit_errors(self):
        assert nrmse([24, 26], 25) == pytest.approx(0.04, rel=1e-14)

    def test_direct_arithmetic(self):
        assert nrmse([20, 30, 25, 25], 25) == pytest.approx(math.sqrt(12.5) / 25.0, rel=1e-14)

    def test_accepts_numpy_arrays(self):
        assert nrmse(np.array([24, 26], dtype=np.int64), 25) == pytest.approx(0.04, rel=1e-14)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            nrmse([], 25)

    def test_rejects_zero_truth(self):
        with pytest.raises(ValueError):
            nrmse([1, 2], 0)

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            nrmse(np.array([24.0, 26.0]), 25)

    def test_exact_where_int64_squares_overflow(self):
        # four errors of 2^31 square-sum to 2^64, which int64 wraps to 0
        assert nrmse(np.full(4, 2**31 + 1, dtype=np.int64), 1) == 2.0**31
        # a single error of 4e9 squares past 2^63 on its own
        assert nrmse(np.array([4_000_000_001], dtype=np.int64), 1) == 4e9


class TestErrorSumBound:
    """Squared-error sums stay exact: population sizes whose int64 pass sums
    could wrap are rejected up front, and totals over passes cannot wrap."""

    def test_bound_keeps_a_full_pass_exact(self):
        assert PASS_BLOCKS * BLOCK * MAX_POPULATION**2 < 2**63
        assert PASS_BLOCKS * BLOCK * (MAX_POPULATION + 1) ** 2 >= 2**63

    def test_rejects_population_above_bound(self):
        cfg = dataclasses.replace(BASE_CFG, n_potential=MAX_POPULATION + 1)
        with pytest.raises(ValueError, match="MAX_POPULATION"):
            small_config(base=cfg)
        for run in (point_nrmse, collect_estimates):
            with pytest.raises(ValueError, match="MAX_POPULATION"):
                run(cfg, (Scheme.EIG_SUM,), 10, 7)

    def test_totals_exact_past_int64(self):
        """At the bound, 40k trials of K=1 at -80 dB square-sum past 2^63; the
        NRMSE still equals the one of the exact integer sum."""
        cfg = SystemConfig(
            n_potential=MAX_POPULATION,
            k_active=1,
            m_antennas=1,
            noise_variance=snr_db_to_noise_variance(-80.0),
            cfo=CfoModel.uniform(0.15),
        )
        trials = 40_000
        counts = collect_estimates(cfg, (Scheme.EIG_SUM,), trials, 7)[Scheme.EIG_SUM]
        exact = sum((count - 1) ** 2 for count in counts.tolist())
        assert exact > 2**63
        expected = math.sqrt(float(exact) / trials)
        assert point_nrmse(cfg, (Scheme.EIG_SUM,), trials, 7)[Scheme.EIG_SUM] == expected
        assert nrmse(counts, 1) == expected


def record_draws(monkeypatch):
    """Wrap ``model.draw_wishart``; returns the list of the arguments of every call."""
    calls = []
    real_draw = model.draw_wishart

    def recording_draw(*args):
        calls.append(args)
        real_draw(*args)

    monkeypatch.setattr(model, "draw_wishart", recording_draw)
    return calls


def seed_keys(calls):
    """The (entropy, spawn key) of the seed sequence behind each recorded draw."""
    seqs = [rng.bit_generator.seed_seq for _, rng, _ in calls]
    return [(seq.entropy, seq.spawn_key) for seq in seqs]


class TestPointSeed:
    """Every point of a run is seeded with the run's master seed, and block b of
    every point draws from ``SeedSequence(master seed, spawn_key=(b,))``."""

    def test_deterministic(self, monkeypatch):
        calls = record_draws(monkeypatch)
        config = small_config(trials=BLOCK + 1, master_seed=123)
        first = run_sweep(config)
        # both M points of a block draw from one generator, block-major
        assert seed_keys(calls) == [(123, (0,)), (123, (1,))]
        assert run_sweep(config) == first
        assert seed_keys(calls[2:]) == seed_keys(calls[:2])

    def test_distinct_across_indices_and_masters(self, monkeypatch):
        calls = record_draws(monkeypatch)
        firsts = set()
        for master in range(8):
            calls.clear()
            point_nrmse(BASE_CFG, (Scheme.MLE,), 8 * BLOCK, seed=master)
            assert seed_keys(calls) == [(master, (block,)) for block in range(8)]
        for master in range(8):
            for block in range(8):
                rng = np.random.default_rng(np.random.SeedSequence(master, spawn_key=(block,)))
                firsts.add(rng.standard_normal())
        assert len(firsts) == 64

    def test_unsigned_64_bit(self, monkeypatch):
        calls = record_draws(monkeypatch)
        for seed in (0, 2**64 - 1):
            calls.clear()
            run_sweep(small_config(master_seed=seed, trials=5))
            assert set(seed_keys(calls)) == {(seed, (0,))}
        with pytest.raises(ValueError):
            small_config(master_seed=2**64)

    def test_blocks_never_collide_across_master_seeds(self, monkeypatch):
        """Seeding with the pair (seed, block) zero-pads the words of both, so
        block 3 of seed 5 was block 0 of seed 3*2^32 + 5, and block 0 of a seed
        was the plain generator of that seed."""
        colliding = 3 * 2**32 + 5
        late = collect_estimates(BASE_CFG, (Scheme.EIG_SUM,), 4 * BLOCK, seed=5)[Scheme.EIG_SUM]
        early = collect_estimates(BASE_CFG, (Scheme.EIG_SUM,), BLOCK, seed=colliding)[Scheme.EIG_SUM]
        assert not np.array_equal(late[3 * BLOCK :], early)
        calls = record_draws(monkeypatch)
        states = []
        for seed in (0, 1, 5, 2**32, 2**32 + 1, colliding, 2**64 - 1):
            calls.clear()
            point_nrmse(BASE_CFG, (Scheme.MLE,), 12 * BLOCK, seed=seed)
            states += [rng.bit_generator.seed_seq.generate_state(4).tobytes() for _, rng, _ in calls]
            states.append(np.random.SeedSequence(seed).generate_state(4).tobytes())
        assert len(states) == 7 * 13
        assert len(set(states)) == len(states)


class TestSharedDraws:
    """Every point of a block shares its draws; only the gammas depend on M."""

    @pytest.mark.parametrize(
        "axis,values",
        [
            (SweepAxis.SNR_DB, (-5.0, 0.0, 5.0, 10.0, 20.0)),
            (SweepAxis.ACTIVE_USERS, (5.0, 15.0, 25.0)),
            (SweepAxis.EPSILON_MAX, (0.0, 0.1, 0.25)),
        ],
    )
    def test_sweep_draws_each_block_once(self, monkeypatch, axis, values):
        calls = record_draws(monkeypatch)
        config = small_config(sweep=SweepSpec(axis=axis, values=values), trials=2 * BLOCK + 50)
        run_sweep(config)
        assert len(calls) == 3
        assert seed_keys(calls) == [(7, (0,)), (7, (1,)), (7, (2,))]
        for cfgs, _, _ in calls:
            assert list(cfgs) == [apply_axis_value(BASE_CFG, axis, v) for v in values]
        sizes = [[out.g.size for out in outs] for _, _, outs in calls]
        assert sizes == [[BLOCK] * len(values)] * 2 + [[50] * len(values)]

    def test_antenna_sweep_draws_each_block_once(self, monkeypatch):
        """One call per block covers every M point, repeated M included."""
        calls = record_draws(monkeypatch)
        values = (1.0, 2.0, 8.0, 2.0)
        run_sweep(small_config(sweep=SweepSpec(axis=SweepAxis.ANTENNAS, values=values), trials=BLOCK + 9))
        assert seed_keys(calls) == [(7, (0,)), (7, (1,))]
        assert [[cfg.m_antennas for cfg in cfgs] for cfgs, _, _ in calls] == [[1, 2, 8, 2]] * 2
        assert [[out.g.size for out in outs] for _, _, outs in calls] == [[BLOCK] * 4, [9] * 4]

    def test_rows_equal_at_any_pass_size(self, monkeypatch):
        """Pass boundaries that split a block's points change no row."""
        config = small_config(
            sweep=SweepSpec(axis=SweepAxis.ACTIVE_USERS, values=(25.0, 5.0, 15.0)),
            trials=3 * BLOCK + 5,
        )
        expected = run_sweep(config)
        for pass_blocks in (1, 2, 4):
            monkeypatch.setattr(harness, "PASS_BLOCKS", pass_blocks)
            assert run_sweep(config) == expected

    def test_antenna_rows_equal_at_any_pass_size_and_workers(self, monkeypatch):
        """An M point drawn apart from the rest of its block, in another pass or
        worker, gets the same gammas, normals and offsets."""
        config = small_config(
            sweep=SweepSpec(axis=SweepAxis.ANTENNAS, values=(8.0, 1.0, 8.0, 32.0)),
            trials=2 * BLOCK + 5,
        )
        expected = run_sweep(config)
        assert run_sweep(config, workers=2) == expected
        for pass_blocks in (1, 2, 3):
            monkeypatch.setattr(harness, "PASS_BLOCKS", pass_blocks)
            assert run_sweep(config) == expected


def limit_cpus(monkeypatch, allowed, count):
    """Make the affinity set ``allowed`` cpus large, or absent as on platforms
    without ``os.sched_getaffinity`` when None, and the cpu count ``count``."""
    if allowed is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(allowed)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def fake_pool(monkeypatch):
    """Replace the process pool by one that runs each task at submit; returns the
    list of the worker counts of the pools started."""
    pools = []

    class FakeFuture:
        def __init__(self, value):
            self.value = value

        def result(self):
            return self.value

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            return FakeFuture(fn(*args))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return pools


class TestCollectEstimates:
    def test_reproducible(self):
        a = collect_estimates(BASE_CFG, ALL_SCHEMES, 60, seed=5)
        b = collect_estimates(BASE_CFG, ALL_SCHEMES, 60, seed=5)
        for scheme in ALL_SCHEMES:
            np.testing.assert_array_equal(a[scheme], b[scheme])

    def test_seed_changes_output(self):
        a = collect_estimates(BASE_CFG, (Scheme.EIG_SUM,), 60, seed=5)
        b = collect_estimates(BASE_CFG, (Scheme.EIG_SUM,), 60, seed=6)
        assert not np.array_equal(a[Scheme.EIG_SUM], b[Scheme.EIG_SUM])

    def test_estimates_are_bounded_integers(self):
        out = collect_estimates(BASE_CFG, ALL_SCHEMES, 80, seed=8)
        for scheme in ALL_SCHEMES:
            values = out[scheme]
            assert values.dtype == np.int64
            assert values.shape == (80,)
            assert np.all((values >= 0) & (values <= BASE_CFG.n_potential))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_does_not_change_results(self, workers):
        """Chunked parallel execution must agree with the serial loop trial by trial."""
        serial = collect_estimates(BASE_CFG, ALL_SCHEMES, 101, seed=9)
        parallel = collect_estimates(BASE_CFG, ALL_SCHEMES, 101, seed=9, workers=workers)
        for scheme in ALL_SCHEMES:
            np.testing.assert_array_equal(serial[scheme], parallel[scheme])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_over_several_blocks_matches_serial(self, workers):
        """Four blocks, the last one short, split over a real process pool."""
        trials = 3 * BLOCK + 17
        serial = collect_estimates(BASE_CFG, ALL_SCHEMES, trials, seed=9)
        parallel = collect_estimates(BASE_CFG, ALL_SCHEMES, trials, seed=9, workers=workers)
        for scheme in ALL_SCHEMES:
            assert serial[scheme].shape == (trials,)
            np.testing.assert_array_equal(serial[scheme], parallel[scheme])

    @pytest.mark.parametrize(
        "trials,workers,cpus,expected",
        [
            (20_000, 10_000, 2, 2),  # usable cpus bind
            (20_000, 10_000, 1, None),  # one usable cpu: no pool at all
            (3 * BLOCK + 17, 10_000, 64, 4),  # block count binds
            (20_000, 3, 64, 3),  # the request binds
            (BLOCK, 8, 64, None),  # one block: no pool at all
            (20_000, 4, None, None),  # unknown cpu count counts as one
        ],
    )
    def test_worker_clamp(self, monkeypatch, trials, workers, cpus, expected):
        """The pool never gets more workers than blocks or usable CPUs, and its block
        ranges reassemble the serial result; the fake pool starts no process.

        ``cpus`` is the size of the affinity set, as under ``taskset``, and the
        cpu count reads four times more: the count used to set the limit, so
        ``--workers 64`` started 64 processes where one or two cpus were
        allowed.  None stands for a platform without ``os.sched_getaffinity``
        and an unknown cpu count."""
        pools = fake_pool(monkeypatch)
        limit_cpus(monkeypatch, cpus, None if cpus is None else 4 * cpus)
        out = collect_estimates(BASE_CFG, (Scheme.ORTHOGONAL,), trials, seed=12, workers=workers)
        assert pools == ([] if expected is None else [expected])
        serial = collect_estimates(BASE_CFG, (Scheme.ORTHOGONAL,), trials, seed=12)
        np.testing.assert_array_equal(out[Scheme.ORTHOGONAL], serial[Scheme.ORTHOGONAL])

    def test_worker_clamp_without_affinity_call(self, monkeypatch):
        """Where the platform has no ``os.sched_getaffinity``, the cpu count binds."""
        pools = fake_pool(monkeypatch)
        limit_cpus(monkeypatch, None, 2)
        collect_estimates(BASE_CFG, (Scheme.ORTHOGONAL,), 20_000, seed=12, workers=64)
        assert pools == [2]

    def test_sweep_starts_one_pool(self, monkeypatch):
        """A sweep clamps against its total block count and starts one pool for all
        points, even when every point fits in one block."""
        pools = fake_pool(monkeypatch)
        limit_cpus(monkeypatch, 64, 64)
        config = small_config(sweep=SweepSpec(axis=SweepAxis.ANTENNAS, values=(4.0, 8.0, 16.0)))
        pooled = run_sweep(config, workers=10_000)
        assert pools == [3]
        assert pooled == run_sweep(config)
        assert pools == [3]

    def test_serial_run_skips_cpu_count(self, monkeypatch):
        """A serial run asks neither for the affinity set nor for the cpu count."""

        def ask(*args):
            raise AssertionError("a serial run asked for the usable cpus")

        monkeypatch.setattr(os, "sched_getaffinity", ask, raising=False)
        monkeypatch.setattr(os, "cpu_count", ask)
        point_nrmse(BASE_CFG, ALL_SCHEMES, 3 * BLOCK, seed=1)

    def test_more_workers_than_trials(self):
        serial = collect_estimates(BASE_CFG, (Scheme.MLE,), 3, seed=10)
        parallel = collect_estimates(BASE_CFG, (Scheme.MLE,), 3, seed=10, workers=8)
        np.testing.assert_array_equal(serial[Scheme.MLE], parallel[Scheme.MLE])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            collect_estimates(BASE_CFG, (), 10, seed=1)
        with pytest.raises(ValueError):
            collect_estimates(BASE_CFG, (Scheme.MLE,), 0, seed=1)

    def test_rejects_duplicate_schemes(self):
        """A repeated scheme is an error, as in a sweep, not a silently shorter result."""
        with pytest.raises(ValueError, match="duplicate schemes"):
            collect_estimates(BASE_CFG, (Scheme.MLE, Scheme.MLE), 10, seed=1)

    def test_rejects_seed_past_64_bits(self):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            collect_estimates(BASE_CFG, (Scheme.MLE,), 10, seed=2**64)

    def test_rejects_zero_active_users(self):
        cfg = dataclasses.replace(BASE_CFG, k_active=0)
        with pytest.raises(ValueError, match="k_active must be >= 1"):
            collect_estimates(cfg, (Scheme.MLE,), 10, seed=1)


class TestRunPoint:
    """A single operating point, run as a one-point sweep."""

    def test_keys_follow_requested_schemes(self):
        out = point_nrmse(BASE_CFG, (Scheme.MLE, Scheme.EIG_SUM), 30, seed=2)
        assert list(out) == [Scheme.MLE, Scheme.EIG_SUM]

    def test_one_sample_per_trial_shared_by_schemes(self, monkeypatch):
        """Each trial is drawn once, from one generator per (seed, block), and all
        schemes read the same covariance arrays."""
        trials = 2 * BLOCK + 50
        read = {}
        for scheme, real_statistic in list(estimators._STATISTICS.items()):

            def recording_statistic(cov, ctx, scheme=scheme, real_statistic=real_statistic):
                read.setdefault(scheme, []).append(cov)
                return real_statistic(cov, ctx)

            monkeypatch.setitem(estimators._STATISTICS, scheme, recording_statistic)
        draws = record_draws(monkeypatch)
        point_nrmse(BASE_CFG, ALL_SCHEMES, trials, seed=5)
        assert [[out.g.size for out in outs] for _, _, outs in draws] == [[BLOCK], [BLOCK], [50]]
        assert seed_keys(draws) == [(5, (0,)), (5, (1,)), (5, (2,))]
        assert len({id(rng) for _, rng, _ in draws}) == len(draws)
        assert list(read) == list(ALL_SCHEMES)
        assert all(len(calls) == 1 for calls in read.values())
        covs = [calls[0] for calls in read.values()]
        assert covs[0].r1.shape == (trials,)
        for cov in covs[1:]:
            assert all(entry is first for entry, first in zip(cov, covs[0]))

    def test_matches_nrmse_of_collected_estimates(self):
        estimates = collect_estimates(BASE_CFG, (Scheme.EIG_SUM,), 200, seed=3)
        out = point_nrmse(BASE_CFG, (Scheme.EIG_SUM,), 200, seed=3)
        assert out[Scheme.EIG_SUM] == nrmse(estimates[Scheme.EIG_SUM], BASE_CFG.k_active)

    def test_tracks_theory_at_reference_point(self):
        """A moderate run should land within 5% of the closed-form value, any seed."""
        alpha = characteristic_function(BASE_CFG.cfo)
        expected = nrmse_eig_sum_theory(25, 32, 0.1, alpha)
        out = point_nrmse(BASE_CFG, (Scheme.EIG_SUM,), 5000, seed=31)
        assert out[Scheme.EIG_SUM] == pytest.approx(expected, rel=0.05)


class TestMemory:
    def test_peak_does_not_grow_with_trials(self):
        """A run holds one pass at a time, so 8x the pass size peaks like 2x."""

        def peak(trials):
            tracemalloc.start()
            try:
                point_nrmse(BASE_CFG, ALL_SCHEMES, trials, seed=41)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pass_trials = PASS_BLOCKS * BLOCK
        small, large = peak(2 * pass_trials), peak(8 * pass_trials)
        assert large <= 1.25 * small, (small, large)

    def test_peak_does_not_grow_with_active_users(self):
        """Offsets are drawn and phased in chunks, so one block at K = 2^14 peaks
        like one at K = 2^12."""

        def peak(k_active):
            cfg = dataclasses.replace(BASE_CFG, n_potential=2**14, k_active=k_active)
            tracemalloc.start()
            try:
                point_nrmse(cfg, ALL_SCHEMES, BLOCK, seed=43)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2**12), peak(2**14)
        assert large <= 1.25 * small, (small, large)


class TestApplyAxisValue:
    def test_epsilon(self):
        cfg = apply_axis_value(BASE_CFG, SweepAxis.EPSILON_MAX, 0.3)
        assert cfg.cfo.epsilon_max == 0.3
        assert cfg.cfo.kind is BASE_CFG.cfo.kind
        assert cfg.m_antennas == BASE_CFG.m_antennas

    def test_antennas(self):
        assert apply_axis_value(BASE_CFG, SweepAxis.ANTENNAS, 64.0).m_antennas == 64

    def test_snr(self):
        cfg = apply_axis_value(BASE_CFG, SweepAxis.SNR_DB, 20.0)
        assert cfg.noise_variance == pytest.approx(0.01, rel=1e-12)

    def test_active_users(self):
        assert apply_axis_value(BASE_CFG, SweepAxis.ACTIVE_USERS, 45.0).k_active == 45

    def test_none_returns_base(self):
        assert apply_axis_value(BASE_CFG, SweepAxis.NONE, None) is BASE_CFG

    def test_snr_conversion_helper(self):
        assert snr_db_to_noise_variance(10.0) == pytest.approx(0.1, rel=1e-12)
        assert snr_db_to_noise_variance(0.0) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError):
            snr_db_to_noise_variance(math.nan)


class TestSweepSpec:
    def test_single_point_takes_no_values(self):
        assert SweepSpec.single_point().values == ()
        with pytest.raises(ValueError):
            SweepSpec(axis=SweepAxis.NONE, values=(1.0,))

    def test_axes_need_values(self):
        with pytest.raises(ValueError):
            SweepSpec(axis=SweepAxis.ANTENNAS, values=())

    @pytest.mark.parametrize(
        "axis,value",
        [
            (SweepAxis.ANTENNAS, 2.5),
            (SweepAxis.ACTIVE_USERS, 7.5),
            (SweepAxis.SNR_DB, math.inf),
        ],
    )
    def test_rejects_bad_values(self, axis, value):
        with pytest.raises(ValueError):
            SweepSpec(axis=axis, values=(value,))


class TestExperimentConfig:
    def test_rejects_duplicate_schemes(self):
        with pytest.raises(ValueError):
            small_config(schemes=(Scheme.MLE, Scheme.MLE))

    def test_rejects_empty_schemes(self):
        with pytest.raises(ValueError):
            small_config(schemes=())

    def test_rejects_bad_trials_and_seed(self):
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError):
            small_config(master_seed=-1)
        with pytest.raises(ValueError):
            small_config(master_seed=2**64)

    def test_rejects_zero_active_users(self):
        base = SystemConfig(
            n_potential=10, k_active=0, m_antennas=4, noise_variance=0.1, cfo=CfoModel.uniform(0.0)
        )
        with pytest.raises(ValueError):
            small_config(base=base, sweep=SweepSpec.single_point())

    @pytest.mark.parametrize(
        "axis,value",
        [(SweepAxis.ANTENNAS, 0.0), (SweepAxis.ACTIVE_USERS, 0.0), (SweepAxis.EPSILON_MAX, -0.1)],
    )
    def test_rejects_bad_values(self, axis, value):
        """Out-of-range sweep values fail when the config builds their point."""
        with pytest.raises(ValueError):
            small_config(sweep=SweepSpec(axis=axis, values=(value,)))

    def test_checks_active_users_at_every_point(self):
        """K >= 1 is required of each point, not of the base: a K sweep replaces the base K."""
        base = dataclasses.replace(BASE_CFG, k_active=0)
        config = small_config(base=base, sweep=SweepSpec(axis=SweepAxis.ACTIVE_USERS, values=(5.0, 10.0)))
        assert [cfg.k_active for cfg in config.points] == [5, 10]
        with pytest.raises(ValueError, match="k_active must be >= 1"):
            small_config(sweep=SweepSpec(axis=SweepAxis.ACTIVE_USERS, values=(5.0, 0.0)))
        with pytest.raises(ValueError, match="k_active must be >= 1"):
            small_config(base=base, sweep=SweepSpec(axis=SweepAxis.SNR_DB, values=(10.0,)))

    def test_points_follow_the_sweep(self):
        config = small_config(sweep=SweepSpec(axis=SweepAxis.SNR_DB, values=(0.0, 10.0)))
        assert config.axis_values == (0.0, 10.0)
        assert config.points == tuple(apply_axis_value(BASE_CFG, SweepAxis.SNR_DB, v) for v in (0.0, 10.0))
        single = small_config(sweep=SweepSpec.single_point())
        assert single.axis_values == (None,)
        assert single.points == (BASE_CFG,)

    def test_rejects_axis_values_invalid_for_base(self):
        """Active-user values above the population must fail at construction."""
        with pytest.raises(ValueError):
            small_config(sweep=SweepSpec(axis=SweepAxis.ACTIVE_USERS, values=(5.0, 200.0)))


class TestRunSweep:
    def test_row_grid_and_order(self):
        config = small_config()
        result = run_sweep(config)
        assert len(result) == 2 * len(ALL_SCHEMES)
        assert [row.axis_value for row in result] == [8.0] * 4 + [16.0] * 4
        assert [row.scheme for row in result[:4]] == list(ALL_SCHEMES)
        assert all(row.axis == "m" for row in result)
        assert all(row.trials == 40 and row.seed == 7 for row in result)

    def test_theory_only_on_eig_sum_rows(self):
        result = run_sweep(small_config())
        for row in result:
            if row.scheme is Scheme.EIG_SUM:
                assert row.nrmse_theory is not None
            else:
                assert row.nrmse_theory is None

    def test_theory_column_tracks_the_point_config(self):
        config = small_config(
            sweep=SweepSpec(axis=SweepAxis.SNR_DB, values=(0.0, 10.0)),
            schemes=(Scheme.EIG_SUM,),
        )
        result = run_sweep(config)
        alpha = characteristic_function(BASE_CFG.cfo)
        assert result[0].nrmse_theory == pytest.approx(
            nrmse_eig_sum_theory(25, 32, 1.0, alpha), rel=1e-12
        )
        assert result[1].nrmse_theory == pytest.approx(
            nrmse_eig_sum_theory(25, 32, 0.1, alpha), rel=1e-12
        )

    def test_no_theory_when_not_requested(self):
        result = run_sweep(small_config(emit_theory=False))
        assert all(row.nrmse_theory is None for row in result)

    def test_single_point_row(self):
        config = small_config(sweep=SweepSpec.single_point(), schemes=(Scheme.EIG_SUM,))
        result = run_sweep(config)
        assert len(result) == 1
        assert result[0].axis == "none"
        assert result[0].axis_value is None

    def test_rows_reproducible_from_point_seed(self):
        """Documented contract: a row is the one-point run of its configuration at the master seed."""
        for axis, values in [
            (SweepAxis.ANTENNAS, (1.0, 8.0, 16.0)),
            (SweepAxis.SNR_DB, (0.0, 10.0)),
            (SweepAxis.ACTIVE_USERS, (40.0, 1.0, 25.0)),
            (SweepAxis.EPSILON_MAX, (0.25, 0.0)),
        ]:
            config = small_config(
                schemes=(Scheme.MLE,), emit_theory=False, trials=BLOCK + 3,
                sweep=SweepSpec(axis=axis, values=values),
            )
            result = run_sweep(config)
            for index, value in enumerate(values):
                cfg = apply_axis_value(config.base, axis, value)
                redone = point_nrmse(cfg, config.schemes, config.trials, config.master_seed)
                assert redone[Scheme.MLE] == result[index].nrmse_sim, (axis, value)

    def test_domain_error_names_offending_axis_value(self):
        """eig-diff cannot run where the characteristic function vanishes."""
        config = small_config(
            sweep=SweepSpec(axis=SweepAxis.EPSILON_MAX, values=(0.15, 0.5)),
            schemes=(Scheme.EIG_DIFF,),
            trials=5,
            emit_theory=False,
        )
        with pytest.raises(EstimatorDomainError, match="epsilon = 0.5"):
            run_sweep(config)


class TestDeterminism:
    def test_identical_configs_give_identical_results(self):
        config = small_config()
        assert run_sweep(config) == run_sweep(config)

    def test_csv_bytes_identical_across_runs_and_workers(self):
        config = small_config(trials=120)
        outputs = []
        for workers in (1, 1, 2, 4):
            buf = io.StringIO()
            write_csv(run_sweep(config, workers=workers), buf)
            outputs.append(buf.getvalue())
        assert len(set(outputs)) == 1

    def test_different_master_seeds_differ(self):
        a = run_sweep(small_config(master_seed=1))
        b = run_sweep(small_config(master_seed=2))
        assert a != b


class TestStatisticalBehaviour:
    def test_gap_to_theory_shrinks_with_trials(self):
        """Quadrupling trials should roughly halve the theory-simulation gap."""
        alpha = characteristic_function(BASE_CFG.cfo)
        expected = nrmse_eig_sum_theory(25, 32, 0.1, alpha)
        gaps = {trials: [] for trials in (400, 1600)}
        for seed in range(12):
            for trials in gaps:
                out = point_nrmse(BASE_CFG, (Scheme.EIG_SUM,), trials, seed=9000 + seed)
                gaps[trials].append(out[Scheme.EIG_SUM] - expected)
        rms = {t: math.sqrt(np.mean(np.square(g))) for t, g in gaps.items()}
        assert rms[1600] < rms[400]
        assert 1.2 < rms[400] / rms[1600] < 3.4

    def test_nrmse_flat_across_high_snr(self):
        """Noise is a small part of the eig-sum error budget at high SNR."""
        config = ExperimentConfig(
            base=BASE_CFG,
            schemes=(Scheme.EIG_SUM,),
            trials=5000,
            master_seed=17,
            sweep=SweepSpec(axis=SweepAxis.SNR_DB, values=(0.0, 5.0, 10.0, 15.0, 20.0)),
        )
        values = [row.nrmse_sim for row in run_sweep(config)]
        high = values[2:]
        assert (max(high) - min(high)) / min(high) < 0.10

    def test_nrmse_decreases_with_antennas(self):
        config = ExperimentConfig(
            base=BASE_CFG,
            schemes=(Scheme.EIG_SUM,),
            trials=2000,
            master_seed=23,
            sweep=SweepSpec(axis=SweepAxis.ANTENNAS, values=(16.0, 32.0, 64.0, 128.0)),
        )
        values = [row.nrmse_sim for row in run_sweep(config)]
        assert all(a > b for a, b in zip(values, values[1:]))


GOLDEN_ROWS = (
    SweepRow(
        axis="m",
        axis_value=32.0,
        scheme=Scheme.EIG_SUM,
        nrmse_sim=0.16561354395,
        nrmse_theory=0.16561354395046848,
        trials=20000,
        seed=7,
    ),
    SweepRow(
        axis="m",
        axis_value=32.0,
        scheme=Scheme.ORTHOGONAL,
        nrmse_sim=0.25,
        nrmse_theory=None,
        trials=20000,
        seed=7,
    ),
    SweepRow(
        axis="epsilon",
        axis_value=0.15,
        scheme=Scheme.EIG_DIFF,
        nrmse_sim=2.0,
        nrmse_theory=None,
        trials=3,
        seed=7,
    ),
    SweepRow(
        axis="none",
        axis_value=None,
        scheme=Scheme.MLE,
        nrmse_sim=0.0125,
        nrmse_theory=None,
        trials=10,
        seed=0,
    ),
)

GOLDEN_CSV = (
    "axis,axis_value,scheme,nrmse_sim,nrmse_theory,trials,seed\n"
    "m,32,eig-sum,0.165613544,0.165613544,20000,7\n"
    "m,32,orthogonal,0.250000000,,20000,7\n"
    "epsilon,0.150000000,eig-diff,2.00000000,,3,7\n"
    "none,,mle,0.0125000000,,10,0\n"
)


class TestWriters:
    def test_csv_golden(self):
        buf = io.StringIO()
        write_csv(GOLDEN_ROWS, buf)
        assert buf.getvalue() == GOLDEN_CSV

    def test_csv_header(self):
        assert GOLDEN_CSV.splitlines()[0] == ",".join(CSV_HEADER)

    def test_csv_floats_carry_nine_significant_digits(self):
        buf = io.StringIO()
        write_csv(GOLDEN_ROWS, buf)
        for line in buf.getvalue().splitlines()[1:]:
            sim = line.split(",")[3]
            digits = sum(c.isdigit() for c in sim.split("e")[0])
            # a leading "0." contributes one non-significant digit
            assert digits >= 9

    def test_json_round_trip(self):
        buf = io.StringIO()
        write_json(GOLDEN_ROWS, buf)
        payload = json.loads(buf.getvalue())
        assert [row["scheme"] for row in payload] == ["eig-sum", "orthogonal", "eig-diff", "mle"]
        assert payload[0]["axis_value"] == 32
        assert isinstance(payload[0]["axis_value"], int)
        assert payload[2]["axis_value"] == pytest.approx(0.15)
        assert payload[3]["axis_value"] is None
        assert payload[1]["nrmse_theory"] is None
        assert payload[0]["nrmse_theory"] == pytest.approx(0.16561354395046848, rel=1e-15)
        assert list(payload[0]) == list(CSV_HEADER)

    @pytest.mark.parametrize("count", [0, 1, 4, 5])
    def test_json_bytes_equal_indented_dumps(self, count):
        """The row-at-a-time writer gives the bytes of ``json.dumps(..., indent=2)``."""
        edge = SweepRow("snr", -0.0, Scheme.MLE, math.nan, -math.inf, 1, 2**64 - 1)
        rows = (*GOLDEN_ROWS, edge)[:count]
        buf = io.StringIO()
        write_json(rows, buf)
        assert buf.getvalue() == json.dumps([harness._row_payload(row) for row in rows], indent=2) + "\n"

    def test_json_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(10):
                write_json(GOLDEN_ROWS, io.StringIO())
            gc.collect()
            assert gc.garbage == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    def test_default_trials_constant(self):
        assert DEFAULT_TRIALS == 20_000
