"""Tests for the Monte Carlo runner, sweep plumbing, and output writers."""

import concurrent.futures
import csv
import dataclasses
import gc
import io
import itertools
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from auesim import estimators, harness, model
from auesim.estimators import EstimatorDomainError, Scheme
from auesim.harness import (
    BLOCK,
    CSV_HEADER,
    DEFAULT_TRIALS,
    MAX_POPULATION,
    MAX_TRIALS,
    PASS_BLOCKS,
    ExperimentConfig,
    SweepAxis,
    SweepRow,
    apply_axis_value,
    run_sweep,
    snr_db_to_noise_variance,
    write_csv,
    write_json,
)
from auesim.model import CfoKind, CfoModel, SystemConfig
from auesim.theory import nrmse_eig_sum_theory

from oracles import collect_estimates, nrmse

BASE_CFG = SystemConfig(
    n_potential=100,
    k_active=25,
    m_antennas=32,
    noise_variance=0.1,
    cfo=CfoModel(CfoKind.UNIFORM, 0.15),
)
ALL_SCHEMES = (Scheme.EIG_SUM, Scheme.EIG_DIFF, Scheme.ORTHOGONAL, Scheme.MLE)


def small_config(**overrides):
    fields = dict(
        base=BASE_CFG,
        schemes=ALL_SCHEMES,
        trials=40,
        master_seed=7,
        axis=SweepAxis.ANTENNAS, values=(8.0, 16.0),
        emit_theory=True,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def squared_error_sum(counts, k_true):
    """The exact sum of squared count errors, in Python integers."""
    return sum((count - k_true) ** 2 for count in counts.tolist())


def point_nrmse(cfg, schemes, trials, seed, workers=1):
    """Per-scheme NRMSE at one operating point: the rows of its one-point sweep."""
    config = ExperimentConfig(base=cfg, schemes=tuple(schemes), trials=trials, master_seed=seed)
    return {row.scheme: row.nrmse_sim for row in run_sweep(config, workers=workers)}


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
        # a count that is not an integer gave a value: 1.2 for k_true = 2.5
        for k_true in (2.5, math.nan, "5"):
            with pytest.raises(ValueError, match="k_true must be an integer"):
                nrmse([5, 5], k_true)

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

    def test_trial_bound(self):
        """10^30 trials overflowed ``len`` of the block range mid-run; at the
        bound the block count still fits, and the last block evaluates."""
        with pytest.raises(ValueError, match=r"trials must lie in \[1, MAX_TRIALS = 2\*\*63 - 1\]"):
            small_config(trials=MAX_TRIALS + 1)
        config = small_config(trials=MAX_TRIALS)
        blocks = range(-(-MAX_TRIALS // BLOCK))
        assert len(blocks) == 2**55
        sums = harness._evaluate_blocks(config, blocks[-1:])
        assert sums.shape == (len(ALL_SCHEMES), 2)

    def test_totals_exact_past_int64(self):
        """At the bound, 40k trials of K=1 at -80 dB square-sum past 2^63; the
        NRMSE still equals the one of the exact integer sum."""
        cfg = SystemConfig(
            n_potential=MAX_POPULATION,
            k_active=1,
            m_antennas=1,
            noise_variance=snr_db_to_noise_variance(-80.0),
            cfo=CfoModel(CfoKind.UNIFORM, 0.15),
        )
        trials = 40_000
        counts = collect_estimates(cfg, (Scheme.EIG_SUM,), trials, 7)[Scheme.EIG_SUM]
        exact = squared_error_sum(counts, 1)
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


def block_rngs(calls):
    """The generators of every block the recorded draws covered, in order."""
    return [rng for _, rngs, _, _ in calls for rng in rngs]


def seed_keys(calls):
    """The (entropy, spawn key) of the seed sequence behind each recorded block."""
    seqs = [rng.bit_generator.seed_seq for rng in block_rngs(calls)]
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
        calls.clear()
        assert run_sweep(config) == first
        assert seed_keys(calls) == [(123, (0,)), (123, (1,))]

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
            states += [rng.bit_generator.seed_seq.generate_state(4).tobytes() for rng in block_rngs(calls)]
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
        config = small_config(axis=axis, values=values, trials=2 * BLOCK + 50)
        run_sweep(config)
        # one pass: a call takes the generators of all its blocks
        assert len(calls) == 1
        assert seed_keys(calls) == [(7, (0,)), (7, (1,)), (7, (2,))]
        for cfgs, _, _, block in calls:
            assert list(cfgs) == [apply_axis_value(BASE_CFG, axis, v) for v in values]
            assert block == BLOCK
        assert [out.g.shape for _, _, out, _ in calls] == [(len(values), 2 * BLOCK + 50)]

    def test_antenna_sweep_draws_each_block_once(self, monkeypatch):
        """One call per block covers every M point, repeated M included."""
        calls = record_draws(monkeypatch)
        values = (1.0, 2.0, 8.0, 2.0)
        run_sweep(small_config(axis=SweepAxis.ANTENNAS, values=values, trials=BLOCK + 9))
        assert seed_keys(calls) == [(7, (0,)), (7, (1,))]
        assert [[cfg.m_antennas for cfg in cfgs] for cfgs, _, _, _ in calls] == [[1, 2, 8, 2]]
        assert [out.g.shape for _, _, out, _ in calls] == [(4, BLOCK + 9)]

    def test_rows_equal_at_any_pass_size(self, monkeypatch):
        """Every row equals, bit for bit, the one-point run of its configuration,
        at any pass size, worker count and offset chunk size: pass boundaries
        that split a block's points or the sweep's points change no row.  Each
        sweep ends on a short block, and the 35 points of the epsilon sweep do
        not fill a whole number of 32-point passes.  At K <= 5 a full pass of
        the last sweep phases its 16 blocks in groups of 6, 6 and 4."""
        sweeps = [
            (SweepAxis.SNR_DB, (-5.0, 20.0, 0.0, 10.0), 2 * BLOCK + 5),
            (SweepAxis.ACTIVE_USERS, (25.0, 5.0, 15.0, 5.0), 3 * BLOCK + 5),
            (SweepAxis.EPSILON_MAX, [i / 100 for i in range(35)], BLOCK + 3),
            (SweepAxis.ACTIVE_USERS, (5.0, 2.0), 16 * BLOCK + 5),
        ]
        pools = fake_pool(monkeypatch)
        limit_cpus(monkeypatch, 64, 64)
        for axis, values, trials in sweeps:
            config = small_config(axis=axis, values=values, trials=trials)
            expected = tuple(
                dataclasses.replace(row, axis=axis.value, axis_value=value)
                for value, cfg in zip(config.axis_values, config.points)
                for row in run_sweep(dataclasses.replace(config, base=cfg, axis=SweepAxis.NONE, values=()))
            )
            pools.clear()
            for pass_blocks, workers, chunk in itertools.product((1, 2, 3, 32), (1, 2), (1, 2**20)):
                monkeypatch.setattr(harness, "PASS_BLOCKS", pass_blocks)
                monkeypatch.setattr(model, "CHUNK_DRAWS", chunk)
                assert run_sweep(config, workers=workers) == expected, (pass_blocks, workers, chunk)
            assert pools == [2] * 8

    def test_antenna_rows_equal_at_any_pass_size_and_workers(self, monkeypatch):
        """An M point drawn apart from the rest of its block, in another pass or
        worker, gets the same gammas, normals and offsets."""
        config = small_config(
            axis=SweepAxis.ANTENNAS, values=(8.0, 1.0, 8.0, 32.0),
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
    """The per-trial oracle ``reference.collect_estimates``, and runs whose worker
    count changes no row."""

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
        """A run asked for several workers gives the serial rows bit for bit."""
        serial = point_nrmse(BASE_CFG, ALL_SCHEMES, 101, seed=9)
        assert point_nrmse(BASE_CFG, ALL_SCHEMES, 101, seed=9, workers=workers) == serial

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_over_several_blocks_matches_serial(self, workers):
        """Four blocks, the last one short, split over a real process pool: the
        rows are the serial ones, and those score the oracle's counts."""
        trials = 3 * BLOCK + 17
        serial = point_nrmse(BASE_CFG, ALL_SCHEMES, trials, seed=9)
        assert point_nrmse(BASE_CFG, ALL_SCHEMES, trials, seed=9, workers=workers) == serial
        counts = collect_estimates(BASE_CFG, ALL_SCHEMES, trials, seed=9)
        for scheme in ALL_SCHEMES:
            assert counts[scheme].shape == (trials,)
            assert serial[scheme] == nrmse(counts[scheme], BASE_CFG.k_active)

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
        out = point_nrmse(BASE_CFG, (Scheme.ORTHOGONAL,), trials, seed=12, workers=workers)
        assert pools == ([] if expected is None else [expected])
        assert out == point_nrmse(BASE_CFG, (Scheme.ORTHOGONAL,), trials, seed=12)

    def test_worker_clamp_without_affinity_call(self, monkeypatch):
        """Where the platform has no ``os.sched_getaffinity``, the cpu count binds."""
        pools = fake_pool(monkeypatch)
        limit_cpus(monkeypatch, None, 2)
        point_nrmse(BASE_CFG, (Scheme.ORTHOGONAL,), 20_000, seed=12, workers=64)
        assert pools == [2]

    def test_sweep_starts_one_pool(self, monkeypatch):
        """A sweep clamps against its block count and starts one pool for all
        points, each worker taking a range of blocks."""
        pools = fake_pool(monkeypatch)
        limit_cpus(monkeypatch, 64, 64)
        config = small_config(
            axis=SweepAxis.ANTENNAS, values=(4.0, 8.0, 16.0), trials=2 * BLOCK + 5
        )
        pooled = run_sweep(config, workers=10_000)
        assert pools == [3]
        assert pooled == run_sweep(config)
        assert pools == [3]

    def test_one_block_sweep_starts_no_pool(self, monkeypatch):
        """Workers split a sweep by blocks, so a sweep of one block runs serially,
        however many points and workers it has."""
        pools = fake_pool(monkeypatch)
        limit_cpus(monkeypatch, 64, 64)
        config = small_config(axis=SweepAxis.ANTENNAS, values=(4.0, 8.0, 16.0))
        assert config.trials <= BLOCK
        pooled = run_sweep(config, workers=10_000)
        assert pools == []
        assert pooled == run_sweep(config)

    def test_serial_run_skips_cpu_count(self, monkeypatch):
        """A serial run asks neither for the affinity set nor for the cpu count."""

        def ask(*args):
            raise AssertionError("a serial run asked for the usable cpus")

        monkeypatch.setattr(os, "sched_getaffinity", ask, raising=False)
        monkeypatch.setattr(os, "cpu_count", ask)
        point_nrmse(BASE_CFG, ALL_SCHEMES, 3 * BLOCK, seed=1)

    def test_more_workers_than_trials(self):
        serial = point_nrmse(BASE_CFG, (Scheme.MLE,), 3, seed=10)
        assert point_nrmse(BASE_CFG, (Scheme.MLE,), 3, seed=10, workers=8) == serial

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


class TestTotalsMatchOracle:
    """The runner's exact squared-error sums equal, at every point, those of the
    per-trial counts that ``reference.collect_estimates`` forms block by block,
    without passes, phasor groups or a pool.  Blocks of K <= 16 are phased in
    groups and blocks of K >= 17 alone; 1, 257 and 769 trials give a lone
    one-slot block, a one-slot last block and a short last block."""

    SWEEPS = [
        *((SweepAxis.NONE, (), k) for k in (1, 2, 16, 17, 25, 45)),
        (SweepAxis.ANTENNAS, (8.0, 1.0, 8.0, 32.0), 2),
        (SweepAxis.ACTIVE_USERS, (1.0, 2.0, 16.0, 17.0, 25.0, 45.0), 25),
        (SweepAxis.EPSILON_MAX, (0.0, 0.15, 0.3), 16),
    ]

    @pytest.mark.parametrize("trials", [1, 257, 769])
    @pytest.mark.parametrize("kind", [CfoKind.UNIFORM, CfoKind.GAUSSIAN])
    @pytest.mark.parametrize("axis,values,k", SWEEPS)
    def test_sums_equal_oracle(self, monkeypatch, axis, values, k, kind, trials):
        base = dataclasses.replace(BASE_CFG, k_active=k, cfo=CfoModel(kind, 0.15))
        config = small_config(base=base, axis=axis, values=values, trials=trials, master_seed=trials + k)
        oracle = [collect_estimates(cfg, config.schemes, trials, config.master_seed) for cfg in config.points]
        expected = [
            [squared_error_sum(point[scheme], cfg.k_active) for cfg, point in zip(config.points, oracle)]
            for scheme in config.schemes
        ]
        pools = fake_pool(monkeypatch)
        limit_cpus(monkeypatch, 64, 64)
        for pass_blocks, workers in itertools.product((1, 3, 32), (1, 2)):
            monkeypatch.setattr(harness, "PASS_BLOCKS", pass_blocks)
            sums = harness._evaluate(config, workers).tolist()
            assert sums == expected, (pass_blocks, workers)
            assert all(type(total) is int for row in sums for total in row)
        assert pools == ([2] * 3 if trials > BLOCK else [])


class TestRunPoint:
    """A single operating point, run as a one-point sweep."""

    def test_keys_follow_requested_schemes(self):
        out = point_nrmse(BASE_CFG, (Scheme.MLE, Scheme.EIG_SUM), 30, seed=2)
        assert list(out) == [Scheme.MLE, Scheme.EIG_SUM]

    def test_one_sample_per_trial_shared_by_schemes(self, monkeypatch):
        """Each trial is drawn once, from one generator per (seed, block), and all
        schemes are counted in one call on one (1, trials) covariance block."""
        trials = 2 * BLOCK + 50
        read = []
        real_statistics = estimators.statistics

        def recording_statistics(schemes, cov, noise_variance, alpha):
            read.append((schemes, cov))
            return real_statistics(schemes, cov, noise_variance, alpha)

        monkeypatch.setattr(estimators, "statistics", recording_statistics)
        draws = record_draws(monkeypatch)
        point_nrmse(BASE_CFG, ALL_SCHEMES, trials, seed=5)
        assert [out.g.shape for _, _, out, _ in draws] == [(1, trials)]
        assert seed_keys(draws) == [(5, (0,)), (5, (1,)), (5, (2,))]
        assert len({id(rng) for rng in block_rngs(draws)}) == 3
        assert [schemes for schemes, _ in read] == [ALL_SCHEMES]
        assert all(entry.shape == (1, trials) for entry in read[0][1])

    def test_matches_nrmse_of_collected_estimates(self):
        estimates = collect_estimates(BASE_CFG, (Scheme.EIG_SUM,), 200, seed=3)
        out = point_nrmse(BASE_CFG, (Scheme.EIG_SUM,), 200, seed=3)
        assert out[Scheme.EIG_SUM] == nrmse(estimates[Scheme.EIG_SUM], BASE_CFG.k_active)

    def test_tracks_theory_at_reference_point(self):
        """A moderate run should land within 5% of the closed-form value, any seed."""
        alpha = BASE_CFG.cfo.alpha
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
    # each axis also by its spelling: "snr" gave K = 20 at the base noise, and "m" swept K
    @pytest.mark.parametrize("axis", [SweepAxis.EPSILON_MAX, "epsilon"])
    def test_epsilon(self, axis):
        cfg = apply_axis_value(BASE_CFG, axis, 0.3)
        assert cfg.cfo.epsilon_max == 0.3
        assert cfg.cfo.kind is BASE_CFG.cfo.kind
        assert cfg.m_antennas == BASE_CFG.m_antennas

    @pytest.mark.parametrize("axis", [SweepAxis.ANTENNAS, "m"])
    def test_antennas(self, axis):
        cfg = apply_axis_value(BASE_CFG, axis, 64.0)
        assert (cfg.m_antennas, cfg.k_active) == (64, BASE_CFG.k_active)

    @pytest.mark.parametrize("axis", [SweepAxis.SNR_DB, "snr"])
    def test_snr(self, axis):
        cfg = apply_axis_value(BASE_CFG, axis, 20.0)
        assert cfg.noise_variance == pytest.approx(0.01, rel=1e-12)
        assert cfg.k_active == BASE_CFG.k_active

    @pytest.mark.parametrize("axis", [SweepAxis.ACTIVE_USERS, "k"])
    def test_active_users(self, axis):
        assert apply_axis_value(BASE_CFG, axis, 45.0).k_active == 45

    @pytest.mark.parametrize("axis", [SweepAxis.NONE, "none"])
    def test_none_returns_base(self, axis):
        assert apply_axis_value(BASE_CFG, axis, None) is BASE_CFG

    @pytest.mark.parametrize("axis", ["bogus", "K", None])
    def test_rejects_unknown_axis(self, axis):
        with pytest.raises(ValueError):
            apply_axis_value(BASE_CFG, axis, 1.0)

    # M = 32.5 was truncated to 32, inf raised OverflowError, and the strings
    # and True were read as numbers
    @pytest.mark.parametrize(
        "axis,value,message",
        [
            ("m", 32.5, "axis 'm' takes integer values, got 32.5"),
            ("m", math.inf, "axis 'm' takes integer values, got inf"),
            ("k", math.nan, "axis 'k' takes integer values, got nan"),
            ("k", "25", "sweep value must be a real number, got '25'"),
            ("k", True, "sweep value must be a real number, got True"),
            ("epsilon", "0.2", "sweep value must be a real number, got '0.2'"),
            ("snr", None, "sweep value must be a real number, got None"),
        ],
    )
    def test_rejects_bad_values(self, axis, value, message):
        with pytest.raises(ValueError, match=message):
            apply_axis_value(BASE_CFG, axis, value)

    def test_snr_conversion_helper(self):
        assert snr_db_to_noise_variance(10.0) == pytest.approx(0.1, rel=1e-12)
        assert snr_db_to_noise_variance(0.0) == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(ValueError):
            snr_db_to_noise_variance(math.nan)
        # "10" gave 0.1
        for bad in ("10", True, None):
            with pytest.raises(ValueError, match="snr_db must be a real number"):
                snr_db_to_noise_variance(bad)

    def test_snr_past_the_float_range_is_a_value_error(self):
        """An integer too large for a float gave ``OverflowError`` from ``math.isfinite``."""
        for snr_db in (10**400, -(10**400)):
            with pytest.raises(ValueError, match="snr_db must be finite"):
                snr_db_to_noise_variance(snr_db)


class TestExperimentConfig:
    def test_single_point_takes_no_values(self):
        assert ExperimentConfig(base=BASE_CFG, schemes=ALL_SCHEMES).values == ()
        assert small_config(axis=SweepAxis.NONE, values=()).values == ()
        with pytest.raises(ValueError, match="axis 'none' takes no sweep values"):
            small_config(axis=SweepAxis.NONE, values=(1.0,))

    def test_axes_need_values(self):
        with pytest.raises(ValueError, match="axis 'm' needs at least one value"):
            small_config(axis=SweepAxis.ANTENNAS, values=())

    @pytest.mark.parametrize(
        "axis,values,message",
        [
            (SweepAxis.ANTENNAS, (2.5,), "axis 'm' takes integer values, got 2.5"),
            (SweepAxis.ACTIVE_USERS, (7.5,), "axis 'k' takes integer values, got 7.5"),
            (SweepAxis.SNR_DB, (math.inf,), "sweep values must be finite, got inf"),
            # the string "64" swept M = 6 and M = 4, and ("16", "64") swept M = 16 and 64
            (SweepAxis.ANTENNAS, "64", "values must be a sequence, got '64'"),
            (SweepAxis.ANTENNAS, b"64", "values must be a sequence, got b'64'"),
            (SweepAxis.ANTENNAS, ("16", "64"), "sweep values must be a real number, got '16'"),
            (SweepAxis.ACTIVE_USERS, (True,), "sweep values must be a real number, got True"),
            # these raised TypeError
            (SweepAxis.ANTENNAS, 64, "values must be a sequence, got 64"),
            (SweepAxis.ANTENNAS, None, "values must be a sequence, got None"),
        ],
    )
    def test_rejects_bad_value_shapes(self, axis, values, message):
        with pytest.raises(ValueError, match=message):
            small_config(axis=axis, values=values)

    def test_rejects_sweep_value_past_the_float_range(self):
        """An integer too large for a float gave ``OverflowError`` from ``float()``."""
        with pytest.raises(ValueError, match="sweep values must be finite"):
            small_config(axis=SweepAxis.SNR_DB, values=(10.0, 10**400))

    def test_rejects_duplicate_schemes(self):
        with pytest.raises(ValueError):
            small_config(schemes=(Scheme.MLE, Scheme.MLE))

    # Scheme.EIG_SUM and None raised TypeError, and "eig-sum" was read letter by letter
    @pytest.mark.parametrize(
        "schemes,message",
        [
            ((), "at least one scheme is required"),
            ("eig-sum", "schemes must be a sequence, got 'eig-sum'"),
            (Scheme.EIG_SUM, "schemes must be a sequence, got <Scheme.EIG_SUM"),
            (None, "schemes must be a sequence, got None"),
        ],
    )
    def test_rejects_empty_schemes(self, schemes, message):
        with pytest.raises(ValueError, match=message):
            small_config(schemes=schemes)

    # "no" printed the theory column
    @pytest.mark.parametrize("emit_theory", ["no", 1, None, np.True_])
    def test_rejects_a_theory_flag_that_is_not_a_bool(self, emit_theory):
        with pytest.raises(ValueError, match="emit_theory must be a bool"):
            small_config(emit_theory=emit_theory)

    def test_rejects_bad_trials_and_seed(self):
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError):
            small_config(master_seed=-1)
        with pytest.raises(ValueError):
            small_config(master_seed=2**64)

    # trials=True ran one trial, and master_seed=True seeded 1
    @pytest.mark.parametrize(
        "field,value", [("trials", 300.5), ("master_seed", 1.5), ("trials", True), ("master_seed", True)]
    )
    def test_rejects_non_integer_counts(self, field, value):
        """A float count fails at construction, not from ``range`` or ``SeedSequence`` mid-run."""
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
            small_config(**{field: value})

    def test_accepts_numpy_integer_counts(self):
        config = small_config(trials=np.int64(40), master_seed=np.uint64(7))
        assert type(config.trials) is int and type(config.master_seed) is int
        assert run_sweep(config) == run_sweep(small_config())

    def test_rejects_zero_active_users(self):
        base = SystemConfig(
            n_potential=10, k_active=0, m_antennas=4, noise_variance=0.1, cfo=CfoModel(CfoKind.UNIFORM, 0.0)
        )
        with pytest.raises(ValueError):
            small_config(base=base, axis=SweepAxis.NONE, values=())

    @pytest.mark.parametrize(
        "axis,value",
        [
            (SweepAxis.ANTENNAS, 0.0),
            (SweepAxis.ACTIVE_USERS, 0.0),
            (SweepAxis.EPSILON_MAX, -0.1),
            # an unknown axis swept K: "bogus" built a K = 1 point
            ("bogus", 1.0),
            ("K", 5.0),
            (None, 5.0),
        ],
    )
    def test_rejects_bad_values(self, axis, value):
        """Out-of-range sweep values fail when the config builds their point."""
        with pytest.raises(ValueError):
            small_config(axis=axis, values=(value,))

    @pytest.mark.parametrize(
        "base", [None, "uniform", CfoModel(CfoKind.UNIFORM, 0.15), dataclasses.asdict(BASE_CFG)]
    )
    def test_rejects_a_base_that_is_not_a_system_config(self, base):
        """``base=None`` raised ``AttributeError`` from the population check."""
        with pytest.raises(ValueError, match="base must be a SystemConfig"):
            small_config(base=base)

    def test_checks_active_users_at_every_point(self):
        """K >= 1 is required of each point, not of the base: a K sweep replaces the base K."""
        base = dataclasses.replace(BASE_CFG, k_active=0)
        config = small_config(base=base, axis=SweepAxis.ACTIVE_USERS, values=(5.0, 10.0))
        assert [cfg.k_active for cfg in config.points] == [5, 10]
        with pytest.raises(ValueError, match="k_active must be >= 1"):
            small_config(axis=SweepAxis.ACTIVE_USERS, values=(5.0, 0.0))
        with pytest.raises(ValueError, match="k_active must be >= 1"):
            small_config(base=base, axis=SweepAxis.SNR_DB, values=(10.0,))

    def test_points_follow_the_sweep(self):
        config = small_config(axis=SweepAxis.SNR_DB, values=(0.0, 10.0))
        assert config.axis_values == (0.0, 10.0)
        assert config.points == tuple(apply_axis_value(BASE_CFG, SweepAxis.SNR_DB, v) for v in (0.0, 10.0))
        single = small_config(axis=SweepAxis.NONE, values=())
        assert single.axis_values == (None,)
        assert single.points == (BASE_CFG,)

    @pytest.mark.parametrize(
        "axis,values",
        [
            (SweepAxis.NONE, ()),
            (SweepAxis.ANTENNAS, (1.0, 8.0)),
            (SweepAxis.SNR_DB, (0.0, 10.0)),
            (SweepAxis.ACTIVE_USERS, (5.0, 25.0)),
            (SweepAxis.EPSILON_MAX, (0.0, 0.15, 0.5)),
        ],
    )
    @pytest.mark.parametrize("kind", [CfoKind.UNIFORM, CfoKind.GAUSSIAN])
    def test_points_share_the_base_offset_model(self, axis, values, kind):
        """Only an epsilon sweep makes offset models; every other axis keeps the
        base's, so its alpha is computed once per run."""
        base = dataclasses.replace(BASE_CFG, cfo=CfoModel(kind, 0.15))
        config = small_config(base=base, axis=axis, values=values)
        if axis is SweepAxis.EPSILON_MAX:
            assert [cfg.cfo for cfg in config.points] == [CfoModel(kind, v) for v in values]
        else:
            assert all(cfg.cfo is base.cfo for cfg in config.points)
        assert all(type(cfg.cfo.alpha) is float for cfg in config.points)

    def test_undefined_scheme_fails_in_the_run(self):
        """A point where eig-diff is undefined builds; the runner and the
        per-trial oracle both refuse it with an error that names the point."""
        config = small_config(
            axis=SweepAxis.EPSILON_MAX, values=(0.15, 0.5), schemes=(Scheme.EIG_DIFF,), trials=5
        )
        assert config.points[1].cfo.alpha <= estimators.ALPHA_MIN
        with pytest.raises(EstimatorDomainError, match="epsilon = 0.5: characteristic function too small"):
            run_sweep(config)
        with pytest.raises(EstimatorDomainError, match="single point: characteristic function too small"):
            collect_estimates(config.points[1], config.schemes, config.trials, config.master_seed)
        collect_estimates(config.points[0], config.schemes, config.trials, config.master_seed)

    def test_rejects_axis_values_invalid_for_base(self):
        """Active-user values above the population must fail at construction."""
        with pytest.raises(ValueError):
            small_config(axis=SweepAxis.ACTIVE_USERS, values=(5.0, 200.0))


def equal_reals(value):
    """``value`` as a numpy float32, as the float64 and as the Python number of that float32."""
    single = np.float32(value)
    python = int(single) if float(single).is_integer() else float(single)
    return (single, np.float64(single), python)


class TestRealInputs:
    """Every real input is stored as a Python float, so a numpy float32, a float64
    and the Python number of equal value give identical rows and theory values,
    and none of them warns.  A float32 epsilon gave a float32 alpha and another
    theory column, and a float32 noise power warned of an overflowing cast."""

    @staticmethod
    def rows_of(**overrides):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_sweep(small_config(**overrides))

    @pytest.mark.parametrize("kind", list(CfoKind))
    def test_epsilon(self, kind):
        bases = [dataclasses.replace(BASE_CFG, cfo=CfoModel(kind, eps)) for eps in equal_reals(0.15)]
        assert all(type(base.cfo.epsilon_max) is float and type(base.cfo.alpha) is float for base in bases)
        rows = [self.rows_of(base=base) for base in bases]
        assert rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize("snr_db", [10.0, -3.0])
    def test_noise_power_and_base_snr(self, snr_db):
        powers = [snr_db_to_noise_variance(snr) for snr in equal_reals(snr_db)]
        powers += [np.float32(powers[0]), np.float64(np.float32(powers[0])), float(np.float32(powers[0]))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bases = [dataclasses.replace(BASE_CFG, noise_variance=power) for power in powers]
        assert all(type(base.noise_variance) is float for base in bases)
        assert bases[0] == bases[1] == bases[2] and bases[3] == bases[4] == bases[5]
        for group in (bases[:3], bases[3:]):
            rows = [self.rows_of(base=base) for base in group]
            assert rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize(
        "axis,values",
        [
            (SweepAxis.EPSILON_MAX, (0.05, 0.2)),
            (SweepAxis.ANTENNAS, (16, 64)),
            (SweepAxis.SNR_DB, (0.0, 7.5)),
            (SweepAxis.ACTIVE_USERS, (5, 40)),
        ],
    )
    def test_sweep_values(self, axis, values):
        forms = list(zip(*map(equal_reals, values)))
        rows = [self.rows_of(axis=axis, values=form) for form in forms]
        assert rows[0] == rows[1] == rows[2]
        assert all(type(row.axis_value) is float for row in rows[0])
        points = [apply_axis_value(BASE_CFG, axis, value) for value in equal_reals(values[0])]
        assert points[0] == points[1] == points[2]

    def test_theory(self):
        alpha = CfoModel(CfoKind.UNIFORM, 0.15).alpha
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [
                nrmse_eig_sum_theory(25, 32, noise, a)
                for noise, a in zip(equal_reals(0.1), equal_reals(alpha))
            ]
        assert values[0] == values[1] == values[2]
        assert values[2] == nrmse_eig_sum_theory(25, 32, float(np.float32(0.1)), float(np.float32(alpha)))


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
            axis=SweepAxis.SNR_DB, values=(0.0, 10.0),
            schemes=(Scheme.EIG_SUM,),
        )
        result = run_sweep(config)
        alpha = BASE_CFG.cfo.alpha
        assert result[0].nrmse_theory == pytest.approx(
            nrmse_eig_sum_theory(25, 32, 1.0, alpha), rel=1e-12
        )
        assert result[1].nrmse_theory == pytest.approx(
            nrmse_eig_sum_theory(25, 32, 0.1, alpha), rel=1e-12
        )

    def test_rejects_non_integer_workers(self):
        """``workers=1.5`` passed the domain check and then failed with ``TypeError`` in ``range``."""
        with pytest.raises(ValueError, match="workers must be an integer, got 1.5"):
            run_sweep(small_config(), workers=1.5)
        assert run_sweep(small_config(), workers=np.int64(2)) == run_sweep(small_config())

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, workers):
        """Zero or negative workers ran serially, where the CLI's ``--workers 0`` exits 2."""
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_sweep(small_config(), workers=workers)

    @pytest.mark.parametrize(
        "axis,values",
        [
            (SweepAxis.NONE, ()),
            (SweepAxis.ANTENNAS, (16.0, 64.0)),
            (SweepAxis.SNR_DB, (0.0, 20.0)),
            (SweepAxis.ACTIVE_USERS, (5.0, 45.0)),
            (SweepAxis.EPSILON_MAX, (0.0, 0.3)),
        ],
    )
    def test_spelled_axis_gives_the_member_rows(self, axis, values):
        """An axis given as its spelling swept K: ``axis="m"`` built K = 16 and
        K = 64 at M = 32, and ``run_sweep`` then raised ``AttributeError``."""
        member = small_config(axis=axis, values=values, trials=300)
        spelled = small_config(axis=axis.value, values=values, trials=300)
        assert spelled.axis is axis
        assert spelled == member
        assert spelled.points == member.points
        assert run_sweep(spelled) == run_sweep(member)

    @pytest.mark.parametrize("kind", list(CfoKind))
    def test_spelled_cfo_kind_gives_the_member_rows(self, kind):
        """A kind given as its spelling simulated uniform offsets under the Gaussian alpha."""
        rows = {}
        for given in (kind, kind.value):
            base = dataclasses.replace(BASE_CFG, cfo=CfoModel(given, 0.15))
            config = ExperimentConfig(base=base, schemes=ALL_SCHEMES, trials=300, master_seed=4)
            rows[given] = run_sweep(config)
        assert rows[kind] == rows[kind.value]

    def test_no_theory_when_not_requested(self):
        result = run_sweep(small_config(emit_theory=False))
        assert all(row.nrmse_theory is None for row in result)

    def test_single_point_row(self):
        config = small_config(axis=SweepAxis.NONE, values=(), schemes=(Scheme.EIG_SUM,))
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
                axis=axis, values=values,
            )
            result = run_sweep(config)
            for index, value in enumerate(values):
                cfg = apply_axis_value(config.base, axis, value)
                redone = point_nrmse(cfg, config.schemes, config.trials, config.master_seed)
                assert redone[Scheme.MLE] == result[index].nrmse_sim, (axis, value)

    def test_domain_error_names_offending_axis_value(self):
        """eig-diff cannot run where the characteristic function vanishes."""
        config = small_config(
            axis=SweepAxis.EPSILON_MAX, values=(0.15, 0.5),
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
        alpha = BASE_CFG.cfo.alpha
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
            axis=SweepAxis.SNR_DB, values=(0.0, 5.0, 10.0, 15.0, 20.0),
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
            axis=SweepAxis.ANTENNAS, values=(16.0, 32.0, 64.0, 128.0),
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

    EDGE_ROWS = (
        SweepRow("snr", -0.0, Scheme.MLE, math.nan, -math.inf, 1, 2**64 - 1),
        SweepRow("snr", 1e6, Scheme.EIG_SUM, math.inf, 5e-324, 2, 3),
        SweepRow("epsilon", 0.15, Scheme.EIG_DIFF, 1e16, 1e22, 4, 0),
        SweepRow("snr", -7.5, Scheme.ORTHOGONAL, 0.1 + 0.2, -0.0, 5, 6),
        SweepRow("k", 1e22, Scheme.MLE, -0.0, None, 7, 8),
    )

    @staticmethod
    def payload(row):
        """The row as the object ``json.dumps`` takes: fields in CSV order, an
        integral axis value as an int."""
        axis_value = row.axis_value
        if axis_value is not None and float(axis_value).is_integer():
            axis_value = int(axis_value)
        return {
            "axis": row.axis,
            "axis_value": axis_value,
            "scheme": row.scheme.value,
            "nrmse_sim": row.nrmse_sim,
            "nrmse_theory": row.nrmse_theory,
            "trials": row.trials,
            "seed": row.seed,
        }

    @pytest.mark.parametrize("count", [0, 1, 4, 5, 9])
    def test_json_bytes_equal_indented_dumps(self, count):
        """The row template gives the bytes of ``json.dumps(..., indent=2)``."""
        rows = (*GOLDEN_ROWS, *self.EDGE_ROWS)[:count]
        buf = io.StringIO()
        write_json(rows, buf)
        assert buf.getvalue() == json.dumps([self.payload(row) for row in rows], indent=2) + "\n"

    @pytest.mark.parametrize("count", [0, 1, 4, 5, 9])
    def test_csv_bytes_equal_csv_writer(self, count):
        """The row template gives the bytes of ``csv.writer``, which wrote the rows before it."""
        rows = (*GOLDEN_ROWS, *self.EDGE_ROWS)[:count]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            theory = "" if row.nrmse_theory is None else format(row.nrmse_theory, "#.9g")
            writer.writerow([row.axis, harness._format_axis_value(row.axis_value), row.scheme.value,
                             format(row.nrmse_sim, "#.9g"), theory, str(row.trials), str(row.seed)])
        buf = io.StringIO()
        write_csv(rows, buf)
        assert buf.getvalue() == expected.getvalue()

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
