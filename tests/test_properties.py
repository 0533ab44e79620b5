"""Property tests over extreme configurations.

Small populations (N = 1, K = N), a single antenna, noise powers from 1e-6
to 1e8, trial counts on either side of a block boundary and the largest
seed must run cleanly: no NaN, counts inside [0, N], and rows that depend
neither on the worker count nor on the pass size.  Offsets that put the
characteristic function near a zero must stop the eig-diff scheme with exit
code 3.  Examples are derandomised so that every run checks the same cases.
"""

import contextlib
import csv
import io
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auesim import harness
from auesim.cli import main
from auesim.estimators import ALPHA_MIN, Scheme
from auesim.harness import (
    BLOCK,
    ExperimentConfig,
    SweepAxis,
    run_sweep,
)
from auesim.model import CfoKind, CfoModel, SystemConfig

from oracles import collect_estimates

PROFILE = settings(max_examples=20, deadline=None, derandomize=True, database=None)

populations = st.sampled_from([1, 2, 5, 60])
# share of the population that is active; 1.0 gives K = N
active_shares = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
antennas = st.sampled_from([1, 2, 32])
# SNR in dB over [-80, 60] is noise power sigma^2 over [1e-6, 1e8]
snrs = st.floats(-80.0, 60.0)
cfos = st.sampled_from([CfoKind.UNIFORM, CfoKind.GAUSSIAN])
epsilons = st.floats(0.0, 0.45)
trial_counts = st.sampled_from([1, BLOCK, BLOCK + 1])
seeds = st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1)


def system(n, share, m, snr_db, kind, eps):
    return SystemConfig(
        n_potential=n,
        k_active=max(1, round(share * n)),
        m_antennas=m,
        noise_variance=harness.snr_db_to_noise_variance(snr_db),
        cfo=CfoModel(kind=kind, epsilon_max=eps),
    )


@PROFILE
@example(n=1, share=1.0, m=1, snr_values=[-80.0, 60.0], kind=CfoKind.UNIFORM, eps=0.45,
         trials=BLOCK + 1, seed=2**64 - 1)
@example(n=60, share=1.0, m=1, snr_values=[60.0, -80.0, 10.0], kind=CfoKind.GAUSSIAN, eps=0.45,
         trials=BLOCK + 1, seed=0)
@given(
    n=populations,
    share=active_shares,
    m=antennas,
    snr_values=st.lists(snrs, min_size=1, max_size=3),
    kind=cfos,
    eps=epsilons,
    trials=trial_counts,
    seed=seeds,
)
def test_sweep_rows_finite_and_independent_of_workers_and_passes(
    n, share, m, snr_values, kind, eps, trials, seed
):
    config = ExperimentConfig(
        base=system(n, share, m, snr_values[0], kind, eps),
        schemes=tuple(Scheme),
        trials=trials,
        master_seed=seed,
        axis=SweepAxis.SNR_DB, values=tuple(snr_values),
        emit_theory=True,
    )
    rows = run_sweep(config)
    assert len(rows) == len(snr_values) * len(Scheme)
    for row in rows:
        assert math.isfinite(row.nrmse_sim) and row.nrmse_sim >= 0.0
        assert row.nrmse_theory is None or math.isfinite(row.nrmse_theory)
    assert run_sweep(config, workers=2) == rows
    for pass_blocks in (1, 3):
        with mock.patch.object(harness, "PASS_BLOCKS", pass_blocks):
            assert run_sweep(config) == rows


@settings(PROFILE, max_examples=40)
@example(n=1, share=1.0, m=1, snr_db=-80.0, kind=CfoKind.UNIFORM, eps=0.45, trials=BLOCK + 1,
         seed=2**64 - 1)
@example(n=5, share=1.0, m=1, snr_db=60.0, kind=CfoKind.UNIFORM, eps=0.0, trials=1, seed=2**64 - 1)
@given(
    n=populations,
    share=active_shares,
    m=antennas,
    snr_db=snrs,
    kind=cfos,
    eps=epsilons,
    trials=trial_counts,
    seed=seeds,
)
def test_counts_are_integers_within_the_population(n, share, m, snr_db, kind, eps, trials, seed):
    cfg = system(n, share, m, snr_db, kind, eps)
    counts = collect_estimates(cfg, tuple(Scheme), trials, seed)
    assert list(counts) == list(Scheme)
    for values in counts.values():
        assert values.dtype == np.int64
        assert values.shape == (trials,)
        assert values.min() >= 0 and values.max() <= n


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(PROFILE, max_examples=15)
@example(eps=0.5, n=1, m=1, snr_db=-80.0, trials=BLOCK + 1, seed=2**64 - 1)
@given(
    # alpha = sin(2 pi eps) / (2 pi eps) crosses zero at eps = 0.5 and is
    # at most ALPHA_MIN on this whole interval
    eps=st.floats(0.5 - 4e-4, 0.5 + 4e-4),
    n=populations,
    m=antennas,
    snr_db=snrs,
    trials=trial_counts,
    seed=seeds,
)
def test_alpha_near_zero_stops_eig_diff_only(eps, n, m, snr_db, trials, seed):
    assert CfoModel(CfoKind.UNIFORM, eps).alpha <= ALPHA_MIN
    argv = ["run", f"--n={n}", f"--k={n}", f"--m={m}", f"--snr-db={snr_db!r}", f"--eps-max={eps!r}",
            f"--trials={trials}", f"--seed={seed}"]
    code, out, err = _cli(argv)
    assert (code, out) == (3, "")
    assert "characteristic function too small" in err
    code, out, err = _cli(argv + ["--schemes=eig-sum,orthogonal,mle"])
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["scheme"] for row in rows] == ["eig-sum", "orthogonal", "mle"]
    assert all(math.isfinite(float(row["nrmse_sim"])) for row in rows)
