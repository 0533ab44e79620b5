"""Acceptance suite: end-to-end checks at fixed operating points and tolerances.

Each test prints one `[PASS]`/`[FAIL]` line with the measured numbers (shown
under `pytest -s`, or automatically for failing tests) and asserts the same
condition.  Seeds are fixed constants chosen up front; nothing here is tuned
to a particular draw.
"""

import io
import math
import time

import numpy as np
import pytest

from auesim.estimators import (
    Scheme,
    multiplication_count,
    statistics,
)
from auesim.harness import (
    ExperimentConfig,
    SweepAxis,
    run_sweep,
    write_csv,
)
from auesim.model import CfoModel, SystemConfig
from auesim.theory import nrmse_eig_sum_theory

from oracles import (
    collect_estimates,
    eigenvalues,
    generate_received,
    moment_oracles,
    nrmse,
    sample_covariance,
)

BASE_CFG = SystemConfig(
    n_potential=100,
    k_active=25,
    m_antennas=32,
    noise_variance=0.1,
    cfo=CfoModel.uniform(0.15),
)
GAUSSIAN_CFG = SystemConfig(
    n_potential=100,
    k_active=25,
    m_antennas=32,
    noise_variance=0.1,
    cfo=CfoModel.gaussian(0.15),
)
ALL_SCHEMES = (Scheme.EIG_SUM, Scheme.EIG_DIFF, Scheme.ORTHOGONAL, Scheme.MLE)
TRIALS = 20_000


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _squared_errors(estimates, k_true):
    return (estimates.astype(np.int64) - k_true) ** 2


def _ordering_margin(err_sq_better, err_sq_worse, k_true):
    """NRMSE(worse) - NRMSE(better) and its standard error, for paired samples."""
    trials = err_sq_better.size
    mse_b = err_sq_better.mean()
    mse_w = err_sq_worse.mean()
    grad_b = 1.0 / (2.0 * k_true * math.sqrt(mse_b))
    grad_w = 1.0 / (2.0 * k_true * math.sqrt(mse_w))
    cov = np.cov(err_sq_better, err_sq_worse, ddof=1) / trials
    variance = grad_w**2 * cov[1, 1] + grad_b**2 * cov[0, 0] - 2.0 * grad_b * grad_w * cov[0, 1]
    margin = math.sqrt(mse_w) / k_true - math.sqrt(mse_b) / k_true
    return margin, math.sqrt(max(variance, 1e-300))


@pytest.fixture(scope="module")
def reference_estimates():
    """All four schemes on shared covariances at the reference operating point."""
    return collect_estimates(BASE_CFG, ALL_SCHEMES, TRIALS, seed=303)


def test_criterion_1_reference_point_nrmse_and_runtime():
    config = ExperimentConfig(base=BASE_CFG, schemes=(Scheme.EIG_SUM,), trials=TRIALS, master_seed=101)
    start = time.perf_counter()
    (row,) = run_sweep(config)
    elapsed = time.perf_counter() - start
    value = row.nrmse_sim
    ok = 0.1573 <= value <= 0.1739 and elapsed < 10.0
    _report(
        "criterion 1: reference-point eig-sum NRMSE",
        ok,
        f"nrmse={value:.6f} (band [0.1573, 0.1739]), runtime={elapsed:.2f}s (limit 10s)",
    )
    assert 0.1573 <= value <= 0.1739
    assert elapsed < 10.0


def test_criterion_2_antenna_scaling():
    config = ExperimentConfig(
        base=BASE_CFG,
        schemes=(Scheme.EIG_SUM,),
        trials=TRIALS,
        master_seed=202,
        axis=SweepAxis.ANTENNAS, values=(16.0, 32.0, 64.0, 128.0),
        emit_theory=True,
    )
    rows = run_sweep(config)
    ratios = {int(row.axis_value): row.nrmse_sim / row.nrmse_theory for row in rows}
    sim = {int(row.axis_value): row.nrmse_sim for row in rows}
    scale = sim[32] / sim[128]
    ok = all(abs(r - 1.0) <= 0.05 for r in ratios.values()) and 1.9 <= scale <= 2.1
    detail = (
        ", ".join(f"M={m}: sim/theory={r:.4f}" for m, r in sorted(ratios.items()))
        + f"; NRMSE(M=32)/NRMSE(M=128)={scale:.3f} (band [1.9, 2.1])"
    )
    _report("criterion 2: 1/sqrt(M) scaling", ok, detail)
    for m, ratio in sorted(ratios.items()):
        assert abs(ratio - 1.0) <= 0.05, f"M={m} deviates {ratio - 1.0:+.4f} from theory"
    assert 1.9 <= scale <= 2.1


def test_criterion_3_scheme_ordering_under_cfo(reference_estimates):
    k = BASE_CFG.k_active
    err_sq = {s: _squared_errors(reference_estimates[s], k) for s in ALL_SCHEMES}
    values = {s: nrmse(reference_estimates[s], k) for s in ALL_SCHEMES}
    pairs = [
        (Scheme.EIG_SUM, Scheme.MLE),
        (Scheme.MLE, Scheme.ORTHOGONAL),
        (Scheme.EIG_SUM, Scheme.EIG_DIFF),
    ]
    margins = {}
    for better, worse in pairs:
        margin, se = _ordering_margin(err_sq[better], err_sq[worse], k)
        margins[(better, worse)] = (margin, se)

    gaussian = collect_estimates(GAUSSIAN_CFG, (Scheme.EIG_SUM, Scheme.ORTHOGONAL), TRIALS, seed=313)
    g_margin, g_se = _ordering_margin(
        _squared_errors(gaussian[Scheme.EIG_SUM], k),
        _squared_errors(gaussian[Scheme.ORTHOGONAL], k),
        k,
    )

    ok = all(m > 3.0 * se for m, se in margins.values()) and g_margin > 3.0 * g_se
    detail = (
        ", ".join(f"{b.value}<{w.value}: {m / se:.1f} se" for (b, w), (m, se) in margins.items())
        + f" (uniform; nrmse {', '.join(f'{s.value}={values[s]:.4f}' for s in ALL_SCHEMES)});"
        + f" gaussian eig-sum<orthogonal: {g_margin / g_se:.1f} se"
    )
    _report("criterion 3: scheme ordering under CFO", ok, detail)
    for (better, worse), (margin, se) in margins.items():
        assert margin > 3.0 * se, f"{better.value} vs {worse.value}: margin {margin:.5f} <= 3 x {se:.5f}"
    assert g_margin > 3.0 * g_se


def test_criterion_4_zero_cfo_consistency():
    cfg = SystemConfig(
        n_potential=100,
        k_active=25,
        m_antennas=32,
        noise_variance=0.1,
        cfo=CfoModel.uniform(0.0),
    )
    estimates = collect_estimates(cfg, ALL_SCHEMES, TRIALS, seed=404)
    values = {s: nrmse(estimates[s], cfg.k_active) for s in ALL_SCHEMES}
    spread = max(values.values()) / min(values.values())
    reference = nrmse_eig_sum_theory(25, 32, 0.1, 1.0)
    deviation = values[Scheme.EIG_SUM] / reference - 1.0
    ok = spread <= 1.10 and abs(deviation) <= 0.05
    detail = (
        ", ".join(f"{s.value}={v:.4f}" for s, v in values.items())
        + f"; max/min={spread:.4f} (limit 1.10), eig-sum vs 0.177131: {deviation:+.4f} (limit 0.05)"
    )
    _report("criterion 4: zero-CFO consistency", ok, detail)
    assert spread <= 1.10
    assert abs(deviation) <= 0.05


def test_criterion_5_moment_oracle_suite():
    trials = 100_000
    alpha = BASE_CFG.cfo.alpha
    oracle = moment_oracles(BASE_CFG.k_active, BASE_CFG.noise_variance, alpha, BASE_CFG.m_antennas)
    r1 = np.empty(trials)
    r2 = np.empty(trials)
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((505, trial)))
        cov = sample_covariance(generate_received(BASE_CFG, rng))
        r1[trial] = cov.r1
        r2[trial] = cov.r2
    samples = {
        "E[R1]": (r1, oracle.r1_mean),
        "E[R1^2]": (r1**2, oracle.r1_square_mean),
        "E[R1 R2]": (r1 * r2, oracle.r1_r2_mean),
    }
    zscores = {}
    for name, (sample, target) in samples.items():
        se = sample.std(ddof=1) / math.sqrt(trials)
        zscores[name] = (sample.mean() - target) / se
    ok = all(abs(z) < 5.0 for z in zscores.values())
    detail = ", ".join(f"{name}: {z:+.2f} se" for name, z in zscores.items()) + " (limit 5)"
    _report("criterion 5: covariance moment oracles", ok, detail)
    for name, z in zscores.items():
        assert abs(z) < 5.0, f"{name} off by {z:.2f} standard errors"


def test_criterion_6_algebraic_equivalence_suite():
    """Simplified statistics vs literal quadratic forms, eigenvalues vs root finding.

    Errors are measured relative to max(|reference|, problem scale): reference
    evaluations that cancel to nearly zero (e.g. Re(r12) crossing 0) carry
    roundoff of order eps * scale, and dividing by the tiny reference value
    would report that noise as error.  Any real algebra slip is of order the
    scale itself, so it still lands many decades above every limit here.
    """
    rng = np.random.default_rng(606)
    noise_variance, alpha = 0.1, 0.8583936913341694
    common = np.array([1.0, 1.0])
    ortho = np.array([1.0, -1.0])
    count = 10_000
    worst_form = 0.0
    worst_eig = 0.0
    worst_trace = 0.0
    worst_det = 0.0
    for _ in range(count):
        samples = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        cov = sample_covariance(samples)
        matrix = np.array([[cov.r1, cov.r12], [np.conj(cov.r12), cov.r2]])
        trace = cov.r1 + cov.r2
        determinant = cov.r1 * cov.r2 - (cov.r12.real**2 + cov.r12.imag**2)
        scale = trace

        q_common = float(np.real(common @ matrix @ common))
        q_ortho = float(np.real(ortho @ matrix @ ortho))
        literal = {
            Scheme.ORTHOGONAL: (q_common - q_ortho) / 4.0,
            Scheme.MLE: q_common / 4.0 - noise_variance / 2.0,
        }
        lambda_max, lambda_min = eigenvalues(cov)
        literal[Scheme.EIG_SUM] = 0.5 * (lambda_max + lambda_min) - noise_variance
        literal[Scheme.EIG_DIFF] = (lambda_max - lambda_min) / (2.0 * alpha)
        simplified = dict(zip(literal, statistics(tuple(literal), cov, noise_variance, alpha)))
        for scheme in literal:
            err = abs(simplified[scheme] - literal[scheme]) / max(abs(literal[scheme]), scale)
            worst_form = max(worst_form, err)

        roots = np.roots([1.0, -trace, determinant])
        assert np.abs(roots.imag).max() < 1e-10
        lo, hi = np.sort(roots.real)
        worst_eig = max(
            worst_eig,
            abs(lambda_min - lo) / max(abs(lo), 1e-3 * scale),
            abs(lambda_max - hi) / max(abs(hi), 1e-3 * scale),
        )
        worst_trace = max(worst_trace, abs(lambda_max + lambda_min - trace) / trace)
        worst_det = max(
            worst_det,
            abs(lambda_max * lambda_min - determinant) / max(abs(determinant), 1e-4 * scale**2),
        )
    ok = worst_form <= 1e-12 and worst_eig <= 1e-9 and worst_trace <= 1e-10 and worst_det <= 1e-10
    detail = (
        f"{count} random covariances; worst relative error: forms {worst_form:.2e} (limit 1e-12), "
        f"eigen vs roots {worst_eig:.2e} (limit 1e-9), trace {worst_trace:.2e}, "
        f"det {worst_det:.2e} (limit 1e-10)"
    )
    _report("criterion 6: algebraic equivalence", ok, detail)
    assert worst_form <= 1e-12
    assert worst_eig <= 1e-9
    assert worst_trace <= 1e-10
    assert worst_det <= 1e-10


def test_criterion_7_multiplication_counts():
    expected = {
        (Scheme.EIG_SUM, 1): 5,
        (Scheme.EIG_SUM, 32): 67,
        (Scheme.EIG_SUM, 128): 259,
        (Scheme.EIG_DIFF, 1): 10,
        (Scheme.EIG_DIFF, 32): 103,
        (Scheme.EIG_DIFF, 128): 391,
        (Scheme.ORTHOGONAL, 1): 2,
        (Scheme.ORTHOGONAL, 32): 33,
        (Scheme.ORTHOGONAL, 128): 129,
        (Scheme.MLE, 1): 8,
        (Scheme.MLE, 32): 101,
        (Scheme.MLE, 128): 389,
    }
    mismatches = {
        key: (multiplication_count(*key), value)
        for key, value in expected.items()
        if multiplication_count(*key) != value
    }
    ok = not mismatches
    detail = "all 12 entries exact" if ok else f"mismatches: {mismatches}"
    _report("criterion 7: multiplication counts", ok, detail)
    assert not mismatches


def test_criterion_8_robustness_to_active_count():
    config = ExperimentConfig(
        base=BASE_CFG,
        schemes=(Scheme.EIG_SUM,),
        trials=TRIALS,
        master_seed=808,
        axis=SweepAxis.ACTIVE_USERS, values=(5.0, 15.0, 25.0, 35.0, 45.0),
        emit_theory=True,
    )
    rows = run_sweep(config)
    ratios = {int(row.axis_value): row.nrmse_sim / row.nrmse_theory for row in rows}
    ok = all(abs(r - 1.0) <= 0.05 for r in ratios.values())
    detail = ", ".join(f"K={k}: sim/theory={r:.4f}" for k, r in sorted(ratios.items())) + " (limit 1.05)"
    _report("criterion 8: robustness to the active count", ok, detail)
    for k, ratio in sorted(ratios.items()):
        assert abs(ratio - 1.0) <= 0.05, f"K={k} deviates {ratio - 1.0:+.4f} from theory"


def test_criterion_9_byte_identical_csv():
    outputs = []
    for axis, values, trials in (
        (SweepAxis.EPSILON_MAX, (0.10, 0.15), 800),
        (SweepAxis.ANTENNAS, (8.0, 16.0), 400),
    ):
        config = ExperimentConfig(
            base=BASE_CFG,
            schemes=ALL_SCHEMES,
            trials=trials,
            master_seed=909,
            axis=axis, values=values,
            emit_theory=True,
        )
        per_axis = []
        for workers in (1, 1, 2, 3):
            buf = io.StringIO()
            write_csv(run_sweep(config, workers=workers), buf)
            per_axis.append(buf.getvalue())
        outputs.append(len(set(per_axis)) == 1)
    ok = all(outputs)
    _report(
        "criterion 9: determinism",
        ok,
        "CSV bytes identical across repeats and worker counts (1, 2, 3) on two sweeps",
    )
    assert all(outputs)
