import functools
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cascadeiv import (
    Dataset,
    cluster_bootstrap,
    cluster_robust_se,
    estimate_all,
    fit_2sls,
    fit_first_stage,
    fit_reduced_form,
    wald_ratios,
)
from cascadeiv.cascade import (
    conditional_entrant_by_group,
    conditional_entrant_effect,
    group_outcome_decomposition,
)
from cascadeiv.cli import main
from cascadeiv.errors import (
    CascadeIVError,
    DataError,
    IllConditionedWarning,
    RankDeficientControls,
    SingularFirstStage,
    SingularInstrumentGram,
    StatisticFailedInReplication,
    TooFewClusters,
    WeakDiagonalWarning,
    ZeroDiagonal,
)
from cascadeiv.estimator import (
    _FIT_STATISTICS,
    FirstStage,
    _first_stage,
    _fit,
    _moment_fit,
    _moment_replicate,
    _solve_first_stage,
    first_stage_f,
)
from cascadeiv.io import write_dataset_csv
from cascadeiv.mechanism import balance_check
from cascadeiv.seeds import rng_for

from conftest import (
    bernoulli_iv_data,
    counting_moment_builds,
    default_pi,
    noiseless_iv_data,
    reference_fit,
    take_rows,
)


# ---------------------------------------------------------------------------
# partialling out the controls (inside every fit)
# ---------------------------------------------------------------------------


def _partial(d):
    """y, a and z net of the controls, by least squares on x."""

    def resid(m):
        return m - d.x @ np.linalg.lstsq(d.x, m, rcond=None)[0]

    return resid(d.y), resid(d.a), resid(d.z)


def _tiny_dataset(y, x=None):
    n = len(y)
    return Dataset(
        y=np.asarray(y, dtype=float),
        a=np.zeros((n, 1)),
        z=np.arange(n, dtype=float)[:, None] ** 2,
        x=np.ones((n, 1)) if x is None else x,
        cluster=np.arange(n),
    )


def _net_of_controls(d):
    """W E, the rows net of the controls as the fit's Schur step maps them."""
    f = _fit(d)
    return f, np.column_stack((d.x, d.z, d.a, d.y)) @ np.vstack(
        [-f.partial, np.eye(f.partial.shape[1])]
    )


def test_partial_out_demeans_with_constant_only():
    d = _tiny_dataset([1.0, 2.0, 3.0])
    f, resid = _net_of_controls(d)
    assert_allclose(resid[:, -1], [-1.0, 0.0, 1.0], atol=1e-12)
    assert_allclose(f.resid[-1, -1], 2.0, rtol=1e-12)
    assert f.n_controls == 1
    assert_allclose(reference_fit(d).y, [-1.0, 0.0, 1.0], atol=1e-12)


def test_partial_out_in_span_gives_zero_residual():
    rng = np.random.default_rng(5)
    x = np.column_stack([np.ones(100), rng.standard_normal((100, 2))])
    y = x @ np.array([0.3, -2.0, 1.5])
    d = _tiny_dataset(y, x=x)
    assert np.max(np.abs(_net_of_controls(d)[1][:, -1])) < 1e-12
    assert np.max(np.abs(reference_fit(d).y)) < 1e-12
    assert np.max(np.abs(fit_reduced_form(d))) < 1e-12


def test_partial_out_rank_deficient_controls():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(80)
    x = np.column_stack([np.ones(80), v, v])
    d = _tiny_dataset(np.zeros(80), x=x)
    for fit in (fit_2sls, fit_first_stage, fit_reduced_form, cluster_robust_se,
                estimate_all):
        with pytest.raises(RankDeficientControls) as exc:
            fit(d)
        assert exc.value.column in (1, 2)
        assert exc.value.cond > 1e10


def test_frisch_waugh_full_controls_vs_partialled():
    # fitting with all the controls equals fitting the residuals on the
    # constant alone; the residuals are made here, by least squares on x
    d = bernoulli_iv_data(7, n=3000, k=3, x_extra=4)
    y_p, a_p, z_p = _partial(d)
    dp = Dataset(y=y_p, a=a_p, z=z_p, x=np.ones((d.n_obs, 1)), cluster=d.cluster,
                 binary_treatments=False)
    assert_allclose(fit_2sls(d), fit_2sls(dp), rtol=1e-8, atol=1e-10)
    assert_allclose(fit_reduced_form(d), fit_reduced_form(dp), rtol=1e-8, atol=1e-10)
    assert_allclose(
        fit_first_stage(d).pi, fit_first_stage(dp).pi, rtol=1e-8, atol=1e-10
    )
    # same scores; the small-sample factor counts the controls, so the
    # constant-only side is rescaled to the full-controls factor
    n, g = d.n_obs, d.n_clusters

    def factor(k_params):
        return (g / (g - 1)) * ((n - 1) / (n - k_params))

    full, constant_only = (m.n_treatments + m.n_controls for m in (d, dp))
    assert_allclose(
        cluster_robust_se(d, "beta"),
        cluster_robust_se(dp, "beta") * np.sqrt(factor(full) / factor(constant_only)),
        rtol=1e-8,
    )


# ---------------------------------------------------------------------------
# fit_first_stage
# ---------------------------------------------------------------------------


def _hc0_coefficient_se(z, resid):
    """Independent heteroskedasticity-robust SEs for OLS on z (demeaned)."""
    zz_inv = np.linalg.inv(z.T @ z)
    meat = (z * resid[:, None]).T @ (z * resid[:, None])
    return np.sqrt(np.diag(zz_inv @ meat @ zz_inv))


def test_first_stage_recovers_known_coefficients():
    pi0 = np.array(
        [[0.35, -0.08, -0.03], [-0.05, 0.3, -0.06], [-0.04, -0.02, 0.4]]
    )
    d = bernoulli_iv_data(11, n=100_000, k=3, pi=pi0, noise=0.3)
    _, a_p, z_p = _partial(d)
    fs = fit_first_stage(d)
    for j in range(3):
        resid = a_p[:, j] - z_p @ fs.pi[j]
        se = _hc0_coefficient_se(z_p, resid)
        assert np.all(np.abs(fs.pi[j] - pi0[j]) < 3 * se)


def test_first_stage_duplicate_instruments_singular():
    d = bernoulli_iv_data(12, n=400, k=2)
    z = d.z.copy()
    z[:, 1] = z[:, 0]
    dup = Dataset(y=d.y, a=d.a, z=z, x=d.x, cluster=d.cluster)
    with pytest.raises(SingularInstrumentGram):
        fit_first_stage(dup)


def test_first_stage_zero_treatment_row():
    d = bernoulli_iv_data(13, n=500, k=2)
    a = d.a.copy()
    a[:, 1] = 0.0
    zeroed = Dataset(y=d.y, a=a, z=d.z, x=d.x, cluster=d.cluster)
    with pytest.warns(WeakDiagonalWarning):
        fs = fit_first_stage(zeroed)
    assert np.max(np.abs(fs.pi[1])) < 1e-12


def test_instrument_reduced_to_rounding_noise_is_refused():
    # z = x @ (0.3, 1.7) lies in the span of the controls: net of them it is
    # rounding noise, which the fit must refuse rather than divide by
    rng = np.random.default_rng(3)
    n = 60
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    z = x @ np.array([[0.3], [1.7]])
    a = (rng.random((n, 1)) < 0.5).astype(float)
    y = a[:, 0] + rng.standard_normal(n)
    d = Dataset(y=y, a=a, z=z, x=x, cluster=np.arange(n) % 10)
    for fit in (fit_2sls, estimate_all):
        with pytest.raises(SingularInstrumentGram):
            fit(d)


def test_treatment_in_span_of_controls_has_zero_first_stage_row():
    # treatment 2 equals a control dummy, so net of the controls it is
    # rounding noise: its first-stage row is exactly zero, and the Wald
    # ratio, the solve of Pi' and the group effects refuse it
    d = bernoulli_iv_data(73, n=2000, k=2, group_share=0.5)
    v = (np.random.default_rng(73).random(d.n_obs) < 0.4).astype(float)
    a = d.a.copy()
    a[:, 1] = v
    d = Dataset(y=d.y, a=a, z=d.z, x=np.column_stack([d.x, v]), cluster=d.cluster,
                group_label=d.group_label)
    with pytest.warns(WeakDiagonalWarning):
        fs = fit_first_stage(d)
    assert np.array_equal(fs.pi[1], [0.0, 0.0]) and fs.pi[0, 0] > 0.1
    with pytest.raises(ZeroDiagonal) as exc:
        wald_ratios(fit_reduced_form(d), fs)
    assert exc.value.k == 1
    with pytest.raises(SingularFirstStage):
        fit_2sls(d)
    with pytest.warns(WeakDiagonalWarning), pytest.raises(SingularFirstStage):
        estimate_all(d)
    with pytest.warns(WeakDiagonalWarning), pytest.raises(ZeroDiagonal):
        conditional_entrant_by_group(d, beta_full=np.zeros(2))


def test_first_stage_f_is_large_for_strong_instruments():
    d = bernoulli_iv_data(14, n=20_000, k=2)
    f = first_stage_f(d)
    assert np.all(f > 100)


# ---------------------------------------------------------------------------
# fit_reduced_form
# ---------------------------------------------------------------------------


def test_reduced_form_equals_pi_t_beta_noiseless():
    beta = np.array([1.0, 2.0])
    d = noiseless_iv_data(21, n=3000, k=2, beta=beta)
    fs = fit_first_stage(d)
    rf = fit_reduced_form(d)
    assert_allclose(rf, fs.pi.T @ beta, atol=1e-8)


def test_reduced_form_null_when_outcome_independent():
    rng = np.random.default_rng(22)
    d = bernoulli_iv_data(22, n=20_000, k=2)
    d = replace(d, y=rng.standard_normal(d.n_obs))
    rf = fit_reduced_form(d)
    se = cluster_robust_se(d, "rf")
    assert np.all(np.abs(rf) < 4 * se)


# ---------------------------------------------------------------------------
# fit_2sls
# ---------------------------------------------------------------------------


def test_2sls_equals_ols_when_treatments_are_instruments():
    rng = np.random.default_rng(31)
    n = 1500
    a = (rng.random((n, 2)) < 0.4).astype(float)
    y = 0.5 + a @ np.array([0.7, -0.3]) + rng.standard_normal(n)
    d = Dataset(y=y, a=a, z=a.copy(), x=np.ones((n, 1)), cluster=np.arange(n))
    design = np.column_stack([np.ones(n), a])
    ols = np.linalg.lstsq(design, y, rcond=None)[0][1:]
    assert_allclose(fit_2sls(d), ols, atol=1e-10)


def test_2sls_recovers_noiseless_beta():
    beta = (0.5, -0.2, 0.0)
    d = noiseless_iv_data(32, n=4000, k=3, beta=beta)
    assert_allclose(fit_2sls(d), beta, atol=1e-8)


@pytest.mark.parametrize("k", range(1, 11))
def test_just_identified_equivalence(k):
    d = bernoulli_iv_data(100 + k, n=2000 + 200 * k, k=k, pi=default_pi(k))
    y_p, a_p, z_p = _partial(d)
    moments = np.linalg.solve(z_p.T @ a_p, z_p.T @ y_p)
    assert_allclose(fit_2sls(d), moments, rtol=1e-8, atol=1e-12)


# ---------------------------------------------------------------------------
# wald_ratios
# ---------------------------------------------------------------------------


def test_wald_zero_reduced_form():
    fs = FirstStage(default_pi(3))
    assert_allclose(wald_ratios(np.zeros(3), fs), np.zeros(3))


def test_wald_rescaling():
    pi = np.diag([0.267, 0.5])
    fs = FirstStage(pi)
    x = 1.7
    rf = np.array([0.267 * x, 0.0])
    assert_allclose(wald_ratios(rf, fs), [x, 0.0], rtol=1e-12)


def test_wald_zero_diagonal_raises():
    pi = default_pi(2)
    pi[1, 1] = 0.0
    with pytest.raises(ZeroDiagonal) as exc:
        wald_ratios(np.ones(2), FirstStage(pi))
    assert exc.value.k == 1


def test_wald_equals_2sls_when_cross_effects_vanish():
    # block design: each instrument/treatment lives on its own half of the
    # sample, so fitted cross effects are exactly zero after partialling
    rng = np.random.default_rng(41)
    n_half = 2000
    z1 = rng.random(n_half)
    z2 = rng.random(n_half)
    a1 = (rng.random(n_half) < 0.2 + 0.5 * z1).astype(float)
    a2 = (rng.random(n_half) < 0.2 + 0.5 * z2).astype(float)
    z = np.zeros((2 * n_half, 2))
    a = np.zeros((2 * n_half, 2))
    z[:n_half, 0] = z1
    z[n_half:, 1] = z2
    a[:n_half, 0] = a1
    a[n_half:, 1] = a2
    half = np.repeat([0.0, 1.0], n_half)
    y = 1.0 + a @ np.array([0.4, -0.2]) + rng.standard_normal(2 * n_half)
    x = np.column_stack([np.ones(2 * n_half), half])
    d = Dataset(y=y, a=a, z=z, x=x, cluster=rng.integers(0, 40, 2 * n_half))
    fs = fit_first_stage(d)
    assert np.max(np.abs(fs.offdiag)) < 1e-12
    w = wald_ratios(fit_reduced_form(d), fs)
    assert_allclose(w, fit_2sls(d), atol=1e-10)


# ---------------------------------------------------------------------------
# cluster_robust_se
# ---------------------------------------------------------------------------


def test_singleton_clusters_match_heteroskedastic_sandwich():
    d = bernoulli_iv_data(51, n=800, k=2)
    d = Dataset(y=d.y, a=d.a, z=d.z, x=d.x, cluster=np.arange(d.n_obs))
    assert d._moments.m is None  # the rows form
    se = cluster_robust_se(d, "beta")
    # independent HC computation for the IV sandwich
    y_p, a_p, z_p = _partial(d)
    za_inv = np.linalg.inv(z_p.T @ a_p)
    eps = y_p - a_p @ fit_2sls(d)
    meat = (z_p * eps[:, None]).T @ (z_p * eps[:, None])
    v = za_inv @ meat @ za_inv.T
    n, k, p = d.n_obs, 2, 1
    factor = (n / (n - 1)) * ((n - 1) / (n - k - p))
    assert_allclose(se, np.sqrt(np.diag(v) * factor), rtol=1e-10)


def test_estimates_invariant_to_cluster_duplication():
    d = bernoulli_iv_data(52, n=600, k=2)
    rows = np.concatenate([np.arange(d.n_obs), np.arange(d.n_obs)])
    dup = take_rows(d, rows)
    assert_allclose(fit_2sls(dup), fit_2sls(d), atol=1e-12)
    assert_allclose(fit_reduced_form(dup), fit_reduced_form(d), atol=1e-12)
    assert_allclose(fit_first_stage(dup).pi, fit_first_stage(d).pi, atol=1e-12)


def test_cluster_se_against_monte_carlo_sd():
    # homoskedastic noise, independent clusters; the analytic SE should sit
    # within 25% of the cross-replication dispersion of beta
    reps = 500
    betas = np.empty((reps, 2))
    ses = np.empty((reps, 2))
    for r in range(reps):
        d = bernoulli_iv_data(6000 + r, n=2000, k=2, noise=0.6, n_clusters=50)
        betas[r] = fit_2sls(d)
        ses[r] = cluster_robust_se(d, "beta")
    mc_sd = betas.std(axis=0, ddof=1)
    med_se = np.median(ses, axis=0)
    assert np.all(np.abs(med_se - mc_sd) / mc_sd < 0.25)


def test_too_few_clusters():
    d = bernoulli_iv_data(53, n=200, k=2)
    one = Dataset(y=d.y, a=d.a, z=d.z, x=d.x, cluster=np.zeros(200, dtype=int))
    with pytest.raises(TooFewClusters):
        cluster_robust_se(one, "beta")


# ---------------------------------------------------------------------------
# cluster_bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_constant_statistic_has_zero_se(monkeypatch):
    d = bernoulli_iv_data(61, n=300, k=2)
    monkeypatch.setitem(_FIT_STATISTICS, "constant", lambda _: np.array([3.14]))
    res = cluster_bootstrap(d, "constant", reps=20, seed=1)
    assert_allclose(res.se, [0.0], atol=1e-15)


def test_bootstrap_same_seed_identical():
    d = bernoulli_iv_data(62, n=800, k=2)
    r1 = cluster_bootstrap(d, "beta", reps=30, seed=99)
    r2 = cluster_bootstrap(d, "beta", reps=30, seed=99)
    assert np.array_equal(r1.estimates, r2.estimates)
    assert np.array_equal(r1.se, r2.se)
    r3 = cluster_bootstrap(d, "beta", reps=30, seed=100)
    assert not np.array_equal(r1.estimates, r3.estimates)


def test_bootstrap_failure_policy(monkeypatch):
    d = bernoulli_iv_data(63, n=400, k=2)

    def flaky(threshold):
        calls = {"n": 0}

        def stat(f):
            calls["n"] += 1
            if calls["n"] <= threshold:
                raise SingularInstrumentGram("constructed failure")
            return _FIT_STATISTICS["beta"](f)

        return stat

    monkeypatch.setitem(_FIT_STATISTICS, "flaky", flaky(2))
    res = cluster_bootstrap(d, "flaky", reps=40, seed=5)  # 5% failures: ok
    assert res.n_failed == 2
    assert res.estimates.shape[0] == 38
    monkeypatch.setitem(_FIT_STATISTICS, "flaky", flaky(10))
    with pytest.raises(StatisticFailedInReplication, match=r"10 of 40 .*\(> 10% ceiling\)"):
        cluster_bootstrap(d, "flaky", reps=40, seed=5)  # 25%: over the ceiling
    # the message names the share the call allowed
    monkeypatch.setitem(_FIT_STATISTICS, "flaky", flaky(21))
    with pytest.raises(StatisticFailedInReplication, match=r"21 of 40 .*\(> 50% ceiling\)"):
        cluster_bootstrap(d, "flaky", reps=40, seed=5, max_failure_share=0.5)
    monkeypatch.setitem(_FIT_STATISTICS, "flaky", flaky(40))
    with pytest.raises(StatisticFailedInReplication, match=r"40 of 40 .*\(none succeeded\)"):
        cluster_bootstrap(d, "flaky", reps=40, seed=5, max_failure_share=1.0)


def test_cluster_robust_se_needs_more_rows_than_parameters():
    # N = K + p leaves the small-sample factor (N-1)/(N-K-p) undefined,
    # though the fit itself is exact
    z = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    d = Dataset(y=np.array([0.5, 1.0, -1.0]), a=z, z=z, x=np.ones((3, 1)), cluster=np.arange(3))
    assert np.allclose(fit_2sls(d), [0.5, -1.5])
    for which in ("beta", "rf"):
        with pytest.raises(DataError, match="needs N > 3 observations"):
            cluster_robust_se(d, which)


def test_bootstrap_rejects_bad_inputs():
    d = bernoulli_iv_data(64, n=200, k=2)
    with pytest.raises(DataError):
        cluster_bootstrap(d, "beta", reps=1, seed=0)
    with pytest.raises(DataError):
        cluster_bootstrap(d, "nope", reps=10, seed=0)
    # a callable is not a statistic: every replication is a moment replication;
    # nor is a list of names
    with pytest.raises(DataError, match="unknown bootstrap statistic"):
        cluster_bootstrap(d, fit_2sls, reps=10, seed=0)
    with pytest.raises(DataError, match="unknown bootstrap statistic"):
        cluster_bootstrap(d, ["beta"], reps=10, seed=0)


def test_bootstrap_conditional_entrant_components():
    d = bernoulli_iv_data(65, n=2000, k=2, n_clusters=30, group_share=0.5)
    res = cluster_bootstrap(d, "conditional_entrant", reps=30, seed=3)
    assert res.components == (
        "T_1|f", "T_2|f", "T_1|m", "T_2|m", "dT_1", "dT_2"
    )
    assert np.all(res.se > 0)


def test_bootstrap_conditional_entrant_of_one_level_has_no_difference():
    # one level: its effects alone, each replication the by-group fit of
    # its draw, and no dT components
    d = bernoulli_iv_data(65, n=2000, k=2, n_clusters=30)
    d = replace(d, group_label=np.full(d.n_obs, "f"))
    res = cluster_bootstrap(d, "conditional_entrant", reps=10, seed=3)
    assert res.components == ("T_1|f", "T_2|f")
    assert res.estimates.shape == (10, 2) and res.n_failed == 0


def test_bootstrap_first_stage_components():
    # Pi in row-major order: pi_<j>_<k> is treatment j on instrument k; the
    # cross-effects differ, so a transposed order would show
    d = bernoulli_iv_data(65, n=4000, k=2, pi=[[0.4, -0.15], [0.0, 0.3]], n_clusters=30)
    res = cluster_bootstrap(d, "first_stage", reps=30, seed=3)
    assert res.components == ("pi_1_1", "pi_1_2", "pi_2_1", "pi_2_2")
    pi = fit_first_stage(d).pi.ravel()
    assert np.all(np.abs(res.estimates.mean(axis=0) - pi) < res.se)
    assert np.all(np.abs(res.estimates.mean(axis=0) - pi[[0, 2, 1, 3]])[1:3] > res.se[1:3])


def test_bootstrap_conditional_entrant_drops_level_losing_draws():
    # one group level confined to a single cluster: resamples that miss the
    # cluster lose the level and must count as failed replications
    d = bernoulli_iv_data(66, n=2000, k=2, n_clusters=30, group_share=0.5)
    g = np.asarray(d.group_label, dtype=object).copy()
    g[:] = "m"
    g[d.cluster == d.cluster[0]] = "f"
    d2 = Dataset(y=d.y, a=d.a, z=d.z, x=d.x, cluster=d.cluster, group_label=g)
    with pytest.raises(StatisticFailedInReplication):
        cluster_bootstrap(d2, "conditional_entrant", reps=40, seed=3)


def test_bootstrap_cascade_delta_vs_fresh_data_dispersion():
    # bootstrap SE from one dataset vs the SD of the statistic over fresh
    # datasets from the same process
    def draw(seed):
        return bernoulli_iv_data(9000 + seed, n=3000, k=2, noise=0.6, n_clusters=60)

    def delta(d):
        return fit_2sls(d) - wald_ratios(fit_reduced_form(d), fit_first_stage(d))

    mc = np.array([delta(draw(s)) for s in range(200)])
    mc_sd = mc.std(axis=0, ddof=1)
    res = cluster_bootstrap(draw(0), "cascade_delta", reps=300, seed=11)
    assert np.all(np.abs(res.se - mc_sd) / mc_sd < 0.30)


# ---------------------------------------------------------------------------
# named statistics on per-cluster moments against the row-resampling reference
# ---------------------------------------------------------------------------


def _ref_beta(d):
    f = reference_fit(d)
    return _solve_first_stage(f.pi_t, f.rf)


def _ref_wald(d):
    f = reference_fit(d)
    return wald_ratios(f.rf, _first_stage(f))


def _ref_cascade_delta(d):
    f = reference_fit(d)
    return _solve_first_stage(f.pi_t, f.rf) - wald_ratios(f.rf, _first_stage(f))


def _ref_first_stage(d):
    return _first_stage(reference_fit(d)).pi.ravel()


def _ref_conditional_entrant(levels):
    def stat(d):
        beta_full = _ref_beta(d)
        parts = []
        for lev in levels:
            rows = np.flatnonzero(d.group_label == lev)
            if rows.size == 0:
                raise DataError(f"group level {lev!r} absent from this sample")
            f = reference_fit(take_rows(d, rows))
            parts.append(conditional_entrant_effect(f.rf, _first_stage(f), beta_full))
        if len(parts) == 2:
            parts.append(parts[0] - parts[1])
        return np.concatenate(parts)

    return stat


def _rounding_decides(d, levels):
    """Whether rounding decides the statistic on these rows, or on a group
    level's rows: they hold no more distinct rows than treatments plus
    controls, so they identify nothing; or an instrument or a treatment
    that is not zero lies in the span of the controls; or, with every
    treatment taken somewhere, cond(Pi') or the largest |Pi'| entry over
    the smallest |pi_kk| exceeds 1e4. The residual instruments or
    treatments are then partly rounding noise, which one factorization may
    pass and the other refuse, or the Gram's squared conditioning can move
    the tenth digit of a ratio."""
    samples = [d]
    for lev in [] if levels is None else levels:
        rows = np.flatnonzero(d.group_label == lev)
        if rows.size:
            try:
                samples.append(take_rows(d, rows))
            except DataError:
                pass
    for sample in samples:
        w = np.column_stack([sample.x, sample.z, sample.a, sample.y])
        if len(np.unique(w, axis=0)) <= sample.n_treatments + sample.n_controls:
            return True
        try:
            f = reference_fit(sample)
        except CascadeIVError:
            continue
        for raw, resid in ((sample.z, f.z), (sample.a, f.a)):
            norm = np.linalg.norm(raw, axis=0)
            if np.any((norm > 0) & (np.linalg.norm(resid, axis=0) <= 1e-6 * norm)):
                return True
        if np.all(sample.a.any(axis=0)):
            pi, diag = f.pi_t, np.abs(np.diag(f.pi_t))
            if np.linalg.cond(pi) > 1e4 or np.max(np.abs(pi)) > 1e4 * np.min(diag):
                return True
    return False


def reference_cluster_bootstrap(data, statistic, reps, seed):
    """Row-resampling bootstrap of a named statistic: each replication takes
    the drawn clusters' rows, relabelled by draw position, and refits them by
    QR. Returns {replication: estimate or the error type it raised} and the
    replications where rounding decides the statistic. Building the drawn
    rows' Dataset is part of the replication, so its validation errors count
    as that replication's failure."""
    levels = None
    if statistic == "conditional_entrant":
        levels = np.unique(data.group_label)
        stat = _ref_conditional_entrant(levels)
    else:
        stat = {"beta": _ref_beta, "wald": _ref_wald,
                "cascade_delta": _ref_cascade_delta,
                "first_stage": _ref_first_stage}[statistic]
    codes = data.cluster_codes()
    g = int(codes.max()) + 1
    group_rows = [np.flatnonzero(codes == c) for c in range(g)]
    out, noise = {}, []
    for r in range(reps):
        draw = rng_for(seed, r).integers(0, g, size=g)
        rows = np.concatenate([group_rows[c] for c in draw])
        relabel = np.repeat(np.arange(g), [group_rows[c].size for c in draw])
        try:
            d = replace(take_rows(data, rows), cluster=relabel)
        except DataError as exc:
            out[r] = type(exc)
            continue
        if _rounding_decides(d, levels):
            noise.append(r)
        try:
            out[r] = np.atleast_1d(stat(d))
        except CascadeIVError as exc:
            out[r] = type(exc)
    return out, noise


def moment_replicates(data, statistic, reps, seed):
    """{replication: estimate or error type} of the per-cluster moment path."""
    g = data.n_clusters
    replicate = _moment_replicate(data, statistic)
    out = {}
    for r in range(reps):
        try:
            out[r] = replicate(rng_for(seed, r).integers(0, g, size=g))
        except CascadeIVError as exc:
            out[r] = type(exc)
    return out


def _size(data, statistic):
    """The larger of the full sample's largest |beta| and |Wald ratio|; 0 for
    first_stage, whose components are Pi's own entries (its full-sample Pi
    may even be singular where the draws' Pi are not)."""
    if statistic == "first_stage":
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return max(np.max(np.abs(_ref_beta(data))), np.max(np.abs(_ref_wald(data))))


def assert_bootstrap_matches_reference(data, statistic, reps, seed, rep_tol=1e-10,
                                       se_rtol=1e-12):
    """The moment path against the row reference, draw by draw: the same
    failed replications, and replicates within ``rep_tol`` of each
    component's largest |value|, or of 1e-3 of the largest |value| of any
    component or of the full sample's beta and Wald ratios if that is
    larger (their rounding sets the error of a component near zero, such
    as the cascade_delta of a first stage without cross-effects; see
    ``_size``). Draws
    where rounding decides the statistic are left out; where there are
    none, ``cluster_bootstrap`` must also give the same n_failed and
    estimates and SE within ``se_rtol`` relative. Returns the failed and
    the left-out replications."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want, noise = reference_cluster_bootstrap(data, statistic, reps, seed)
        got = moment_replicates(data, statistic, reps, seed)
    kept = [r for r in range(reps) if r not in noise]
    failed = [r for r in kept if isinstance(want[r], type)]
    assert [r for r in kept if isinstance(got[r], type)] == failed
    ok = [r for r in kept if r not in failed]
    if not ok:
        if not noise:
            with warnings.catch_warnings(), pytest.raises(StatisticFailedInReplication):
                warnings.simplefilter("ignore")
                cluster_bootstrap(data, statistic, reps, seed, max_failure_share=1.0)
        return failed, noise
    ref = np.array([want[r] for r in ok])
    floor = 1e-3 * max(np.max(np.abs(ref)), _size(data, statistic))
    scale = np.maximum(np.max(np.abs(ref), axis=0), floor)
    assert np.all(np.abs(np.array([got[r] for r in ok]) - ref) <= rep_tol * scale)
    if noise:
        return failed, noise
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = cluster_bootstrap(data, statistic, reps, seed, max_failure_share=1.0)
    assert res.n_failed == len(failed)
    assert np.array_equal(res.estimates, np.array([got[r] for r in ok]))
    if len(ok) > 1:
        # a spread of rounding size (every draw that fits resamples the same
        # rows, or the component is zero) is held to the replicates' bound
        se = np.std(ref, axis=0, ddof=1)
        spread = se > 1e-6 * scale
        assert_allclose(res.se[spread], se[spread], rtol=se_rtol, atol=0)
        assert np.all(np.abs(res.se - se)[~spread] <= rep_tol * scale[~spread])
    return failed, noise


STATISTICS = ["beta", "wald", "cascade_delta", "conditional_entrant", "first_stage"]


def program_clustered_data(seed, k=3, per_program=2, rows=(8, 40), dummies=True,
                           x_extra=0):
    """Stacked pivotal-group layout: each cluster belongs to one program,
    whose instrument is the only nonzero one in its rows; the controls are
    a constant, optionally a dummy per program but the first, and normal
    noise. A draw that misses every cluster of a program loses a control or
    an instrument."""
    rng = np.random.default_rng(seed)
    g = k * per_program
    sizes = rng.integers(rows[0], rows[1] + 1, g)
    cluster = np.repeat(np.arange(g), sizes)
    program = cluster % k
    n = cluster.size
    z = np.zeros((n, k))
    z[np.arange(n), program] = rng.random(n)
    a = (rng.random((n, k)) < 0.1 + 0.8 * z).astype(float)
    cols = [np.ones(n)]
    if dummies:
        cols += [(program == j).astype(float) for j in range(1, k)]
    cols += list(rng.standard_normal((x_extra, n)))
    x = np.column_stack(cols)
    y = 1.0 + a @ np.linspace(0.5, -0.5, k) + 0.5 * rng.standard_normal(n)
    group = np.where(rng.random(n) < 0.5, "f", "m")
    return Dataset(y=y, a=a, z=z, x=x, cluster=cluster, group_label=group)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(STATISTICS),
    st.integers(1, 3),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2),
)
def test_moment_bootstrap_matches_row_reference(seed, statistic, k, per_program,
                                                dummies, x_extra):
    # clusters of 10 to 40 rows, down to one cluster per program; the SE is
    # held to the replicates' bound, as some draws of a few small clusters
    # fit weakly identified replicates that dominate it
    assume(k * per_program >= 2)
    d = program_clustered_data(seed, k, per_program, rows=(10, 40), dummies=dummies,
                               x_extra=x_extra)
    assert_bootstrap_matches_reference(d, statistic, reps=12, seed=seed % 1000,
                                       se_rtol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(STATISTICS),
    st.integers(1, 3),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2),
)
# the full sample's Pi' is singular (treatment 3 is never taken) while the
# draws' first stages are not
@example(104340, "first_stage", 3, 1, False, 0)
def test_moment_bootstrap_failures_match_on_tiny_clusters(seed, statistic, k,
                                                          per_program, dummies, x_extra):
    # clusters of 1 to 9 rows: many draws lose a program, repeat few distinct
    # rows or leave a treatment constant, and must fail (or not) as the
    # refit does; a weakly identified draw's replicate may differ from the
    # refit's by some 1e-10 of its component's scale (the Gram squares the
    # conditioning), so replicates are held to 1e-8 here
    assume(k * per_program >= 2)
    d = program_clustered_data(seed, k, per_program, rows=(1, 9), dummies=dummies,
                               x_extra=x_extra)
    assert_bootstrap_matches_reference(d, statistic, reps=12, seed=seed % 1000,
                                       rep_tol=1e-8, se_rtol=1e-8)


@pytest.mark.parametrize("statistic", STATISTICS)
def test_moment_bootstrap_with_extra_controls(statistic):
    d = bernoulli_iv_data(67, n=3000, k=3, x_extra=2, n_clusters=25, group_share=0.5)
    failed, noise = assert_bootstrap_matches_reference(d, statistic, reps=30, seed=4)
    assert failed == noise == []


@pytest.mark.parametrize("dummies", [True, False])
@pytest.mark.parametrize("statistic", STATISTICS)
def test_moment_bootstrap_draws_that_drop_a_program(statistic, dummies):
    # two clusters per program: a quarter of the draws miss both clusters of
    # some program, which leaves a zero control dummy (or a dummy sum equal
    # to the constant), or a zero instrument without the dummies
    d = program_clustered_data(68, k=3, per_program=2, dummies=dummies)
    failed, noise = assert_bootstrap_matches_reference(d, statistic, reps=40, seed=5)
    assert failed and noise == []


@pytest.mark.parametrize("statistic", STATISTICS)
def test_moment_bootstrap_level_confined_to_one_cluster(statistic):
    d = bernoulli_iv_data(66, n=2000, k=2, n_clusters=12, group_share=0.5)
    g = np.where(d.cluster == d.cluster[0], "f", "m")
    d = Dataset(y=d.y, a=d.a, z=d.z, x=d.x, cluster=d.cluster, group_label=g)
    failed, noise = assert_bootstrap_matches_reference(d, statistic, reps=40, seed=3)
    assert bool(failed) == (statistic == "conditional_entrant") and noise == []


@pytest.mark.parametrize("statistic", STATISTICS)
def test_moment_bootstrap_zero_first_stage_diagonal(statistic):
    # treatment 2 is taken in one cluster only; a draw without that cluster
    # has pi_22 == 0 exactly, which fails every statistic that divides by
    # pi_22 or solves Pi', and leaves first_stage's Pi as it is
    d = bernoulli_iv_data(69, n=2000, k=2, n_clusters=10, group_share=0.5)
    a = d.a.copy()
    a[d.cluster != d.cluster[0], 1] = 0.0
    d = Dataset(y=d.y, a=a, z=d.z, x=d.x, cluster=d.cluster, group_label=d.group_label)
    failed, noise = assert_bootstrap_matches_reference(d, statistic, reps=40, seed=6)
    assert bool(failed) == (statistic != "first_stage") and noise == []


@pytest.mark.parametrize("statistic", STATISTICS)
def test_named_statistics_never_take_rows(statistic):
    # a bootstrap reads the rows once, into one moment object, and every
    # replication reads that object only
    d = bernoulli_iv_data(70, n=1500, k=2, n_clusters=20, group_share=0.5)
    with counting_moment_builds() as counts:
        res = cluster_bootstrap(d, statistic, reps=10, seed=2)
    assert res.n_failed == 0
    assert counts == {"built": 1, "coded": 1}


PUBLIC_ESTIMATORS = {
    "fit_2sls": fit_2sls,
    "fit_first_stage": fit_first_stage,
    "fit_reduced_form": fit_reduced_form,
    "first_stage_f": first_stage_f,
    "cluster_robust_se": lambda d: cluster_robust_se(d, "delta"),
    "estimate_all": estimate_all,
    "group_outcome_decomposition": group_outcome_decomposition,
    "conditional_entrant_by_group": conditional_entrant_by_group,
}


@pytest.mark.parametrize("singletons", [False, True])
@pytest.mark.parametrize("name", [*PUBLIC_ESTIMATORS, "balance_check"])
def test_every_estimator_builds_one_moment_object(name, singletons):
    # whichever call comes first codes the cluster ids and builds the
    # Dataset's one moment object, in either of its forms; every later
    # estimator and every bootstrap statistic reads that object, and
    # balance_check builds one of its own over its own columns
    d = bernoulli_iv_data(70, n=1500, k=2, n_clusters=20, group_share=0.5)
    if singletons:
        d = replace(d, cluster=np.arange(d.n_obs))
    covariates = np.random.default_rng(70).standard_normal((d.n_obs, 2))
    calls = {**PUBLIC_ESTIMATORS, "balance_check": lambda d: balance_check(d, covariates)}
    calls |= {statistic: functools.partial(cluster_bootstrap, statistic=statistic, reps=5,
                                           seed=2) for statistic in STATISTICS}
    with counting_moment_builds() as counts:
        calls.pop(name)(d)
        assert counts == {"built": 1, "coded": 1}
        for call in calls.values():
            call(d)
    assert counts == {"built": 2, "coded": 1}
    assert (d._moments.m is None) == singletons


def test_point_estimates_are_the_replication_with_counts_of_one(monkeypatch):
    # estimate_all is the bootstrap replication whose draw takes every
    # cluster once, bit for bit, in both forms of the moment object
    monkeypatch.setitem(_FIT_STATISTICS, "fit", lambda f: np.r_[f.pi_t.ravel(), f.rf])
    d = bernoulli_iv_data(75, n=3000, k=3, x_extra=1, n_clusters=30)
    for data, rows_form in ((d, False), (replace(d, cluster=np.arange(d.n_obs)), True)):
        draw = np.arange(data.n_clusters)
        assert (data._moments.m is None) == rows_form
        est = estimate_all(data)
        fit = _moment_replicate(data, "fit")(draw)
        assert np.array_equal(est.beta, _moment_replicate(data, "beta")(draw))
        assert np.array_equal(est.first_stage.pi.T.ravel(), fit[:9])
        assert np.array_equal(est.rf, fit[9:])


def _assert_same_estimates(got, want):
    for name in ("beta", "rf", "wald", "cascade_delta", "se_beta", "se_wald", "se_delta",
                 "first_stage_f"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.first_stage.pi, want.first_stage.pi)
    assert (got.n_obs, got.n_clusters) == (want.n_obs, want.n_clusters)


def test_kept_moment_object_stays_sound():
    # a Dataset's arrays are read-only views, so nothing reached through it
    # can change the rows its kept object summarises; the caller's arrays
    # stay writable, and replace() gives a Dataset that builds afresh
    d = bernoulli_iv_data(77, n=2000, k=2, x_extra=1, n_clusters=25, group_share=0.5)
    y = d.y.copy()
    d = replace(d, y=y)
    before = estimate_all(d)
    for name in ("y", "a", "z", "x", "cluster", "group_label"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(d, name)[0] = getattr(d, name)[1]
    with pytest.raises(ValueError, match="read-only"):
        d.cluster_codes()[0] = 1
    assert y.flags.writeable and np.shares_memory(y, d.y)
    _assert_same_estimates(estimate_all(d), before)

    def fresh(**fields):
        kw = dict(y=d.y, a=d.a, z=d.z, x=d.x, cluster=d.cluster, group_label=d.group_label)
        return Dataset(**(kw | fields))

    y2 = 2.0 * d.y + d.x[:, 1]
    _assert_same_estimates(estimate_all(replace(d, y=y2)), estimate_all(fresh(y=y2)))
    partition = np.where(d.x[:, 1] > 0, "hi", "lo")
    got = group_outcome_decomposition(d, partition)
    want = group_outcome_decomposition(fresh(group_label=partition))
    assert list(got) == list(want) == ["hi", "lo"]
    for lev in got:
        assert np.array_equal(got[lev], want[lev])
    _assert_same_estimates(estimate_all(d), before)


@pytest.mark.parametrize("n_levels", [1, 2, 8])
def test_rows_form_level_grams_are_products_of_their_rows(n_levels):
    # clusters of two rows and labels in no particular order: the rows form
    # keeps the rows in level order, and each level's Gram at a draw's
    # cluster counts is the product of that level's weighted rows
    rng = np.random.default_rng(78)
    d = bernoulli_iv_data(78, n=2000, k=3, x_extra=1)
    labels = None if n_levels == 1 else rng.integers(0, n_levels, d.n_obs).astype(str)
    d = replace(d, cluster=rng.permutation(d.n_obs) // 2, group_label=labels)
    mom = d._moments
    assert mom.m is None and len(mom.runs) == n_levels
    c = rng.integers(0, 4, mom.g)
    grams, rows = mom.grams(c)
    w = np.column_stack((d.x, d.z, d.a, d.y))
    weight = c[d.cluster_codes()]
    level = np.zeros(d.n_obs) if labels is None else np.unique(labels, return_inverse=True)[1]
    assert grams.shape == (n_levels, w.shape[1], w.shape[1]) and rows.shape == (n_levels,)
    for j in range(n_levels):
        keep = level == j
        want = (w[keep] * weight[keep, None]).T @ w[keep]
        assert_allclose(grams[j], want, rtol=1e-10, atol=1e-10 * np.abs(want).max())
        assert rows[j] == weight[keep].sum()


@pytest.mark.parametrize("run", ["estimate_all", "cluster_bootstrap"])
def test_singleton_clusters_keep_memory_within_the_rows(run):
    # clustered by row, a per-cluster tensor would hold N d^2 floats, d times
    # the rows: the moment object keeps the rows instead, so the peak stays
    # within a few copies of W
    d = bernoulli_iv_data(74, n=50_000, k=3, x_extra=2)
    d = replace(d, cluster=np.arange(d.n_obs))
    width = d.n_controls + 2 * d.n_treatments + 1
    rows_bytes = d.n_obs * width * 8
    tracemalloc.start()
    try:
        if run == "estimate_all":
            estimate_all(d)
        else:
            cluster_bootstrap(d, "beta", reps=3, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * rows_bytes < d.n_obs * width**2 * 8


def test_every_fit_is_the_gram_fit(tmp_path):
    # no public fit, nor the CLI commands that fit, takes a second path
    # through a QR or least-squares factorization of the rows
    d = bernoulli_iv_data(72, n=1500, k=2, x_extra=1, n_clusters=20, group_share=0.5)
    write_dataset_csv(tmp_path / "d.csv", d, "test", 0)
    refuse = AssertionError("second factorization")
    with mock.patch("scipy.linalg.qr", side_effect=refuse), \
            mock.patch("numpy.linalg.qr", side_effect=refuse), \
            mock.patch("numpy.linalg.lstsq", side_effect=refuse):
        for fit in (fit_2sls, fit_first_stage, fit_reduced_form, first_stage_f,
                    estimate_all, group_outcome_decomposition,
                    conditional_entrant_by_group):
            fit(d)
        for which in ("beta", "rf", "wald", "delta"):
            cluster_robust_se(d, which)
        cluster_bootstrap(d, "beta", reps=5, seed=1)
        assert main(["cascade", "--data", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "c")]) == 0
        assert main(["estimate", "--data", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "e")]) == 0


def _pooled_gram(d):
    mom = d._moments
    return mom.grams(np.ones(mom.g, dtype=int))[0].sum(axis=0)


def test_moment_fit_matches_qr_fit_and_its_rank_checks():
    d = bernoulli_iv_data(71, n=2500, k=3, x_extra=2, n_clusters=15)
    mom = d._moments
    grams, rows = mom.grams(np.ones(mom.g, dtype=int))
    assert rows.sum() == d.n_obs == mom.rows.sum()
    f = reference_fit(d)
    m = _moment_fit(grams.sum(axis=0), d.n_obs, d.n_controls, 3)
    assert_allclose(m.pi_t, f.pi_t, rtol=1e-12, atol=1e-14)
    assert_allclose(m.rf, f.rf, rtol=1e-12, atol=1e-14)
    # a zero control and a duplicated one are named as the pivoted QR names
    # them; a duplicated instrument is singular
    for x, columns in ((np.column_stack([d.x, np.zeros(d.n_obs)]), {3}),
                       (np.column_stack([d.x, d.x[:, 1]]), {1, 3})):
        bad = Dataset(y=d.y, a=d.a, z=d.z, x=x, cluster=d.cluster)
        gram = _pooled_gram(bad)
        with pytest.raises(RankDeficientControls) as qr:
            reference_fit(bad)
        with pytest.raises(RankDeficientControls) as gm:
            _moment_fit(gram, bad.n_obs, bad.n_controls, 3)
        assert qr.value.column in columns and gm.value.column in columns
    z = d.z.copy()
    z[:, 2] = z[:, 0]
    bad = Dataset(y=d.y, a=d.a, z=z, x=d.x, cluster=d.cluster)
    gram = _pooled_gram(bad)
    with pytest.raises(SingularInstrumentGram):
        _moment_fit(gram, bad.n_obs, bad.n_controls, 3)


# ---------------------------------------------------------------------------
# estimate_all
# ---------------------------------------------------------------------------


def test_estimate_all_internal_consistency():
    d = bernoulli_iv_data(71, n=4000, k=3, group_share=0.5)
    est = estimate_all(d)
    y_p, a_p, z_p = _partial(d)
    moments = np.linalg.solve(z_p.T @ a_p, z_p.T @ y_p)
    assert_allclose(est.beta, moments, rtol=1e-8, atol=1e-12)
    assert np.array_equal(est.cascade_T, est.beta)
    assert_allclose(est.cascade_delta, est.cascade_T - est.wald, atol=1e-14)
    assert est.n_obs == 4000
    assert np.all(est.se_beta > 0)
    assert np.all(est.se_wald > 0)


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def _correlated_instrument_data(seed):
    """Instruments correlated with each other and with the extra controls."""
    d = bernoulli_iv_data(seed, n=3000, k=3, x_extra=2, n_clusters=30)
    mix = np.array([[1.0, 0.6, 0.3], [0.2, 1.0, 0.5], [0.4, 0.1, 1.0]])
    z = d.z @ mix + 0.4 * d.x[:, 1:2]
    return Dataset(y=d.y, a=d.a, z=z, x=d.x, cluster=d.cluster)


def _cluster_se(scores, cluster, n, k_params):
    ids = np.unique(cluster)
    psi = np.array([scores[cluster == c].sum(axis=0) for c in ids])
    g = ids.size
    factor = (g / (g - 1)) * ((n - 1) / (n - k_params))
    return np.sqrt(np.diag(psi.T @ psi) * factor)


def _assert_matches_unpartialled_reference(d):
    """OLS and 2SLS on the full design [x, z], no partialling; influence
    functions (W'W)^-1 w_i e_i and (W'X)^-1 w_i e_i, delta method for the
    Wald ratios."""
    n, k, p = d.n_obs, d.n_treatments, d.x.shape[1]
    w = np.column_stack([d.x, d.z])
    coef = np.linalg.lstsq(w, np.column_stack([d.a, d.y]), rcond=None)[0]
    pi, rf = coef[p:, :k].T, coef[p:, k]
    resid = np.column_stack([d.a, d.y]) - w @ coef
    ols_rows = np.linalg.solve(w.T @ w, w.T)[p:]  # z rows of (W'W)^-1 W'
    s_rf = (ols_rows * resid[:, k]).T
    s_pikk = np.column_stack([ols_rows[j] * resid[:, j] for j in range(k)])
    diag = np.diag(pi)
    s_wald = s_rf / diag - (rf / diag**2) * s_pikk
    xw = np.column_stack([d.x, d.a])
    theta = np.linalg.solve(w.T @ xw, w.T @ d.y)
    s_beta = (np.linalg.solve(w.T @ xw, w.T * (d.y - xw @ theta))[p:]).T
    se_wald = _cluster_se(s_wald, d.cluster, n, k + p)
    se_delta = _cluster_se(s_beta - s_wald, d.cluster, n, k + p)

    assert np.max(np.abs(pi - np.diag(diag))) > 0.01  # cross effects matter
    assert_allclose(fit_first_stage(d).pi, pi, rtol=1e-10)
    assert_allclose(fit_reduced_form(d), rf, rtol=1e-10)
    assert_allclose(wald_ratios(fit_reduced_form(d), fit_first_stage(d)),
                    rf / diag, rtol=1e-10)
    assert_allclose(cluster_robust_se(d, "wald"), se_wald, rtol=1e-10)
    assert_allclose(cluster_robust_se(d, "delta"), se_delta, rtol=1e-10)
    est = estimate_all(d)
    assert_allclose(est.beta, theta[p:], rtol=1e-10)
    assert_allclose(est.se_beta, _cluster_se(s_beta, d.cluster, n, k + p), rtol=1e-10)
    assert_allclose(est.se_wald, se_wald, rtol=1e-10)
    assert_allclose(est.se_delta, se_delta, rtol=1e-10)
    assert_allclose(cluster_robust_se(d, "rf"), _cluster_se(s_rf, d.cluster, n, k + p),
                    rtol=1e-10)


def test_fits_and_standard_errors_match_unpartialled_reference():
    # 30 clusters of about 100 rows: the moment object keeps its tensor
    d = _correlated_instrument_data(81)
    assert d._moments.m is not None
    _assert_matches_unpartialled_reference(d)


def test_singleton_cluster_standard_errors_match_unpartialled_reference():
    # clustered by row, the moment object keeps the rows and weights them:
    # every estimate and standard error of that form against the same
    # reference
    d = replace(_correlated_instrument_data(81), cluster=np.arange(3000))
    assert d._moments.m is None
    _assert_matches_unpartialled_reference(d)


# ---------------------------------------------------------------------------
# one conditioning policy for every solve of Pi'
# ---------------------------------------------------------------------------


def _first_stage_with_condition(cond):
    """Noiseless continuous treatments a = 0.5 + z B, so Pi' = B, cond(B) ~ cond."""
    rng = np.random.default_rng(91)
    n = 2000
    z = rng.random((n, 2))
    b = np.array([[1.0, 1.0], [1.0, 1.0 + 4.0 / cond]])
    a = 0.5 + z @ b
    y = a @ np.array([0.3, -0.2]) + rng.standard_normal(n)
    return Dataset(y=y, a=a, z=z, x=np.ones((n, 1)), cluster=rng.integers(0, 20, n),
                   binary_treatments=False)


ESTIMATORS = [fit_2sls, cluster_robust_se, estimate_all]


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_ill_conditioned_first_stage_warns_and_returns(estimator):
    d = _first_stage_with_condition(1e10)
    assert 1e8 < np.linalg.cond(fit_first_stage(d).pi) <= 1e12
    with pytest.warns(IllConditionedWarning):
        out = estimator(d)
    assert out is not None


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_first_stage_above_condition_ceiling_refused(estimator):
    d = _first_stage_with_condition(1e13)
    assert np.linalg.cond(fit_first_stage(d).pi) > 1e12
    with pytest.raises(SingularFirstStage):
        estimator(d)
