import numpy as np
import pytest
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
from cascadeiv.errors import (
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
from cascadeiv.estimator import FirstStage, _fit, first_stage_f

from conftest import bernoulli_iv_data, default_pi, noiseless_iv_data


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


def test_partial_out_demeans_with_constant_only():
    f = _fit(_tiny_dataset([1.0, 2.0, 3.0]))
    assert_allclose(f.y, [-1.0, 0.0, 1.0], atol=1e-12)
    assert f.n_controls == 1


def test_partial_out_in_span_gives_zero_residual():
    rng = np.random.default_rng(5)
    x = np.column_stack([np.ones(100), rng.standard_normal((100, 2))])
    y = x @ np.array([0.3, -2.0, 1.5])
    d = _tiny_dataset(y, x=x)
    assert np.max(np.abs(_fit(d).y)) < 1e-12
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
    # same scores; the default small-sample factor counts the live controls,
    # so both sides get the full-controls factor
    n, g, k_params = d.n_obs, d.n_clusters, d.n_treatments + d.n_controls
    factor = (g / (g - 1)) * ((n - 1) / (n - k_params))
    assert_allclose(
        cluster_robust_se(d, "beta"),
        cluster_robust_se(dp, "beta", small_sample_factor=factor),
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
    d = d.with_outcome(rng.standard_normal(d.n_obs))
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
    dup = d.take(rows)
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


def test_bootstrap_constant_statistic_has_zero_se():
    d = bernoulli_iv_data(61, n=300, k=2)
    res = cluster_bootstrap(d, lambda _: np.array([3.14]), reps=20, seed=1)
    assert_allclose(res.se, [0.0], atol=1e-15)


def test_bootstrap_same_seed_identical():
    d = bernoulli_iv_data(62, n=800, k=2)
    r1 = cluster_bootstrap(d, "beta", reps=30, seed=99)
    r2 = cluster_bootstrap(d, "beta", reps=30, seed=99)
    assert np.array_equal(r1.estimates, r2.estimates)
    assert np.array_equal(r1.se, r2.se)
    r3 = cluster_bootstrap(d, "beta", reps=30, seed=100)
    assert not np.array_equal(r1.estimates, r3.estimates)


def test_bootstrap_failure_policy():
    d = bernoulli_iv_data(63, n=400, k=2)

    def flaky(threshold):
        calls = {"n": 0}

        def stat(data):
            calls["n"] += 1
            if calls["n"] <= threshold:
                raise SingularInstrumentGram("constructed failure")
            return fit_2sls(data)

        return stat

    res = cluster_bootstrap(d, flaky(2), reps=40, seed=5)  # 5% failures: ok
    assert res.n_failed == 2
    assert res.estimates.shape[0] == 38
    with pytest.raises(StatisticFailedInReplication):
        cluster_bootstrap(d, flaky(10), reps=40, seed=5)  # 25%: over the ceiling


def test_bootstrap_rejects_bad_inputs():
    d = bernoulli_iv_data(64, n=200, k=2)
    with pytest.raises(DataError):
        cluster_bootstrap(d, "beta", reps=1, seed=0)
    with pytest.raises(DataError):
        cluster_bootstrap(d, "nope", reps=10, seed=0)


def test_bootstrap_conditional_entrant_components():
    d = bernoulli_iv_data(65, n=2000, k=2, n_clusters=30, group_share=0.5)
    res = cluster_bootstrap(d, "conditional_entrant", reps=30, seed=3)
    assert res.components == (
        "T_1|f", "T_2|f", "T_1|m", "T_2|m", "T_1|f-m", "T_2|f-m"
    )
    assert np.all(res.se > 0)


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


def test_fits_and_standard_errors_match_unpartialled_reference():
    # OLS and 2SLS on the full design [x, z], no partialling; influence
    # functions (W'W)^-1 w_i e_i and (W'X)^-1 w_i e_i, delta method for
    # the Wald ratios
    d = _correlated_instrument_data(81)
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
