import numpy as np
import pytest
from numpy.testing import assert_allclose

from cascadeiv import MarketConfig, fit_2sls, market_oracle
from cascadeiv.errors import DataError, NoEquilibrium
from cascadeiv.market import market_clearing_prices


def substitutes_config(seed=4, n=300):
    rng = np.random.default_rng(seed)
    slope = np.array([[-1.0, 0.35], [0.35, -0.8]])
    intercepts = rng.uniform(2, 6, (n, 2)) + 10
    outcome = rng.uniform(0.1, 1.2, (n, 2))
    supply = np.array([0.4, 0.5]) * n
    return MarketConfig(
        intercepts=intercepts, slope=slope, supply=supply, outcome_coefs=outcome
    )


def test_clearing_prices_solve_demand_equals_supply():
    cfg = substitutes_config()
    p = market_clearing_prices(cfg)
    agg = cfg.intercepts.sum(axis=0) + cfg.n_consumers * (cfg.slope @ p)
    assert_allclose(agg, cfg.supply, atol=1e-8)


def test_diagonal_slope_moves_only_own_good():
    rng = np.random.default_rng(5)
    n = 100
    cfg = MarketConfig(
        intercepts=rng.uniform(5, 8, (n, 2)),
        slope=np.diag([-1.0, -0.8]),
        supply=np.array([200.0, 150.0]),
        outcome_coefs=rng.uniform(0, 1, (n, 2)),
    )
    res = market_oracle(cfg, 1, step=1.0)
    assert np.max(np.abs(res.reallocation[:, 1])) == 0.0
    assert res.value == pytest.approx(cfg.outcome_coefs[:, 0].mean(), abs=1e-10)


def test_two_good_substitutes_oracle_equals_2sls():
    cfg = substitutes_config()
    for k in (1, 2):
        res = market_oracle(cfg, k, step=1.0)
        beta = fit_2sls(res.dataset)
        assert abs(res.value - beta[k - 1]) < 1e-6


def test_oracle_dataset_cluster_ids_are_market_indices():
    # integer ids code without a string sort in every fit
    res = market_oracle(substitutes_config(), 1, step=1.0, n_markets=12)
    cluster = res.dataset.cluster
    assert cluster.dtype.kind == "i"
    assert res.dataset.n_clusters == 12
    assert np.array_equal(cluster, np.repeat(np.arange(12), res.dataset.n_obs // 12))


def test_oracle_locally_linear_in_step():
    cfg = substitutes_config()
    v1 = market_oracle(cfg, 1, step=0.5).value
    v2 = market_oracle(cfg, 1, step=0.25).value
    assert abs(v1 - v2) < 1e-6


def test_no_equilibrium_on_near_singular_slope():
    rng = np.random.default_rng(6)
    n = 50
    cfg = MarketConfig(
        intercepts=rng.uniform(5, 8, (n, 2)),
        slope=np.diag([-1.0, -1e-15]),
        supply=np.array([10.0, 10.0]),
        outcome_coefs=rng.uniform(0, 1, (n, 2)),
    )
    with pytest.raises(NoEquilibrium):
        market_clearing_prices(cfg)


def test_a_well_conditioned_slope_of_any_scale_is_accepted():
    # the invertibility check is a rank test, so it does not scale with the
    # slope: -1e-6 I has determinant -1e-18 and condition number 1
    rng = np.random.default_rng(8)
    n = 50
    cfg = MarketConfig(
        intercepts=rng.uniform(5, 8, (n, 3)),
        slope=-1e-6 * np.eye(3),
        supply=np.array([10.0, 10.0, 10.0]),
        outcome_coefs=rng.uniform(0, 1, (n, 3)),
    )
    p = market_clearing_prices(cfg)
    agg = cfg.intercepts.sum(axis=0) + n * (cfg.slope @ p)
    assert_allclose(agg, cfg.supply, rtol=1e-9)
    # a slope with a nan has no rank to test
    with pytest.raises(DataError, match="finite and invertible"):
        MarketConfig(intercepts=cfg.intercepts, slope=np.diag([-1.0, np.nan, -1.0]),
                     supply=cfg.supply, outcome_coefs=cfg.outcome_coefs)


def test_config_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(DataError):
        MarketConfig(
            intercepts=rng.uniform(0, 1, (10, 2)),
            slope=np.ones((2, 2)),  # exactly singular
            supply=np.array([1.0, 1.0]),
            outcome_coefs=rng.uniform(0, 1, (10, 2)),
        )
    with pytest.raises(DataError):
        MarketConfig(
            intercepts=rng.uniform(0, 1, (10, 2)),
            slope=np.diag([-1.0, -1.0]),
            supply=np.array([1.0, -1.0]),
            outcome_coefs=rng.uniform(0, 1, (10, 2)),
        )
