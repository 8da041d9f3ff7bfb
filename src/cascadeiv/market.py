"""Fixed-supply market variant: prices instead of queues.

In a competitive market the mechanism variable is the price vector. With
linear demand q_i(p) = a_i + B p per consumer, supply expansions are
transmitted through prices exactly as slot expansions are transmitted
through cutoffs, so the slot-expansion identity carries over: the 2SLS
coefficients on allocations, instrumented by prices, equal the per-unit
supply-expansion effects.

What the variant can show: every consumer shares the one slope B, so a
supply change moves every bundle by the same dq = B dp, and with linear
outcomes both the supply-expansion effect T_k and the 2SLS beta_k equal
the mean k-th outcome coefficient. Acceptance criterion 9 therefore
passes any estimator that returns that mean: the variant illustrates the
algebra, and it does not test the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, NoEquilibrium
from .seeds import rng_for

__all__ = ["MarketConfig", "MarketOracleResult", "market_clearing_prices", "market_oracle"]

SUPPLY_JITTER = 0.05  # sd of a panel market's supply shocks, relative to supply


@dataclass(frozen=True)
class MarketConfig:
    """Linear demand economy with fixed supply.

    ``intercepts[i]`` is consumer i's demand intercept vector, ``slope`` the
    common (negative-definite) K x K price response, ``supply`` the fixed
    totals, and ``outcome_coefs[i]`` maps consumer i's allocation bundle to
    their outcome Y_i = outcome_coefs[i] . q_i.
    """

    intercepts: np.ndarray
    slope: np.ndarray
    supply: np.ndarray
    outcome_coefs: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.intercepts, dtype=float))
        b = np.asarray(self.slope, dtype=float)
        s = np.asarray(self.supply, dtype=float)
        g = np.atleast_2d(np.asarray(self.outcome_coefs, dtype=float))
        k = b.shape[0]
        if b.ndim != 2 or b.shape != (k, k):
            raise DataError("slope must be a square matrix")
        if a.shape[1] != k or g.shape != a.shape or s.shape != (k,):
            raise DataError("intercepts, outcome_coefs, and supply must agree on K")
        if np.any(s <= 0):
            raise DataError("supply must be strictly positive")
        if not np.all(np.isfinite(b)) or np.linalg.matrix_rank(b) < k:
            raise DataError("slope matrix must be finite and invertible")
        object.__setattr__(self, "intercepts", a)
        object.__setattr__(self, "slope", b)
        object.__setattr__(self, "supply", s)
        object.__setattr__(self, "outcome_coefs", g)

    @property
    def n_consumers(self) -> int:
        return self.intercepts.shape[0]

    @property
    def n_goods(self) -> int:
        return self.slope.shape[0]


def market_clearing_prices(cfg: MarketConfig, supply: np.ndarray | None = None):
    """Prices solving aggregate demand = supply."""
    s = cfg.supply if supply is None else np.asarray(supply, dtype=float)
    n = cfg.n_consumers
    cond = np.linalg.cond(cfg.slope)
    if not np.isfinite(cond) or cond > 1e14:
        raise NoEquilibrium(
            f"demand slope is numerically singular (condition number {cond:.3e})"
        )
    try:
        return np.linalg.solve(n * cfg.slope, s - cfg.intercepts.sum(axis=0))
    except np.linalg.LinAlgError as exc:
        raise NoEquilibrium(str(exc)) from exc


@dataclass(frozen=True)
class MarketOracleResult:
    """Per-unit supply-expansion effect and the 2SLS comparison inputs."""

    value: float
    prices_base: np.ndarray
    prices_expanded: np.ndarray
    reallocation: np.ndarray
    dataset: Dataset


def market_oracle(
    cfg: MarketConfig,
    k: int,
    step: float,
    n_markets: int = 40,
    seed: int = 0,
) -> MarketOracleResult:
    """Total outcome change per unit of extra supply of good k.

    Clears the market at the baseline supply and at supply + step * e_k,
    and aggregates the induced outcome changes across consumers. Also emits
    a consumer-by-market panel with prices as instruments, clustered by
    market index: supply is jittered across ``n_markets`` independent
    markets (normal shocks of ``SUPPLY_JITTER`` times the supply in sd),
    holding consumers fixed, so the price variation identifies the same
    linear system and 2SLS on the panel can be compared against the oracle.
    """
    if not 1 <= k <= cfg.n_goods:
        raise DataError(f"good id {k} out of range 1..{cfg.n_goods}")
    if step <= 0:
        raise DataError("step must be positive")
    p0 = market_clearing_prices(cfg)
    supply_plus = cfg.supply.copy()
    supply_plus[k - 1] += step
    p1 = market_clearing_prices(cfg, supply_plus)
    dq = cfg.slope @ (p1 - p0)  # identical across consumers
    realloc = np.broadcast_to(dq, cfg.intercepts.shape)
    total = float(cfg.outcome_coefs.sum(axis=0) @ dq)

    rng = rng_for(seed)
    n, kk = cfg.n_consumers, cfg.n_goods
    shocks = SUPPLY_JITTER * np.abs(cfg.supply) * rng.standard_normal((n_markets, kk))
    y_rows, a_rows, z_rows, cl_rows = [], [], [], []
    for m in range(n_markets):
        p_m = market_clearing_prices(cfg, cfg.supply + shocks[m])
        q_m = cfg.intercepts + p_m @ cfg.slope.T
        y_rows.append((cfg.outcome_coefs * q_m).sum(axis=1))
        a_rows.append(q_m)
        z_rows.append(np.broadcast_to(p_m, (n, kk)))
        cl_rows.append(np.full(n, m))
    dataset = Dataset(
        y=np.concatenate(y_rows),
        a=np.vstack(a_rows),
        z=np.vstack(z_rows),
        x=np.ones((n * n_markets, 1)),
        cluster=np.concatenate(cl_rows),
        binary_treatments=False,
    )
    return MarketOracleResult(
        value=total / step,
        prices_base=p0,
        prices_expanded=p1,
        reallocation=realloc,
        dataset=dataset,
    )
