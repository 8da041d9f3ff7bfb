"""First stage, reduced form, 2SLS, Wald ratios, and cluster inference.

Every statistic reads one moment object per Dataset or simulation run,
built on first use (``data._Moments``): the cross-products W'W of
W = [x, z, a, y] summed within each cluster and group level. For cluster
weights c it gives each level's Gram sum_g c_g W_gl'W_gl; a pooled fit
sums the levels' Grams and a group fit reads its own. ``_moment_fit``
partials the controls out of a Gram (Frisch-Waugh) as the Schur
complement of their block and solves the first stage Pi' and the reduced
form RF from the residual instrument block, with pivoted-Cholesky rank
checks of both blocks. A point estimate
is the fit at c = 1, a bootstrap replication the fit at its draw's cluster
counts; cluster scores are the object's per-cluster bilinear forms
L'(W_g'W_g)R, and the first-stage F is read off the Schur complement. The
system is just identified (one instrument per treatment), so the 2SLS
coefficients and the total slot-expansion effects are the same solve

    beta = T = solve(Pi', RF)

under one conditioning policy: cond(Pi') above COND_CEILING is refused
with SingularFirstStage and above COND_WARN warned about with
IllConditionedWarning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .data import Dataset, _Moments
from .errors import (
    DataError,
    IllConditionedWarning,
    RankDeficientControls,
    SingularFirstStage,
    SingularInstrumentGram,
    StatisticFailedInReplication,
    TooFewClusters,
    WeakDiagonalWarning,
    ZeroDiagonal,
    CascadeIVError,
)
from .seeds import rng_for

__all__ = [
    "FirstStage",
    "EstimateSet",
    "BootstrapResult",
    "fit_first_stage",
    "fit_reduced_form",
    "fit_2sls",
    "wald_ratios",
    "cluster_robust_se",
    "cluster_bootstrap",
    "first_stage_f",
    "estimate_all",
]

WEAK_DIAGONAL_THRESHOLD = 1e-6
COND_WARN = 1e8
COND_CEILING = 1e12


@dataclass(frozen=True)
class FirstStage:
    """K x K first-stage coefficient matrix.

    ``pi[j, k]`` is the coefficient on instrument k in the joint regression
    of treatment j on all K instruments (controls projected out). ``diag``
    holds the own-instrument effects and ``offdiag`` the cross-effects with
    a zero diagonal, so ``pi == np.diag(diag) + offdiag`` by construction.
    """

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
            raise DataError("first-stage matrix must be square")
        object.__setattr__(self, "pi", pi)

    @property
    def k(self) -> int:
        return self.pi.shape[0]

    @property
    def diag(self) -> np.ndarray:
        return np.diag(self.pi).copy()

    @property
    def offdiag(self) -> np.ndarray:
        out = self.pi.copy()
        np.fill_diagonal(out, 0.0)
        return out


@dataclass(frozen=True)
class EstimateSet:
    """Per-treatment estimates, standard errors and first stage from one fit."""

    beta: np.ndarray
    rf: np.ndarray
    wald: np.ndarray
    cascade_T: np.ndarray
    cascade_delta: np.ndarray
    se_beta: np.ndarray
    se_wald: np.ndarray
    se_delta: np.ndarray
    n_obs: int
    n_clusters: int
    first_stage: FirstStage
    first_stage_f: np.ndarray


@dataclass(frozen=True)
class BootstrapResult:
    """Cluster-bootstrap spread of a statistic.

    ``estimates`` has one row per successful replication, indexed by
    replication so that any evaluation order yields identical output.
    """

    se: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    n_failed: int
    reps: int
    estimates: np.ndarray
    components: tuple[str, ...]


# ---------------------------------------------------------------------------
# The one fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Fit:
    """Pi' and RF solved from the cross-products W'W of W = [x, z, a, y].

    ``pi_t`` is Pi' (row k holding instrument k's coefficients for every
    treatment) and ``rf`` the reduced form. ``partial`` is Mxx^-1 Mx., the
    controls' coefficients for every other column of W, so the rows net of
    the controls are W E with E = [-partial; I] and ``resid`` = E'W'W E;
    ``instruments`` is the pivoted-Cholesky factor of its instrument block.
    """

    pi_t: np.ndarray
    rf: np.ndarray
    n_obs: int
    n_controls: int
    partial: np.ndarray
    resid: np.ndarray
    instruments: tuple


def _singular_instruments(column: int) -> SingularInstrumentGram:
    return SingularInstrumentGram(
        "instrument Gram matrix is rank deficient after partialling "
        f"(offending instrument column {column + 1})"
    )


def _pivoted_cholesky(gram: np.ndarray, tol: float, norms: np.ndarray | None = None):
    """Rank-revealing Cholesky (LAPACK ``dpstrf``) of a Gram matrix.

    The Gram is scaled by s = ``norms`` (default sqrt(diag(gram)); 1 for a
    zero column) and factored in pivot order, always on the largest
    remaining diagonal, as a pivoted QR of the columns pivots on the
    largest remaining norm. A column's remaining diagonal is its squared
    distance, in units of its norm in s, from the span of the columns
    pivoted before it; the factorization stops where that is at most
    ``tol``.

    Returns ``((l, perm, s), None, 0.0)`` at full rank, else ``(None,
    column, cond)`` naming the column the next pivot would take (its
    largest remaining diagonal) and 1 / that diagonal, a lower bound on the
    scaled Gram's condition number (inf for an exact dependence).
    """
    s = np.sqrt(np.diag(gram)) if norms is None else norms.copy()
    s[s == 0.0] = 1.0
    a = gram / np.outer(s, s)
    l, piv, rank, _ = scipy.linalg.lapack.dpstrf(a, tol=tol, lower=1)
    if rank and l[0, 0] ** 2 <= tol:  # dpstrf holds only later pivots to tol
        rank = 0
    perm = piv - 1
    if rank == gram.shape[0]:
        return (l, perm, s), None, 0.0
    rest = perm[rank:]
    remaining = np.diag(a)[rest] - (l[rank:, :rank] ** 2).sum(axis=1)
    worst = int(np.argmax(remaining))
    cond = 1.0 / remaining[worst] if remaining[worst] > 0 else np.inf
    return None, int(rest[worst]), float(cond)


def _cholesky_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """gram^-1 rhs, for the full-rank ``_pivoted_cholesky`` factor of gram."""
    l, perm, s = factor
    out = np.empty_like(rhs)
    out[perm] = scipy.linalg.lapack.dpotrs(l, (rhs / s[:, None])[perm], lower=1)[0]
    return out / s[:, None]


def _moment_fit(gram: np.ndarray, n_obs: int, n_controls: int, k: int) -> _Fit:
    """The fit of n_obs rows from their cross-products W'W, W = [x, z, a, y].

    The controls are partialled out as the Schur complement of their block
    of W'W, which leaves the cross-products of the residual z, a and y, and
    Pi' and RF solve the residual instrument block. Both blocks get a
    pivoted-Cholesky rank check. A column counts as dependent when its
    remaining squared norm is within the rounding of the products that made
    it: eps * max(n, p) of its own for the controls, n-row cross-products;
    and, for the instruments, measured against their norms before
    partialling, that much again times the scaled control block's condition
    number, which bounds the rounding of the Schur complement. A treatment
    whose residual squared norm is within that same bound of its raw one
    lies in the span of the controls up to rounding, so its Pi' column
    would be rounding noise: it is set to exactly zero, which the
    zero-diagonal and first-stage conditioning checks refuse.
    """
    p = n_controls
    eps = np.finfo(float).eps
    factor, column, cond = _pivoted_cholesky(gram[:p, :p], eps * max(n_obs, p))
    if factor is None:
        raise RankDeficientControls(column=column, cond=cond)
    cross = gram[:p, p:]
    partial = _cholesky_solve(factor, cross)
    resid = gram[p:, p:] - cross.T @ partial
    pivots = np.diag(factor[0])
    tol = eps * max(n_obs, k) * (pivots.max() / pivots.min()) ** 2
    raw = np.diag(gram)[p:]
    instruments, column, _ = _pivoted_cholesky(resid[:k, :k], tol, np.sqrt(raw[:k]))
    if instruments is None:
        raise _singular_instruments(column)
    coef = _cholesky_solve(instruments, resid[:k, k:])
    coef[:, np.flatnonzero(np.diag(resid)[k : 2 * k] <= tol * raw[k : 2 * k])] = 0.0
    return _Fit(coef[:, :k], coef[:, k], n_obs, p, partial, resid, instruments)


def _fit(data: Dataset, c: np.ndarray | None = None) -> _Fit:
    """The pooled fit of the Dataset's moments at cluster weights c (default 1)."""
    mom = data._moments
    grams, rows = mom.grams(np.ones(mom.g, dtype=np.intp) if c is None else c)
    return _moment_fit(grams.sum(axis=0), int(rows.sum()), data.n_controls, data.n_treatments)


def _solve_first_stage(pi_t: np.ndarray, rf: np.ndarray) -> np.ndarray:
    """T = solve(Pi', RF) under the package's one conditioning policy.

    Refuses with SingularFirstStage when cond(Pi') exceeds COND_CEILING and
    warns with IllConditionedWarning above COND_WARN. The residual
    ||Pi' T - RF||_inf is refined below 1e-10 * ||RF||_inf.
    """
    cond = np.linalg.cond(pi_t)
    if not np.isfinite(cond) or cond > COND_CEILING:
        raise SingularFirstStage(cond=float(cond))
    if cond > COND_WARN:
        warnings.warn(
            f"first-stage matrix condition number {cond:.3e} exceeds {COND_WARN:g}",
            IllConditionedWarning,
            stacklevel=3,
        )
    t = np.linalg.solve(pi_t, rf)
    scale = np.max(np.abs(rf)) if rf.size else 0.0
    resid = np.max(np.abs(rf - pi_t @ t), initial=0.0)
    for _ in range(3):
        if resid <= 1e-10 * scale:
            break
        t = t + np.linalg.solve(pi_t, rf - pi_t @ t)
        resid = np.max(np.abs(rf - pi_t @ t), initial=0.0)
    if resid > 1e-10 * scale:
        warnings.warn(
            f"residual {resid:.3e} above 1e-10 * ||RF|| after refinement",
            IllConditionedWarning,
            stacklevel=3,
        )
    return t


def _first_stage(f: _Fit) -> FirstStage:
    """The fit's FirstStage, warning about weak own-instrument coefficients."""
    if f.n_obs <= f.pi_t.shape[0] + f.n_controls:
        raise DataError("need N > K + p observations to fit the first stage")
    fs = FirstStage(f.pi_t.T)
    weak = np.flatnonzero(np.abs(fs.diag) < WEAK_DIAGONAL_THRESHOLD)
    if weak.size:
        warnings.warn(
            f"own-instrument first-stage coefficients below {WEAK_DIAGONAL_THRESHOLD:g} "
            f"for treatments {[int(k) + 1 for k in weak]}",
            WeakDiagonalWarning,
            stacklevel=3,
        )
    return fs


def fit_first_stage(data: Dataset) -> FirstStage:
    """Joint regression of each treatment on all instruments (plus controls).

    Warns with WeakDiagonalWarning when any own-instrument coefficient is
    below ``WEAK_DIAGONAL_THRESHOLD`` in absolute value, signalling a
    relevance failure in the population.
    """
    return _first_stage(_fit(data))


def fit_reduced_form(data: Dataset) -> np.ndarray:
    """Joint regression of the outcome on all instruments (plus controls)."""
    return _fit(data).rf


def fit_2sls(data: Dataset) -> np.ndarray:
    """Just-identified 2SLS coefficients, beta = solve(Pi', RF).

    Net of the controls this solves the moment conditions
    z'(y - a beta) = 0. cond(Pi') above COND_CEILING is refused and above
    COND_WARN warned about.
    """
    return _beta(_fit(data))


def wald_ratios(rf: np.ndarray, fs: FirstStage) -> np.ndarray:
    """Own-instrument ratios RF_k / pi_kk (cross-effects ignored)."""
    rf = np.asarray(rf, dtype=float)
    diag = fs.diag
    if rf.shape != diag.shape:
        raise DataError("reduced form and first stage have different lengths")
    for k, v in enumerate(diag):
        if v == 0.0:
            raise ZeroDiagonal(k)
    return rf / diag


# ---------------------------------------------------------------------------
# Cluster-robust inference
# ---------------------------------------------------------------------------


def _scores(f: _Fit, mom: _Moments, beta: np.ndarray, which) -> dict[str, np.ndarray]:
    """Cluster-summed influence (G x K) of the estimates named in ``which``.

    Row i's is (w_i'l)(w_i'r), so ``mom.scores`` sums it. With the rows net
    of the controls W E, E = [-partial; I], the beta score is Pi'^-1 (z'z)^-1
    z_i (y_i - a_i beta) and the rf score (z'z)^-1 z_i (y_i - z_i rf); the
    wald and delta ones need a nonzero first-stage diagonal, so are opt-in.
    """
    k = f.pi_t.shape[0]
    e = np.vstack([-f.partial, np.eye(2 * k + 1)])
    zz_inv = _cholesky_solve(f.instruments, np.eye(k))
    proj = e[:, :k] @ zz_inv  # w_i'proj = z_i'(z'z)^-1
    left = [e[:, :k] @ np.linalg.solve(f.pi_t, zz_inv).T, proj]
    right = [np.tile((e @ np.r_[np.zeros(k), -beta, 1.0])[:, None], k),
             np.tile((e @ np.r_[-f.rf, np.zeros(k), 1.0])[:, None], k)]
    wald = "wald" in which or "delta" in which
    if wald:
        wald_ratios(f.rf, FirstStage(f.pi_t.T))  # ZeroDiagonal for a zero pi_kk
        diag = np.diag(f.pi_t)
        left.append(proj)  # column k: influence of pi_kk
        right.append(e[:, k : 2 * k] - e[:, :k] @ f.pi_t)
    psi = mom.scores(np.hstack(left), np.hstack(right))
    out = {"beta": psi[:, :k], "rf": psi[:, k : 2 * k]}
    if wald:
        out["wald"] = out["rf"] / diag - (f.rf / diag**2) * psi[:, 2 * k :]
        out["delta"] = out["beta"] - out["wald"]
    return out


def _sandwich(psi: np.ndarray, n: int, k_params: int) -> np.ndarray:
    """Outer product of G x m cluster-summed scores times G/(G-1) * (N-1)/(N-k)."""
    g = psi.shape[0]
    if g < 2:
        raise TooFewClusters("cluster-robust inference needs >= 2 clusters")
    if n <= k_params:
        raise DataError(f"cluster-robust inference needs N > {k_params} observations")
    return psi.T @ psi * ((g / (g - 1)) * ((n - 1) / (n - k_params)))


def cluster_robust_se(data: Dataset, which: str = "beta") -> np.ndarray:
    """Cluster sandwich standard errors for ``beta``, ``rf``, ``wald`` or ``delta``.

    Scores are summed within clusters, with the conventional small-sample
    factor G/(G-1) * (N-1)/(N-K-p). Wald-ratio standard errors come
    from the delta-method influence of RF_k / pi_kk.
    """
    if which not in ("beta", "rf", "wald", "delta"):
        raise DataError(f"unknown standard-error target {which!r}")
    f = _fit(data)
    psi = _scores(f, data._moments, _beta(f), (which,))[which]
    return np.sqrt(np.diag(_sandwich(psi, data.n_obs, data.n_treatments + data.n_controls)))


def first_stage_f(data: Dataset) -> np.ndarray:
    """Per-treatment first-stage F: all K instruments jointly zero.

    Classic (homoskedastic) F on the system net of the controls, reported as a
    relevance diagnostic alongside the weak-diagonal check.
    """
    return _first_stage_f(_fit(data))


def _first_stage_f(f: _Fit) -> np.ndarray:
    """``first_stage_f`` from the fit's Schur complement."""
    k = f.pi_t.shape[0]
    explained = (f.pi_t * f.resid[:k, k : 2 * k]).sum(axis=0)
    rss = np.diag(f.resid)[k : 2 * k] - explained
    with np.errstate(divide="ignore", invalid="ignore"):
        dof = f.n_obs - k - f.n_controls
        return np.where(rss > 0, (explained / k) / (rss / dof), np.inf)


# ---------------------------------------------------------------------------
# Cluster bootstrap
# ---------------------------------------------------------------------------


def _beta(f) -> np.ndarray:
    return _solve_first_stage(f.pi_t, f.rf)


def _wald(f) -> np.ndarray:
    return wald_ratios(f.rf, _first_stage(f))


def _cascade_delta(f) -> np.ndarray:
    return _beta(f) - _wald(f)


def _pi(f) -> np.ndarray:
    return _first_stage(f).pi.ravel()


# statistics of one fit; "conditional_entrant" fits the pooled draw and
# each group level
_FIT_STATISTICS = {
    "beta": _beta,
    "wald": _wald,
    "cascade_delta": _cascade_delta,
    "first_stage": _pi,
}


def _moment_replicate(data: Dataset, name: str):
    """A named statistic as a function of a draw of cluster indices: the
    Dataset's moment object at the draw's cluster counts (``conditional_entrant``
    goes through ``conditional_entrant_by_group``'s function)."""
    from .cascade import _entrant_effects  # cascade needs the fits above

    mom = data._moments

    def replicate(draw):
        c = np.bincount(draw, minlength=mom.g)
        if name == "conditional_entrant":
            parts = list(_entrant_effects(data, c).values())
            return np.concatenate(parts + [parts[0] - parts[1]] if len(parts) == 2 else parts)
        return _FIT_STATISTICS[name](_fit(data, c))

    return replicate


def _components(name, data: Dataset) -> tuple[str, ...]:
    """Component names of a named statistic; the two-level
    ``conditional_entrant`` difference is ``dT_<j>``, which no label makes."""
    k = data.n_treatments
    if name == "first_stage":
        return tuple(f"pi_{j + 1}_{m + 1}" for j in range(k) for m in range(k))
    if isinstance(name, str) and name in _FIT_STATISTICS:
        return tuple(f"{name}_{j + 1}" for j in range(k))
    if name != "conditional_entrant":
        raise DataError(f"unknown bootstrap statistic {name!r}")
    levels = data._moments.levels
    if levels is None:
        raise DataError("conditional_entrant statistic needs group labels")
    names = [f"T_{j + 1}|{lev}" for lev in levels for j in range(k)]
    if len(levels) == 2:
        names += [f"dT_{j + 1}" for j in range(k)]
    return tuple(names)


def cluster_bootstrap(
    data: Dataset,
    statistic: str,
    reps: int,
    seed: int,
    max_failure_share: float = 0.10,
) -> BootstrapResult:
    """Resample clusters with replacement and recompute a statistic.

    Each replication draws G clusters with replacement, on a seed derived
    from the master seed and the replication, so evaluation order cannot
    matter. There is one path: the statistic is a name, ``beta``, ``wald``,
    ``cascade_delta``, ``conditional_entrant`` or the library-only
    ``first_stage`` (Pi in row-major order, components ``pi_<j>_<k>`` for
    treatment j and instrument k), and each replication recomputes it from
    the Dataset's moment object of [x, z, a, y], weighted by the draw's
    cluster counts; no rows are copied. Any other statistic is a
    DataError. Replications where the statistic raises a package error (a
    rank-deficient draw, a singular first stage, a zero first-stage
    diagonal, too few rows, a lost group level) are dropped and counted;
    more than ``max_failure_share`` failures is an error.
    """
    if reps < 2:
        raise DataError("bootstrap needs reps >= 2")
    components = _components(statistic, data)
    g = data.n_clusters
    if g < 2:
        raise TooFewClusters("cluster bootstrap needs >= 2 clusters")
    replicate = _moment_replicate(data, statistic)

    results = None
    n_failed = 0
    for r in range(reps):
        draw = rng_for(seed, r).integers(0, g, size=g)
        try:
            value = np.atleast_1d(np.asarray(replicate(draw), dtype=float))
        except CascadeIVError:
            n_failed += 1
            continue
        if results is None:
            results = np.full((reps, value.size), np.nan)
        results[r] = value
    if n_failed > max_failure_share * reps or results is None:
        raise StatisticFailedInReplication(n_failed, reps, max_failure_share)

    ok = ~np.isnan(results[:, 0])
    est = results[ok]
    se = np.std(est, axis=0, ddof=1)
    lo, hi = np.percentile(est, [2.5, 97.5], axis=0)
    return BootstrapResult(
        se=se,
        ci_lower=lo,
        ci_upper=hi,
        n_failed=n_failed,
        reps=reps,
        estimates=est,
        components=components,
    )


# ---------------------------------------------------------------------------
# One-stop estimation
# ---------------------------------------------------------------------------


def estimate_all(data: Dataset) -> EstimateSet:
    """Fit everything on one dataset and package it as an EstimateSet.

    The bootstrap replication whose cluster counts are all one: one fit and
    one solve. ``cascade_T`` is the same solve(Pi', RF) as ``beta``, the
    three standard-error vectors share one score pass over the same moment
    object, and the first stage and its F statistics are read off the fit.
    ``data`` is read only through its moment object and its sizes, so the
    pivotal records a simulation returns (``mechanism.SimulationOutput``),
    whose row writer fills the same moment object, stand in for the Dataset
    they would stack, group label included, bit for bit, unstacked.
    """
    f = _fit(data)
    fs = _first_stage(f)
    beta = _beta(f)
    wald = wald_ratios(f.rf, fs)
    scores = _scores(f, data._moments, beta, ("beta", "wald", "delta"))
    k_params = data.n_treatments + data.n_controls
    se = {w: np.sqrt(np.diag(_sandwich(psi, data.n_obs, k_params))) for w, psi in scores.items()}

    return EstimateSet(
        beta=beta,
        rf=f.rf,
        wald=wald,
        cascade_T=beta,
        cascade_delta=beta - wald,
        se_beta=se["beta"],
        se_wald=se["wald"],
        se_delta=se["delta"],
        n_obs=data.n_obs,
        n_clusters=data.n_clusters,
        first_stage=fs,
        first_stage_f=_first_stage_f(f),
    )
