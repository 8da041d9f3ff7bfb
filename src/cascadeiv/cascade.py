"""Slot-expansion effects from first-stage algebra.

The total effect T_k of adding one slot to program k satisfies the
recursion

    T_k = RF_k / pi_kk + sum_{j != k} (-pi_jk / pi_kk) T_j,

i.e. (I - M) T = W with W the Wald ratios and M the vacancy-creation
matrix M[j, k] = -pi_kj / pi_jj. Solving directly gives T = solve(Pi', RF);
expanding (I - M)^-1 as the geometric series sum_n M^n W reads the same
inversion round by round (first refill, second refill, ...), which
converges when the spectral radius of M is below one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import (
    DataError,
    DivergentCascade,
    EmptyGroupWarning,
    LengthMismatch,
    MaxRoundsExceeded,
    NonpositiveDiagonal,
    ZeroComplierMass,
    ZeroDiagonal,
)
from .estimator import FirstStage, _first_stage, _moment_fit, _solve_first_stage

__all__ = [
    "CascadeSolution",
    "VacancyMatrix",
    "BlockSpec",
    "cascade_solve",
    "neumann_solve",
    "spectral_radius",
    "cascade_decomposition",
    "conditional_entrant_effect",
    "conditional_entrant_by_group",
    "group_outcome_decomposition",
    "block_weights",
    "three_program_beta2",
]

@dataclass(frozen=True)
class CascadeSolution:
    """Total slot-expansion effects T and the net-of-direct part delta.

    ``rounds`` holds the per-round contributions when solved round by
    round (their sum equals T exactly). ``rho_estimate`` is the spectral
    radius of |M|, the conservative convergence gate for the round-by-round
    reading.
    """

    T: np.ndarray
    delta: np.ndarray
    rho_estimate: float
    rounds: list[np.ndarray] | None = None


@dataclass(frozen=True)
class VacancyMatrix:
    """Vacancy-creation rates M[j, k] = -pi_kj / pi_jj, zero diagonal."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DataError("vacancy matrix must be square")
        if not np.all(np.isfinite(m)):
            raise DataError("vacancy matrix entries must be finite")
        if np.any(np.diag(m) != 0.0):
            raise DataError("vacancy matrix diagonal must be exactly zero")
        object.__setattr__(self, "m", m)

    @classmethod
    def from_first_stage(cls, fs: FirstStage) -> "VacancyMatrix":
        diag = fs.diag
        for j, v in enumerate(diag):
            if v == 0.0:
                raise ZeroDiagonal(j)
        m = -fs.pi.T / diag[:, None]
        np.fill_diagonal(m, 0.0)
        return cls(m)


@dataclass(frozen=True)
class BlockSpec:
    """Partition of the programs into named blocks, with optional weights."""

    blocks: dict[str, tuple[int, ...]]
    k: int
    weights: dict[str, np.ndarray] | None = None

    def __post_init__(self):
        _check_partition(self.blocks, range(self.k))


def _check_partition(blocks: dict, ids: range):
    """A DataError, naming ids as ``ids`` numbers them, unless ``blocks``
    (name -> member ids) puts each of ``ids`` in exactly one block."""
    seen: set[int] = set()
    for name, members in blocks.items():
        if not members:
            raise DataError(f"block {name!r} is empty")
        for m in members:
            if m not in ids:
                raise DataError(
                    f"block {name!r} references program {m}; "
                    f"valid programs are {ids[0]}..{ids[-1]}"
                )
            if m in seen:
                raise DataError(f"program {m} appears in more than one block")
            seen.add(m)
    if seen != set(ids):
        missing = sorted(set(ids) - seen)
        raise DataError(f"blocks must partition the programs; missing {missing}")


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def spectral_radius(m: np.ndarray) -> float:
    """Spectral radius of |m|: the largest modulus of its eigenvalues.

    |m| bounds the spectral radius of m from above, which is what the
    convergence gate needs. One dense eigensolve costs microseconds at
    these K; even for a defective |m| its error is of the order of the
    square root of machine epsilon, while a power iteration converges there
    too slowly to tell a radius just below one from one above it.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DataError("spectral_radius expects a square matrix")
    if not np.all(np.isfinite(m)):
        raise DataError("spectral_radius expects finite entries")
    if not m.any():
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(np.abs(m)))))


def cascade_solve(fs: FirstStage, rf: np.ndarray) -> CascadeSolution:
    """Solve (I - M) T = W exactly, i.e. T = solve(Pi', RF).

    The solve is the one ``fit_2sls`` and ``estimate_all`` use, under the
    same policy: cond(Pi') above ``estimator.COND_CEILING`` is refused with
    SingularFirstStage, above ``estimator.COND_WARN`` warned about with
    IllConditionedWarning, and the residual ||Pi' T - RF||_inf is refined
    below 1e-10 * ||RF||_inf.
    """
    rf = np.asarray(rf, dtype=float)
    if rf.shape != (fs.k,):
        raise LengthMismatch("reduced form length does not match the first stage")
    t = _solve_first_stage(fs.pi.T, rf)
    vm = VacancyMatrix.from_first_stage(fs)
    wald = rf / fs.diag
    rho = spectral_radius(vm.m)
    return CascadeSolution(T=t, delta=t - wald, rho_estimate=rho)


def neumann_solve(
    vm: VacancyMatrix,
    wald: np.ndarray,
    tol: float = 1e-10,
    max_rounds: int = 10_000,
) -> CascadeSolution:
    """Accumulate T = sum_n M^n W round by round.

    Checks the spectral radius of |M| first and raises DivergentCascade at
    or above one. Rounds stop once the next increment falls below the
    tolerance (tightened by (1 - rho) when rho is large, so the sum agrees
    with the direct solve within 10x the tolerance). The returned rounds
    trace sums to T exactly.
    """
    wald = np.asarray(wald, dtype=float)
    if wald.shape != (vm.m.shape[0],):
        raise LengthMismatch("Wald vector length does not match the vacancy matrix")
    if not (np.isfinite(tol) and tol > 0) or max_rounds < 1:
        raise DataError(f"need a finite tol > 0 and max_rounds >= 1; got {tol!r}, {max_rounds!r}")
    rho = spectral_radius(vm.m)
    if rho >= 1.0:
        raise DivergentCascade(rho)
    thresh = tol if rho < 0.5 else tol * (1.0 - rho)
    total = np.zeros_like(wald)
    rounds: list[np.ndarray] = []
    term = wald.copy()
    converged = False
    for _ in range(max_rounds):
        total = total + term
        rounds.append(term)
        nxt = vm.m @ term
        if np.max(np.abs(nxt), initial=0.0) <= thresh:
            converged = True
            break
        term = nxt
    if not converged:
        raise MaxRoundsExceeded(
            f"no convergence within {max_rounds} rounds (spectral radius {rho:.4f})"
        )
    return CascadeSolution(T=total, delta=total - wald, rho_estimate=rho, rounds=rounds)


def cascade_decomposition(t: np.ndarray, wald: np.ndarray) -> np.ndarray:
    """Reallocation component delta = T - W."""
    t = np.asarray(t, dtype=float)
    wald = np.asarray(wald, dtype=float)
    if t.shape != wald.shape:
        raise LengthMismatch(
            f"T has length {t.shape} but W has length {wald.shape}"
        )
    return t - wald


# ---------------------------------------------------------------------------
# Heterogeneity and aggregation
# ---------------------------------------------------------------------------


def conditional_entrant_effect(
    rf_g: np.ndarray, fs_g: FirstStage, beta_full: np.ndarray
) -> np.ndarray:
    """Total effect of admitting one more group-g member to each program.

    Combines the group-specific direct margin RF_k^g / pi_kk^g with
    full-population downstream effects: the departing seat-holder is a
    group-g member (group-specific vacancy rates) but refills draw from the
    whole queue (full-sample beta).
    """
    rf_g = np.asarray(rf_g, dtype=float)
    beta_full = np.asarray(beta_full, dtype=float)
    if rf_g.shape != (fs_g.k,) or beta_full.shape != (fs_g.k,):
        raise LengthMismatch("rf_g, fs_g, and beta_full must share length K")
    m_g = VacancyMatrix.from_first_stage(fs_g).m
    return rf_g / fs_g.diag + m_g @ beta_full


def _entrant_effects(data: Dataset, c, levels=None, beta_full=None) -> dict:
    """``conditional_entrant_effect`` of each of ``levels`` (default: all) from the
    per-level Grams at cluster weights c; ``beta_full`` defaults to their sum's fit."""
    p, k, mom = data.n_controls, data.n_treatments, data._moments
    if mom.levels is None:
        raise DataError("conditional-entrant effects need group labels")
    grams, rows = mom.grams(c)
    if beta_full is None:
        f = _moment_fit(grams.sum(axis=0), int(rows.sum()), p, k)
        beta_full = _solve_first_stage(f.pi_t, f.rf)
    out = {}
    for lev in mom.levels if levels is None else levels:
        j = np.flatnonzero(mom.levels == lev)[:1]
        if not rows[j].any():
            raise DataError(f"group level {lev!r} absent from this sample")
        f = _moment_fit(grams[j[0]], int(rows[j[0]]), p, k)
        out[lev] = conditional_entrant_effect(f.rf, _first_stage(f), beta_full)
    return out


def conditional_entrant_by_group(
    data: Dataset, levels=None, beta_full: np.ndarray | None = None
) -> dict:
    """``conditional_entrant_effect`` for each level of the group labels.

    One fit of each level's Gram in the moment object of ``data`` (a
    Dataset or a labelled run); ``beta_full`` is fitted when not given.
    ``levels`` defaults to the distinct labels; an absent one is a DataError.
    """
    return _entrant_effects(data, np.ones(data.n_clusters, dtype=np.intp), levels, beta_full)


def group_outcome_decomposition(
    data: Dataset,
    partition: np.ndarray | None = None,
    levels: list | None = None,
) -> dict:
    """Full-sample 2SLS with group-masked outcomes 1[g_i = g] * Y_i.

    The per-group coefficients sum to the full-sample beta for every
    treatment, up to rounding, because 2SLS is linear in the outcome. A level
    fits the pooled Gram of ``data`` (a Dataset or a labelled run) with its
    own y row and column in; a ``partition`` of a Dataset's rows is fitted as
    ``replace(data, group_label=partition)``.
    """
    if partition is not None:
        if not isinstance(data, Dataset):
            raise DataError("a partition labels the rows: pass a simulation's run.dataset")
        if np.shape(partition) != (data.n_obs,):
            raise LengthMismatch("partition must have one label per observation")
        data = replace(data, group_label=partition)
    mom = data._moments
    if mom.levels is None:
        raise DataError("no partition given and the dataset has no group labels")
    grams = mom.grams(np.ones(mom.g, dtype=np.intp))[0]
    pooled = grams.sum(axis=0)
    out = {}
    for lev in list(mom.levels) if levels is None else levels:
        j = np.flatnonzero(mom.levels == lev)
        if j.size == 0:
            warnings.warn(
                f"group {lev!r} has no observations; its outcome vector is zero",
                EmptyGroupWarning,
                stacklevel=2,
            )
        gram = pooled.copy()
        gram[-1] = gram[:, -1] = grams[j[0], -1] if j.size else 0.0
        f = _moment_fit(gram, data.n_obs, data.n_controls, data.n_treatments)
        out[lev] = _solve_first_stage(f.pi_t, f.rf)
    return out


def block_weights(fs: FirstStage, spec: BlockSpec) -> BlockSpec:
    """Diagonal-share weights w_m|B = pi_mm / sum_{j in B} pi_jj per block.

    Assumes program-specific instruments with application-dummy controls,
    under which cross-program covariances vanish and the weights are
    strictly positive and sum to one within each block.
    """
    if spec.k != fs.k:
        raise LengthMismatch("block spec and first stage have different K")
    diag = fs.diag
    weights = {}
    for name, members in spec.blocks.items():
        for m in members:
            if diag[m] <= 0.0:
                raise NonpositiveDiagonal(m)
        d = diag[list(members)]
        weights[name] = d / d.sum()
    return BlockSpec(blocks=spec.blocks, k=spec.k, weights=weights)


def three_program_beta2(
    p02: float, p12: float, e20: float, e21: float, e10: float
) -> float:
    """Closed-form coefficient for the selective program in the two-rung case.

    ``p02``/``p12`` are the complier masses at the selective program's
    margin (entrants from outside vs. movers up from the mid-tier program);
    ``e20``, ``e21``, ``e10`` are the mean gains on the 0->2, 1->2, and
    0->1 margins. The mover term bundles the mover's own gain with the
    backfill of the seat they vacate:

        (p02 * e20 + p12 * (e21 + e10)) / (p02 + p12)
    """
    for name, p in (("p02", p02), ("p12", p12)):
        if not np.isfinite(p) or p < 0:
            raise DataError(f"{name} must be a nonnegative finite number")
    mass = p02 + p12
    if mass <= 0:
        raise ZeroComplierMass("p02 + p12 must be positive")
    return (p02 * e20 + p12 * (e21 + e10)) / mass


