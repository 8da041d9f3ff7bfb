"""Synthetic populations with controllable substitution and heterogeneity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import three_program_beta2
from .errors import DataError, InfeasibleComplierTargets
from .mechanism import Population
from .seeds import rng_for

__all__ = ["SynthConfig", "ThreeProgramScenario", "generate_population", "scenario_three_program"]


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the generator.

    Preferences come from an ideal-point model: applicant i ranks the
    programs by -assortative * (quality_i - selectivity_j)^2 plus
    idiosyncratic taste noise, so ``taste_scale`` is the single knob for
    cross-program substitution intensity. Potential-outcome gains are
    ``effects[j]`` plus heterogeneous terms scaled by ``het_scale``
    (zero means every applicant gains exactly ``effects[j]``).
    """

    n: int
    k: int
    seed: int
    n_merit_brackets: int = 8
    merit_weights: tuple | None = None
    selectivity: tuple | None = None
    assortative: float = 1.0
    taste_scale: float = 1.0
    list_length: int | None = None
    base_scale: float = 1.0
    effects: tuple | None = None
    het_scale: float = 0.0
    het_loadings: tuple | None = None
    het_merit_mix: float = 0.5
    label_share: float | None = None
    label_effect_shift: tuple | None = None
    label_taste_shift: tuple | None = None
    complier_targets: tuple | None = None
    scenario_effects: tuple | None = None

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise DataError("need n >= 1 and k >= 1")
        if self.het_scale < 0:
            raise DataError("het_scale must be nonnegative")
        for name in ("selectivity", "effects", "het_loadings",
                     "label_effect_shift", "label_taste_shift"):
            v = getattr(self, name)
            if v is not None and len(v) != self.k:
                raise DataError(f"{name} must have length k={self.k}")


def _merit_z(merit: np.ndarray, n_brackets: int) -> np.ndarray:
    return (merit - (n_brackets + 1) / 2.0) / max(n_brackets / 2.0, 1.0)


def generate_population(cfg: SynthConfig) -> Population:
    """Draw a population; deterministic given ``cfg.seed``.

    The (N, K) utilities and gains are computed in place, each in one array
    (the gains in the columns of ``po``), with the operands of every step
    those of the formulas in ``SynthConfig``, so the bits are theirs; the
    temporaries are released before ``Population`` validates the lists.
    """
    n, k = cfg.n, cfg.k
    rng_merit = rng_for(cfg.seed, 0)
    rng_taste = rng_for(cfg.seed, 1)
    rng_outcome = rng_for(cfg.seed, 2)
    rng_label = rng_for(cfg.seed, 3)

    weights = cfg.merit_weights
    if weights is None:
        weights = np.full(cfg.n_merit_brackets, 1.0 / cfg.n_merit_brackets)
    else:
        weights = np.asarray(weights, dtype=float)
        weights = weights / weights.sum()
    merit = rng_merit.choice(np.arange(1, cfg.n_merit_brackets + 1), size=n, p=weights)
    mz = _merit_z(merit, cfg.n_merit_brackets)

    attr = rng_label.standard_normal(n)
    label = None
    if cfg.label_share is not None:
        label = (rng_label.random(n) < cfg.label_share).astype(np.int64)

    sel = (
        np.linspace(-1.0, 2.0, k)
        if cfg.selectivity is None
        else np.asarray(cfg.selectivity, dtype=float)
    )
    # -assortative (mz - sel)^2 + taste_scale noise [+ label taste_shift]
    util = np.subtract(mz[:, None], sel)
    np.square(util, out=util)
    util *= -cfg.assortative
    noise = rng_taste.standard_normal((n, k))
    noise *= cfg.taste_scale
    util += noise
    del noise
    if label is not None and cfg.label_taste_shift is not None:
        for j, shift in enumerate(np.asarray(cfg.label_taste_shift, dtype=float)):
            util[:, j] += label * shift
    np.negative(util, out=util)  # ranked by descending utility
    order = np.argsort(util, axis=1, kind="stable")
    del util
    l_max = k if cfg.list_length is None else min(cfg.list_length, k)
    prefs = order[:, :l_max]
    prefs += 1

    effects = (
        np.zeros(k) if cfg.effects is None else np.asarray(cfg.effects, dtype=float)
    )
    loadings = (
        np.linspace(-1.0, 1.0, k)
        if cfg.het_loadings is None
        else np.asarray(cfg.het_loadings, dtype=float)
    )
    y0 = cfg.base_scale * rng_outcome.standard_normal(n)
    mix = np.clip(cfg.het_merit_mix, -1.0, 1.0)
    theta = mix * mz + np.sqrt(1.0 - mix**2) * rng_outcome.standard_normal(n)
    idio = rng_outcome.standard_normal((n, k))
    # gains: effects + het_scale (theta loadings + idio / 2) [+ label effect_shift]
    po = np.empty((n, k + 1))
    po[:, 0] = y0
    gains = po[:, 1:]
    np.multiply(theta[:, None], loadings, out=gains)
    idio *= 0.5
    gains += idio
    del idio
    gains *= cfg.het_scale
    gains += effects
    if label is not None and cfg.label_effect_shift is not None:
        for j, shift in enumerate(np.asarray(cfg.label_effect_shift, dtype=float)):
            gains[:, j] += label * shift
    gains += y0[:, None]  # each program's outcome, y0 + gain
    # attr is a predetermined continuous attribute, handy for balance checks
    labels = {"attr": attr}
    if label is not None:
        labels["group"] = label
    return Population(merit=merit, prefs=prefs, po=po, labels=labels)


@dataclass(frozen=True)
class ThreeProgramScenario:
    """Engineered two-rung population with a hand-computable coefficient."""

    population: Population
    capacities: tuple
    predicted_beta2: float
    shares: tuple
    effects: tuple


def scenario_three_program(cfg: SynthConfig) -> ThreeProgramScenario:
    """Two ranked programs plus the outside option, margins placed by bracket.

    Applicants at the selective program's margin split between entrants
    from outside (share p02) and movers up from the mid-tier program
    (share p12); the mid-tier margin draws from outside only, so its
    lottery cannot move selective-program enrollment. Complier shares are
    engineered by merit-bracket placement, and the analytic coefficient for
    the selective program follows from the configured margin effects.
    """
    if cfg.k != 2:
        raise DataError(
            "the three-program scenario has two ranked programs plus the "
            "outside option; configure k=2"
        )
    if cfg.complier_targets is None:
        raise DataError("complier_targets (p02, p12) must be set")
    if cfg.scenario_effects is None or len(cfg.scenario_effects) != 3:
        raise DataError("scenario_effects must be (e20, e21, e10)")
    p02, p12 = (float(p) for p in cfg.complier_targets)
    if not np.isfinite(p02) or not np.isfinite(p12) or p02 < 0 or p12 < 0:
        raise InfeasibleComplierTargets("complier targets must be nonnegative")
    if p02 + p12 <= 0:
        raise InfeasibleComplierTargets("complier targets must have positive mass")
    s02 = p02 / (p02 + p12)
    s12 = p12 / (p02 + p12)
    n = cfg.n
    if n < 50:
        raise InfeasibleComplierTargets("scenario needs n >= 50")
    e20, e21, e10 = (float(e) for e in cfg.scenario_effects)

    n_high = max(n // 10, 1)
    g2 = max(n // 5, 4)
    n_mid = max(n // 10, 1)
    g1 = max(n // 5, 4)
    n_low = n - n_high - g2 - n_mid - g1
    n12 = int(round(s12 * g2))
    n02 = g2 - n12

    # brackets: 1 low | 2 mid-tier margin | 3 inframarginal mid | 4 selective
    # margin | 5 top
    merit = np.concatenate(
        [
            np.full(n_high, 5),
            np.full(g2, 4),
            np.full(n_mid, 3),
            np.full(g1, 2),
            np.full(n_low, 1),
        ]
    ).astype(np.int64)
    prefs: list[tuple[int, ...]] = (
        [(2,)] * n_high
        + [(2, 1)] * n12
        + [(2,)] * n02
        + [(1,)] * n_mid
        + [(1,)] * g1
        + [(1,)] * n_low
    )

    rng = rng_for(cfg.seed, 4)
    sd = cfg.het_scale
    y0 = cfg.base_scale * rng.standard_normal(n)
    gain1 = np.empty(n)
    gain2 = np.empty(n)
    # movers' own mid-tier gain is never identified; e10 keeps it tidy
    gain1[:] = e10 + sd * rng.standard_normal(n)
    gain2[:] = gain1 + e21 + sd * rng.standard_normal(n)
    outside_entrants = np.zeros(n, dtype=bool)
    outside_entrants[n_high + n12 : n_high + g2] = True  # the 0->2 margin slice
    draw = e20 + sd * rng.standard_normal(n)
    gain2[outside_entrants] = draw[outside_entrants]
    po = np.column_stack([y0, y0 + gain1, y0 + gain2])

    population = Population(merit=merit, prefs=prefs, po=po)
    q2 = g2 // 2
    fallen_expected = int(round((g2 - q2) * (n12 / g2)))
    capacities = (n_mid + fallen_expected + g1 // 2, n_high + q2)
    predicted = three_program_beta2(n02 / g2, n12 / g2, e20, e21, e10)
    return ThreeProgramScenario(
        population=population,
        capacities=capacities,
        predicted_beta2=predicted,
        shares=(n02 / g2, n12 / g2),
        effects=(e20, e21, e10),
    )
