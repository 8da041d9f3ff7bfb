import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cascadeiv import (
    MechanismConfig,
    SynthConfig,
    cluster_bootstrap,
    estimate_all,
    fit_first_stage,
    generate_population,
    scenario_three_program,
    simulate_run,
    slot_expansion_oracle,
)
from cascadeiv.errors import DataError, InfeasibleComplierTargets
from cascadeiv.seeds import rng_for
from cascadeiv.synth import _merit_z


def test_homogeneity_switch_is_exact():
    cfg = SynthConfig(n=500, k=3, seed=1, effects=(0.2, -0.1, 0.05), het_scale=0.0)
    pop = generate_population(cfg)
    gains = pop.po[:, 1:] - pop.po[:, [0]]
    assert_allclose(gains, np.tile([0.2, -0.1, 0.05], (500, 1)), atol=0)


def test_seed_determinism():
    cfg = SynthConfig(n=300, k=2, seed=9, het_scale=0.5, label_share=0.4)
    p1 = generate_population(cfg)
    p2 = generate_population(cfg)
    assert np.array_equal(p1.merit, p2.merit)
    assert np.array_equal(p1.po, p2.po)
    assert p1.prefs == p2.prefs
    assert np.array_equal(p1.labels["group"], p2.labels["group"])
    p3 = generate_population(SynthConfig(n=300, k=2, seed=10, het_scale=0.5))
    assert not np.array_equal(p1.po, p3.po)


@pytest.mark.parametrize("list_length", [None, 2])
def test_prefs_are_distinct_int_tuples(list_length):
    cfg = SynthConfig(n=400, k=4, seed=3, list_length=list_length)
    pop = generate_population(cfg)
    width = 4 if list_length is None else list_length
    assert isinstance(pop.prefs, list) and len(pop.prefs) == 400
    assert all(type(p) is tuple and len(p) == width for p in pop.prefs)
    assert all(type(j) is int for p in pop.prefs for j in p)
    assert pop.prefs == [tuple(row) for row in pop.pref_array()[:, :width].tolist()]
    assert all(len(set(p)) == width and set(p) <= {1, 2, 3, 4} for p in pop.prefs)


def test_label_effect_shift_moves_group_gains():
    cfg = SynthConfig(
        n=2000, k=2, seed=2, effects=(0.1, 0.1), het_scale=0.0,
        label_share=0.5, label_effect_shift=(0.3, 0.0),
    )
    pop = generate_population(cfg)
    g = pop.labels["group"]
    gains1 = pop.po[:, 1] - pop.po[:, 0]
    assert_allclose(gains1[g == 1], 0.4, atol=0)
    assert_allclose(gains1[g == 0], 0.1, atol=0)


def test_ordered_selectivity_keeps_low_margin_off_high_program():
    # three programs with separated selectivity; the least selective
    # program's lottery must not move enrollment in the most selective one
    cfg = SynthConfig(
        n=8_000, k=3, seed=3, n_merit_brackets=8, taste_scale=0.25,
        assortative=2.0, effects=(0.2, 0.1, 0.3), het_scale=0.2,
    )
    pop = generate_population(cfg)
    mech = MechanismConfig(capacities=(900, 600, 360), lottery_seed=0)
    data = simulate_run(pop, mech, reps=25, master_seed=11).dataset
    fs = fit_first_stage(data)
    assert fs.pi[0, 0] > 0.5  # margins are strong
    boot = cluster_bootstrap(data, "first_stage", reps=40, seed=5)
    se_pi31 = boot.se[boot.components.index("pi_3_1")]
    assert abs(fs.pi[2, 0]) < max(3 * se_pi31, 1e-8)


# ---------------------------------------------------------------------------
# scenario_three_program
# ---------------------------------------------------------------------------


def scenario_cfg(**kw):
    base = dict(
        n=20_000, k=2, seed=7, het_scale=0.3, base_scale=0.5,
        complier_targets=(0.5, 0.5), scenario_effects=(1.0, 0.3, 0.4),
    )
    base.update(kw)
    return SynthConfig(**base)


def test_scenario_prediction_hand_value():
    sc = scenario_three_program(scenario_cfg())
    assert sc.predicted_beta2 == pytest.approx(0.85, abs=1e-12)
    assert sc.shares[0] == pytest.approx(0.5, abs=0.05)


def test_scenario_no_displacement_target():
    sc = scenario_three_program(scenario_cfg(complier_targets=(0.7, 0.0)))
    assert sc.predicted_beta2 == pytest.approx(1.0, abs=1e-12)  # = e20


def test_scenario_simulated_2sls_matches_prediction():
    sc = scenario_three_program(scenario_cfg())
    mech = MechanismConfig(capacities=sc.capacities, lottery_seed=0)
    data = simulate_run(sc.population, mech, reps=50, master_seed=13).dataset
    est = estimate_all(data)
    assert abs(est.beta[1] - sc.predicted_beta2) < 3 * est.se_beta[1]
    fs = fit_first_stage(data)
    assert abs(fs.pi[1, 0]) < 1e-10  # mid-tier lottery never touches program 2
    # with that restriction the first reduced-form equation collapses to
    # RF_1 = beta_1 * pi_11
    assert abs(est.rf[0] - est.beta[0] * fs.pi[0, 0]) < 1e-8


def test_scenario_homogeneous_collapse():
    # e20 = e21 + e10: the closed form collapses to the common gain
    sc = scenario_three_program(
        scenario_cfg(scenario_effects=(0.5, 0.2, 0.3), het_scale=0.2)
    )
    assert sc.predicted_beta2 == pytest.approx(0.5, abs=1e-12)
    mech = MechanismConfig(capacities=sc.capacities, lottery_seed=0)
    data = simulate_run(sc.population, mech, reps=50, master_seed=14).dataset
    est = estimate_all(data)
    assert abs(est.beta[1] - 0.5) < 3 * est.se_beta[1]
    orc = slot_expansion_oracle(sc.population, mech, 2, reps=50, master_seed=14)
    assert abs(orc.value - 0.5) < max(3 * orc.mc_se, 1e-9)


def test_scenario_share_fidelity():
    sc = scenario_three_program(scenario_cfg(n=50_000, complier_targets=(0.3, 0.7)))
    assert sc.shares[0] == pytest.approx(0.3, abs=0.05)
    assert sc.shares[1] == pytest.approx(0.7, abs=0.05)


def test_scenario_rejects_bad_targets():
    with pytest.raises(InfeasibleComplierTargets):
        scenario_three_program(scenario_cfg(complier_targets=(0.0, 0.0)))
    with pytest.raises(InfeasibleComplierTargets):
        scenario_three_program(scenario_cfg(complier_targets=(-0.2, 0.5)))
    with pytest.raises(InfeasibleComplierTargets):
        scenario_three_program(scenario_cfg(n=20))
    with pytest.raises(DataError):
        scenario_three_program(scenario_cfg(k=3))
    with pytest.raises(DataError):
        scenario_three_program(scenario_cfg(complier_targets=None))


def test_config_validation():
    with pytest.raises(DataError):
        SynthConfig(n=0, k=2, seed=1)
    with pytest.raises(DataError):
        SynthConfig(n=10, k=2, seed=1, het_scale=-0.1)
    with pytest.raises(DataError):
        SynthConfig(n=10, k=2, seed=1, effects=(0.1,))


def reference_generate_population(cfg: SynthConfig):
    """The generator as one expression per step, each making a new array:
    merit, padded preferences, potential outcomes and labels."""
    n, k = cfg.n, cfg.k
    rng_merit, rng_taste = rng_for(cfg.seed, 0), rng_for(cfg.seed, 1)
    rng_outcome, rng_label = rng_for(cfg.seed, 2), rng_for(cfg.seed, 3)
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
    sel = (np.linspace(-1.0, 2.0, k) if cfg.selectivity is None
           else np.asarray(cfg.selectivity, dtype=float))
    util = -cfg.assortative * (mz[:, None] - sel[None, :]) ** 2
    util = util + cfg.taste_scale * rng_taste.standard_normal((n, k))
    if label is not None and cfg.label_taste_shift is not None:
        util = util + label[:, None] * np.asarray(cfg.label_taste_shift, dtype=float)
    order = np.argsort(-util, axis=1, kind="stable")
    l_max = k if cfg.list_length is None else min(cfg.list_length, k)
    prefs = order[:, :l_max] + 1
    effects = np.zeros(k) if cfg.effects is None else np.asarray(cfg.effects, dtype=float)
    loadings = (np.linspace(-1.0, 1.0, k) if cfg.het_loadings is None
                else np.asarray(cfg.het_loadings, dtype=float))
    y0 = cfg.base_scale * rng_outcome.standard_normal(n)
    mix = np.clip(cfg.het_merit_mix, -1.0, 1.0)
    theta = mix * mz + np.sqrt(1.0 - mix**2) * rng_outcome.standard_normal(n)
    idio = rng_outcome.standard_normal((n, k))
    gains = effects[None, :] + cfg.het_scale * (theta[:, None] * loadings[None, :] + 0.5 * idio)
    if label is not None and cfg.label_effect_shift is not None:
        gains = gains + label[:, None] * np.asarray(cfg.label_effect_shift, dtype=float)
    po = np.column_stack([y0, y0[:, None] + gains])
    labels = {"attr": attr}
    if label is not None:
        labels["group"] = label
    return merit, prefs, po, labels


FACTORS = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.5])


@st.composite
def synth_configs(draw):
    k = draw(st.integers(1, 5))
    brackets = draw(st.integers(1, 6))

    def vector():
        return draw(st.none() | st.lists(FACTORS | st.floats(-2, 2), min_size=k,
                                         max_size=k).map(tuple))

    return SynthConfig(
        n=draw(st.integers(1, 60)), k=k, seed=draw(st.integers(0, 2**32 - 1)),
        n_merit_brackets=brackets,
        merit_weights=draw(st.none() | st.lists(st.floats(0.1, 3), min_size=brackets,
                                                max_size=brackets).map(tuple)),
        selectivity=vector(), assortative=draw(FACTORS), taste_scale=draw(FACTORS),
        list_length=draw(st.none() | st.integers(1, k + 1)),
        base_scale=draw(FACTORS), effects=vector(), het_scale=draw(st.sampled_from([0.0, 0.5])),
        het_loadings=vector(), het_merit_mix=draw(st.sampled_from([0.5, 1.0, -0.3, 2.0])),
        label_share=draw(st.none() | st.sampled_from([0.0, 0.5, 1.0])),
        label_effect_shift=vector(), label_taste_shift=vector(),
    )


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(synth_configs())
def test_generator_matches_the_one_array_per_step_reference(cfg):
    # label shifts, list lengths, het_scale 0, tied utilities and signed
    # zeros (a zero scale gives -0.0 outcomes) all give the same bits
    merit, prefs, po, labels = reference_generate_population(cfg)
    pop = generate_population(cfg)
    assert pop.merit.dtype == merit.dtype and np.array_equal(pop.merit, merit)
    assert np.array_equal(pop.pref_array(), prefs)
    assert pop.po.dtype == po.dtype and np.array_equal(bits(pop.po), bits(po))
    assert pop.labels.keys() == labels.keys()
    for name, arr in labels.items():
        assert pop.labels[name].dtype == arr.dtype
        assert np.array_equal(bits(pop.labels[name]), bits(arr))
