"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them); all tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from cascadeiv import (
    Dataset,
    MarketConfig,
    MechanismConfig,
    Population,
    SynthConfig,
    VacancyMatrix,
    cascade_solve,
    conditional_entrant_by_group,
    conditional_entrant_effect,
    estimate_all,
    fit_2sls,
    fit_first_stage,
    fixture_checks,
    generate_population,
    group_outcome_decomposition,
    market_oracle,
    neumann_solve,
    run_clearing,
    scenario_three_program,
    simulate_and_oracles,
    simulate_run,
    slot_expansion_oracle,
)
from cascadeiv.errors import DivergentCascade
from cascadeiv.estimator import FirstStage, cluster_bootstrap
from cascadeiv.mechanism import _lottery, _sweep, balance_check, find_blocking_pairs
from cascadeiv.seeds import derive_seed

from conftest import assert_same_sweep, bernoulli_iv_data, well_conditioned_pi


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Algebraic identity: solving the cascade returns the 2SLS coefficients
# ---------------------------------------------------------------------------


def test_criterion_1_algebraic_cascade_identity():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 11))
        pi = well_conditioned_pi(rng, k)
        beta = rng.uniform(-2, 2, k)
        sol = cascade_solve(FirstStage(pi), pi.T @ beta)
        rel = np.max(np.abs(sol.T - beta)) / max(np.max(np.abs(beta)), 1e-30)
        worst = max(worst, rel)
    elapsed = time.time() - t0
    report(
        "criterion 1 (algebraic identity)",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst relative error {worst:.2e} over 1000 instances in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. Round-by-round equivalence and divergence detection
# ---------------------------------------------------------------------------


def _scaled_vacancy_matrix(rng, k, target_rho):
    m = rng.uniform(-1, 1, (k, k))
    np.fill_diagonal(m, 0.0)
    rho = np.max(np.abs(np.linalg.eigvals(np.abs(m))))
    return m * (target_rho / rho)


def test_criterion_2_neumann_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 8))
        m = _scaled_vacancy_matrix(rng, k, rng.uniform(0.05, 0.94))
        w = rng.uniform(-1, 1, k)
        sol = neumann_solve(VacancyMatrix(m), w, tol=1e-10, max_rounds=100_000)
        direct = np.linalg.solve(np.eye(k) - m, w)
        worst = max(worst, float(np.max(np.abs(sol.T - direct))))
    series_ok = worst <= 1e-8

    closed_worst = 0.0
    for _ in range(200):
        r21, r12 = rng.uniform(0.05, 0.95, 2)
        if r21 * r12 >= 0.999:
            continue
        d1, d2 = rng.uniform(0.3, 1.5, 2)
        w = rng.uniform(-1, 1, 2)
        pi = np.array([[d1, -r12 * d2], [-r21 * d1, d2]])
        sol = cascade_solve(FirstStage(pi), w * np.array([d1, d2]))
        rho = r21 * r12
        expected = np.array(
            [(w[0] + r21 * w[1]) / (1 - rho), (w[1] + r12 * w[0]) / (1 - rho)]
        )
        closed_worst = max(closed_worst, float(np.max(np.abs(sol.T - expected))))
    closed_ok = closed_worst <= 1e-12

    divergent_caught = 0
    for _ in range(50):
        k = int(rng.integers(2, 6))
        m = _scaled_vacancy_matrix(rng, k, rng.uniform(1.0, 3.0))
        try:
            neumann_solve(VacancyMatrix(m), np.ones(k))
        except DivergentCascade:
            divergent_caught += 1
    elapsed = time.time() - t0
    report(
        "criterion 2 (round-by-round equivalence)",
        series_ok and closed_ok and divergent_caught == 50 and elapsed < 5.0,
        f"series gap {worst:.2e}, closed-form gap {closed_worst:.2e}, "
        f"{divergent_caught}/50 divergent caught, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. Simulator identity at desk scale
# ---------------------------------------------------------------------------

SCENARIOS = (
    ("K=2 mild", dict(n=50_000, k=2, seed=1, taste_scale=1.0, het_scale=0.6,
                      het_merit_mix=0.6, effects=(0.3, -0.1), base_scale=0.5),
     (4000, 4000)),
    ("K=2 sorted", dict(n=50_000, k=2, seed=2, taste_scale=0.4, het_scale=0.8,
                        het_merit_mix=0.3, effects=(0.1, 0.2), base_scale=0.5,
                        assortative=1.5),
     (6000, 3000)),
    ("K=3 mild", dict(n=50_000, k=3, seed=3, taste_scale=1.0, het_scale=0.6,
                      het_merit_mix=0.5, effects=(0.2, -0.1, 0.1), base_scale=0.5),
     (3000, 3000, 3000)),
    ("K=3 strong substitution", dict(n=50_000, k=3, seed=4, taste_scale=2.5,
                                     het_scale=0.5, het_merit_mix=0.7,
                                     effects=(0.0, 0.15, -0.05), base_scale=0.4,
                                     het_loadings=(1.0, -0.5, 0.25)),
     (2500, 3500, 3000)),
    ("K=5", dict(n=50_000, k=5, seed=5, taste_scale=1.2, het_scale=0.5,
                 het_merit_mix=0.5, effects=(0.2, -0.1, 0.05, 0.15, 0.0),
                 base_scale=0.5),
     (2000, 2000, 2000, 2000, 2000)),
)


def test_criterion_3_simulator_identity_at_desk_scale():
    t0 = time.time()
    reps = 200
    details = []
    worst = 0.0
    for name, synth_kwargs, caps in SCENARIOS:
        cfg = SynthConfig(**synth_kwargs)
        pop = generate_population(cfg)
        mech = MechanismConfig(capacities=caps, lottery_seed=0)
        run, oracles = simulate_and_oracles(
            pop, mech, reps, 101, range(1, cfg.k + 1), oracle_reps=reps
        )
        est = estimate_all(run.dataset)
        for k, orc in enumerate(oracles, start=1):
            assert not orc.undersubscribed
            comb = float(np.hypot(est.se_beta[k - 1], orc.mc_se))
            z = abs(orc.value - est.beta[k - 1]) / comb
            worst = max(worst, z)
        details.append(f"{name} ok")
    elapsed = time.time() - t0
    report(
        "criterion 3 (simulator identity, desk scale)",
        worst < 3.0 and elapsed < 600.0,
        f"worst |oracle - beta| = {worst:.2f} combined SEs over "
        f"{len(SCENARIOS)} scenarios, {elapsed:.0f}s",
    )


CRITERION_4_EFFECTS = (0.2, -0.1, 0.05)


def _criterion_4_config(taste):
    return SynthConfig(n=30_000, k=3, seed=42, taste_scale=taste, het_scale=0.0,
                       effects=CRITERION_4_EFFECTS, base_scale=0.5, n_merit_brackets=6)


def test_warm_started_oracle_sweeps_match_cold_on_acceptance_scenarios():
    # the oracle's baseline and extra-seat sweeps start at the cutoffs with
    # one extra seat everywhere; on the populations of criteria 3 and 4 they
    # must end bit for bit where the sweep from -inf ends
    markets = [(SynthConfig(**kw), caps, 101) for _, kw, caps in SCENARIOS]
    markets += [(_criterion_4_config(t), (2000, 2000, 2000), 7) for t in (0.3, 1.0, 8.0)]
    for cfg, caps, master in markets:
        pop = generate_population(cfg)
        prefs, lengths, caps = pop.pref_array(), pop.pref_lengths(), np.asarray(caps)
        for r in range(2):
            pr_slot = _lottery(pop, derive_seed(master, r))[1]
            start = _sweep(prefs, lengths, pr_slot, caps + 1)
            for k in range(-1, cfg.k):
                plus = caps.copy()
                if k >= 0:  # k = -1 is the baseline
                    plus[k] += 1
                cold = _sweep(prefs, lengths, pr_slot, plus)
                warm = _sweep(prefs, lengths, pr_slot, plus, start=start)
                assert_same_sweep(warm, cold)


# ---------------------------------------------------------------------------
# 4. Homogeneous collapse across substitution intensities
# ---------------------------------------------------------------------------


def test_criterion_4_homogeneous_collapse():
    t0 = time.time()
    delta = CRITERION_4_EFFECTS
    worst_beta_z = 0.0
    worst_oracle = 0.0
    offdiags = []
    for taste in (0.3, 1.0, 8.0):
        pop = generate_population(_criterion_4_config(taste))
        mech = MechanismConfig(capacities=(2000, 2000, 2000), lottery_seed=0)
        run, oracles = simulate_and_oracles(pop, mech, 120, 7, (1, 2, 3), oracle_reps=120)
        data = run.dataset
        est = estimate_all(data)
        offdiags.append(float(np.max(np.abs(fit_first_stage(data).offdiag))))
        for k, orc in zip((1, 2, 3), oracles):
            gap = abs(orc.value - delta[k - 1])
            worst_oracle = max(worst_oracle, gap / max(3 * orc.mc_se, 1e-9))
            worst_beta_z = max(
                worst_beta_z,
                abs(est.beta[k - 1] - delta[k - 1]) / est.se_beta[k - 1],
            )
    elapsed = time.time() - t0
    span = f"off-diagonal span {min(offdiags):.2f}..{max(offdiags):.2f}"
    report(
        "criterion 4 (homogeneous collapse)",
        worst_beta_z < 3.0 and worst_oracle <= 1.0 and elapsed < 180.0,
        f"worst beta z = {worst_beta_z:.2f}, oracle exact (telescoping), "
        f"{span}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. Three-program closed form
# ---------------------------------------------------------------------------


def test_criterion_5_three_program_closed_form():
    t0 = time.time()
    predicted_by_hand = 0.85  # (0.5*1.0 + 0.5*(0.3 + 0.4)) / (0.5 + 0.5)
    cfg = SynthConfig(n=50_000, k=2, seed=55, het_scale=0.3, base_scale=0.5,
                      complier_targets=(0.5, 0.5), scenario_effects=(1.0, 0.3, 0.4))
    sc = scenario_three_program(cfg)
    assert sc.predicted_beta2 == pytest.approx(predicted_by_hand, abs=1e-12)
    mech = MechanismConfig(capacities=sc.capacities, lottery_seed=0)
    data = simulate_run(sc.population, mech, reps=60, master_seed=17).dataset
    est = estimate_all(data)
    beta2_z = abs(est.beta[1] - sc.predicted_beta2) / est.se_beta[1]
    pi21 = fit_first_stage(data).pi[1, 0]
    boot = cluster_bootstrap(data, "first_stage", reps=40, seed=9)
    se_pi21 = boot.se[boot.components.index("pi_2_1")]
    pi21_ok = abs(pi21) <= max(3 * se_pi21, 1e-8)
    elapsed = time.time() - t0
    report(
        "criterion 5 (three-program closed form)",
        beta2_z < 3.0 and pi21_ok and elapsed < 120.0,
        f"predicted 0.85, fitted {est.beta[1]:.4f} (z={beta2_z:.2f}), "
        f"pi21 = {pi21:.2e}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. Reference-table arithmetic
# ---------------------------------------------------------------------------


def test_criterion_6_reference_fixture_arithmetic():
    t0 = time.time()
    rep = fixture_checks()
    elapsed = time.time() - t0
    report(
        "criterion 6 (reference fixtures)",
        rep.all_passed and rep.rho_abs_m < 1.0 and elapsed < 1.0,
        f"{len(rep.checks)} checks, rho(|M|) = {rep.rho_abs_m:.4f}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 7. Group-outcome decomposition additivity
# ---------------------------------------------------------------------------


def test_criterion_7_group_decomposition_additivity():
    t0 = time.time()
    rng = np.random.default_rng(1007)
    worst = 0.0
    for s in range(20):
        d = bernoulli_iv_data(7000 + s, n=2000, k=3, x_extra=1)
        beta = fit_2sls(d)
        labels = rng.integers(0, int(rng.integers(2, 5)), d.n_obs)
        parts = group_outcome_decomposition(d, labels)
        total = np.sum(list(parts.values()), axis=0)
        worst = max(worst, float(np.max(np.abs(total - beta))))
    elapsed = time.time() - t0
    report(
        "criterion 7 (group decomposition additivity)",
        worst <= 1e-10 and elapsed < 120.0,
        f"worst additivity gap {worst:.2e} over 20 datasets, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Conditional-entrant formula
# ---------------------------------------------------------------------------


def _conditional_entrant_rep(seed):
    rng = np.random.default_rng(seed)
    n = 4000
    g = rng.random(n) < 0.5
    z = rng.random((n, 2))
    pi_f = np.array([[0.45, -0.10], [-0.14, 0.40]])
    pi_m = np.array([[0.40, -0.04], [-0.06, 0.42]])
    pr = np.where(g[:, None], 0.25 + z @ pi_f.T, 0.30 + z @ pi_m.T)
    a = (rng.random((n, 2)) < pr).astype(float)
    beta_f, beta_m = np.array([0.8, 0.1]), np.array([0.1, 0.1])
    y = np.where(g, a @ beta_f, a @ beta_m) + 0.4 * rng.standard_normal(n)
    d = Dataset(y=y, a=a, z=z, x=np.ones((n, 1)),
                cluster=rng.integers(0, 80, n),
                group_label=np.where(g, "f", "m"))
    t_g = conditional_entrant_by_group(d, levels=("f", "m"))
    return t_g["f"][0] - t_g["m"][0]


def test_criterion_8_conditional_entrant():
    t0 = time.time()
    rng = np.random.default_rng(1008)
    # degenerate grouping: everyone in one group reproduces the direct solve
    worst = 0.0
    for _ in range(25):
        pi = well_conditioned_pi(rng, 4)
        rf = rng.uniform(-1, 1, 4)
        fs = FirstStage(pi)
        sol = cascade_solve(fs, rf)
        gap = np.max(np.abs(conditional_entrant_effect(rf, fs, sol.T) - sol.T))
        worst = max(worst, float(gap))
    degenerate_ok = worst <= 1e-10

    signs = sum(_conditional_entrant_rep(10_000 + r) > 0 for r in range(100))
    elapsed = time.time() - t0
    report(
        "criterion 8 (conditional-entrant formula)",
        degenerate_ok and signs >= 95,
        f"degenerate gap {worst:.2e}, constructed sign in {signs}/100 "
        f"replications, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. Market variant
# ---------------------------------------------------------------------------


def test_criterion_9_market_variant():
    t0 = time.time()
    rng = np.random.default_rng(1009)
    n = 400
    mkt = MarketConfig(
        intercepts=rng.uniform(2, 6, (n, 2)) + 10,
        slope=np.array([[-1.0, 0.35], [0.35, -0.8]]),
        supply=np.array([0.4, 0.5]) * n,
        outcome_coefs=rng.uniform(0.1, 1.2, (n, 2)),
    )
    worst = 0.0
    for k in (1, 2):
        res = market_oracle(mkt, k, step=1.0)
        beta = fit_2sls(res.dataset)
        worst = max(worst, abs(res.value - beta[k - 1]))
    elapsed = time.time() - t0
    report(
        "criterion 9 (market variant)",
        worst <= 1e-6 and elapsed < 1.0,
        f"worst |oracle - beta| = {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 10. Balance and luck
# ---------------------------------------------------------------------------


def test_criterion_10_balance_and_luck():
    t0 = time.time()
    # (a) the luck multiset is exactly {i/(n+1)}
    cfg = SynthConfig(n=6000, k=2, seed=33, effects=(0.2, 0.1), het_scale=0.0)
    pop = generate_population(cfg)
    res = run_clearing(pop, MechanismConfig(capacities=(500, 500), lottery_seed=3))
    multiset_ok = bool(res.pivotal_groups)
    for prog, members in res.pivotal_groups.items():
        lk = np.sort(res.luck[prog])
        n_g = members.size
        expected = np.arange(1, n_g + 1) / (n_g + 1)
        multiset_ok &= np.array_equal(lk, expected) and abs(lk.mean() - 0.5) < 1e-12

    # (b) size of the joint balance test over 200 simulated datasets
    rejections = 0
    for s in range(200):
        scfg = SynthConfig(n=2500, k=2, seed=derive_seed(777, s),
                           n_merit_brackets=5, taste_scale=1.0,
                           effects=(0.3, 0.1), het_scale=0.0, base_scale=0.5,
                           label_share=0.5)
        spop = generate_population(scfg)
        mech = MechanismConfig(capacities=(200, 200), lottery_seed=0)
        run = simulate_run(spop, mech, reps=20, master_seed=derive_seed(888, s))
        cov = np.column_stack(
            [run.covariates["attr"], run.covariates["group"],
             run.covariates["first_choice"]]
        )
        out = balance_check(run.dataset, cov, ["attr", "group", "first_choice"])
        rejections += int(out.p_value < 0.05)
    rate = rejections / 200
    elapsed = time.time() - t0
    report(
        "criterion 10 (balance and luck)",
        multiset_ok and 0.02 <= rate <= 0.09 and elapsed < 300.0,
        f"luck multisets exact, rejection rate {rate:.3f} in [0.02, 0.09], "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 11. Mechanism invariants
# ---------------------------------------------------------------------------


def test_criterion_11_mechanism_invariants():
    t0 = time.time()
    rng = np.random.default_rng(1011)
    stable = True
    capacity_ok = True
    for trial in range(100):
        n = int(rng.integers(100, 10_001))
        k = int(rng.integers(1, 6))
        merits = rng.integers(1, int(rng.integers(3, 9)), n)
        lengths = rng.integers(0, k + 1, n)
        prefs = [tuple(rng.permutation(k)[: lengths[i]] + 1) for i in range(n)]
        po = np.zeros((n, k + 1))
        pop = Population(merit=merits, prefs=prefs, po=po)
        caps = tuple(int(c) for c in rng.integers(1, max(2, n // (2 * k)), k))
        cfg = MechanismConfig(capacities=caps, lottery_seed=trial)
        res = run_clearing(pop, cfg)
        if find_blocking_pairs(pop, cfg, res):
            stable = False
            break
        counts = res.admitted.sum(axis=0)
        caps_arr = np.asarray(caps)
        if np.any(counts > caps_arr) or np.any(
            counts[res.oversubscribed] != caps_arr[res.oversubscribed]
        ):
            capacity_ok = False
            break

    # determinism, end to end
    cfg = SynthConfig(n=4000, k=2, seed=2, taste_scale=1.0,
                      effects=(0.2, -0.1), het_scale=0.4, base_scale=0.5)
    pop = generate_population(cfg)
    mech = MechanismConfig(capacities=(300, 300), lottery_seed=0)
    d1 = simulate_run(pop, mech, reps=10, master_seed=5).dataset
    d2 = simulate_run(pop, mech, reps=10, master_seed=5).dataset
    o1 = slot_expansion_oracle(pop, mech, 1, reps=10, master_seed=5)
    o2 = slot_expansion_oracle(pop, mech, 1, reps=10, master_seed=5)
    deterministic = (
        np.array_equal(d1.y, d2.y)
        and np.array_equal(d1.z, d2.z)
        and np.array_equal(d1.a, d2.a)
        and np.array_equal(d1.cluster, d2.cluster)
        and o1.value == o2.value
        and np.array_equal(o1.per_rep, o2.per_rep)
    )
    elapsed = time.time() - t0
    report(
        "criterion 11 (mechanism invariants)",
        stable and capacity_ok and deterministic,
        f"stability and capacity on 100 random populations, bit-identical "
        f"reruns, {elapsed:.0f}s",
    )
