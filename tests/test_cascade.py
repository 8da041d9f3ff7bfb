from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cascadeiv import (
    BlockSpec,
    MechanismConfig,
    SynthConfig,
    VacancyMatrix,
    block_weights,
    cascade_decomposition,
    cascade_solve,
    cluster_robust_se,
    conditional_entrant_by_group,
    conditional_entrant_effect,
    fit_2sls,
    generate_population,
    group_outcome_decomposition,
    neumann_solve,
    simulate_run,
    spectral_radius,
    three_program_beta2,
)
from cascadeiv.errors import (
    DataError,
    DivergentCascade,
    EmptyGroupWarning,
    IllConditionedWarning,
    LengthMismatch,
    MaxRoundsExceeded,
    NonpositiveDiagonal,
    SingularFirstStage,
    ZeroComplierMass,
    ZeroDiagonal,
)
from cascadeiv.estimator import FirstStage, _solve_first_stage

from conftest import bernoulli_iv_data, reference_fit, take_rows, well_conditioned_pi


def two_by_two(r21, r12, d1=1.0, d2=1.0):
    """First stage with vacancy rates r21 (into 2 per 1-admit) and r12."""
    return FirstStage(np.array([[d1, -r12 * d2], [-r21 * d1, d2]]))


# ---------------------------------------------------------------------------
# cascade_solve
# ---------------------------------------------------------------------------


def test_diagonal_system():
    fs = FirstStage(np.diag([0.4, 0.25]))
    a, b = 1.3, -0.7
    sol = cascade_solve(fs, np.array([a * 0.4, b * 0.25]))
    assert_allclose(sol.T, [a, b], atol=1e-12)
    assert_allclose(sol.delta, [0.0, 0.0], atol=1e-12)


def test_two_program_closed_form_unit_diagonal():
    # r21 = r12 = 0.5 so pi21 = pi12 = -0.5; W = (1, 0)
    fs = two_by_two(0.5, 0.5)
    rf = np.array([1.0, 0.0])  # W = RF / diag = (1, 0)
    sol = cascade_solve(fs, rf)
    assert_allclose(sol.T, [4.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_round_trip_identity(rng):
    for _ in range(40):
        k = int(rng.integers(1, 11))
        pi = well_conditioned_pi(rng, k)
        beta = rng.uniform(-2, 2, k)
        sol = cascade_solve(FirstStage(pi), pi.T @ beta)
        assert_allclose(sol.T, beta, rtol=1e-10, atol=1e-12)


def test_cascade_recursion_holds(rng):
    for _ in range(20):
        k = int(rng.integers(2, 8))
        pi = well_conditioned_pi(rng, k)
        rf = rng.uniform(-1, 1, k)
        fs = FirstStage(pi)
        sol = cascade_solve(fs, rf)
        w = rf / fs.diag
        recursion = w + VacancyMatrix.from_first_stage(fs).m @ sol.T
        assert_allclose(sol.T, recursion, rtol=1e-10, atol=1e-10)


def test_closed_form_two_by_two_random_rates(rng):
    for _ in range(50):
        r21, r12 = rng.uniform(0.05, 0.95, 2)
        if r21 * r12 >= 1:
            continue
        d1, d2 = rng.uniform(0.2, 2.0, 2)
        w = rng.uniform(-1, 1, 2)
        fs = two_by_two(r21, r12, d1, d2)
        rf = w * fs.diag
        sol = cascade_solve(fs, rf)
        rho = r21 * r12  # round-trip product, not the matrix spectral radius
        expected = np.array(
            [(w[0] + r21 * w[1]) / (1 - rho), (w[1] + r12 * w[0]) / (1 - rho)]
        )
        assert_allclose(sol.T, expected, rtol=1e-12, atol=1e-12)


def test_singular_first_stage_refused():
    pi = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularFirstStage):
        cascade_solve(FirstStage(pi), np.ones(2))


def test_ill_conditioned_warns_but_solves():
    pi = np.diag([1.0, 1e-9])
    with pytest.warns(IllConditionedWarning):
        sol = cascade_solve(FirstStage(pi), np.array([1.0, 1e-9]))
    assert_allclose(sol.T, [1.0, 1.0], rtol=1e-6)


def test_residual_bound():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pi = well_conditioned_pi(rng, 5, max_cond=1e4)
        rf = rng.uniform(-1, 1, 5)
        sol = cascade_solve(FirstStage(pi), rf)
        resid = np.max(np.abs(pi.T @ sol.T - rf))
        assert resid <= 1e-10 * max(np.max(np.abs(rf)), 1e-300)


# ---------------------------------------------------------------------------
# neumann_solve
# ---------------------------------------------------------------------------


def test_neumann_zero_matrix_one_round():
    vm = VacancyMatrix(np.zeros((2, 2)))
    w = np.array([0.7, -0.1])
    sol = neumann_solve(vm, w, tol=1e-10, max_rounds=10)
    assert len(sol.rounds) == 1
    assert_allclose(sol.T, w)
    assert_allclose(sol.delta, 0.0, atol=1e-15)


def test_neumann_round_pattern_matches_hand_expansion():
    vm = VacancyMatrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
    w = np.array([1.0, 0.0])
    sol = neumann_solve(vm, w, tol=1e-10, max_rounds=1000)
    expected_rounds = [(1.0, 0.0), (0.0, 0.5), (0.25, 0.0), (0.0, 0.125)]
    for got, want in zip(sol.rounds[:4], expected_rounds):
        assert_allclose(got, want, atol=1e-14)
    # even rounds move the origin program, odd rounds the other one
    for n, term in enumerate(sol.rounds):
        assert term[(n + 1) % 2] == 0.0
    assert_allclose(sol.T, [4.0 / 3.0, 2.0 / 3.0], atol=1e-9)
    assert_allclose(np.sum(sol.rounds, axis=0), sol.T, atol=1e-15)


def test_neumann_agrees_with_direct(rng):
    for _ in range(30):
        k = int(rng.integers(2, 7))
        m = rng.uniform(-0.5, 0.5, (k, k))
        np.fill_diagonal(m, 0.0)
        rho = spectral_radius(m)
        if rho >= 0.95 or rho == 0.0:
            continue
        w = rng.uniform(-1, 1, k)
        tol = 1e-10
        sol = neumann_solve(VacancyMatrix(m), w, tol=tol, max_rounds=100_000)
        direct = np.linalg.solve(np.eye(k) - m, w)
        assert np.max(np.abs(sol.T - direct)) <= 10 * tol


def test_neumann_divergent():
    vm = VacancyMatrix(np.array([[0.0, 2.0], [1.0, 0.0]]))  # rho = sqrt(2)
    with pytest.raises(DivergentCascade) as exc:
        neumann_solve(vm, np.ones(2))
    assert exc.value.rho >= 1.0


def test_neumann_max_rounds():
    vm = VacancyMatrix(np.array([[0.0, 0.94], [0.94, 0.0]]))
    with pytest.raises(MaxRoundsExceeded):
        neumann_solve(vm, np.ones(2), tol=1e-12, max_rounds=5)


@pytest.mark.parametrize("tol, max_rounds", [(np.inf, 10), (np.nan, 10), (0.0, 10), (-1e-10, 10),
                                             (1e-10, 0), (1e-10, -3)])
def test_neumann_refuses_a_tolerance_or_round_cap_it_cannot_meet(tol, max_rounds):
    # an infinite tolerance would stop after one round at T = W, a nan one
    # never, and a cap below one round could only fail
    vm = VacancyMatrix.from_first_stage(FirstStage(np.array([[0.5, -0.1], [-0.2, 0.4]])))
    with pytest.raises(DataError, match="finite tol > 0 and max_rounds >= 1"):
        neumann_solve(vm, np.array([0.2, 0.5]), tol=tol, max_rounds=max_rounds)


# ---------------------------------------------------------------------------
# spectral_radius
# ---------------------------------------------------------------------------


def test_spectral_radius_zero_matrix():
    assert spectral_radius(np.zeros((3, 3))) == 0.0


def test_spectral_radius_antidiagonal_exact():
    m = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert abs(spectral_radius(m) - 0.5) < 1e-6


def test_spectral_radius_nilpotent():
    m = np.triu(np.ones((4, 4)), k=1)
    assert spectral_radius(m) == 0.0


def test_spectral_radius_vs_eigvals(rng):
    for _ in range(25):
        k = int(rng.integers(2, 9))
        m = rng.uniform(-1, 1, (k, k))
        np.fill_diagonal(m, 0.0)
        want = np.max(np.abs(np.linalg.eigvals(np.abs(m))))
        got = spectral_radius(m)
        assert abs(got - want) < 1e-3 * max(want, 1.0)


def test_defective_abs_m_below_one_converges():
    # two coupled 2-cycles: |M| is defective with rho = r exactly; a power
    # iteration read it as above one and refused a convergent series
    r = 0.995
    m = np.array([[0, r, 0.5, 0], [r, 0, 0, 0], [0, 0, 0, r], [0, 0, r, 0]])
    assert abs(spectral_radius(m) - r) < 1e-12
    w = np.ones(4)
    tol = 1e-10
    sol = neumann_solve(VacancyMatrix(m), w, tol=tol, max_rounds=100_000)
    direct = np.linalg.solve(np.eye(4) - m, w)
    assert_allclose(direct, [10225.0627, 10174.9373, 200.0, 200.0], atol=1e-4)
    assert_allclose(sol.T, direct, rtol=1e-9)


# ---------------------------------------------------------------------------
# cascade_decomposition
# ---------------------------------------------------------------------------


def test_decomposition_reference_rows():
    # business and medicine rows of the reference table
    assert abs(cascade_decomposition([0.0278], [0.00449])[0] - 0.0233) < 5e-4
    assert abs(cascade_decomposition([0.0854], [0.0598])[0] - 0.0256) < 5e-4


def test_decomposition_zero_and_mismatch():
    assert_allclose(cascade_decomposition([0.3, 0.1], [0.3, 0.1]), [0.0, 0.0])
    with pytest.raises(LengthMismatch):
        cascade_decomposition([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# conditional_entrant_effect
# ---------------------------------------------------------------------------


def test_conditional_entrant_degenerate_group_equals_cascade(rng):
    pi = well_conditioned_pi(rng, 4)
    rf = rng.uniform(-1, 1, 4)
    fs = FirstStage(pi)
    sol = cascade_solve(fs, rf)
    t_g = conditional_entrant_effect(rf, fs, sol.T)
    assert_allclose(t_g, sol.T, atol=1e-10)


def test_conditional_entrant_diagonal_group_first_stage(rng):
    fs_g = FirstStage(np.diag([0.3, 0.5, 0.2]))
    rf_g = rng.uniform(-1, 1, 3)
    beta_full = rng.uniform(-1, 1, 3)
    t_g = conditional_entrant_effect(rf_g, fs_g, beta_full)
    assert_allclose(t_g, rf_g / np.array([0.3, 0.5, 0.2]), atol=1e-12)


def test_conditional_entrant_zero_diagonal():
    pi = np.diag([0.5, 0.0])
    with pytest.raises(ZeroDiagonal):
        conditional_entrant_effect(np.ones(2), FirstStage(pi), np.ones(2))


def test_conditional_entrant_by_group_equals_subsample_fits():
    # each level's effect against the row reference: the QR fit of the
    # level's rows, with beta_full from the QR fit of every row
    d = bernoulli_iv_data(85, n=3000, k=2, x_extra=1, group_share=0.4)
    ref = reference_fit(d)
    beta_full = _solve_first_stage(ref.pi_t, ref.rf)
    out = conditional_entrant_by_group(d)
    assert list(out) == list(np.unique(d.group_label))
    for lev, t_g in out.items():
        sub = reference_fit(take_rows(d, np.flatnonzero(d.group_label == lev)))
        want = conditional_entrant_effect(sub.rf, FirstStage(sub.pi_t.T), beta_full)
        assert_allclose(t_g, want, rtol=1e-12, atol=1e-14)
    given = conditional_entrant_by_group(d, levels=["m"], beta_full=np.zeros(2))
    assert list(given) == ["m"]
    assert not np.array_equal(given["m"], out["m"])


def test_conditional_entrant_by_group_rejects_missing_levels():
    d = bernoulli_iv_data(86, n=1000, k=2, group_share=0.5)
    with pytest.raises(DataError, match="absent"):
        conditional_entrant_by_group(d, levels=["f", "x"])
    unlabelled = bernoulli_iv_data(86, n=1000, k=2)
    with pytest.raises(DataError, match="group labels"):
        conditional_entrant_by_group(unlabelled)


# ---------------------------------------------------------------------------
# group_outcome_decomposition
# ---------------------------------------------------------------------------


def test_decomposition_matches_masked_outcome_reference_fits(rng):
    # each level's part against the row reference: the QR fit of the
    # outcome masked to that level
    d = bernoulli_iv_data(87, n=2000, k=3, x_extra=2)
    labels = rng.integers(0, 3, d.n_obs)
    parts = group_outcome_decomposition(d, labels)
    for lev, part in parts.items():
        ref = reference_fit(replace(d, y=(labels == lev) * d.y))
        want = _solve_first_stage(ref.pi_t, ref.rf)
        assert_allclose(part, want, rtol=1e-12, atol=1e-14)


def test_single_group_recovers_beta():
    d = bernoulli_iv_data(81, n=2000, k=2)
    parts = group_outcome_decomposition(d, np.zeros(d.n_obs, dtype=int))
    assert_allclose(parts[0], fit_2sls(d), atol=1e-12)


def test_additivity_exact(rng):
    d = bernoulli_iv_data(82, n=3000, k=3, x_extra=2)
    beta = fit_2sls(d)
    for n_groups in (2, 3, 4):
        labels = rng.integers(0, n_groups, d.n_obs)
        parts = group_outcome_decomposition(d, labels)
        total = np.sum(list(parts.values()), axis=0)
        assert_allclose(total, beta, atol=1e-10)


def test_group_specific_response():
    # only group f's outcomes respond to the treatments
    rng = np.random.default_rng(83)
    n, k = 20_000, 2
    base = bernoulli_iv_data(83, n=n, k=k, noise=0.0, intercept=0.0)
    labels = np.where(rng.random(n) < 0.5, "f", "m")
    beta_true = np.array([0.6, -0.4])
    y = np.where(labels == "f", base.a @ beta_true, 0.0)
    y = y + 0.3 * rng.standard_normal(n)
    d = replace(base, y=y)
    beta_full = fit_2sls(d)
    parts = group_outcome_decomposition(d, labels)
    se_f = cluster_robust_se(replace(d, y=np.where(labels == "f", y, 0.0)), "beta")
    se_m = cluster_robust_se(replace(d, y=np.where(labels == "m", y, 0.0)), "beta")
    # all of the full-sample coefficient is carried by group f's outcomes
    assert np.all(np.abs(parts["f"] - beta_full) < 3 * np.hypot(se_f, se_m))
    assert np.all(np.abs(parts["m"]) < 3 * se_m)


def test_empty_group_warns_but_stays_exact():
    d = bernoulli_iv_data(84, n=1000, k=2)
    labels = np.zeros(d.n_obs, dtype=int)
    with pytest.warns(EmptyGroupWarning):
        parts = group_outcome_decomposition(d, labels, levels=[0, 1])
    assert_allclose(parts[1], 0.0, atol=1e-12)
    assert_allclose(parts[0] + parts[1], fit_2sls(d), atol=1e-10)


def longdouble_solve(a, b):
    """solve(a, b) by Gaussian elimination with partial pivoting, in
    ``np.longdouble`` (``np.linalg`` takes no long doubles)."""
    a, b = a.astype(np.longdouble), b.astype(np.longdouble).reshape(a.shape[0], -1)
    n = a.shape[0]
    for i in range(n):
        piv = i + int(np.argmax(np.abs(a[i:, i])))
        a[[i, piv]], b[[i, piv]] = a[[piv, i]], b[[piv, i]]
        f = a[i + 1 :, i : i + 1] / a[i, i]
        a[i + 1 :, i:] -= f * a[i, i:]
        b[i + 1 :] -= f * b[i]
    x = np.zeros_like(b)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def longdouble_masked_fit(d, lev):
    """2SLS of the outcome masked to level ``lev`` from the long-double
    Gram of its rows: the just-identified beta = S_za^-1 S_zy of the
    cross-products S net of the controls."""
    w = np.column_stack([d.x, d.z, d.a, d.y * (d.group_label == lev)]).astype(np.longdouble)
    gram = w.T @ w
    p, k = d.n_controls, d.n_treatments
    s = gram[p:, p:] - gram[p:, :p] @ longdouble_solve(gram[:p, :p], gram[:p, p:])
    return longdouble_solve(s[:k, k : 2 * k], s[:k, 2 * k]).ravel()


def test_decomposition_is_within_1e_14_of_the_long_double_masked_fits():
    # a simulated K=3 dataset with two group levels (46,302 rows, 24
    # clusters, the tensor form); the bound is relative to the largest part
    pop = generate_population(SynthConfig(n=20_000, k=3, seed=3, het_scale=0.5, label_share=0.5,
                                          effects=(0.2, -0.1, 0.05), base_scale=0.5))
    cfg = MechanismConfig(capacities=(1500,) * 3, lottery_seed=0)
    d = simulate_run(pop, cfg, reps=8, master_seed=2, label="group").dataset
    parts = group_outcome_decomposition(d)
    assert len(parts) == 2
    scale = max(np.abs(part).max() for part in parts.values())
    for lev, part in parts.items():
        err = np.abs(part - longdouble_masked_fit(d, lev)).max()
        assert err <= 1e-14 * scale, (lev, err / scale)


# ---------------------------------------------------------------------------
# block_weights
# ---------------------------------------------------------------------------


def test_block_of_one_gets_weight_one():
    fs = FirstStage(np.diag([0.3, 0.1, 0.2]))
    spec = BlockSpec(blocks={"a": (0,), "b": (1, 2)}, k=3)
    out = block_weights(fs, spec)
    assert_allclose(out.weights["a"], [1.0])


def test_block_weight_ratio():
    fs = FirstStage(np.diag([0.3, 0.1]))
    out = block_weights(fs, BlockSpec(blocks={"b": (0, 1)}, k=2))
    assert_allclose(out.weights["b"], [0.75, 0.25], atol=1e-12)
    assert abs(out.weights["b"].sum() - 1.0) < 1e-12


def test_homogeneous_collapse():
    fs = FirstStage(np.diag([0.22, 0.41, 0.13]))
    out = block_weights(fs, BlockSpec(blocks={"all": (0, 1, 2)}, k=3))
    c = -0.37
    assert abs(out.weights["all"] @ np.full(3, c) - c) < 1e-12


def test_nonpositive_diagonal_is_hard_error():
    fs = FirstStage(np.diag([0.3, -0.1]))
    with pytest.raises(NonpositiveDiagonal):
        block_weights(fs, BlockSpec(blocks={"b": (0, 1)}, k=2))


def test_blocks_must_partition():
    with pytest.raises(DataError):
        BlockSpec(blocks={"a": (0,), "b": (0, 1)}, k=2)
    with pytest.raises(DataError):
        BlockSpec(blocks={"a": (0,)}, k=2)


# ---------------------------------------------------------------------------
# three_program_beta2
# ---------------------------------------------------------------------------


def test_three_program_closed_form_hand_value():
    # (0.5 * 1.0 + 0.5 * (0.3 + 0.4)) / 1.0
    assert abs(three_program_beta2(0.5, 0.5, 1.0, 0.3, 0.4) - 0.85) < 1e-12


def test_three_program_no_displacement_margin():
    assert three_program_beta2(0.4, 0.0, 1.23, 9.9, -3.0) == pytest.approx(1.23)


def test_three_program_telescoping(rng):
    for _ in range(50):
        p02, p12 = rng.uniform(0, 1, 2)
        if p02 + p12 == 0:
            continue
        e21, e10 = rng.uniform(-1, 1, 2)
        e20 = e21 + e10
        got = three_program_beta2(p02, p12, e20, e21, e10)
        assert abs(got - e20) < 1e-12


def test_three_program_zero_mass():
    with pytest.raises(ZeroComplierMass):
        three_program_beta2(0.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(DataError):
        three_program_beta2(-0.1, 0.5, 1.0, 1.0, 1.0)
