import dataclasses
import functools
import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cascadeiv import (
    MechanismConfig,
    Population,
    SynthConfig,
    balance_check,
    cluster_bootstrap,
    cluster_robust_se,
    conditional_entrant_by_group,
    estimate_all,
    generate_population,
    group_outcome_decomposition,
    luck_variable,
    run_clearing,
    simulate_and_oracles,
    simulate_run,
    slot_expansion_oracle,
    slot_expansion_oracles,
)
from cascadeiv.errors import (
    CascadeIVError,
    DataError,
    NoPivotalProgramWarning,
    NoPivotalVariation,
    NumericalError,
    TooFewClusters,
    UnresolvedPriorityTie,
)
from cascadeiv.mechanism import (
    CLEARING_EVENT_DTYPE,
    SIMULATION_EVENT_DTYPE,
    AllocationResult,
    _capacities,
    _lottery,
    _margins,
    _outcomes,
    _slot_priorities,
    _SlotOracles,
    _sweep,
    find_blocking_pairs,
    pooled_luck,
    realized_outcomes,
)
from cascadeiv.estimator import first_stage_f
from cascadeiv.seeds import derive_seed

from conftest import assert_same_sweep, counting_moment_builds, counting_sweeps


def small_pop(merits, prefs, gains=None, k=None):
    merits = np.asarray(merits, dtype=np.int64)
    n = merits.size
    k = k or max((max(p) for p in prefs if p), default=1)
    po = np.zeros((n, k + 1))
    if gains is not None:
        po[:, 1:] = np.asarray(gains, dtype=float)
    return Population(merit=merits, prefs=list(prefs), po=po)


# ---------------------------------------------------------------------------
# Population
# ---------------------------------------------------------------------------


def reference_prefs(prefs, k):
    """The per-applicant loop that used to validate and pad preference
    lists: (tuples, padded matrix), or the message of the DataError."""
    max_len = 1
    norm = []
    for i, raw in enumerate(prefs):
        pl = tuple(int(p) for p in raw)
        if len(set(pl)) != len(pl):
            return f"applicant {i} ranks a program twice"
        for p in pl:
            if not 1 <= p <= k:
                return f"applicant {i} ranks invalid program {p} (K={k})"
        max_len = max(max_len, len(pl))
        norm.append(pl)
    arr = np.zeros((len(norm), max_len), dtype=np.int64)
    for i, pl in enumerate(norm):
        arr[i, : len(pl)] = pl
    return norm, arr


def make_pop(prefs, k):
    n = len(prefs)
    return Population(merit=np.zeros(n, dtype=np.int64), prefs=prefs, po=np.zeros((n, k + 1)))


@pytest.mark.parametrize(
    "prefs, message",
    [
        ([(1, 2), (2, 2), (3,)], "applicant 1 ranks a program twice"),
        ([(1,), (1, 3), (2, 2)], "applicant 1 ranks invalid program 3 (K=2)"),
        ([(2, 1), (), (2, 0, 1)], "applicant 2 ranks invalid program 0 (K=2)"),
        # a repeat is reported before a bad id of the same applicant
        ([(), (5, 2, 2)], "applicant 1 ranks a program twice"),
    ],
)
def test_population_names_first_bad_applicant(prefs, message):
    with pytest.raises(DataError) as exc:
        make_pop(prefs, 2)
    assert str(exc.value) == message
    with pytest.raises(DataError) as exc:
        make_pop(padded(prefs), 2)
    assert str(exc.value) == message


def padded(prefs):
    """The lists as one (N, L) array, each followed by 0s."""
    arr = np.zeros((len(prefs), max(map(len, prefs), default=1)), dtype=np.int64)
    for i, pl in enumerate(prefs):
        arr[i, : len(pl)] = pl
    return arr


def test_population_pads_empty_lists():
    pop = make_pop([(), (2,), (3, 1), ()], 3)
    assert pop.prefs == [(), (2,), (3, 1), ()]
    assert pop.pref_array().tolist() == [[0, 0], [2, 0], [3, 1], [0, 0]]
    assert pop.pref_lengths().tolist() == [0, 1, 2, 0]
    assert make_pop([(), ()], 2).pref_array().tolist() == [[0], [0]]
    assert make_pop([], 2).pref_array().shape == (0, 1)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.lists(st.integers(-1, k + 1), max_size=k + 1), max_size=6),
        )
    )
)
def test_population_prefs_match_loop_reference(case):
    k, prefs = case
    want = reference_prefs(prefs, k)
    if isinstance(want, str):
        with pytest.raises(DataError) as exc:
            make_pop(prefs, k)
        assert str(exc.value) == want
    else:
        pop = make_pop([np.asarray(pl, dtype=np.int64) for pl in prefs], k)
        assert pop.prefs == want[0]
        assert all(type(p) is int for pl in pop.prefs for p in pl)
        assert np.array_equal(pop.pref_array(), want[1])
        assert np.array_equal(pop.pref_lengths(), (want[1] > 0).sum(axis=1))
    if any(pl and pl[-1] == 0 for pl in prefs):
        return  # a padded array cannot hold a list that ends in 0
    # the same lists as one padded array, wider than the longest list
    arr = np.hstack([padded(prefs), np.zeros((len(prefs), 1), dtype=np.int32)])
    if isinstance(want, str):
        with pytest.raises(DataError) as exc:
            make_pop(arr, k)
        assert str(exc.value) == want
    else:
        pop = make_pop(arr, k)
        assert pop.prefs == want[0]
        assert all(type(p) is int for pl in pop.prefs for p in pl)
        assert np.array_equal(pop.pref_lengths(), (want[1] > 0).sum(axis=1))
        assert np.array_equal(pop.pref_array()[:, : want[1].shape[1]], want[1])
        assert not pop.pref_array()[:, want[1].shape[1]:].any()


def reference_pref_error(prefs, k):
    """The whole-array check ``Population`` used to make of its preference
    lists, through an (N, L) ``np.where`` and a sorted copy of it: the
    message of its DataError, or None. ``prefs`` is a list of lists or an
    (N, L) integer array, whose rows run to their last nonzero entry."""
    if isinstance(prefs, np.ndarray):
        pref_arr = prefs.astype(np.int64)
        nonzero = (pref_arr != 0)[:, ::-1]
        lengths = np.where(nonzero.any(axis=1), pref_arr.shape[1] - nonzero.argmax(axis=1), 0)
    else:
        pref_arr, lengths = padded(prefs), np.array([len(pl) for pl in prefs], dtype=np.int64)
    listed = np.arange(pref_arr.shape[1]) < lengths[:, None]
    n = pref_arr.shape[0]
    ranked = np.sort(np.where(listed, pref_arr, np.iinfo(np.int64).max), axis=1)
    repeat_rows = ((ranked[:, 1:] == ranked[:, :-1]) & listed[:, 1:]).any(axis=1)
    invalid = listed & ((pref_arr < 1) | (pref_arr > k))
    invalid_rows = invalid.any(axis=1)
    first_repeat = int(repeat_rows.argmax()) if repeat_rows.any() else n
    first_invalid = int(invalid_rows.argmax()) if invalid_rows.any() else n
    if first_repeat < n and first_repeat <= first_invalid:
        return f"applicant {first_repeat} ranks a program twice"
    if first_invalid < n:
        bad = pref_arr[first_invalid][invalid[first_invalid]]
        return f"applicant {first_invalid} ranks invalid program {bad[0]} (K={k})"
    return None


@st.composite
def pref_inputs(draw):
    """K and preference lists, as lists or as a padded array, with interior
    zeros, repeats and ids outside 1..K, down to the int64 extremes."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    extremes = st.sampled_from([0, -1, k + 1, np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    ids = st.one_of(st.integers(1, k), st.integers(1, k), st.integers(0, k), extremes)
    if draw(st.booleans()):
        width = draw(st.integers(1, k + 2))
        rows = draw(st.lists(st.lists(ids, min_size=width, max_size=width),
                             min_size=n, max_size=n))
        return k, np.array(rows, dtype=np.int64).reshape(n, width)
    return k, draw(st.lists(st.lists(ids, max_size=k + 2), min_size=n, max_size=n))


@settings(max_examples=400, deadline=None)
@given(pref_inputs())
def test_population_pref_errors_match_the_whole_array_check(case):
    k, prefs = case
    want = reference_pref_error(prefs, k)
    if want is None:
        make_pop(prefs, k)
        return
    with pytest.raises(DataError) as exc:
        make_pop(prefs, k)
    assert type(exc.value) is DataError and str(exc.value) == want


def test_population_preference_array_of_floats_or_no_columns():
    with pytest.raises(DataError, match="preference array must be"):
        make_pop(np.ones((2, 1)), 2)
    assert make_pop(np.zeros((2, 0), dtype=np.int64), 2).prefs == [(), ()]
    assert make_pop(np.zeros((2, 0), dtype=np.int64), 2).pref_slots().tolist() == [[1, 1]] * 2
    wide = make_pop(np.zeros((1, 300), dtype=np.int64), 1).pref_slots()
    assert wide.dtype == np.uint16 and wide.tolist() == [[300]]
    pop = make_pop(np.asfortranarray([[2, 1], [1, 0]]), 2)
    assert pop.pref_array().flags.c_contiguous and pop.prefs == [(2, 1), (1,)]


def test_population_keeps_an_int64_c_preference_array_read_only():
    # an int64, C-ordered array is kept as a read-only view, not copied;
    # the caller's array stays writable. Another dtype or order is copied
    prefs = np.array([[2, 1], [1, 0]], dtype=np.int64)
    pop = make_pop(prefs, 2)
    assert np.shares_memory(pop.pref_array(), prefs)
    assert not pop.pref_array().flags.writeable and prefs.flags.writeable
    with pytest.raises(ValueError):
        pop.pref_array()[0, 0] = 1
    for other in (np.asfortranarray(prefs), prefs.astype(np.int32)):
        pop = make_pop(other, 2)
        assert not np.shares_memory(pop.pref_array(), other)
        assert not pop.pref_array().flags.writeable
        assert np.array_equal(pop.pref_array(), prefs)
    assert not make_pop([(2, 1), (1,)], 2).pref_array().flags.writeable


# ---------------------------------------------------------------------------
# run_clearing
# ---------------------------------------------------------------------------


def test_undersubscribed_program_admits_everyone():
    pop = small_pop([5, 3, 4], [(1,), (1,), (1,)])
    res = run_clearing(pop, MechanismConfig(capacities=(5,), lottery_seed=0))
    assert np.all(res.assignment == 1)
    assert not res.oversubscribed[0]
    assert res.cutoffs[1][0] == 3  # lowest listed merit bracket
    assert res.pivotal_groups == {}


def test_tied_pair_decided_by_lottery_evenly():
    pop = small_pop([4, 4], [(1,), (1,)])
    wins = 0
    for seed in range(10_000):
        res = run_clearing(pop, MechanismConfig(capacities=(1,), lottery_seed=seed))
        wins += int(res.assignment[0] == 1)
    assert abs(wins / 10_000 - 0.5) < 0.02


def test_second_program_fills_from_rejects_in_merit_order():
    merits = [9, 8, 7, 6, 5]
    pop = small_pop(merits, [(1, 2)] * 5)
    res = run_clearing(pop, MechanismConfig(capacities=(2, 2), lottery_seed=3))
    assert list(res.assignment) == [1, 1, 2, 2, 0]


def test_stability_and_capacity_on_random_populations():
    rng = np.random.default_rng(4)
    for trial in range(10):
        n = int(rng.integers(50, 400))
        k = int(rng.integers(1, 5))
        merits = rng.integers(1, 6, n)
        prefs = []
        for _ in range(n):
            m = rng.integers(0, k + 1)
            prefs.append(tuple(rng.permutation(k)[:m] + 1))
        pop = small_pop(merits, prefs, k=k)
        caps = tuple(int(c) for c in rng.integers(1, max(2, n // k), k))
        cfg = MechanismConfig(capacities=caps, lottery_seed=trial)
        res = run_clearing(pop, cfg)
        assert find_blocking_pairs(pop, cfg, res) == []
        counts = res.admitted.sum(axis=0)
        assert np.all(counts <= np.asarray(caps))
        assert np.all(counts[res.oversubscribed] == np.asarray(caps)[res.oversubscribed])


def test_clearing_deterministic():
    pop = small_pop([3, 3, 2, 2, 1], [(1, 2), (2, 1), (1,), (2,), (1, 2)])
    cfg = MechanismConfig(capacities=(1, 1), lottery_seed=77)
    r1 = run_clearing(pop, cfg)
    r2 = run_clearing(pop, cfg)
    assert np.array_equal(r1.assignment, r2.assignment)
    assert np.array_equal(r1.draws, r2.draws)


# ---------------------------------------------------------------------------
# pivotal groups
# ---------------------------------------------------------------------------


def test_pivotal_group_constructed_tie():
    pop = small_pop([5, 5, 4, 4, 4, 3], [(1,)] * 6)
    res = run_clearing(pop, MechanismConfig(capacities=(3,), lottery_seed=1))
    assert sorted(res.pivotal_groups[1]) == [2, 3, 4]
    assert res.cutoffs[1][0] == 4


def test_pivotal_membership_invariant_to_seed():
    # fixed preferences and merits; no displacement can move the cutoff
    # bracket, so membership depends on the draw only through nothing
    pop = small_pop([5, 5, 4, 4, 4, 3, 3], [(1,)] * 7)
    members = None
    for seed in range(100):
        res = run_clearing(pop, MechanismConfig(capacities=(3,), lottery_seed=seed))
        got = sorted(res.pivotal_groups[1])
        if members is None:
            members = got
        assert got == members


def test_luck_values():
    assert_allclose(luck_variable(np.array([0.3])), [0.5])
    draws = np.array([0.2, 0.9, 0.5])
    # best draw first in lottery order: ranks are 3, 1, 2
    assert_allclose(luck_variable(draws), [0.25, 0.75, 0.5])
    for n in (1, 2, 5, 17, 50):
        lk = luck_variable(np.random.default_rng(n).random(n))
        assert_allclose(np.sort(lk), np.arange(1, n + 1) / (n + 1), atol=1e-15)
        assert lk.mean() == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# simulate_run's dataset
# ---------------------------------------------------------------------------


def homogeneous_pop(n, k, gain, seed):
    rng = np.random.default_rng(seed)
    merits = rng.integers(1, 6, n)
    prefs = [tuple(rng.permutation(k) + 1) for _ in range(n)]
    po = np.zeros((n, k + 1))
    po[:, 0] = rng.standard_normal(n)
    for j in range(k):
        po[:, j + 1] = po[:, 0] + gain[j]
    return Population(merit=merits, prefs=prefs, po=po)


def test_simulate_homogeneous_recovers_common_gain():
    gain = np.array([0.25, 0.25])
    pop = homogeneous_pop(6000, 2, gain, seed=5)
    cfg = MechanismConfig(capacities=(400, 400), lottery_seed=0)
    data = simulate_run(pop, cfg, reps=30, master_seed=2).dataset
    est = estimate_all(data)
    assert np.all(np.abs(est.beta - gain) < 3 * est.se_beta)


def test_simulate_no_pivotal_variation():
    pop = small_pop([3, 2, 1], [(1,), (1,), (1,)])
    cfg = MechanismConfig(capacities=(10,), lottery_seed=0)
    with pytest.raises(NoPivotalVariation):
        simulate_run(pop, cfg, reps=3, master_seed=0)


def test_simulate_missing_label_names_the_population_labels():
    pop = homogeneous_pop(300, 2, np.array([0.1, 0.2]), seed=6)
    pop = replace(pop, labels={"group": np.zeros(300), "attr": np.ones(300)})
    cfg = MechanismConfig(capacities=(20, 20), lottery_seed=0)
    with pytest.raises(DataError, match=r"label 'nonexistent' .* \['attr', 'group'\]"):
        simulate_run(pop, cfg, reps=2, master_seed=0, label="nonexistent")
    assert simulate_run(pop, cfg, reps=2, master_seed=0, label="group").dataset.n_obs > 0


def test_simulate_deterministic_given_master_seed():
    pop = homogeneous_pop(2000, 2, np.array([0.1, 0.2]), seed=6)
    cfg = MechanismConfig(capacities=(150, 150), lottery_seed=0)
    d1 = simulate_run(pop, cfg, reps=5, master_seed=9).dataset
    d2 = simulate_run(pop, cfg, reps=5, master_seed=9).dataset
    assert np.array_equal(d1.y, d2.y)
    assert np.array_equal(d1.z, d2.z)
    assert np.array_equal(d1.cluster, d2.cluster)
    d3 = simulate_run(pop, cfg, reps=5, master_seed=10).dataset
    assert not np.array_equal(d1.z, d3.z)


def test_simulation_event_log_stacks_replications():
    pop = homogeneous_pop(300, 3, np.array([0.2, -0.1, 0.3]), seed=12)
    cfg = MechanismConfig(capacities=(20, 60, 40), lottery_seed=0)
    run = simulate_run(pop, cfg, reps=3, master_seed=5, log_events=True)
    assert run.events.dtype == SIMULATION_EVENT_DTYPE
    parts = []
    for r in range(3):
        res = run_clearing(pop, replace(cfg, lottery_seed=derive_seed(5, r)), log_events=True)
        assert res.events.size > 0
        part = np.empty(res.events.size, dtype=SIMULATION_EVENT_DTYPE)
        for name in CLEARING_EVENT_DTYPE.names:
            part[name] = res.events[name]
        part["replication"] = r
        parts.append(part)
    assert np.array_equal(run.events, np.concatenate(parts))
    quiet = simulate_run(pop, cfg, reps=3, master_seed=5)
    assert quiet.events.dtype == SIMULATION_EVENT_DTYPE and quiet.events.size == 0
    assert run_clearing(pop, cfg).events.size == 0


def test_simulation_sweeps_each_draw_from_minus_inf_once():
    pop = homogeneous_pop(300, 3, np.array([0.2, -0.1, 0.3]), seed=12)
    cfg = MechanismConfig(capacities=(20, 60, 40), lottery_seed=0)
    with counting_sweeps() as counts:
        simulate_run(pop, cfg, reps=5, master_seed=5, log_events=True)
    assert counts == {"cold": 5, "warm": 0}


def test_simulate_cluster_ids_are_numpy_strings():
    pop = homogeneous_pop(3000, 2, np.array([0.1, 0.2]), seed=8)
    cfg = MechanismConfig(capacities=(200, 200), lottery_seed=0)
    data = simulate_run(pop, cfg, reps=4, master_seed=3).dataset
    assert data.cluster.dtype.kind == "U"
    as_objects = replace(data, cluster=data.cluster.astype(object))
    assert np.array_equal(data.cluster_codes(), as_objects.cluster_codes())
    assert {str(c).split(":")[0] for c in data.cluster} == {"r0", "r1", "r2", "r3"}


def test_simulate_rows_are_group_memberships():
    pop = homogeneous_pop(3000, 2, np.array([0.1, 0.2]), seed=7)
    cfg = MechanismConfig(capacities=(200, 200), lottery_seed=0)
    data = simulate_run(pop, cfg, reps=4, master_seed=1).dataset
    assert np.all((data.z != 0).sum(axis=1) == 1)
    lk = pooled_luck(data)
    assert np.all((lk > 0) & (lk < 1))
    # every cluster is one pivotal group: its luck values average 1/2
    for cl in np.unique(data.cluster):
        assert lk[data.cluster == cl].mean() == pytest.approx(0.5, abs=1e-12)


def test_simulate_builds_covariates_on_first_read():
    pop = homogeneous_pop(3000, 2, np.array([0.1, 0.2]), seed=7)
    pop = replace(pop, labels={"tag": np.where(pop.merit > 2, "hi", "lo")})
    run = simulate_run(pop, MechanismConfig(capacities=(200, 200), lottery_seed=0),
                       reps=3, master_seed=1)
    assert "covariates" not in vars(run)
    rows = run.applicants
    assert rows.shape == (run.dataset.n_obs,)
    cov = run.covariates
    assert cov is run.covariates
    assert list(cov) == ["merit", "first_choice", "tag"]
    assert np.array_equal(cov["merit"], pop.merit[rows].astype(float))
    assert np.array_equal(cov["first_choice"], pop.pref_array()[rows, 0].astype(float))
    assert np.array_equal(cov["tag"], (pop.merit[rows] <= 2).astype(float))  # "hi" < "lo"


# ---------------------------------------------------------------------------
# slot_expansion_oracle
# ---------------------------------------------------------------------------


def test_oracle_undersubscribed_returns_zero_flag():
    pop = small_pop([3, 2, 1], [(1,), (1,), (1,)])
    cfg = MechanismConfig(capacities=(10,), lottery_seed=0)
    res = slot_expansion_oracle(pop, cfg, 1, reps=5, master_seed=0)
    assert res.undersubscribed
    assert res.value == 0.0


def test_oracle_homogeneous_equals_gain_exactly():
    gain = np.array([0.2, -0.1])
    pop = homogeneous_pop(4000, 2, gain, seed=8)
    cfg = MechanismConfig(capacities=(300, 300), lottery_seed=0)
    for k in (1, 2):
        res = slot_expansion_oracle(pop, cfg, k, reps=20, master_seed=3)
        assert not res.undersubscribed
        # telescoping: every replication's chain nets to the origin gain
        assert_allclose(res.per_rep, gain[k - 1], atol=1e-10)


def test_oracle_conservation_of_enrollment():
    pop = homogeneous_pop(3000, 3, np.array([0.1, 0.2, 0.3]), seed=9)
    caps = (200, 200, 200)
    base_cfg = MechanismConfig(capacities=caps, lottery_seed=1234)
    base = run_clearing(pop, base_cfg)
    for k in (1, 2, 3):
        plus = list(caps)
        plus[k - 1] += 1
        exp = run_clearing(
            pop, MechanismConfig(capacities=tuple(plus), lottery_seed=1234)
        )
        change = exp.admitted.sum(axis=0) - base.admitted.sum(axis=0)
        assert np.all(np.abs(change) <= 1)
        assert exp.admitted.sum() - base.admitted.sum() in (0, 1)


def test_oracle_heterogeneous_agrees_with_2sls():
    rng = np.random.default_rng(10)
    n, k = 8000, 2
    merits = rng.integers(1, 5, n)
    prefs = [tuple(rng.permutation(k) + 1) for _ in range(n)]
    po = np.zeros((n, k + 1))
    po[:, 0] = 0.4 * rng.standard_normal(n)
    theta = rng.standard_normal(n)
    po[:, 1] = po[:, 0] + 0.3 + 0.5 * theta
    po[:, 2] = po[:, 0] - 0.2 + 0.5 * theta * (merits / 3.0)
    pop = Population(merit=merits, prefs=prefs, po=po)
    cfg = MechanismConfig(capacities=(500, 500), lottery_seed=0)
    data = simulate_run(pop, cfg, reps=80, master_seed=4).dataset
    est = estimate_all(data)
    for kk in (1, 2):
        orc = slot_expansion_oracle(pop, cfg, kk, reps=80, master_seed=4)
        comb = np.hypot(est.se_beta[kk - 1], orc.mc_se)
        assert abs(orc.value - est.beta[kk - 1]) < 3 * comb


# ---------------------------------------------------------------------------
# balance_check
# ---------------------------------------------------------------------------


def _sim_with_covariates(seed, n=3000, reps=20):
    rng = np.random.default_rng(seed)
    merits = rng.integers(1, 5, n)
    prefs = [tuple(rng.permutation(2) + 1) for _ in range(n)]
    po = np.zeros((n, 3))
    po[:, 0] = rng.standard_normal(n)
    po[:, 1] = po[:, 0] + 0.3
    po[:, 2] = po[:, 0] + 0.1
    labels = {"attr": rng.standard_normal(n), "flag": rng.integers(0, 2, n)}
    pop = Population(merit=merits, prefs=prefs, po=po, labels=labels)
    cfg = MechanismConfig(capacities=(n // 12, n // 12), lottery_seed=0)
    return simulate_run(pop, cfg, reps=reps, master_seed=seed)


def test_balance_constant_covariate_is_exactly_zero():
    run = _sim_with_covariates(20)
    res = balance_check(run.dataset, np.ones((run.dataset.n_obs, 1)), ["const"])
    assert res.coef[0] == 0.0
    assert res.tstat[0] == 0.0



def test_balance_is_scale_free():
    # the exact-zero rule is relative to the covariate's size: the same
    # covariate scaled by 1e-12 keeps its t and p
    run = _sim_with_covariates(5)
    attr = run.covariates["attr"][:, None]
    res = balance_check(run.dataset, attr, ["attr"])
    small = balance_check(run.dataset, attr * 1e-12, ["attr"])
    assert res.coef[0] != 0.0
    assert_allclose(small.tstat, res.tstat, rtol=1e-9)
    assert_allclose(small.p_value, res.p_value, rtol=1e-9)


def test_balance_luck_on_itself_is_one():
    run = _sim_with_covariates(21)
    lk = pooled_luck(run.dataset)
    res = balance_check(run.dataset, lk[:, None], ["luck"])
    assert abs(res.coef[0] - 1.0) < 1e-10


def test_balance_single_cluster_is_too_few_clusters():
    run = _sim_with_covariates(23)
    one = replace(run.dataset, cluster=np.zeros(run.dataset.n_obs, dtype=int))
    with pytest.raises(TooFewClusters):
        balance_check(one, run.covariates["attr"][:, None], ["attr"])


def test_balance_predetermined_attributes_near_zero():
    run = _sim_with_covariates(22, n=6000, reps=40)
    cov = np.column_stack([run.covariates["attr"], run.covariates["flag"]])
    res = balance_check(run.dataset, cov, ["attr", "flag"])
    assert np.all(np.abs(res.coef) < 3.5 * res.se)


def test_config_validation():
    with pytest.raises(DataError):
        MechanismConfig(capacities=(0, 2), lottery_seed=1)
    for bad in (True, np.bool_(True), 1.5, float("nan"), float("inf"), "2", None):
        with pytest.raises(DataError, match="whole seat counts"):
            MechanismConfig(capacities=(bad, 2), lottery_seed=1)
    whole = (2.0, np.int64(3), np.float64(4.0), np.uint8(5))
    assert MechanismConfig(capacities=whole, lottery_seed=1).capacities == (2, 3, 4, 5)
    pop = small_pop([1], [(1,)])
    with pytest.raises(DataError):
        run_clearing(pop, MechanismConfig(capacities=(1, 1), lottery_seed=0))
    with pytest.raises(DataError):
        slot_expansion_oracle(pop, MechanismConfig(capacities=(1,), lottery_seed=0), 2, 1, 0)


# ---------------------------------------------------------------------------
# reference paths: N-row sweep, full-recompute clearing, N-row margins,
# brute-force stable matchings, brute-force oracle
# ---------------------------------------------------------------------------


def reference_sweep(prefs, lengths, pr_slot, caps, events=None, start=None):
    """The cutoff sweep that scans all N applicants every round: counts by
    ``bincount``, each over-capacity program's holders by a mask over N,
    the rejected by one ``held < cutoff`` pass. ``start`` is an earlier
    result, ``(cutoffs, assignment, pos)``; returns the same triple."""
    n, width = prefs.shape
    k = caps.shape[0]
    end = np.arange(n) * width + lengths  # flat index one past each list
    prog_at, pr_at = prefs.ravel(), pr_slot.ravel()
    if start is None:
        cutoffs = np.full(k, -np.inf)
        demand = prefs[:, 0].copy()
        pos = np.zeros(n, dtype=np.int64)
        held = pr_slot[:, 0].copy()  # priority at the current program
    else:
        cutoffs, demand, pos = (a.copy() for a in start)
        held = np.where(demand > 0, pr_at[np.arange(n) * width + pos], -np.inf)
    sweep = 0
    while True:
        counts = np.bincount(demand, minlength=k + 1)[1:]
        over = np.flatnonzero(counts > caps)
        if over.size == 0:
            return cutoffs, demand, pos
        for kk in over:
            excess = counts[kk] - caps[kk]
            cutoffs[kk] = np.partition(held[demand == kk + 1], excess)[excess]
        rej = np.flatnonzero(held < np.concatenate(([-np.inf], cutoffs))[demand])
        if rej.size == 0:
            raise UnresolvedPriorityTie(over + 1)
        moved_from = demand[rej]
        walk, at = rej, rej * width + pos[rej] + 1
        while walk.size:
            done = at >= end[walk]
            out = walk[done]
            demand[out] = 0
            held[out] = -np.inf
            pos[out] = lengths[out] - 1
            walk, at = walk[~done], at[~done]
            prog, pr = prog_at[at], pr_at[at]
            ok = pr >= cutoffs[prog - 1]
            got = walk[ok]
            demand[got] = prog[ok]
            held[got] = pr[ok]
            pos[got] = at[ok] - got * width
            walk, at = walk[~ok], at[~ok] + 1
        sweep += 1
        if events is not None:
            moves = np.empty(rej.size, dtype=CLEARING_EVENT_DTYPE)
            moves["applicant"] = rej
            moves["program_from"] = moved_from
            moves["program_to"] = demand[rej]
            moves["round"] = sweep
            events.append(moves)


def reference_pivotal_groups(merit, priority, reached, assignment_matrix, oversubscribed, draws):
    """Lottery margins from N-row scans: each oversubscribed program's
    admitted and reached-but-rejected applicants found by masks over N."""
    groups: dict = {}
    luck: dict = {}
    for kk in range(priority.shape[1]):
        if not oversubscribed[kk]:
            continue
        admitted = assignment_matrix[:, kk]
        adm_idx = np.flatnonzero(admitted)
        rej_idx = np.flatnonzero(reached[:, kk] & ~admitted)
        if adm_idx.size == 0 or rej_idx.size == 0:
            continue
        cutoff_bracket = int(np.floor(priority[adm_idx, kk].min()))
        best_rejected = int(np.floor(priority[rej_idx, kk].max()))
        if cutoff_bracket != best_rejected:
            continue
        members = np.flatnonzero(reached[:, kk] & (merit == cutoff_bracket))
        groups[kk + 1] = members
        luck[kk + 1] = luck_variable(draws[members, kk])
    return groups, luck


def reference_margins(pop, draws, assignment, pos, cutoffs):
    """The cutoff reprs, the pivotal groups and luck of a sweep's result,
    built from N-row scans: the reached programs by ``np.nonzero`` of the
    (N, L) stop-position mask, each cutoff repr by a mask over N."""
    n, k = pop.n, pop.n_programs
    prefs = pop.pref_array()
    priority = pop.merit[:, None].astype(float) + draws
    admitted = np.zeros((n, k), dtype=bool)
    rows = np.flatnonzero(assignment > 0)
    admitted[rows, assignment[rows] - 1] = True
    posmask = (prefs > 0) & (np.arange(prefs.shape[1]) <= pos[:, None])
    reached = np.zeros((n, k), dtype=bool)
    ii, ll = np.nonzero(posmask)
    reached[ii, prefs[ii, ll] - 1] = True
    cutoff_repr = {}
    for kk in range(k):
        adm = np.flatnonzero(admitted[:, kk])
        if adm.size:
            p_last = priority[adm, kk].min()
            cutoff_repr[kk + 1] = (int(np.floor(p_last)), float(p_last % 1.0))
    groups, luck = reference_pivotal_groups(
        pop.merit, priority, reached, admitted, cutoffs > -np.inf, draws
    )
    return cutoff_repr, groups, luck


def reference_clearing(pop, cfg, log_events=False):
    """Full-recompute clearing: every sweep re-derives every applicant's
    first eligible choice from scratch."""
    n, k = pop.n, pop.n_programs
    caps = np.asarray(cfg.capacities, dtype=np.int64)
    draws = np.random.default_rng(cfg.lottery_seed).random((n, k))
    priority = pop.merit[:, None].astype(float) + draws
    prefs = pop.pref_array()
    has_pref = prefs > 0
    pref_ix = np.maximum(prefs - 1, 0)
    pr_slot = np.where(
        has_pref, np.take_along_axis(priority, pref_ix, axis=1), -np.inf
    )
    events = []
    cutoffs = np.full(k, -np.inf)
    prev_demand = None
    sweep = 0
    while True:
        eligible = has_pref & (pr_slot >= cutoffs[pref_ix])
        any_el = eligible.any(axis=1)
        first = np.argmax(eligible, axis=1)
        demand = np.where(
            any_el, np.take_along_axis(prefs, first[:, None], axis=1).ravel(), 0
        )
        if log_events and prev_demand is not None:
            for i in np.flatnonzero(prev_demand != demand):
                events.append(
                    {
                        "round": sweep,
                        "program_from": int(prev_demand[i]),
                        "program_to": int(demand[i]),
                        "applicant": int(i),
                    }
                )
        changed = False
        for kk in range(k):
            members = demand == kk + 1
            cnt = int(members.sum())
            if cnt > caps[kk]:
                pr_k = priority[members, kk]
                cutoffs[kk] = np.partition(pr_k, cnt - caps[kk])[cnt - caps[kk]]
                changed = True
        if not changed:
            break
        prev_demand = demand
        sweep += 1
    admitted = np.zeros((n, k), dtype=bool)
    pos = np.flatnonzero(demand > 0)
    admitted[pos, demand[pos] - 1] = True
    eligible = has_pref & (pr_slot >= cutoffs[pref_ix])
    any_el = eligible.any(axis=1)
    first = np.argmax(eligible, axis=1)
    lengths = has_pref.sum(axis=1)
    last_pos = np.where(any_el, first, np.maximum(lengths - 1, 0))
    cutoff_repr, groups, luck = reference_margins(pop, draws, demand, last_pos, cutoffs)
    return dict(
        assignment=demand, admitted=admitted, cutoffs=cutoff_repr,
        pivotal_groups=groups, luck=luck, events=events,
    )


def stable_matchings(pop, caps, priority):
    """Every stable matching, by enumerating all individually rational ones."""
    k = pop.n_programs
    for mu in itertools.product(*[(0,) + pl for pl in pop.prefs]):
        mu = np.asarray(mu)
        if np.any(np.bincount(mu, minlength=k + 1)[1:] > caps):
            continue
        blocked = False
        for i, pl in enumerate(pop.prefs):
            for p in pl:
                if p == mu[i]:
                    break
                holders = priority[mu == p, p - 1]
                if holders.size < caps[p - 1] or holders.min() < priority[i, p - 1]:
                    blocked = True
                    break
            if blocked:
                break
        if not blocked:
            yield mu


def applicant_rank(pop, i, prog):
    """Position of ``prog`` in applicant i's list; the outside option last."""
    return pop.prefs[i].index(prog) if prog else len(pop.prefs[i])


def brute_force_oracle(pop, cfg, k, reps, master_seed):
    """Two full clearings per replication: baseline and capacity k + 1."""
    per_rep = np.zeros(reps)
    oversub = False
    plus = list(cfg.capacities)
    plus[k - 1] += 1
    for r in range(reps):
        seed_r = derive_seed(master_seed, r)
        base = run_clearing(pop, replace(cfg, lottery_seed=seed_r))
        if not base.oversubscribed[k - 1]:
            continue
        oversub = True
        exp = run_clearing(pop, replace(cfg, capacities=tuple(plus), lottery_seed=seed_r))
        per_rep[r] = realized_outcomes(pop, exp.admitted).sum() - (
            realized_outcomes(pop, base.admitted).sum()
        )
    return per_rep, not oversub


@st.composite
def tiny_markets(draw):
    """n <= 6, K <= 3, merits from three brackets (ties), lists of any length."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    merits = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    prefs = []
    for _ in range(n):
        order = draw(st.permutations(range(1, k + 1)))
        prefs.append(tuple(order[: draw(st.integers(0, k))]))
    caps = tuple(draw(st.lists(st.integers(1, n), min_size=k, max_size=k)))
    seed = draw(st.integers(0, 2**32 - 1))
    po = np.random.default_rng(seed).standard_normal((n, k + 1))
    pop = Population(merit=np.asarray(merits, dtype=np.int64), prefs=prefs, po=po)
    return pop, MechanismConfig(capacities=caps, lottery_seed=seed)


@settings(max_examples=200, deadline=None)
@given(tiny_markets(), st.integers(0, 2))
def test_pref_slots_match_list_index(market, extra):
    # the lists as given, and as one padded array with ``extra`` more
    # columns of 0s: zero columns wide when every list is empty
    pop, _ = market
    n, k = pop.n, pop.n_programs
    lists = [list(pl) for pl in pop.prefs]
    arr = np.hstack([padded(lists), np.zeros((n, extra), dtype=np.int64)])
    for p in (pop, make_pop(arr, k)):
        width = p.pref_array().shape[1]
        want = [[pl.index(prog) if prog in pl else width for pl in lists]
                for prog in range(1, k + 1)]
        assert p.pref_slots().dtype == np.uint8
        assert np.array_equal(p.pref_slots(), np.array(want).reshape(k, n))


@settings(max_examples=200, deadline=None)
@given(tiny_markets())
def test_clearing_matches_full_recompute_reference(market):
    pop, cfg = market
    res = run_clearing(pop, cfg, log_events=True)
    ref = reference_clearing(pop, cfg, log_events=True)
    assert np.array_equal(res.assignment, ref["assignment"])
    assert np.array_equal(res.admitted, ref["admitted"])
    assert res.cutoffs == ref["cutoffs"]
    want = np.array(
        [
            (e["applicant"], e["program_from"], e["program_to"], e["round"])
            for e in ref["events"]
        ],
        dtype=CLEARING_EVENT_DTYPE,
    )
    assert res.events.dtype == CLEARING_EVENT_DTYPE
    assert np.array_equal(res.events, want)
    assert res.pivotal_groups.keys() == ref["pivotal_groups"].keys()
    for prog, members in ref["pivotal_groups"].items():
        assert np.array_equal(res.pivotal_groups[prog], members)
        assert np.array_equal(res.luck[prog], ref["luck"][prog])


@settings(max_examples=100, deadline=None)
@given(tiny_markets())
def test_clearing_is_applicant_optimal_by_enumeration(market):
    pop, cfg = market
    res = run_clearing(pop, cfg)
    priority = pop.merit[:, None] + res.draws
    caps = np.asarray(cfg.capacities)
    stable = list(stable_matchings(pop, caps, priority))
    assert any(np.array_equal(mu, res.assignment) for mu in stable)
    for mu in stable:
        for i in range(pop.n):
            assert applicant_rank(pop, i, res.assignment[i]) <= applicant_rank(
                pop, i, mu[i]
            )


@settings(max_examples=100, deadline=None)
@given(tiny_markets())
def test_one_more_seat_lowers_cutoffs_and_stays_applicant_optimal(market):
    pop, cfg = market
    res = run_clearing(pop, cfg)
    prefs, lengths = pop.pref_array(), pop.pref_lengths()
    caps = np.asarray(cfg.capacities)
    priority = pop.merit[:, None] + res.draws
    pr_slot = _lottery(pop, cfg.lottery_seed)[1]
    base = _sweep(prefs, lengths, pr_slot, caps)
    cutoffs, assignment = base.cutoffs, base.assignment
    assert np.array_equal(assignment, res.assignment)
    for k in range(pop.n_programs):
        plus = caps.copy()
        plus[k] += 1
        expanded = _sweep(prefs, lengths, pr_slot, plus)
        cut_plus, assign_plus = expanded.cutoffs, expanded.assignment
        assert np.all(cut_plus <= cutoffs)
        for i in range(pop.n):
            assert applicant_rank(pop, i, assign_plus[i]) <= applicant_rank(
                pop, i, assignment[i]
            )
        assert np.all(np.bincount(assign_plus, minlength=pop.n_programs + 1)[1:] <= plus)
        stable = list(stable_matchings(pop, plus, priority))
        assert any(np.array_equal(mu, assign_plus) for mu in stable)
        for mu in stable:
            for i in range(pop.n):
                assert applicant_rank(pop, i, assign_plus[i]) <= applicant_rank(
                    pop, i, mu[i]
                )


@settings(max_examples=300, deadline=None)
@given(tiny_markets())
def test_sweep_started_at_one_extra_seat_everywhere_matches_cold_start(market):
    pop, cfg = market
    pr_slot = _lottery(pop, cfg.lottery_seed)[1]
    prefs, lengths = pop.pref_array(), pop.pref_lengths()
    caps = np.asarray(cfg.capacities)
    start = _sweep(prefs, lengths, pr_slot, caps + 1)
    for k in range(pop.n_programs):
        plus = caps.copy()
        plus[k] += 1
        cold = _sweep(prefs, lengths, pr_slot, plus)
        warm = _sweep(prefs, lengths, pr_slot, plus, start=start)
        assert_same_sweep(warm, cold)


def sweep_or_tie(sweep, *args, **kwargs):
    """A sweep's result, or the programs of the ``UnresolvedPriorityTie`` it
    raised."""
    try:
        return sweep(*args, **kwargs)
    except UnresolvedPriorityTie as exc:
        return exc.programs


def log(events):
    return np.concatenate([np.empty(0, dtype=CLEARING_EVENT_DTYPE), *events])


@settings(max_examples=300, deadline=None)
@given(tiny_markets(), st.booleans(), st.data())
def test_sweep_matches_reference_sweep(market, tied, data):
    # cold, and warm from one extra seat everywhere and from one extra seat
    # at each program: the holder-list sweep ends where the N-row sweep
    # ends, logs the same moves, and raises on the same tied programs
    pop, cfg = market
    n, k = pop.n, pop.n_programs
    prefs, lengths = pop.pref_array(), pop.pref_lengths()
    caps = np.asarray(cfg.capacities)
    if tied:  # three priority levels: ties often straddle a cutoff
        levels = data.draw(st.lists(st.integers(0, 2), min_size=n * k, max_size=n * k))
        priority = np.asarray(levels, dtype=float).reshape(n, k)
        pr_slot = np.where(
            prefs > 0, np.take_along_axis(priority, np.maximum(prefs - 1, 0), axis=1), -np.inf
        )
    else:
        pr_slot = _lottery(pop, cfg.lottery_seed)[1]

    def check(target, start=None):
        got_events, want_events = [], []
        got = sweep_or_tie(_sweep, prefs, lengths, pr_slot, target, got_events,
                           start=None if start is None else start[0])
        want = sweep_or_tie(reference_sweep, prefs, lengths, pr_slot, target, want_events,
                            start=None if start is None else start[1])
        if isinstance(want, list):
            assert got == want
            return None
        for name, b in zip(("cutoffs", "assignment", "pos"), want):
            a = getattr(got, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        assert np.array_equal(log(got_events), log(want_events))
        cutoffs, assignment, pos = want
        for kk in range(k):
            order = np.argsort(got.holders[kk])
            ids = got.holders[kk][order]
            assert np.array_equal(ids, np.flatnonzero(assignment == kk + 1))
            assert np.array_equal(got.held[kk][order], pr_slot[ids, pos[ids]])
        return got, want

    one_more = [caps + np.eye(k, dtype=caps.dtype)[j] for j in range(k)]
    for target in [caps, *one_more]:
        check(target)
    plus = check(caps + 1)
    if plus is not None:
        for target in [caps, *one_more]:
            check(target, plus)
    for target in one_more:
        start = check(target)
        if start is not None:
            check(caps, start)
            check(target, start)


def clear(pop, caps, lottery, start=None):
    """The clearing at ``caps`` on ``lottery`` (as ``_lottery`` returns it),
    its sweep started at ``start``."""
    sweep = _sweep(pop.pref_array(), pop.pref_lengths(), lottery[1], caps, start=start)
    return _margins(pop, sweep, lottery[0])


def assert_margins_match_n_row_construction(pop, caps, lottery, start=None):
    res = clear(pop, caps, lottery, start=start)
    sweep = _sweep(pop.pref_array(), pop.pref_lengths(), lottery[1], caps)
    cutoffs, groups, luck = reference_margins(
        pop, lottery[0], sweep.assignment, sweep.pos, sweep.cutoffs
    )
    assert res.cutoffs == cutoffs
    assert res.pivotal_groups.keys() == groups.keys() == luck.keys()
    for prog in groups:
        assert res.pivotal_groups[prog].dtype == groups[prog].dtype
        assert np.array_equal(res.pivotal_groups[prog], groups[prog])
        assert res.luck[prog].dtype == luck[prog].dtype
        assert np.array_equal(res.luck[prog], luck[prog])
    return res


@settings(max_examples=200, deadline=None)
@given(tiny_markets())
def test_clear_margins_match_n_row_construction_on_tiny_markets(market):
    pop, cfg = market
    caps = _capacities(pop, cfg)
    lottery = _lottery(pop, cfg.lottery_seed)
    assert_margins_match_n_row_construction(pop, caps, lottery)
    start = _sweep(pop.pref_array(), pop.pref_lengths(), lottery[1], caps + 1)
    assert_margins_match_n_row_construction(pop, caps, lottery, start)


@pytest.mark.parametrize("k, brackets", [(2, 2), (3, 4), (5, 8)])
def test_clear_margins_match_n_row_construction(k, brackets):
    # large pivotal groups (two brackets) to many small ones, cold and warm
    pop = generate_population(SynthConfig(n=3000, k=k, seed=k, n_merit_brackets=brackets,
                                          taste_scale=1.2))
    caps = np.full(k, 3000 // (2 * k), dtype=np.int64)
    for r in range(3):
        lottery = _lottery(pop, derive_seed(17, r))
        res = assert_margins_match_n_row_construction(pop, caps, lottery)
        assert res.pivotal_groups
        start = _sweep(pop.pref_array(), pop.pref_lengths(), lottery[1], caps + 1)
        assert_margins_match_n_row_construction(pop, caps, lottery, start)


def test_pivotal_group_when_a_lower_bracket_priority_rounds_up_to_the_cutoff_bracket():
    # 1 + (1 - 2**-53) rounds to 2.0: the rejected applicant of bracket 1
    # sits in bracket 2 by priority, so program 1's margin is bracket 2,
    # with the admitted applicant its only member
    pop = small_pop([2, 1], [(1,), (1,)])
    draws = np.array([[0.5], [1 - 2.0**-53]])
    res = clear(pop, np.array([1]), (draws, _slot_priorities(pop, draws)))
    assert list(res.assignment) == [1, 0]
    assert res.cutoffs == {1: (2, 0.5)}
    assert list(res.pivotal_groups[1]) == [0]
    assert list(res.luck[1]) == [0.5]


def reference_blocking_pairs(pop, cfg, result):
    """``find_blocking_pairs`` applicant by applicant, down each list."""
    caps = np.asarray(cfg.capacities)
    priority = pop.merit[:, None].astype(float) + result.draws
    admitted_counts = result.admitted.sum(axis=0)
    min_admitted = np.full(pop.n_programs, np.inf)
    for kk in range(pop.n_programs):
        adm = np.flatnonzero(result.admitted[:, kk])
        if adm.size:
            min_admitted[kk] = priority[adm, kk].min()
    pairs = []
    for i in range(pop.n):
        for prog in pop.prefs[i]:
            if result.assignment[i] == prog:
                break
            kk = prog - 1
            if admitted_counts[kk] < caps[kk] or priority[i, kk] > min_admitted[kk]:
                pairs.append((i, prog))
    return pairs


@settings(max_examples=300, deadline=None)
@given(tiny_markets(), st.data())
def test_blocking_pairs_match_reference_scan(market, data):
    # the clearing has none; a perturbed assignment (anyone to any program
    # or none, listed or not, capacities ignored) mostly has some
    pop, cfg = market
    res = run_clearing(pop, cfg)
    assert find_blocking_pairs(pop, cfg, res) == reference_blocking_pairs(pop, cfg, res) == []
    assignment = np.array(data.draw(st.lists(
        st.integers(0, pop.n_programs), min_size=pop.n, max_size=pop.n)), dtype=np.int64)
    moved = replace(res, assignment=assignment)
    admitted = moved.admitted  # derived from the new assignment
    assert admitted.dtype == bool
    assert np.array_equal(admitted, assignment[:, None] == np.arange(1, pop.n_programs + 1))
    got = find_blocking_pairs(pop, cfg, moved)
    assert got == reference_blocking_pairs(pop, cfg, moved)
    assert all(type(i) is int and type(p) is int for i, p in got)


def assert_same_clearing(got: AllocationResult, want: AllocationResult):
    # ``admitted`` is derived, not a field: compared by name
    for name in [f.name for f in dataclasses.fields(AllocationResult)] + ["admitted"]:
        a, b = getattr(got, name), getattr(want, name)
        if name == "cutoffs":
            assert a == b
        elif isinstance(b, dict):
            assert a.keys() == b.keys(), name
            for key in b:
                assert a[key].dtype == b[key].dtype, name
                assert np.array_equal(a[key], b[key]), name
        else:
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


@settings(max_examples=300, deadline=None)
@given(tiny_markets(), st.data())
def test_baseline_started_at_more_seats_matches_run_clearing(market, data):
    # the oracle clears a draw's baseline from the sweep with one extra
    # seat at every program it measures, one program or all of them
    pop, cfg = market
    want = run_clearing(pop, cfg)
    caps = _capacities(pop, cfg)
    lottery = _lottery(pop, cfg.lottery_seed)
    one = caps.copy()
    one[data.draw(st.integers(0, pop.n_programs - 1))] += 1
    for plus in (caps + 1, one):
        start = _sweep(pop.pref_array(), pop.pref_lengths(), lottery[1], plus)
        assert_same_clearing(clear(pop, caps, lottery, start=start), want)


@pytest.mark.parametrize("programs, warm", [((1,), 1), ((1, 2, 3), 3), ((3, 1), 2)])
def test_oracle_sweeps_each_draw_from_minus_inf_once(programs, warm):
    # per draw: one sweep from -inf (to one extra seat at every program
    # measured), then the baseline and each oversubscribed program's
    # expansion from there, except that with one program measured c+ is
    # its expansion; program 3 is never oversubscribed
    pop = homogeneous_pop(300, 3, np.array([0.2, -0.1, 0.3]), seed=12)
    cfg = MechanismConfig(capacities=(20, 60, 400), lottery_seed=0)
    with counting_sweeps() as counts:
        slot_expansion_oracles(pop, cfg, programs, reps=4, master_seed=8)
    assert counts == {"cold": 4, "warm": 4 * warm}


@settings(max_examples=60, deadline=None)
@given(tiny_markets(), st.integers(1, 3), st.data())
def test_single_program_oracle_matches_brute_force(market, reps, data):
    pop, cfg = market
    k = data.draw(st.integers(1, pop.n_programs))
    got = slot_expansion_oracle(pop, cfg, k, reps, master_seed=cfg.lottery_seed)
    per_rep, under = brute_force_oracle(pop, cfg, k, reps, cfg.lottery_seed)
    assert same_bits(got.per_rep, per_rep)
    assert got.undersubscribed == under


@settings(max_examples=60, deadline=None)
@given(tiny_markets(), st.integers(1, 3))
def test_all_programs_oracle_matches_brute_force(market, reps):
    pop, cfg = market
    programs = range(1, pop.n_programs + 1)
    got = slot_expansion_oracles(pop, cfg, programs, reps, master_seed=cfg.lottery_seed)
    for k, orc in zip(programs, got):
        per_rep, under = brute_force_oracle(pop, cfg, k, reps, cfg.lottery_seed)
        assert np.array_equal(orc.per_rep, per_rep)
        assert orc.undersubscribed == under


@pytest.mark.parametrize("reps", [1, 4])
def test_all_programs_oracle_mixed_subscription(reps):
    # program 1 is oversubscribed in every draw, program 3 never is
    pop = homogeneous_pop(300, 3, np.array([0.2, -0.1, 0.3]), seed=12)
    cfg = MechanismConfig(capacities=(20, 60, 400), lottery_seed=0)
    got = slot_expansion_oracles(pop, cfg, (3, 1, 2), reps=reps, master_seed=8)
    assert [o.undersubscribed for o in got] == [True, False, False]
    for k, orc in zip((3, 1, 2), got):
        per_rep, under = brute_force_oracle(pop, cfg, k, reps, 8)
        assert np.array_equal(orc.per_rep, per_rep)
        assert orc.undersubscribed == under
        single = slot_expansion_oracle(pop, cfg, k, reps=reps, master_seed=8)
        assert np.array_equal(single.per_rep, orc.per_rep)
        assert (single.value, single.mc_se) == (orc.value, orc.mc_se)
    assert got[0].value == 0.0
    if reps == 1:
        assert all(o.mc_se == 0.0 for o in got)


def test_sweep_raises_on_tied_priorities_at_the_cutoff():
    # one seat; two applicants tie exactly above a third: raising the
    # cutoff to the tied value rejects the third, then nobody
    prefs, lengths = np.array([[1], [1], [1]]), np.ones(3, dtype=np.int64)
    pr_slot = np.array([[4.5], [4.5], [4.1]])
    with pytest.raises(UnresolvedPriorityTie) as exc:
        _sweep(prefs, lengths, pr_slot, np.array([1]))
    assert exc.value.programs == [1]
    assert isinstance(exc.value, NumericalError)
    # the same queue with the tie broken clears in one raise
    events = []
    res = _sweep(prefs, lengths, np.array([[4.5], [4.6], [4.1]]), np.array([1]), events)
    assert list(res.assignment) == [0, 1, 0]
    assert res.cutoffs[0] == 4.6
    log = np.concatenate(events)
    assert log.dtype == CLEARING_EVENT_DTYPE
    assert [(e["round"], e["applicant"]) for e in log] == [(1, 0), (1, 2)]


# ---------------------------------------------------------------------------
# Rewrites without (N, K) temporaries, and the verify path, against what
# they replaced
# ---------------------------------------------------------------------------


def reference_slot_priorities(pop, draws):
    """The slot priorities gathered from the (N, K) priority matrix."""
    priority = pop.merit[:, None].astype(float) + draws
    prefs = pop.pref_array()
    return np.where(
        prefs > 0,
        np.take_along_axis(priority, np.maximum(prefs - 1, 0), axis=1),
        -np.inf,
    )


def reference_outcomes(po, admitted):
    """Realized outcomes as the (N, K) gains times admissions, summed per row."""
    gains = po[:, 1:] - po[:, [0]]
    return po[:, 0] + (gains * admitted).sum(axis=1)


def same_bits(got, want):
    """Equal float arrays, bit for bit: signed zeros differ."""
    return got.dtype == want.dtype and np.array_equal(
        np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(want).view(np.int64)
    )


@settings(max_examples=200, deadline=None)
@given(tiny_markets(), st.integers(0, 2), st.integers(-3, 3))
def test_slot_priorities_match_the_priority_matrix_gather(market, extra, shift):
    # lists as given and padded with extra zero columns, merits shifted
    # down to zero and below, draws in C and Fortran order
    pop, cfg = market
    n, k = pop.n, pop.n_programs
    arr = np.hstack([padded(list(pop.prefs)), np.zeros((n, extra), dtype=np.int64)])
    merit = pop.merit + shift
    draws = np.random.default_rng(cfg.lottery_seed).random((n, k))
    for p in (Population(merit=merit, prefs=list(pop.prefs), po=pop.po),
              Population(merit=merit, prefs=arr, po=pop.po)):
        for d in (draws, np.asfortranarray(draws)):
            assert same_bits(_slot_priorities(p, d), reference_slot_priorities(p, d))


OUTCOME_VALUES = st.sampled_from([0.0, -0.0, 1.5, -1.5, 3.0, -3.0, 1e20, -1e-300, 5e-324])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.data())
def test_outcomes_match_the_summed_products(k, data):
    # signed zeros, cancellation and rounding in po; at most one seat a row
    n = data.draw(st.integers(1, 8))
    po = np.array(data.draw(st.lists(st.lists(OUTCOME_VALUES, min_size=k + 1, max_size=k + 1),
                                     min_size=n, max_size=n)))
    assignment = np.array(data.draw(st.lists(st.integers(0, k), min_size=n, max_size=n)))
    admitted = np.zeros((n, k), dtype=bool)
    held = np.flatnonzero(assignment)
    admitted[held, assignment[held] - 1] = True
    want = reference_outcomes(po, admitted)
    assert same_bits(_outcomes(po, assignment), want)
    assert same_bits(_outcomes(po, assignment.astype(np.uint8)), want)
    pop = Population(merit=np.zeros(n, dtype=np.int64), prefs=[()] * n, po=po)
    assert same_bits(realized_outcomes(pop, admitted), want)
    assert same_bits(realized_outcomes(pop, admitted.astype(float)), want)


def test_realized_outcomes_refuses_more_than_one_seat_a_row():
    pop = small_pop([1, 1], [(1, 2), (2,)], gains=[[1.0, 2.0], [3.0, 4.0]])
    for admitted in ([[1, 1], [0, 0]], [[0.5, 0], [0, 0]], [[-1, 0], [0, 0]], [[1, 0]], [1, 0]):
        with pytest.raises(DataError, match="one admission per row at most"):
            realized_outcomes(pop, np.array(admitted))


def fit_or_error(data):
    """``estimate_all`` of a Dataset or of a simulation's pivotal records,
    or the class of the package error it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return estimate_all(data)
        except CascadeIVError as exc:
            return type(exc)


def assert_same_estimates(got, want):
    if isinstance(want, type):
        assert got is want
        return
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "first_stage":
            a, b = a.pi, b.pi
        if isinstance(b, np.ndarray):
            assert same_bits(a, b), f.name
        else:
            assert a == b, f.name


def assert_records_fit_as_stacked(run):
    """``estimate_all(run)`` fits the records without stacking them, with
    the bits of ``estimate_all(run.dataset)``, the same sizes and the same
    error."""
    got = fit_or_error(run)
    assert not {"dataset", "applicants", "covariates"} & set(vars(run))
    data = run.dataset
    assert (run.n_obs, run.n_clusters, run.n_treatments, run.n_controls) == (
        data.n_obs, data.n_clusters, data.n_treatments, data.n_controls)
    assert_same_estimates(got, fit_or_error(data))


def assert_verify_path_matches_stacked(pop, cfg, reps, oracle_reps, master_seed=5):
    """``verify``'s path, ``estimate_all`` of ``simulate_and_oracles``'
    records, against the fit of its stacked dataset, and its oracles against
    the standalone oracle: the same estimates and per-draw deltas, bit for
    bit; ``simulate_run``'s records fit as their rows do too. Returns the
    run (None when no program was ever oversubscribed)."""
    programs = range(1, pop.n_programs + 1)
    args = (pop, cfg, reps, master_seed, programs, oracle_reps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoPivotalProgramWarning)
        try:
            run, oracles = simulate_and_oracles(*args)
        except NoPivotalVariation:
            with pytest.raises(NoPivotalVariation):
                simulate_run(pop, cfg, reps, master_seed)
            return None
        alone = simulate_run(pop, cfg, reps, master_seed)
    assert_records_fit_as_stacked(run)
    assert_records_fit_as_stacked(alone)
    for got, want in zip(oracles, slot_expansion_oracles(pop, cfg, programs, oracle_reps,
                                                         master_seed)):
        assert same_bits(got.per_rep, want.per_rep)
        assert (got.value, got.mc_se, got.undersubscribed) == (
            want.value, want.mc_se, want.undersubscribed)
    return run


@settings(max_examples=150, deadline=None)
@given(tiny_markets(), st.integers(1, 4), st.integers(1, 4))
def test_verify_records_match_the_stacked_dataset_on_tiny_markets(market, reps, oracle_reps):
    pop, cfg = market
    assert_verify_path_matches_stacked(pop, cfg, reps, oracle_reps, cfg.lottery_seed)


@pytest.mark.parametrize("k, caps, brackets, tensor", [
    (2, 300, 5, True), (5, 150, 8, True), (3, 200, 300, False),
])
def test_verify_records_match_the_stacked_dataset(k, caps, brackets, tensor):
    # n = 3000: pivotal groups of hundreds keep the per-cluster tensor;
    # 300 merit brackets leave groups of a few, whose rows are kept instead
    pop = generate_population(SynthConfig(n=3000, k=k, seed=k, n_merit_brackets=brackets,
                                          het_scale=0.5, effects=tuple(np.linspace(-0.2, 0.2, k))))
    cfg = MechanismConfig(capacities=(caps,) * k, lottery_seed=0)
    run = assert_verify_path_matches_stacked(pop, cfg, reps=4, oracle_reps=3)
    assert (run._moments.m is not None) == tensor


def test_fitting_a_simulation_leaves_its_rows_unstacked():
    # with a label the records fit with it, as the stacked rows do: the
    # same bits, and the rows stay unstacked until they are read
    pop = homogeneous_pop(3000, 2, np.array([0.1, 0.2]), seed=7)
    pop = replace(pop, labels={"group": np.arange(3000) % 2})
    cfg = MechanismConfig(capacities=(200, 200), lottery_seed=0)
    run = simulate_run(pop, cfg, reps=4, master_seed=1, label="group")
    est = estimate_all(run)
    assert vars(run).keys().isdisjoint({"dataset", "applicants", "covariates"})
    assert run._moments.levels.tolist() == [0, 1]
    assert_same_estimates(est, estimate_all(run.dataset))
    assert (est.n_obs, est.n_clusters) == (run.n_obs, run.n_clusters)


MOMENT_FITS = {
    "estimate_all": estimate_all,
    **{f"se_{which}": functools.partial(cluster_robust_se, which=which)
       for which in ("beta", "rf", "wald", "delta")},
    "first_stage_f": first_stage_f,
    **{f"bootstrap_{name}": functools.partial(cluster_bootstrap, statistic=name, reps=4, seed=3)
       for name in ("beta", "wald", "cascade_delta", "first_stage", "conditional_entrant")},
    "group_outcome_decomposition": group_outcome_decomposition,
    "conditional_entrant_by_group": conditional_entrant_by_group,
}


def moment_fits(data) -> dict:
    """Each of ``MOMENT_FITS`` on ``data``, or the class and message of the
    package error it raises."""
    out = {}
    for name, fit in MOMENT_FITS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                out[name] = fit(data)
            except CascadeIVError as exc:
                out[name] = (type(exc), str(exc))
    return out


def assert_same_result(got, want):
    """Equal results, every float array bit for bit."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want)
        for f in dataclasses.fields(want):
            assert_same_result(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same_result(got[key], want[key])
    elif isinstance(want, np.ndarray) and want.dtype.kind == "f":
        assert same_bits(got, want)
    else:
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def assert_records_fit_with_their_label(run, label):
    """Every fit that reads the moment object gives the same bits, or the
    same error, on the run's records as on its stacked rows, and the
    records' fits leave ``dataset`` and ``covariates`` unbuilt; the rows
    carry each member's ``label``. Returns whether the records' moment
    object took the tensor form."""
    got = moment_fits(run)
    assert not {"dataset", "covariates"} & set(vars(run))
    data = run.dataset
    if label is None:
        assert data.group_label is None and run._moments.levels is None
    else:
        assert np.array_equal(data.group_label, run.population.labels[label][run.applicants])
    assert_same_result(got, moment_fits(data))
    return run._moments.m is not None


@st.composite
def crowded_markets(draw):
    """n <= 12, K <= 2, two merit brackets, nonempty lists and at most n/2
    seats a program, so most draws have a pivotal group; each applicant
    gets one of one to three group labels. A group of d = p + 2K + 1 members
    or more can keep the tensor form, and a smaller one keeps the rows."""
    k = draw(st.integers(1, 2))
    n = draw(st.integers(2, 12))
    merits = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    prefs = [tuple(draw(st.permutations(range(1, k + 1)))[: draw(st.integers(1, k))])
             for _ in range(n)]
    caps = tuple(draw(st.lists(st.integers(1, n // 2), min_size=k, max_size=k)))
    levels = ["f", "m", "x"][: draw(st.integers(1, 3))]
    labels = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**32 - 1))
    po = np.random.default_rng(seed).standard_normal((n, k + 1))
    pop = Population(merit=np.asarray(merits, dtype=np.int64), prefs=prefs, po=po,
                     labels={"group": np.array(labels)})
    return pop, MechanismConfig(capacities=caps, lottery_seed=seed)


@settings(max_examples=150, deadline=None)
@given(crowded_markets(), st.integers(1, 3), st.sampled_from([None, "group"]))
def test_records_fit_as_their_rows_with_or_without_a_label_on_tiny_markets(market, reps, label):
    pop, cfg = market
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoPivotalProgramWarning)
        try:
            run = simulate_run(pop, cfg, reps, cfg.lottery_seed, label=label)
        except NoPivotalVariation:
            return
    tensor = assert_records_fit_with_their_label(run, label)
    event(f"{'tensor' if tensor else 'rows'} form, {'with' if label else 'without'} a label")
    n_levels = 1 if label is None else run._moments.levels.size
    d = run.n_controls + 2 * run.n_treatments + 1
    assert tensor == (run.n_clusters * n_levels * d <= run.n_obs)


@pytest.mark.parametrize("label", [None, "group"])
@pytest.mark.parametrize("brackets, reps, tensor", [(5, 4, True), (600, 4, False), (5, 60, True)])
def test_records_fit_as_their_rows_with_or_without_a_label(label, brackets, reps, tensor):
    # pivotal groups of hundreds keep the per-cell tensor; 600 merit
    # brackets leave groups of 5 to 7, fewer than d = 10, which keep the
    # rows; 60 replications make 180 clusters, whose one-byte codes times
    # two levels pass 255
    pop = generate_population(SynthConfig(n=3000, k=3, seed=4, n_merit_brackets=brackets,
                                          het_scale=0.5, effects=(0.2, -0.1, 0.05),
                                          label_share=0.5))
    cfg = MechanismConfig(capacities=(200,) * 3, lottery_seed=0)
    run = simulate_run(pop, cfg, reps=reps, master_seed=2, label=label)
    assert assert_records_fit_with_their_label(run, label) == tensor
    assert run.n_clusters == 3 * reps


def test_a_labelled_run_builds_one_moment_object_for_every_fit():
    # the point estimates, both group fits and a group bootstrap all read
    # the one moment object of the records, and no Dataset is coded
    pop = homogeneous_pop(3000, 2, np.array([0.1, 0.2]), seed=7)
    pop = replace(pop, labels={"group": np.arange(3000) % 2})
    cfg = MechanismConfig(capacities=(200, 200), lottery_seed=0)
    run = simulate_run(pop, cfg, reps=4, master_seed=1, label="group")
    with counting_moment_builds() as counts:
        estimate_all(run)
        group_outcome_decomposition(run)
        conditional_entrant_by_group(run)
        cluster_bootstrap(run, "conditional_entrant", reps=5, seed=2)
    assert counts == {"built": 1, "coded": 0}
    assert "dataset" not in vars(run)


def test_row_level_calls_on_a_run_name_its_dataset():
    # a balance check and a partition read rows, which the records do not
    # hold: each refuses the run and points at run.dataset
    pop = homogeneous_pop(3000, 2, np.array([0.1, 0.2]), seed=7)
    cfg = MechanismConfig(capacities=(200, 200), lottery_seed=0)
    run = simulate_run(pop, cfg, reps=4, master_seed=1)
    cov = np.ones((run.n_obs, 1))
    with pytest.raises(DataError, match=r"run\.dataset"):
        balance_check(run, cov)
    with pytest.raises(DataError, match=r"run\.dataset"):
        group_outcome_decomposition(run, partition=np.arange(run.n_obs) % 2)
    assert "dataset" not in vars(run)
    balance_check(run.dataset, run.covariates["merit"])
    group_outcome_decomposition(run.dataset, partition=np.arange(run.n_obs) % 2)


def stack_clearings(pop, clearings):
    """The rows (y, a, z, x, cluster, applicants) and event log of a
    simulation, stacked from its per-draw clearings pivotal group by pivotal
    group; None for the rows when no draw has a pivotal group."""
    k = pop.n_programs
    groups = [(r, prog, res) for r, res in enumerate(clearings) for prog in sorted(res.luck)]
    counts = np.zeros(k)
    for _, prog, res in groups:
        counts[prog - 1] += res.pivotal_groups[prog].size
    baseline = int(np.argmax(counts))
    dummies = [j + 1 for j in range(k) if j != baseline and counts[j] > 0]
    rows = []
    for r, prog, res in groups:
        idx = res.pivotal_groups[prog]
        z = np.zeros((idx.size, k))
        z[:, prog - 1] = res.luck[prog]
        x = np.zeros((idx.size, 1 + len(dummies)))
        x[:, 0] = 1.0
        if prog in dummies:
            x[:, 1 + dummies.index(prog)] = 1.0
        y = realized_outcomes(pop, res.admitted)[idx]
        rows.append((y, res.admitted[idx].astype(float), z, x, [f"r{r}:p{prog}"] * idx.size, idx))
    events = []
    for r, res in enumerate(clearings):
        part = np.empty(res.events.size, dtype=SIMULATION_EVENT_DTYPE)
        for name in CLEARING_EVENT_DTYPE.names:
            part[name] = res.events[name]
        part["replication"] = r
        events.append(part)
    stacked = [np.concatenate(part) for part in zip(*rows)] if rows else None
    return stacked, np.concatenate(events)


@settings(max_examples=150, deadline=None)
@given(tiny_markets(), st.integers(1, 4))
def test_simulation_stacks_per_draw_clearings_on_tiny_markets(market, reps):
    # each replication is the clearing ``run_clearing`` gives at the
    # replication's seed: the rows and the log of every draw, bit for bit
    pop, cfg = market
    clearings = [
        run_clearing(pop, replace(cfg, lottery_seed=derive_seed(cfg.lottery_seed, r)),
                     log_events=True)
        for r in range(reps)
    ]
    stacked, events = stack_clearings(pop, clearings)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoPivotalProgramWarning)
        if stacked is None:
            with pytest.raises(NoPivotalVariation):
                simulate_run(pop, cfg, reps, cfg.lottery_seed, log_events=True)
            return
        run = simulate_run(pop, cfg, reps, cfg.lottery_seed, log_events=True)
    y, a, z, x, cluster, applicants = stacked
    data = run.dataset
    for got, want in ((data.y, y), (data.a, a), (data.z, z), (data.x, x)):
        assert same_bits(got, want)
    assert np.array_equal(data.cluster, cluster) and data.group_label is None
    assert np.array_equal(run.applicants, applicants)
    assert run.events.dtype == SIMULATION_EVENT_DTYPE
    assert np.array_equal(run.events, events)
