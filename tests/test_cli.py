import csv
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cascadeiv
import cascadeiv.io as iomod
from cascadeiv.cli import main
from cascadeiv import (
    Dataset,
    MechanismConfig,
    conditional_entrant_effect,
    estimate_all,
    fit_first_stage,
    fit_reduced_form,
    simulate_run,
    slot_expansion_oracles,
)
from cascadeiv.io import (
    build_scenario,
    load_dataset_csv,
    load_run_config,
    write_covariates_csv,
    write_dataset_csv,
)

from conftest import bernoulli_iv_data, counting_moment_builds, counting_sweeps, take_rows

CONFIG = {
    "synth": {
        "n": 4000, "k": 2, "n_merit_brackets": 5, "taste_scale": 1.0,
        "effects": [0.2, -0.1], "het_scale": 0.0, "base_scale": 0.5,
        "label_share": 0.5,
    },
    "capacities": [300, 300],
    "label": "group",
}


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(CONFIG))
    return p


# what a plain simulate writes: three CSVs, and the companion arrays of the
# two that later commands read
SIMULATE_FILES = ["covariates.csv", "covariates.csv.arrays", "dataset.csv",
                  "dataset.csv.arrays", "population.csv"]


def run(args):
    return main([str(a) for a in args])


def test_simulate_then_estimate(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert run(["simulate", "--config", config_path, "--seed", 3,
                "--reps", 10, "--out", out, "--events"]) == 0
    assert (out / "dataset.csv").exists()
    assert (out / "covariates.csv").exists()
    assert (out / "events.jsonl").exists()
    events = [json.loads(l) for l in (out / "events.jsonl").read_text().splitlines()]
    assert events and {"replication", "round", "program_from", "program_to",
                       "applicant"} <= set(events[0])
    assert run(["estimate", "--data", out / "dataset.csv", "--out", out]) == 0
    text = (out / "estimates.csv").read_text().splitlines()
    header = text[1].split(",")
    i = {name: pos for pos, name in enumerate(header)}
    for line in text[2:]:
        vals = line.split(",")
        t = float(vals[i["cascade_T"]])
        w = float(vals[i["wald"]])
        delta = float(vals[i["cascade_delta"]])
        assert abs((t - w) - delta) < 1e-12
    assert (out / "groups.csv").exists()  # label column flowed through


def _rows(path):
    """The records of a CSV written by the CLI, without its provenance line."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


@pytest.fixture
def simulated(tmp_path, config_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--config", config_path, "--seed", 3,
                "--reps", 10, "--out", out]) == 0
    return out / "dataset.csv"


def _beta(est_dir):
    return np.array([float(r["beta"]) for r in _rows(est_dir / "estimates.csv")])


def test_estimate_blocks_weights_and_implied_coefficients(tmp_path, simulated, capsys):
    out = tmp_path / "est"
    assert run(["estimate", "--data", simulated, "--blocks", '{"A": [1], "B": [2]}',
                "--out", out]) == 0
    beta = _beta(out)
    rows = _rows(out / "blocks.csv")
    assert [(r["block"], r["program"]) for r in rows] == [("A", "1"), ("B", "2")]
    for r in rows:
        # one program per block: its weight is 1 and it implies its own beta
        assert float(r["weight"]) == 1.0
        assert float(r["implied_coefficient"]) == beta[int(r["program"]) - 1]
    assert run(["estimate", "--data", simulated, "--blocks", '{"AB": [1, 2]}',
                "--out", out]) == 0
    rows = _rows(out / "blocks.csv")
    w = np.array([float(r["weight"]) for r in rows])
    assert np.all(w > 0) and abs(w.sum() - 1.0) < 1e-12
    assert [r["program"] for r in rows] == ["1", "2"]
    for r in rows:
        assert_allclose(float(r["implied_coefficient"]), w @ beta, rtol=1e-12)
    assert "first-stage F (per instrument): " in capsys.readouterr().out


def test_estimate_groups_add_up_and_match_subsample_fits(tmp_path, simulated):
    out = tmp_path / "est"
    assert run(["estimate", "--data", simulated, "--group-col", "group",
                "--out", out]) == 0
    beta = _beta(out)
    rows = _rows(out / "groups.csv")
    data = load_dataset_csv(simulated)
    levels = sorted({r["group"] for r in rows})
    assert levels == sorted(str(v) for v in np.unique(data.group_label))
    total = np.zeros_like(beta)
    for r in rows:
        total[int(r["treatment"]) - 1] += float(r["beta_group_outcome"])
    assert np.max(np.abs(total - beta)) <= 1e-10
    for lev in levels:
        sub = take_rows(data, np.flatnonzero(data.group_label.astype(str) == lev))
        want = conditional_entrant_effect(
            fit_reduced_form(sub), fit_first_stage(sub), beta
        )
        got = [float(r["conditional_entrant"]) for r in rows if r["group"] == lev]
        assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_cascade_from_data_sums_to_estimate(tmp_path, simulated, capsys):
    tol = 1e-9
    assert run(["estimate", "--data", simulated, "--out", tmp_path / "est"]) == 0
    t = np.array([float(r["cascade_T"]) for r in _rows(tmp_path / "est" / "estimates.csv")])
    out = tmp_path / "casc"
    assert run(["cascade", "--data", simulated, "--tol", tol, "--out", out]) == 0
    rounds = _rows(out / "cascade_trace.csv")
    assert [r["round"] for r in rounds] == [str(n) for n in range(len(rounds))]
    total = np.array([[float(r[f"contribution_{j + 1}"]) for j in range(t.size)]
                      for r in rounds]).sum(axis=0)
    assert np.max(np.abs(total - t)) <= 10 * tol


def test_simulate_byte_identical_reruns(tmp_path, config_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert run(["simulate", "--config", config_path, "--seed", 11,
                    "--reps", 6, "--out", out, "--events"]) == 0
    for name in ("dataset.csv", "dataset.csv.arrays", "covariates.csv.arrays", "events.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_simulate_writes_the_event_log_only_on_request(tmp_path, config_path):
    plain, logged = tmp_path / "plain", tmp_path / "logged"
    for out, flags in ((plain, []), (logged, ["--events"])):
        assert run(["simulate", "--config", config_path, "--seed", 11,
                    "--reps", 6, "--out", out, *flags]) == 0
    assert not (plain / "events.jsonl").exists()
    assert (logged / "events.jsonl").stat().st_size > 0
    assert sorted(p.name for p in plain.iterdir()) == SIMULATE_FILES
    for name in SIMULATE_FILES:
        assert (plain / name).read_bytes() == (logged / name).read_bytes(), name


def test_commands_read_the_same_with_and_without_companions(tmp_path, simulated, capsys):
    sim = simulated.parent
    for name in ("dataset.csv", "covariates.csv"):
        assert (sim / f"{name}.arrays").stat().st_size <= (sim / name).stat().st_size
    commands = {
        "estimate": ["estimate", "--data", simulated, "--group-col", "group"],
        "cascade": ["cascade", "--data", simulated],
        "balance": ["balance", "--data", simulated, "--covariates", sim / "covariates.csv"],
        **{f"bootstrap_{stat}": ["bootstrap", "--data", simulated, "--statistic", stat,
                                 "--bootstrap-reps", 5, "--seed", 2]
           for stat in ("cascade_delta", "conditional_entrant")},
    }
    outputs = {}
    for side in ("with", "without"):
        if side == "without":
            for name in ("dataset.csv", "covariates.csv"):
                (sim / f"{name}.arrays").unlink()
        for name, argv in commands.items():
            out = tmp_path / side / name
            capsys.readouterr()
            with mock.patch.object(iomod, "_parse_rows", wraps=iomod._parse_rows) as parse:
                assert run([*argv, "--out", out]) == 0
            assert parse.called == (side == "without"), (side, name)
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            outputs[side, name] = capsys.readouterr().out, files
    for name in commands:
        assert outputs["with", name] == outputs["without", name], name


def test_plain_simulate_removes_an_earlier_event_log(tmp_path, config_path):
    out = tmp_path / "out"
    assert run(["simulate", "--config", config_path, "--seed", 1, "--reps", 3,
                "--out", out, "--events"]) == 0
    assert (out / "events.jsonl").exists()
    assert run(["simulate", "--config", config_path, "--seed", 2, "--reps", 5,
                "--out", out]) == 0
    assert sorted(p.name for p in out.iterdir()) == SIMULATE_FILES


def test_simulate_unknown_group_col_names_the_labels(tmp_path, config_path, capsys):
    code = run(["simulate", "--config", config_path, "--seed", 11, "--reps", 2,
                "--out", tmp_path / "out", "--group-col", "nonexistent"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["code"] == "DataError"
    assert "'nonexistent'" in err["message"] and "'group'" in err["message"]


def test_cascade_command_diagonal_trace(tmp_path, capsys):
    (tmp_path / "pi.csv").write_text("0.4,0.0\n0.0,0.3\n")
    (tmp_path / "rf.csv").write_text("0.2,0.15\n")
    out = tmp_path / "out"
    assert run(["cascade", "--pi", tmp_path / "pi.csv", "--rf", tmp_path / "rf.csv",
                "--out", out]) == 0
    trace = (out / "cascade_trace.csv").read_text().splitlines()
    assert len(trace) == 3  # comment + header + round 0 only
    assert trace[2].split(",")[0] == "0"


def test_cascade_command_numerical_error_exit_code(tmp_path, capsys):
    (tmp_path / "pi.csv").write_text("1.0,1.0\n1.0,1.0\n")
    (tmp_path / "rf.csv").write_text("0.2,0.15\n")
    code = run(["cascade", "--pi", tmp_path / "pi.csv", "--rf", tmp_path / "rf.csv",
                "--out", tmp_path / "out"])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "DivergentCascade"


@pytest.mark.parametrize("option", [["--tol", "inf"], ["--tol", "nan"], ["--tol", "0"],
                                    ["--max-rounds", "0"], ["--max-rounds", "-3"]])
def test_cascade_tolerance_and_round_cap_are_checked(tmp_path, capsys, option):
    (tmp_path / "pi.csv").write_text("0.5,-0.1\n-0.2,0.4\n")
    (tmp_path / "rf.csv").write_text("0.1,0.2\n")
    code = run(["cascade", "--pi", tmp_path / "pi.csv", "--rf", tmp_path / "rf.csv",
                *option, "--out", tmp_path / "out"])
    assert code == 3
    err = _last_error(capsys)
    assert err["code"] == "DataError"
    assert ("tol" if option[0] == "--tol" else "max_rounds") in err["message"]


def test_cascade_reduced_form_of_another_length_is_a_data_error(tmp_path, capsys):
    (tmp_path / "pi.csv").write_text("0.4,-0.05\n-0.04,0.3\n")
    (tmp_path / "rf.csv").write_text("0.2,0.15,0.1\n")
    code = run(["cascade", "--pi", tmp_path / "pi.csv", "--rf", tmp_path / "rf.csv",
                "--out", tmp_path / "out"])
    assert code == 3
    err = _last_error(capsys)
    assert err["code"] == "DataError"
    assert "different lengths" in err["message"]


def test_verify_command_reports_agreement(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert run(["verify", "--config", config_path, "--seed", 5,
                "--reps", 15, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "worst agreement" in stdout
    worst = float(stdout.rsplit("worst agreement:", 1)[1].split()[0])
    assert worst < 3.0
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines[1] == "program,oracle,oracle_se,beta,beta_se,z"
    for line in lines[2:]:
        fields = line.split(",")
        assert len(fields) == 6
        [float(v) for v in fields if v]  # every populated cell is numeric


@pytest.mark.parametrize("oracle_reps", [2, 4, 7])
def test_verify_equals_separate_simulation_and_oracle_loops(
    tmp_path, config_path, oracle_reps
):
    # verify clears each draw once for both; the numbers must be those of
    # the two separate loops, bit for bit, whichever replication count is larger
    reps, seed = 4, 5
    out = tmp_path / "out"
    assert run(["verify", "--config", config_path, "--seed", seed, "--reps", reps,
                "--oracle-reps", oracle_reps, "--out", out]) == 0
    pop, capacities, _ = build_scenario(load_run_config(config_path), seed)
    mech = MechanismConfig(capacities=capacities, lottery_seed=seed)
    est = estimate_all(simulate_run(pop, mech, reps, seed).dataset)
    oracles = slot_expansion_oracles(pop, mech, (1, 2), oracle_reps, seed)
    rows = _rows(out / "verify.csv")
    assert [r["program"] for r in rows] == ["1", "2"]
    for row, orc, beta, se in zip(rows, oracles, est.beta, est.se_beta):
        assert not orc.undersubscribed
        assert float(row["oracle"]) == orc.value
        assert float(row["oracle_se"]) == orc.mc_se
        assert float(row["beta"]) == beta
        assert float(row["beta_se"]) == se


@pytest.mark.parametrize("oracle_reps", [2, 7])
def test_verify_sweeps_each_draw_from_minus_inf_once(tmp_path, config_path, oracle_reps):
    with counting_sweeps() as counts:
        assert run(["verify", "--config", config_path, "--seed", 5, "--reps", 4,
                    "--oracle-reps", oracle_reps, "--out", tmp_path / "out"]) == 0
    assert counts["cold"] == max(4, oracle_reps)


def test_verify_zero_oracle_reps_is_a_data_error(tmp_path, config_path, capsys):
    code = run(["verify", "--config", config_path, "--seed", 5, "--reps", 3,
                "--oracle-reps", 0, "--out", tmp_path / "out"])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["code"] == "DataError"
    assert "reps must be >= 1" in err["error"]["message"]


@pytest.mark.parametrize("capacities, code, message", [
    ("auto", "SchemaError", "'capacities' must be a list, or \"auto\" for a three_program"),
    (5, "SchemaError", "'capacities' must be a list, or \"auto\" for a three_program"),
    ([1.5, 2], "DataError", "capacities must be whole seat counts, got 1.5"),
    ([True, 2], "DataError", "capacities must be whole seat counts, got True"),
])
def test_malformed_capacities_are_data_errors(tmp_path, capsys, capacities, code, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(CONFIG, capacities=capacities)))
    assert run(["simulate", "--config", path, "--seed", 3, "--reps", 2,
                "--out", tmp_path / "out"]) == 3
    err = _last_error(capsys)
    assert err["code"] == code
    assert err["message"].startswith(message)


@pytest.mark.parametrize("synth, message", [
    (5, "'synth' must be an object"),
    (dict(CONFIG["synth"], effects=3), "synth 'effects' must be a list, got 3"),
])
def test_malformed_synth_is_a_schema_error(tmp_path, capsys, synth, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(CONFIG, synth=synth)))
    assert run(["simulate", "--config", path, "--seed", 3, "--reps", 2,
                "--out", tmp_path / "out"]) == 3
    err = _last_error(capsys)
    assert err["code"] == "SchemaError"
    assert err["message"] == message
    assert not (tmp_path / "out").exists()


def test_auto_capacities_come_from_the_three_program_scenario():
    synth = dict(n=2000, k=2, het_scale=0.3, base_scale=0.5,
                 complier_targets=[0.5, 0.5], scenario_effects=[1.0, 0.3, 0.4])
    cfg = {"synth": synth, "capacities": "auto", "scenario": "three_program"}
    _, capacities, scenario = build_scenario(cfg, 7)
    assert capacities == scenario.capacities
    _, capacities, _ = build_scenario(dict(cfg, capacities=[300, 400]), 7)
    assert capacities == (300, 400)


@pytest.mark.parametrize("spec, message", [
    ("{bad", "--blocks is not valid JSON"),
    ('{"A": ["x"]}', "block 'A' must be a list of integer program ids"),
    ('{"A": 3}', "block 'A' must be a list of integer program ids"),
    ('{"A": [1.5], "B": [2]}', "block 'A' must be a list of integer program ids"),
    ("[1, 2]", "--blocks must be a JSON object"),
])
def test_estimate_bad_blocks_is_a_data_error(tmp_path, capsys, spec, message):
    d = bernoulli_iv_data(35, n=300, k=2)
    write_dataset_csv(tmp_path / "d.csv", d, "test", 0)
    code = run(["estimate", "--data", tmp_path / "d.csv", "--blocks", spec,
                "--out", tmp_path / "out"])
    assert code == 3
    err = _last_error(capsys)
    assert err["code"] == "DataError"
    assert err["message"].startswith(message)


def test_estimate_long_inline_blocks_spec(tmp_path):
    # longer than a file name may be: read as JSON, never looked up as a path
    d = bernoulli_iv_data(36, n=600, k=5)
    write_dataset_csv(tmp_path / "d.csv", d, "test", 0)
    blocks = {f"block_with_a_long_descriptive_name_for_program_{j}": [j + 1] for j in range(5)}
    spec = "  " + json.dumps(blocks, indent=1)
    assert 300 < len(spec.encode()) < 400
    assert run(["estimate", "--data", tmp_path / "d.csv", "--blocks", spec,
                "--out", tmp_path / "out"]) == 0
    assert [r["block"] for r in _rows(tmp_path / "out" / "blocks.csv")] == list(blocks)
    # any spec that does not start with "{" (or "[") names a file
    (tmp_path / "spec.json").write_text(json.dumps(blocks))
    assert run(["estimate", "--data", tmp_path / "d.csv", "--blocks", tmp_path / "spec.json",
                "--out", tmp_path / "file"]) == 0
    assert ((tmp_path / "file" / "blocks.csv").read_text()
            == (tmp_path / "out" / "blocks.csv").read_text())


def test_estimate_group_col_names_only_the_group_column(tmp_path, capsys):
    d = bernoulli_iv_data(37, n=600, k=2)
    write_dataset_csv(tmp_path / "d.csv", d, "test", 0)
    with pytest.raises(SystemExit) as exc:
        run(["estimate", "--data", tmp_path / "d.csv", "--group-col", "nonexistent",
             "--out", tmp_path / "out"])
    assert exc.value.code == 2
    assert run(["estimate", "--data", tmp_path / "d.csv", "--group-col", "group",
                "--out", tmp_path / "out"]) == 3
    err = _last_error(capsys)
    assert err["code"] == "DataError" and "'group' column" in err["message"]
    assert not (tmp_path / "out" / "estimates.csv").exists()


@pytest.mark.parametrize("command", ["estimate", "bootstrap", "cascade", "verify", "balance"])
def test_each_command_builds_one_moment_object(tmp_path, simulated, config_path, command):
    # one coding of the cluster ids and one moment object per Dataset, which
    # every fit, standard error, group fit and bootstrap of the command reads;
    # balance builds only its own, over its own columns
    argv = {
        "estimate": ["estimate", "--data", simulated, "--group-col", "group",
                     "--blocks", '{"A": [1], "B": [2]}'],
        "bootstrap": ["bootstrap", "--data", simulated, "--statistic", "beta",
                      "--bootstrap-reps", 5, "--seed", 2],
        "cascade": ["cascade", "--data", simulated],
        "verify": ["verify", "--config", config_path, "--seed", 5, "--reps", 3],
        "balance": ["balance", "--data", simulated,
                    "--covariates", simulated.parent / "covariates.csv"],
    }[command]
    with counting_moment_builds() as counts:
        assert run([*argv, "--out", tmp_path / "out"]) == 0
    # verify fits the simulation's pivotal records: it makes no Dataset, so
    # it codes no Dataset's cluster ids
    assert counts == {"built": 1, "coded": 0 if command == "verify" else 1}


def test_bootstrap_command(tmp_path, capsys):
    d = bernoulli_iv_data(31, n=600, k=2)
    write_dataset_csv(tmp_path / "d.csv", d, "test", 0)
    out = tmp_path / "out"
    assert run(["bootstrap", "--data", tmp_path / "d.csv", "--statistic",
                "cascade_delta", "--bootstrap-reps", 25, "--seed", 4,
                "--out", out]) == 0
    lines = (out / "bootstrap.csv").read_text().splitlines()
    assert lines[1] == "component,se,ci_lower,ci_upper"
    assert len(lines) == 4
    for line in lines[2:]:
        name, *vals = line.split(",")
        assert name.startswith("cascade_delta_")
        [float(v) for v in vals]
    est_lines = (out / "estimates.csv").read_text().splitlines()
    assert "boot_se_cascade_delta" in est_lines[1]


def test_balance_command(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    run(["simulate", "--config", config_path, "--seed", 3, "--reps", 10, "--out", out])
    assert run(["balance", "--data", out / "dataset.csv",
                "--covariates", out / "covariates.csv", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "joint F(" in stdout
    for line in (out / "balance.csv").read_text().splitlines()[2:]:
        [float(v) for v in line.split(",")[1:] if v]


def _last_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


def test_balance_single_cluster_exits_numerical(tmp_path, capsys):
    d = bernoulli_iv_data(32, n=300, k=2)
    one = Dataset(y=d.y, a=d.a, z=d.z, x=d.x, cluster=np.zeros(d.n_obs, dtype=int))
    write_dataset_csv(tmp_path / "d.csv", one, "test", 0)
    write_covariates_csv(tmp_path / "c.csv", {"attr": np.linspace(0.0, 1.0, d.n_obs)})
    for argv in (["estimate"], ["balance", "--covariates", tmp_path / "c.csv"]):
        code = run([*argv, "--data", tmp_path / "d.csv", "--out", tmp_path / "out"])
        assert code == 4
        assert _last_error(capsys)["code"] == "TooFewClusters"


def test_balance_ragged_covariates_exits_data_error(tmp_path, capsys):
    d = bernoulli_iv_data(34, n=40, k=2)
    write_dataset_csv(tmp_path / "d.csv", d, "test", 0)
    write_covariates_csv(tmp_path / "c.csv", {"attr": np.linspace(0.0, 1.0, d.n_obs)})
    lines = (tmp_path / "c.csv").read_text().splitlines(keepends=True)
    lines[5] = "0.5,0.25\n"  # file line 6: two fields under a one-column header
    (tmp_path / "c.csv").write_text("".join(lines))
    code = run(["balance", "--data", tmp_path / "d.csv", "--covariates",
                tmp_path / "c.csv", "--out", tmp_path / "out"])
    assert code == 3
    err = _last_error(capsys)
    assert err["code"] == "SchemaError"
    assert err["message"].startswith("line 6: ")


def test_estimate_singular_first_stage_exits_numerical(tmp_path, capsys):
    d = bernoulli_iv_data(33, n=600, k=2)
    a = d.a.copy()
    a[:, 1] = a[:, 0]  # two treatments, one first-stage column: Pi' singular
    write_dataset_csv(tmp_path / "d.csv", Dataset(y=d.y, a=a, z=d.z, x=d.x,
                                                  cluster=d.cluster), "test", 0)
    code = run(["estimate", "--data", tmp_path / "d.csv", "--out", tmp_path / "out"])
    assert code == 4
    assert _last_error(capsys)["code"] == "SingularFirstStage"


def test_fixtures_command(capsys):
    assert run(["fixtures"]) == 0
    assert "[ok]" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--out", "/tmp/x"])  # missing required flags
    assert exc.value.code == 2


def test_data_error_exit_code(tmp_path, capsys):
    code = run(["estimate", "--data", tmp_path / "missing.csv", "--out", tmp_path])
    assert code == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("y,a_1,z_1,x_1\n1.0,0,0.5,1.0\n")
    code = run(["estimate", "--data", bad, "--out", tmp_path])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["code"] == "SchemaError"


def test_a_csv_byte_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    d = bernoulli_iv_data(35, n=40, k=2)
    groups = np.array(["a", "b"] * 20, dtype=object)
    groups[3] = "café"
    path = tmp_path / "d.csv"
    write_dataset_csv(path, Dataset(y=d.y, a=d.a, z=d.z, x=d.x, cluster=d.cluster,
                                    group_label=groups), "test", 0)
    path.write_bytes(path.read_bytes().replace("café".encode(), "café".encode("latin-1")))
    assert run(["estimate", "--data", path, "--out", tmp_path / "out"]) == 3
    err = _last_error(capsys)
    assert err["code"] == "ParseError"
    assert err["message"] == "line 6: not UTF-8 text"  # row 3, after provenance and header


def test_a_config_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(json.dumps(dict(CONFIG, label="café"), ensure_ascii=False).encode("latin-1"))
    assert run(["simulate", "--config", path, "--seed", 1, "--out", tmp_path / "out"]) == 3
    err = _last_error(capsys)
    assert err["code"] == "ParseError"
    assert err["message"] == f"{path}: the config is not UTF-8 text"


def _table(path):
    """The header and rows of a CLI CSV, split by the csv module."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
    return header, rows


def test_labels_and_names_are_quoted_in_every_table(tmp_path, capsys):
    # group labels, a covariate name and a block name that need CSV quoting
    d = bernoulli_iv_data(35, n=800, k=2, group_share=0.5)
    labels = np.where(d.group_label == "f", "f,x", 'say "m"')
    d = Dataset(y=d.y, a=d.a, z=d.z, x=d.x, cluster=d.cluster, group_label=labels)
    write_dataset_csv(tmp_path / "d.csv", d, "test", 0)
    write_covariates_csv(tmp_path / "c.csv", {"a,b": d.z[:, 0], "plain": d.x[:, 0]})
    data = ["--data", tmp_path / "d.csv"]
    assert run(["estimate", *data, "--group-col", "group",
                "--blocks", '{"A,1": [1], "B": [2]}', "--out", tmp_path / "est"]) == 0
    assert run(["bootstrap", *data, "--statistic", "conditional_entrant",
                "--bootstrap-reps", 5, "--seed", 1, "--out", tmp_path / "boot"]) == 0
    assert run(["balance", *data, "--covariates", tmp_path / "c.csv",
                "--out", tmp_path / "bal"]) == 0
    tables = {
        "groups": _table(tmp_path / "est" / "groups.csv"),
        "blocks": _table(tmp_path / "est" / "blocks.csv"),
        "bootstrap": _table(tmp_path / "boot" / "bootstrap.csv"),
        "balance": _table(tmp_path / "bal" / "balance.csv"),
    }
    for name, (header, rows) in tables.items():
        assert rows and all(len(row) == len(header) for row in rows), name
    levels = ["f,x", 'say "m"']
    assert [r[0] for r in tables["groups"][1]] == [lev for lev in levels for _ in (1, 2)]
    assert [r[0] for r in tables["blocks"][1]] == ["A,1", "B"]
    assert [r[0] for r in tables["bootstrap"][1]] == [
        *(f"T_{j}|{lev}" for lev in levels for j in (1, 2)),
        "dT_1", "dT_2",
    ]
    assert [r[0] for r in tables["balance"][1]] == ["a,b", "plain", "joint"]


def test_every_csv_goes_through_the_one_writer(tmp_path, config_path, capsys):
    # each call appends its path to a file, so the calls of simulate's
    # forked population writer are counted too
    log = tmp_path / "written.txt"
    write_csv = iomod.write_csv

    def recording(path, *args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{path}\n")
        return write_csv(path, *args)

    (tmp_path / "pi.csv").write_text("0.4,-0.05\n-0.04,0.3\n")
    (tmp_path / "rf.csv").write_text("0.2,0.15\n")
    sim, data = tmp_path / "sim", tmp_path / "sim" / "dataset.csv"
    commands = {
        "sim": ["simulate", "--config", config_path, "--seed", 3, "--reps", 6],
        "est": ["estimate", "--data", data, "--group-col", "group",
                "--blocks", '{"AB": [1, 2]}'],
        "casc": ["cascade", "--data", data],
        "cascpr": ["cascade", "--pi", tmp_path / "pi.csv", "--rf", tmp_path / "rf.csv"],
        "ver": ["verify", "--config", config_path, "--seed", 5, "--reps", 3],
        "balance": ["balance", "--data", data, "--covariates", sim / "covariates.csv"],
        **{f"boot_{stat}": ["bootstrap", "--data", data, "--statistic", stat,
                            "--bootstrap-reps", 5, "--seed", 2]
           for stat in ("beta", "wald", "cascade_delta", "conditional_entrant")},
    }
    with mock.patch.object(iomod, "write_csv", recording):
        for out, argv in commands.items():
            assert run([*argv, "--out", tmp_path / out]) == 0, out
        assert run(["fixtures"]) == 0
    csvs = sorted(str(p) for out in commands for p in (tmp_path / out).glob("*.csv"))
    assert len(csvs) == 17  # every table of every command
    assert sorted(log.read_text(encoding="utf-8").splitlines()) == csvs


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("blocked", ["population.csv", "dataset.csv"])
def test_simulate_reports_a_failed_writer_and_reaps_the_child(tmp_path, config_path, capsys,
                                                              blocked):
    # population.csv is written by a forked child, dataset.csv here; either
    # error is reported as the writer raised it, and the child is reaped
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    code = run(["simulate", "--config", config_path, "--seed", 3, "--reps", 2, "--out", out])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "code": "IsADirectoryError", "module": "builtins",
        "message": f"[Errno 21] Is a directory: '{out / blocked}'",
    }
    assert_no_child_is_left()


def test_simulate_reports_a_killed_writer(tmp_path, config_path, capsys):
    def killed(*args):
        os.kill(os.getpid(), signal.SIGKILL)

    with mock.patch.object(iomod, "write_population_csv", killed):
        code = run(["simulate", "--config", config_path, "--seed", 3, "--reps", 2,
                    "--out", tmp_path / "out"])
    assert code == 3
    err = _last_error(capsys)
    assert err["code"] == "ChildProcessError"
    assert "population.csv" in err["message"]
    assert_no_child_is_left()


def test_simulate_without_fork_writes_the_same_files(tmp_path, config_path, monkeypatch):
    with monkeypatch.context() as patched:
        patched.delattr(os, "fork")  # as on a platform without fork
        assert run(["simulate", "--config", config_path, "--seed", 3, "--reps", 2,
                    "--out", tmp_path / "inline"]) == 0
    assert run(["simulate", "--config", config_path, "--seed", 3, "--reps", 2,
                "--out", tmp_path / "forked"]) == 0
    for name in SIMULATE_FILES:
        assert (tmp_path / "inline" / name).read_bytes() == \
            (tmp_path / "forked" / name).read_bytes(), name
    assert_no_child_is_left()


def test_simulate_forks_nothing_when_the_clearing_raises(tmp_path, capsys):
    # every seat is free: no program is oversubscribed, so no pivotal group
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(CONFIG, capacities=[5000, 5000])))
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        code = run(["simulate", "--config", path, "--seed", 3, "--reps", 2,
                    "--out", tmp_path / "out"])
    assert code == 4
    assert _last_error(capsys)["code"] == "NoPivotalVariation"
    assert not fork.called
    assert not (tmp_path / "out").exists()
    assert_no_child_is_left()


def test_importing_the_cli_does_not_import_scipy_stats():
    # scipy.stats alone takes over a second to import, so a fresh process
    # that only imports the package and its CLI must not load it
    src = Path(cascadeiv.__file__).resolve().parents[1]
    code = "import sys, cascadeiv, cascadeiv.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
