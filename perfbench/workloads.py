"""The benchmark's workloads, their inputs and their output checks.

Every input is derived from the benchmark seed: population seeds, lottery
master seeds, bootstrap seeds and market draws. The program sees only the
generated configs (CLI workloads) or generated objects (library workload).

A task is the unit whose wall time is reported: one ``verify`` command,
one simulate -> estimate -> bootstrap -> balance pipeline, or one small
market. An operation, the unit behind ``attempted``/``failed``, is one CLI
command or one market. Task ``i`` always gets the same inputs for a given
seed, so a traced run of a fixed number of tasks repeats its counts exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 7
REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_RTOL = 1e-6  # estimates may move in the last digits, not more
IDENTITY_RTOL = 1e-10  # acceptance criteria 1 and 7

# The criterion-3 "K=5" population of the acceptance tests (n=50k, five
# programs, 2000 seats each); the population seed comes from the bench seed.
K5_SYNTH = dict(
    n=50_000,
    k=5,
    taste_scale=1.2,
    het_scale=0.5,
    het_merit_mix=0.5,
    effects=[0.2, -0.1, 0.05, 0.15, 0.0],
    base_scale=0.5,
)
K5_CAPACITIES = [2000] * 5


def derive(seed: int, *indices: int) -> int:
    """A 32-bit seed for one input stream of the benchmark seed."""
    entropy = [seed % (1 << 63), *indices]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass
class TaskResult:
    seconds: float = 0.0
    commands: dict = field(default_factory=dict)  # command -> wall seconds
    attempted: int = 0
    failures: list = field(default_factory=list)  # (operation, reason)
    values: dict = field(default_factory=dict)  # compared with reference.json
    traced: bool = False

    def fail(self, op: str, reason: str):
        self.failures.append((op, reason))

    def check(self, ok: bool, op: str, reason: str):
        if not ok:
            self.fail(op, reason)

    @property
    def failed(self) -> int:
        return len({op for op, _ in self.failures})

    def to_json(self) -> dict:
        return {
            "seconds": self.seconds,
            "commands": self.commands,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": [f"{op}: {reason}" for op, reason in self.failures],
            "traced": self.traced,
        }


def compare_reference(result: TaskResult, expected: dict):
    """Compare a task's values with the ones recorded at the default seed."""
    for key in sorted(set(expected) | set(result.values)):
        op = key.split(".", 1)[0]
        if key not in result.values or key not in expected:
            result.fail(op, f"reference value {key} missing on one side")
            continue
        got, want = result.values[key], expected[key]
        if isinstance(want, int):
            ok = got == want
        else:
            ok = math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)
        result.check(ok, op, f"{key} = {got!r}, reference {want!r}")


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class CliWorkload:
    """Runs ``cascadeiv.cli.main(argv)`` in process, one task directory each."""

    pass_len = 1

    def __init__(self, seed: int, workdir: Path, package):
        self.seed = seed
        self.workdir = workdir
        self.cli = package.cli

    def _config(self, path: Path, synth: dict, capacities: list, **extra):
        path.write_text(json.dumps({"synth": synth, "capacities": capacities, **extra}))

    def call(self, tracer, result: TaskResult, argv: list) -> tuple[bool, str]:
        """Run one command; returns (exit code was 0, captured stdout)."""
        cmd = argv[0]
        out, err = io.StringIO(), io.StringIO()
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span(f"cli.{cmd}"), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an error the CLI does not map to an exit code
            result.fail(cmd, f"{type(exc).__name__}: {exc}")
            return False, ""
        dt = time.perf_counter() - t0
        result.commands[cmd] = dt
        result.seconds += dt
        if rc != 0:
            result.fail(cmd, f"exit code {rc}: {err.getvalue().strip()[:300]}")
        return rc == 0, out.getvalue()

    def run_task(self, i: int, tracer) -> TaskResult:
        result = TaskResult()
        task_dir = self.workdir / f"task-{i}"
        task_dir.mkdir(parents=True, exist_ok=True)
        try:
            self.pipeline(i, task_dir, tracer, result)
        except Exception as exc:  # checking a command's outputs crashed
            op = next(iter(reversed(result.commands)), self.commands[0])
            result.fail(op, f"output check: {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(task_dir, ignore_errors=True)
        # commands a failed step kept from running count as failed too
        for cmd in self.commands[result.attempted:]:
            result.attempted += 1
            result.fail(cmd, "not run: an earlier command failed")
        return result


class VerifyK5(CliWorkload):
    """``verify`` on the K=5 population: 11 clearings per replication."""

    name = "verify_k5"
    commands = ("verify",)
    reps = 4
    trace_tasks = 3

    def warm_up(self, tracer):
        cfg = self.workdir / "warm.json"
        synth = dict(K5_SYNTH, n=3000, seed=derive(self.seed, 1, 1 << 20))
        self._config(cfg, synth, [150] * 5)
        self.cli.main(["verify", "--config", str(cfg), "--seed", "1", "--reps", "2",
                       "--out", str(self.workdir / "warm")])

    def pipeline(self, i, task_dir, tracer, result):
        cfg = task_dir / "config.json"
        self._config(cfg, dict(K5_SYNTH, seed=derive(self.seed, 1, i, 0)), K5_CAPACITIES)
        ok, _ = self.call(tracer, result, [
            "verify", "--config", str(cfg), "--seed", str(derive(self.seed, 1, i, 1)),
            "--reps", str(self.reps), "--out", str(task_dir),
        ])
        if not ok:
            return
        rows = _read_csv(task_dir / "verify.csv")
        result.check([r["program"] for r in rows] == ["1", "2", "3", "4", "5"],
                     "verify", "verify.csv must list programs 1..5")
        for r in rows:
            k = r["program"]
            if not r["z"]:
                result.fail("verify", f"program {k} undersubscribed")
                continue
            vals = [float(r[c]) for c in ("oracle", "oracle_se", "beta", "beta_se")]
            result.check(_finite(*vals) and vals[1] > 0 and vals[3] > 0,
                         "verify", f"program {k}: non-finite or zero-SE row {vals}")
            for c, v in zip(("oracle", "oracle_se", "beta", "beta_se"), vals):
                result.values[f"verify.{c}_{k}"] = v


class AnalysisK5(CliWorkload):
    """The file-based analyst path on the K=5 population with a group label."""

    name = "analysis_k5"
    commands = ("simulate", "estimate", "bootstrap", "balance")
    # 35 clusters: a resample drops every cluster of some program, and the
    # statistic fails, in about 0.2% of bootstrap replications
    reps = 7
    bootstrap_reps = 20
    trace_tasks = 1

    def warm_up(self, tracer):
        synth = dict(K5_SYNTH, n=3000, label_share=0.5, seed=derive(self.seed, 2, 1 << 20))
        self._run(self.workdir / "warm", synth, [150] * 5, 1, 2, TaskResult(), tracer)

    def pipeline(self, i, task_dir, tracer, result):
        synth = dict(K5_SYNTH, label_share=0.5, seed=derive(self.seed, 2, i, 0))
        self._run(task_dir, synth, K5_CAPACITIES, derive(self.seed, 2, i, 1),
                  derive(self.seed, 2, i, 2), result, tracer)

    def _run(self, d, synth, capacities, sim_seed, boot_seed, result, tracer):
        d.mkdir(parents=True, exist_ok=True)
        cfg = d / "config.json"
        self._config(cfg, synth, capacities, label="group")
        sim, est, boot, bal = (d / s for s in ("sim", "est", "boot", "bal"))
        ok, out = self.call(tracer, result, [
            "simulate", "--config", str(cfg), "--seed", str(sim_seed),
            "--reps", str(self.reps), "--out", str(sim),
        ])
        if not ok:
            return
        m = re.search(r"wrote (\d+) rows \((\d+) clusters\)", out)
        if m is None:
            result.fail("simulate", "no row/cluster count in its output")
            return
        rows, clusters = int(m.group(1)), int(m.group(2))
        result.values["simulate.rows"] = rows
        result.values["simulate.clusters"] = clusters
        data = str(sim / "dataset.csv")

        ok, out = self.call(tracer, result, [
            "estimate", "--data", data, "--group-col", "group", "--out", str(est),
        ])
        if not ok:
            return
        result.check(f"n_obs={rows}  n_clusters={clusters}" in out, "estimate",
                     f"reloaded counts differ from simulate's {rows} rows, {clusters} clusters")
        beta = self._check_estimates(est, result)
        self._check_groups(est, beta, result)

        ok, out = self.call(tracer, result, [
            "bootstrap", "--data", data, "--statistic", "cascade_delta",
            "--bootstrap-reps", str(self.bootstrap_reps), "--seed", str(boot_seed),
            "--out", str(boot),
        ])
        if not ok:
            return
        m = re.search(r"(\d+)/(\d+) replications", out)
        result.check(m is not None and int(m.group(1)) >= 0.9 * int(m.group(2)),
                     "bootstrap", "more than 10% of bootstrap replications failed")
        for r in _read_csv(boot / "bootstrap.csv"):
            se = float(r["se"])
            result.check(_finite(se) and se > 0, "bootstrap", f"{r['component']} se {se}")
            result.values[f"bootstrap.se_{r['component']}"] = se

        ok, _ = self.call(tracer, result, [
            "balance", "--data", data, "--covariates", str(sim / "covariates.csv"),
            "--out", str(bal),
        ])
        if not ok:
            return
        joint = [r for r in _read_csv(bal / "balance.csv") if r["covariate"] == "joint"]
        f_stat, p = float(joint[0]["coef"]), float(joint[0]["t"])
        result.check(_finite(f_stat) and f_stat >= 0 and 0 <= p <= 1, "balance",
                     f"joint F {f_stat}, p {p}")
        result.values["balance.joint_f"] = f_stat
        result.values["balance.p_value"] = p

    def _check_estimates(self, est, result):
        rows = _read_csv(est / "estimates.csv")
        beta = {}
        for r in rows:
            k = r["treatment"]
            b, t, se = float(r["beta"]), float(r["cascade_T"]), float(r["se_beta"])
            beta[k] = b
            result.check(abs(t - b) <= IDENTITY_RTOL * max(abs(b), 1e-30), "estimate",
                         f"cascade_T_{k} = {t!r} but beta_{k} = {b!r}")
            result.check(_finite(se) and se > 0, "estimate", f"se_beta_{k} = {se}")
            result.values[f"estimate.beta_{k}"] = b
            result.values[f"estimate.se_beta_{k}"] = se
        result.check(len(beta) == 5, "estimate", "estimates.csv must have 5 treatments")
        return beta

    def _check_groups(self, est, beta, result):
        total: dict = {}
        for r in _read_csv(est / "groups.csv"):
            total[r["treatment"]] = total.get(r["treatment"], 0.0) + float(
                r["beta_group_outcome"]
            )
        for k, b in beta.items():
            gap = abs(total.get(k, math.inf) - b)
            result.check(gap <= IDENTITY_RTOL * max(abs(b), 1.0), "estimate",
                         f"group outcome parts of beta_{k} miss it by {gap:.3e}")


class SmallMarkets:
    """Many independent small markets through the library API."""

    name = "small_markets"
    commands = ("market",)
    reps = 10
    # one pass covers every size once, so each pass has the same size mix
    pass_len = 12
    trace_tasks = 48

    def __init__(self, seed: int, workdir: Path, package):
        self.seed = seed
        self.civ = package

    def shape(self, i: int) -> tuple[int, int]:
        j = i % self.pass_len
        return 1500 + 500 * (j // 2), 2 + j % 2

    def warm_up(self, tracer):
        self.run_market(600, 2, 1 << 20)

    def run_market(self, n, k, i):
        """The timed part of one market; returns what the checks need."""
        civ, seed = self.civ, self.seed
        pop = civ.generate_population(civ.SynthConfig(
            n=n, k=k, seed=derive(seed, 3, i, 0), n_merit_brackets=2,
            taste_scale=1.0, het_scale=0.5, effects=tuple(np.linspace(0.2, -0.1, k)),
            base_scale=0.5, label_share=0.5,
        ))
        mech = civ.MechanismConfig(capacities=(n // (3 * k),) * k, lottery_seed=0)
        lottery = derive(seed, 3, i, 1)
        run = civ.simulate_run(pop, mech, reps=self.reps, master_seed=lottery)
        est = civ.estimate_all(run.dataset)
        oracles = [
            civ.slot_expansion_oracle(pop, mech, prog, reps=self.reps, master_seed=lottery)
            for prog in range(1, k + 1)
        ]
        names = ("attr", "group", "first_choice")
        cov = np.column_stack([run.covariates[c] for c in names])
        balance = civ.balance_check(run.dataset, cov, names)

        rng = np.random.default_rng(derive(seed, 3, i, 2))
        p02 = float(rng.uniform(0.2, 0.8))
        effects = (1.0, 0.3, 0.4)
        scenario = civ.scenario_three_program(civ.SynthConfig(
            n=n, k=2, seed=derive(seed, 3, i, 3), het_scale=0.3, base_scale=0.5,
            complier_targets=(p02, 1.0 - p02), scenario_effects=effects,
        ))

        consumers = 200
        market = civ.MarketConfig(
            intercepts=rng.uniform(2, 6, (consumers, 2)) + 10,
            slope=np.array([[-1.0, 0.35], [0.35, -0.8]]),
            supply=np.array([0.4, 0.5]) * consumers,
            outcome_coefs=rng.uniform(0.1, 1.2, (consumers, 2)),
        )
        market_gaps = []
        for good in (1, 2):
            res = civ.market_oracle(market, good, step=1.0, seed=derive(seed, 3, i, 4))
            market_gaps.append((res.value, civ.fit_2sls(res.dataset)[good - 1]))
        return pop, mech, lottery, run, est, oracles, balance, scenario, market_gaps

    def run_task(self, i: int, tracer) -> TaskResult:
        result = TaskResult(attempted=1)
        n, k = self.shape(i)
        t0 = time.perf_counter()
        try:
            out = self.run_market(n, k, i)
        except Exception as exc:
            result.fail("market", f"{type(exc).__name__}: {exc}")
            return result
        result.seconds = time.perf_counter() - t0
        result.commands["market"] = result.seconds
        with tracer.paused():
            self._check(result, *out)
        return result

    def _check(self, result, pop, mech, lottery, run, est, oracles, balance,
               scenario, market_gaps):
        fail = result.check
        b, t = est.beta, est.cascade_T
        fail(bool(np.all(np.abs(t - b) <= IDENTITY_RTOL * np.maximum(np.abs(b), 1e-30))),
             "market", f"cascade_T {t} differs from beta {b}")
        for good, (value, beta) in enumerate(market_gaps, start=1):
            fail(abs(value - beta) <= 1e-6, "market",
                 f"market oracle {value!r} vs 2SLS {beta!r} for good {good}")
        clearing = self.civ.run_clearing(pop, self.civ.MechanismConfig(
            capacities=mech.capacities, lottery_seed=lottery))
        fail(bool(np.all(clearing.admitted.sum(axis=0) <= np.asarray(mech.capacities)))
             and bool(np.all(clearing.admitted.sum(axis=1) <= 1)),
             "market", "a program admitted beyond capacity")
        for prog, orc in enumerate(oracles, start=1):
            fail(not orc.undersubscribed and _finite(orc.value), "market",
                 f"program {prog}: oracle undersubscribed or non-finite")
        fail(0.0 <= balance.p_value <= 1.0, "market", f"balance p {balance.p_value}")
        (s02, s12), (e20, e21, e10) = scenario.shares, scenario.effects
        closed = (s02 * e20 + s12 * (e21 + e10)) / (s02 + s12)
        fail(abs(scenario.predicted_beta2 - closed) <= 1e-12, "market",
             f"three-program beta2 {scenario.predicted_beta2!r}, closed form {closed!r}")
        v = result.values
        v["market.rows"] = int(run.dataset.n_obs)
        v["market.clusters"] = int(run.dataset.n_clusters)
        for j in range(b.size):
            v[f"market.beta_{j + 1}"] = float(b[j])
            v[f"market.se_beta_{j + 1}"] = float(est.se_beta[j])
            v[f"market.oracle_{j + 1}"] = oracles[j].value
        v["market.balance_p"] = float(balance.p_value)
        v["market.market_value_1"] = float(market_gaps[0][0])
        v["market.market_value_2"] = float(market_gaps[1][0])


WORKLOADS = {w.name: w for w in (VerifyK5, AnalysisK5, SmallMarkets)}
