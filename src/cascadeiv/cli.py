"""Command-line front end.

Exit codes: 0 success, 2 usage, 3 data error, 4 numerical error. Failures
print a machine-readable JSON payload to stderr. All stochastic commands
require --seed and rerunning with the same seed produces byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import sys
from pathlib import Path

import numpy as np

from . import __version__, io as iomod
from .cascade import (
    BlockSpec,
    VacancyMatrix,
    block_weights,
    cascade_solve,
    conditional_entrant_by_group,
    group_outcome_decomposition,
    neumann_solve,
)
from .errors import CascadeIVError, DataError, FixtureMismatch, NumericalError
from .estimator import (
    FirstStage,
    cluster_bootstrap,
    estimate_all,
    fit_first_stage,
    fit_reduced_form,
    wald_ratios,
)
from .fixtures import fixture_checks
from .mechanism import MechanismConfig, balance_check, simulate_and_oracles, simulate_run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_f = iomod.fmt_float
FLOAT, TEXT = iomod.float_cells, iomod.text_cells


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = iomod.load_run_config(args.config)
    pop, capacities, _ = iomod.build_scenario(cfg, args.seed)
    mech = MechanismConfig(capacities=capacities, lottery_seed=args.seed)
    label = args.group_col if args.group_col else cfg.get("label")
    run = simulate_run(
        pop, mech, reps=args.reps, master_seed=args.seed, label=label, log_events=args.events
    )
    out = _out_dir(args)
    # population.csv does not depend on the draws: a child writes it while
    # this process writes the tables of the records
    with _forked(iomod.write_population_csv, out / "population.csv", pop, "simulate", args.seed):
        iomod.write_simulation_csvs(out, run, "simulate", args.seed)
        if args.events:
            iomod.write_events_jsonl(out / "events.jsonl", run.events)
        else:  # a log of an earlier run would not belong to this dataset
            (out / "events.jsonl").unlink(missing_ok=True)
    print(f"wrote {run.n_obs} rows ({run.n_clusters} clusters) to {out / 'dataset.csv'}")
    return EXIT_OK


@contextlib.contextmanager
def _forked(write, *args):
    """Runs ``write(*args)`` in a forked child while the body runs here.

    On leaving, this process waits for the child. An error of the body is
    raised as it is; else an error of the child is raised here with its
    type and message, and a child that ends with no error sent (killed by
    a signal) is a ChildProcessError. Where ``os.fork`` is missing,
    ``write`` runs after the body, in this process.
    """
    if not hasattr(os, "fork"):
        yield
        write(*args)
        return
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into its caller
        status = 0
        try:
            os.close(read_end)
            write(*args)
        except BaseException as exc:  # noqa: BLE001 - every error goes to the parent
            status = 1
            with os.fdopen(write_end, "wb") as fh:
                fh.write(pickle.dumps(exc))
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        yield
    finally:
        with os.fdopen(read_end, "rb") as fh:
            error = fh.read()
        _, status = os.waitpid(pid, 0)
    if error:
        raise pickle.loads(error)
    if status:
        raise ChildProcessError(f"the writer of {args[0]} ended with wait status {status}")


def cmd_estimate(args) -> int:
    data = iomod.load_dataset_csv(args.data)
    if args.group_col and data.group_label is None:
        raise DataError(f"--group-col {args.group_col}: {args.data} has no "
                        f"{args.group_col!r} column")
    est = estimate_all(data)
    out = _out_dir(args)
    iomod.write_estimates_csv(out / "estimates.csv", est, "estimate", None)
    table = iomod.format_estimates_table(est)
    (out / "estimates.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    if args.blocks:
        spec = _parse_blocks(args.blocks, data.n_treatments)
        weighted = block_weights(est.first_stage, spec)
        # one row per block member; the block's implied coefficient repeats
        members = [(name, m) for name, ms in weighted.blocks.items() for m in ms]
        implied = {name: weighted.weights[name] @ est.beta[list(ms)]
                   for name, ms in weighted.blocks.items()}
        iomod.write_table(
            out / "blocks.csv", "estimate", None,
            ["block", "program", "weight", "implied_coefficient"],
            [([name for name, _ in members], TEXT), ([m + 1 for _, m in members], TEXT),
             (np.concatenate([weighted.weights[n] for n in weighted.blocks]), FLOAT),
             ([implied[name] for name, _ in members], FLOAT)],
        )
    if data.group_label is not None:
        parts = group_outcome_decomposition(data)
        entrant = conditional_entrant_by_group(data, beta_full=est.beta)
        k = data.n_treatments
        iomod.write_table(
            out / "groups.csv", "estimate", None,
            ["group", "treatment", "beta_group_outcome", "conditional_entrant"],
            [([lev for lev in parts for _ in range(k)], TEXT),
             (list(range(1, k + 1)) * len(parts), TEXT),
             (np.concatenate(list(parts.values())), FLOAT),
             (np.concatenate([entrant[lev] for lev in parts]), FLOAT)],
        )
    return EXIT_OK


def cmd_cascade(args) -> int:
    if args.data:
        data = iomod.load_dataset_csv(args.data)
        fs, rf = fit_first_stage(data), fit_reduced_form(data)
    elif args.pi and args.rf:
        fs = FirstStage(iomod.load_matrix_csv(args.pi))
        rf = iomod.load_matrix_csv(args.rf).ravel()
    else:
        print("cascade needs either --data or both --pi and --rf", file=sys.stderr)
        return EXIT_USAGE
    vm = VacancyMatrix.from_first_stage(fs)
    sol = neumann_solve(vm, wald_ratios(rf, fs), tol=args.tol, max_rounds=args.max_rounds)
    direct = cascade_solve(fs, rf)
    out = _out_dir(args)
    iomod.write_trace_csv(out / "cascade_trace.csv", sol.rounds, "cascade", None)
    gap = float(np.max(np.abs(sol.T - direct.T)))
    print(
        f"rounds={len(sol.rounds)} rho(|M|)={sol.rho_estimate:.6f} "
        f"max|neumann - direct|={gap:.3e}"
    )
    for j in range(fs.k):
        print(f"T_{j + 1} = {_f(sol.T[j])}  (delta {_f(sol.delta[j])})")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = iomod.load_run_config(args.config)
    pop, capacities, scenario = iomod.build_scenario(cfg, args.seed)
    mech = MechanismConfig(capacities=capacities, lottery_seed=args.seed)
    oracle_reps = args.reps if args.oracle_reps is None else args.oracle_reps
    programs = range(1, pop.n_programs + 1)
    run, oracles = simulate_and_oracles(pop, mech, args.reps, args.seed, programs, oracle_reps)
    est = estimate_all(run)  # fits the pivotal records: the rows are never stacked
    out = _out_dir(args)
    lines, zs = [], []
    worst = 0.0
    for k, orc in enumerate(oracles, start=1):
        if orc.undersubscribed:
            lines.append(f"program {k}: undersubscribed, oracle 0 (skipped)")
            zs.append("")
            continue
        comb = float(np.hypot(est.se_beta[k - 1], orc.mc_se))
        z = abs(orc.value - est.beta[k - 1]) / comb if comb > 0 else float("inf")
        worst = max(worst, z)
        zs.append(_f(z))
        lines.append(
            f"program {k}: oracle {orc.value:+.5f} (se {orc.mc_se:.5f})  "
            f"2sls {est.beta[k - 1]:+.5f} (se {est.se_beta[k - 1]:.5f})  "
            f"|diff|/se = {z:.2f}"
        )
    # an undersubscribed program's oracle and its se are 0, its z blank
    iomod.write_table(
        out / "verify.csv", "verify", args.seed,
        ["program", "oracle", "oracle_se", "beta", "beta_se", "z"],
        [(range(1, len(oracles) + 1), TEXT), ([o.value for o in oracles], FLOAT),
         ([o.mc_se for o in oracles], FLOAT), (est.beta, FLOAT), (est.se_beta, FLOAT),
         (zs, TEXT)],
    )
    if scenario is not None:
        lines.append(f"scenario predicted beta2 = {_f(scenario.predicted_beta2)}")
    lines.append(f"worst agreement: {worst:.2f} combined standard errors")
    print("\n".join(lines))
    return EXIT_OK


def cmd_bootstrap(args) -> int:
    data = iomod.load_dataset_csv(args.data)
    res = cluster_bootstrap(data, args.statistic, reps=args.bootstrap_reps, seed=args.seed)
    out = _out_dir(args)
    if args.statistic in ("beta", "wald", "cascade_delta"):
        est = estimate_all(data)
        iomod.write_estimates_csv(
            out / "estimates.csv", est, "bootstrap", args.seed,
            bootstrap={args.statistic: res},
        )
    iomod.write_table(
        out / "bootstrap.csv", "bootstrap", args.seed,
        ["component", "se", "ci_lower", "ci_upper"],
        [(res.components, TEXT), (res.se, FLOAT), (res.ci_lower, FLOAT),
         (res.ci_upper, FLOAT)],
    )
    print(
        f"{args.statistic}: {res.reps - res.n_failed}/{res.reps} replications, "
        f"se = {np.array2string(res.se, precision=5)}"
    )
    return EXIT_OK


def cmd_balance(args) -> int:
    data = iomod.load_dataset_csv(args.data)
    cov, names = iomod.load_covariates_csv(args.covariates)
    res = balance_check(data, cov, names)
    out = _out_dir(args)
    # the joint test's row: F under coef, p under t, no standard error
    iomod.write_table(
        out / "balance.csv", "balance", None,
        ["covariate", "coef", "se", "t"],
        [([*res.names, "joint"], TEXT), ([*res.coef, res.joint_f], FLOAT),
         ([*map(_f, res.se), ""], TEXT), ([*res.tstat, res.p_value], FLOAT)],
    )
    for name, c, s, t in zip(res.names, res.coef, res.se, res.tstat):
        print(f"{name}: coef {c:+.6f} (se {s:.6f}, t {t:+.2f})")
    print(
        f"joint F({res.df}, {res.n_clusters - 1}) = {res.joint_f:.3f}, "
        f"p = {res.p_value:.4f}"
    )
    return EXIT_OK


def cmd_fixtures(_args) -> int:
    report = fixture_checks()
    print("\n".join(report.lines()))
    return EXIT_OK


def _parse_blocks(spec: str, k: int) -> BlockSpec:
    inline = spec.lstrip()[:1] in ("{", "[")  # else a file, whatever its length
    try:
        raw = json.loads(spec if inline else Path(spec).read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise DataError(f"--blocks is not valid JSON: {exc}") from None
    except UnicodeDecodeError:
        raise DataError(f"--blocks {spec}: the file is not UTF-8 text") from None
    if not isinstance(raw, dict):
        raise DataError("--blocks must be a JSON object {name: [program ids]}")
    for name, members in raw.items():
        # bool is an int subclass, and 1.5 must not pass as program 1
        if not isinstance(members, list) or any(type(m) is not int for m in members):
            raise DataError(f"block {name!r} must be a list of integer program ids")
    blocks = {name: tuple(m - 1 for m in members) for name, members in raw.items()}
    return BlockSpec(blocks=blocks, k=k)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadeiv",
        description="Multi-treatment IV and slot-expansion effects for "
        "capacity-constrained allocation systems",
    )
    parser.add_argument("--version", action="version", version=f"cascadeiv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a lottery dataset from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--out", required=True)
    p.add_argument("--group-col", default=None)
    p.add_argument("--events", action="store_true",
                   help="also log the clearings' sweeps to events.jsonl")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="fit estimates on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--blocks", default=None, help="inline JSON block spec, or a JSON file")
    p.add_argument("--group-col", default=None, choices=["group"],
                   help="require the group column (groups.csv needs no flag)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("cascade", help="round-by-round solve with a trace CSV")
    p.add_argument("--data", default=None)
    p.add_argument("--pi", default=None, help="first-stage matrix CSV")
    p.add_argument("--rf", default=None, help="reduced-form vector CSV")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-rounds", type=int, default=10_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("verify", help="oracle vs 2SLS agreement, side by side")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--oracle-reps", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bootstrap", help="cluster bootstrap SE/CI columns")
    p.add_argument("--data", required=True)
    p.add_argument("--statistic", default="beta",
                   choices=["beta", "wald", "cascade_delta", "conditional_entrant"])
    p.add_argument("--bootstrap-reps", type=int, default=1000)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("balance", help="predetermined-covariate balance checks")
    p.add_argument("--data", required=True)
    p.add_argument("--covariates", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("fixtures", help="verify the embedded reference tables")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, FixtureMismatch) as exc:
        _emit_error(exc)
        return EXIT_NUMERICAL
    except CascadeIVError as exc:
        _emit_error(exc)
        return EXIT_DATA
    except OSError as exc:
        _emit_error(exc)
        return EXIT_DATA


def _emit_error(exc: Exception):
    payload = {
        "error": {
            "code": type(exc).__name__,
            "module": type(exc).__module__,
            "message": str(exc),
        }
    }
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
