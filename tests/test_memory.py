"""Each CLI command holds its rows once, and ``verify`` holds none.

Every command runs in a fresh interpreter at ``--reps 5`` and ``--reps 20``
on an n=50k, K=5 population, and reports its peak resident set
(VmHWM). From 5 to 20 replications the peak may grow by at most
``BOUND`` times the growth of the arrays the command must hold: the
Dataset's arrays, and for ``simulate`` and ``balance`` the covariates
matrix too. Interpreter, imports and population cancel in the difference.
The two sizes run side by side, so the test takes about 15-20 s on two
cores. ``verify`` fits each replication's compact pivotal-group records
and never stacks the rows, so from 10 to 40 replications its peak may
grow by at most ``VERIFY_MARGIN_MB``; so may the library's, for
``simulate_and_oracles`` and ``estimate_all`` of the records it returns.
``estimate``, ``bootstrap`` and ``balance`` fit the records in
``simulate``'s companion and never stack them either: from 10 to 40
replications each peak may grow by at most ``BOUND`` times the growth of
``RECORD_ROW_BYTES`` a row.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from cascadeiv.io import load_covariates_csv, load_dataset_csv, load_dataset_records

BOUND = 1.75  # fixed; a command that needs more holds its rows more than once
# fixed before the test first ran: the records of 30 more replications take
# about 11 MB, their stacked rows about 125 MB
VERIFY_MARGIN_MB = 25
# fixed before the test first ran: a command that fits the records holds
# them, 18 B a row (luck and outcome as float64, assignment and group code
# as uint8), and while it builds the labelled moment object four intp
# arrays of the rows' codes (each row's level, its cell key, the keys'
# stable sort order and the sorted keys), 32 B a row
RECORD_ROW_BYTES = 18 + 4 * 8
SRC = Path(__file__).resolve().parents[1] / "src"
# The peak is VmHWM, the high-water mark of the process's own memory since
# it started the interpreter. ru_maxrss survives exec, so it would report the
# test process's resident set whenever that is the larger: the whole suite's
# pytest process outgrows every command here, so both sizes read its size.
# simulate writes population.csv in a forked child, whose peak counts its
# share of the parent's pages at the fork; the children's ru_maxrss starts
# at 0 in a fresh process, so the larger of the two is the command's peak.
PEAK = (
    "import resource\n"
    "with open('/proc/self/status') as status:\n"
    "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
    "child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
    "print('child_kib', child, file=sys.stderr)\n"
    "print('peak_kib', max(int(peak), child), file=sys.stderr)\n"
)
RUN = "import sys\nfrom cascadeiv.cli import main\nrc = main(sys.argv[1:])\n" + PEAK + "sys.exit(rc)\n"
# the library path of the README's quick start on CONFIG's population,
# with verify's seeds: argv is the config path and the replications
LIBRARY_RUN = (
    "import sys\n"
    "from cascadeiv import MechanismConfig, estimate_all, simulate_and_oracles\n"
    "from cascadeiv.io import build_scenario, load_run_config\n"
    "pop, caps, _ = build_scenario(load_run_config(sys.argv[1]), 3)\n"
    "mech = MechanismConfig(capacities=caps, lottery_seed=3)\n"
    "run, _ = simulate_and_oracles(pop, mech, int(sys.argv[2]), 3,\n"
    "                              range(1, pop.n_programs + 1), 1)\n"
    "estimate_all(run)\n"
    "assert 'dataset' not in vars(run)\n"
) + PEAK
CONFIG = {
    "synth": dict(n=50_000, k=5, seed=5, taste_scale=1.2, het_scale=0.5, het_merit_mix=0.5,
                  effects=[0.2, -0.1, 0.05, 0.15, 0.0], base_scale=0.5, label_share=0.5),
    "capacities": [2000] * 5,
    "label": "group",
}


def commands(config: Path, out: Path, reps: int) -> dict:
    data, cov = str(out / "sim" / "dataset.csv"), str(out / "sim" / "covariates.csv")
    return {
        "simulate": ["simulate", "--config", str(config), "--seed", "3", "--reps", str(reps),
                     "--out", str(out / "sim")],
        "estimate": ["estimate", "--data", data, "--group-col", "group", "--out", str(out / "est")],
        "bootstrap": ["bootstrap", "--data", data, "--statistic", "cascade_delta",
                      "--bootstrap-reps", "5", "--seed", "4", "--out", str(out / "boot")],
        "balance": ["balance", "--data", data, "--covariates", cov, "--out", str(out / "bal")],
        "verify": ["verify", "--config", str(config), "--seed", "3", "--reps", str(reps),
                   "--oracle-reps", "1", "--out", str(out / "ver")],
    }


def held_bytes(out: Path) -> tuple[int, int]:
    """Bytes of the Dataset's arrays, and of the covariates matrix."""
    data = load_dataset_csv(out / "sim" / "dataset.csv")
    arrays = (data.y, data.a, data.z, data.x, data.cluster, data.group_label)
    covariates, _ = load_covariates_csv(out / "sim" / "covariates.csv")
    return sum(arr.nbytes for arr in arrays), covariates.nbytes


def peak_bytes(argvs: dict, script: str = RUN) -> dict:
    """Each size's peak resident set running ``script`` (by default, the
    command line) with its arguments in ``argvs``: both sizes at once, one
    fresh process each."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    procs = {reps: subprocess.Popen([sys.executable, "-c", script, *argv], env=env,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
             for reps, argv in argvs.items()}
    peaks = {}
    for reps, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        peaks[reps] = int(err.split("peak_kib")[-1]) * 1024
    return peaks


def test_command_peak_memory_grows_with_the_rows_it_must_hold(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    runs = {reps: commands(config, tmp_path / f"reps{reps}", reps) for reps in (5, 20)}
    peaks: dict = {5: {}, 20: {}}
    for name in runs[5]:
        for reps, peak in peak_bytes({reps: argv[name] for reps, argv in runs.items()}).items():
            peaks[reps][name] = peak
    (data5, cov5), (data20, cov20) = held_bytes(tmp_path / "reps5"), held_bytes(tmp_path / "reps20")
    ratios = {}
    for name in runs[5]:
        held = data20 - data5 + (cov20 - cov5 if name in ("simulate", "balance") else 0)
        ratios[name] = (peaks[20][name] - peaks[5][name]) / held
    print({name: round(r, 2) for name, r in ratios.items()})
    assert all(np.isfinite(r) for r in ratios.values())
    assert max(ratios.values()) <= BOUND, ratios


def test_verify_peak_memory_is_flat_in_reps(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    runs = {reps: commands(config, tmp_path / f"reps{reps}", reps) for reps in (10, 40)}
    peaks = peak_bytes({reps: argv["verify"] for reps, argv in runs.items()})
    growth_mb = (peaks[40] - peaks[10]) / 2**20
    print(f"verify peak growth from 10 to 40 replications: {growth_mb:.1f} MB")
    assert growth_mb <= VERIFY_MARGIN_MB


def test_library_fit_of_a_simulation_is_flat_in_reps(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    peaks = peak_bytes({reps: [str(config), str(reps)] for reps in (10, 40)}, LIBRARY_RUN)
    growth_mb = (peaks[40] - peaks[10]) / 2**20
    print(f"library peak growth from 10 to 40 replications: {growth_mb:.1f} MB")
    assert growth_mb <= VERIFY_MARGIN_MB


def test_commands_that_fit_records_are_flat_in_reps(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    runs = {reps: commands(config, tmp_path / f"reps{reps}", reps) for reps in (10, 40)}
    peak_bytes({reps: argv["simulate"] for reps, argv in runs.items()})
    rows = {reps: load_dataset_records(tmp_path / f"reps{reps}" / "sim" / "dataset.csv").n_obs
            for reps in runs}
    held = RECORD_ROW_BYTES * (rows[40] - rows[10])
    growth = {}
    for name in ("estimate", "bootstrap", "balance"):
        peaks = peak_bytes({reps: argv[name] for reps, argv in runs.items()})
        growth[name] = peaks[40] - peaks[10]
    print({name: f"{g / 2**20:.1f} MB" for name, g in growth.items()},
          f"bound {BOUND * held / 2**20:.1f} MB")
    assert max(growth.values()) <= BOUND * held, growth
