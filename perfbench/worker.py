"""One workload process: cap memory, set up, run tasks, write a result file.

run.py starts this script once per set-up sample and once per measured or
traced run, each time as a fresh process. Modes:

- ``setup``: set up and exit (a set-up time sample);
- ``measure``: set up, then run passes of tasks untraced for ``--seconds``;
- ``traced``: the workload's fixed task list, each task untraced and traced;
- ``reference``: the first pass at the given seed, keeping output values.

Set-up time runs from ``--t-start`` (the parent's monotonic clock just
before it started this process) to the end of the warm-up, so it covers
interpreter start, imports (``scipy.stats`` included), writing the inputs
and one small task of the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

# Address-space cap of this process: a memory regression fails the run
# instead of exhausting a shared machine. Peak resident use is about 0.4 GB.
MEMORY_CAP_BYTES = 3 << 30

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def run_tasks(workload, mode, seconds, tracer, reference):
    from workloads import compare_reference

    def one(i, traced=False):
        tracer.task = i
        tracer.active = traced
        result = workload.run_task(i, tracer)
        tracer.active = False
        result.traced = traced
        if str(i) in reference:
            compare_reference(result, reference[str(i)])
        return result

    if mode == "reference":
        return [one(i) for i in range(workload.pass_len)]
    if mode == "traced":
        # each task untraced and traced back to back, in alternating order,
        # so that changes in machine speed fall on both sides alike
        orders = ((False, True), (True, False))
        return [one(i, on) for i in range(workload.trace_tasks) for on in orders[i % 2]]
    # whole passes only, and no pass that would overrun the window
    tasks, pass_times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for _ in range(workload.pass_len):
            tasks.append(one(len(tasks)))
        pass_times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(pass_times) > seconds:
            return tasks


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "traced", "reference"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--t-start", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    sys.path.insert(0, str(ROOT / "src"))
    import scipy.stats  # noqa: F401  (imported lazily by balance_check)

    import cascadeiv
    import cascadeiv.cli  # noqa: F401
    from tracing import Tracer
    from workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS

    warnings.simplefilter("ignore")
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir, cascadeiv)
    tracer = Tracer()  # inactive: records nothing
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        try:
            workload.warm_up(tracer)
        except Exception:  # pragma: no cover - the tasks report real failures
            pass
    out = {"setup_s": time.monotonic() - args.t_start, "env": environment()}

    if args.mode != "setup":
        reference = {}
        if args.seed == DEFAULT_SEED and args.mode != "reference":
            reference = json.loads(REFERENCE_PATH.read_text())[args.workload]
        if args.mode == "traced":
            tracer.install()
        tasks = run_tasks(workload, args.mode, args.seconds, tracer, reference)
        out["tasks"] = [t.to_json() for t in tasks]
        if args.mode == "traced":
            out["layers"] = tracer.layer_stats()
            out["counters"] = tracer.counters
            if args.spans:
                tracer.write_spans(args.spans)
        if args.mode == "reference":
            out["values"] = {str(i): t.values for i, t in enumerate(tasks)}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
