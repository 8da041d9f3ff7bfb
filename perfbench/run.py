"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload runs in fresh worker
processes (worker.py) that import the package from ``src/``. With
``--trace 0`` the end-to-end metrics are measured untraced: two set-up-only
workers plus the measuring worker give three set-up samples, and the
measuring worker runs whole passes of tasks for ``--seconds``. With
``--trace 1`` one worker runs the workload's fixed task list, each task
untraced and traced back to back; the per-layer metrics come from the
traced runs and the difference between the two is the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and the samples behind each figure. The exit code is 0 only
when every operation succeeded and every output check passed. Metric
names and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import tail_index

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEADLINE_S = 170.0  # all workers of a run end within this, so a run ends within 180 s
SETUP_PROBES = 2
# One BLAS thread: steadier timings on small shared machines, and the
# workloads' matrices are tall and thin, so threads gain little.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SPAN_STATS = ("calls", "s", "self_s", "p50_ms", "tail_ms")


def git_sha() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.crashes: list[str] = []
        self.n = 0

    def spawn(self, mode: str, spans: Path | None = None) -> dict | None:
        """Run one worker to completion; None (and a recorded crash) on failure."""
        self.n += 1
        result = self.workdir / f"{self.n}-{mode}.json"
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--mode", mode, "--seconds", str(self.args.seconds),
            "--workdir", str(self.workdir / f"{self.n}-{mode}"), "--result", str(result),
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        env = dict(os.environ, **WORKER_ENV)
        timeout = max(1.0, self.deadline - time.monotonic())
        t_start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--t-start", repr(t_start)], cwd=ROOT, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.crashes.append(f"{mode} worker killed after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not result.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self.crashes.append(f"{mode} worker exited {proc.returncode}: {tail[0][:300]}")
            return None
        return json.loads(result.read_text())


def ms_stats(values_ms: list[float]) -> str:
    v = sorted(values_ms)
    n = len(v)
    if not n:
        return "no samples"
    text = f"p50 {statistics.median(v):.1f} ms over {n}"
    ti = tail_index(n)
    if ti is None:
        return text + " (a tail needs at least 20 samples)"
    return text + f", p{100.0 * (n - 10) / n:.1f} {v[ti]:.1f} ms"


def untraced(runner: Runner, lines: list) -> tuple[dict, list]:
    setups = []
    for _ in range(SETUP_PROBES):
        probe = runner.spawn("setup")
        if probe is not None:
            setups.append(probe["setup_s"])
    res = runner.spawn("measure")
    if res is None:
        return {}, []
    setups.append(res["setup_s"])
    tasks = res["tasks"]
    ok = [t for t in tasks if t["failed"] == 0]
    lines.append(f"env: {json.dumps(res['env'], sort_keys=True)}")
    lines.append(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
    lines.append(f"task latency: {ms_stats([1000 * t['seconds'] for t in ok])}")
    commands = sorted({c for t in ok for c in t["commands"]})
    for cmd in commands if len(commands) > 1 else ():
        per = [1000 * t["commands"][cmd] for t in ok if cmd in t["commands"]]
        lines.append(f"  {cmd}: {ms_stats(per)}")
    metrics = {"peak_rss_mb": res["peak_rss_mb"]}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    if ok:
        metrics["task_p50_ms"] = statistics.median(1000 * t["seconds"] for t in ok)
    return metrics, tasks


def layer_value(name: str, layers: dict, counters: dict, derived: dict) -> float:
    """A span statistic, a derived figure or a counter; 0 for an unused layer."""
    if name in derived:
        return derived[name]
    span, _, stat = name.rpartition(".")
    if stat in SPAN_STATS:
        return layers.get(span, {}).get(stat, 0)
    return counters.get(name, 0)


def traced(runner: Runner, spec: dict, lines: list) -> tuple[dict, list]:
    spans = ROOT / ".perfbench" / f"spans-{runner.args.workload}-seed{runner.args.seed}.jsonl"
    res = runner.spawn("traced", spans=spans)
    if res is None:
        return {}, []
    layers, counters = res["layers"], res["counters"]
    untraced_s = sum(t["seconds"] for t in res["tasks"] if not t["traced"])
    traced_s = sum(t["seconds"] for t in res["tasks"] if t["traced"])
    reps = counters.get("estimator.cluster_bootstrap.reps", 0)
    boot_s = layers.get("estimator.cluster_bootstrap", {}).get("s", 0.0)
    derived = {
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s if untraced_s else 0.0,
        "estimator.cluster_bootstrap.rep_ms": 1000.0 * boot_s / reps if reps else 0.0,
        "estimator.cluster_bootstrap.ok_ratio": (
            counters.get("estimator.cluster_bootstrap.ok", 0) / reps if reps else 0.0
        ),
    }
    lines.append(f"env: {json.dumps(res['env'], sort_keys=True)}")
    lines.append(
        f"{len(res['tasks']) // 2} tasks, each run untraced and traced: {untraced_s:.3f} s "
        f"untraced, {traced_s:.3f} s traced; spans in {spans.relative_to(ROOT)}"
    )
    if reps:
        lines.append(f"bootstrap ok_ratio base: {reps} replications")
    clearing = layers.get("mechanism.run_clearing")
    if clearing and clearing["tail_pct"]:
        lines.append(
            f"mechanism.run_clearing: {clearing['calls']} calls, p50 "
            f"{clearing['p50_ms']:.2f} ms, p{clearing['tail_pct']:.1f} {clearing['tail_ms']:.2f} ms"
        )
    metrics = {
        m["name"]: layer_value(m["name"], layers, counters, derived) for m in spec["per_layer"]
    }
    return metrics, res["tasks"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cascadeiv benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "cascadeiv" / "__init__.py").is_file():
        print(f"no cascadeiv sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    runner = Runner(args, workdir)
    lines = [
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
        f"git {git_sha()}, nproc {os.cpu_count()}"
    ]
    try:
        if args.trace:
            metrics, tasks = traced(runner, spec, lines)
        else:
            metrics, tasks = untraced(runner, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    attempted = sum(t["attempted"] for t in tasks) + len(runner.crashes)
    failed = sum(t["failed"] for t in tasks) + len(runner.crashes)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for t in tasks:
        lines += [f"FAILED {f}" for f in t["failures"]]
    lines += [f"FAILED {c}" for c in runner.crashes]
    lines += [f"FAILED no value for {name}" for name in missing]
    correct = failed == 0 and not missing and attempted > 0
    out = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
        },
    }
    print("\n".join(lines))
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
