"""In-memory spans around the package's public functions.

The tracer wraps functions from outside the package: it replaces each
target in its defining module and in every ``cascadeiv`` module that
imported the same object by name (``cli`` imports most of its callees
directly), so calls made inside the package are seen too. Each call
becomes a span (name, start, end, parent span, task id). Per-name totals,
self times (duration minus the direct child spans) and per-call
percentiles are derived from the spans when the run ends.

Counts that need a look at a result (rows, clusters, bytes written) are
taken in a ``trace.bookkeeping`` child span, so they are not charged to
any layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

# (module, attribute path, span name). A target that a later version of
# the package no longer has is skipped and reports zero calls.
TARGETS = (
    ("synth", "generate_population", "synth.generate_population"),
    ("synth", "scenario_three_program", "synth.scenario_three_program"),
    ("mechanism", "Population.__post_init__", "mechanism.Population"),
    ("mechanism", "run_clearing", "mechanism.run_clearing"),
    ("mechanism", "simulate_run", "mechanism.simulate_run"),
    ("mechanism", "slot_expansion_oracle", "mechanism.slot_expansion_oracle"),
    ("mechanism", "balance_check", "mechanism.balance_check"),
    ("data", "Dataset.__post_init__", "data.Dataset"),
    ("data", "Dataset.cluster_codes", "data.cluster_codes"),
    ("data", "Dataset.take", "data.take"),
    ("estimator", "estimate_all", "estimator.estimate_all"),
    ("estimator", "partial_out", "estimator.partial_out"),
    ("estimator", "cluster_robust_se", "estimator.cluster_robust_se"),
    ("estimator", "first_stage_f", "estimator.first_stage_f"),
    ("estimator", "fit_2sls", "estimator.fit_2sls"),
    ("estimator", "fit_first_stage", "estimator.fit_first_stage"),
    ("estimator", "fit_reduced_form", "estimator.fit_reduced_form"),
    ("estimator", "cluster_bootstrap", "estimator.cluster_bootstrap"),
    ("cascade", "cascade_solve", "cascade.cascade_solve"),
    ("cascade", "spectral_radius", "cascade.spectral_radius"),
    ("cascade", "group_outcome_decomposition", "cascade.group_outcome_decomposition"),
    ("cascade", "conditional_entrant_effect", "cascade.conditional_entrant_effect"),
    ("market", "market_oracle", "market.market_oracle"),
    ("market", "market_clearing_prices", "market.market_clearing_prices"),
    ("io", "write_dataset_csv", "io.write_dataset_csv"),
    ("io", "write_events_jsonl", "io.write_events_jsonl"),
    ("io", "write_population_csv", "io.write_population_csv"),
    ("io", "write_covariates_csv", "io.write_covariates_csv"),
    ("io", "build_scenario", "io.build_scenario"),
    ("io", "load_dataset_csv", "io.load_dataset_csv"),
    ("io", "load_covariates_csv", "io.load_covariates_csv"),
)


def _count_simulation(tracer, out, args, kwargs):
    tracer.count("mechanism.events", len(out.events))
    tracer.count("mechanism.pivotal_rows", out.dataset.n_obs)
    tracer.count("mechanism.clusters", out.dataset.n_clusters)


def _bytes_written(name):
    def hook(tracer, out, args, kwargs):
        tracer.count(f"{name}.bytes", os.path.getsize(args[0]))

    return hook


def _count_bootstrap(tracer, out, args, kwargs):
    tracer.count("estimator.cluster_bootstrap.reps", out.reps)
    tracer.count("estimator.cluster_bootstrap.ok", out.reps - out.n_failed)


POST_HOOKS = {
    "mechanism.simulate_run": _count_simulation,
    "io.write_dataset_csv": _bytes_written("io.write_dataset_csv"),
    "io.write_events_jsonl": _bytes_written("io.write_events_jsonl"),
    "estimator.cluster_bootstrap": _count_bootstrap,
}


def tail_index(n: int) -> int | None:
    """Index into n sorted samples of the highest percentile that has at
    least ten samples beyond it. None below 20 samples, where that
    percentile would not lie above the median."""
    return n - 11 if n >= 20 else None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, task]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self.task = -1
        self.active = False
        self.t0 = time.perf_counter()

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.task])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (output checks) are not recorded."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, name: str, value: float):
        self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                with tracer.span("trace.bookkeeping"):
                    hook(tracer, out, args, kwargs)
            return out

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target for the rest of the process; ``active`` decides
        whether calls are recorded."""
        modules = [
            m for n, m in sys.modules.items() if n == "cascadeiv" or n.startswith("cascadeiv.")
        ]
        for modname, path, name in TARGETS:
            module = sys.modules.get(f"cascadeiv.{modname}")
            if module is None:
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path, None) if owner_path else module
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original, POST_HOOKS.get(name))
            if owner_path:
                # a method: patching the class reaches every namespace
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    # -- results ----------------------------------------------------------

    def layer_stats(self) -> dict:
        """{span name: {calls, s, self_s, p50_ms, tail_ms, tail_pct}}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            durations.setdefault(name, []).append(end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        stats = {}
        for name, ds in durations.items():
            ds = sorted(ds)
            n = len(ds)
            ti = tail_index(n)
            stats[name] = {
                "calls": n,
                "s": sum(ds),
                "self_s": self_s[name],
                "p50_ms": 1000.0 * (ds[(n - 1) // 2] + ds[n // 2]) / 2.0,
                "tail_ms": 1000.0 * ds[ti] if ti is not None else 0.0,
                "tail_pct": 100.0 * (n - 10) / n if ti is not None else 0.0,
            }
        return stats

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - self.t0,
                            "end": end - self.t0,
                            "parent": parent,
                            "run": task,
                        }
                    )
                    + "\n"
                )
