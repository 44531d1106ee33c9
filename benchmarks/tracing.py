"""Span recorder and the wrappers that time each uavbsc layer from outside.

The package itself has no timing hooks, so the traced run replaces public
functions at the names where their callers look them up (for example
``uavbsc.encoding.rate_downlink``, which ``LinkProblem`` calls, rather than
``uavbsc.model.rate_downlink``).  Each call becomes one span: name, start,
end, the span open around it, and the run it belongs to.  Spans are kept
in flat arrays in memory and written out once the benchmark is done.

Pool workers forked while tracing is installed inherit the wrappers; an
at-fork hook switches them to pass-through there, because spans inside
workers are out of scope (their busy time comes from the artifacts'
``wall_clock_s``).
"""

from __future__ import annotations

import gzip
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from uavbsc import cli, config, encoding, ga, harness, model, pso

MODEL_FUNCTIONS = ("doppler_factor", "bessel_j0", "rate_uplink",
                   "rate_downlink", "harvested_energy_slot", "flying_power")
GA_OPS = ("select", "crossover", "mutate")
PSO_OPS = ("update_velocity", "update_position", "masked_gaussian_offsets")


def _count_batch(counts, args, result):
    counts["genomes"] += len(result.fitness)
    counts["feasible"] += int(np.count_nonzero(result.feasible))


def _solver_of(args, kwargs):
    return kwargs.get("solver", args[1] if len(args) > 1 else "")


# (span name, owner, attribute, counter hook, run label or None).  A run
# label opens a new run id: every span under it belongs to that run.
TARGETS = [
    ("config.load", config.ScenarioConfig, "load", None, None),
    ("config.build_problem", config.ScenarioConfig, "build_problem", None, None),
    ("config.with_value", config.ScenarioConfig, "with_value", None, None),
    ("encoding.evaluate_batch", encoding.LinkProblem, "evaluate_batch",
     _count_batch, None),
    ("encoding.evaluate", encoding.LinkProblem, "evaluate", None, None),
    ("encoding.adjust", encoding.LinkProblem, "adjust", None, None),
    *[(f"model.{name}", model if name == "bessel_j0" else encoding, name,
       None, None) for name in MODEL_FUNCTIONS],
    *[(f"ga.{name}", ga, name, None, None) for name in GA_OPS],
    *[(f"pso.{name}", pso, name, None, None) for name in PSO_OPS],
    ("harness.run_single", harness, "run_single", None, _solver_of),
    ("harness.random_search", harness, "random_search", None, None),
    ("harness.run_campaign", harness, "run_campaign", None, None),
    ("harness.run_sweep", cli, "run_sweep", None, None),
    ("harness.write_csv", cli, "write_csv", None, None),
    ("cli.main", cli, "main", None, lambda args, kwargs: "cli"),
]


class Tracer:
    """In-memory span store plus the install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.run_labels = [""]          # run id -> label; run 0 is "outside"
        self.counts: Counter = Counter()
        self.active = False
        self._stack = [-1]
        self._run = 0
        self._installed: list = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.active = False

    def wrap(self, span_name: str, fn, count=None, run_label=None):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            outer_run = self._run
            if run_label is not None:
                self._run = len(self.run_labels)
                self.run_labels.append(run_label(args, kwargs))
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.run.append(self._run)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
                self._run = outer_run
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        for span_name, owner, attr, count, label in TARGETS:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(
                    self.wrap(span_name, original.__func__, count, label))
            else:
                replacement = self.wrap(span_name, original, count, label)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------

    def table(self) -> dict:
        """Spans as numpy columns, with each span's self time."""
        name = np.asarray(self.name, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.float64) - np.asarray(
            self.start, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        labels = np.array(self.run_labels, dtype=object)
        return {
            "name": name,
            "dur": dur,
            "self": dur - child[: len(dur)],
            "label": labels[np.asarray(self.run, dtype=np.int64)],
        }

    def write(self, path) -> None:
        """Dump every span as gzipped CSV: name,start,end,parent,run,label."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,run,label\n")
            for i in range(len(self.start)):
                run = self.run[i]
                fh.write(f"{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{run},"
                         f"{self.run_labels[run]}\n")


def _percentile(values, q: float = 50.0) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, traced: list, untraced: list,
                  workers: int) -> dict:
    """Per-layer metrics of the traced passes, per pass unless stated.

    ``traced`` and ``untraced`` are the workload outcomes of each phase;
    their run artifacts supply what spans cannot see: solver time inside
    pool workers (``wall_clock_s``) and generation counts.
    """
    t = tracer.table()
    passes = len(traced)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name, solvers=None):
        m = t["name"] == ids[name]
        if solvers is not None:
            m &= np.isin(t["label"], solvers)
        return m

    def busy(name, solvers=None):
        return float(np.sum(t["dur"][mask(name, solvers)])) / passes

    def self_s(name):
        return float(np.sum(t["self"][mask(name)])) / passes

    def calls(name):
        return int(np.count_nonzero(mask(name))) / passes

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    out = {}
    out["config.load_s"] = _percentile(t["dur"][mask("config.load")])
    out["config.build_problem_s"] = _percentile(
        t["dur"][mask("config.build_problem")])
    out["config.with_value.calls"] = calls("config.with_value")
    out["config.with_value.busy_s"] = busy("config.with_value")

    batch = "encoding.evaluate_batch"
    batch_us = t["dur"][mask(batch)] * 1e6
    genomes = tracer.counts["genomes"]
    out[f"{batch}.calls"] = calls(batch)
    out[f"{batch}.genomes"] = genomes / passes
    out[f"{batch}.busy_s"] = busy(batch)
    out[f"{batch}.self_s"] = self_s(batch)
    out[f"{batch}.us_per_genome"] = ratio(float(np.sum(batch_us)), genomes)
    out[f"{batch}.call_us_p50"] = _percentile(batch_us, 50)
    out[f"{batch}.call_us_p99"] = _percentile(batch_us, 99)
    out[f"{batch}.batch_mean"] = ratio(genomes, batch_us.size)
    for name in ("encoding.evaluate", "encoding.adjust"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
    out["encoding.feasible_share"] = ratio(tracer.counts["feasible"], genomes)

    for name in MODEL_FUNCTIONS:
        out[f"model.{name}.calls"] = calls(f"model.{name}")
        out[f"model.{name}.busy_s"] = busy(f"model.{name}")

    run_walls = [rw for o in traced for rw in o.run_walls]
    for layer, ops, solvers in (("ga", GA_OPS, ["ga"]),
                                ("pso", PSO_OPS, ["ipso", "pso"])):
        for name in ops:
            out[f"{layer}.{name}.calls"] = calls(f"{layer}.{name}")
            out[f"{layer}.{name}.busy_s"] = busy(f"{layer}.{name}")
        out[f"{layer}.op_to_eval"] = ratio(
            sum(busy(f"{layer}.{name}") for name in ops),
            busy(batch, solvers))
    out["ga.generations"] = sum(len(r["report"]["trace"])
                                for r in traced[0].runs if r["solver"] == "ga")

    for solver in harness.SOLVER_NAMES:
        out[f"harness.run_single.{solver}.busy_s"] = _percentile(
            wall for name, wall in run_walls if name == solver)
    out["harness.random_search.busy_s"] = busy("harness.random_search")
    campaign_s = busy("harness.run_campaign")
    out["harness.run_campaign.busy_s"] = campaign_s
    out["harness.run_sweep.busy_s"] = busy("harness.run_sweep")
    out["harness.write_csv.busy_s"] = busy("harness.write_csv")
    out["harness.budget_use"] = ratio(sum(o.evaluations for o in traced),
                                      sum(o.budget_total for o in traced))
    run_s = sum(wall for _, wall in run_walls) / passes
    out["harness.pool_busy_frac"] = ratio(run_s, workers * campaign_s)
    out["harness.pool_overhead_s"] = workers * campaign_s - run_s \
        if campaign_s > 0 else 0.0

    out["cli.main.busy_s"] = busy("cli.main")
    out["cli.self_s"] = self_s("cli.main")

    traced_s = _percentile(o.wall_s for o in traced if np.isfinite(o.wall_s))
    untraced_s = _percentile(
        o.wall_s for o in untraced if np.isfinite(o.wall_s))
    out["trace.overhead_frac"] = ratio(traced_s, untraced_s) - 1.0 \
        if traced_s > 0 else 0.0
    out["trace.spans"] = len(tracer.start) / passes
    return out
