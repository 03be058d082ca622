"""Span tracing for the benchmark's traced run.

Spans are recorded around the calls the benchmark makes into the library and
around the callables it hands to the library (models, policies, filter
methods). Library functions that other library modules call by name
(``ValueGrid.values_at``, ``solve``, ``propagate_frs``, ``solve_qp``, ...)
are wrapped by rebinding the module attribute for the duration of the run and
restoring it afterwards; no library file is changed.

Each span holds its name, start and end (``perf_counter_ns``), the index of
its parent span and a context id naming the episode or CLI command it belongs
to. Spans stay in memory and are written out once, at the end of the run.
A span's self time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
from collections import Counter

import numpy as np

EPISODE_SPANS = ("harness.run_episode", "bench.episode")


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent index or -1, context id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.ctx: tuple = ()
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped in a span; ``on_result(args, result)`` runs after it."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.ctx]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                tracer.counts[(name, "raised", type(e).__name__)] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def context(self, *ctx):
        outer = self.ctx
        self.ctx = outer + ctx
        try:
            yield
        finally:
            self.ctx = outer

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps(["id", "name", "start_ns", "end_ns", "parent", "ctx"]) + "\n")
            for i, (name, start, end, parent, ctx) in enumerate(self.spans):
                f.write(json.dumps([i, name, start, end, parent, "/".join(ctx)]) + "\n")


@contextlib.contextmanager
def patched(targets):
    """Rebind ``(owner, attribute, replacement)`` triples; restore them on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


class Instrument:
    """Traced counterpart of ``scenarios.Plain``: wraps what goes into the library."""

    def __init__(self, sf, tracer: Tracer):
        self.sf = sf
        self.tr = tracer
        self.solve = None  # the traced ``solve`` while active

    # --- callables handed to the library ------------------------------------

    def model(self, model):
        return dataclasses.replace(
            model,
            step=self.tr.wrap("dynamics.step", model.step),
            interval_step=self.tr.wrap("intervals.interval_step", model.interval_step),
        )

    def task(self, fn):
        return self.tr.wrap("harness.task_policy", fn)

    def disturbance(self, fn):
        return self.tr.wrap("harness.disturbance_policy", fn)

    def fallback(self, fb):
        # optimal fallbacks arrive already wrapped by the patched policy factory
        if getattr(getattr(fb, "policy", fb), "__wrapped__", None) is not None:
            return fb
        if isinstance(fb, self.sf.FallbackPolicy):
            return dataclasses.replace(fb, policy=self.tr.wrap("filters.fallback", fb.policy))
        return self.tr.wrap("filters.fallback", fb)

    def filter(self, flt):
        """Wrap the filter's monitor, intervention and fallback entry points.

        ``decide`` reaches the monitor through the shared ``Monitor`` object, so
        its ``evaluate`` is rebound in place; class-based filters also call
        their own monitor/fallback helpers directly, which are rebound on the
        instance. Switch filters built from closures already received wrapped
        fallbacks through the patched factories.
        """
        wrap = self.tr.wrap
        monitor = flt.monitor
        object.__setattr__(monitor, "evaluate", wrap("filters.monitor", monitor.evaluate))
        if isinstance(flt, self.sf.ExplorationFilter):
            flt._monitor_value = wrap("filters.monitor", flt._monitor_value)
            flt.observe = wrap("exploration.observe", flt.observe)
        for helper in ("_fallback", "_braking"):
            if hasattr(flt, helper):
                w = wrap("filters.fallback", getattr(flt, helper))
                setattr(flt, helper, w)
                flt.fallback = w
        flt.intervene = wrap("filters.intervene", flt.intervene)
        return flt

    # --- library functions called by name inside the library ---------------

    def _count_solve(self, args, out):
        self.tr.counts["reachability.iterations"] += out[1].iterations

    def _count_points(self, args, out):
        self.tr.counts["reachability.values_at_points"] += len(out)

    def _count_decision(self, args, out):
        family = self.tr.ctx[1] if len(self.tr.ctx) > 1 else "?"
        c = self.tr.counts
        c[("overridden", family)] += int(out.overridden)
        c[("degraded", family)] += int(out.degraded)

    def _count_csv(self, args, out):
        self.tr.counts["harness.csv_bytes"] += os.path.getsize(args[1])

    def _run_episode(self, fn):
        inner = self.tr.wrap("harness.run_episode", fn)
        tr = self.tr

        def run_episode(model, flt, task, dist, x0, steps, seed, *rest, **kwargs):
            with tr.context(f"ep{seed}"):
                return inner(model, flt, task, dist, x0, steps, seed, *rest, **kwargs)

        return run_episode

    def _wrapping_factory(self, factory, wrap_result):
        def build(*args, **kwargs):
            return wrap_result(factory(*args, **kwargs))

        return build

    def _build_filter(self, fn):
        def build_filter(*args, **kwargs):
            bundle = fn(*args, **kwargs)
            self.filter(bundle.filter)
            return bundle

        return self.tr.wrap("config.build_filter", build_filter)

    @contextlib.contextmanager
    def active(self):
        """Patch the library for the duration of the traced run."""
        import safefilter.cli as cli
        import safefilter.config as config
        import safefilter.filters as filters
        import safefilter.harness as harness
        import safefilter.reachability as reachability
        import safefilter.shielding as shielding
        import safefilter.tube_mpc as tube_mpc

        tr, fw = self.tr, self._wrapping_factory
        solve = self.solve = tr.wrap("reachability.solve", reachability.solve, self._count_solve)
        policy_factory = fw(reachability.optimal_safety_policy, self.fallback)
        targets = [
            (reachability.ValueGrid, "values_at",
             tr.wrap("reachability.values_at", reachability.ValueGrid.values_at,
                     self._count_points)),
            (shielding, "grid_box_min",
             tr.wrap("reachability.grid_box_min", reachability.grid_box_min)),
            (shielding, "propagate_frs", tr.wrap("shielding.propagate_frs", shielding.propagate_frs)),
            (tube_mpc, "solve_qp", tr.wrap("qp.solve_qp", tube_mpc.solve_qp)),
            (harness, "decide", tr.wrap("filters.decide", filters.decide, self._count_decision)),
            (harness, "run_episode", self._run_episode(harness.run_episode)),
            (harness, "compute_metrics", tr.wrap("harness.compute_metrics", harness.compute_metrics)),
            (filters, "optimal_safety_policy", policy_factory),
            (shielding, "optimal_safety_policy", policy_factory),
            (config, "solve", solve),
            (config, "braking_fallback", fw(config.braking_fallback, self.fallback)),
            (cli, "solve", solve),
            (cli, "load_config", tr.wrap("config.load_config", cli.load_config)),
            (cli, "build_model", fw(cli.build_model, self.model)),
            (cli, "build_filter", self._build_filter(cli.build_filter)),
            (cli, "build_task_policy", fw(cli.build_task_policy, self.task)),
            (cli, "build_disturbance_policy", fw(cli.build_disturbance_policy, self.disturbance)),
            (cli, "write_decisions_csv",
             tr.wrap("harness.write_decisions_csv", cli.write_decisions_csv, self._count_csv)),
        ]
        with patched(targets):
            yield


# --- per-layer metrics --------------------------------------------------------


def _span_tables(spans):
    """Per-span duration, self time and ancestry flags (one forward pass; a
    parent span is always recorded before its children)."""
    n = len(spans)
    dur = np.empty(n)
    child = np.zeros(n)
    in_episode = np.zeros(n, dtype=bool)
    in_decide = np.zeros(n, dtype=bool)
    for i, (name, start, end, parent, _ctx) in enumerate(spans):
        d = (end - start) * 1e-9
        dur[i] = d
        if parent >= 0:
            child[parent] += d
            in_episode[i] = in_episode[parent] or spans[parent][0] in EPISODE_SPANS
            in_decide[i] = in_decide[parent] or spans[parent][0] == "filters.decide"
    return dur, dur - child, in_episode, in_decide


def layer_metrics(tracer: Tracer, families) -> dict:
    """Aggregate spans and counters into the benchmark's per-layer metrics."""
    spans = tracer.spans
    dur, self_t, in_episode, in_decide = _span_tables(spans)
    names = np.array([s[0] for s in spans]) if spans else np.array([], dtype=str)
    fam = np.array([s[4][1] if len(s[4]) > 1 else "" for s in spans]) if spans else names
    c = tracer.counts

    def total(name, mask=None):
        sel = names == name if mask is None else (names == name) & mask
        return float(dur[sel].sum())

    def own(name, mask=None):
        sel = names == name if mask is None else (names == name) & mask
        return float(self_t[sel].sum())

    def calls(name, mask=None):
        sel = names == name if mask is None else (names == name) & mask
        return int(sel.sum())

    def ratio(num, den):
        return float(num) / den if den else 0.0

    decisions = calls("filters.decide")
    overridden = sum(v for k, v in c.items() if isinstance(k, tuple) and k[0] == "overridden")
    degraded = sum(v for k, v in c.items() if isinstance(k, tuple) and k[0] == "degraded")
    qp_calls = calls("qp.solve_qp")
    qp_infeasible = c[("qp.solve_qp", "raised", "InfeasibleQP")]
    tube_decisions = calls("filters.decide", fam == "tube")

    m = {
        "reachability.solve_calls": (calls("reachability.solve"), "count"),
        "reachability.solve_s": (total("reachability.solve"), "s"),
        "reachability.iterations": (c["reachability.iterations"], "count"),
        "reachability.values_at_calls": (calls("reachability.values_at"), "count"),
        "reachability.values_at_points": (c["reachability.values_at_points"], "count"),
        "reachability.values_at_s": (total("reachability.values_at"), "s"),
        "reachability.grid_box_min_calls": (calls("reachability.grid_box_min"), "count"),
        "reachability.grid_box_min_s": (total("reachability.grid_box_min"), "s"),
        "filters.decisions": (decisions, "count"),
        "filters.monitor_calls_per_decision": (
            ratio(calls("filters.monitor", in_decide), decisions), "calls/decision"),
        "filters.monitor_s": (total("filters.monitor"), "s"),
        "filters.intervene_self_s": (own("filters.intervene"), "s"),
        "filters.fallback_calls": (calls("filters.fallback"), "count"),
        "filters.fallback_s": (total("filters.fallback"), "s"),
        "filters.decide_self_s": (own("filters.decide"), "s"),
        "filters.override_rate": (ratio(overridden, decisions), "ratio"),
        "filters.degraded_rate": (ratio(degraded, decisions), "ratio"),
        "shielding.propagate_frs_calls": (calls("shielding.propagate_frs"), "count"),
        "shielding.propagate_frs_s": (total("shielding.propagate_frs"), "s"),
        "intervals.interval_step_calls": (calls("intervals.interval_step"), "count"),
        "intervals.interval_step_s": (total("intervals.interval_step"), "s"),
        "qp.solve_qp_calls": (qp_calls, "count"),
        "qp.solve_qp_s": (total("qp.solve_qp"), "s"),
        "qp.infeasible_rate": (ratio(qp_infeasible, qp_calls), "ratio"),
        "tube_mpc.qp_per_decision": (
            ratio(calls("qp.solve_qp", in_decide & (fam == "tube")), tube_decisions),
            "calls/decision"),
        "cbf.intervene_s": (total("filters.intervene", fam == "cbf"), "s"),
        "dynamics.step_calls": (
            ratio(calls("dynamics.step", in_episode), decisions), "calls/decision"),
        "dynamics.step_s": (total("dynamics.step", in_episode), "s"),
        "harness.run_episode_self_s": (own("harness.run_episode"), "s"),
        "harness.compute_metrics_s": (total("harness.compute_metrics"), "s"),
        "harness.task_policy_s": (total("harness.task_policy"), "s"),
        "harness.disturbance_policy_s": (total("harness.disturbance_policy"), "s"),
        "harness.write_decisions_csv_s": (total("harness.write_decisions_csv"), "s"),
        "harness.csv_bytes": (c["harness.csv_bytes"], "bytes"),
        "config.load_config_s": (total("config.load_config"), "s"),
        "config.build_filter_s": (total("config.build_filter"), "s"),
        "exploration.observe_s": (total("exploration.observe"), "s"),
        "exploration.monitor_s": (total("filters.monitor", fam == "exploration"), "s"),
    }
    for f in families:
        d = calls("filters.decide", fam == f)
        m[f"filters.{f}.decisions"] = (d, "count")
        m[f"filters.{f}.monitor_calls_per_decision"] = (
            ratio(calls("filters.monitor", in_decide & (fam == f)), d), "calls/decision")
        m[f"filters.{f}.override_rate"] = (ratio(c[("overridden", f)], d), "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m
