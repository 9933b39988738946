"""In-memory spans around calls into binapprox's layers.

A traced pass replaces, for its own process only, the public functions named
in ``TRACED_CALLS`` by timing wrappers.  The wrappers are bound wherever the
original function object is referenced from a module's globals, so calls made
between layers (``bounds.independent_sum_bound`` calling
``lattice.convolve_all``) are timed as nested spans.  Nothing in ``src/`` is
edited.  Spans are kept in memory and written out when the pass ends.

``PER_LAYER`` defines each per-layer metric, its unit, how it is computed
from the spans and counters, and which end-to-end metric it should move on
which workload.  Every metric is printed on every workload; a layer that a
workload never calls reads 0 there.  The figures of a whole pass that can
read 0 on some workload (``mc_points_per_s``, ``fail_frac``) are listed here
too, because an end-to-end metric must never read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from contextlib import contextmanager

PACKAGE = "binapprox"
MODULES = ("lattice", "binomial", "bounds", "oracle", "rscan", "matern",
           "engine")
# Modules whose globals are rebound too: the CLI imports some calls by name.
CALLERS = MODULES + ("cli",)

# Public calls timed in a traced pass, by layer.  The calls a pass makes
# itself are all here, plus the nested calls that per-layer metrics need.
TRACED_CALLS = {
    "lattice": ("convolve_all", "tv_distance", "loc_distance"),
    "binomial": ("centered_binomial", "stein_solution", "stein_residual"),
    "bounds": ("independent_sum_bound", "local_dependence_bound",
               "decomposition_bound", "spec_from_json"),
    "oracle": ("two_runs_pmf", "two_runs_dependence_spec",
               "two_runs_decomposable_spec", "exact_sum_pmf",
               "exact_distance_report"),
    "rscan": ("exceedance_prob", "variance_formula", "error_bound",
              "simulate_counts"),
    "matern": ("mean_total", "variance_total", "error_bound",
               "simulate_counts"),
    "engine": ("run_experiment", "filter_floor", "fit_rate"),
}

SWEEPS = ("sweep-rscan", "sweep-matern")
EXACT = ("exact-certify",)


def _time(*spans):
    return ("time", spans)


def _rate(counter, time_metric):
    return ("rate", counter, time_metric)


# name -> (unit, definition, (end-to-end metrics it should move), workloads)
# A "time" metric is the inclusive duration of the named spans; a span nested
# inside another span of the same metric is not counted twice.
PER_LAYER = {
    "rscan.simulate_s": ("s", _time("rscan.simulate_counts"),
                         ("wall_s", "mc_points_per_s"), ("sweep-rscan",)),
    "rscan.vars_per_s": ("1/s", _rate("rscan.vars", "rscan.simulate_s"),
                         ("wall_s", "mc_points_per_s"), ("sweep-rscan",)),
    "rscan.moments_s": ("s", _time("rscan.exceedance_prob",
                                   "rscan.variance_formula"),
                        ("wall_s", "mc_points_per_s"), ("sweep-rscan",)),
    "rscan.bound_s": ("s", _time("rscan.error_bound"),
                      ("wall_s", "mc_points_per_s"), ("sweep-rscan",)),
    "rscan.vars": ("count", ("counter", "rscan.vars"),
                   ("wall_s", "mc_points_per_s"), ("sweep-rscan",)),
    "matern.simulate_1d_s": ("s", _time("matern.simulate_1d"),
                             ("wall_s", "peak_rss_mb"), ("sweep-matern",)),
    "matern.simulate_2d_s": ("s", _time("matern.simulate_2d"),
                             ("wall_s", "peak_rss_mb"), ("sweep-matern",)),
    "matern.points_per_s_1d": ("1/s", _rate("matern.points_1d",
                                            "matern.simulate_1d_s"),
                               ("wall_s", "peak_rss_mb"), ("sweep-matern",)),
    "matern.points_per_s_2d": ("1/s", _rate("matern.points_2d",
                                            "matern.simulate_2d_s"),
                               ("wall_s", "peak_rss_mb"), ("sweep-matern",)),
    "matern.moments_s": ("s", _time("matern.mean_total",
                                    "matern.variance_total"),
                         ("wall_s", "peak_rss_mb"), ("sweep-matern",)),
    "matern.bound_s": ("s", _time("matern.error_bound"),
                       ("wall_s", "peak_rss_mb"), ("sweep-matern",)),
    "engine.run_experiment_s": ("s", _time("engine.run_experiment"),
                                ("wall_s",), SWEEPS),
    "engine.fit_s": ("s", _time("engine.filter_floor", "engine.fit_rate"),
                     ("wall_s",), SWEEPS),
    "engine.fit_kept_frac": ("ratio", ("ratio", "engine.fit_kept",
                                       "engine.fit_points"),
                             ("wall_s",), SWEEPS),
    "engine.tv_over_floor_min": ("ratio", ("minimum", "engine.tv_over_floor"),
                                 ("wall_s",), SWEEPS),
    "oracle.two_runs_pmf_s": ("s", _time("oracle.two_runs_pmf"),
                              ("wall_s",), EXACT),
    "oracle.dependence_spec_s": ("s", _time("oracle.two_runs_dependence_spec"),
                                 ("wall_s",), EXACT),
    "oracle.decomposable_spec_s": ("s", _time("oracle.two_runs_decomposable_spec"),
                                   ("wall_s",), EXACT),
    "oracle.exact_sum_pmf_s": ("s", _time("oracle.exact_sum_pmf"),
                               ("wall_s",), EXACT),
    "oracle.exact_distance_s": ("s", _time("oracle.exact_distance_report"),
                                ("wall_s",), EXACT),
    "bounds.independent_sum_s": ("s", _time("bounds.independent_sum_bound"),
                                 ("wall_s",), EXACT),
    "bounds.local_dependence_s": ("s", _time("bounds.local_dependence_bound"),
                                  ("wall_s",), EXACT),
    "bounds.decomposition_s": ("s", _time("bounds.decomposition_bound"),
                               ("wall_s",), EXACT),
    "bounds.spec_json_s": ("s", _time("bounds.spec_from_json"),
                           ("wall_s",), EXACT),
    "binomial.stein_s": ("s", _time("binomial.stein_solution",
                                    "binomial.stein_residual"),
                         ("wall_s", "fail_frac"), EXACT),
    "binomial.stein_solves": ("count", ("calls", "binomial.stein_solution"),
                              ("wall_s", "fail_frac"), EXACT),
    "binomial.stein_failed": ("count", ("failed", "binomial.stein_solution"),
                              ("wall_s", "fail_frac"), EXACT),
    "binomial.centered_binomial_s": ("s", _time("binomial.centered_binomial"),
                                     ("wall_s", "fail_frac"), EXACT),
    "lattice.convolve_all_s": ("s", _time("lattice.convolve_all"),
                               ("wall_s",), EXACT),
    "lattice.distance_s": ("s", _time("lattice.tv_distance",
                                      "lattice.loc_distance"),
                           ("wall_s",), EXACT),
    "trace.overhead_s": ("s", ("run",), (), SWEEPS + EXACT),
    "mc_points_per_s": ("1/s", ("run",), ("wall_s",), SWEEPS),
    "fail_frac": ("ratio", ("run",), (), SWEEPS + EXACT),
}

# Measured in the prepare step, which builds the spec file that the bound
# operation reads; every other metric is a median over traced passes.
SETUP_METRICS = ("oracle.decomposable_spec_s",)


class Tracer:
    """Span and counter store for one traced process.

    Each span is (name, start, end, parent, op, failed): parent is the index
    of the enclosing span or -1, op the id of the benchmark operation that
    was running.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self.observed: dict[str, list[float]] = {}
        self.op = None
        self._stack: list[int] = []
        self._patched: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        failed = True
        t0 = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op, failed)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        self.observed.setdefault(name, []).append(value)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self) -> None:
        """Bind a timing wrapper in place of every call in TRACED_CALLS."""
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in CALLERS}
        wrapped = {}
        for layer, names in TRACED_CALLS.items():
            for fname in names:
                fn = getattr(mods[layer], fname)
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and value is wrapped[id(value)][0]:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)][1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op, failed in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op,
                                     "failed": failed}) + "\n")

    def _inclusive(self, names) -> float:
        total = 0.0
        for name, t0, t1, parent, _op, _f in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += t1 - t0
        return total

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric of the spans and counters; the "run"
        metrics need the other passes of the run and are left out.  A layer
        this pass never called reads 0."""
        out = {}
        for name, (_unit, rule, _moves, _wl) in PER_LAYER.items():
            kind = rule[0]
            if kind == "time":
                out[name] = self._inclusive(set(rule[1]))
            elif kind == "counter":
                out[name] = self.counters.get(rule[1], 0)
            elif kind == "calls":
                out[name] = sum(1 for s in self.spans if s[0] == rule[1])
            elif kind == "failed":
                out[name] = sum(1 for s in self.spans
                                if s[0] == rule[1] and s[5])
            elif kind == "minimum":
                vals = self.observed.get(rule[1], [])
                out[name] = min(vals) if vals else 0.0
        for name, (_unit, rule, _moves, _wl) in PER_LAYER.items():
            if rule[0] == "rate":
                t = out[rule[2]]
                out[name] = self.counters.get(rule[1], 0) / t if t > 0 else 0.0
            elif rule[0] == "ratio":
                den = self.counters.get(rule[2], 0)
                out[name] = self.counters.get(rule[1], 0) / den if den else 0.0
        return {k: (v if math.isfinite(v) else 0.0) for k, v in out.items()}
