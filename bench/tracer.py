"""Span tracer for the benchmark's traced run, applied from outside mdopt.

``install`` wraps the public entry points of each mdopt module.  A wrapped
call records a span -- name, parent span, start and end -- plus optional
counts, all kept in memory until the repetition ends.  Names that mdopt
imports by value (``from .objective import evaluate_batch``, scipy's
``softmax``/``logsumexp``/``brentq``) are wrapped where they are looked up,
because wrapping only the defining module misses those calls.

The objective's own vectorized ``fn`` is wrapped through the CLI's
``catalog_get``, so ``objective.points`` counts every point at which f is
evaluated, whichever path reached it.  A span-free form of that wrapper is
how the untraced run counts ``f_evals``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory spans ``[name, parent index, start, end]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open = [-1]

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        del self._open[1:]

    def wrap(self, name, fn, count=None):
        spans, counts, open_ = self.spans, self.counts, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, open_[-1], clock(), 0.0]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def totals(self) -> tuple[Counter, dict[str, float], dict[str, float]]:
        """Per span name: calls, self time and inclusive time (seconds).

        Self time is a span's duration minus the durations of its children.
        """
        dur = [s[3] - s[2] for s in self.spans]
        child = [0.0] * len(dur)
        for i, s in enumerate(self.spans):
            if s[1] >= 0:
                child[s[1]] += dur[i]
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            calls[s[0]] += 1
            self_s[s[0]] += dur[i] - child[i]
            incl_s[s[0]] += dur[i]
        return calls, self_s, incl_s


def _points(key):
    def count(counts, args, result):
        counts[key] += 1 if isinstance(result, float) else len(result)
    return count


def _count_fn_points(counts, args, result):
    counts["objective.points"] += len(args[0])


def _counted(counts, fn):
    """``fn`` counting its points and recording no span."""
    def counted(pts):
        counts["objective.points"] += len(pts)
        return fn(pts)
    return counted


def _count_grid_nodes(counts, args, result):
    counts["region.grid_nodes"] += result.nodes.shape[0]


def _count_stages(counts, args, result):
    counts["schedule.stages"] += len(result.trace)


def _count_found(counts, args, result):
    counts["sets.boundary_points.found"] += len(result)


# (module, attribute, span name, counter) for module-level functions.
FUNCTIONS = [
    ("mdopt.objective", "evaluate_batch", "objective.evaluate_batch", None),
    ("mdopt.objective", "gradient", "objective.gradient", None),
    ("mdopt.nmd", "softmax", "nmd.softmax", None),
    ("mdopt.nmd", "logsumexp", "nmd.logsumexp", None),
    ("mdopt.schedule", "run_continuation", "schedule.run_continuation", _count_stages),
    ("mdopt.sets", "extract_set", "sets.extract_set", None),
    ("mdopt.sets", "boundary_points", "sets.boundary_points", _count_found),
    ("mdopt.sets", "brentq", "sets.brentq", None),
    ("mdopt.sets", "shrink_rate_theoretical", "sets.shrink_rate_theoretical", None),
    ("mdopt.sets", "shrink_rate_empirical", "sets.shrink_rate_empirical", None),
    ("mdopt.sets", "solve_boundary_move", "sets.solve_boundary_move", None),
    ("mdopt.sets", "descent_rate", "sets.descent_rate", None),
    ("mdopt.useq", "useq_init", "useq.useq_init", None),
    ("mdopt.useq", "useq_step", "useq.useq_step", None),
    ("mdopt.useq", "useq_run", "useq.useq_run", None),
    ("mdopt.integrate", "integrate", "integrate.integrate", None),
    ("mdopt.integrate", "log_integrate_exp", "integrate.log_integrate_exp", None),
    ("mdopt.cli", "_write_csv", "cli.write", None),
    ("mdopt.cli", "_write_json", "cli.write", None),
]

_NMD_EXPECT = ("expectation", "expect_f", "expect_log_tau", "log_expect_tau",
               "variance_f", "mean_location")
_NMD_POINTWISE = ("log_density", "log_tau")
_NMD_OTHER = ("log_Z", "region_measure", "density", "grad_density", "ddk_density")

# (module, class, method, span name, counter) for methods.
METHODS = [
    ("mdopt.region", "CompactRegion", "build_grid", "region.build_grid", _count_grid_nodes),
    ("mdopt.region", "CompactRegion", "sample_uniform", "region.sample_uniform", None),
    ("mdopt.region", "CompactRegion", "measure", "region.measure", None),
    ("mdopt.objective", "Objective", "__call__", "objective.__call__", None),
    *[("mdopt.nmd", "NascentMD", m, f"nmd.{m}", None) for m in _NMD_EXPECT],
    *[("mdopt.nmd", "NascentMD", m, f"nmd.{m}", _points("nmd.log_density.points"))
      for m in _NMD_POINTWISE],
    *[("mdopt.nmd", "NascentMD", m, f"nmd.{m}", None) for m in _NMD_OTHER],
]


def _sites(module, attr):
    """Every loaded mdopt module whose ``attr`` is the same object.

    Names defined outside mdopt (scipy's) are wrapped only in ``module``, so
    that a weight pass in ``nmd`` is not confused with the same scipy call
    elsewhere.
    """
    original = getattr(module, attr)
    if not getattr(original, "__module__", "").startswith("mdopt"):
        return [module]
    return [m for name, m in sorted(sys.modules.items())
            if (name == "mdopt" or name.startswith("mdopt."))
            and getattr(m, attr, None) is original]


@contextlib.contextmanager
def install(tracer: Tracer, entry_points: bool = True):
    """Wrap mdopt for the duration of the block; restore it afterwards.

    With ``entry_points=False`` only the objective's ``fn`` is wrapped, to
    count evaluated points without recording spans.
    """
    cli = importlib.import_module("mdopt.cli")
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    catalog_get = cli.catalog_get

    def counted_catalog_get(name):
        obj, region = catalog_get(name)
        if entry_points:
            fn = tracer.wrap("objective.fn", obj.fn, _count_fn_points)
        else:
            fn = _counted(tracer.counts, obj.fn)
        return dataclasses.replace(obj, fn=fn), region

    try:
        patch(cli, "catalog_get", counted_catalog_get)
        if entry_points:
            for mod_name, attr, span, count in FUNCTIONS:
                module = importlib.import_module(mod_name)
                wrapped = tracer.wrap(span, getattr(module, attr), count)
                for site in _sites(module, attr):
                    patch(site, attr, wrapped)
            for mod_name, cls_name, attr, span, count in METHODS:
                cls = getattr(importlib.import_module(mod_name), cls_name)
                patch(cls, attr, tracer.wrap(span, cls.__dict__[attr], count))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.

    ``<layer>.s`` is the layer's total self time; ``.s`` suffixes are self
    time and ``.calls`` call counts.  ``sets.root_s`` is the inclusive time
    of the root solves, since the density evaluations inside them are the
    cost a batched solver would remove.
    """
    calls, self_s, incl_s = tracer.totals()
    counts = tracer.counts

    def n(*names):
        return sum(calls[x] for x in names)

    def t(*names):
        return sum(self_s.get(x, 0.0) for x in names)

    def layer(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    expect = [f"nmd.{m}" for m in _NMD_EXPECT]
    pointwise = [f"nmd.{m}" for m in _NMD_POINTWISE]
    shrink = ["sets.shrink_rate_theoretical", "sets.shrink_rate_empirical",
              "sets.solve_boundary_move", "sets.descent_rate"]
    weight = ["nmd.softmax", "nmd.logsumexp"]
    stages = counts["schedule.stages"]
    fn_calls = n("objective.fn")
    return {
        "cli.commands": n("cli.command"),
        "cli.s": layer("cli"),
        "cli.write_s": t("cli.write"),
        "region.s": layer("region"),
        "region.build_grid.calls": n("region.build_grid"),
        "region.build_grid.s": t("region.build_grid"),
        "region.grid_nodes": counts["region.grid_nodes"],
        "region.sample_uniform.calls": n("region.sample_uniform"),
        "region.sample_uniform.s": t("region.sample_uniform"),
        "objective.s": layer("objective"),
        "objective.calls": fn_calls,
        "objective.points": counts["objective.points"],
        "objective.points_per_call": counts["objective.points"] / fn_calls if fn_calls else 0.0,
        "objective.eval_s": t("objective.fn"),
        "objective.gradient.calls": n("objective.gradient"),
        "objective.gradient.s": t("objective.gradient"),
        "nmd.s": layer("nmd"),
        "nmd.weight_passes": n(*weight),
        "nmd.weight_s": t(*weight),
        "nmd.weight_passes_per_stage": n(*weight) / stages if stages else 0.0,
        "nmd.expect.calls": n(*expect),
        "nmd.expect.s": t(*expect),
        "nmd.log_density.calls": n(*pointwise),
        "nmd.log_density.points": counts["nmd.log_density.points"],
        "nmd.log_density.s": t(*pointwise),
        "nmd.log_Z.calls": n("nmd.log_Z"),
        "schedule.runs": n("schedule.run_continuation"),
        "schedule.stages": stages,
        "schedule.s": layer("schedule"),
        "sets.s": layer("sets"),
        "sets.extract_set.calls": n("sets.extract_set"),
        "sets.extract_set.s": t("sets.extract_set"),
        "sets.boundary_points.s": t("sets.boundary_points"),
        "sets.boundary_points.found": counts["sets.boundary_points.found"],
        "sets.root_solves": n("sets.brentq"),
        "sets.root_s": incl_s.get("sets.brentq", 0.0),
        "sets.shrink_rate.calls": n(*shrink),
        "sets.shrink_rate.s": t(*shrink),
        "useq.runs": n("useq.useq_run"),
        "useq.steps": n("useq.useq_step"),
        "useq.s": layer("useq"),
        "integrate.calls": n("integrate.integrate", "integrate.log_integrate_exp"),
        "integrate.s": layer("integrate"),
    }
