"""Per-layer spans recorded from outside the program.

`install` wraps the public functions and engine methods of the ``ulamstab``
modules the commands go through, so each call records a span: name,
command, parent, start, end and a few counts.  Spans stay in memory;
`layer_metrics` turns them into the per-layer figures and `dump` writes
them out at the end of a run.  Nothing under ``src/`` is edited: the
wrappers replace module and class attributes at run time.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time

import numpy as np

CACHE_KEYS = ("Rc", "Pc", "A2", "A4", "C1", "C3", "H1")
# top-level spans of these layers are what `cli.self_s` excludes
ENGINE_LAYERS = ("stability.", "dynamics.")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        self.command = None

    @contextlib.contextmanager
    def span(self, name, cache=False, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "command": self.command,
            "name": name,
            "cache": cache,
            "top_engine": name.startswith(ENGINE_LAYERS)
            and not any(s["name"].startswith(ENGINE_LAYERS) for s in self._stack),
            "child_s": 0.0,
            **attrs,
        }
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent["child_s"] += rec["end"] - rec["start"]
            self.spans.append(rec)

    def cache_owner(self):
        """Name of the innermost open cache span: the cache a build belongs to."""
        for rec in reversed(self._stack):
            if rec["cache"]:
                return rec["name"]
        return None

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, default=float) + "\n")


def _replace_everywhere(modules, original, replacement):
    # callers may hold the function under an imported name
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _traced(tracer, name, fn, cache=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, cache=cache):
            return fn(*args, **kwargs)

    return wrapper


def install(tracer):
    """Wrap the program's layers; returns nothing, effects last for the process."""
    import ulamstab
    from ulamstab import cli, dynamics, exprlang, model, quad, riccati, stability

    modules = (ulamstab, cli, dynamics, exprlang, model, quad, riccati, stability)

    plain = (
        (model, "problem_from_dict"),
        (model, "validate_problem"),
        (riccati, "residual_sup"),
        (riccati, "rho_coverage"),
        (exprlang, "parse"),
        (exprlang, "compile_expr"),
        (exprlang, "differentiate"),
        (stability, "analyze"),
        (dynamics, "extremal_experiment"),
        (dynamics, "extremal_profile"),
        (dynamics, "random_perturbation_test"),
        (dynamics, "instability_probe"),
        (dynamics, "ivp_solution"),
    )
    for mod, attr in plain:
        fn = getattr(mod, attr)
        _replace_everywhere(modules, fn, _traced(tracer, f"{mod.__name__.split('.')[-1]}.{attr}", fn))

    cumulative = quad.cumulative

    @functools.wraps(cumulative)
    def traced_cumulative(g, *args, **kwargs):
        with tracer.span("quad.cumulative", owner=tracer.cache_owner(), gk15=0, points=0) as rec:

            def counted(x):
                rec["gk15"] += 1
                rec["points"] += int(np.size(x))
                return g(x)

            out = cumulative(counted, *args, **kwargs)
            rec["panels"] = int(len(out.panel_vals))
            return out

    _replace_everywhere(modules, cumulative, traced_cumulative)

    sup_over = quad.sup_over

    @functools.wraps(sup_over)
    def traced_sup_over(h, *args, **kwargs):
        with tracer.span("quad.sup_over", points=0) as rec:

            def counted(x):
                rec["points"] += int(np.size(x))
                return h(x)

            return sup_over(counted, *args, **kwargs)

    _replace_everywhere(modules, sup_over, traced_sup_over)

    se = stability.StabilityEngine
    se.__init__ = _traced(tracer, "stability.StabilityEngine", se.__init__)
    for method in ("classify", "ulam_constant", "check_divergence"):
        setattr(se, method, _traced(tracer, f"stability.{method}", getattr(se, method)))
    for key in CACHE_KEYS:
        # the engine caches lazily; only the access that builds opens a span
        _cache_property(tracer, se, key, f"stability.cache.{key}", lambda self, key=key: key in self._cache)

    sol = dynamics.SolutionEngine
    sol.__init__ = _traced(tracer, "dynamics.SolutionEngine", sol.__init__)
    sol.experiment_grid = _traced(tracer, "dynamics.experiment_grid", sol.experiment_grid)
    _cache_property(tracer, sol, "H1c", "dynamics.H1c", lambda self: self._h1c is not None)
    sol.forcing_caches = _traced(tracer, "dynamics.forcing_caches", sol.forcing_caches, cache=True)

    # representations are closures evaluated after they are built; both
    # building and evaluating count as representation time
    for method in ("representation", "homogeneous"):
        orig = getattr(sol, method)

        def traced_method(self, *args, _orig=orig, **kwargs):
            with tracer.span("dynamics.representation"):
                fn = _orig(self, *args, **kwargs)
            return _traced(tracer, "dynamics.representation", fn)

        setattr(sol, method, traced_method)


def _cache_property(tracer, cls, attr, name, is_built):
    fget = vars(cls)[attr].fget

    def getter(self):
        if is_built(self):
            return fget(self)
        with tracer.span(name, cache=True):
            return fget(self)

    setattr(cls, attr, property(getter, doc=fget.__doc__))


def _sum(spans, key="dur"):
    return float(sum(s[key] for s in spans))


def layer_metrics(spans, rounds, trials_per_command):
    """Per-layer figures per round of the workload, from the recorded spans."""
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        s["self"] = s["dur"] - s["child_s"]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def per_round(x):
        return x / rounds

    m = {}
    cli_spans = [s for s in spans if s["name"].startswith("cli.")]
    engine_top = [s for s in spans if s["top_engine"]]
    m["cli.self_s"] = per_round(_sum(cli_spans) - _sum(engine_top))
    m["model.validate_s"] = per_round(_sum(named("model.validate_problem")))
    m["riccati.residual_s"] = per_round(_sum(named("riccati.residual_sup")))
    m["riccati.coverage_s"] = per_round(_sum(named("riccati.rho_coverage")))
    m["exprlang.compile.calls"] = per_round(len(named("exprlang.compile_expr")))

    cum = named("quad.cumulative")
    gk15 = _sum(cum, "gk15")
    m["quad.cumulative.calls"] = per_round(len(cum))
    m["quad.cumulative.self_s"] = per_round(_sum(cum, "self"))
    m["quad.panels"] = per_round(_sum(cum, "panels"))
    m["quad.integrand_points"] = per_round(_sum(cum, "points"))
    m["quad.panel_yield"] = _sum(cum, "panels") / gk15 if gk15 else 0.0
    sup = named("quad.sup_over")
    m["quad.sup_over.calls"] = per_round(len(sup))
    m["quad.sup_over.self_s"] = per_round(_sum(sup, "self"))
    m["quad.sup_over.points"] = per_round(_sum(sup, "points"))

    m["stability.engine_builds"] = per_round(len(named("stability.StabilityEngine")))
    for key in CACHE_KEYS:
        owned = [s for s in cum if s["owner"] == f"stability.cache.{key}"]
        m[f"stability.cache.{key}.s"] = per_round(_sum(owned))
        m[f"stability.cache.{key}.panels"] = per_round(_sum(owned, "panels"))
    for method in ("classify", "ulam_constant", "check_divergence"):
        m[f"stability.{method}_s"] = per_round(_sum(named(f"stability.{method}")))

    h1c = [s for s in cum if s["owner"] == "dynamics.H1c"]
    m["dynamics.H1c.s"] = per_round(_sum(h1c))
    m["dynamics.H1c.panels"] = per_round(_sum(h1c, "panels"))
    fc = named("dynamics.forcing_caches")
    m["dynamics.forcing_caches.calls"] = per_round(len(fc))
    m["dynamics.forcing_caches.s"] = per_round(_sum(fc))
    m["dynamics.forcing_caches.panels"] = per_round(
        _sum([s for s in cum if s["owner"] == "dynamics.forcing_caches"], "panels")
    )
    rand = named("dynamics.random_perturbation_test")
    probe = named("dynamics.instability_probe")
    m["dynamics.random.self_s"] = per_round(_sum(rand, "self"))
    m["dynamics.probe.self_s"] = per_round(_sum(probe, "self"))
    ivp = named("dynamics.ivp_solution")
    m["dynamics.ivp.calls"] = per_round(len(ivp))
    m["dynamics.ivp.s"] = per_round(_sum(ivp))

    # stage figures of the user-visible `empirical` and probe steps
    extremal = 0.0
    for s in named("dynamics.extremal_experiment"):
        ends = [a["end"] for a in named("stability.analyze") if a["command"] == s["command"]]
        extremal += s["end"] - max(ends)
    m["extremal_s"] = per_round(extremal)
    m["trials_per_s"] = len(rand) * trials_per_command / _sum(rand) if rand else 0.0
    m["probe_s"] = per_round(_sum(probe))
    return m
