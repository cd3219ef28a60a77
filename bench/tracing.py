"""Per-layer spans and counts, recorded from outside the library.

install() replaces msregret's public functions, and evaluate on every rule
class, with wrappers that open a span around the call.  A name is replaced in
every msregret module that binds it (risk and lfp import gaussian_expectation
and maximize_scalar, cli imports the risk, lfp and planning names, the
package re-exports everything), so calls made inside the library are caught
too.  Spans are folded into per-layer totals as they close, and kept in
memory until the worker writes them out; a layer's self time is its span
time minus the time of the spans opened inside it.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

PER_LAYER = (
    ("rules.evaluate_calls", "count"), ("rules.evaluate_points", "count"),
    ("rules.evaluate_s", "s"), ("rules.bayes_foc_calls", "count"), ("rules.bayes_foc_s", "s"),
    ("numerics.expectation_calls", "count"), ("numerics.expectation_points", "count"),
    ("numerics.expectation_s", "s"), ("numerics.fallback_calls", "count"),
    ("numerics.scalar_evals", "count"), ("numerics.maximize_calls", "count"),
    ("numerics.maximize_evals", "count"), ("numerics.maximize_s", "s"),
    ("numerics.find_root_calls", "count"),
    ("risk.exact_risk_calls", "count"), ("risk.exact_risk_s", "s"),
    ("risk.tail_probability_calls", "count"), ("risk.tail_probability_s", "s"),
    ("risk.worst_case_calls", "count"), ("risk.worst_case_s", "s"),
    ("risk.simulate_draws", "count"), ("risk.simulate_s", "s"),
    ("lfp.solve_tau_star_s", "s"), ("lfp.verify_saddle_s", "s"), ("lfp.objective_calls", "count"),
    ("planning.plan_s", "s"), ("dominance.verify_dominance_s", "s"),
    ("regression.fit_s", "s"), ("regression.load_csv_s", "s"),
    ("cli.import_s", "s"), ("cli.modules_loaded", "count"), ("cli.main_s", "s"),
)

# public function -> span it opens
_SPANS = {
    "numerics": {"gaussian_expectation": "numerics.expectation",
                 "maximize_scalar": "numerics.maximize", "find_root": "numerics.find_root"},
    "rules": {"solve_bayes_foc": "rules.bayes_foc"},
    "risk": {"exact_risk": "risk.exact_risk", "tail_probability": "risk.tail_probability",
             "worst_case_msr": "risk.worst_case", "worst_case_mean_regret": "risk.worst_case",
             "simulate": "risk.simulate"},
    "lfp": {"bayes_objective": "lfp.objective", "frequentist_objective": "lfp.objective",
            "solve_tau_star": "lfp.solve_tau_star", "verify_saddle": "lfp.verify_saddle"},
    "planning": {"plan_worst_msr": "planning.plan", "plan_es_epsilon": "planning.plan",
                 "plan_ht_power": "planning.plan"},
    "dominance": {"verify_dominance": "dominance.verify_dominance"},
    "regression": {"fit": "regression.fit", "load_dataset_csv": "regression.load_csv"},
    "cli": {"main": "cli.main"},
}


class Tracer:
    """A span stack folded into per-name totals, plus named counters."""

    def __init__(self):
        self.stack = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    def enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur

    def inside(self, name: str) -> bool:
        return bool(self.stack) and self.stack[-1][0] == name

    def wrap(self, name: str, fn, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return wrapper

    def spans(self) -> dict:
        return {name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_time[name]} for name in sorted(self.calls)}

    def metrics(self, import_s: float, modules_loaded: int) -> dict:
        c, st = self.counts, self.self_time
        values = {
            "rules.evaluate_calls": c["rules.evaluate_calls"],
            "rules.evaluate_points": c["rules.evaluate_points"],
            "rules.evaluate_s": st["rules.evaluate"],
            "rules.bayes_foc_calls": self.calls["rules.bayes_foc"],
            "rules.bayes_foc_s": st["rules.bayes_foc"],
            "numerics.expectation_calls": self.calls["numerics.expectation"],
            "numerics.expectation_points": c["numerics.expectation_points"],
            "numerics.expectation_s": st["numerics.expectation"],
            "numerics.fallback_calls": c["numerics.fallback_calls"],
            "numerics.scalar_evals": c["numerics.scalar_evals"],
            "numerics.maximize_calls": self.calls["numerics.maximize"],
            "numerics.maximize_evals": c["numerics.maximize_evals"],
            "numerics.maximize_s": st["numerics.maximize"],
            "numerics.find_root_calls": self.calls["numerics.find_root"],
            "risk.exact_risk_calls": self.calls["risk.exact_risk"],
            "risk.exact_risk_s": st["risk.exact_risk"],
            "risk.tail_probability_calls": self.calls["risk.tail_probability"],
            "risk.tail_probability_s": st["risk.tail_probability"],
            "risk.worst_case_calls": self.calls["risk.worst_case"],
            "risk.worst_case_s": st["risk.worst_case"],
            "risk.simulate_draws": c["risk.simulate_draws"],
            "risk.simulate_s": st["risk.simulate"],
            "lfp.solve_tau_star_s": st["lfp.solve_tau_star"],
            "lfp.verify_saddle_s": st["lfp.verify_saddle"],
            "lfp.objective_calls": self.calls["lfp.objective"],
            "planning.plan_s": st["planning.plan"],
            "dominance.verify_dominance_s": st["dominance.verify_dominance"],
            "regression.fit_s": st["regression.fit"],
            "regression.load_csv_s": st["regression.load_csv"],
            "cli.import_s": import_s,
            "cli.modules_loaded": modules_loaded,
            "cli.main_s": st["cli.main"],
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def _count_points(tracer: Tracer, f, state: dict):
    def counted(x):
        size = int(np.size(x))
        tracer.counts["numerics.expectation_points"] += size
        if size == 1:
            tracer.counts["numerics.scalar_evals"] += 1
            state["scalar"] = True
        return f(x)
    return counted


def _expectation_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        state = {"scalar": False}
        tracer.enter("numerics.expectation")
        try:
            return fn(_count_points(tracer, f, state), *args, **kwargs)
        finally:
            tracer.exit()
            if state["scalar"]:
                tracer.counts["numerics.fallback_calls"] += 1
    return wrapper


def _evaluate_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(rule, stat):
        # count calls made into the rules layer, not a mixture's call to its base
        if not tracer.inside("rules.evaluate"):
            tracer.counts["rules.evaluate_calls"] += 1
            tracer.counts["rules.evaluate_points"] += int(np.size(stat))
        tracer.enter("rules.evaluate")
        try:
            return fn(rule, stat)
        finally:
            tracer.exit()
    return wrapper


def _counting_objective(tracer: Tracer, key: str):
    def before(args, kwargs):
        f = args[0]

        def counted(x):
            tracer.counts[key] += 1
            return f(x)
        return (counted,) + tuple(args[1:]), kwargs
    return before


def _simulate_draws(tracer: Tracer):
    def before(args, kwargs):
        reps = kwargs["replications"] if "replications" in kwargs else args[2]
        tracer.counts["risk.simulate_draws"] += int(reps)
        return args, kwargs
    return before


def install(tracer: Tracer) -> None:
    """Wrap msregret's public functions and rule evaluate methods in spans."""
    import msregret.rules as rules

    loaded = {name: mod for name, mod in sys.modules.items()
              if name == "msregret" or name.startswith("msregret.")}
    replace = {}
    for short, names in _SPANS.items():
        mod = loaded.get(f"msregret.{short}")
        if mod is None:
            continue
        for attr, span in names.items():
            fn = getattr(mod, attr)
            if attr == "gaussian_expectation":
                replace[id(fn)] = (fn, _expectation_wrapper(tracer, fn))
            elif attr == "maximize_scalar":
                replace[id(fn)] = (fn, tracer.wrap(span, fn, _counting_objective(
                    tracer, "numerics.maximize_evals")))
            elif attr == "simulate":
                replace[id(fn)] = (fn, tracer.wrap(span, fn, _simulate_draws(tracer)))
            else:
                replace[id(fn)] = (fn, tracer.wrap(span, fn))
    for mod in loaded.values():
        for attr, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])

    pending = [rules.TreatmentRule]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "evaluate" in vars(cls):
            cls.evaluate = _evaluate_wrapper(tracer, vars(cls)["evaluate"])
