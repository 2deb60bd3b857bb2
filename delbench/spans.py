"""Spans around the program's public functions, recorded from outside.

The tracer replaces each listed function by a wrapper in every loaded
``delinscap`` module that binds it.  The optimizer's lambdas and the
``lb_*`` bodies look these names up at call time, so the wrappers see
their calls.  Spans (name, start, end, parent, item, work) stay in memory
and are written out at the end of the run.  A span's self time is its
duration minus the time its child spans cover.

What happens inside a function cannot be seen from here: the split of
``maximize_over_gamma`` between its grid and its golden-section steps
needs spans inside the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

# span name -> (module, public functions, work of one call from its bound arguments)
TRACED = {
    "analytic_bounds.run_law": ("analytic_bounds", ("run_law_deletion_H", "run_law_duplication_H",
                                                    "run_law_delins_H"), None),
    "analytic_bounds.closed_form": ("analytic_bounds", ("closed_form_HLXLY", "closed_form_HS2",
                                                        "closed_form_delins_S"), None),
    "analytic_bounds.s_term": ("analytic_bounds", ("cond_entropy_S_given_YY", "delins_S_term"), None),
    "analytic_bounds.lb": ("analytic_bounds", ("lb_deletion", "lb1_insertion", "lb2_insertion",
                                               "lb_delins"), None),
    "gamma_optimizer.optimize_bound": ("gamma_optimizer", ("optimize_bound",), None),
    "core.generate": ("core", ("generate_markov_sequence",), None),
    "channel_sim.apply": ("channel_sim", ("apply_delins",), lambda a: len(a["x"])),
    "channel_sim.augment": ("channel_sim", ("flip_complementary", "augment_with_deleted_runs"), None),
    "mc_estimator.estimate": ("mc_estimator", ("estimate_hT", "estimate_delins_S_term"),
                              lambda a: a["steps"]),
    "exact_oracle.cascade": ("exact_oracle", ("cascade_equivalence_check",), lambda a: 2 ** a["n"]),
    "exact_oracle.law": ("exact_oracle", ("enumerate_channel_law", "cascade_law"), None),
}

# per-layer metric -> (unit, better, span it is read from, what is read);
# each is taken per item, then the median over the items is reported
PER_LAYER = {
    "analytic_bounds.run_law_s": ("s", "lower", "analytic_bounds.run_law", "time"),
    "analytic_bounds.run_law_calls": ("count", "lower", "analytic_bounds.run_law", "calls"),
    "analytic_bounds.closed_form_s": ("s", "lower", "analytic_bounds.closed_form", "time"),
    "analytic_bounds.s_term_s": ("s", "lower", "analytic_bounds.s_term", "time"),
    "analytic_bounds.lb_self_s": ("s", "lower", "analytic_bounds.lb", "self"),
    "analytic_bounds.lb_calls": ("count", "lower", "analytic_bounds.lb", "calls"),
    "gamma_optimizer.solve_s": ("s", "lower", "gamma_optimizer.optimize_bound", "time"),
    "gamma_optimizer.objective_evals": ("count", "lower", "gamma_optimizer.optimize_bound", "evals"),
    "gamma_optimizer.final_eval_s": ("s", "lower", "gamma_optimizer.optimize_bound", "final"),
    "core.generate_s": ("s", "lower", "core.generate", "time"),
    "channel_sim.apply_s": ("s", "lower", "channel_sim.apply", "time"),
    "channel_sim.augment_s": ("s", "lower", "channel_sim.augment", "time"),
    "channel_sim.bits_per_s": ("1/s", "higher", "channel_sim.apply", "rate"),
    "mc_estimator.estimate_s": ("s", "lower", "mc_estimator.estimate", "self"),
    "mc_estimator.steps_per_s": ("1/s", "higher", "mc_estimator.estimate", "rate"),
    "exact_oracle.cascade_s": ("s", "lower", "exact_oracle.cascade", "time"),
    "exact_oracle.law_calls": ("count", "lower", "exact_oracle.law", "calls"),
    "exact_oracle.inputs_per_s": ("1/s", "higher", "exact_oracle.cascade", "rate"),
    "cli.import_s": ("s", "lower", None, "import"),
    "trace.overhead_share": ("ratio", "lower", None, "overhead"),
}


class Tracer:
    """Records spans while ``item`` is set; calls pass straight through otherwise."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.item: int | None = None

    def wrap(self, fn, name: str, work=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                amount = work(signature.bind(*args, **kwargs).arguments) if work else 1
                self.spans[idx] = (name, start, end, parent, self.item, amount)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a ``delinscap`` module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "delinscap" or n.startswith("delinscap.")]
        for name, (module, funcs, work) in TRACED.items():
            home = sys.modules[f"delinscap.{module}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapped = self.wrap(original, name, work)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "item": item, "work": work}) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds, measured on a wrapped no-op."""
    def noop():
        return None

    probe = Tracer()
    wrapped = probe.wrap(noop, "probe")
    probe.item = 0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    t2 = time.perf_counter()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / calls)


def per_layer_metrics(spans: list[tuple], item_times: list[float], scale: list[float],
                      import_s: float, cost_per_span: float) -> tuple[dict, list[str]]:
    """The per-layer metrics, and the names of those whose span never ran
    (reported as 0).  Times of item k are multiplied by ``scale[k]`` and
    rates divided by it; ``import_s`` is reported as given.

    "time" is a span's duration, "self" its duration minus its children's,
    "evals" the lb_* calls made directly inside optimize_bound per call of
    it, and "final" the duration of the last of them, the full-diagnostics
    evaluation at gamma*.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, item, work in spans:
        if parent >= 0:
            child_time[parent] += end - start

    agg = [{} for _ in item_times]  # per item: span name -> sums
    last_lb = {}
    for idx, (name, start, end, parent, item, work) in enumerate(spans):
        a = agg[item].setdefault(name, dict.fromkeys(("calls", "time", "self", "work", "evals", "final"), 0))
        a["calls"] += 1
        a["time"] += end - start
        a["self"] += end - start - child_time[idx]
        a["work"] += work
        if name == "analytic_bounds.lb" and parent >= 0 and spans[parent][0] == "gamma_optimizer.optimize_bound":
            agg[item]["gamma_optimizer.optimize_bound"]["evals"] += 1
            last_lb[parent] = idx
    for idx in last_lb.values():
        name, start, end, parent, item, work = spans[idx]
        agg[item]["gamma_optimizer.optimize_bound"]["final"] += end - start

    def value(sums: dict, span: str | None, read: str, item_s: float, f: float) -> float:
        if read == "overhead":
            return sum(a["calls"] for a in sums.values()) * cost_per_span / item_s
        a = sums.get(span)
        if a is None:
            return 0
        if read == "rate":
            return a["work"] / a["time"] / f if a["time"] > 0 else 0.0
        if read == "evals":
            return a["evals"] / a["calls"]
        return a[read] * f if read in ("time", "self", "final") else a[read]

    per_item = [{name: value(sums, span, read, item_s, f)
                 for name, (unit, better, span, read) in PER_LAYER.items() if read != "import"}
                for sums, item_s, f in zip(agg, item_times, scale)]
    out = {name: statistics.median(m[name] for m in per_item) for name in per_item[0]}
    out["cli.import_s"] = import_s
    seen = {name for a in agg for name in a}
    absent = sorted(name for name, (unit, better, span, read) in PER_LAYER.items()
                    if span is not None and span not in seen)
    return out, absent
