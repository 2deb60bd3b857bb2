"""What the benchmark under ``delbench/`` uses of the package.

The benchmark traces public functions by name and calls some bounds itself;
it is not changed with the package, so a rename or a dropped keyword here
would only show when it runs.
"""

import functools
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from delinscap import analytic_bounds as ab, gamma_optimizer as go

SPANS = Path(__file__).resolve().parents[1] / "delbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("delbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    for span, (module, funcs, _work) in traced.items():
        home = importlib.import_module(f"delinscap.{module}")
        for name in funcs:
            assert callable(getattr(home, name, None)), f"{span}: delinscap.{module}.{name} is gone"


def test_bound_calls_of_the_benchmark():
    # the forms delbench/run.py uses: the delins bound without diagnostics, the S term positionally
    g, d, i, a = 0.6, 0.2, 0.1, 0.8
    res = ab.lb_delins(d, i, a, g, diagnostics=False)
    assert math.isfinite(res.bound_bits) and res.reconstruct() == res.bound_bits
    assert ab.lb_deletion(d, g, diagnostics=False).bound_bits < 1.0
    term = ab.delins_S_term(g, d, i, a)
    assert term.value > 0.0
    assert {t.name: t.value for t in res.terms}["deleted_runs_penalty"] == (1.0 - d + i) * term.value


@pytest.mark.parametrize("name, params, run_law", [
    ("deletion", {"d": 0.3}, "run_law_deletion_H"),
    ("insertion_lb1", {"i": 0.2, "alpha": 0.8}, None),
    ("insertion_lb2", {"i": 0.2, "alpha": 0.8}, "run_law_duplication_H"),
    ("delins", {"d": 0.2, "i": 0.1, "alpha": 0.8}, "run_law_delins_H"),
])
def test_a_solve_calls_its_lb_and_run_law_by_name(name, params, run_law, monkeypatch):
    # The tracer counts lb_calls, objective_evals and final_eval_s from the lb_*
    # spans directly inside optimize_bound, and run_law_calls from the run_law_*_H
    # spans, only if the solve looks these names up at call time: it rebinds each
    # wherever a delinscap module binds it, as the counting wrappers here do.
    calls, stack = [], []

    def counting(fn, label):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((label, tuple(stack)))
            stack.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return wrapper

    modules = [m for n, m in list(sys.modules.items()) if n == "delinscap" or n.startswith("delinscap.")]
    for home, fname in [(go, "optimize_bound"), *((ab, f) for f in ("lb_deletion", "lb1_insertion", "lb2_insertion",
                        "lb_delins", "run_law_deletion_H", "run_law_duplication_H", "run_law_delins_H"))]:
        original = getattr(home, fname)
        wrapped = counting(original, fname)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapped)

    go.optimize_bound(name, **params)
    lb = {"deletion": "lb_deletion", "insertion_lb1": "lb1_insertion", "insertion_lb2": "lb2_insertion",
          "delins": "lb_delins"}[name]
    expected = [("optimize_bound", ()), (lb, ("optimize_bound",))]
    if run_law:
        expected.append((run_law, ("optimize_bound", lb)))
    assert calls == expected
