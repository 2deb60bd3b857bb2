"""What the benchmark under ``delbench/`` uses of the package.

The benchmark traces public functions by name and calls some bounds itself;
it is not changed with the package, so a rename or a dropped keyword here
would only show when it runs.
"""

import importlib
import importlib.util
import math
from pathlib import Path

from delinscap import analytic_bounds as ab

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
