"""How the package is laid out: the rules that keep each formula in one place,
and the one place the tests may reach past the public API.

Every other file under ``tests/`` reads the public API and the named test
surfaces: the names each module's docstring lists after "Test surface:".
This file alone reads the package's internals, so that renaming an internal
helper outside those surfaces breaks at most this file.  Besides the layout
rules it holds the checks that need those internals: that the grid's plan
and the arrays its gammas alone fix are kept once and read-only, that the
oracles' restated constants are the package's, that the run-length term's
parts (its float and grid weights, its band start, band and closed part,
its row error) are what the package computes, bit for bit, that the float
weights are the source's run-length law, and that the row floor keeps its
margin.  It also resolves every package name README cites,
and each docstring README names as the statement of a rule.
"""

import ast
import importlib
import inspect
import math
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import delinscap
from delinscap import analytic_bounds, channel_sim, core, gamma_optimizer, run_length

import oracles

PACKAGE = Path(delinscap.__file__).parent
TESTS = Path(__file__).parent
MODULES = (core, channel_sim, analytic_bounds, gamma_optimizer)  # their __all__ lists make delinscap's
MOST_SURFACE_NAMES = 10
MOST_SURFACE_READS = 40


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and name != "_"


def _package_private_names() -> set[str]:
    """Every private name the package defines: functions, classes, module and
    class variables, attributes it assigns, and ``__slots__`` entries."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return {name for name in names if _private(name)}


def _surfaces() -> dict[str, list[str]]:
    """Each package module -> the names its docstring lists after "Test surface:"."""
    surfaces = {}
    for path in sorted(PACKAGE.glob("*.py")):
        doc = ast.get_docstring(ast.parse(path.read_text(encoding="utf-8"))) or ""
        if (found := re.search(r"Test surface:(.*?)(?:\n\n|$)", doc, re.S)) is not None:
            surfaces[path.stem] = re.findall(r"``(\w+)``", found.group(1))
    return surfaces


def _private_reads(path: Path, private: set[str]) -> Counter:
    """The package's private names that a test file reads, with how often: an
    attribute read (not of ``self`` or ``cls``), a name imported from the
    package and each later use of it, the name a ``getattr`` reads and the
    name a ``setattr`` or a ``patch.object`` replaces."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads, imported = Counter(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("delinscap"):
            for alias in node.names:
                if alias.name in private:
                    reads[alias.name] += 1
                    imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in private:
            if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                reads[node.attr] += 1
        elif isinstance(node, ast.Name) and node.id in imported and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Call) and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            func = node.func
            if getattr(func, "attr", getattr(func, "id", None)) in ("getattr", "setattr", "object") and node.args[1].value in private:
                reads[node.args[1].value] += 1
    return reads


def test_each_module_lists_its_surface_and_the_package_at_most_ten_private_names():
    surfaces = _surfaces()
    assert set(surfaces) >= {"core", "channel_sim", "run_length", "analytic_bounds", "gamma_optimizer",
                             "exact_oracle", "mc_estimator", "verification", "cli"}
    private = [name for names in surfaces.values() for name in names if _private(name)]
    assert len(private) == len(set(private)) <= MOST_SURFACE_NAMES
    for module, names in surfaces.items():
        home = importlib.import_module(f"delinscap.{module}")
        for name in filter(_private, names):
            assert hasattr(home, name), f"delinscap.{module}.{name} is gone"


def test_tests_read_only_the_named_surfaces():
    private = _package_private_names()
    surface = {name for names in _surfaces().values() for name in names if _private(name)}
    total, outside = 0, {}
    for path in sorted(TESTS.glob("*.py")):  # the test files, their oracles, golden runner and fixtures
        if path.name == Path(__file__).name:
            continue
        reads = _private_reads(path, private)
        total += sum(reads.values())
        if stray := sorted(set(reads) - surface):
            outside[path.name] = stray
    assert not outside, f"private names read outside the test surfaces: {outside}"
    assert total <= MOST_SURFACE_READS


def test_the_guard_counts_each_kind_of_read(tmp_path):
    path = tmp_path / "test_sample.py"
    path.write_text("from delinscap.run_length import _band, ROWS\n"
                    "import delinscap.run_length as rl\n"
                    "def test(monkeypatch):\n"
                    "    _band(1)\n"
                    "    rl._block_rows(())\n"
                    "    self._block_rows\n"
                    "    monkeypatch.setattr(rl, '_ROW_TRIM', 0.0)\n"
                    "    getattr(rl, '_SEGMENT')\n"
                    "    with mock.patch.object(rl, '_RowTable', object):\n"
                    "        pass\n", encoding="utf-8")
    reads = _private_reads(path, _package_private_names())
    assert reads == Counter({"_band": 2, "_block_rows": 1, "_ROW_TRIM": 1, "_SEGMENT": 1, "_RowTable": 1})


def test_package_all_is_the_module_lists_joined():
    assert delinscap.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(delinscap.__all__)) == len(delinscap.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(delinscap, name) is getattr(module, name)


def _package_imports() -> dict[str, set[str]]:
    """Each module of the package -> the package's modules its source imports, at any depth of its code."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("delinscap."):
                deps.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                deps.update(a.name.split(".")[1] for a in node.names if a.name.startswith("delinscap."))
        graph[path.stem] = deps
    return graph


def test_package_imports_have_no_cycle():
    graph = _package_imports()
    assert set().union(*graph.values()) <= graph.keys()
    left = dict(graph)
    while left:  # peel off the modules that import none of the rest
        leaves = [name for name, deps in left.items() if not deps & left.keys()]
        assert leaves, f"an import cycle among {sorted(left)}"
        for name in leaves:
            del left[name]


def test_run_length_imports_only_core():
    assert _package_imports()["run_length"] == {"core"}


def test_analytic_bounds_reads_one_run_length_grid():
    # the run-length term's grid form is one object; its plan, band, closed part and floor stay in run_length
    names = set()
    for node in ast.walk(ast.parse(Path(analytic_bounds.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "run_length":
            names.update(a.name for a in node.names)
    assert names == {"SeriesConfig", "_RunLawGrid", "closed_form_HLXLY", "run_law_deletion_H",
                     "run_law_duplication_H", "run_law_delins_H"}


README = PACKAGE.parents[1] / "README.md"


def _resolve(name: str):
    """The object a README citation names: ``delinscap``, one of its modules,
    or a dotted name in one."""
    head, *rest = name.split(".")
    obj = importlib.import_module("delinscap" if head == "delinscap" else f"delinscap.{head}")
    for attr in rest:
        obj = getattr(obj, attr)
    return obj


def test_readme_cites_only_names_that_exist_and_each_rule_a_docstring():
    # README states no rule itself: each rule paragraph names the docstrings that state it, and a
    # renamed name or a docstring removed from under a citation fails here
    text = README.read_text(encoding="utf-8")
    modules = "|".join(sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"))
    cited = set(re.findall(rf"`((?:delinscap|{modules})(?:\.\w+)*)`", text))
    assert {"run_length._RunLawGrid", "core._on_grid", "gamma_optimizer._bound_params"} <= cited
    for name in sorted(cited):
        _resolve(name)
    rules = text.split("\n## The rules", 1)[1].split("\n## ", 1)[0]
    paragraphs = rules.split("\n- ")[1:]
    assert len(paragraphs) >= 10
    for paragraph in paragraphs:
        (stated,) = re.findall(r"Stated in\s((?:[^.]|\.(?=\w))*)\.", paragraph)
        names = re.findall(r"`([\w.]+)`", stated)
        assert names, paragraph
        for name in names:
            obj = inspect.unwrap(_resolve(name))  # a kept function too
            assert isinstance(obj, (types.ModuleType, type, types.FunctionType)) and (obj.__doc__ or "").strip(), name


def test_the_printed_deletion_form_is_a_bound_entry_of_its_own():
    # only the deletion bound has a printed form: it is the deletion_printed entry, which
    # no channel reports, and no other terms function, grid or lb_* takes the choice
    assert sorted(analytic_bounds._BOUNDS) == ["deletion", "deletion_printed", "delins", "insertion_lb1",
                                               "insertion_lb2"]
    terms = {name: fn for name, fn in vars(analytic_bounds).items()
             if name.startswith("_") and name.endswith("_terms") and inspect.isfunction(fn)}
    assert sorted(terms) == ["_deletion_terms", "_delins_terms", "_lb1_terms", "_lb2_terms"]
    for name, fn in terms.items():
        assert ("printed" in inspect.signature(fn).parameters) == (name == "_deletion_terms"), name
    assert "printed" not in inspect.signature(analytic_bounds.BoundGrid.__init__).parameters
    for name, bound in analytic_bounds._BOUNDS.items():
        assert "printed" not in inspect.signature(bound.lb).parameters, name
    with pytest.raises(ValueError, match="unknown channel"):
        gamma_optimizer.optimize_bound("deletion_printed", d=0.2)
    with pytest.raises(ValueError, match="unknown channel"):
        gamma_optimizer.channel_bounds("deletion_printed", d=0.2)


def test_the_grid_plan_is_kept_once_and_read_only():
    # one plan per (cfg, gammas, row block), its starts and each chunk's weights built once
    # and read-only, so that no reader of a kept plan can change what the next one reads
    cfg = run_length.SeriesConfig(tail_epsilon=3e-12)  # a plan no other test fills
    gammas = tuple(gamma_optimizer._GRID.tolist())
    info = run_length._grid_plan.cache_info()
    plan = run_length._grid_plan(cfg, gammas, 32)
    assert run_length._grid_plan(cfg, gammas, 32) is plan
    assert run_length._grid_plan.cache_info().misses == info.misses + 1
    weights = plan.weights(plan.chunks[-1])
    assert plan.weights(plan.chunks[-1]) is weights  # built once, then kept
    assert not any(array.flags.writeable for array in (plan.starts, weights))
    first = gamma_optimizer.optimize_bound("deletion", d=0.9, cfg=cfg)  # reads the kept plan
    run_length._grid_plan.cache_clear()
    assert repr(gamma_optimizer.optimize_bound("deletion", d=0.9, cfg=cfg)) == repr(first)  # a new one
    assert run_length._grid_plan(cfg, gammas, 32) is not plan


def _kept_arrays(gammas):
    """What a grid over ``gammas`` reads of the arrays its gammas alone fix:
    h(gamma), H(L_X) and the plans' key."""
    return (core._on_grid(core.binary_entropy, gammas), core._on_grid(run_length._run_length_entropy, gammas),
            core._on_grid(run_length._floats, gammas))


@pytest.mark.parametrize("gammas", [gamma_optimizer._GRID.copy(), np.append(gamma_optimizer._GRID, 0.4217)],
                         ids=["copy", "appended"])
def test_the_kept_grid_arrays_are_each_arrays_own_and_read_only(gammas):
    # h(gamma), H(L_X) and the plans' key of a grid are its own array's, computed anew from it,
    # whichever array a grid was built over before; kept read-only, they follow an array
    # changed in place
    cfg = run_length.SeriesConfig()
    for _ in range(2):
        grid = analytic_bounds.BoundGrid("delins", core.ChannelParams(d=0.1, i=0.05, alpha=0.8), gammas, cfg)
        source, run, key = _kept_arrays(gammas)
        fresh = np.array(gammas.tolist())
        assert source.tobytes() == core.binary_entropy(fresh).tobytes()
        assert run.tobytes() == run_length._run_length_entropy(fresh).tobytes()
        assert key == tuple(gammas.tolist()) and grid._law._plan.starts.size == gammas.size
        for kept in (source, run):
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 0.5
        gammas[3] = 0.0123  # in place: the next grid over this array reads the new value


def test_a_grid_built_after_many_solves_is_one_built_in_a_fresh_process():
    # the kept plans, arrays and float laws never change what a grid or a solve computes
    code = """if True:
        import numpy as np
        from delinscap import analytic_bounds as ab, core, gamma_optimizer as go
        cases = [("deletion", core.ChannelParams(d=0.2)), ("insertion_lb2", core.ChannelParams(i=0.3, alpha=0.7)),
                 ("delins", core.ChannelParams(d=0.1, i=0.05, alpha=0.8))]
        for name, p in cases:
            grid = ab.BoundGrid(name, p, go._GRID, ab.SeriesConfig())
            values = np.concatenate([grid.values(c) for c in grid.chunks])
            print(name, values.tobytes().hex(), grid.at(0.6123).hex())
        print(repr(go.sweep("insertion", [{"i": 0.3, "alpha": 0.7}])[0]["result"]))
    """
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
                           check=True).stdout
    for channel, point in [("deletion", {"d": 0.2}), ("insertion", {"i": 0.3, "alpha": 0.7}),
                           ("delins", {"d": 0.1, "i": 0.05, "alpha": 0.8}), ("insertion", {"i": 0.31})]:
        gamma_optimizer.sweep(channel, [point])
    lines = []
    for name, p in [("deletion", core.ChannelParams(d=0.2)), ("insertion_lb2", core.ChannelParams(i=0.3, alpha=0.7)),
                    ("delins", core.ChannelParams(d=0.1, i=0.05, alpha=0.8))]:
        grid = analytic_bounds.BoundGrid(name, p, gamma_optimizer._GRID, run_length.SeriesConfig())
        values = np.concatenate([grid.values(c) for c in grid.chunks])
        lines.append(f"{name} {values.tobytes().hex()} {grid.at(0.6123).hex()}")
    lines.append(repr(gamma_optimizer.sweep("insertion", [{"i": 0.3, "alpha": 0.7}])[0]["result"]))
    assert fresh.splitlines() == lines


def test_the_deletion_diagnostic_reads_the_law_of_its_term():
    # at the default configuration lb_deletion builds its float law once, in run_law_deletion_H,
    # and the printed-form diagnostic reads it; at another it builds its own, at the default,
    # with the same bits as a cold one
    gamma, d = 0.61729, 0.23
    misses = run_length._float_law.cache_info().misses
    res = analytic_bounds.lb_deletion(d, gamma)
    assert run_length._float_law.cache_info().misses == misses + 1
    analytic_bounds.lb_deletion(d, gamma + 1e-9, run_length.SeriesConfig(r_max_cap=2_000))
    assert run_length._float_law.cache_info().misses == misses + 3
    warm = run_length.closed_form_HLXLY(gamma, d)
    run_length._float_law.cache_clear()
    assert run_length.closed_form_HLXLY(gamma, d) == warm
    residual = {t.name: t.value for t in res.terms}["run_law_series_minus_closed_residual"]
    assert residual == run_length.run_law_deletion_H(gamma, d).value - warm


class _ConstantRows:
    """A row table whose every row has the entropy ``h``, ``held`` rows of it
    held: the floor from those rows, with H_r = H_h past them and the band
    the one piece gamma**R h, is then exactly the values, and only rounding
    tells them apart."""

    def __init__(self, h, held):
        self.h, self.size = h, held

    def held(self, kernel):
        return np.full(self.size, self.h)

    def entropies(self, kernel, n):
        return np.full(n, self.h)


@pytest.mark.parametrize("d, i", [(0.5, 0.0), (0.0, 0.3), (0.2, 0.1)])
def test_the_row_floor_keeps_its_margin_where_rounding_decides(d, i, monkeypatch):
    # every row at the band's own U(r_bar), so that floor and values agree but for rounding (within
    # twice the margin M); the floor without M exceeds the values at most of these points, the floor never
    cfg = run_length.SeriesConfig()
    kernel = run_length._row_kernel(d, i)
    block = run_length._block_rows(kernel)
    for gamma in np.linspace(0.3, 0.995, 40).tolist():
        law = run_length._run_law_at(gamma, d, i, cfg)
        assert law.size < cfg.r_max_cap  # the band is one piece
        h = run_length._max_entropy(kernel, law.size + 1.0 / (1.0 - gamma))
        for held in range(block, law.size, block):
            monkeypatch.setattr(run_length, "ROWS", _ConstantRows(h, held))
            floor, values = float(law.floor()), float(law.values())
            assert floor <= values < floor + 2.0 * run_length._floor_margin(kernel, law.size)


# ---------------------------------------------------------------------------
# The checks that read the package's internals: the constants the oracles
# restate, and the package's own arithmetic, bit for bit, its internals
# compared with one another or with a float summed the same way.  The other
# test files check the same values through the test surfaces, against
# independent references, within stated tolerances.
# ---------------------------------------------------------------------------

def test_the_tests_restated_constants_are_the_package_s():
    # the oracles restate the constants their references need; a change to
    # one of them fails here, not quietly in the tests that read the copy
    assert oracles.ROW_PAD == run_length._ROW_PAD
    assert oracles.ROW_TRIM == run_length._ROW_TRIM
    assert oracles.TINY == run_length._TINY
    assert oracles.CHUNK_CELLS == run_length._CHUNK_CELLS
    assert oracles.SEGMENT == run_length._SEGMENT
    assert oracles.SLOT_BLOCK == channel_sim._SLOT_BLOCK
    for kernel in ((0.9, 0.1), (0.2, 0.7, 0.1)):
        assert oracles.table_block(kernel) == run_length._block_rows(kernel)


@pytest.mark.parametrize("gamma", [0.3, 0.9, 0.99, 0.9972, 0.9999, 1.0 - 1e-9])
def test_grid_weights_are_the_float_weights_at_every_row(gamma):
    # a grid chunk's row is the float gamma's weights, zero past its R, in a chunk with 0.3 or alone
    cfg = run_length.SeriesConfig()
    r_max = run_length._band_start(gamma, cfg, 32)
    p = run_length._run_weights(gamma, r_max)
    plan = run_length._GridPlan(cfg, (gamma, 0.3), 32)
    row = plan.weights(plan.chunks[0])[0]
    assert np.array_equal(row[:r_max], p) and not row[r_max:].any()


def test_float_weights_values():
    # p_r = (1 - gamma) gamma**(r-1), the one statement of the source's geometric run law
    assert run_length._run_weights(0.5, 3).tolist() == [0.5, 0.25, 0.125]
    assert run_length._run_weights(0.5, 0).size == 0


def test_float_weights_partial_sum_exact():
    total = math.fsum(run_length._run_weights(0.5, 60).tolist())
    assert total == pytest.approx(1.0 - 2.0 ** -60, abs=1e-16)


@pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
def test_float_weights_partial_sums_within_tail(gamma):
    for r_max in (5, 20, 50):
        total = math.fsum(run_length._run_weights(gamma, r_max).tolist())
        assert abs(1.0 - total) <= gamma ** r_max + 1e-15


@pytest.mark.parametrize("gamma", [0.05, 0.2, 0.5, 0.8, 0.97])
def test_source_run_lengths_follow_the_float_weights(gamma):
    # the inner runs of a long source draw (the first and last are cut short)
    # have the law p_r, 4 sigma per run length of p_r >= 1e-3
    x = core.generate_markov_sequence(core.MarkovSourceParams(gamma), 10 ** 6, seed=17)
    lengths = np.array(core.to_runs(x).lengths[1:-1])
    p = run_length._run_weights(gamma, int(lengths.max()))
    freq = np.bincount(lengths - 1) / lengths.size
    heavy = p >= 1e-3
    sigma = np.sqrt(p * (1.0 - p) / lengths.size)
    assert np.all(np.abs(freq - p)[heavy] <= 4 * sigma[heavy])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.floats(gamma_optimizer.GAMMA_MIN, gamma_optimizer.GAMMA_MAX) | st.floats(0.99, gamma_optimizer.GAMMA_MAX),
       st.sampled_from([16, 32]),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.integers(8, 1 << 17))
@example(gamma_optimizer.GAMMA_MIN, 32, 1e-12, 4096)
@example(gamma_optimizer.GAMMA_MAX, 16, 1e-12, 4096)  # at the cap
@example(gamma_optimizer.GAMMA_MAX, 32, 5e-324, 1 << 17)
@example(0.9, 16, 1e-12, 8)  # a cap below one block
@example(0.999, 32, 1e-12, 100)  # a cap between two blocks
@example(0.5, 32, 0.999, 4096)  # the first block qualifies
def test_the_band_start_is_the_least_block_that_meets_the_target(gamma, block, tail_epsilon, cap):
    # the fixed-point derivation of R lands on its definition, a linear scan over the blocks
    cfg = run_length.SeriesConfig(tail_epsilon=tail_epsilon, r_max_cap=cap)
    start = run_length._band_start(gamma, cfg, block)
    assert start == oracles.reference_band_start(gamma, cfg, block)
    assert oracles.jensen_slack(gamma, start) == run_length._jensen_slack(gamma, start)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(oracles.BOUND_FORMS)),
       st.floats(0.0, 0.999), st.floats(0.0, 0.999), st.floats(0.0, 1.0),
       st.floats(gamma_optimizer.GAMMA_MIN, 0.9999))
@example("delins", 0.45, 0.55, 0.5, 0.9999)  # d + i = 1: t = -1
@example("delins", 0.7, 0.3, 1.0, 0.995)
@example("insertion_lb2", 0.0, 0.999, 0.3, 0.9999)
@example("deletion", 5e-324, 0.0, 1.0, 0.99)  # subnormal rates
@example("deletion_printed", 5e-324, 0.0, 1.0, 0.99)
@example("deletion_printed", 0.0, 0.0, 1.0, 0.5)
@example("delins", 5e-324, 0.2, 0.8, 0.6)
@example("delins", 0.3, 5e-324, 0.8, 0.9)
@example("insertion_lb2", 0.0, 5e-324, 0.8, 0.3)
@example("insertion_lb1", 0.0, 5e-324, 0.0, gamma_optimizer.GAMMA_MIN)
def test_the_grid_closed_part_and_band_are_each_gammas_own(name, d, i, alpha, gamma):
    # the grid-level H(L_X) - H(L_out) is each gamma's array form alone, and the band each gamma's
    # float pieces' W U(r_bar), U of a one-point array, added in order, bit for bit (the draws of
    # test_gamma_optimizer's test_search_objective_is_the_lb_bit_for_bit)
    if d + i > 1.0:
        d, i = i, 1.0 - i
    cfg = run_length.SeriesConfig()
    gammas = np.append(gamma_optimizer._GRID, gamma)
    p = oracles.entry_params(name, d, i, alpha)
    grid = analytic_bounds.BoundGrid(name, p, gammas, cfg)
    assume(grid._law is not None)  # LB 1 has no run-length term
    step, kernel = run_length._step_law(p.d, p.i), run_length._row_kernel(p.d, p.i)
    for g, c, b in zip(gammas.tolist(), grid._law._closed.tolist(), grid._law._band.tolist()):
        h_out = run_length._output_length_entropy(np.array([g]), step)[0]
        assert (run_length._run_length_entropy(np.array([g])) - h_out).tolist() == [c]
        start, band = run_length._band_start(g, cfg, run_length._block_rows(kernel)), 0.0
        for weight, mean in run_length._band_pieces(g, start, cfg):
            band += weight * run_length._max_entropy(kernel, np.array([mean]))[0]
        assert band == b


@pytest.mark.parametrize("cfg", [run_length.SeriesConfig(), run_length.SeriesConfig(r_max_cap=64),
                                 run_length.SeriesConfig(tail_epsilon=1e-15, r_max_cap=8)],
                         ids=["default", "cap-64", "least"])
def test_the_grid_band_is_each_gammas_float_pieces_added_in_order(cfg):
    # one segment rule: a grid plan holds each gamma's float band pieces, gamma after gamma and
    # each gamma's in their order, read-only, and the grid's band adds their W U(r_bar) in that
    # order from 0.0, as the float band does; some of these gammas' bands are segmented
    gammas = np.append(gamma_optimizer._GRID, [0.9991, 1.0 - 1e-6])
    d, i = 0.2, 0.1
    kernel = run_length._row_kernel(d, i)
    plan = run_length._grid_plan(cfg, tuple(gammas.tolist()), run_length._block_rows(kernel))
    pieces = [(k, *piece) for k, (g, r) in enumerate(zip(gammas.tolist(), plan.starts.tolist()))
              for piece in run_length._band_pieces(g, r, cfg)]
    assert len(pieces) > gammas.size
    assert [column.tolist() for column in plan.band] == [list(column) for column in zip(*pieces)]
    assert not any(column.flags.writeable for column in plan.band)
    index, weight, mean = plan.band
    band = [0.0] * gammas.size
    for k, term in zip(index.tolist(), (weight * run_length._max_entropy(kernel, mean)).tolist()):
        band[k] += term
    assert run_length._RunLawGrid(gammas, d, i, cfg)._band.tolist() == band
    for g, r, b in zip(gammas.tolist(), plan.starts.tolist(), band):  # the float band, by math's log2
        assert b == pytest.approx(run_length._band(kernel, g, r, cfg), rel=1e-14)


def _trimmed_mass(kernel, n):
    """The a-priori bound on the mass row_n misses to the table's trimming
    that the row error takes (``run_length._row_error``)."""
    return -(-n // run_length._block_rows(kernel)) * ((len(kernel) - 1) * n + 1) * run_length._ROW_TRIM


@pytest.mark.parametrize("d,i", [(0.9, 0.0), (0.0, 0.3), (0.5, 0.2)])
def test_the_row_error_is_the_trim_then_the_drift(d, i, monkeypatch, cold_rows):
    # R = 1 984 .. 2 048 at gamma = 0.99: the term's error is the row error at R (the trim bound
    # of the a-priori trimmed mass, then the rows' drift), the rounding of the row sum and that of
    # H(L_out)'s series, in that order; with nothing trimmed, the row error is the drift alone
    gamma = 0.99
    trimmed = analytic_bounds.run_law_delins_H(gamma, d, i)
    kernel = run_length._row_kernel(d, i)
    start = run_length._band_start(gamma, run_length.SeriesConfig(), run_length._block_rows(kernel))
    assert cold_rows.size == start
    mass = _trimmed_mass(kernel, start)
    row_error = mass * (math.log2(2 * start + 1) - math.log2(mass) + math.log2(math.e)) + \
        run_length._row_drift(kernel, start)
    assert run_length._row_error(kernel, start) == row_error
    row_sum = (1.01 * start + 2240.0) * 2.0 ** -53 * math.log2((len(kernel) - 1) * start + 1)
    rounding = run_length._output_length_entropy(gamma, run_length._step_law(d, i))[1]
    assert trimmed.truncation_error == row_error + row_sum + rounding
    monkeypatch.setattr(run_length, "_ROW_TRIM", 0.0)
    run_length._row_error.cache_clear()  # its cached entries took the trimming
    cold_rows.reset()
    full = analytic_bounds.run_law_delins_H(gamma, d, i)
    assert abs(trimmed.value - full.value) <= trimmed.truncation_error
    assert run_length._row_error(kernel, start) == run_length._row_drift(kernel, start)  # nothing trimmed
    monkeypatch.undo()
    run_length._row_error.cache_clear()


@pytest.mark.parametrize("gamma, cap", [(0.97, 4_096), (0.999, 4_096), (0.995, 2_000), (0.99, 1_024)])
def test_the_term_is_its_rows_band_and_closed_part(gamma, cap, cold_rows):
    # p[:R] . H[:R] by einsum, the band past R and H(L_X) - H(L_out), bit for bit
    cfg = run_length.SeriesConfig(r_max_cap=cap)
    for d, i in [(0.9, 0.0), (0.2, 0.1)]:
        kernel = run_length._row_kernel(d, i)
        start = run_length._band_start(gamma, cfg, run_length._block_rows(kernel))
        term = analytic_bounds.run_law_delins_H(gamma, d, i, cfg)
        rows = run_length.ROWS.entropies(kernel, start)
        assert start >= run_length._EXP_WEIGHTS_MIN_ROWS  # weights from one exp, as _run_law_at takes them
        p = (1.0 - gamma) * np.exp(np.arange(float(start)) * math.log(gamma))
        joint = np.einsum("r,r->", p, rows) + run_length._band(kernel, gamma, start, cfg)
        assert repr(term.value) == repr(float(np.maximum(joint + run_length._run_law_closed(gamma, d, i)[0], 0.0)))


@pytest.mark.parametrize("d, i, gamma", [
    (0.45, 0.55, 0.99), (0.9, 0.0, 0.995), (0.5, 0.5, 0.997), (1e-300, 0.0, 0.98), (0.0, 0.3, 0.97),
    (0.2, 0.1, 0.9972), (0.99, 0.0, 0.9991),
])
def test_the_band_is_one_piece_below_the_cap_and_segments_at_it(d, i, gamma, cold_rows):
    # the band is at least sum p_r U_r over every r > R (Jensen: U is concave in r), within its
    # rounding; one piece below the cap, and segments, each lowering it, at the cap
    cfg = run_length.SeriesConfig()
    kernel = run_length._row_kernel(d, i)
    start = run_length._band_start(gamma, cfg, run_length._block_rows(kernel))
    band = run_length._band(kernel, gamma, start, cfg)
    weight, mean = run_length._piece_law(gamma, start)
    piece = weight * run_length._max_entropy(kernel, mean)
    assert band == piece if start < cfg.r_max_cap else band < piece
    r = np.arange(start + 1.0, math.ceil(math.log(1e-20) / math.log(gamma)))
    p = (1.0 - gamma) * np.power(gamma, r - 1.0)
    # a segment's W U(r_bar) in closed form, against its fsum-weighted mean
    m = math.ceil(0.25 * start)
    weight = math.fsum(p[:m].tolist())
    mean = math.fsum((r[:m] * p[:m]).tolist()) / weight
    piece_weight, piece_mean = run_length._piece_law(gamma, start, m)
    segment = piece_weight * run_length._max_entropy(kernel, piece_mean)
    assert abs(segment - weight * run_length._max_entropy(kernel, mean)) <= 1e-12 * weight
    assert math.fsum((p * run_length._max_entropy(kernel, r)).tolist()) <= band * (1.0 + 1e-12)
    rows = run_length.ROWS.entropies(kernel, int(r[-1]))[start:]
    assert band - math.fsum((p * rows).tolist()) <= run_length._run_law_at(gamma, d, i, cfg).band_slack()
