"""The package's public API is the four modules' ``__all__`` lists, declared once."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import delinscap
from delinscap import analytic_bounds, channel_sim, core, gamma_optimizer

MODULES = (core, channel_sim, analytic_bounds, gamma_optimizer)


def test_package_all_is_the_module_lists_joined():
    assert delinscap.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(delinscap.__all__)) == len(delinscap.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(delinscap, name) is getattr(module, name)


def test_each_public_name_is_its_defining_modules_object():
    # a re-export, such as analytic_bounds' run-length names, is the object of the module that defines it
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            home = sys.modules[getattr(value, "__module__", None) or module.__name__]
            assert getattr(home, name) is value, f"{module.__name__}.{name}"


def _package_imports() -> dict[str, set[str]]:
    """Each module of the package -> the package's modules its source imports, at any depth of its code."""
    graph = {}
    for path in sorted(Path(delinscap.__file__).parent.glob("*.py")):
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
