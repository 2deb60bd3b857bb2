"""Every number of the golden set (``golden.py``) is recomputed and compared
repr for repr, and every simulator hash of ``golden_sim.jsonl`` hash for hash."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden


def test_golden_numbers_are_unchanged():
    expected = golden.load()
    got = golden.compute()
    assert [r["case"] for r in got] == [r["case"] for r in expected]
    assert got == expected, golden.summary(expected, got)


def test_simulator_hashes_are_unchanged():
    expected = golden.load(golden.SIM_PATH)
    got = golden.compute_sim()
    assert [r["case"] for r in got] == [r["case"] for r in expected]
    for e, g in zip(expected, got):
        assert g == e, e["case"]


def test_summary_gives_the_largest_move_per_column():
    expected = golden.load()[:3]
    got = copy.deepcopy(expected)
    got[1]["bound_bits"] = repr(math.nextafter(float(got[1]["bound_bits"]), 2.0))
    name = next(iter(got[2]["terms"]))
    got[2]["terms"][name] = repr(float(got[2]["terms"][name]) + 0.5)
    lines = golden.summary(expected, got).splitlines()
    assert lines[0] == "2 of 3 cases moved; gamma_star moved in 0"
    assert sorted(lines[1:]) == sorted([f"  bound_bits: largest |move| {math.ulp(float(expected[1]['bound_bits']))!r}"
                                        "; 1 up, 0 down", f"  {name}: largest |move| 0.5; 1 up, 0 down"])
    assert golden.summary(expected, expected).splitlines() == ["0 of 3 cases moved; gamma_star moved in 0"]
    assert golden.moved_by_rounding(expected, got) and golden.moved_by_rounding(expected, expected)
    # a bound_bits move past the case's own error_budget gets a line of its own, and fails the gate
    budget = expected[2]["error_budget"]
    got[2]["bound_bits"] = repr(float(got[2]["bound_bits"]) - 2.0 * float(budget))
    lines = golden.summary(expected, got).splitlines()
    assert lines[0] == "2 of 3 cases moved; gamma_star moved in 0"
    fall = float(got[2]["bound_bits"]) - float(expected[2]["bound_bits"])
    assert f"  bound_bits: largest |move| {-fall!r}; 1 up, 1 down; most negative move {fall!r}" in lines
    e = expected[2]
    assert lines[-1] == (f"  {e['case']}: gamma_star {e['gamma_star']} -> {e['gamma_star']}; "
                         f"bound_bits {e['bound_bits']} -> {got[2]['bound_bits']}; error_budget {budget}")
    assert not golden.moved_by_rounding(expected, got)
    # so does any gamma_star move, and a different case list
    got = copy.deepcopy(expected)
    got[0]["gamma_star"] = repr(math.nextafter(float(got[0]["gamma_star"]), 1.0))
    lines = golden.summary(expected, got).splitlines()
    assert lines[0] == "1 of 3 cases moved; gamma_star moved in 1"
    e = expected[0]
    assert lines[1:] == [f"  gamma_star: largest |move| {math.ulp(float(e['gamma_star']))!r}; 1 up, 0 down",
                         f"  {e['case']}: gamma_star {e['gamma_star']} -> {got[0]['gamma_star']}; "
                         f"bound_bits {e['bound_bits']} -> {e['bound_bits']}; error_budget {e['error_budget']}"]
    assert not golden.moved_by_rounding(expected, got)
    assert not golden.moved_by_rounding(expected, got[:2])


@pytest.mark.parametrize("flags", [["--diff", "--cli"], ["--diff", "--sim"], ["--sim", "--cli"]])
def test_modes_together_are_a_usage_error_that_writes_nothing(flags):
    # --cli and --sim were read before --diff: "--diff --cli" rewrote golden_cli.jsonl and exited 0
    files = (golden.PATH, golden.SIM_PATH, golden.CLI_PATH)
    before = [f.read_bytes() for f in files]
    src = str(Path(golden.__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, golden.__file__, *flags], capture_output=True, text=True, env=env,
                         timeout=60)
    assert run.returncode == 2
    assert "not allowed with argument" in run.stderr and not run.stdout
    assert [f.read_bytes() for f in files] == before


_D099 = "optimize_bound deletion d=0.99"
_D099_SCRIPT = """
import json, sys
import numpy  # loaded first, so the thread count set below is the one OpenBLAS starts with
import golden
from delinscap.analytic_bounds import SeriesConfig
from delinscap.gamma_optimizer import optimize_bound
res = optimize_bound("deletion", d=0.99, cfg=SeriesConfig(r_max_cap=int(sys.argv[1])))
print(json.dumps(golden._record("%s", res)))
""" % _D099


@pytest.mark.parametrize("cap", [4_096, 20_000])
def test_d099_has_the_same_bits_on_one_and_two_threads(cap):
    # the rows are summed by einsum, whose order numpy fixes: a threaded BLAS dot once
    # gave the committed d = 0.99 residual other bits under one thread
    tests = str(Path(golden.__file__).resolve().parent)
    src = str(Path(tests).parent / "src")
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, tests] + [os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", _D099_SCRIPT, str(cap)], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        runs.append(json.loads(run.stdout))
    assert runs[0] == runs[1]
    if cap == 4_096:
        assert runs[0] == next(r for r in golden.load() if r["case"] == _D099)


def test_cli_bound_prints_the_d099_golden_terms():
    record = next(r for r in golden.load() if r["case"] == _D099)
    run = golden.run_cli("delinscap bound --channel deletion --d 0.99 --json")
    assert run["exit"] == 0
    lb = json.loads(run["stdout"])["bounds"]["lb"]
    assert {t["name"]: repr(t["value"]) for t in lb["terms"]} == record["terms"]
    assert [repr(lb[key]) for key in ("bound_bits", "gamma_star", "error_budget")] == \
        [record[key] for key in ("bound_bits", "gamma_star", "error_budget")]


def test_readme_figures_are_current():
    # README quotes its figures in one table, which golden.py's default run writes: each figure case's
    # committed bound, gamma* and budget, and the rows held and exact probes of a cold solve
    text = golden.README.read_text(encoding="utf-8")
    assert golden.with_figures(text, golden.figures_table(golden.load())) == text
    with pytest.raises(ValueError, match="no figures table"):
        golden.with_figures("# a README without the markers\n", "")
