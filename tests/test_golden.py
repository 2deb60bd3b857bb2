"""Every number of the golden set (``golden.py``) is recomputed and compared
repr for repr, and every simulator hash of ``golden_sim.jsonl`` hash for hash."""

import copy
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
    assert sorted(lines[1:]) == sorted([f"  bound_bits: largest |move| {math.ulp(float(expected[1]['bound_bits']))!r}",
                                        f"  {name}: largest |move| 0.5"])
    assert golden.summary(expected, expected).splitlines() == ["0 of 3 cases moved; gamma_star moved in 0"]
    assert golden.moved_by_rounding(expected, got) and golden.moved_by_rounding(expected, expected)
    # a bound_bits move past the case's own error_budget is named, and fails the gate
    budget = float(expected[2]["error_budget"])
    got[2]["bound_bits"] = repr(float(got[2]["bound_bits"]) - 2.0 * budget)
    lines = golden.summary(expected, got).splitlines()
    assert lines[0] == "2 of 3 cases moved; gamma_star moved in 0"
    assert lines[-1] == f"  bound_bits moved past its error_budget in: {expected[2]['case']}"
    assert not golden.moved_by_rounding(expected, got)
    # so does any gamma_star move, and a different case list
    got = copy.deepcopy(expected)
    got[0]["gamma_star"] = repr(math.nextafter(float(got[0]["gamma_star"]), 1.0))
    assert golden.summary(expected, got).splitlines()[0] == "1 of 3 cases moved; gamma_star moved in 1"
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
