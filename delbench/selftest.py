"""Self-tests of the benchmark.

    python3 delbench/selftest.py            # or: python3 -m pytest delbench/selftest.py

The fast mode runs every workload to its end on a tiny item list (--seconds 1).
The check tests take real program outputs, corrupt one field and show that the
check meant to catch it rejects the item, while the clean outputs pass.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

from delinscap import analytic_bounds as ab, verification  # noqa: E402


def _run_fast(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class FastMode(unittest.TestCase):
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def test_every_workload_runs_to_its_end(self):
        wanted = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in workloads.WORKLOADS:
            _, result = _run_fast(workload, 0)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(result["attempted"], workloads.MIN_ITEMS[workload])
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, wanted)
            self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_run_reports_every_per_layer_metric(self):
        wanted = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload, present in (("low_gamma", "gamma_optimizer.objective_evals"),
                                  ("validate", "exact_oracle.law_calls")):
            lines, result = _run_fast(workload, 1)
            self.assertTrue(result["correct"])
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, wanted)
            absent = next(line for line in lines if line.startswith("absent"))
            self.assertNotIn(present, absent)
            self.assertGreater(result["metrics"][present]["value"], 0)


class BoundChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.item = {"channel": "deletion", "point": {"d": 0.1}}
        cls.row = workloads.run_bound_item(cls.item)
        cls.ins_item = {"channel": "insertion", "point": {"i": 0.2, "alpha": 0.8}}
        cls.ins_row = workloads.run_bound_item(cls.ins_item)

    def problems(self, item, row, **changes):
        row = {**row, "result": dataclasses.replace(row["result"], **changes)}
        lb_at = run._lb_at(item["channel"], item["point"], row["result"])
        return checks.check_bound(item["channel"], item["point"], row, lb_at)

    def test_clean_rows_pass(self):
        self.assertEqual(self.problems(self.item, self.row), [])
        self.assertEqual(self.problems(self.ins_item, self.ins_row), [])
        res = self.row["result"]
        self.assertEqual(checks.check_run_length_penalty(res.gamma_star, 0.1, res), [])

    def test_bound_above_erasure_bound_rejected(self):
        found = self.problems(self.item, self.row, bound_bits=0.9 + 1e-3)
        self.assertTrue(any("erasure" in p for p in found), found)

    def test_bound_above_source_entropy_rejected(self):
        g = self.row["result"].gamma_star
        found = self.problems(self.item, self.row, bound_bits=checks.h2(g) + 1e-6)
        self.assertTrue(any("source entropy" in p for p in found), found)

    def test_budget_above_limit_rejected(self):
        found = self.problems(self.item, self.row, error_budget=2 * checks.BUDGET_LIMIT)
        self.assertTrue(any("error budget" in p for p in found), found)

    def test_gamma_star_off_the_maximum_rejected(self):
        found = self.problems(self.item, self.row, bound_bits=self.row["result"].bound_bits - 1e-6)
        self.assertTrue(any("local maximum" in p for p in found), found)

    def test_lb_max_not_the_larger_bound_rejected(self):
        row = {**self.ins_row, "lb_max": min(self.ins_row["lb1"], self.ins_row["lb2"])}
        found = self.problems(self.ins_item, row)
        self.assertTrue(any("lb_max" in p for p in found), found)

    def test_wrong_run_length_penalty_rejected(self):
        res = self.row["result"]
        terms = tuple(dataclasses.replace(t, value=t.value + 1e-7) if t.name == "run_length_penalty" else t
                      for t in res.terms)
        found = checks.check_run_length_penalty(res.gamma_star, 0.1, dataclasses.replace(res, terms=terms))
        self.assertTrue(any("recomputation" in p for p in found), found)

    def test_largest_gamma_star_off_a_deletion_item_rejected(self):
        items = [self.item, {"channel": "delins", "point": dict(workloads.HIGH_GAMMA_DELINS[0])}]
        outputs = [self.row, workloads.run_bound_item(items[1])]
        per_item, run_problems = run.check_items("high_gamma", items, outputs)
        self.assertEqual(per_item, [[], []])
        self.assertEqual(len(run_problems), 1)


class ValidateChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.item = workloads.WARMUP["validate"]
        out = workloads.run_validate_item(cls.item)
        cls.summary = checks.summarise_validate(out)
        g, d, i, a = cls.item["gamma"], cls.item["d"], cls.item["i"], cls.item["alpha"]
        cls.refs = {"TOL_CASCADE": verification.TOL_CASCADE, "TOL_MC": verification.TOL_MC,
                    "TOL_MC_DELINS": verification.TOL_MC_DELINS,
                    "hT": ab.h_T_limit(i, a, g), "S": ab.delins_S_term(g, d, i, a).value}

    def problems(self, **changes):
        return checks.check_validate(self.item, {**self.summary, **changes}, self.refs)

    def assertRejected(self, text, **changes):
        found = self.problems(**changes)
        self.assertTrue(any(text in p for p in found), found)

    def test_clean_item_passes(self):
        self.assertEqual(self.problems(), [])

    def test_cascade_gap_rejected(self):
        self.assertRejected("cascade gap", cascade_gap=10 * verification.TOL_CASCADE)

    def test_perturbed_oracle_law_rejected(self):
        law = dict(self.summary["law"])
        key = next(iter(law))
        law[key] += 1e-9
        self.assertRejected("direct law", law=law)

    def test_wrong_output_length_rejected(self):
        self.assertRejected("output length", y_len=self.summary["y_len"] + 1)

    def test_wrong_augmented_run_count_rejected(self):
        self.assertRejected("augmented run count", augmented_runs=self.summary["augmented_runs"] + 1)

    def test_skewed_action_frequencies_rejected(self):
        n_del, n_keep, n_dup, n_comp = self.summary["actions"]
        shift = n_del // 50
        self.assertRejected("delete frequency", actions=[n_del - shift, n_keep + shift, n_dup, n_comp],
                            y_len=self.summary["y_len"] + shift)

    def test_monte_carlo_estimates_off_rejected(self):
        self.assertRejected("MC hT", hT=self.refs["hT"] + 2 * verification.TOL_MC)
        self.assertRejected("MC S term", S=self.refs["S"] + 2 * verification.TOL_MC_DELINS)


class Spans(unittest.TestCase):
    def test_self_time_and_counts(self):
        # item 0: optimize_bound [0, 10] holding lb [1, 4] (a run_law [2, 3] inside) and lb [5, 9]
        recorded = [
            ("gamma_optimizer.optimize_bound", 0.0, 10.0, -1, 0, 1),
            ("analytic_bounds.lb", 1.0, 4.0, 0, 0, 1),
            ("analytic_bounds.run_law", 2.0, 3.0, 1, 0, 1),
            ("analytic_bounds.lb", 5.0, 9.0, 0, 0, 1),
        ]
        metrics, absent = spans.per_layer_metrics(recorded, [10.0], [1.0], 0.5, 0.0)
        self.assertEqual(metrics["analytic_bounds.lb_self_s"], 6.0)
        self.assertEqual(metrics["analytic_bounds.run_law_s"], 1.0)
        self.assertEqual(metrics["gamma_optimizer.objective_evals"], 2)
        self.assertEqual(metrics["gamma_optimizer.final_eval_s"], 4.0)
        self.assertEqual(metrics["cli.import_s"], 0.5)
        self.assertEqual(set(metrics), set(spans.PER_LAYER))
        self.assertIn("exact_oracle.cascade_s", absent)
        self.assertNotIn("analytic_bounds.lb_calls", absent)


if __name__ == "__main__":
    unittest.main()
