"""Steadiness check: two sets of runs of the same code, compared.

    python3 delbench/steadiness.py

Each set runs every workload of BENCHMARK.json once per seed, at its
run_seconds, rotating the order of the workloads from seed to seed.  Set 1
uses seeds 1-10 and set 2 seeds 11-20.  For each workload and end-to-end
metric it prints each set's median and quartiles, the spread
(q3 - q1) / median, and how far set 2's median lies from set 1's in the
worse direction.  The code is steady when every spread and every shift is
within the metric's bound in BENCHMARK.json and every run has the same
share of failed items.  Every run's result is saved to
.delbench/steadiness.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    chosen = [w["name"] for w in spec["workloads"]]

    runs = []
    for s in range(2):
        for j in range(RUNS):
            seed = 1 + s * RUNS + j
            for k in range(len(chosen)):
                workload = chosen[(j + k) % len(chosen)]
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    capture_output=True, text=True, timeout=600)
                wall = time.perf_counter() - t0
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    raise SystemExit(f"run failed: {workload} seed {seed}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                runs.append({"set": s + 1, "workload": workload, "seed": seed, "wall_s": wall, **result})
                print(f"set {s + 1} seed {seed:3d} {workload:10s} wall {wall:6.1f} s  correct {result['correct']}"
                      f"  failed {result['failed']}/{result['attempted']}", flush=True)
    (ROOT / ".delbench").mkdir(exist_ok=True)
    (ROOT / ".delbench" / "steadiness.json").write_text(json.dumps(runs, indent=1), encoding="utf-8")

    ok = True
    print()
    print(f"{'workload':10s} {'metric':12s} " + " ".join(
        f"{'set ' + str(s + 1) + ' median [q1, q3] spread':>40s}" for s in range(2))
        + f" {'shift':>7s} {'bound':>6s}")
    for workload in chosen:
        mine = [r for r in runs if r["workload"] == workload]
        shares = {r["failed"] / r["attempted"] for r in mine}
        if len(shares) != 1 or not all(r["correct"] for r in mine):
            ok = False
            print(f"{workload}: failed shares {sorted(shares)}, correct {[r['correct'] for r in mine]}")
        for m in spec["end_to_end"]:
            cols, medians = [], []
            for s in range(2):
                vals = [r["metrics"][m["name"]]["value"] for r in mine if r["set"] == s + 1]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                cols.append(f"{med:12.5g} [{q1:.5g}, {q3:.5g}] {spread:6.1%}")
                if spread > m["bound"]:
                    ok = False
            worse = (medians[1] - medians[0]) / medians[0] * (1 if m["better"] == "lower" else -1)
            ok = ok and worse <= m["bound"]
            print(f"{workload:10s} {m['name']:12s} " + " ".join(f"{c:>40s}" for c in cols)
                  + f" {worse:+7.1%} {m['bound']:6.0%}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
