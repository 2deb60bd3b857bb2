"""Benchmark of delinscap: bound solves at low and high gamma*, and validation.

    python3 delbench/run.py --workload low_gamma|high_gamma|validate \\
        --seed N --seconds S --trace 0|1

One process on one thread works through a fixed list of distinct items made
from the seed; --seconds sets the length of the list (about that many
seconds of work on a 2-core x86-64 sandbox), never a time limit, so every
run with the same arguments does the same work.  Every item's outputs are
checked after the timed loop.

The host is shared, and its speed drifts by 20-30% over tens of seconds.
A fixed reference kernel is timed before the first item and after every
item and set-up; each time is reported scaled by REFERENCE_S over the
kernel's time around it, that is in seconds of a machine running at the
median speed of the reference sandbox.  The raw wall times are printed on
the line before the result and saved with it.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the loop runs traced and the
metrics are the per-layer ones.  Results and traces are also written under
.delbench/ at the root of the checkout.
"""

from __future__ import annotations

import os

# The installed numpy links OpenBLAS, which starts one thread per core.  Pin
# it (and any other BLAS) to one thread before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 3
OUT_DIR = workloads.ROOT / ".delbench"
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s", "peak_rss_mib": "MiB"}


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _setup_samples(workload: str) -> list[tuple[float, float, float]]:
    """This process's set-up, then more in fresh interpreters."""
    samples = [workloads.setup(workload)]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), workload],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return samples


def _lb_at(channel: str, point: dict, result):
    """The winning lb_* of a sweep row as a function of gamma, no diagnostics."""
    from delinscap import analytic_bounds as ab

    d, i, a = point.get("d", 0.0), point.get("i", 0.0), point.get("alpha", 1.0)
    if channel == "deletion":
        return lambda g: ab.lb_deletion(d, g, diagnostics=False).bound_bits
    if channel == "delins":
        return lambda g: ab.lb_delins(d, i, a, g, diagnostics=False).bound_bits
    if any(t.name == "insertion_positions_penalty" for t in result.terms):
        return lambda g: ab.lb1_insertion(i, a, g).bound_bits
    return lambda g: ab.lb2_insertion(i, a, g).bound_bits


def check_items(workload: str, items: list[dict], outputs: list) -> tuple[list[list[str]], list[str]]:
    """Problems per item, and problems of the run as a whole."""
    import checks

    per_item, run_problems = [], []
    if workload == "validate":
        from delinscap import analytic_bounds as ab, verification

        for item, summary in zip(items, outputs):
            refs = {"TOL_CASCADE": verification.TOL_CASCADE, "TOL_MC": verification.TOL_MC,
                    "TOL_MC_DELINS": verification.TOL_MC_DELINS,
                    "hT": ab.h_T_limit(item["i"], item["alpha"], item["gamma"]),
                    "S": ab.delins_S_term(item["gamma"], item["d"], item["i"], item["alpha"]).value}
            per_item.append(checks.check_validate(item, summary, refs))
        return per_item, run_problems

    for item, row in zip(items, outputs):
        channel, point, res = item["channel"], item["point"], row["result"]
        problems = checks.check_bound(channel, point, row, _lb_at(channel, point, res))
        if channel == "deletion":
            problems += checks.check_run_length_penalty(res.gamma_star, point["d"], res)
        per_item.append(problems)
    top = max(range(len(items)), key=lambda k: outputs[k]["result"].gamma_star)
    if items[top]["channel"] != "deletion":
        run_problems.append("the largest gamma* of the run is not on a deletion item, "
                            "so its run-length penalty was not recomputed")
    return per_item, run_problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (workloads.SRC / "delinscap" / "__init__.py").is_file():
        print(f"error: no delinscap sources under {workloads.SRC}", file=sys.stderr)
        return 2
    items = workloads.make_items(args.workload, args.seed, args.seconds)

    setups = _setup_samples(args.workload)
    import checks  # numpy loads only after the program's own imports

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    outputs, item_times, refs = [], [], [workloads.reference_seconds()]
    for k, item in enumerate(items):
        if tracer:
            tracer.item = k
        t0 = time.perf_counter()
        out = workloads.run_item(args.workload, item)
        item_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.item = None
        refs.append(workloads.reference_seconds())
        outputs.append(checks.summarise_validate(out) if args.workload == "validate" else out)
        del out
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = [2.0 * workloads.REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
    scaled = [t * f for t, f in zip(item_times, scale)]

    per_item, run_problems = check_items(args.workload, items, outputs)
    failed = sum(1 for p in per_item if p)
    for k, problems in enumerate(per_item):
        for problem in problems:
            print(f"FAIL item {k} {json.dumps(items[k], sort_keys=True)}: {problem}", file=sys.stderr)
    for problem in run_problems:
        print(f"FAIL run: {problem}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wall = {
        "setup_s": statistics.median(s[0] + s[1] for s in setups),
        "items_per_s": len(items) / sum(item_times),
        "item_p50_s": statistics.median(item_times),
        "speed": workloads.REFERENCE_S / statistics.median(refs),
    }
    if tracer:
        metrics, absent = spans.per_layer_metrics(tracer.spans, item_times, scale,
                                                  statistics.median(s[0] for s in setups),
                                                  spans.span_cost())
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print("absent (reported as 0): " + (", ".join(absent) or "none"))
        units = {name: spec[0] for name, spec in spans.PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": statistics.median((s[0] + s[1]) * workloads.REFERENCE_S / s[2] for s in setups),
            "items_per_s": len(items) / sum(scaled),
            "item_p50_s": statistics.median(scaled),
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": len(items),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"result": result, "wall": wall, "item_s": item_times, "reference_s": refs, "setups": setups}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    print("wall: " + " ".join(f"{k}={v:.6g}" for k, v in wall.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
