"""Workload inputs and the program calls that make up one item.

Inputs are drawn with the standard library only, so that generating them
imports nothing that ``delinscap`` would import: the set-up time then
includes every module the program loads.  The same workload and seed give
the same list; the program receives only the generated values.

Each list is stratified: a range is cut into as many equal slices as there
are items and one value is drawn inside each slice.  The sorted item costs
then differ little from seed to seed, so a median over the list does not
hop between seeds.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("low_gamma", "high_gamma", "validate")

# A run has fewer than 40 items, so only the median is reported.
MAX_ITEMS = 39
# Seconds per item on a 2-core x86-64 sandbox, used only to size the list
# from --seconds; the list never depends on a measured time.
NOMINAL_ITEM_S = {"low_gamma": 0.36, "high_gamma": 1.0, "validate": 1.2}
# Fewest items: one per low_gamma group; in high_gamma two deletion slices,
# so the top slice always holds the largest gamma* of the run.
MIN_ITEMS = {"low_gamma": 3, "high_gamma": 5, "validate": 1}

# high_gamma combined-channel points whose optimum is positive and certified
# (gamma* 0.950, 0.979 and 0.980).
HIGH_GAMMA_DELINS = (
    {"d": 0.5, "i": 0.1, "alpha": 0.8},
    {"d": 0.7, "i": 0.05, "alpha": 0.8},
    {"d": 0.7, "i": 0.1, "alpha": 0.9},
)

# Untimed warm-up item of each workload, the same for every seed.  It loads
# every module and fills the lazily grown log-factorial table of the
# run-length diagnostic: for low_gamma to the top of the range; for
# high_gamma to d = 0.80, the cheapest item, since the top (d = 0.95) costs
# 3.3 s per set-up and growing the table from there to the top takes 0.1 ms.
WARMUP = {
    "low_gamma": {"channel": "deletion", "point": {"d": 0.30}},
    "high_gamma": {"channel": "deletion", "point": {"d": 0.80}},
    "validate": {"d": 0.15, "i": 0.15, "alpha": 0.6, "gamma": 0.5, "seed": 12345},
}

CASCADE_N = 6
SIM_BITS = 10 ** 6
MC_STEPS = 10 ** 6


def item_count(workload: str, seconds: float) -> int:
    n = int(seconds / NOMINAL_ITEM_S[workload])
    return max(MIN_ITEMS[workload], min(MAX_ITEMS, n))


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal slices of [lo, hi], shuffled."""
    vals = [round(lo + (hi - lo) * (k + rng.random()) / n, 6) for k in range(n)]
    rng.shuffle(vals)
    return vals


def make_items(workload: str, seed: int, seconds: float) -> list[dict]:
    """The item list of one run."""
    rng = random.Random(f"delbench:{workload}:{seed}")
    n = item_count(workload, seconds)
    if workload == "low_gamma":
        m = n // 3
        groups = [
            [{"channel": "deletion", "point": {"d": d}} for d in _strata(rng, 0.02, 0.30, m)],
            [{"channel": "insertion", "point": {"i": i, "alpha": round(rng.uniform(0.5, 1.0), 6)}}
             for i in _strata(rng, 0.05, 0.5, m)],
            [{"channel": "delins",
              "point": {"d": d, "i": i, "alpha": round(rng.uniform(0.5, 1.0), 6)}}
             for d, i in zip(_strata(rng, 0.01, 0.12, m), _strata(rng, 0.01, 0.12, m))],
        ]
        return [g[k] for k in range(m) for g in groups]
    if workload == "high_gamma":
        items = [{"channel": "deletion", "point": {"d": d}}
                 for d in _strata(rng, 0.80, 0.95, n - len(HIGH_GAMMA_DELINS))]
        step = len(items) // len(HIGH_GAMMA_DELINS)
        for k, pt in enumerate(HIGH_GAMMA_DELINS):
            items.insert(k * (step + 1), {"channel": "delins", "point": dict(pt)})
        return items
    if workload == "validate":
        cols = [_strata(rng, 0.05, 0.3, n), _strata(rng, 0.05, 0.3, n),
                _strata(rng, 0.2, 0.9, n), _strata(rng, 0.3, 0.7, n)]
        return [{"d": d, "i": i, "alpha": a, "gamma": g, "seed": rng.getrandbits(63)}
                for d, i, a, g in zip(*cols)]
    raise ValueError(f"unknown workload {workload!r}")


def run_bound_item(item: dict):
    """One single-point sweep, the call behind ``delinscap sweep``."""
    from delinscap import gamma_optimizer

    return gamma_optimizer.sweep(item["channel"], [item["point"]])[0]


def run_validate_item(item: dict) -> dict:
    """The three-way check of one (d, i, alpha, gamma) point, program calls only."""
    from delinscap import channel_sim, core, exact_oracle, mc_estimator

    params = core.ChannelParams(d=item["d"], i=item["i"], alpha=item["alpha"])
    gamma, seed = item["gamma"], item["seed"]
    out = {"cascade_gap": exact_oracle.cascade_equivalence_check(CASCADE_N, params, seed=seed)}
    x_law = [(seed >> k) & 1 for k in range(CASCADE_N)]
    out["law"] = exact_oracle.enumerate_channel_law(x_law, params)

    x = core.generate_markov_sequence(core.MarkovSourceParams(gamma), SIM_BITS, seed)
    sim = channel_sim.apply_delins(x, params, seed + 1)
    flipped = channel_sim.flip_complementary(sim.y, sim.aux.t_flags)
    out["augmented"] = channel_sim.augment_with_deleted_runs(flipped, sim.aux.s_counts)
    out["x"], out["y_len"], out["pattern"] = x, sim.m, sim.pattern

    out["hT"] = mc_estimator.estimate_hT(item["i"], item["alpha"], gamma, MC_STEPS, seed=seed + 2)
    out["S"] = mc_estimator.estimate_delins_S_term(gamma, item["d"], item["i"], item["alpha"],
                                                   MC_STEPS, seed=seed + 3)
    return out


def run_item(workload: str, item: dict):
    return run_validate_item(item) if workload == "validate" else run_bound_item(item)


def reference_seconds() -> float:
    """Wall time of a fixed reference kernel that is not the program's code.

    The host is shared: the same code runs up to 20-30% slower for tens of
    seconds at a time while other tenants are busy.  Timing this kernel
    right beside the program's calls measures the machine's speed at that
    moment.  It mixes an interpreted loop with small numpy calls, as the
    program's hot paths do.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for k in range(300_000):
        acc += k * k
    row, step = np.array([1.0]), np.array([0.25, 0.5, 0.25])
    for _ in range(1200):
        row = np.convolve(row, step)
        pos = row[row > 0.0]
        acc += float(np.dot(pos, np.log2(pos)))
    return time.perf_counter() - t0


# reference_seconds() at the median speed of a 2-core x86-64 sandbox; the
# reported times are wall times scaled by REFERENCE_S / reference_seconds()
REFERENCE_S = 0.032


def setup(workload: str) -> tuple[float, float, float]:
    """Import the CLI module, then run the warm-up item:
    (import_s, warmup_s, reference_s measured right after)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import delinscap.cli  # noqa: F401

    t1 = time.perf_counter()
    run_item(workload, WARMUP[workload])
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, statistics.median(reference_seconds() for _ in range(3))


if __name__ == "__main__":
    # Set-up probe: a fresh interpreter measures one more set-up sample.
    print(json.dumps(setup(sys.argv[1])))
