"""Checks of every item's outputs against independent computations.

No check compares against a stored copy of an earlier output.  The bound
checks use properties every valid bound has (the erasure upper bound, the
source entropy rate, a certified truncation budget, a local maximum over
gamma) and, for deletion items, a recomputation of the run-length penalty
that shares no code with the program.  The validate checks count from the
realised channel pattern and compare Monte Carlo estimates with the
analytic limits.  Each function returns a list of problems; empty means
the item passed.
"""

from __future__ import annotations

import math

import numpy as np

BUDGET_LIMIT = 1e-9
LOCAL_MAX_STEP = 1e-4
SLACK = 1e-9
FREQ_SIGMAS = 5.0
# the geometric tail of the run-length recomputation is cut below this
RECOMPUTE_TAIL = 1e-13
# rows are summed over |s - r p| <= HOEFFDING_T * sqrt(r); by Hoeffding the
# omitted mass of a row is at most 2 exp(-2 HOEFFDING_T**2) = 3.9e-22
HOEFFDING_T = 5.0


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def check_bound(channel: str, point: dict, row: dict, lb_at) -> list[str]:
    """Properties of one optimised bound.  ``lb_at(g)`` evaluates the
    winning ``lb_*`` at gamma ``g`` without diagnostics."""
    res = row["result"]
    bound, g, d = res.bound_bits, res.gamma_star, point.get("d", 0.0)
    problems = []
    if not bound <= 1.0 - d:
        problems.append(f"bound {bound!r} exceeds the erasure bound 1 - d = {1.0 - d!r}")
    if not bound <= h2(g):
        problems.append(f"bound {bound!r} exceeds the source entropy h({g!r}) = {h2(g)!r}")
    if not res.error_budget <= BUDGET_LIMIT:
        problems.append(f"error budget {res.error_budget!r} above {BUDGET_LIMIT}")
    for step in (-LOCAL_MAX_STEP, LOCAL_MAX_STEP):
        v = lb_at(g + step)
        if v > bound + SLACK:
            problems.append(f"gamma* {g!r} is no local maximum: lb({g + step!r}) = {v!r} > {bound!r}")
    if channel == "insertion":
        lb_max = max(row["lb1"], row["lb2"])
        if row["lb_max"] != lb_max or bound != lb_max:
            problems.append(f"lb_max {row['lb_max']!r} / bound {bound!r} != max(lb1, lb2) {lb_max!r}")
    return problems


def deletion_run_length_penalty(gamma: float, d: float) -> float:
    """(1 - gamma) H(L_X | L_Y) for the deletion channel, computed apart.

    H(L_X | L_Y) = H(L_X) + sum_r P(L_X = r) H(Binomial(r, 1 - d)) - H(L_Y).
    L_X is geometric, so H(L_X) = h(gamma) / (1 - gamma).  L_Y is 0 with
    probability (1 - gamma) d / (1 - gamma d) and otherwise geometric with
    ratio rho = gamma (1 - d) / (1 - gamma d), so H(L_Y) is exact.  The sum
    is truncated at R where its remainder, at most
    gamma**R (log2(R + 1) + 1 / ((1 - gamma)(R + 1) ln 2)), is below
    RECOMPUTE_TAIL; each binomial row is taken from scipy.
    """
    from scipy import special, stats  # loaded after the timed loop, outside its peak memory

    p = 1.0 - d
    gb = 1.0 - gamma
    r_max = 1
    while gamma ** r_max * (math.log2(r_max + 1) + 1.0 / (gb * (r_max + 1) * math.log(2.0))) > RECOMPUTE_TAIL:
        r_max += max(1, r_max // 8)

    rows = []
    for start in range(1, r_max + 1, 256):
        r = np.arange(start, min(start + 256, r_max + 1))
        half = np.ceil(HOEFFDING_T * np.sqrt(r)).astype(int)
        lo = np.maximum(0, np.floor(r * p).astype(int) - half)
        hi = np.minimum(r, np.ceil(r * p).astype(int) + half)
        s = lo[:, None] + np.arange(int((hi - lo).max()) + 1)[None, :]
        inside = s <= hi[:, None]
        pmf = np.where(inside, stats.binom.pmf(s, r[:, None], p), 0.0)
        rows.append(special.entr(pmf).sum(axis=1) / math.log(2.0))
    row_h = np.concatenate(rows)
    r_all = np.arange(1, r_max + 1)
    p_r = gb * gamma ** (r_all - 1.0)
    mid = math.fsum((p_r * row_h).tolist())

    h_x = h2(gamma) / gb
    p0 = gb * d / (1.0 - gamma * d)
    beta = gb * p / (1.0 - gamma * d) ** 2
    rho = gamma * p / (1.0 - gamma * d)
    h_y = -beta * rho / (1.0 - rho) ** 2 * math.log2(rho) - (1.0 - p0) * math.log2(beta)
    if p0 > 0.0:
        h_y -= p0 * math.log2(p0)
    return gb * (h_x + mid - h_y)


def check_run_length_penalty(gamma: float, d: float, result) -> list[str]:
    """The program's deletion run-length penalty against the recomputation."""
    terms = {t.name: t.value for t in result.terms}
    ref = deletion_run_length_penalty(gamma, d)
    gap = abs(terms["run_length_penalty"] - ref)
    if gap > result.error_budget + SLACK:
        return [f"run_length_penalty {terms['run_length_penalty']!r} differs from the "
                f"recomputation {ref!r} by {gap:.3e} > budget + {SLACK}"]
    return []


def summarise_validate(out: dict) -> dict:
    """Reduce one validate item's outputs to what the checks need, counting
    from the realised pattern and the input itself."""
    x = out["x"]
    return {
        "cascade_gap": out["cascade_gap"],
        "law": out["law"],
        "actions": np.bincount(out["pattern"], minlength=4).tolist(),
        "y_len": out["y_len"],
        "input_runs": int(x.size > 0) + int(np.count_nonzero(x[1:] != x[:-1])),
        "augmented_runs": out["augmented"].num_runs,
        "hT": out["hT"].value,
        "S": out["S"].value,
    }


def check_validate(item: dict, summary: dict, refs: dict) -> list[str]:
    """``refs`` holds the program's tolerances and analytic limits:
    TOL_CASCADE, TOL_MC, TOL_MC_DELINS, hT and S."""
    d, i, a = item["d"], item["i"], item["alpha"]
    problems = []
    if not summary["cascade_gap"] <= refs["TOL_CASCADE"]:
        problems.append(f"cascade gap {summary['cascade_gap']!r} above {refs['TOL_CASCADE']}")
    total = math.fsum(summary["law"].values())
    if not abs(total - 1.0) <= 1e-12:
        problems.append(f"direct law sums to {total!r}")
    n_del, n_keep, n_dup, n_comp = summary["actions"]
    if summary["y_len"] != n_keep + 2 * (n_dup + n_comp):
        problems.append(f"output length {summary['y_len']} != keep + 2 (dup + comp) "
                        f"= {n_keep + 2 * (n_dup + n_comp)}")
    if summary["augmented_runs"] != summary["input_runs"]:
        problems.append(f"augmented run count {summary['augmented_runs']} != "
                        f"input run count {summary['input_runs']}")
    n = sum(summary["actions"])
    for name, count, prob in zip(("delete", "keep", "duplicate", "complement"),
                                 summary["actions"], (d, 1.0 - d - i, i * a, i * (1.0 - a))):
        sigma = math.sqrt(prob * (1.0 - prob) / n)
        if abs(count / n - prob) > FREQ_SIGMAS * sigma:
            problems.append(f"{name} frequency {count / n!r} is beyond {FREQ_SIGMAS} sigma of {prob!r}")
    if not abs(summary["hT"] - refs["hT"]) <= refs["TOL_MC"]:
        problems.append(f"MC hT {summary['hT']!r} vs analytic {refs['hT']!r}")
    if not abs(summary["S"] - refs["S"]) <= refs["TOL_MC_DELINS"]:
        problems.append(f"MC S term {summary['S']!r} vs analytic {refs['S']!r}")
    return problems
