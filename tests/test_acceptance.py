"""Acceptance suite: one test per contract criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria 1, 3 and 5-7 assert on the named checks of a report of
README's ``delinscap verify`` examples, the run that the CLI contract tests
compare byte for byte; the suites in ``delinscap.verification`` are the one
computation behind them.  Monte Carlo checks use fixed seeds and full-length
(1e6) chains; the whole suite is budgeted to run in a few minutes.
"""

import json

import numpy as np

from delinscap.core import ChannelParams
from delinscap import analytic_bounds as ab
from delinscap import exact_oracle as oracle
from delinscap.gamma_optimizer import sweep
from delinscap import verification as ver

import oracles

ORACLE = "delinscap verify oracle --n-max 8"
REDUCTIONS = "delinscap verify reductions"
TRUNCATION = "delinscap verify truncation"


def _announce(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _checks(readme_run, command: str, *prefixes: str) -> dict[str, dict]:
    """The checks of ``command``'s report whose names start with one of
    ``prefixes``, by name; at least one per prefix."""
    checks = json.loads(readme_run(command)["stdout"])["checks"]
    named = {c["name"]: c for c in checks if c["name"].startswith(prefixes)}
    for prefix in prefixes:
        assert any(name.startswith(prefix) for name in named), f"{command} reports no {prefix}* check"
    return named


def test_criterion_1_cascade_equivalence(readme_run):
    checks = _checks(readme_run, ORACLE, "cascade_equivalence_").values()
    ok = len(checks) == len(ver.CASCADE_PARAMS) and all(
        c["passed"] and "all 8-bit inputs" in c["detail"] for c in checks)
    worst = max(c["measured"] for c in checks)
    _announce(1, ok, f"cascade equivalence over all 8-bit inputs, max gap {worst:.3e} <= 1e-12")


def test_criterion_2_run_law_oracle():
    worst = 0.0
    for d in ver.RUN_LAW_DELETION_POINTS:
        table = oracle.exact_run_law(8, ChannelParams(d=d))
        worst = max(worst, max(float(np.abs(table[r] - oracles.deletion_run_law_row(r, d)).max()) for r in table))
    for i, a in ver.RUN_LAW_INSERTION_POINTS:
        table = oracle.exact_run_law(8, ChannelParams(i=i, alpha=a))
        worst = max(worst, max(float(np.abs(table[r] - oracles.duplication_run_law_row(r, i)).max()) for r in table))
    for d, i in ver.RUN_LAW_DELINS_POINTS:
        table = oracle.exact_run_law(8, ChannelParams(d=d, i=i, alpha=0.5))
        worst = max(worst, max(float(np.abs(table[r] - oracles.delins_run_law_row(r, d, i)).max()) for r in table))
    _announce(2, worst <= ver.TOL_RUN_LAW,
              f"run-law enumeration vs closed laws for r <= 8, max gap {worst:.3e} <= 1e-12")


def test_criterion_3_run_alignment(readme_run):
    checks = _checks(readme_run, ORACLE, "run_alignment_", "aux_vs_reference_")
    m = {name: c["measured"] for name, c in checks.items()}
    _announce(3, all(c["passed"] for c in checks.values()),
              f"(y, T, S) keys reached from two input run counts at n={ver.ALIGNMENT_N}: deletion "
              f"{m['run_alignment_deletion']}, combined {m['run_alignment_delins']}; pairs whose keys differ "
              f"from reference_apply's at n={ver.REFERENCE_N}: deletion {m['aux_vs_reference_deletion']}, "
              f"combined {m['aux_vs_reference_delins']}; all must be 0")


def test_criterion_4_monte_carlo_cross_checks():
    report = ver.verify_mc(steps=10 ** 6, seed=ver.MC_SEED)
    detail = "; ".join(f"{c['name']} {c['measured']:.2e}<= {c['tolerance']:.0e}" for c in report["checks"])
    _announce(4, report["passed"], f"analytic vs Monte Carlo at 1e6 steps: {detail}")


def test_criterion_5_trivial_anchors(readme_run):
    checks = _checks(readme_run, REDUCTIONS, "anchor_")
    worst = max(c["measured"] for name, c in checks.items() if name != "anchor_deletion_d0_gamma")
    _announce(5, all(c["passed"] for c in checks.values()),
              f"identity-channel anchors all equal 1, max gap {worst:.3e} <= 1e-6 (deletion "
              f"|gamma* - 0.5| = {checks['anchor_deletion_d0_gamma']['measured']:.3e} <= 1e-3)")


def test_criterion_6_reduction_identities(readme_run):
    checks = _checks(readme_run, REDUCTIONS, "delins_reduces_")
    a = checks["delins_reduces_to_deletion"]
    b = checks["delins_reduces_to_insertion_lb2"]
    _announce(6, all(c["passed"] for c in checks.values()),
              f"combined-channel reductions over 5x5 grids: to deletion {a['measured']:.3e}, "
              f"to insertion LB2 {b['measured']:.3e} <= 1e-9")


def test_criterion_7_truncation_robustness(readme_run):
    checks = _checks(readme_run, TRUNCATION, "truncation_").values()
    worst = max(c["measured"] for c in checks)
    _announce(7, all(c["passed"] for c in checks),
              f"doubling r_max_cap and halving tail_epsilon moves bounds at most {worst:.3e} <= 1e-9")


def test_criterion_8_closed_form_cross_checks():
    worst_run = 0.0
    for g in (0.3, 0.5, 0.7):
        for d in (0.1, 0.3, 0.5):
            worst_run = max(worst_run, abs(ab.run_law_deletion_H(g, d).value - ab.closed_form_HLXLY(g, d)))
    ok = worst_run <= 1e-8

    # the deleted-run-count closed form carries a documented excess of
    # gamma*(1-theta)*log2(gamma); report it rather than asserting zero
    hs2_resids = []
    for g in (0.3, 0.5, 0.7):
        for d in (0.0, 0.1, 0.3):
            hs2_resids.append(ab.cond_entropy_S_given_YY(g, d).value - ab.closed_form_HS2(g, d))
    resid_d0 = ab.cond_entropy_S_given_YY(0.5, 0.0).value - ab.closed_form_HS2(0.5, 0.0)
    ok &= abs(resid_d0 - 0.5) <= 1e-12  # the expected nonzero residual at d=0

    worst_delins = 0.0
    for g, d, i, a in [(0.5, 0.1, 0.1, 0.8), (0.6, 0.3, 0.2, 0.5), (0.4, 0.2, 0.05, 0.0)]:
        worst_delins = max(worst_delins,
                           abs(ab.delins_S_term(g, d, i, a).value - oracles.delins_s_series(g, d, i, a)[0]))
    ok &= worst_delins <= 1e-6
    _announce(8, ok,
              f"run-law closed form gap {worst_run:.3e} <= 1e-8; deleted-run closed-form residuals "
              f"{min(hs2_resids):.3e}..{max(hs2_resids):.3e} (documented erratum, nonzero at d=0); "
              f"combined S-term gap to its direct series {worst_delins:.3e} <= 1e-6")


def test_criterion_9_qualitative_figures():
    # insertion: LB2 above LB1 at small i, crossover at large i
    i_grid = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9]
    rows = sweep("insertion", [{"i": i, "alpha": 0.8} for i in i_grid], tol=1e-4)
    small_ok = all(r["lb2"] > r["lb1"] for r in rows if r["i"] <= 0.2)
    crossover = any(r["lb1"] >= r["lb2"] for r in rows if r["i"] >= 0.6)

    # deletion sweep: non-increasing in d (violations flagged, not silently dropped)
    del_rows = sweep("deletion", [{"d": d} for d in np.arange(0.0, 0.91, 0.05)], tol=1e-4)
    del_bounds = [r["bound"] for r in del_rows]
    del_monotone = all(b2 <= b1 + 1e-9 for b1, b2 in zip(del_bounds, del_bounds[1:]))
    if not del_monotone:
        print("ACCEPTANCE 9 WARNING: deletion sweep not non-increasing, investigate:", del_bounds)

    # combined sweep at d = i: non-increasing, and alpha=1 above alpha=0.8
    di_grid = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    curves = {}
    for alpha in (0.8, 1.0):
        rows_a = sweep("delins", [{"d": v, "i": v, "alpha": alpha} for v in di_grid], tol=1e-4)
        curves[alpha] = [r["bound"] for r in rows_a]
    delins_monotone = all(
        b2 <= b1 + 1e-9 for vals in curves.values() for b1, b2 in zip(vals, vals[1:]))
    if not delins_monotone:
        print("ACCEPTANCE 9 WARNING: combined sweep not non-increasing, investigate:", curves)
    dominance = all(a1 >= a8 for a1, a8 in zip(curves[1.0], curves[0.8]))
    if not dominance:
        print("ACCEPTANCE 9 NOTE: alpha=1 does not dominate alpha=0.8 everywhere:", curves)

    _announce(9, small_ok and crossover,
              f"LB2>LB1 at small i and crossover at large i confirmed; deletion sweep "
              f"non-increasing={del_monotone}; combined sweep non-increasing={delins_monotone}; "
              f"alpha=1 dominates alpha=0.8: {dominance}")
