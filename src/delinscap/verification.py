"""Verification suites: exact-oracle, Monte Carlo, reduction and truncation checks.

Each suite returns a machine-readable verdict: a list of named checks with the
measured figure, its tolerance, a pass flag, and the seconds spent on it;
:func:`run_suite` adds the suite's name.  Acceptance criteria 1, 3
and 5-7 assert on the named checks of README's ``verify oracle --n-max 8``,
``verify reductions`` and ``verify truncation`` reports, so these suites are
the one computation behind them, and the tolerances below the single source
of truth for what this package promises numerically.  The run alignment
checks count keys and pairs, and pass only at a count of 0.

Test surface: the public names alone.
"""

from __future__ import annotations

import time

from .core import ChannelParams, xlog2
from . import analytic_bounds as ab
from . import exact_oracle as oracle
from . import mc_estimator as mc
from .run_length import _R_MAX_CAP_CEILING, _RowTable, _row_kernel, _run_law_at
from .gamma_optimizer import optimize_bound

__all__ = [
    "TOL_CASCADE",
    "TOL_RUN_LAW",
    "TOL_MC",
    "TOL_MC_DELINS",
    "TOL_REDUCTION",
    "TOL_ANCHOR",
    "TOL_TRUNCATION",
    "CASCADE_PARAMS",
    "verify_oracle",
    "verify_mc",
    "verify_reductions",
    "verify_truncation",
    "run_suite",
]

TOL_CASCADE = 1e-12
TOL_RUN_LAW = 1e-12
TOL_MC = 5e-3
TOL_MC_DELINS = 1e-2
TOL_REDUCTION = 1e-9
TOL_ANCHOR = 1e-6
TOL_TRUNCATION = 1e-9

# (d, i, alpha) triples for the cascade equivalence check
CASCADE_PARAMS = [(0.1, 0.2, 0.5), (0.3, 0.1, 0.8), (0.2, 0.2, 1.0)]

RUN_LAW_DELETION_POINTS = [0.1, 0.3, 0.6]
RUN_LAW_INSERTION_POINTS = [(0.1, 0.8), (0.2, 0.5), (0.3, 1.0)]
RUN_LAW_DELINS_POINTS = [(0.1, 0.1), (0.2, 0.15), (0.3, 0.3)]

MC_SEED = 20240501
ALIGNMENT_N = 6  # input length of the run alignment check
REFERENCE_N = 4  # input length of the comparison with reference_apply, a pure-Python loop


class _Checks(list):
    """The checks of one suite.  Each records the seconds since the previous
    one was added (or since the suite began), which is the time spent
    computing it."""

    def __init__(self) -> None:
        super().__init__()
        self._since = time.perf_counter()

    def add(self, name: str, measured: float, tol: float, detail: str = "") -> None:
        now = time.perf_counter()
        self.append({
            "name": name,
            "measured": measured,
            "tolerance": tol,
            "passed": bool(measured <= tol),
            "detail": detail,
            "seconds": now - self._since,
        })
        self._since = now


def _run_law_gap(params: ChannelParams) -> float:
    """Largest gap, over input run lengths r <= 8, between the entropy of the
    enumerated law of the output run length and the row entropy H(row_r)
    that the bound's run-length term reads.  The rows come from a table of
    their own, the same code as the bound's (``ROWS``), so the check leaves
    the bound's rows in place."""
    table = oracle.exact_run_law(8, params)
    rows = _RowTable().entropies(_row_kernel(params.d, params.i), 8)
    return max(abs(-float(xlog2(table[r], table[r]).sum()) - float(rows[r - 1])) for r in table)


def _cascade_detail(n_max: int, seed: int) -> str:
    """The detail of a cascade equivalence check: the inputs it compares."""
    if n_max <= oracle.MAX_EXHAUSTIVE_BITS:
        return f"max pointwise law gap over all {n_max}-bit inputs"
    return f"max pointwise law gap over {oracle.CASCADE_SAMPLE} of the {n_max}-bit inputs, sampled with seed {seed}"


def verify_oracle(n_max: int = 8, seed: int = 0) -> dict:
    """Cascade equivalence (``seed`` samples its inputs past n_max = 8), the
    run-length row entropies against enumeration, and the run alignment of
    the auxiliary sequences: no (y, T, S) key is reached from two input run
    counts, and the keys agree with ``reference_apply``'s."""
    checks = _Checks()
    for d, i, a in CASCADE_PARAMS:
        worst = oracle.cascade_equivalence_check(n_max, ChannelParams(d=d, i=i, alpha=a), seed=seed)
        checks.add(f"cascade_equivalence_d{d}_i{i}_a{a}", worst, TOL_CASCADE, _cascade_detail(n_max, seed))

    for d in RUN_LAW_DELETION_POINTS:
        checks.add(f"run_law_deletion_d{d}", _run_law_gap(ChannelParams(d=d)), TOL_RUN_LAW)
    for i, a in RUN_LAW_INSERTION_POINTS:
        checks.add(f"run_law_insertion_i{i}_a{a}", _run_law_gap(ChannelParams(i=i, alpha=a)), TOL_RUN_LAW)
    for d, i in RUN_LAW_DELINS_POINTS:
        checks.add(f"run_law_delins_d{d}_i{i}", _run_law_gap(ChannelParams(d=d, i=i, alpha=0.5)), TOL_RUN_LAW)

    for name, params in (("deletion", ChannelParams(d=0.3)), ("delins", ChannelParams(d=0.15, i=0.15, alpha=0.8))):
        checks.add(f"run_alignment_{name}", oracle.run_alignment_check(ALIGNMENT_N, params), 0,
                   f"(y, T, S) keys of the {ALIGNMENT_N}-bit inputs reached from two input run counts")
        checks.add(f"aux_vs_reference_{name}", oracle.aux_reference_mismatches(REFERENCE_N, params), 0,
                   f"{REFERENCE_N}-bit (input, pattern) pairs whose (y, T, S) differ from reference_apply's")
    return _verdict(checks)


def verify_mc(steps: int = 10 ** 6, seed: int = MC_SEED) -> dict:
    """Analytic-vs-Monte-Carlo cross-checks for the limiting entropies."""
    checks = _Checks()
    est = mc.estimate_hI(0.2, 0.5, 0.5, steps=steps, seed=seed)
    ref = ab.h_I_limit(0.2, 0.5, 0.5)
    checks.add("hI_vs_limit", abs(est.value - ref), TOL_MC,
               f"est {est.value:.6f} ref {ref:.6f} se {est.std_error:.1e}")

    est = mc.estimate_hT(0.2, 0.5, 0.5, steps=steps, seed=seed + 1)
    ref = ab.h_T_limit(0.2, 0.5, 0.5)
    checks.add("hT_vs_limit", abs(est.value - ref), TOL_MC,
               f"est {est.value:.6f} ref {ref:.6f} se {est.std_error:.1e}")

    est = mc.estimate_HS2(0.5, 0.3, steps=steps, seed=seed + 2)
    ref = ab.cond_entropy_S_given_YY(0.5, 0.3).value
    checks.add("HS2_vs_series", abs(est.value - ref), TOL_MC,
               f"est {est.value:.6f} ref {ref:.6f} se {est.std_error:.1e}")

    emp = mc.estimate_stationary_iy(0.2, 0.5, 0.6, steps=steps, seed=seed + 3)
    tv = mc.tv_distance(emp.freqs, ab.stationary_iy(0.2, 0.5, 0.6))
    checks.add("stationary_iy_tv", tv, TOL_MC, f"{emp.n_obs} observations")

    est = mc.estimate_delins_S_term(0.5, 0.1, 0.1, 0.8, steps=steps, seed=seed + 4)
    ref = ab.delins_S_term(0.5, 0.1, 0.1, 0.8).value
    checks.add("delins_S_vs_series", abs(est.value - ref), TOL_MC_DELINS,
               f"est {est.value:.6f} ref {ref:.6f} se {est.std_error:.1e}")
    return _verdict(checks)


def verify_reductions(cfg: ab.SeriesConfig | None = None) -> dict:
    """Combined-channel reductions to the pure-channel bounds, plus trivial anchors."""
    gammas = [0.2, 0.35, 0.5, 0.65, 0.8]
    checks = _Checks()

    worst = 0.0
    for d in [0.1, 0.2, 0.3, 0.4, 0.5]:
        for g in gammas:
            delta = abs(ab.lb_delins(d, 0.0, 0.8, g, cfg, diagnostics=False).bound_bits
                        - ab.lb_deletion(d, g, cfg, diagnostics=False).bound_bits)
            worst = max(worst, delta)
    checks.add("delins_reduces_to_deletion", worst, TOL_REDUCTION, "5x5 grid in (d, gamma)")

    worst = 0.0
    for i in [0.05, 0.1, 0.2, 0.3, 0.4]:
        for g in gammas:
            for a in (0.3, 0.8):
                delta = abs(ab.lb_delins(0.0, i, a, g, cfg, diagnostics=False).bound_bits
                            - ab.lb2_insertion(i, a, g, cfg).bound_bits)
                worst = max(worst, delta)
    checks.add("delins_reduces_to_insertion_lb2", worst, TOL_REDUCTION,
               "5x5 grid in (i, gamma) at alpha in {0.3, 0.8}")

    res = optimize_bound("deletion", d=0.0, cfg=cfg)
    checks.add("anchor_deletion_d0_bound", abs(res.bound_bits - 1.0), TOL_ANCHOR)
    checks.add("anchor_deletion_d0_gamma", abs(res.gamma_star - 0.5), 1e-3)
    checks.add("anchor_lb1_i0", abs(ab.lb1_insertion(0.0, 0.5, 0.5).bound_bits - 1.0), TOL_ANCHOR)
    checks.add("anchor_lb2_i0", abs(ab.lb2_insertion(0.0, 0.5, 0.5, cfg).bound_bits - 1.0), TOL_ANCHOR)
    checks.add("anchor_delins_00", abs(ab.lb_delins(0.0, 0.0, 0.7, 0.5, cfg).bound_bits - 1.0), TOL_ANCHOR)
    return _verdict(checks)


def verify_truncation(cfg: ab.SeriesConfig | None = None) -> dict:
    """Doubling the exact rows' cap and halving the band's target must not
    move bounds: each value lies below the exact one by at most its band's
    slack (``run_length._RunLawChunk.band_slack``) and its rounding budget,
    so two of them differ by at most the larger slack and both budgets.
    Where twice the cap would pass its ceiling, the pair is half the cap at
    the configured target and the configured cap at half the target: still
    two caps and two targets a factor of two apart."""
    base = cfg or ab.SeriesConfig()
    if 2 * base.r_max_cap <= _R_MAX_CAP_CEILING:
        tight = ab.SeriesConfig(tail_epsilon=base.tail_epsilon / 2.0, r_max_cap=2 * base.r_max_cap)
    else:
        base, tight = (ab.SeriesConfig(tail_epsilon=base.tail_epsilon, r_max_cap=base.r_max_cap // 2),
                       ab.SeriesConfig(tail_epsilon=base.tail_epsilon / 2.0, r_max_cap=base.r_max_cap))
    cases = [  # (name, bound, its parameters, gamma)
        ("deletion_d0.1", "deletion", ChannelParams(d=0.1), 0.5777),
        ("deletion_d0.5", "deletion", ChannelParams(d=0.5), 0.85),
        ("insertion_lb2_i0.2", "insertion_lb2", ChannelParams(i=0.2, alpha=0.8), 0.55),
        ("delins_d0.1_i0.1", "delins", ChannelParams(d=0.1, i=0.1, alpha=0.8), 0.655),
        ("delins_d0.2_i0.2", "delins", ChannelParams(d=0.2, i=0.2, alpha=0.5), 0.7),
        ("deletion_d0.9_g0.99", "deletion", ChannelParams(d=0.9), 0.99),
        ("delins_d0.7_i0.05_g0.98", "delins", ChannelParams(d=0.7, i=0.05, alpha=0.8), 0.98),
    ]
    checks = _Checks()
    for name, bound, params, gamma in cases:
        a, b = (ab._BOUNDS[bound].lb(params, gamma, c, False) for c in (base, tight))
        slack = (1.0 - gamma) * max(_run_law_at(gamma, params.d, params.i, c).band_slack() for c in (base, tight))
        delta = abs(a.bound_bits - b.bound_bits)
        checks.add(f"truncation_{name}", delta, TOL_TRUNCATION, f"budget {a.error_budget:.2e}, band slack {slack:.2e}")
        if delta > (allowed := slack + a.error_budget + b.error_budget):
            checks.add(f"truncation_{name}_within_budget", delta, allowed,
                       "shift exceeded the band slack and the two budgets")
    return _verdict(checks)


def _verdict(checks: list[dict]) -> dict:
    return {"passed": all(c["passed"] for c in checks), "checks": checks}


# suite name -> its verdict, from the options it reads
SUITES = {
    "oracle": lambda n_max, seed, **_: verify_oracle(n_max, seed),
    "mc": lambda steps, seed, **_: verify_mc(steps, seed),
    "reductions": lambda cfg, **_: verify_reductions(cfg),
    "truncation": lambda cfg, **_: verify_truncation(cfg),
}


def run_suite(suite: str, *, steps: int = 10 ** 6, seed: int = MC_SEED, n_max: int = 8,
              cfg: ab.SeriesConfig | None = None) -> dict:
    """The report of ``suite``: its name and its verdict."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected {'/'.join(SUITES)}")
    return {"suite": suite, **SUITES[suite](steps=steps, seed=seed, n_max=n_max, cfg=cfg)}
