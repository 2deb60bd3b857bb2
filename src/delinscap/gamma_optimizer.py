"""One-dimensional maximization over the source parameter gamma, and sweeps.

Unimodality of the bounds in gamma is not established, so optimization is a
coarse equispaced grid followed by golden-section refinement around the best
grid point.  Golden section is preferred over derivative-based refinement
because the bound functions ride on truncated series whose numerical
derivatives are noisy at the 1e-9 level.  The returned value is always one
the objective actually produced at the returned point, never an interpolant.

``CHANNELS`` is the one registry of channels (CLI parameters, bounds, CSV
term columns) and ``_BOUNDS`` the one map from a bound name to its ``lb_*``;
everything that dispatches on a channel or a bound reads these two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .analytic_bounds import (
    BoundResult,
    SeriesConfig,
    lb_deletion,
    lb1_insertion,
    lb2_insertion,
    lb_delins,
)

__all__ = ["GAMMA_MIN", "GAMMA_MAX", "CHANNELS", "Channel", "maximize_over_gamma", "optimize_bound",
           "channel_bounds", "best_key", "sweep"]

GAMMA_MIN = 1e-6
GAMMA_MAX = 1.0 - 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_COARSE_POINTS = 199


@dataclass(frozen=True)
class Channel:
    """CLI parameters, bounds (report key -> bound name) and CSV term columns."""

    flags: tuple[str, ...]
    bounds: dict[str, str]
    term_columns: tuple[str, ...]


CHANNELS = {
    "deletion": Channel(("d",), {"lb": "deletion"}, (
        "source_entropy", "deleted_runs_penalty", "run_length_penalty",
        "hs2_series_minus_closed_residual", "run_law_series_minus_closed_residual")),
    "insertion": Channel(("i", "alpha"), {"lb1": "insertion_lb1", "lb2": "insertion_lb2"}, (
        "source_entropy", "insertion_positions_penalty", "comp_insertion_penalty",
        "run_length_penalty", "insertion_ambiguity_credit")),
    "delins": Channel(("d", "i", "alpha"), {"lb": "delins"}, (
        "source_entropy", "comp_insertion_penalty", "deleted_runs_penalty", "run_length_penalty",
        "insertion_ambiguity_credit", "delins_s_series_minus_closed_residual")),
}

# bound name -> its lb_* at (d, i, alpha, gamma, cfg, diagnostics, use_printed_hs2).
# The lambdas look lb_* up by module-level name at call time, so a rebinding
# of those names (as a tracer does) is seen.
_BOUNDS: dict[str, Callable[..., BoundResult]] = {
    "deletion": lambda d, i, alpha, g, cfg, diag, printed:
        lb_deletion(d, g, cfg, diagnostics=diag, use_printed_hs2=printed),
    "insertion_lb1": lambda d, i, alpha, g, cfg, diag, printed: lb1_insertion(i, alpha, g),
    "insertion_lb2": lambda d, i, alpha, g, cfg, diag, printed: lb2_insertion(i, alpha, g, cfg),
    "delins": lambda d, i, alpha, g, cfg, diag, printed: lb_delins(d, i, alpha, g, cfg, diagnostics=diag),
}


def _lookup(table: dict, name: str):
    if name not in table:
        raise ValueError(f"unknown channel {name!r}")
    return table[name]


def maximize_over_gamma(bound_fn: Callable[[float], float], tol: float = 1e-5) -> tuple[float, float]:
    """Maximize ``bound_fn`` over gamma in [GAMMA_MIN, GAMMA_MAX].

    Evaluates a coarse grid of 199 equispaced points, then golden-section
    refines inside the bracket around the best grid point until the interval
    is below ``tol``.  Returns the best point actually evaluated, so the
    result is reproducible by a single call to ``bound_fn``.
    """
    if not tol >= 1e-9:  # NaN included
        raise ValueError(f"tol={tol} must be at least 1e-9 for double-precision series evaluation")

    def safe_eval(g: float) -> float:
        v = bound_fn(g)
        if not math.isfinite(v):
            raise ValueError(f"bound function returned non-finite value {v} at gamma={g}")
        return v

    gammas = [min(max((k + 1) / (_COARSE_POINTS + 1), GAMMA_MIN), GAMMA_MAX) for k in range(_COARSE_POINTS)]
    values = [safe_eval(g) for g in gammas]
    b = max(range(len(gammas)), key=values.__getitem__)
    best_g, best_v = gammas[b], values[b]

    a = gammas[b - 1] if b > 0 else GAMMA_MIN
    c = gammas[b + 1] if b < len(gammas) - 1 else GAMMA_MAX
    x1 = c - _INVPHI * (c - a)
    x2 = a + _INVPHI * (c - a)
    f1, f2 = safe_eval(x1), safe_eval(x2)
    while c - a > tol:
        if f1 >= f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - _INVPHI * (c - a)
            f1 = safe_eval(x1)
            if f1 > best_v:
                best_g, best_v = x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (c - a)
            f2 = safe_eval(x2)
            if f2 > best_v:
                best_g, best_v = x2, f2
    return best_g, best_v


def optimize_bound(channel: str, *, d: float = 0.0, i: float = 0.0, alpha: float = 1.0,
                   cfg: SeriesConfig | None = None, tol: float = 1e-5,
                   use_printed_hs2: bool = False) -> BoundResult:
    """Optimize one bound over gamma and return the full breakdown at gamma*.

    ``channel`` is one of ``deletion``, ``insertion_lb1``, ``insertion_lb2``
    or ``delins``.
    """
    lb = _lookup(_BOUNDS, channel)
    cfg = cfg or SeriesConfig()
    gamma_star, _ = maximize_over_gamma(lambda g: lb(d, i, alpha, g, cfg, False, use_printed_hs2).bound_bits, tol)
    return lb(d, i, alpha, gamma_star, cfg, True, use_printed_hs2)


def channel_bounds(channel: str, *, d: float = 0.0, i: float = 0.0, alpha: float = 1.0,
                   gamma: float | None = None, cfg: SeriesConfig | None = None, tol: float = 1e-5,
                   use_printed_hs2: bool = False) -> dict[str, BoundResult]:
    """Every bound of ``channel`` by report key: at ``gamma`` if it is given,
    else each optimized over gamma."""
    bounds = _lookup(CHANNELS, channel).bounds
    cfg = cfg or SeriesConfig()
    if gamma is None:
        return {key: optimize_bound(name, d=d, i=i, alpha=alpha, cfg=cfg, tol=tol, use_printed_hs2=use_printed_hs2)
                for key, name in bounds.items()}
    return {key: _BOUNDS[name](d, i, alpha, gamma, cfg, True, use_printed_hs2) for key, name in bounds.items()}


def best_key(bounds: dict[str, BoundResult]) -> str:
    """Report key of the largest bound; the first one wins a tie."""
    return max(bounds, key=lambda k: bounds[k].bound_bits)


def sweep(channel: str, points: Iterable[dict], cfg: SeriesConfig | None = None,
          tol: float = 1e-5) -> list[dict]:
    """Optimize the bounds at every parameter point; rows keep input order.

    A channel with several bounds carries each (``lb1``, ``lb2``) and their
    max (``lb_max``) in every row, since whichever is larger is still a valid
    lower bound; the breakdown reported is the winning bound's.
    """
    rows = []
    for pt in points:
        d = float(pt.get("d", 0.0))
        i = float(pt.get("i", 0.0))
        alpha = float(pt.get("alpha", 1.0))
        bounds = channel_bounds(channel, d=d, i=i, alpha=alpha, cfg=cfg, tol=tol)
        res = bounds[best_key(bounds)]
        row = {"channel": channel, "d": d, "i": i, "alpha": alpha,
               "gamma_star": res.gamma_star, "bound": res.bound_bits, "result": res}
        if len(bounds) > 1:
            row.update({key: r.bound_bits for key, r in bounds.items()}, lb_max=res.bound_bits)
        rows.append(row)
    return rows
