"""One-dimensional maximization over the source parameter gamma, and sweeps.

Unimodality of the bounds in gamma is not established, so optimization is a
coarse equispaced grid followed by golden-section refinement around the best
grid point.  Golden section is preferred over derivative-based refinement
because the bound functions ride on truncated series whose numerical
derivatives are noisy at the 1e-9 level.  The returned value is always one
the objective actually produced at the returned point, never an interpolant.

The search has one input, a bound's array form
(:class:`~.analytic_bounds.BoundGrid`), the paper's printed deleted-run
form included.  It evaluates the coarse grid as arrays, in the grid's fixed
ascending chunks: a numpy call costs about as much for one gamma as for a
hundred, and the row table and the temporaries grow only as far as the
chunks evaluated need.  Golden section then refines through the grid's
float form (:meth:`~.analytic_bounds.BoundGrid.at`), the ``lb_*``'s bound
bit for bit; the ``lb_*`` itself runs once per solve, at gamma*, for the
report.

The chunks and the golden-section upper probes are pruned by two exact
ceilings (see :func:`maximize_over_gamma`): the source-plus-credit sum,
since every penalty is a conditional entropy (a printed penalty may be
negative, so the printed form has none), and the row-bounded ceiling, which
puts the last row entropy held in place of each row the table lacks.  A
search thus builds only the rows its exact evaluations need, and its result
is the unpruned search's, bit for bit.

``CHANNELS`` is the one registry of channels (CLI parameters, bounds, CSV
term columns) and ``_BOUNDS`` the one map from a bound name to its ``lb_*``
and its array form; everything that dispatches on a channel or a bound
reads these two.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .analytic_bounds import (
    BoundGrid,
    BoundResult,
    SeriesConfig,
    _row_table_size,
    lb_deletion,
    lb_deletion_grid,
    lb1_insertion,
    lb1_insertion_grid,
    lb2_insertion,
    lb2_insertion_grid,
    lb_delins,
    lb_delins_grid,
)
from .core import ChannelParams

__all__ = ["GAMMA_MIN", "GAMMA_MAX", "CHANNELS", "Channel", "maximize_over_gamma", "optimize_bound",
           "channel_bounds", "best_key", "sweep"]

GAMMA_MIN = 1e-6
GAMMA_MAX = 1.0 - 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_COARSE_POINTS = 199
_GRID = np.array([min(max((k + 1) / (_COARSE_POINTS + 1), GAMMA_MIN), GAMMA_MAX) for k in range(_COARSE_POINTS)])
_GRID.flags.writeable = False


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
        "insertion_ambiguity_credit")),
}

class _Bound(NamedTuple):
    evaluate: Callable[..., BoundResult]  # at (d, i, alpha, gamma, cfg, diagnostics, use_printed_hs2)
    grid: Callable[..., BoundGrid]  # at (d, i, alpha, gammas, cfg, use_printed_hs2): the lb_*'s array form


# bound name -> its lb_* and its array form.  The lambdas look lb_* up by
# module-level name at call time, so a rebinding of those names (as a tracer
# does) is seen.
_BOUNDS: dict[str, _Bound] = {
    "deletion": _Bound(lambda d, i, alpha, g, cfg, diag, printed:
                       lb_deletion(d, g, cfg, diagnostics=diag, use_printed_hs2=printed),
                       lambda d, i, alpha, g, cfg, printed=False: lb_deletion_grid(d, g, cfg, printed)),
    "insertion_lb1": _Bound(lambda d, i, alpha, g, cfg, diag, printed: lb1_insertion(i, alpha, g),
                            lambda d, i, alpha, g, cfg, printed=False: lb1_insertion_grid(i, alpha, g)),
    "insertion_lb2": _Bound(lambda d, i, alpha, g, cfg, diag, printed: lb2_insertion(i, alpha, g, cfg),
                            lambda d, i, alpha, g, cfg, printed=False: lb2_insertion_grid(i, alpha, g, cfg)),
    "delins": _Bound(lambda d, i, alpha, g, cfg, diag, printed: lb_delins(d, i, alpha, g, cfg, diagnostics=diag),
                     lambda d, i, alpha, g, cfg, printed=False: lb_delins_grid(d, i, alpha, g, cfg)),
}


def _lookup(table: dict, name: str):
    if name not in table:
        raise ValueError(f"unknown channel {name!r}")
    return table[name]


def maximize_over_gamma(grid: BoundGrid, tol: float = 1e-5) -> tuple[float, float]:
    """Maximize a bound over gamma in [GAMMA_MIN, GAMMA_MAX] through its grid
    form ``grid`` (a :class:`~.analytic_bounds.BoundGrid`, or anything with
    its ``gammas``, ``chunks``, ``ceilings``, ``values(chunk, beat)``,
    ``at(gamma)`` and ``rules_out(gamma, beat)``).

    Evaluates ``values`` on the coarse grid ``gammas``, chunk by ascending
    chunk, then golden-section refines ``at`` inside the bracket around the
    best grid point until the interval is below ``tol``.  Returns the best
    point evaluated and its value; a non-finite value is an error.  The
    ceilings (None for none) must bound the values element by element;
    ``values(chunk, beat)`` may return None only if no value there exceeds
    ``beat``, and ``rules_out(gamma, beat)`` may return True only if
    ``at(gamma) <= beat``.

    A chunk whose every ceiling is at most the best value so far is
    skipped: at best it ties, and a tie never displaces the earlier first
    argmax.  The chunks do not depend on the pruning, so the bracket, every
    golden-section step and the result are those of the unpruned grid, bit
    for bit.  A bound's source-plus-credit sum meets the condition exactly in
    floating point, taken from the same term arrays as the bound: every
    penalty is >= 0, the bound adds its terms in order, and round-to-nearest
    is monotone, so each partial sum with the penalties is at most the same
    sum without them.

    A chunk that passes is handed the best value so far as ``beat``.  A
    :class:`~.analytic_bounds.BoundGrid` whose row table is too short for
    the chunk then tries its row-bounded ceiling: the rows past the R held
    take H_R, at most each of them since entropy never decreases as
    independent steps are added, and the p_r-weighted row sum is lowered by
    a margin that covers rounding and the table's trimming
    (:meth:`~.analytic_bounds._RunLawChunk.floor`).  The rest of the bound
    is monotone in that sum, whatever the signs of its other terms, so this
    too is a ceiling bit for bit, and a chunk it rules out is skipped with
    its rows never built.

    Golden section keeps a lower probe x1 < x2 and evaluates its upper probe
    x2 only to compare f2 with f1: f1 >= f2 drops x2, else x1 (J. Kiefer,
    "Sequential minimax search for a maximum", 1953).  Every value
    evaluated, the first pair's included, is compared with the best value,
    a tie never displacing the earlier argmax, so the best value is at
    least f1.  Before an upper probe is evaluated, ``rules_out(x2, f1)``
    tries the row-bounded ceiling at x2, which is at or above f2 bit for
    bit.  If it holds, f2 <= f1 is certain and f2 is taken as -inf
    unevaluated, so the table does not grow: that takes the branch that
    drops x2, ties included, as the real f2 would, and cannot move the best
    point.  Lower probes are never tested: each lies below a point already
    evaluated, so the table already holds its rows.

    With the ``delinscap`` logger at DEBUG, the search logs one record at its
    end: grid points and chunks evaluated and skipped (by either ceiling),
    the grid argmax and the golden-section bracket, then the chunks and the
    upper probes the row-bounded ceiling skipped and the rows the row table
    holds.
    """
    if not tol >= 1e-9:  # NaN included
        raise ValueError(f"tol={tol} must be at least 1e-9 for double-precision series evaluation")

    def checked(g: float, v: float) -> float:
        if not math.isfinite(v):
            raise ValueError(f"bound function returned non-finite value {v} at gamma={g}")
        return v

    gammas = grid.gammas
    b, best_v, skipped, row_skips = -1, -math.inf, [], 0
    for chunk in grid.chunks:
        if b >= 0 and grid.ceilings is not None and np.max(grid.ceilings[chunk]) <= best_v:
            skipped.append(chunk.stop - chunk.start)
            continue
        values = grid.values(chunk, best_v)
        if values is None:  # skipped by the row-bounded ceiling
            skipped.append(chunk.stop - chunk.start)
            row_skips += 1
            continue
        for j, (g, v) in enumerate(zip(gammas[chunk].tolist(), values.tolist()), chunk.start):
            if checked(g, v) > best_v:
                b, best_v = j, v
    grid_g = best_g = float(gammas[b])

    a = float(gammas[b - 1]) if b > 0 else GAMMA_MIN
    c = float(gammas[b + 1]) if b < gammas.size - 1 else GAMMA_MAX
    bracket = a, c
    x1 = c - _INVPHI * (c - a)
    x2 = a + _INVPHI * (c - a)
    probe_skips = 0

    def probe(x: float, beat: float = -math.inf) -> float:
        """The objective at ``x``, taken as the best if it is, or -inf if ruled out as at most ``beat``."""
        nonlocal best_g, best_v, probe_skips
        if beat > -math.inf and grid.rules_out(x, beat):
            probe_skips += 1
            return -math.inf
        v = checked(x, grid.at(x))
        if v > best_v:
            best_g, best_v = x, v
        return v

    f1 = probe(x1)
    f2 = probe(x2, f1)
    while c - a > tol:
        if f1 >= f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - _INVPHI * (c - a)
            f1 = probe(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (c - a)
            f2 = probe(x2, f1)
    # Until something imports logging, no handler exists for a record to reach;
    # importing it here would add ~0.5 MiB and a few ms to every start-up.
    if (logging := sys.modules.get("logging")) is not None:
        logging.getLogger("delinscap").debug(
            "gamma grid: %d points evaluated, %d skipped by the ceilings; %d chunks evaluated, %d skipped; "
            "argmax %r; bracket [%r, %r]; the row-bounded ceiling skipped %d chunks and %d probes; "
            "row table %d rows",
            gammas.size - sum(skipped), sum(skipped), len(grid.chunks) - len(skipped), len(skipped), grid_g,
            *bracket, row_skips, probe_skips, _row_table_size())
    return best_g, best_v


def optimize_bound(channel: str, *, d: float = 0.0, i: float = 0.0, alpha: float = 1.0,
                   cfg: SeriesConfig | None = None, tol: float = 1e-5,
                   use_printed_hs2: bool = False) -> BoundResult:
    """Optimize one bound over gamma and return the full breakdown at gamma*.

    ``channel`` is one of ``deletion``, ``insertion_lb1``, ``insertion_lb2``
    or ``delins``.
    """
    ChannelParams(d=d, i=i, alpha=alpha)  # before the grid, which takes them unchecked
    bound = _lookup(_BOUNDS, channel)
    cfg = cfg or SeriesConfig()
    gamma_star, _ = maximize_over_gamma(bound.grid(d, i, alpha, _GRID, cfg, use_printed_hs2), tol)
    return bound.evaluate(d, i, alpha, gamma_star, cfg, True, use_printed_hs2)


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
    return {key: _BOUNDS[name].evaluate(d, i, alpha, gamma, cfg, True, use_printed_hs2)
            for key, name in bounds.items()}


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
