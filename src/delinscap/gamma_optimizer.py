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

The grid owns every ceiling: it returns None for a chunk or a golden-section
probe that cannot beat the best value so far, and the search skips it.  A
search thus builds only the rows its exact evaluations need, and its result
is the unpruned search's, bit for bit.

``CHANNELS`` is the one registry of channels (CLI parameters, bounds, CSV
term columns); everything that dispatches on a channel reads it.  A bound
itself, its terms and its ``lb_*``, is declared once, in
``analytic_bounds``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .analytic_bounds import _BOUNDS, BoundGrid, BoundResult, SeriesConfig
from .core import GAMMA_MAX, GAMMA_MIN, ChannelParams
from .run_length import ROWS

__all__ = ["GAMMA_MIN", "GAMMA_MAX", "CHANNELS", "Channel", "maximize_over_gamma", "optimize_bound",
           "channel_bounds", "best_key", "sweep"]

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

# bound name -> its channel
_CHANNEL_OF = {name: channel for channel in CHANNELS.values() for name in channel.bounds.values()}


def _lookup(table: dict, name: str):
    if name not in table:
        raise ValueError(f"unknown channel {name!r}")
    return table[name]


def _bound_params(name: str, d: float, i: float, alpha: float) -> ChannelParams:
    """The bound ``name``'s own parameters: those among (d, i, alpha) that
    its channel's flags name, the others at their defaults."""
    given = {"d": d, "i": i, "alpha": alpha}
    return ChannelParams(**{flag: given[flag] for flag in _lookup(_CHANNEL_OF, name).flags})


def maximize_over_gamma(grid: BoundGrid, tol: float = 1e-5) -> tuple[float, float]:
    """Maximize a bound over gamma in [GAMMA_MIN, GAMMA_MAX] through its grid
    form ``grid`` (a :class:`~.analytic_bounds.BoundGrid`, or anything with
    its ``gammas``, ``chunks``, ``values(chunk, beat)`` and
    ``at(gamma, beat)``).

    Evaluates ``values`` on the coarse grid ``gammas``, chunk by ascending
    chunk, then golden-section refines ``at`` inside the bracket around the
    best grid point until the interval is below ``tol``.  Returns the best
    point evaluated and its value; a non-finite value is an error.

    Each call hands the grid the best value so far as ``beat``, and it may
    return None only if no value it would return exceeds ``beat`` (the grid
    states its ceilings and why they hold bit for bit); the search then
    skips the chunk or the probe.  At best that point would tie, and a tie
    never displaces the earlier first argmax.  The chunks do not depend on
    the pruning, so the bracket, every golden-section step and the result
    are those of the unpruned grid, bit for bit.

    Golden section keeps a lower probe x1 < x2 and evaluates its upper probe
    x2 only to compare f2 with f1: f1 >= f2 drops x2, else x1 (J. Kiefer,
    "Sequential minimax search for a maximum", 1953).  Every value
    evaluated, the first pair's included, is compared with the best value,
    a tie never displacing the earlier argmax, so the best value is at
    least f1.  An upper probe is handed f1 as ``beat``: if it is ruled out,
    f2 <= f1 is certain and f2 is taken as -inf unevaluated, which takes the
    branch that drops x2, ties included, as the real f2 would, and cannot
    move the best point.  Lower probes are handed nothing: each lies below a
    point already evaluated, so the row table already holds its rows.

    With the ``delinscap`` logger at DEBUG, the search logs one record at its
    end: grid points and chunks evaluated and skipped (by any ceiling), the
    grid argmax and the golden-section bracket, then the chunks the
    row-bounded ceiling skipped (a grid's ``row_skips``, 0 for a grid without
    one) and the upper probes ruled out, and the rows the row table holds.
    """
    if not tol >= 1e-9:  # NaN included
        raise ValueError(f"tol={tol} must be at least 1e-9 for double-precision series evaluation")

    def checked(g: float, v: float) -> float:
        if not math.isfinite(v):
            raise ValueError(f"bound function returned non-finite value {v} at gamma={g}")
        return v

    gammas = grid.gammas
    b, best_v, skipped = -1, -math.inf, []
    for chunk in grid.chunks:
        values = grid.values(chunk, best_v)
        if values is None:
            skipped.append(chunk.stop - chunk.start)
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
        v = grid.at(x, beat)
        if v is None:
            probe_skips += 1
            return -math.inf
        if checked(x, v) > best_v:
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
            *bracket, getattr(grid, "row_skips", 0), probe_skips, ROWS.size)
    return best_g, best_v


def optimize_bound(channel: str, *, d: float = 0.0, i: float = 0.0, alpha: float = 1.0,
                   cfg: SeriesConfig | None = None, tol: float = 1e-5,
                   use_printed_hs2: bool = False) -> BoundResult:
    """Optimize one bound over gamma and return the full breakdown at gamma*.

    ``channel`` is one of ``deletion``, ``insertion_lb1``, ``insertion_lb2``
    or ``delins``; the parameters its channel does not take are ignored.
    """
    ChannelParams(d=d, i=i, alpha=alpha)  # before the grid, which takes them unchecked
    params = _bound_params(channel, d, i, alpha)
    cfg = cfg or SeriesConfig()
    gamma_star, _ = maximize_over_gamma(BoundGrid(channel, params, _GRID, cfg, use_printed_hs2), tol)
    return _BOUNDS[channel].lb(params, gamma_star, cfg, True, use_printed_hs2)


def channel_bounds(channel: str, *, d: float = 0.0, i: float = 0.0, alpha: float = 1.0,
                   gamma: float | None = None, cfg: SeriesConfig | None = None, tol: float = 1e-5,
                   use_printed_hs2: bool = False) -> dict[str, BoundResult]:
    """Every bound of ``channel`` by report key: at ``gamma`` if it is given,
    else each optimized over gamma.  (d, i, alpha) are checked first, for both."""
    bounds = _lookup(CHANNELS, channel).bounds
    ChannelParams(d=d, i=i, alpha=alpha)
    if gamma is None:
        return {key: optimize_bound(name, d=d, i=i, alpha=alpha, cfg=cfg, tol=tol, use_printed_hs2=use_printed_hs2)
                for key, name in bounds.items()}
    return {key: _BOUNDS[name].lb(_bound_params(name, d, i, alpha), gamma, cfg, True, use_printed_hs2)
            for key, name in bounds.items()}


def best_key(bounds: dict[str, BoundResult]) -> str:
    """Report key of the largest bound; the first one wins a tie."""
    return max(bounds, key=lambda k: bounds[k].bound_bits)


def sweep(channel: str, points: Iterable[dict], cfg: SeriesConfig | None = None,
          tol: float = 1e-5) -> list[dict]:
    """Optimize the bounds at every parameter point, its missing parameters
    at the :class:`~.core.ChannelParams` defaults; rows keep input order.
    A key that is no :class:`~.core.ChannelParams` field is an error,
    found before any point is solved.

    A channel with several bounds carries each (``lb1``, ``lb2``) and their
    max (``lb_max``) in every row, since whichever is larger is still a valid
    lower bound; the breakdown reported is the winning bound's.
    """
    points, names = list(points), [f.name for f in fields(ChannelParams)]
    for pt in points:
        if unknown := sorted(set(pt) - set(names)):
            raise ValueError(f"unknown parameter keys {unknown} in sweep point {pt!r}; expected some of {names}")
    rows = []
    for pt in points:
        params = {f.name: float(pt.get(f.name, f.default)) for f in fields(ChannelParams)}
        bounds = channel_bounds(channel, **params, cfg=cfg, tol=tol)
        res = bounds[best_key(bounds)]
        row = {"channel": channel, **params, "gamma_star": res.gamma_star, "bound": res.bound_bits, "result": res}
        if len(bounds) > 1:
            row.update({key: r.bound_bits for key, r in bounds.items()}, lb_max=res.bound_bits)
        rows.append(row)
    return rows
