"""One-dimensional maximization over the source parameter gamma, and sweeps.

Unimodality of the bounds in gamma is not established, so optimization is a
coarse equispaced grid followed by golden-section refinement around the best
grid point.  Golden section is preferred over derivative-based refinement
because the bound functions ride on truncated series whose numerical
derivatives are noisy at the 1e-9 level.  The returned value is always one
the objective actually produced at the returned point, never an interpolant.

The coarse grid is evaluated as arrays, not point by point: a numpy call
costs about as much for one gamma as for a hundred, so a scalar ``lb_*``
call is nearly all per-call overhead.  A bound's array form
(:class:`~.analytic_bounds.BoundGrid`) takes its closed-form terms over all
199 points at once and its run-length term in fixed ascending chunks of the
grid (:func:`_grid_chunks`), each small enough that the row table and the
temporaries grow only as far as the chunks evaluated need.  Golden section
then refines with scalar ``lb_*`` calls.

The chunks are pruned by branch and bound, with two ceilings.  Every
penalty is a conditional entropy, so a bound's source-plus-credit sum is an
exact ceiling on it.  A chunk whose every ceiling cannot beat the best value
below it is skipped: the top of the grid when gamma* is low, and with it the
long run-length row table those points need.  A chunk that passes but needs
more run-length rows than the table holds meets the row-bounded ceiling: its
bound with every missing row entropy H_r replaced by the last one held, H_R,
less a stated rounding margin.  The entropy of a sum of independent steps
never decreases as steps are added (M. Madiman, "On the entropy of sums",
ITW 2008), so that is a ceiling too, and a chunk it rules out is skipped
before the table grows.  Golden section uses the same ceiling on its upper
probes, at one gamma against the scalar ``lb_*``: it only compares the two
probes' values (J. Kiefer, "Sequential minimax search for a maximum",
1953), so an upper probe whose ceiling cannot beat the lower one's value
is dropped unevaluated.  A search thus builds the rows its exact
evaluations need: a cold d = 0.95 solve 7,232, not the 10,000 its upper
probes near gamma = 1 would take.  Results stay bit-identical to the
unpruned search (see :func:`maximize_over_gamma`).

``CHANNELS`` is the one registry of channels (CLI parameters, bounds, CSV
term columns) and ``_BOUNDS`` the one map from a bound name to its ``lb_*``,
its ceiling and its array form; everything that dispatches on a channel or a
bound reads these two.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .analytic_bounds import (
    BoundGrid,
    BoundResult,
    SeriesConfig,
    _r_truncation,
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

__all__ = ["GAMMA_MIN", "GAMMA_MAX", "CHANNELS", "Channel", "maximize_over_gamma", "optimize_bound",
           "channel_bounds", "best_key", "sweep"]

GAMMA_MIN = 1e-6
GAMMA_MAX = 1.0 - 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_COARSE_POINTS = 199
_GRID = np.array([min(max((k + 1) / (_COARSE_POINTS + 1), GAMMA_MIN), GAMMA_MAX) for k in range(_COARSE_POINTS)])
_GRID.flags.writeable = False
# Cap on a chunk's G x (2 r_max + 1), r_max its top point's: twice its p_r matrix.
_CHUNK_CELLS = 4096


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
    grid: Callable[..., BoundGrid]  # at (d, i, alpha, gammas, cfg): the lb_*'s array form and array ceiling

    def ceiling(self, d: float, i: float, alpha: float, gamma: float) -> float:
        """The source and credit terms of ``evaluate`` at ``gamma``, summed:
        a ceiling on the bound."""
        return self.grid(d, i, alpha, gamma, None).ceilings


# bound name -> its lb_* and its array form.  The lambdas look lb_* up by
# module-level name at call time, so a rebinding of those names (as a tracer
# does) is seen.
_BOUNDS: dict[str, _Bound] = {
    "deletion": _Bound(lambda d, i, alpha, g, cfg, diag, printed:
                       lb_deletion(d, g, cfg, diagnostics=diag, use_printed_hs2=printed),
                       lambda d, i, alpha, g, cfg: lb_deletion_grid(d, g, cfg)),
    "insertion_lb1": _Bound(lambda d, i, alpha, g, cfg, diag, printed: lb1_insertion(i, alpha, g),
                            lambda d, i, alpha, g, cfg: lb1_insertion_grid(i, alpha, g)),
    "insertion_lb2": _Bound(lambda d, i, alpha, g, cfg, diag, printed: lb2_insertion(i, alpha, g, cfg),
                            lambda d, i, alpha, g, cfg: lb2_insertion_grid(i, alpha, g, cfg)),
    "delins": _Bound(lambda d, i, alpha, g, cfg, diag, printed: lb_delins(d, i, alpha, g, cfg, diagnostics=diag),
                     lambda d, i, alpha, g, cfg: lb_delins_grid(d, i, alpha, g, cfg)),
}


def _lookup(table: dict, name: str):
    if name not in table:
        raise ValueError(f"unknown channel {name!r}")
    return table[name]


@functools.lru_cache(maxsize=4)
def _grid_chunks(cfg: SeriesConfig) -> tuple[slice, ...]:
    """The grid cut into ascending chunks of at most _CHUNK_CELLS padded
    cells, G x (2 r_max + 1) with r_max that of the chunk's top point; a
    point over the cap alone is a chunk of its own.  They depend on the grid
    and ``cfg`` only."""
    chunks, start = [], 0
    for k, g in enumerate(_GRID.tolist()):
        if k > start and (k + 1 - start) * (2 * _r_truncation(g, cfg) + 1) > _CHUNK_CELLS:
            chunks.append(slice(start, k))
            start = k
    chunks.append(slice(start, _GRID.size))
    return tuple(chunks)


class _PointByPoint:
    """The grid form of a scalar objective: ``bound_fn`` and ``ceiling``
    (if any) called at each grid point."""

    def __init__(self, bound_fn: Callable[[float], float], ceiling: Callable[[float], float] | None) -> None:
        self._fn = bound_fn
        self.ceilings = None if ceiling is None else np.array([ceiling(g) for g in _GRID.tolist()])

    def values(self, chunk: slice, beat: float = -math.inf) -> np.ndarray:
        return np.array([self._fn(g) for g in _GRID[chunk].tolist()])

    def rules_out(self, gamma: float, beat: float) -> bool:
        return False


def maximize_over_gamma(bound_fn: Callable[[float], float], tol: float = 1e-5,
                        ceiling: Callable[[float], float] | None = None, grid: BoundGrid | None = None,
                        cfg: SeriesConfig | None = None) -> tuple[float, float]:
    """Maximize ``bound_fn`` over gamma in [GAMMA_MIN, GAMMA_MAX].

    Evaluates a coarse grid of 199 equispaced points, then golden-section
    refines ``bound_fn`` inside the bracket around the best grid point until
    the interval is below ``tol``.  Returns the best point evaluated and its
    value.

    The grid is taken in fixed ascending chunks (:func:`_grid_chunks` of
    ``cfg``), through ``grid``, the array form of ``bound_fn`` on the grid
    (a :class:`~.analytic_bounds.BoundGrid` or anything with its
    ``values(chunk, beat)``, ``ceilings`` and ``rules_out(gamma, beat)``), if
    given, else through ``bound_fn`` and ``ceiling`` point by point.
    ``ceiling``, if given, must satisfy ``bound_fn(g) <= ceiling(g)``, and
    the grid's ceilings (None for none) must bound its values element by
    element.  ``values(chunk, beat)`` may return None instead of the values
    only if none of them exceeds ``beat``, and ``rules_out(gamma, beat)`` may
    return True only if ``bound_fn(gamma) <= beat``.

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
    M = 3 (n u log2(cells) + delta), which covers the rounding of both
    products and the table's trimming
    (:meth:`~.analytic_bounds._RunLawChunk.floor`).  The rest of the bound
    is monotone in that sum, so this too is a ceiling bit for bit, and a
    chunk it rules out is skipped with its rows never built.

    Golden section keeps a lower probe x1 < x2 and evaluates its upper probe
    x2 only to compare f2 with f1: f1 >= f2 drops x2, else x1.  Before an
    upper probe is evaluated, ``rules_out(x2, beat)`` tries the row-bounded
    ceiling at x2 (:meth:`~.analytic_bounds.BoundGrid.rules_out`), with the
    terms of the scalar ``lb_*`` and, past the R rows held, H_R - M in place
    of each row entropy, which puts the ceiling at or above f2 bit for bit.
    If it holds, f2 <= beat is certain and f2 is taken as -inf unevaluated,
    so the table does not grow.  For the first upper probe beat = f1; then
    f2 <= f1 takes the branch f1 >= f2 that drops x2, ties included, as the
    real f2 would, and the first pair is never compared with the best
    value.  A later upper probe's f2 is compared with the best value, and
    f1 may exceed it, since f1 may be a first-pair value carried along;
    there beat = min(f1, best), so the best point is not moved either.
    Lower probes are never tested: each lies below a point already
    evaluated, so the table already holds its rows.  Every step, the best
    point and its value are the unpruned search's, bit for bit.

    With the ``delinscap`` logger at DEBUG, the search logs one record at its
    end: grid points and chunks evaluated and skipped (by either ceiling),
    the grid argmax and the golden-section bracket, then the chunks and the
    upper probes the row-bounded ceiling skipped and the rows the row table
    holds.
    """
    if not tol >= 1e-9:  # NaN included
        raise ValueError(f"tol={tol} must be at least 1e-9 for double-precision series evaluation")

    def safe_eval(g: float) -> float:
        v = bound_fn(g)
        if not math.isfinite(v):
            raise ValueError(f"bound function returned non-finite value {v} at gamma={g}")
        return v

    if grid is None:
        grid = _PointByPoint(safe_eval, ceiling)
    chunks = _grid_chunks(cfg or SeriesConfig())
    b, best_v, skipped, row_skips = -1, -math.inf, [], 0
    for chunk in chunks:
        if b >= 0 and grid.ceilings is not None and np.max(grid.ceilings[chunk]) <= best_v:
            skipped.append(chunk.stop - chunk.start)
            continue
        values = grid.values(chunk, best_v)
        if values is None:  # skipped by the row-bounded ceiling
            skipped.append(chunk.stop - chunk.start)
            row_skips += 1
            continue
        for j, (g, v) in enumerate(zip(_GRID[chunk].tolist(), values.tolist()), chunk.start):
            if not math.isfinite(v):
                raise ValueError(f"bound function returned non-finite value {v} at gamma={g}")
            if v > best_v:
                b, best_v = j, v
    grid_g = best_g = float(_GRID[b])

    a = float(_GRID[b - 1]) if b > 0 else GAMMA_MIN
    c = float(_GRID[b + 1]) if b < _GRID.size - 1 else GAMMA_MAX
    bracket = a, c
    x1 = c - _INVPHI * (c - a)
    x2 = a + _INVPHI * (c - a)
    probe_skips = 0

    def upper(x: float, beat: float) -> float:
        """The objective at the upper probe ``x``, or -inf if it is ruled out
        as at most ``beat``."""
        nonlocal probe_skips
        if grid.rules_out(x, beat):
            probe_skips += 1
            return -math.inf
        return safe_eval(x)

    f1 = safe_eval(x1)
    f2 = upper(x2, f1)
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
            f2 = upper(x2, min(f1, best_v))
            if f2 > best_v:
                best_g, best_v = x2, f2
    # Until something imports logging, no handler exists for a record to reach;
    # importing it here would add ~0.5 MiB and a few ms to every start-up.
    if (logging := sys.modules.get("logging")) is not None:
        logging.getLogger("delinscap").debug(
            "gamma grid: %d points evaluated, %d skipped by the ceilings; %d chunks evaluated, %d skipped; "
            "argmax %r; bracket [%r, %r]; the row-bounded ceiling skipped %d chunks and %d probes; "
            "row table %d rows",
            _GRID.size - sum(skipped), sum(skipped), len(chunks) - len(skipped), len(skipped), grid_g, *bracket,
            row_skips, probe_skips, _row_table_size())
    return best_g, best_v


def optimize_bound(channel: str, *, d: float = 0.0, i: float = 0.0, alpha: float = 1.0,
                   cfg: SeriesConfig | None = None, tol: float = 1e-5,
                   use_printed_hs2: bool = False) -> BoundResult:
    """Optimize one bound over gamma and return the full breakdown at gamma*.

    ``channel`` is one of ``deletion``, ``insertion_lb1``, ``insertion_lb2``
    or ``delins``.
    """
    bound = _lookup(_BOUNDS, channel)
    cfg = cfg or SeriesConfig()
    # the printed form goes point by point, with no ceiling: a printed penalty may be negative
    grid = None if use_printed_hs2 else bound.grid(d, i, alpha, _GRID, cfg)
    gamma_star, _ = maximize_over_gamma(
        lambda g: bound.evaluate(d, i, alpha, g, cfg, False, use_printed_hs2).bound_bits, tol, grid=grid, cfg=cfg)
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
