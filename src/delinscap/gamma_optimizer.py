"""One-dimensional maximization over the source parameter gamma, and sweeps.

Unimodality of the bounds in gamma is not established, so optimization is a
coarse equispaced grid followed by Brent's method inside the bracket around
the best grid point: parabolic steps through the three best values, a
golden-section step whenever the parabola is unsafe (R. P. Brent,
*Algorithms for Minimization without Derivatives*, 1973, ch. 5).  The bound
is summed to r = infinity, its rounding about 1e-13, so a parabola through
values 1e-3 apart in gamma is well posed.  The returned value is always one
the objective actually produced at the returned point, never an
interpolant.

The search has one input, a bound's array form
(:class:`~.analytic_bounds.BoundGrid`), the paper's printed deleted-run
form included.  It evaluates the coarse grid as arrays, in the grid's fixed
ascending chunks: a numpy call costs about as much for one gamma as for a
hundred, and the row table and the temporaries grow only as far as the
chunks evaluated need.  Brent's method then refines through the grid's
float form (:meth:`~.analytic_bounds.BoundGrid.at`), the ``lb_*``'s bound
bit for bit; the ``lb_*`` itself runs once per solve, at gamma*, for the
report.

The grid owns every ceiling: it returns None for a chunk or a probe that
cannot beat the threshold it is handed, and the search skips it.  A search
thus builds only the rows its exact evaluations need, and its result is the
unpruned search's, bit for bit.

``CHANNELS`` is the one registry of channels (CLI parameters, bounds, CSV
term columns); everything that dispatches on a channel reads it.  A bound
itself, its terms and its ``lb_*``, is declared once, in
``analytic_bounds``.

Test surface: ``_GRID``.
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

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
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
# each ChannelParams field -> its default, what a sweep point may leave out
_DEFAULTS = {f.name: f.default for f in fields(ChannelParams)}


def _lookup(table: dict, name: str):
    if name not in table:
        raise ValueError(f"unknown channel {name!r}")
    return table[name]


def _bound_params(name: str, d: float, i: float, alpha: float, printed: bool = False) -> tuple[str, ChannelParams]:
    """The ``_BOUNDS`` entry of the bound ``name`` (``deletion_printed`` for its
    ``printed`` form, which only this reads) and its own parameters: those among
    (d, i, alpha) that its channel's flags name, the others at their defaults."""
    if printed and name != "deletion":
        raise ValueError(f"use_printed_hs2 applies only to the deletion bound, not {name!r}")
    given = {"d": d, "i": i, "alpha": alpha}
    params = ChannelParams(**{flag: given[flag] for flag in _lookup(_CHANNEL_OF, name).flags})
    return ("deletion_printed" if printed else name), params


def _check_tol(tol: float) -> None:
    if not 1e-9 <= tol < math.inf:  # NaN included; at inf the search stops at its grid point
        raise ValueError(f"tol={tol} must be finite and at least 1e-9 for double-precision series evaluation")


def maximize_over_gamma(grid: BoundGrid, tol: float = 1e-5) -> tuple[float, float]:
    """Maximize a bound over gamma in [GAMMA_MIN, GAMMA_MAX] through its grid
    form ``grid`` (a :class:`~.analytic_bounds.BoundGrid`, or anything with
    its ``gammas``, ``chunks``, ``values(chunk, beat)`` and
    ``at(gamma, beat)``).

    Evaluates ``values`` on the coarse grid ``gammas``, chunk by ascending
    chunk, then refines by Brent's method, through ``at``, inside the bracket
    of the best grid point's neighbours, until the bracket around the best
    point is at most ``tol`` wide.  Returns the best point probed and its
    value; a non-finite value is an error.

    Each chunk is handed the best value so far as ``beat``, and the grid may
    return None only if no value it would return exceeds ``beat`` (the grid
    states its ceilings and why they hold bit for bit); the search then
    skips the chunk.  At best that point would tie, and a tie never
    displaces the earlier first argmax.  The chunks do not depend on the
    pruning, so the grid argmax and its bracket are the unpruned grid's.

    The refinement keeps Brent's best point x, the runner-up w and the
    point v before it, and every value comes from ``at``: x starts at the
    grid argmax with ``at``'s value there, not the grid's, which may differ
    in the last bits.  Steps are at least tol / 4, and the search stops once
    x lies within tol / 2 of both ends of the bracket.  A probe u's value
    changes the state only through whether it exceeds a threshold fixed
    before the probe, its ``beat``: min(f(w), f(v)) once x, w and v are
    distinct; f(x) before that for a u above x, which then takes only a
    value above f(x); none (-inf) for a u below x, whose rows the table
    already holds, since the row table grows with gamma.  A value at or
    below its threshold only moves the bracket's end to u, so a probe the
    grid rules out takes -inf in its place and the state is the unpruned
    search's, bit for bit: the comparisons with f(x), f(w) and f(v) are
    strict, and a tie never displaces x.

    The bounds are not known to be unimodal in gamma, so when the search
    stops both ends, GAMMA_MIN and then GAMMA_MAX, are probed (each handed
    f(x)), and an end whose value is larger becomes x.

    With the ``delinscap`` logger at DEBUG, the search logs one record at its
    end: grid points and chunks evaluated and skipped (by any ceiling), the
    grid argmax and its bracket, the exact probes after the grid, then the
    chunks the row-bounded ceiling skipped (a grid's ``row_skips``, 0 for a
    grid without one) and the probes ruled out, and the rows the row table
    holds.
    """
    _check_tol(tol)

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
        if not (finite := np.isfinite(values)).all():
            k = int(finite.argmin())  # the first non-finite value
            checked(float(gammas[chunk.start + k]), float(values[k]))
        j = int(values.argmax())  # the first argmax
        if (top := float(values[j])) > best_v:
            b, best_v = chunk.start + j, top
    x = float(gammas[b])
    lo = float(gammas[b - 1]) if b > 0 else GAMMA_MIN
    hi = float(gammas[b + 1]) if b < gammas.size - 1 else GAMMA_MAX
    bracket = lo, hi
    probes = probe_skips = 0

    def probe(u: float, beat: float = -math.inf) -> float:
        """The objective at ``u``, or -inf if ruled out as at most ``beat``."""
        nonlocal probes, probe_skips
        fu = grid.at(u, beat)
        if fu is None:
            probe_skips += 1
            return -math.inf
        probes += 1
        return checked(u, fu)

    w = v = x
    fx = fw = fv = probe(x)
    step = last = 0.0  # the step just taken, and the one before it or a golden step's segment
    small = tol / 4.0  # the least step
    while max(x - lo, hi - x) > 2.0 * small:
        mid = 0.5 * (lo + hi)
        golden = True
        if abs(last) > small:  # a parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * last) and q * (lo - x) < p < q * (hi - x):
                golden = False
                last, step = step, p / q
                if x + step - lo < 2.0 * small or hi - (x + step) < 2.0 * small:
                    step = math.copysign(small, mid - x)
        if golden:
            last = (lo if x >= mid else hi) - x
            step = _CGOLD * last
        u = x + (step if abs(step) >= small else math.copysign(small, step))
        distinct = x != w and x != v and w != v
        beat = min(fw, fv) if distinct else (fx if u > x else -math.inf)
        fu = probe(u, beat)
        if fu > fx:  # u is the best point, and x an end of its bracket
            lo, hi = (lo, x) if u < x else (x, hi)
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
            continue
        lo, hi = (u, hi) if u < x else (lo, u)
        if fu <= beat:  # ruled out or not, only the bracket moves
            continue
        if fu > fw or w == x:
            v, w, fv, fw = w, u, fw, fu
        elif fu > fv or v == x or v == w:
            v, fv = u, fu
    for end in (GAMMA_MIN, GAMMA_MAX):
        if (fe := probe(end, fx)) > fx:
            x, fx = end, fe
    # Until something imports logging, no handler exists for a record to reach;
    # importing it here would add ~0.5 MiB and a few ms to every start-up.
    if (logging := sys.modules.get("logging")) is not None:
        logging.getLogger("delinscap").debug(
            "gamma grid: %(points_evaluated)d points evaluated, %(points_skipped)d skipped by the ceilings; "
            "%(chunks_evaluated)d chunks evaluated, %(chunks_skipped)d skipped; argmax %(argmax)r; "
            "bracket [%(lo)r, %(hi)r]; %(probes)d exact probes; the row-bounded ceiling skipped %(row_skips)d "
            "chunks and %(probe_skips)d probes; row table %(rows)d rows",
            {"points_evaluated": gammas.size - sum(skipped), "points_skipped": sum(skipped),
             "chunks_evaluated": len(grid.chunks) - len(skipped), "chunks_skipped": len(skipped),
             "argmax": float(gammas[b]), "lo": bracket[0], "hi": bracket[1], "probes": probes,
             "row_skips": getattr(grid, "row_skips", 0), "probe_skips": probe_skips, "rows": ROWS.size})
    return x, fx


def optimize_bound(channel: str, *, d: float = 0.0, i: float = 0.0, alpha: float = 1.0,
                   cfg: SeriesConfig | None = None, tol: float = 1e-5,
                   use_printed_hs2: bool = False) -> BoundResult:
    """Optimize one bound over gamma and return the full breakdown at gamma*.

    ``channel`` is one of ``deletion``, ``insertion_lb1``, ``insertion_lb2``
    or ``delins``; the parameters its channel does not take are ignored.
    """
    ChannelParams(d=d, i=i, alpha=alpha)  # before the grid, which takes them unchecked
    entry, params = _bound_params(channel, d, i, alpha, use_printed_hs2)
    cfg = cfg or SeriesConfig()
    gamma_star, _ = maximize_over_gamma(BoundGrid(entry, params, _GRID, cfg), tol)
    return _BOUNDS[entry].lb(params, gamma_star, cfg, True)


def channel_bounds(channel: str, *, d: float = 0.0, i: float = 0.0, alpha: float = 1.0,
                   gamma: float | None = None, cfg: SeriesConfig | None = None, tol: float = 1e-5,
                   use_printed_hs2: bool = False) -> dict[str, BoundResult]:
    """Every bound of ``channel`` by report key: at ``gamma`` if it is given,
    else each optimized over gamma.  (d, i, alpha) and ``tol`` are checked
    first, for both."""
    bounds = _lookup(CHANNELS, channel).bounds
    ChannelParams(d=d, i=i, alpha=alpha)
    _check_tol(tol)
    if gamma is None:
        return {key: optimize_bound(name, d=d, i=i, alpha=alpha, cfg=cfg, tol=tol, use_printed_hs2=use_printed_hs2)
                for key, name in bounds.items()}
    entries = {key: _bound_params(name, d, i, alpha, use_printed_hs2) for key, name in bounds.items()}
    return {key: _BOUNDS[entry].lb(params, gamma, cfg, True) for key, (entry, params) in entries.items()}


def best_key(bounds: dict[str, BoundResult]) -> str:
    """Report key of the largest bound; the first one wins a tie."""
    return max(bounds, key=lambda k: bounds[k].bound_bits)


def sweep(channel: str, points: Iterable[dict], cfg: SeriesConfig | None = None,
          tol: float = 1e-5) -> list[dict]:
    """Optimize the bounds at every parameter point, its missing parameters
    at the :class:`~.core.ChannelParams` defaults; rows keep input order.
    A key that is no :class:`~.core.ChannelParams` field, or a bad ``tol``,
    is an error found before any point is solved.

    A channel with several bounds carries each (``lb1``, ``lb2``) and their
    max (``lb_max``) in every row, since whichever is larger is still a valid
    lower bound; the breakdown reported is the winning bound's.
    """
    _check_tol(tol)
    points = list(points)
    for pt in points:
        if unknown := sorted(set(pt) - _DEFAULTS.keys()):
            raise ValueError(f"unknown parameter keys {unknown} in sweep point {pt!r}; expected some of "
                             f"{list(_DEFAULTS)}")
    rows = []
    for pt in points:
        params = {name: float(pt.get(name, default)) for name, default in _DEFAULTS.items()}
        bounds = channel_bounds(channel, **params, cfg=cfg, tol=tol)
        res = bounds[best_key(bounds)]
        row = {"channel": channel, **params, "gamma_star": res.gamma_star, "bound": res.bound_bits, "result": res}
        if len(bounds) > 1:
            row.update({key: r.bound_bits for key, r in bounds.items()}, lb_max=res.bound_bits)
        rows.append(row)
    return rows
