import argparse
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import delinscap
from delinscap.cli import build_parser
from delinscap.core import binary_entropy
from delinscap import analytic_bounds as ab, run_length as rl
from delinscap import gamma_optimizer as go
from delinscap.gamma_optimizer import (CHANNELS, GAMMA_MAX, GAMMA_MIN, channel_bounds, maximize_over_gamma,
                                       optimize_bound, sweep)

import oracles
from oracles import PointByPoint

# the search's grid, and the run-length module's test surface
GRID = go._GRID
run_law_at, RunLawGrid, output_length_entropy = rl._run_law_at, rl._RunLawGrid, rl._output_length_entropy


class TestMaximize:
    def test_source_entropy(self):
        g, v = maximize_over_gamma(PointByPoint(binary_entropy))
        assert abs(g - 0.5) <= 1e-4
        assert v == 1.0

    def test_returns_evaluated_point(self):
        fn = lambda g: -(g - 0.37) ** 2
        g, v = maximize_over_gamma(PointByPoint(fn), tol=1e-6)
        assert v == fn(g)  # exact re-evaluation, not an interpolant
        assert abs(g - 0.37) <= 1e-5

    def test_beats_coarse_grid(self):
        fn = lambda g: -(g - 0.1234) ** 2
        g, v = maximize_over_gamma(PointByPoint(fn))
        grid_best = max(fn((k + 1) / 200) for k in range(199))
        assert v >= grid_best

    def test_multimodal_grid_guard(self):
        # two humps; the grid must find the taller one even though a local
        # refinement started anywhere near the other would miss it
        fn = lambda g: math.exp(-((g - 0.2) / 0.02) ** 2) + 1.5 * math.exp(-((g - 0.8) / 0.02) ** 2)
        g, _ = maximize_over_gamma(PointByPoint(fn))
        assert abs(g - 0.8) <= 1e-4

    @pytest.mark.parametrize("tol", [float("nan"), 1e-10, -1.0])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError):
            maximize_over_gamma(PointByPoint(binary_entropy), tol=tol)

    @pytest.mark.parametrize("tol", [math.inf, -math.inf])
    def test_infinite_tol_is_refused_by_every_entry(self, tol):
        # an infinite tol returned the raw grid point: gamma* 0.91 at d = 0.5
        for call in (lambda: maximize_over_gamma(PointByPoint(binary_entropy), tol=tol),
                     lambda: optimize_bound("deletion", d=0.5, tol=tol),
                     lambda: channel_bounds("deletion", d=0.5, tol=tol),
                     lambda: sweep("deletion", [], tol=tol)):  # before any point is solved
            with pytest.raises(ValueError, match="must be finite"):
                call()

    def test_non_finite_propagates(self):
        with pytest.raises(ValueError):
            maximize_over_gamma(PointByPoint(lambda g: float("nan")))
        # the error names the first non-finite grid value, whatever the values after it
        fn = lambda g: math.inf if g > 0.7 else (math.nan if g > 0.3 else g)
        with pytest.raises(ValueError, match=r"non-finite value nan at gamma=0\.305$"):
            maximize_over_gamma(PointByPoint(fn))

    def test_grid_ties_keep_the_first_argmax(self):
        # a plateau from 0.5 on, in one chunk and in chunks of ten: a tie never displaces the first
        # grid argmax, within a chunk or across chunks
        fn = lambda g: min(g, 0.5)
        for grid in (PointByPoint(fn), _Ceiling(fn, math.inf)):
            assert maximize_over_gamma(grid) == (0.5, 0.5)

    def test_respects_domain(self):
        seen = []

        def fn(g):
            seen.append(g)
            return binary_entropy(g)

        maximize_over_gamma(PointByPoint(fn))
        assert min(seen) >= GAMMA_MIN and max(seen) <= GAMMA_MAX

    @pytest.mark.parametrize("probe", [0, 1])
    def test_best_point_of_an_early_refinement_probe_is_returned(self, probe):
        # grid argmax 0.5, bracket [0.495, 0.505]; a spike at one of the refinement's first two
        # probes off the grid, which no later probe comes near
        fn = lambda g: -(g - 0.5) ** 2
        grid = _Recording(PointByPoint(fn))
        maximize_over_gamma(grid)
        x = [g for g in grid.probed if g not in GRID.tolist()][probe]
        assert maximize_over_gamma(PointByPoint(lambda g: 1.0 if g == x else fn(g))) == (x, 1.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(GAMMA_MIN, GAMMA_MAX), st.floats(1.0, 4.0))
    @example(GAMMA_MIN, 1.0)
    @example(GAMMA_MAX, 1.0)
    @example(0.5, 4.0)  # the grid point itself
    @example(0.5025, 1.0)  # halfway between two grid points
    def test_finds_a_peak_anywhere_within_tol(self, c, power):
        # a kink at p = 1, flat at p = 4: parabolic steps fail and golden-section ones take over
        grid = _Recording(PointByPoint(lambda g: -abs(g - c) ** power))
        g, _ = maximize_over_gamma(grid)
        assert abs(g - c) <= 1e-5 and len(grid.probed) <= 40

    @pytest.mark.parametrize("fn", [lambda g: g, lambda g: -1.0 / g, lambda g: math.log(g)])
    def test_a_bound_that_rises_to_the_end_takes_the_end(self, fn):
        grid = _Recording(PointByPoint(fn))
        assert maximize_over_gamma(grid) == (GAMMA_MAX, fn(GAMMA_MAX)) and len(grid.probed) <= 40
        grid = _Recording(PointByPoint(lambda g: fn(1.0 - g)))
        assert maximize_over_gamma(grid) == (GAMMA_MIN, fn(1.0 - GAMMA_MIN)) and len(grid.probed) <= 40

    def test_returns_the_largest_value_evaluated(self):
        # at this point the first lower probe's value stays above the best for three steps
        grid = _Recording(_grid("delins", 0.8, 0.05, 0.9))
        g, v = maximize_over_gamma(grid)
        assert v == max(grid.seen) and grid.at(g) == v
        assert repr(optimize_bound("delins", d=0.8, i=0.05, alpha=0.9).gamma_star) == repr(g)


class _Recording:
    """A :class:`~delinscap.analytic_bounds.BoundGrid` that records every
    value its grid form and its float form return, and every gamma its float
    form is asked for."""

    def __init__(self, grid):
        self._grid, self.seen, self.probed = grid, [], []
        self.gammas, self.chunks = grid.gammas, grid.chunks

    def values(self, chunk, beat):
        values = self._grid.values(chunk, beat)
        self.seen += [] if values is None else values.tolist()
        return values

    def at(self, gamma, beat=-math.inf):
        self.probed.append(gamma)
        value = self._grid.at(gamma, beat)
        self.seen += [] if value is None else [value]
        return value


class _Ceiling(PointByPoint):
    """A :class:`~oracles.PointByPoint` in chunks of ten points, each skipped
    when the constant ``ceiling`` cannot beat the best value so far."""

    def __init__(self, fn, ceiling):
        super().__init__(fn)
        self.chunks, self._ceiling = tuple(slice(k, min(k + 10, self.gammas.size)) for k in
                                           range(0, self.gammas.size, 10)), ceiling

    def values(self, chunk, beat=-math.inf):
        return None if self._ceiling <= beat else super().values(chunk, beat)


class TestOptimizeBound:
    def test_deletion_identity(self):
        res = optimize_bound("deletion", d=0.0)
        assert res.gamma_star == pytest.approx(0.5, abs=1e-3)
        assert res.bound_bits == pytest.approx(1.0, abs=1e-6)

    def test_deletion_regression_anchors(self):
        # frozen after the first verified run of this implementation
        res = optimize_bound("deletion", d=0.1)
        assert res.bound_bits == pytest.approx(0.557796267073, abs=1e-6)
        assert res.gamma_star == pytest.approx(0.57772429, abs=2e-3)
        assert 0.55 <= res.bound_bits <= 0.75

        res = optimize_bound("deletion", d=0.3)
        assert res.bound_bits == pytest.approx(0.204999302542, abs=1e-6)
        assert res.gamma_star > 0.5  # longer runs resist run deletion

    def test_delins_regression_anchor(self):
        res = optimize_bound("delins", d=0.1, i=0.1, alpha=0.8)
        assert res.bound_bits == pytest.approx(0.296243043804, abs=1e-6)
        assert 0.0 < res.bound_bits < 1.0

    def test_unknown_channel(self):
        with pytest.raises(ValueError):
            optimize_bound("bogus")

    @pytest.mark.parametrize("name, params, message", [
        ("insertion_lb1", {"i": 1.2, "alpha": 0.5}, "insertion probability i=1.2 must be in [0, 1)"),
        ("insertion_lb1", {"i": 0.3, "alpha": 1.5}, "duplication fraction alpha=1.5 must be in [0, 1]"),
        ("delins", {"d": 0.3, "i": 0.3, "alpha": -0.5}, "duplication fraction alpha=-0.5 must be in [0, 1]"),
        ("deletion", {"d": math.nan}, "deletion probability d=nan must be in [0, 1)"),
        ("insertion_lb2", {"i": math.nan, "alpha": 0.8}, "insertion probability i=nan must be in [0, 1)"),
        ("delins", {"d": 0.1, "i": 0.1, "alpha": math.nan}, "duplication fraction alpha=nan must be in [0, 1]"),
    ])
    def test_parameters_are_checked_before_the_grid(self, name, params, message):
        with pytest.raises(ValueError) as err:
            optimize_bound(name, **params)
        assert str(err.value) == message

    @pytest.mark.parametrize("name", ["insertion_lb1", "insertion_lb2", "delins"])
    def test_printed_form_off_the_deletion_bound_is_refused(self, name):
        with pytest.raises(ValueError, match=f"only to the deletion bound, not '{name}'"):
            optimize_bound(name, d=0.1, i=0.1, alpha=0.8, use_printed_hs2=True)

    @pytest.mark.parametrize("gamma", [None, 0.5])
    @pytest.mark.parametrize("channel", ["insertion", "delins"])
    def test_channel_bounds_refuse_the_printed_form_off_deletion(self, channel, gamma):
        with pytest.raises(ValueError, match="only to the deletion bound"):
            channel_bounds(channel, d=0.1, i=0.2, alpha=0.8, gamma=gamma, use_printed_hs2=True)
        res = channel_bounds("deletion", d=0.1, gamma=gamma, use_printed_hs2=True)["lb"]
        assert "deleted_runs_penalty_printed_form" in {t.name for t in res.terms}


class TestSweep:
    def test_deletion_anchor_row(self):
        rows = sweep("deletion", [{"d": 0.0}, {"d": 0.2}], tol=1e-4)
        assert len(rows) == 2
        assert rows[0]["bound"] == pytest.approx(1.0, abs=1e-6)
        assert rows[1]["bound"] < rows[0]["bound"]

    def test_insertion_rows_carry_both_bounds(self):
        rows = sweep("insertion", [{"i": 0.1, "alpha": 0.8}], tol=1e-4)
        row = rows[0]
        assert row["lb_max"] == max(row["lb1"], row["lb2"])
        assert row["bound"] == row["lb_max"]

    def test_sticky_rows_match_reduction(self):
        rows = sweep("insertion", [{"i": 0.2, "alpha": 1.0}], tol=1e-4)
        res = rows[0]["result"]
        terms = {t.name: t.value for t in res.terms}
        if "comp_insertion_penalty" in terms:  # winner is LB2 on sticky channels
            assert terms["comp_insertion_penalty"] == 0.0
            assert terms["insertion_ambiguity_credit"] == 0.0

    def test_unknown_point_keys_are_an_error(self):
        # a misspelt key used to take its default silently: "q" solved d = 0.2 alone
        for points, keys in [([{"d": 0.2, "q": 1}], "['q']"), ([{"d": 0.1}, {"D": 0.2, "alfa": 1.0}], "['D', 'alfa']")]:
            with pytest.raises(ValueError) as err:
                sweep("deletion", points)
            assert str(err.value).startswith(f"unknown parameter keys {keys} ")

    def test_deterministic_row_order_and_values(self):
        pts = [{"d": d} for d in (0.1, 0.3)]
        a = sweep("deletion", pts, tol=1e-4)
        b = sweep("deletion", pts, tol=1e-4)
        assert [(r["d"], r["gamma_star"], r["bound"]) for r in a] == \
               [(r["d"], r["gamma_star"], r["bound"]) for r in b]


class TestRegistry:
    def test_channel_sets_agree(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in ("bound", "sweep", "simulate"):
            flag = next(a for a in sub.choices[command]._actions if a.dest == "channel")
            assert set(flag.choices) == set(CHANNELS)
        schema = json.loads((Path(delinscap.__file__).parent / "schemas" / "bound_report.schema.json").read_text())
        assert set(schema["properties"]["channel"]["enum"]) == set(CHANNELS)

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    def test_every_term_has_a_csv_column(self, channel):
        bounds = channel_bounds(channel, d=0.2, i=0.1, alpha=0.8, gamma=0.6)
        assert set(bounds) == set(CHANNELS[channel].bounds)
        for res in bounds.values():
            assert {t.name for t in res.terms} <= set(CHANNELS[channel].term_columns)

    def test_sweep_rejects_unknown_channel(self):
        with pytest.raises(ValueError):
            sweep("bogus", [{"d": 0.1}])

    @pytest.mark.parametrize("params, message", [
        ({"d": 0.5, "i": 0.7}, "d + i = 1.2 exceeds 1; unmodified probability would be negative"),
        ({"d": 0.5, "alpha": 2.0}, "duplication fraction alpha=2.0 must be in [0, 1]"),
    ])
    def test_channel_bounds_checks_parameters_with_and_without_gamma(self, params, message):
        # a fixed gamma once skipped the check: deletion at (0.5, 0.7) returned -0.18654 bits
        for gamma in (None, 0.5):
            with pytest.raises(ValueError) as err:
                channel_bounds("deletion", **params, gamma=gamma)
            assert str(err.value) == message


def _public(name):
    """The bound and use_printed_hs2 that optimize_bound takes for the bound form ``name``."""
    return ("deletion", True) if name == "deletion_printed" else (name, False)


_params = oracles.entry_params  # the parameters optimize_bound gives the bound form ``name``


def _grid(name, d=0.0, i=0.0, alpha=1.0, gammas=GRID):
    """The bound's array form over ``gammas``, of the parameters optimize_bound gives it."""
    return ab.BoundGrid(name, _params(name, d, i, alpha), gammas, ab.SeriesConfig())


# each bound form's lb_*, of its own parameters, as optimize_bound calls it
_LB = {
    "deletion": lambda p, g, cfg, diag: ab.lb_deletion(p.d, g, cfg, diag),
    "deletion_printed": lambda p, g, cfg, diag: ab.lb_deletion(p.d, g, cfg, diag, use_printed_hs2=True),
    "insertion_lb1": lambda p, g, cfg, diag: ab.lb1_insertion(p.i, p.alpha, g),
    "insertion_lb2": lambda p, g, cfg, diag: ab.lb2_insertion(p.i, p.alpha, g, cfg),
    "delins": lambda p, g, cfg, diag: ab.lb_delins(p.d, p.i, p.alpha, g, cfg, diag),
}


def _lb(name, d, i, alpha, gamma, diagnostics=False, cfg=None):
    """The bound's lb_* at ``gamma``, called as optimize_bound calls it."""
    return _LB[name](_params(name, d, i, alpha), gamma, cfg or ab.SeriesConfig(), diagnostics)


def _ceilings(name, d, i, alpha, gammas, cfg=None):
    """The bound's zero-row ceiling at each of ``gammas``, of the parameters optimize_bound gives it."""
    return oracles.zero_row_ceilings(name, _params(name, d, i, alpha), gammas, cfg or ab.SeriesConfig())


def _warm(grid):
    """The grid with every chunk evaluated: the row table then holds every row it needs."""
    for chunk in grid.chunks:
        grid.values(chunk)
    return grid


def _unpruned(name, d=0.0, i=0.0, alpha=1.0, tol=1e-5, cfg=None):
    """optimize_bound's search with no ceiling: every grid point evaluated by the lb_* itself."""
    grid = PointByPoint(lambda g: _lb(name, d, i, alpha, g, cfg=cfg).bound_bits)
    gamma_star, _ = maximize_over_gamma(grid, tol)
    return _lb(name, d, i, alpha, gamma_star, diagnostics=True, cfg=cfg)


class _ZeroRows:
    """A row table whose every row has entropy 0, which never grows."""

    def entropies(self, kernel, n):
        return np.zeros(n)


def _debug_counts(caplog) -> dict:
    """The fields of the one search record ``caplog`` holds, by name."""
    (record,) = [r for r in caplog.records if r.name == "delinscap"]
    return record.args


_FORMS = sorted(oracles.BOUND_FORMS)  # the four bounds the channels report and the printed deletion form
_CHANNEL_BOUNDS = sorted(name for channel in CHANNELS.values() for name in channel.bounds.values())  # the four alone


class TestCeiling:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(_FORMS), st.floats(0.0, 0.9), st.floats(0.0, 0.9), st.floats(0.0, 1.0),
           st.floats(1e-6, 0.99))
    @example("delins", 0.0, 0.0, 1.0, 0.5)
    @example("deletion", 0.0, 0.0, 1.0, 0.99)
    @example("insertion_lb2", 0.0, 0.9, 1.0, 1e-6)
    @example("deletion_printed", 0.9, 0.0, 1.0, 0.99)
    @example("deletion_printed", 0.0, 0.0, 1.0, 0.5)
    def test_zero_row_ceiling_bounds_the_bound(self, name, d, i, alpha, gamma):
        # the chunk ceiling, the bound on the zero-row floor of H(L_X | L_out), is at or above the
        # value bit for bit, and, like the bound, at most the source and credit terms summed (but
        # for the printed form, whose printed penalty may be negative); on a cold table it rules a
        # point out without growing the table, and on a warm one, where no row-bounded floor
        # applies, a beat rules the point out exactly when the ceiling does not exceed it
        assume(d + i <= 1.0)
        printed, chunk = name == "deletion_printed", slice(0, 1)
        res = _lb(name, d, i, alpha, gamma)
        positive = 0.0
        for t in res.terms:  # in order, as the bound is assembled
            if t.role.sign > 0:
                positive += t.value
        assert printed or res.bound_bits <= positive
        ceiling = float(_ceilings(name, d, i, alpha, np.array([gamma]))[0])
        for warm in (False, True):
            rl.ROWS.reset()
            grid = _grid(name, d, i, alpha, np.array([gamma]))
            if warm:
                _warm(grid)
            held = rl.ROWS.size
            assert grid.values(chunk, ceiling) is None and rl.ROWS.size == held
            value = float(grid.values(chunk)[0])
            assert value <= ceiling and abs(value - res.bound_bits) <= 1e-13
            assert printed or ceiling <= positive + 1e-13
            if warm:
                assert grid.values(chunk, math.nextafter(ceiling, -math.inf)) is not None
            assert grid.values(chunk, math.nextafter(value, -math.inf))[0] == value

    @pytest.mark.parametrize("name, params", [
        ("deletion", {"d": 0.0}), ("deletion", {"d": 0.1}), ("deletion", {"d": 0.9}),
        ("insertion_lb1", {"i": 0.0}), ("insertion_lb1", {"i": 0.2, "alpha": 0.8}),
        ("insertion_lb2", {"i": 0.0}), ("insertion_lb2", {"i": 0.2, "alpha": 0.8}),
        ("delins", {"d": 0.0, "i": 0.0}), ("delins", {"d": 0.0, "i": 0.1, "alpha": 0.8}),
        ("delins", {"d": 0.1, "i": 0.0}), ("delins", {"d": 0.1, "i": 0.1, "alpha": 0.8}),
        ("delins", {"d": 0.8, "i": 0.05, "alpha": 0.9}),
    ])
    def test_pruned_search_is_bit_identical(self, name, params):
        pruned = optimize_bound(name, **params)
        assert repr(pruned) == repr(_unpruned(name, **params))

    @pytest.mark.parametrize("name, params", [
        ("deletion", {"d": 0.85}), ("deletion", {"d": 0.93}), ("deletion", {"d": 0.95}),
        ("delins", {"d": 0.5, "i": 0.1, "alpha": 0.8}), ("delins", {"d": 0.7, "i": 0.05, "alpha": 0.8}),
    ])
    def test_high_gamma_search_is_bit_identical(self, name, params, cold_rows):
        # gamma* 0.95-0.995: from a cold table, the row-bounded ceiling prunes the top of the grid
        pruned = optimize_bound(name, **params)
        assert repr(pruned) == repr(_unpruned(name, **params))

    @pytest.mark.parametrize("name, params, rows", [
        ("deletion", {"d": 0.85}, 2_752), ("delins", {"d": 0.5, "i": 0.1, "alpha": 0.8}, 1_000),
    ])
    def test_cold_high_gamma_solve_builds_only_the_rows_it_needs(self, name, params, rows, cold_rows, caplog):
        # every grid point up to 0.995 would take 5 520 rows
        with caplog.at_level(logging.DEBUG, logger="delinscap"):
            optimize_bound(name, **params)
        assert cold_rows.size <= rows
        counts = _debug_counts(caplog)
        assert counts["row_skips"] > 0 and counts["rows"] == cold_rows.size

    @pytest.mark.parametrize("name, params", [
        ("deletion", {"d": 0.8}), ("deletion", {"d": 0.9}), ("deletion", {"d": 0.947}), ("deletion", {"d": 0.96}),
        ("deletion", {"d": 0.97}), ("delins", {"d": 0.8, "i": 0.05, "alpha": 0.9}),
    ])
    def test_cold_search_with_upper_probes_ruled_out_is_bit_identical(self, name, params, cold_rows):
        pruned = optimize_bound(name, **params)
        assert repr(pruned) == repr(_unpruned(name, **params))

    @pytest.mark.parametrize("d, rows, fewer", [(0.9, 2_016, True), (0.93, 3_808, False), (0.95, 4_160, True)])
    def test_cold_high_gamma_solve_builds_no_rows_for_ruled_out_probes(self, d, rows, fewer, cold_rows):
        # a ruled-out probe builds no row: under R0 = 20 000, which caps no R of these solves, a
        # cold solve holds no more rows than the same search with every probe evaluated (3 808,
        # 3 808 and 6 016 rows), and fewer at d = 0.9 and 0.95; at d = 0.93 the probes that beat
        # their thresholds read as far as the ruled-out ones would
        cfg = ab.SeriesConfig(r_max_cap=20_000)
        optimize_bound("deletion", d=d, cfg=cfg)
        pruned = cold_rows.size
        cold_rows.reset()
        _unpruned("deletion", d=d, cfg=cfg)
        assert pruned <= rows <= cold_rows.size
        assert pruned < cold_rows.size or not fewer

    @pytest.mark.parametrize("d, rows", [(0.8, 1_024), (0.9, 2_240), (0.947, 4_032), (0.99, 4_096)])
    def test_cold_solve_reads_exact_rows_only_up_to_the_band(self, d, rows, cold_rows):
        # exact rows up to R <= R0 = 4 096 and the band past them: once 960, 2 144, 3 936 and
        # 20 000 rows, when rows were read up to r_max and the printed form up to 20 000
        optimize_bound("deletion", d=d)
        assert cold_rows.size <= rows <= ab.SeriesConfig().r_max_cap

    @pytest.mark.parametrize("name, params", [
        ("deletion", {"d": 0.1}), ("deletion", {"d": 0.5}), ("deletion", {"d": 0.9}), ("deletion", {"d": 0.95}),
        ("insertion_lb2", {"i": 0.3, "alpha": 0.8}), ("delins", {"d": 0.7, "i": 0.1, "alpha": 0.9}),
    ])
    def test_refinement_takes_few_exact_probes(self, name, params, caplog):
        # golden section took 17 exact probes at every point; this one counts the grid argmax's too
        with caplog.at_level(logging.DEBUG, logger="delinscap"):
            optimize_bound(name, **params)
        assert 1 <= _debug_counts(caplog)["probes"] <= 10

    def test_debug_record_counts_ruled_out_probes(self, cold_rows, caplog):
        with caplog.at_level(logging.DEBUG, logger="delinscap"):
            optimize_bound("deletion", d=0.95, cfg=ab.SeriesConfig(r_max_cap=20_000))
        counts = _debug_counts(caplog)
        assert counts["probe_skips"] >= 1 and counts["rows"] == cold_rows.size

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.sampled_from(["deletion", "deletion_printed", "insertion_lb2", "delins"]), st.floats(0.0, 0.95),
           st.floats(0.0, 0.95), st.floats(0.0, 1.0), st.floats(0.9, 0.9999), st.floats(0.0, 1.0))
    @example("deletion", 0.95, 0.0, 1.0, 0.9953, 1.0)
    @example("delins", 0.45, 0.55, 0.5, 0.99, 0.5)  # interior zero: every bit deleted or doubled
    @example("insertion_lb2", 0.0, 0.4, 0.6, 0.9999, 0.0)
    @example("deletion_printed", 0.9, 0.0, 1.0, 0.995, 0.5)
    def test_probe_is_ruled_out_only_if_the_bound_cannot_beat(self, name, d, i, alpha, gamma, share):
        # the probe ceiling is at least the lb_* itself, bit for bit: a beat
        # one ulp below the bound is never ruled out
        if d + i > 1.0:
            d, i = i, 1.0 - i
        cfg = ab.SeriesConfig()
        grid = _grid(name, d, i, alpha)
        p = _params(name, d, i, alpha)
        law = run_law_at(gamma, p.d, p.i, cfg)
        assume(law.kernel)
        rl.ROWS.reset()
        value = _lb(name, d, i, alpha, gamma).bound_bits
        # the rows the point reads, its R, held in the table's own block
        kernel, block = law.kernel, oracles.table_block(law.kernel)
        blocks = (min(rl.ROWS.size, law.size) - 1) // block
        assume(blocks >= 1)
        held = block * (1 + int(share * (blocks - 1)))  # short of them
        rl.ROWS.reset()
        rl.ROWS.entropies(kernel, held)
        assert grid.at(gamma, math.inf) is None
        assert rl.ROWS.size == held  # ruled out before the table grew
        assert repr(grid.at(gamma, math.nextafter(value, -math.inf))) == repr(value)

    def test_grid_chunk_plan_is_kept(self):
        # a warm solve reads the plan of the cold one's grid, and gives its result bit for bit
        # (that the plan's arrays are read-only is a layout rule, in test_layout.py)
        cfg = ab.SeriesConfig(tail_epsilon=2e-12)  # a plan no other test fills
        first = optimize_bound("deletion", d=0.9, cfg=cfg)
        law = RunLawGrid(GRID, 0.9, 0.0, cfg)
        warm = optimize_bound("deletion", d=0.9, cfg=cfg)
        assert RunLawGrid(GRID, 0.9, 0.0, cfg).chunks is law.chunks
        assert repr(warm) == repr(first)

    @pytest.mark.parametrize("cap", [4_096, 20_000])
    @pytest.mark.parametrize("gammas", [
        tuple(GRID.tolist()), tuple(GRID[::-1].tolist()), (0.99, 0.5, 0.3),
        tuple(np.random.default_rng(7).permutation(GRID).tolist()),
    ], ids=["sorted", "descending", "one_long_point_first", "shuffled"])
    def test_every_chunk_holds_the_cell_cap_or_one_point(self, gammas, cap, monkeypatch):
        # the cut once read each point's own r_max: (0.99, 0.5, 0.3) was one chunk of 3 x 5 501 cells;
        # a deletion law, whose rows come in blocks of 32, its values read off a table of zero rows
        monkeypatch.setattr(rl, "ROWS", _ZeroRows())
        cfg = ab.SeriesConfig(r_max_cap=cap)
        law = RunLawGrid(np.array(gammas), 0.5, 0.0, cfg)
        starts = [run_law_at(g, 0.5, 0.0, cfg).size for g in gammas]
        assert law.chunks[0].start == 0 and law.chunks[-1].stop == len(gammas)
        assert all(a.stop == b.start for a, b in zip(law.chunks, law.chunks[1:]))
        for chunk in law.chunks:
            points = chunk.stop - chunk.start
            assert points == 1 or points * (2 * max(starts[chunk]) + 1) <= oracles.CHUNK_CELLS
            run = law.chunk(chunk)
            assert run.size == max(starts[chunk]) and run.values().shape == (points,)

    def test_gamma_star_on_both_sides_of_0_9(self):
        assert optimize_bound("deletion", d=0.1).gamma_star < 0.9 < optimize_bound("deletion", d=0.9).gamma_star
        assert optimize_bound("delins", d=0.1, i=0.1, alpha=0.8).gamma_star < 0.9 < \
            optimize_bound("delins", d=0.8, i=0.05, alpha=0.9).gamma_star

    def test_non_finite_objective_raises_with_a_ceiling(self):
        for fn, ceiling in [(lambda g: float("nan"), 1.0), (lambda g: float("inf") if g > 0.5 else 0.0, math.inf)]:
            with pytest.raises(ValueError):
                maximize_over_gamma(_Ceiling(fn, ceiling))

    def test_low_gamma_solve_keeps_the_row_table_short(self, cold_rows):
        optimize_bound("deletion", d=0.1)
        rows = cold_rows.size
        assert 0 < rows <= run_law_at(0.995, 0.1, 0.0, None).size // 10

    def test_printed_form_is_pruned(self, caplog):
        # the zero-row ceiling holds whatever the signs of the other terms: the printed form's
        # search skips chunks, and finds the unpruned search's result
        with caplog.at_level(logging.DEBUG, logger="delinscap"):
            res = optimize_bound("deletion", d=0.2, use_printed_hs2=True)
        assert _debug_counts(caplog)["chunks_skipped"] > 0
        assert repr(res) == repr(_unpruned("deletion_printed", d=0.2))
        assert "deleted_runs_penalty_printed_form" in {t.name for t in res.terms}

    @pytest.mark.parametrize("d", [0.0, 0.2, 0.9, 0.99])
    def test_printed_form_search_is_bit_identical(self, d, cold_rows):
        # from a cold table, so that the row-bounded ceiling prunes the printed form too
        pruned = optimize_bound("deletion", d=d, use_printed_hs2=True)
        assert repr(pruned) == repr(_unpruned("deletion_printed", d=d))

    @pytest.mark.parametrize("name", _FORMS)
    def test_every_form_has_chunk_ceilings(self, name):
        # with every row held, and again with none, only the zero-row ceiling can rule a chunk out:
        # for every bound and the printed form, a beat at a chunk's largest ceiling rules it out,
        # one ulp below does not (a largest ceiling taken over any other slice fails at some chunk)
        grid = _warm(_grid(name, 0.2, 0.1, 0.8))
        ceilings = _ceilings(name, 0.2, 0.1, 0.8, GRID)
        for chunk in grid.chunks:
            top = float(np.max(ceilings[chunk]))
            assert math.isfinite(top) and grid.values(chunk, top) is None
            assert grid.values(chunk, math.nextafter(top, -math.inf)) is not None
            rl.ROWS.reset()
            assert grid.values(chunk, top) is None
            rl.ROWS.reset()
            assert grid.values(chunk, math.nextafter(top, -math.inf)) is not None
            _warm(grid)
        assert grid.row_skips == 0

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("name", _FORMS)
    def test_debug_record_counts_agree(self, name, warm, cold_rows, caplog):
        # every grid point and chunk is evaluated or skipped, and the row-bounded ceiling's
        # skips are among the chunks skipped
        bound, printed = _public(name)
        params = {"deletion": {"d": 0.9}, "delins": {"d": 0.7, "i": 0.05, "alpha": 0.8}}.get(bound, {"i": 0.3})
        if warm:
            optimize_bound(bound, use_printed_hs2=printed, **params)
        with caplog.at_level(logging.DEBUG, logger="delinscap"):
            optimize_bound(bound, use_printed_hs2=printed, **params)
        counts = _debug_counts(caplog)
        assert counts["points_evaluated"] + counts["points_skipped"] == GRID.size
        chunks = len(_grid(name, **params).chunks)
        assert counts["chunks_evaluated"] + counts["chunks_skipped"] == chunks
        assert counts["row_skips"] <= counts["chunks_skipped"]

    def test_one_debug_record_per_search(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="delinscap"):
            optimize_bound("deletion", d=0.1)
        records = [r for r in caplog.records if r.name == "delinscap"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        counts = records[0].args
        assert counts["points_evaluated"] + counts["points_skipped"] == 199 and counts["points_skipped"] > 0
        assert repr(counts["argmax"]).startswith("0.58") and repr(counts["lo"]).startswith("0.575")

    def test_search_leaves_logging_unimported(self):
        code = ("import sys; from delinscap.gamma_optimizer import optimize_bound; "
                "optimize_bound('deletion', d=0.1); print('logging' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(delinscap.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
                             check=True)
        assert out.stdout.strip() == "False"

    def test_nothing_logged_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="delinscap"):
            optimize_bound("delins", d=0.1, i=0.1, alpha=0.8)
        assert not [r for r in caplog.records if r.name == "delinscap"]


_PRUNED_CASES = [
    ("deletion", {"d": 0.0}), ("deletion", {"d": 0.1}), ("deletion", {"d": 0.9}),
    ("insertion_lb1", {"i": 0.0}), ("insertion_lb1", {"i": 0.2, "alpha": 0.8}),
    ("insertion_lb2", {"i": 0.0}), ("insertion_lb2", {"i": 0.2, "alpha": 0.8}),
    ("delins", {"d": 0.0, "i": 0.0}), ("delins", {"d": 0.0, "i": 0.1, "alpha": 0.8}),
    ("delins", {"d": 0.1, "i": 0.0}), ("delins", {"d": 0.1, "i": 0.1, "alpha": 0.8}),
    ("delins", {"d": 0.8, "i": 0.05, "alpha": 0.9}),
]


def _grid_argmax(caplog, search) -> float:
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="delinscap"):
        search()
    return _debug_counts(caplog)["argmax"]


class TestArrayForm:
    """Each bound's array form (:class:`~delinscap.analytic_bounds.BoundGrid`) against its lb_*."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(_FORMS), st.floats(0.0, 0.95), st.floats(0.0, 0.95), st.floats(0.0, 1.0),
           st.lists(st.floats(GAMMA_MIN, GAMMA_MAX), min_size=1, max_size=4))
    @example("deletion", 0.0, 0.0, 1.0, [0.5])
    @example("deletion_printed", 0.0, 0.0, 1.0, [0.5])  # the printed form's gamma*log2(gamma) at d = 0
    @example("deletion_printed", 0.9, 0.0, 1.0, [0.99])
    @example("insertion_lb1", 0.0, 0.0, 0.3, [0.5])
    @example("insertion_lb2", 0.0, 0.0, 1.0, [0.5])
    @example("insertion_lb2", 0.0, 1e-300, 0.8, [0.3])
    @example("delins", 0.0, 0.0, 1.0, [0.5])
    @example("delins", 0.0, 0.4, 0.7, [0.5])
    @example("delins", 0.4, 0.0, 0.7, [0.5])
    @example("delins", 0.3, 0.7, 0.5, [0.5])
    @example("delins", 0.3, 0.7, 1.0, [0.5])
    @example("delins", 0.2, 1e-300, 0.8, [0.3])
    def test_array_form_matches_scalar_form(self, name, d, i, alpha, drawn):
        assume(d + i <= 1.0)
        gammas = np.array(sorted({GAMMA_MIN, 0.995, GAMMA_MAX, *drawn}))
        grid = _grid(name, d, i, alpha, gammas)
        values = np.concatenate([grid.values(chunk) for chunk in grid.chunks])
        scalar = [_lb(name, d, i, alpha, g) for g in gammas.tolist()]
        for v, res in zip(values.tolist(), scalar):
            assert abs(v - res.bound_bits) <= 1e-13
            assert type(res.bound_bits) is float and all(type(t.value) is float for t in res.terms)
        assert np.all(_ceilings(name, d, i, alpha, gammas) >= values)
        assert type(grid.at(float(gammas[0]))) is float

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(_FORMS), st.floats(0.0, 0.999), st.floats(0.0, 0.999), st.floats(0.0, 1.0),
           st.floats(GAMMA_MIN, 0.9999))
    @example("delins", 0.45, 0.55, 0.5, 0.9999)  # d + i = 1: t = -1
    @example("delins", 0.7, 0.3, 1.0, 0.995)
    @example("insertion_lb2", 0.0, 0.999, 0.3, 0.9999)
    @example("deletion", 5e-324, 0.0, 1.0, 0.99)  # subnormal rates
    @example("deletion_printed", 5e-324, 0.0, 1.0, 0.99)
    @example("deletion_printed", 0.0, 0.0, 1.0, 0.5)
    @example("delins", 5e-324, 0.2, 0.8, 0.6)
    @example("delins", 0.3, 5e-324, 0.8, 0.9)
    @example("insertion_lb2", 0.0, 5e-324, 0.8, 0.3)
    @example("insertion_lb1", 0.0, 5e-324, 0.0, GAMMA_MIN)
    def test_search_objective_is_the_lb_bit_for_bit(self, name, d, i, alpha, gamma):
        if d + i > 1.0:
            d, i = i, 1.0 - i
        grid = _grid(name, d, i, alpha)
        assert repr(grid.at(gamma)) == repr(_lb(name, d, i, alpha, gamma).bound_bits)
        # H(L_out) over the grid's gammas is each gamma's array form alone, bit
        # for bit, and its float form within numpy's and math's differing last
        # bits: 1e-15 max(1, H) is exceeded at gamma <= 0.2 by the closed form
        # itself (2.6e-15 at i = 0.999).  (That the grid's own closed part and
        # band are each gamma's alone, bit for bit, is checked on the same
        # draws in test_layout.py.)
        gammas = np.append(GRID, gamma)
        assume(name != "insertion_lb1")  # LB 1 has no run-length term
        p = _params(name, d, i, alpha)
        step = (p.d, max(1.0 - p.d - p.i, 0.0), p.i)
        for g, h in zip(gammas.tolist(), output_length_entropy(gammas, step)[0].tolist()):
            h_out = output_length_entropy(np.array([g]), step)[0]
            assert h_out.tolist() == [h]
            ref = output_length_entropy(g, step)[0]
            assert abs(float(h_out[0]) - ref) <= 1e-14 * max(1.0, ref)

    @pytest.mark.parametrize("d, i", [(0.45, 0.55), (0.7, 0.3)])
    def test_grid_output_length_entropy_allocates_little(self, d, i):
        # d + i = 1: no correction term at (0.45, 0.55); at (0.7, 0.3), where 1 - d - i
        # rounds to 5.6e-17, up to 4 096 at every grid point, 199 x 4 096 had they been taken at once
        import tracemalloc
        _grid("delins", d, i, 0.5)  # the grid's plan kept
        tracemalloc.start()
        try:
            _grid("delins", d, i, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2 ** 20

    @pytest.mark.parametrize("name, params", _PRUNED_CASES)
    def test_array_search_finds_the_scalar_grid_argmax(self, name, params, caplog):
        assert _grid_argmax(caplog, lambda: optimize_bound(name, **params)) == \
            _grid_argmax(caplog, lambda: _unpruned(name, **params))

    def test_custom_series_config_takes_the_array_path(self, monkeypatch):
        from delinscap import verification
        seen = []
        original = RunLawGrid

        def spy(gammas, d, i, cfg):
            seen.append(cfg)
            return original(gammas, d, i, cfg)

        monkeypatch.setattr(ab, "_RunLawGrid", spy)
        tight = ab.SeriesConfig(tail_epsilon=5e-13, r_max_cap=20_000)
        for name, params in [("deletion", {"d": 0.1}), ("insertion_lb2", {"i": 0.2, "alpha": 0.8}),
                             ("delins", {"d": 0.2, "i": 0.2, "alpha": 0.5})]:
            base = optimize_bound(name, **params)
            seen.clear()
            res = optimize_bound(name, cfg=tight, **params)
            assert seen and all(cfg is tight for cfg in seen)
            assert abs(res.bound_bits - base.bound_bits) <= verification.TOL_TRUNCATION
        assert verification.verify_truncation(tight)["passed"]

    @pytest.mark.parametrize("name, params", [
        ("deletion", {"d": 0.2}), ("deletion", {"d": 0.95}), ("insertion_lb2", {"i": 0.1, "alpha": 0.8}),
        ("delins", {"d": 0.5, "i": 0.1, "alpha": 0.8}),
    ])
    def test_cold_solve_allocates_little(self, name, params, cold_rows):
        import tracemalloc
        optimize_bound("deletion", d=0.5)  # first-use allocations of numpy and the package
        cold_rows.reset()
        tracemalloc.start()
        try:
            optimize_bound(name, **params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2 ** 20

    def test_debug_record_counts_chunks(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="delinscap"):
            optimize_bound("deletion", d=0.1)
        counts = _debug_counts(caplog)
        evaluated, skipped = counts["chunks_evaluated"], counts["chunks_skipped"]
        assert evaluated + skipped == len(_grid("deletion", 0.1).chunks) and evaluated > 0 and skipped > 0


def _capacity(name, d):
    """A capacity the bound ``name`` may not exceed: 1 - d for the deletion
    and combined channels (a genie that reveals where bits were deleted and
    inserted leaves an erasure channel), 1 for the insertion channel."""
    return 1.0 - d if name in ("deletion", "delins") else 1.0


def _optimized_bounds(test):
    """``test`` over the optimized bounds' domain: any bound, d and i up to
    0.99 (swapped into d + i <= 1 by the test) and any alpha."""
    for args in [("deletion", 0.99, 0.0, 1.0), ("delins", 0.45, 0.55, 0.5), ("delins", 0.5, 0.3, 0.8)]:
        test = example(*args)(test)
    test = given(st.sampled_from(_CHANNEL_BOUNDS), st.floats(0.0, 0.99), st.floats(0.0, 0.99),
                 st.floats(0.0, 1.0))(test)
    return settings(max_examples=25, deadline=None, derandomize=True)(test)


class TestCapacityEnvelope:
    """Every bound, at any gamma and at gamma*, lies below its channel's
    capacity, up to its own error budget and 1e-12: the terms are O(1) bits
    added in a few float operations, so their rounding is far below that."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(_CHANNEL_BOUNDS), st.floats(0.0, 0.999), st.floats(0.0, 0.999), st.floats(0.0, 1.0),
           st.floats(GAMMA_MIN, GAMMA_MAX))
    @example("deletion", 0.0, 0.0, 1.0, 0.5)  # the bound is the capacity, 1
    @example("deletion", 0.99, 0.0, 1.0, GAMMA_MAX)
    @example("deletion", 0.5, 0.0, 1.0, GAMMA_MIN)
    @example("delins", 0.45, 0.55, 0.5, GAMMA_MAX)  # d + i = 1
    @example("delins", 0.3, 0.7, 1.0, GAMMA_MIN)
    @example("delins", 0.5, 0.3, 0.8, 0.9999)  # the run-length term's band at the cap
    @example("insertion_lb1", 0.0, 0.999, 0.0, GAMMA_MAX)
    @example("insertion_lb2", 0.0, 0.999, 0.3, GAMMA_MIN)
    def test_bound_at_any_gamma(self, name, d, i, alpha, gamma):
        if d + i > 1.0:
            d, i = i, 1.0 - i
        res = _lb(name, d, i, alpha, gamma)
        assert res.bound_bits <= _capacity(name, _params(name, d, i, alpha).d) + res.error_budget + 1e-12

    @_optimized_bounds
    def test_optimized_bound(self, name, d, i, alpha):
        if d + i > 1.0:
            d, i = i, 1.0 - i
        res = optimize_bound(name, d=d, i=i, alpha=alpha)
        assert res.bound_bits <= _capacity(name, _params(name, d, i, alpha).d) + res.error_budget + 1e-12

    @_optimized_bounds
    def test_gamma_star_is_a_local_maximum(self, name, d, i, alpha):
        # the benchmark's check of every bound it solves: no gamma 1e-4 away beats gamma*
        if d + i > 1.0:
            d, i = i, 1.0 - i
        res = optimize_bound(name, d=d, i=i, alpha=alpha)
        for gamma in (res.gamma_star - 1e-4, res.gamma_star + 1e-4):
            if GAMMA_MIN <= gamma <= GAMMA_MAX:
                assert _lb(name, d, i, alpha, gamma).bound_bits <= res.bound_bits + 1e-9
