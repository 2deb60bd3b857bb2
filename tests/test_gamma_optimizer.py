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
from delinscap import analytic_bounds as ab
from delinscap import gamma_optimizer as go
from delinscap.gamma_optimizer import (CHANNELS, GAMMA_MAX, GAMMA_MIN, channel_bounds, maximize_over_gamma,
                                       optimize_bound, sweep)

from oracles import PointByPoint


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

    def test_non_finite_propagates(self):
        with pytest.raises(ValueError):
            maximize_over_gamma(PointByPoint(lambda g: float("nan")))

    def test_respects_domain(self):
        seen = []

        def fn(g):
            seen.append(g)
            return binary_entropy(g)

        maximize_over_gamma(PointByPoint(fn))
        assert min(seen) >= GAMMA_MIN and max(seen) <= GAMMA_MAX

    @pytest.mark.parametrize("probe", [0, 1])
    def test_best_point_of_the_first_golden_section_pair_is_returned(self, probe):
        # grid argmax 0.5, bracket [0.495, 0.505]; a spike at one probe of the
        # first pair that no later probe comes near
        a, c = float(go._GRID[98]), float(go._GRID[100])
        x = (c - go._INVPHI * (c - a), a + go._INVPHI * (c - a))[probe]
        assert maximize_over_gamma(PointByPoint(lambda g: 1.0 if g == x else -(g - 0.5) ** 2)) == (x, 1.0)

    def test_returns_the_largest_value_evaluated(self):
        # at this point the first lower probe's value stays above the best for three steps
        grid = _Recording(_grid("delins", 0.8, 0.05, 0.9))
        g, v = maximize_over_gamma(grid)
        assert v == max(grid.seen) and grid.at(g) == v
        assert repr(optimize_bound("delins", d=0.8, i=0.05, alpha=0.9).gamma_star) == repr(g)


class _Recording:
    """A :class:`~delinscap.analytic_bounds.BoundGrid` that records every
    value its grid form and its float form return."""

    def __init__(self, grid):
        self._grid, self.seen = grid, []
        self.gammas, self.chunks = grid.gammas, grid.chunks

    def values(self, chunk, beat):
        values = self._grid.values(chunk, beat)
        self.seen += [] if values is None else values.tolist()
        return values

    def at(self, gamma, beat=-math.inf):
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


def _grid(name, d=0.0, i=0.0, alpha=1.0, gammas=go._GRID, printed=False):
    """The bound's array form over ``gammas``, of the parameters optimize_bound gives it."""
    return ab.BoundGrid(name, go._bound_params(name, d, i, alpha), gammas, ab.SeriesConfig(), printed)


def _lb(name, d, i, alpha, gamma, diagnostics=False, printed=False):
    """The bound's lb_* at ``gamma``, called as optimize_bound calls it."""
    return ab._BOUNDS[name].lb(go._bound_params(name, d, i, alpha), gamma, ab.SeriesConfig(), diagnostics, printed)


def _warm(grid):
    """The grid with every chunk evaluated: the row table then holds every row it needs."""
    for chunk in grid.chunks:
        grid.values(chunk)
    return grid


def _unpruned(name, d=0.0, i=0.0, alpha=1.0, printed=False, tol=1e-5):
    """optimize_bound's search with no ceiling: every grid point evaluated by the lb_* itself."""
    grid = PointByPoint(lambda g: _lb(name, d, i, alpha, g, printed=printed).bound_bits)
    gamma_star, _ = maximize_over_gamma(grid, tol)
    return _lb(name, d, i, alpha, gamma_star, diagnostics=True, printed=printed)


class TestCeiling:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(ab._BOUNDS)), st.floats(0.0, 0.9), st.floats(0.0, 0.9), st.floats(0.0, 1.0),
           st.floats(1e-6, 0.99))
    @example("delins", 0.0, 0.0, 1.0, 0.5)
    @example("deletion", 0.0, 0.0, 1.0, 0.99)
    @example("insertion_lb2", 0.0, 0.9, 1.0, 1e-6)
    def test_ceiling_is_the_positive_terms_and_bounds_the_bound(self, name, d, i, alpha, gamma):
        assume(d + i <= 1.0)
        res = _lb(name, d, i, alpha, gamma, diagnostics=True)
        positive = 0.0
        for t in res.terms:  # in order, as the bound is assembled
            if t.role.sign > 0:
                positive += t.value
        assert res.bound_bits <= positive
        # the grid's ceiling is the same sum over its own term arrays, at or above its values bit for bit:
        # with every row held, a beat rules the point out exactly when the ceiling does not exceed it
        grid = _warm(_grid(name, d, i, alpha, np.array([gamma])))
        value = grid.values()[0]
        assert grid.values(beat=positive + 1e-13) is None
        assert grid.values(beat=positive - 1e-13) is not None
        assert grid.values(beat=math.nextafter(value, -math.inf)) is not None

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
    def test_high_gamma_search_is_bit_identical(self, name, params, monkeypatch):
        # gamma* 0.95-0.995: from a cold table, the row-bounded ceiling prunes the top of the grid
        monkeypatch.setattr(ab, "_ROW_ENTROPIES", ((), ab.np.ones(1), ab.np.zeros(0), ab.np.zeros(0)))
        pruned = optimize_bound(name, **params)
        assert repr(pruned) == repr(_unpruned(name, **params))

    @pytest.mark.parametrize("name, params, rows", [
        ("deletion", {"d": 0.85}, 2_752), ("delins", {"d": 0.5, "i": 0.1, "alpha": 0.8}, 1_000),
    ])
    def test_cold_high_gamma_solve_builds_only_the_rows_it_needs(self, name, params, rows, monkeypatch, caplog):
        # every grid point up to 0.995 would take 5 520 rows
        monkeypatch.setattr(ab, "_ROW_ENTROPIES", ((), ab.np.ones(1), ab.np.zeros(0), ab.np.zeros(0)))
        with caplog.at_level(logging.DEBUG, logger="delinscap"):
            optimize_bound(name, **params)
        assert ab._row_table_size() <= rows
        (record,) = [r for r in caplog.records if r.name == "delinscap"]
        message = record.getMessage()
        assert int(message.split("row-bounded ceiling skipped ")[1].split()[0]) > 0
        assert message.endswith(f"; row table {ab._row_table_size()} rows")

    @pytest.mark.parametrize("name, params", [
        ("deletion", {"d": 0.8}), ("deletion", {"d": 0.9}), ("deletion", {"d": 0.947}), ("deletion", {"d": 0.96}),
        ("deletion", {"d": 0.97}), ("delins", {"d": 0.8, "i": 0.05, "alpha": 0.9}),
    ])
    def test_cold_search_with_upper_probes_ruled_out_is_bit_identical(self, name, params, monkeypatch):
        monkeypatch.setattr(ab, "_ROW_ENTROPIES", ((), ab.np.ones(1), ab.np.zeros(0), ab.np.zeros(0)))
        pruned = optimize_bound(name, **params)
        assert repr(pruned) == repr(_unpruned(name, **params))

    @pytest.mark.parametrize("d, rows", [(0.9, 3_120), (0.93, 5_520), (0.95, 7_232)])
    def test_cold_high_gamma_solve_builds_no_rows_for_ruled_out_probes(self, d, rows, monkeypatch):
        # with every upper probe evaluated: 3 744, 7 232 and 10 000 rows
        monkeypatch.setattr(ab, "_ROW_ENTROPIES", ((), ab.np.ones(1), ab.np.zeros(0), ab.np.zeros(0)))
        optimize_bound("deletion", d=d)
        assert ab._row_table_size() <= rows

    def test_debug_record_counts_ruled_out_probes(self, monkeypatch, caplog):
        monkeypatch.setattr(ab, "_ROW_ENTROPIES", ((), ab.np.ones(1), ab.np.zeros(0), ab.np.zeros(0)))
        with caplog.at_level(logging.DEBUG, logger="delinscap"):
            optimize_bound("deletion", d=0.95)
        (record,) = [r for r in caplog.records if r.name == "delinscap"]
        message = record.getMessage()
        assert int(message.split(" probes; row table")[0].split()[-1]) >= 1
        assert message.endswith(f"; row table {ab._row_table_size()} rows")

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
        name, printed = ("deletion", True) if name == "deletion_printed" else (name, False)
        cfg = ab.SeriesConfig()
        grid = _grid(name, d, i, alpha, printed=printed)
        kernel = grid._run_law(gamma).kernel
        blocks = (ab._r_truncation(gamma, cfg) - 1) // ab._ROW_BLOCK
        assume(kernel and blocks >= 1)
        held = ab._ROW_BLOCK * (1 + int(share * (blocks - 1)))  # short of r_max
        empty = ((), np.ones(1), np.zeros(0), np.zeros(0))
        saved, ab._ROW_ENTROPIES = ab._ROW_ENTROPIES, empty
        try:
            value = _lb(name, d, i, alpha, gamma, printed=printed).bound_bits
            ab._ROW_ENTROPIES = empty
            ab._row_entropies(kernel, held)
            assert grid.at(gamma, math.inf) is None
            assert ab._row_table_size() == held  # ruled out before the table grew
            assert repr(grid.at(gamma, math.nextafter(value, -math.inf))) == repr(value)
        finally:
            ab._ROW_ENTROPIES = saved

    def test_grid_chunk_weights_are_kept_read_only(self):
        cfg = ab.SeriesConfig(tail_epsilon=2e-12)  # a plan no other test fills
        first = optimize_bound("deletion", d=0.9, cfg=cfg)
        info = ab._grid_plan.cache_info()
        warm = optimize_bound("deletion", d=0.9, cfg=cfg)
        assert ab._grid_plan.cache_info().misses == info.misses
        assert repr(warm) == repr(first)
        plan = ab._grid_plan(cfg, tuple(go._GRID.tolist()))
        weights = plan.weights(plan.chunks[-1])
        assert plan.weights(plan.chunks[-1]) is weights  # built once, then kept
        assert not any(array.flags.writeable for array in (plan.r_max, weights))
        ab._grid_plan.cache_clear()
        assert repr(optimize_bound("deletion", d=0.9, cfg=cfg)) == repr(warm)

    def test_gamma_star_on_both_sides_of_0_9(self):
        assert optimize_bound("deletion", d=0.1).gamma_star < 0.9 < optimize_bound("deletion", d=0.9).gamma_star
        assert optimize_bound("delins", d=0.1, i=0.1, alpha=0.8).gamma_star < 0.9 < \
            optimize_bound("delins", d=0.8, i=0.05, alpha=0.9).gamma_star

    def test_non_finite_objective_raises_with_a_ceiling(self):
        for fn, ceiling in [(lambda g: float("nan"), 1.0), (lambda g: float("inf") if g > 0.5 else 0.0, math.inf)]:
            with pytest.raises(ValueError):
                maximize_over_gamma(_Ceiling(fn, ceiling))

    def test_low_gamma_solve_keeps_the_row_table_short(self, monkeypatch):
        monkeypatch.setattr(ab, "_ROW_ENTROPIES", ((), ab.np.ones(1), ab.np.zeros(0), ab.np.zeros(0)))
        optimize_bound("deletion", d=0.1)
        rows = ab._ROW_ENTROPIES[2].size
        assert 0 < rows <= ab._r_truncation(0.995, ab.SeriesConfig()) // 10

    def test_printed_form_is_not_pruned(self):
        # a printed penalty may be negative: no source-plus-credit ceiling, so with every row held
        # no chunk is ruled out even against an infinite beat
        grid = _warm(_grid("deletion", 0.2, printed=True))
        assert all(grid.values(chunk, math.inf) is not None for chunk in grid.chunks)
        res = optimize_bound("deletion", d=0.2, use_printed_hs2=True)
        assert repr(res) == repr(_unpruned("deletion", d=0.2, printed=True))
        assert "deleted_runs_penalty_printed_form" in {t.name for t in res.terms}

    @pytest.mark.parametrize("d", [0.0, 0.2, 0.9, 0.99])
    def test_printed_form_search_is_bit_identical(self, d, monkeypatch):
        # from a cold table, so that the row-bounded ceiling prunes the printed form too
        monkeypatch.setattr(ab, "_ROW_ENTROPIES", ((), ab.np.ones(1), ab.np.zeros(0), ab.np.zeros(0)))
        pruned = optimize_bound("deletion", d=d, use_printed_hs2=True)
        assert repr(pruned) == repr(_unpruned("deletion", d=d, printed=True))

    def test_only_the_printed_form_lacks_ceilings(self):
        # with every row held, only the source-plus-credit ceiling can rule a chunk out
        for name in ab._BOUNDS:
            grid = _warm(_grid(name, 0.2, 0.1, 0.8))
            assert all(grid.values(chunk, math.inf) is None for chunk in grid.chunks), name
        grid = _warm(_grid("deletion", 0.2, 0.0, 1.0, printed=True))
        assert all(grid.values(chunk, math.inf) is not None for chunk in grid.chunks)

    def test_one_debug_record_per_search(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="delinscap"):
            optimize_bound("deletion", d=0.1)
        records = [r for r in caplog.records if r.name == "delinscap"]
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        message = records[0].getMessage()
        evaluated, skipped = (int(message.split(" points evaluated")[0].split()[-1]),
                              int(message.split(" skipped")[0].split()[-1]))
        assert evaluated + skipped == 199 and skipped > 0
        assert "argmax 0.58" in message and "bracket [0.575" in message

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


def _grid_argmax(caplog, search) -> str:
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="delinscap"):
        search()
    (record,) = [r for r in caplog.records if r.name == "delinscap"]
    return record.getMessage().split("argmax ")[1].split(";")[0]


class TestArrayForm:
    """Each bound's array form (:class:`~delinscap.analytic_bounds.BoundGrid`) against its lb_*."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(ab._BOUNDS)), st.floats(0.0, 0.95), st.floats(0.0, 0.95), st.floats(0.0, 1.0),
           st.lists(st.floats(GAMMA_MIN, GAMMA_MAX), min_size=1, max_size=4))
    @example("deletion", 0.0, 0.0, 1.0, [0.5])
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
        values = grid.values()
        scalar = [_lb(name, d, i, alpha, g) for g in gammas.tolist()]
        for v, res in zip(values.tolist(), scalar):
            assert abs(v - res.bound_bits) <= 1e-13
            assert type(res.bound_bits) is float and all(type(t.value) is float for t in res.terms)
        assert np.all(grid._ceilings >= values)
        assert type(grid.at(float(gammas[0]))) is float

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(ab._BOUNDS)), st.floats(0.0, 0.999), st.floats(0.0, 0.999), st.floats(0.0, 1.0),
           st.floats(GAMMA_MIN, 0.9999))
    @example("delins", 0.45, 0.55, 0.5, 0.9999)  # d + i = 1: t = -1
    @example("delins", 0.7, 0.3, 1.0, 0.995)
    @example("insertion_lb2", 0.0, 0.999, 0.3, 0.9999)
    @example("deletion", 5e-324, 0.0, 1.0, 0.99)  # subnormal rates
    @example("delins", 5e-324, 0.2, 0.8, 0.6)
    @example("delins", 0.3, 5e-324, 0.8, 0.9)
    @example("insertion_lb2", 0.0, 5e-324, 0.8, 0.3)
    @example("insertion_lb1", 0.0, 5e-324, 0.0, GAMMA_MIN)
    def test_search_objective_is_the_lb_bit_for_bit(self, name, d, i, alpha, gamma):
        if d + i > 1.0:
            d, i = i, 1.0 - i
        cfg = ab.SeriesConfig()
        grid = _grid(name, d, i, alpha)
        assert repr(grid.at(gamma)) == repr(_lb(name, d, i, alpha, gamma).bound_bits)
        # The grid-level H(L_X) - H(L_out), at each gamma's own r_max, is
        # that gamma's array form alone, bit for bit, and H(L_out) of it its
        # float form within numpy's and math's differing last bits: 1e-15
        # max(1, H) is exceeded at gamma <= 0.2 by the closed form itself
        # (2.6e-15 at i = 0.999).
        gammas = np.append(go._GRID, gamma)
        closed = _grid(name, d, i, alpha, gammas)._closed
        assume(closed is not None)  # LB 1 has no run-length term
        step = ab._step_law(d if name in ("deletion", "delins") else 0.0, i if name != "deletion" else 0.0)
        for g, c in zip(gammas.tolist(), closed.tolist()):
            r_max = ab._r_truncation(g, cfg)
            h_out = ab._output_length_entropy(np.array([g]), step, np.array([2 * r_max]))
            assert (ab._run_length_entropy(np.array([g]), np.array([r_max])) - h_out).tolist() == [c]
            ref = ab._output_length_entropy(g, step, 2 * r_max)
            assert abs(float(h_out[0]) - ref) <= 1e-14 * max(1.0, ref)

    @pytest.mark.parametrize("d, i", [(0.45, 0.55), (0.7, 0.3)])
    def test_grid_output_length_entropy_allocates_little(self, d, i):
        # d + i = 1: up to 2 r_max + 1 correction terms at every grid point,
        # 199 x 11 041 of them at grid point 0.995, had they been taken at once
        import tracemalloc
        _grid("delins", d, i, 0.5)  # the grid's r_max kept
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
        original = ab._grid_plan

        def spy(cfg, gammas):
            seen.append(cfg)
            return original(cfg, gammas)

        monkeypatch.setattr(ab, "_grid_plan", spy)
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
    def test_cold_solve_allocates_little(self, name, params, monkeypatch):
        import tracemalloc
        optimize_bound("deletion", d=0.5)  # first-use allocations of numpy and the package
        monkeypatch.setattr(ab, "_ROW_ENTROPIES", ((), np.ones(1), np.zeros(0), np.zeros(0)))
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
        (record,) = [r for r in caplog.records if r.name == "delinscap"]
        message = record.getMessage()
        evaluated = int(message.split(" chunks evaluated")[0].split()[-1])
        skipped = int(message.split(" skipped; argmax")[0].split()[-1])
        assert evaluated + skipped == len(_grid("deletion", 0.1).chunks) and evaluated > 0 and skipped > 0


def _capacity(name, d):
    """A capacity the bound ``name`` may not exceed: 1 - d for the deletion
    and combined channels (a genie that reveals where bits were deleted and
    inserted leaves an erasure channel), 1 for the insertion channel."""
    return 1.0 - d if name in ("deletion", "delins") else 1.0


class TestCapacityEnvelope:
    """Every bound, at any gamma and at gamma*, lies below its channel's
    capacity, up to its own error budget and 1e-12: the terms are O(1) bits
    added in a few float operations, so their rounding is far below that."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(ab._BOUNDS)), st.floats(0.0, 0.999), st.floats(0.0, 0.999), st.floats(0.0, 1.0),
           st.floats(GAMMA_MIN, GAMMA_MAX))
    @example("deletion", 0.0, 0.0, 1.0, 0.5)  # the bound is the capacity, 1
    @example("deletion", 0.99, 0.0, 1.0, GAMMA_MAX)
    @example("deletion", 0.5, 0.0, 1.0, GAMMA_MIN)
    @example("delins", 0.45, 0.55, 0.5, GAMMA_MAX)  # d + i = 1
    @example("delins", 0.3, 0.7, 1.0, GAMMA_MIN)
    @example("delins", 0.5, 0.3, 0.8, 0.9999)  # the run-length term cut by r_max_cap
    @example("insertion_lb1", 0.0, 0.999, 0.0, GAMMA_MAX)
    @example("insertion_lb2", 0.0, 0.999, 0.3, GAMMA_MIN)
    def test_bound_at_any_gamma(self, name, d, i, alpha, gamma):
        if d + i > 1.0:
            d, i = i, 1.0 - i
        res = _lb(name, d, i, alpha, gamma)
        assert res.bound_bits <= _capacity(name, go._bound_params(name, d, i, alpha).d) + res.error_budget + 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(ab._BOUNDS)), st.floats(0.0, 0.99), st.floats(0.0, 0.99), st.floats(0.0, 1.0))
    @example("deletion", 0.99, 0.0, 1.0)
    @example("delins", 0.45, 0.55, 0.5)
    @example("delins", 0.5, 0.3, 0.8)
    def test_optimized_bound(self, name, d, i, alpha):
        if d + i > 1.0:
            d, i = i, 1.0 - i
        res = optimize_bound(name, d=d, i=i, alpha=alpha)
        assert res.bound_bits <= _capacity(name, go._bound_params(name, d, i, alpha).d) + res.error_budget + 1e-12
