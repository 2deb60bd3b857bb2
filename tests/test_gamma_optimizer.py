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


class TestMaximize:
    def test_source_entropy(self):
        g, v = maximize_over_gamma(binary_entropy)
        assert abs(g - 0.5) <= 1e-4
        assert v == 1.0

    def test_returns_evaluated_point(self):
        fn = lambda g: -(g - 0.37) ** 2
        g, v = maximize_over_gamma(fn, tol=1e-6)
        assert v == fn(g)  # exact re-evaluation, not an interpolant
        assert abs(g - 0.37) <= 1e-5

    def test_beats_coarse_grid(self):
        fn = lambda g: -(g - 0.1234) ** 2
        g, v = maximize_over_gamma(fn)
        grid_best = max(fn((k + 1) / 200) for k in range(199))
        assert v >= grid_best

    def test_multimodal_grid_guard(self):
        # two humps; the grid must find the taller one even though a local
        # refinement started anywhere near the other would miss it
        fn = lambda g: math.exp(-((g - 0.2) / 0.02) ** 2) + 1.5 * math.exp(-((g - 0.8) / 0.02) ** 2)
        g, _ = maximize_over_gamma(fn)
        assert abs(g - 0.8) <= 1e-4

    @pytest.mark.parametrize("tol", [float("nan"), 1e-10, -1.0])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError):
            maximize_over_gamma(binary_entropy, tol=tol)

    def test_non_finite_propagates(self):
        with pytest.raises(ValueError):
            maximize_over_gamma(lambda g: float("nan"))

    def test_respects_domain(self):
        seen = []

        def fn(g):
            seen.append(g)
            return binary_entropy(g)

        maximize_over_gamma(fn)
        assert min(seen) >= GAMMA_MIN and max(seen) <= GAMMA_MAX


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


def _unpruned(name, d=0.0, i=0.0, alpha=1.0, printed=False, tol=1e-5):
    """optimize_bound's search with no ceiling: every grid point evaluated."""
    cfg = ab.SeriesConfig()
    bound = go._BOUNDS[name]
    gamma_star, _ = maximize_over_gamma(lambda g: bound.evaluate(d, i, alpha, g, cfg, False, printed).bound_bits, tol)
    return bound.evaluate(d, i, alpha, gamma_star, cfg, True, printed)


class TestCeiling:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(go._BOUNDS)), st.floats(0.0, 0.9), st.floats(0.0, 0.9), st.floats(0.0, 1.0),
           st.floats(1e-6, 0.99))
    @example("delins", 0.0, 0.0, 1.0, 0.5)
    @example("deletion", 0.0, 0.0, 1.0, 0.99)
    @example("insertion_lb2", 0.0, 0.9, 1.0, 1e-6)
    def test_ceiling_is_the_positive_terms_and_bounds_the_bound(self, name, d, i, alpha, gamma):
        assume(d + i <= 1.0)
        bound = go._BOUNDS[name]
        res = bound.evaluate(d, i, alpha, gamma, ab.SeriesConfig(), True, False)
        ceiling = bound.ceiling(d, i, alpha, gamma)
        positive = 0.0
        for t in res.terms:  # in order, as the bound is assembled
            if t.role.sign > 0:
                positive += t.value
        assert repr(ceiling) == repr(positive)
        assert res.bound_bits <= ceiling

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
    @given(st.sampled_from(["deletion", "insertion_lb2", "delins"]), st.floats(0.0, 0.95), st.floats(0.0, 0.95),
           st.floats(0.0, 1.0), st.floats(0.9, 0.9999), st.floats(0.0, 1.0))
    @example("deletion", 0.95, 0.0, 1.0, 0.9953, 1.0)
    @example("delins", 0.45, 0.55, 0.5, 0.99, 0.5)  # interior zero: every bit deleted or doubled
    @example("insertion_lb2", 0.0, 0.4, 0.6, 0.9999, 0.0)
    def test_probe_is_ruled_out_only_if_the_bound_cannot_beat(self, name, d, i, alpha, gamma, share):
        # the probe ceiling is at least the lb_* itself, bit for bit: a beat
        # one ulp below the bound is never ruled out
        if d + i > 1.0:
            d, i = i, 1.0 - i
        cfg = ab.SeriesConfig()
        bound = go._BOUNDS[name]
        grid = bound.grid(d, i, alpha, go._GRID, cfg)
        kernel = grid._run_law(gamma).kernel
        blocks = (ab._r_truncation(gamma, cfg) - 1) // ab._ROW_BLOCK
        assume(kernel and blocks >= 1)
        held = ab._ROW_BLOCK * (1 + int(share * (blocks - 1)))  # short of r_max
        empty = ((), np.ones(1), np.zeros(0), np.zeros(0))
        saved, ab._ROW_ENTROPIES = ab._ROW_ENTROPIES, empty
        try:
            value = bound.evaluate(d, i, alpha, gamma, cfg, False, False).bound_bits
            ab._ROW_ENTROPIES = empty
            ab._row_entropies(kernel, held)
            assert not grid.rules_out(gamma, math.nextafter(value, -math.inf))
            assert grid.rules_out(gamma, math.inf)
            assert ab._row_table_size() == held
        finally:
            ab._ROW_ENTROPIES = saved

    def test_grid_chunk_weights_are_kept_read_only(self):
        cfg = ab.SeriesConfig(tail_epsilon=2e-12)  # weights no other test fills
        first = optimize_bound("deletion", d=0.9, cfg=cfg)
        info = ab._fixed_chunk_weights.cache_info()
        warm = optimize_bound("deletion", d=0.9, cfg=cfg)
        assert ab._fixed_chunk_weights.cache_info().misses == info.misses
        assert repr(warm) == repr(first)
        weights = ab._chunk_weights(go._GRID[go._grid_chunks(cfg)[-1]], cfg)
        assert not any(array.flags.writeable for array in weights[1:])
        ab._fixed_chunk_weights.cache_clear()
        assert repr(optimize_bound("deletion", d=0.9, cfg=cfg)) == repr(warm)
        assert ab._chunk_weights(np.array([0.5, 0.9]), cfg).p.flags.writeable  # any other array: no memo

    def test_gamma_star_on_both_sides_of_0_9(self):
        assert optimize_bound("deletion", d=0.1).gamma_star < 0.9 < optimize_bound("deletion", d=0.9).gamma_star
        assert optimize_bound("delins", d=0.1, i=0.1, alpha=0.8).gamma_star < 0.9 < \
            optimize_bound("delins", d=0.8, i=0.05, alpha=0.9).gamma_star

    def test_non_finite_objective_raises_with_a_ceiling(self):
        with pytest.raises(ValueError):
            maximize_over_gamma(lambda g: float("nan"), ceiling=lambda g: 1.0)
        with pytest.raises(ValueError):
            maximize_over_gamma(lambda g: float("inf") if g > 0.5 else 0.0, ceiling=lambda g: float("inf"))

    def test_low_gamma_solve_keeps_the_row_table_short(self, monkeypatch):
        monkeypatch.setattr(ab, "_ROW_ENTROPIES", ((), ab.np.ones(1), ab.np.zeros(0), ab.np.zeros(0)))
        optimize_bound("deletion", d=0.1)
        rows = ab._ROW_ENTROPIES[2].size
        assert 0 < rows <= ab._r_truncation(0.995, ab.SeriesConfig()) // 10

    def test_printed_form_is_not_pruned(self, monkeypatch):
        calls = []
        original = go.lb_deletion

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(go, "lb_deletion", counted)
        res = optimize_bound("deletion", d=0.2, use_printed_hs2=True)
        assert len(set(calls)) > 199  # every grid point, then golden section
        assert repr(res) == repr(_unpruned("deletion", d=0.2, printed=True))
        assert "deleted_runs_penalty_printed_form" in {t.name for t in res.terms}

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
    """Each bound's array form (``_BOUNDS[name].grid``) against its lb_*."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(go._BOUNDS)), st.floats(0.0, 0.95), st.floats(0.0, 0.95), st.floats(0.0, 1.0),
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
        cfg = ab.SeriesConfig()
        bound = go._BOUNDS[name]
        grid = bound.grid(d, i, alpha, gammas, cfg)
        values = grid.values()
        scalar = [bound.evaluate(d, i, alpha, g, cfg, False, False) for g in gammas.tolist()]
        for v, res in zip(values.tolist(), scalar):
            assert abs(v - res.bound_bits) <= 1e-13
            assert type(res.bound_bits) is float and all(type(t.value) is float for t in res.terms)
        assert np.all(grid.ceilings >= values)
        assert type(bound.ceiling(d, i, alpha, float(gammas[0]))) is float

    @pytest.mark.parametrize("name, params", _PRUNED_CASES)
    def test_array_search_finds_the_scalar_grid_argmax(self, name, params, caplog):
        assert _grid_argmax(caplog, lambda: optimize_bound(name, **params)) == \
            _grid_argmax(caplog, lambda: _unpruned(name, **params))

    def test_custom_series_config_takes_the_array_path(self, monkeypatch):
        from delinscap import verification
        seen = []
        original = ab._run_law_values

        def spy(gammas, d, i, cfg):
            seen.append(cfg)
            return original(gammas, d, i, cfg)

        monkeypatch.setattr(ab, "_run_law_values", spy)
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
        assert evaluated + skipped == len(go._grid_chunks(ab.SeriesConfig())) and evaluated > 0 and skipped > 0
